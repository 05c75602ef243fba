"""Graph families for comb-lattice random-walk experiments.

A comb over a base graph G attaches a copy of the integer line (a "tooth")
at every vertex of G; the two-dimensional variant attaches a copy of Z^2
glued at its origin instead.  The line, cycle and grid2d families have the
same shape, with a one-vertex tooth or a one-vertex base, so one class,
`Product`, models all of them by its base (one vertex, the line, the single
edge cycle:2 or a cycle) and its tooth dimension (0, 1 or 2); the ball
builder, the sampler and the oracle read that description.  Vertices are
plain integer tuples:

    line          (x,)
    cycle:m       (i,)          0 <= i < m
    star:k        (i,)          0 = hub, 1..k = leaves
    grid2d        (x, y)
    comb:base     (b, t)        b = base coordinate, t = tooth coordinate
    comb2:base    (b, t1, t2)   Z^2 teeth glued at (0, 0)
    biased-ladder (kind, n, i)  kind 0 = spine(n) with i = 0,
                                kind 1 = midpoint(n, i), 0 <= i < 2^min(n, 62)

The biased ladder is the half-line 0, 1, 2, ... with 2^n disjoint paths of
length two added between n and n+1; midpoint(n, i) is the interior vertex
of the i-th such path.  Degrees along the spine grow like 2^n, so neighbor
enumeration compresses midpoints into (class, multiplicity) pairs and the
index i is never materialized.

Infinite graphs are represented by their neighbor functions alone.  The
`ball` routine builds an exact finite truncation (all vertices within graph
distance R of the root, with a dense index) which is what the exact-kernel
code iterates over.
"""

from __future__ import annotations

import numpy as np

LADDER_ID_BITS = 62     # midpoint indices keep their low 62 bits
INT64_END = 1 << 63     # cycle lengths and coordinates stay below
DEFAULT_BUDGET = 2 << 30


class GraphError(ValueError):
    """Invalid family string, parameter, or vertex."""


class BudgetError(RuntimeError):
    """A truncation would exceed the configured memory budget."""


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

class Graph:
    """Base class: a rooted graph given by a neighbor function.

    `neighbors` returns an ordered list of (vertex, multiplicity) pairs;
    multiplicities are 1 except for biased-ladder midpoint classes, where a
    class stands for `multiplicity` distinct parallel neighbors.  Order is
    canonical (base-graph neighbors first, coordinate-ascending, then tooth
    neighbors) so seeded runs are reproducible bit for bit.

    The vertex model, `distance`, `height` and `depth`, takes `cols`, one
    array per coordinate, all of one shape (`Ball.coords`, a sampler window
    coordinate-first, or a vertex tuple), and returns that shape.
    """

    family = ""
    root = ()
    constant_degree = None
    m = dim = None          # the description of a `Product`; None elsewhere
    depth_coords = 0        # the depth reads coordinates 1 .. depth_coords

    def contains(self, v):
        raise NotImplementedError

    def neighbors(self, v):
        raise NotImplementedError

    def distance(self, cols):
        """The graph distance from the root."""
        raise NotImplementedError

    def height(self, cols):
        """The tooth height a meeting is recorded at: 0 off the combs."""
        return np.zeros_like(cols[0])

    def depth(self, cols):
        """max |coordinate c| over 1 <= c <= `depth_coords`, else 0."""
        d = np.zeros_like(cols[0])
        for c in cols[1:1 + self.depth_coords]:
            np.maximum(d, np.abs(c), out=d)
        return d

    def degree(self, v):
        self._require(v)
        return sum(m for _, m in self.neighbors(v))

    def concrete_neighbors(self, v):
        """Neighbors with classes expanded to actual vertices."""
        for w, mult in self.neighbors(v):
            if mult == 1:
                yield w
            else:
                raise GraphError("class neighbors need family-specific expansion")

    def _require(self, v):
        if not self.contains(v):
            raise GraphError(f"{v!r} is not a vertex of {self.family}")

    def __repr__(self):
        return f"<Graph {self.family}>"


class Product(Graph):
    """A base graph with a tooth Z^dim glued at its origin to every base
    vertex: the line, cycle, grid2d, comb and comb2 families.

    The base is described by its modulus `m`: None for one vertex, 0 for
    the line, 2 for the single edge (`cycle:2`) and m >= 3 for the cycle
    on m vertices.  `dim` is 0 (no tooth), 1 (Z) or 2 (Z^2).  A vertex is
    (b, t...), with no b on a one-vertex base; base edges survive only
    where every tooth coordinate is 0 (the spine).  `line` and `cycle:m`
    have dim 0, `grid2d` is Z^2 on one vertex, and `comb:G` and `comb2:G`
    put Z and Z^2 teeth on the base G, which is `base`.
    """

    def __init__(self, m, dim):
        if dim not in (0, 1, 2) or m is None and dim != 2 \
                or m is not None and (m < 0 or m == 1):
            raise GraphError(f"no product family with base {m!r} and "
                             f"tooth dimension {dim!r}")
        self.m, self.dim = m, dim
        self.base_degree = 0 if m is None else 1 if m == 2 else 2
        self.base = Product(m, 0) if dim and m is not None else None
        name = "grid2d" if m is None else "line" if m == 0 else f"cycle:{m}"
        self.family = ("comb:", "comb2:")[dim - 1] + name if self.base \
            else name
        self.root = (0,) * (dim + (m is not None))
        self.constant_degree = None if self.base else \
            self.base_degree + 2 * dim
        self.depth_coords = dim if self.base else 0   # grid2d: no depth

    def contains(self, v):
        return (isinstance(v, tuple) and len(v) == len(self.root)
                and all(_is_int(c) for c in v)
                and (not self.m or 0 <= v[0] < self.m))

    def neighbors(self, v):
        """Base neighbours ascending (on the spine), then the -1 and +1
        neighbours of each tooth coordinate in turn."""
        self._require(v)
        k = len(v) - self.dim                  # base coordinates: 0 or 1
        out = []
        if k and not any(v[1:]):
            m = self.m
            out.extend(((w,) + v[1:], 1) for w in sorted(
                {(v[0] + s) % m if m else v[0] + s for s in (-1, 1)}))
        for i in range(k, len(v)):
            for s in (-1, 1):
                out.append((v[:i] + (v[i] + s,) + v[i + 1:], 1))
        return out

    def base_distance(self, b):
        """|b| on the line, min(b, m - b) on a cycle, 0 on one vertex."""
        m = self.m
        return np.zeros_like(b) if m is None else np.minimum(b, m - b) if m \
            else np.abs(b)

    def distance(self, cols):
        """The base distance plus the tooth's L1 norm."""
        d = self.base_distance(cols[0])
        for c in cols[len(cols) - self.dim:]:
            d += np.abs(c)
        return d

    def height(self, cols):
        """The signed tooth on Z teeth, the Chebyshev radius on Z^2."""
        return cols[1] if self.dim == 1 else self.depth(cols)


class Star(Graph):
    """Hub vertex 0 joined to k leaves (non-constant degrees)."""

    def __init__(self, k):
        if not 1 <= k <= 1 << 53:          # a leaf is a 53-bit uniform draw
            raise GraphError(f"star needs 1 <= k <= 2^53, got {k}")
        self.k = k
        self.family = f"star:{k}"
        self.root = (0,)

    def contains(self, v):
        return isinstance(v, tuple) and len(v) == 1 and _is_int(v[0]) and 0 <= v[0] <= self.k

    def neighbors(self, v):
        self._require(v)
        (i,) = v
        if i == 0:
            return [((j,), 1) for j in range(1, self.k + 1)]
        return [((0,), 1)]

    def distance(self, cols):
        return np.minimum(cols[0], 1)           # the hub is 0, a leaf 1


class BiasedLadder(Graph):
    """Half-line 0,1,2,... with 2^n disjoint length-2 paths between n and n+1.

    The walk on the spine positions, watching only the moves between
    distinct spine vertices, steps right with probability 2/3 for large n,
    a bias of 1/3; the graph is transient yet two independent walkers meet
    infinitely often.

    Midpoint indices live in [0, 2^min(n, LADDER_ID_BITS)), the sampler's
    rule: levels above 62 are a quotient whose 2^62 identities each stand
    for 2^(n-62) midpoints, so two walkers at such a level share a midpoint
    with chance 2^-62 per step instead of 2^-n.
    """

    family = "biased-ladder"
    root = (0, 0, 0)
    depth_coords = 1                            # the level

    def contains(self, v):
        if not (isinstance(v, tuple) and len(v) == 3):
            return False
        kind, n, i = v
        if not (_is_int(kind) and _is_int(n) and _is_int(i)) or n < 0:
            return False
        if kind == 0:
            return i == 0
        if kind == 1:
            return 0 <= i < (1 << min(n, LADDER_ID_BITS))
        return False

    def neighbors(self, v):
        self._require(v)
        kind, n = v[0], int(v[1])          # a numpy level would wrap 1 << n
        if kind == 1:
            return [((0, n, 0), 1), ((0, n + 1, 0), 1)]
        out = []
        if n > 0:
            out.append(((0, n - 1, 0), 1))
        out.append(((0, n + 1, 0), 1))
        if n > 0:
            out.append(((1, n - 1, None), 1 << (n - 1)))
        out.append(((1, n, None), 1 << n))
        return out

    def distance(self, cols):
        return cols[1] + (cols[0] == 1)         # a midpoint is one past n

    def concrete_neighbors(self, v):
        for w, mult in self.neighbors(v):
            if w[2] is not None:
                yield w
            else:
                _, lvl, _ = w
                if lvl > 25:
                    raise BudgetError(
                        f"expanding 2^{lvl} midpoints is above any sane budget")
                for i in range(mult):
                    yield (1, lvl, i)


def _is_int(x):
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def check_reach(graph, v, n):
    """`v`, if it is a vertex of `graph` whose distance from the root (over
    Python ints) plus `n` stays below 2^63, so that every vertex within `n`
    steps of it has each coordinate in int64; else GraphError."""
    graph._require(v)
    if int(graph.distance([np.array(int(c), dtype=object) for c in v])) \
            + n >= INT64_END:
        raise GraphError(f"vertex {v!r} and {n} steps leave int64")
    return v


# ---------------------------------------------------------------------------
# spec-string parsing
# ---------------------------------------------------------------------------

def build_graph(spec):
    """Build a graph model from a family string.

    Grammar is family(:param)*, e.g. `line`, `cycle:6`, `grid2d`,
    `comb:line`, `comb:cycle:4`, `comb2:line`, `star:4`, `biased-ladder`.
    `cycle:2` degenerates to a single edge on two vertices.
    """
    if not isinstance(spec, str) or not spec:
        raise GraphError(f"bad graph spec {spec!r}")
    parts = spec.strip().split(":")
    fam, params = parts[0], parts[1:]
    try:
        if fam == "line" and not params:
            return Product(0, 0)
        if fam == "grid2d" and not params:
            return Product(None, 2)
        if fam == "biased-ladder" and not params:
            return BiasedLadder()
        if fam == "cycle" and len(params) == 1:
            m = int(params[0])
            if not 2 <= m < INT64_END:
                raise GraphError(f"cycle needs 2 <= m < 2^63, got {m}")
            return Product(m, 0)
        if fam == "star" and len(params) == 1:
            return Star(int(params[0]))
        if fam in ("comb", "comb2") and params:
            base = build_graph(":".join(params))
            if base.dim != 0:
                raise GraphError(f"{fam} base not supported: {base.family}")
            return Product(base.m, 1 if fam == "comb" else 2)
    except GraphError:
        raise
    except ValueError as exc:
        raise GraphError(f"bad graph spec {spec!r}: {exc}") from None
    raise GraphError(f"unknown graph family {spec!r}")


# ---------------------------------------------------------------------------
# exact truncations
# ---------------------------------------------------------------------------

class Ball:
    """All vertices within graph distance `radius` of the root, indexed densely.

    A bipartite ball (`bipartite` true: no arc joins two states of the
    same level) is indexed parity-major: the states of even level, then
    those of odd level, each class sorted by level, with the class of
    parity p starting at `class_start[p]`.  Any other ball is one class
    sorted by level.  Either way the root is index 0, and a walk from the
    root is after n steps on the rows `rows(n)`: the states of n's class
    within distance n.  `level_start[r]` counts the states of level < r.
    `arc_src`/`arc_dst` list every directed adjacency with both endpoints
    inside the ball.  `degrees[i]` is the degree in the full graph, which
    on the boundary (level == radius) exceeds the in-ball arc count.

    A lumped ball (`lumped` true) holds one representative per orbit of a
    group of automorphisms fixing the root, and `orbit[i]` is the orbit's
    size; each arc goes from a representative to the representative of the
    neighbour's orbit, so arcs into one orbit repeat and their weights add.
    Otherwise every orbit is a single vertex.
    """

    def __init__(self, graph, radius, coords, level, arc_src, arc_dst, degrees,
                 index_of, root=None, orbit=None, bipartite=False):
        self.graph = graph
        self.root = graph.root if root is None else root
        self.radius = radius
        self.size = len(level)
        self.coords = coords
        self.level = level
        self.arc_src = arc_src
        self.arc_dst = arc_dst
        self.degrees = degrees
        self._index_of = index_of
        self.lumped = orbit is not None
        self.orbit = np.ones(self.size, dtype=np.int64) if orbit is None else orbit
        counts = np.bincount(level, minlength=radius + 1)
        self.level_start = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.bipartite = bipartite
        # _row_end[r]: end of the rows of r's class with level <= r
        k = 1 + bipartite                  # number of classes
        self._row_end = np.empty(len(counts), np.int64)
        self.class_start = [0]
        for p in range(k):
            self._row_end[p::k] = self.class_start[p] + np.cumsum(counts[p::k])
            self.class_start.append(self.class_start[p] + int(counts[p::k].sum()))
        self.root_index = int(index_of(self.root))
        assert level[self.root_index] == 0

    def index_of(self, v):
        self.graph._require(v)
        idx = self._index_of(v)
        if idx < 0:
            raise GraphError(f"{v!r} is outside the radius-{self.radius} ball")
        return int(idx)

    def vertex_of(self, i):
        return tuple(int(c[i]) for c in self.coords)

    def interior_size(self, r=None):
        """Vertex count of the sub-ball of radius r (default: radius - 1)."""
        r = self.radius - 1 if r is None else r
        r = min(r, self.radius)
        return int(self.level_start[max(r + 1, 0)])

    def rows(self, n):
        """Index range [lo, hi) of the states a walk from the root can
        occupy after n >= 0 steps."""
        k = 1 + self.bipartite
        r = min(n, self.radius)
        r -= (n - r) % k                   # the last level of n's class
        lo = self.class_start[n % k]
        return lo, int(self._row_end[r]) if r >= 0 else lo


def ball(graph, radius, budget=DEFAULT_BUDGET, lumped=False, root=None):
    """Exact truncation of `graph` to distance `radius` from `root` (None:
    the family root), the one entry to every ball.

    The ball of a `Product` around its family root glues a tooth ball of
    dimension 0, 1 or 2 and radius `radius - d(b)` to each vertex b of its
    base ball (the at most 2 radius + 1 vertices of a line or cycle:m
    within `radius`, or one vertex), d(b) being b's base distance from the
    root; one vectorized builder makes it.  With `lumped`, it keeps one
    state per orbit of the product of the root-fixing base flip (b -> -b
    on the line, b -> -b mod m on a cycle) and the tooth group fixing 0
    (t -> -t on Z, the eight symmetries of the square on Z^2): `comb:line`
    and `comb:cycle:4` lump by 4, `grid2d` by 8 and `comb2:line` by 16.
    Product balls are bipartite, and so indexed parity-major (see `Ball`),
    unless the base is an odd cycle.  `star:k`, the biased ladder and
    balls around any other root come from breadth-first search, unlumped
    and sorted by level as one class.  Aborts with BudgetError (reporting
    the state count) if the ball would not fit in `budget` bytes.
    """
    if radius < 0:
        raise GraphError("radius must be >= 0")
    if root is not None:
        check_reach(graph, root, radius)
    if graph.dim is not None and root in (None, graph.root):
        return _ball_product(graph, radius, budget, lumped)
    return _ball_bfs(graph, radius, budget, root)


def _budget_check(n_vertices, n_arcs, budget, what):
    # The traced peak of ball + Kernel + iterate: about 115 B per state on
    # comb:line (2 arcs per state) and 170 to 180 B on grid2d and comb2
    # (4 arcs per state); `n_arcs` counts the full degree sum.
    est = n_vertices * 40 + n_arcs * 48
    if est > budget:
        raise BudgetError(
            f"{what}: {n_vertices} states / {n_arcs} arcs need ~{est >> 20} MiB, "
            f"budget is {budget >> 20} MiB")


def _ragged(lows, counts):
    """Concatenate arange(lo, lo+c) for each (lo, c) pair, vectorized."""
    counts = np.asarray(counts, dtype=np.int64)
    lows = np.asarray(lows, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))
    out = np.arange(starts[-1], dtype=np.int64) \
        - np.repeat(starts[:-1], counts) + np.repeat(lows, counts)
    return out, starts


def _columns(cols, lows, counts):
    """The rows r with lows[i] <= r < lows[i] + counts[i] of column
    c = cols[i] (ascending), column by column, and the flat index of (c, r)."""
    rs, starts = _ragged(lows, counts)
    c0 = int(cols[0])
    cum = np.zeros(int(cols[-1]) - c0 + 1, dtype=np.int64)
    low = np.zeros_like(cum)
    cum[cols - c0] = starts[:-1]
    low[cols - c0] = lows

    def flat(c, r):
        return cum[c - c0] + (r - low[c - c0])

    return rs, flat


def _ball_product(graph, R, budget, lumped):
    """The radius-R ball of a `Product`, vectorized.

    States run base coordinate ascending, then tooth columns ascending, so
    a state's flat index (`_columns`) is its place in that order; they are
    then sorted by (level % 2, level, coordinates), or by (level,
    coordinates) on an odd cycle base, whose ball has arcs within a level
    and so is not bipartite.  A one-vertex base is the base 0 mod 1: its
    column is carried throughout and dropped only from `Ball.coords`.
    Arcs come in groups: tooth moves per coordinate (-, then +), then base
    moves (-, then +; + alone on cycle:2; none on one vertex) from each
    tooth root, each group in state order.  Lumped, a state is kept only
    if it is its orbit's representative and every arc goes to one.
    """
    m, dim, W = graph.m, graph.dim, 2 * R + 1
    # the base vertices within R, ascending: -R .. R on the line, else the
    # distinct residues mod m of its first m (one vertex: 0); their distance
    # d is also the fold onto orbit representatives: the line's flip and
    # the cycle's reflection send b to d(b), and cycle:2 has no flip
    near = np.arange(-R, R + 1, dtype=np.int64)
    base = near if m == 0 else np.sort(near[:m or 1] % (m or 1))
    dist = graph.base_distance
    dc = dist(base)
    b = base[dc == base] if lumped else base
    d = dist(b)

    def slot(v):                           # base vertex -> one of W slots
        return (v - m + R) % m if m else v + R

    bpos = np.empty(W, np.int64)           # slot -> base position
    bpos[slot(b)] = np.arange(len(b))
    h = R - d                              # tooth radius at each base vertex
    lo = 0 * h if lumped else -h
    if dim == 2:                           # columns (b, t1), rows t2
        t1, _ = _ragged(lo, h - lo + 1)
        pos = np.repeat(np.arange(len(b)), h - lo + 1)
        hh = h[pos] - np.abs(t1)
        lows, counts = (0 * hh, np.minimum(t1, hh) + 1) if lumped \
            else (-hh, 2 * hh + 1)
        key = pos * W + t1 + R
    else:                                  # columns b, rows t (or one row)
        pos = key = np.arange(len(b))
        lows, counts = (lo, h - lo + 1) if dim else (0 * h, 1 + 0 * h)
    n = int(counts.sum())
    _budget_check(n, 2 * dim * n + graph.base_degree * len(b), budget,
                  f"{graph.family} ball")

    rows, flat = _columns(key, lows, counts)
    teeth = (np.repeat(t1, counts), rows) if dim == 2 else (rows,)[:dim]
    del rows, key, lows
    coords = (np.repeat(b[pos], counts),) + teeth
    level = graph.distance(coords)

    def flat_of(bv, *t):
        p = bpos[slot(bv)]
        return flat(p * W + t[0] + R, t[1]) if dim == 2 \
            else flat(p, t[0] if dim else 0 * p)

    bipartite = (m or 0) % 2 == 0
    order = np.lexsort(tuple(reversed(coords)) + (level,)
                       + ((level % 2,) if bipartite else ()))
    lookup = np.empty(n, np.int32)         # flat index -> sorted index
    lookup[order] = np.arange(n, dtype=np.int32)

    srcs, dsts = [], []
    inner = level < R                      # every step from here stays inside
    for k in range(dim):
        for s in (-1, 1):
            on = inner | ((teeth[k] > 0) if s < 0 else (teeth[k] < 0))
            to = [u[on] for u in teeth]
            to[k] += s
            if lumped:                     # |t| on Z, x >= y >= 0 on Z^2
                to = [np.abs(u) for u in to]
                if dim == 2:
                    to = [np.maximum(*to), np.minimum(*to)]
            srcs.append(lookup[on])
            dsts.append(lookup[flat_of(coords[0][on], *to)])
            del on, to
    del inner, teeth
    zero = (0 * b,) * dim
    spine = lookup[flat_of(b, *zero)]      # sorted index of each tooth root
    for s in (-1, 1)[2 - graph.base_degree:]:
        nb = (b + s) % m if m else b + s
        ok = dist(nb) <= R
        nb = dist(nb[ok]) if lumped else nb[ok]
        srcs.append(spine[ok])
        dsts.append(lookup[flat_of(nb, *(z[ok] for z in zero))])
    arc_src = np.concatenate(srcs) if srcs else np.empty(0, np.int32)
    arc_dst = np.concatenate(dsts) if dsts else np.empty(0, np.int32)
    del srcs, dsts

    degrees = np.full(n, 2.0 * dim)
    degrees[spine] += graph.base_degree
    orbit = None
    if lumped:                             # tooth orbit x base orbit
        x = coords[len(coords) - dim:]
        orbit = np.ones(n, np.int64) if dim == 0 else 1 + (x[0] != 0) \
            if dim == 1 else np.where(x[1] == 0, np.where(x[0] == 0, 1, 4),
                                      np.where(x[0] == x[1], 4, 8))
        orbit *= np.bincount(dc)[coords[0]]
        orbit = orbit[order]
    coords = tuple(c[order] for c in coords[m is None:])   # grid2d: no base
    level = level[order].astype(np.int32)
    del order

    def index_of(v):
        bv, *t = (0, *v) if m is None else v   # grid2d's (x, y) is (0, x, y)
        if graph.distance(v) > R or lumped and (
                dist(bv) != bv or t != sorted(map(abs, t), reverse=True)):
            return -1
        return lookup[flat_of(*(np.asarray([c]) for c in (bv, *t)))[0]]

    return Ball(graph, R, coords, level, arc_src, arc_dst, degrees, index_of,
                orbit=orbit, bipartite=bipartite)


def _ball_bfs(graph, radius, budget, root=None):
    """Generic breadth-first truncation around `root` (None: the family
    root), for families without a closed form and for other roots.  Each
    vertex is expanded once, in index order (BFS order), into its new
    neighbours within `radius`, its arcs to indexed vertices and its degree."""
    max_states = max(budget // 250, 1)
    root = graph.root if root is None else root
    index = {root: 0}
    verts, level, degrees, src, dst = [root], [0], [], [], []
    for v in verts:                        # grows while it is walked
        i = index[v]                       # the dict's int, shared by arcs
        r, deg = level[i] + 1, 0
        for w in graph.concrete_neighbors(v):
            deg += 1
            j = index.get(w)
            if j is None and r <= radius:
                j = index[w] = len(verts)
                verts.append(w)
                level.append(r)
                if len(verts) > max_states:
                    raise BudgetError(f"bfs ball exceeded {max_states} "
                                      f"states at radius {r}")
            if j is not None:
                src.append(i)
                dst.append(j)
        degrees.append(deg)
    coords = tuple(np.asarray(col, dtype=np.int64) for col in zip(*verts))

    return Ball(graph, radius, coords, np.asarray(level, dtype=np.int32),
                np.asarray(src, dtype=np.int32), np.asarray(dst, dtype=np.int32),
                np.asarray(degrees, dtype=np.float64),
                lambda v: index.get(v, -1), root=root)
