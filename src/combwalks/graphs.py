"""Graph families for comb-lattice random-walk experiments.

A comb over a base graph G attaches a copy of the integer line (a "tooth")
at every vertex of G; the two-dimensional variant attaches a copy of Z^2
glued at its origin instead.  Vertices are plain integer tuples:

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
DEFAULT_BUDGET = 2 << 30


class GraphError(ValueError):
    """Invalid family string, parameter, or vertex."""


class BudgetError(RuntimeError):
    """A truncation would exceed the configured memory budget."""

    def __init__(self, message, count=None):
        super().__init__(message)
        self.count = count


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

class Graph:
    """Base class: a rooted graph given by a neighbor function.

    `neighbors` returns an ordered list of (vertex, multiplicity) pairs;
    multiplicities are 1 except for biased-ladder midpoint classes, where a
    class stands for `multiplicity` distinct parallel neighbors.  Order is
    canonical (base-graph neighbors first, coordinate-ascending, then tooth
    neighbors ascending) so seeded runs are reproducible bit for bit.
    """

    family = ""
    root = ()
    is_finite = False
    constant_degree = None

    def contains(self, v):
        raise NotImplementedError

    def neighbors(self, v):
        raise NotImplementedError

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


class Line(Graph):
    family = "line"
    root = (0,)
    constant_degree = 2

    def contains(self, v):
        return isinstance(v, tuple) and len(v) == 1 and _is_int(v[0])

    def neighbors(self, v):
        self._require(v)
        (x,) = v
        return [((x - 1,), 1), ((x + 1,), 1)]

    def degree(self, v):
        self._require(v)
        return 2


class Cycle(Graph):
    """Cycle on m >= 3 vertices."""

    is_finite = True
    constant_degree = 2

    def __init__(self, m):
        if m < 3:
            raise GraphError(f"cycle needs m >= 3, got {m}")
        self.m = m
        self.family = f"cycle:{m}"
        self.root = (0,)

    def contains(self, v):
        return isinstance(v, tuple) and len(v) == 1 and _is_int(v[0]) and 0 <= v[0] < self.m

    def neighbors(self, v):
        self._require(v)
        (i,) = v
        a, b = (i - 1) % self.m, (i + 1) % self.m
        if a > b:
            a, b = b, a
        return [((a,), 1), ((b,), 1)]

    def degree(self, v):
        self._require(v)
        return 2


class PathTwo(Graph):
    """Single edge on two vertices (the degenerate cycle:2)."""

    is_finite = True
    family = "cycle:2"
    root = (0,)
    constant_degree = 1

    def contains(self, v):
        return v in ((0,), (1,))

    def neighbors(self, v):
        self._require(v)
        return [((1 - v[0],), 1)]

    def degree(self, v):
        self._require(v)
        return 1


class Star(Graph):
    """Hub vertex 0 joined to k leaves (non-constant degrees)."""

    is_finite = True

    def __init__(self, k):
        if k < 1:
            raise GraphError(f"star needs k >= 1, got {k}")
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

    def degree(self, v):
        self._require(v)
        return self.k if v[0] == 0 else 1


class Grid2D(Graph):
    family = "grid2d"
    root = (0, 0)
    constant_degree = 4

    def contains(self, v):
        return isinstance(v, tuple) and len(v) == 2 and all(_is_int(c) for c in v)

    def neighbors(self, v):
        self._require(v)
        x, y = v
        return [((x - 1, y), 1), ((x, y - 1), 1), ((x, y + 1), 1), ((x + 1, y), 1)]

    def degree(self, v):
        self._require(v)
        return 4


class Comb(Graph):
    """Comb(G): a copy of Z attached at every vertex of the base graph G.

    Base edges survive only at tooth coordinate 0 (the backbone).
    """

    def __init__(self, base):
        if not isinstance(base, (Line, Cycle, PathTwo)):
            raise GraphError(f"comb base not supported: {base.family}")
        self.base = base
        self.family = f"comb:{base.family}"
        self.root = (base.root[0], 0)
        self.is_finite = False

    def contains(self, v):
        return (isinstance(v, tuple) and len(v) == 2 and _is_int(v[1])
                and self.base.contains((v[0],)))

    def neighbors(self, v):
        self._require(v)
        b, t = v
        out = []
        if t == 0:
            out.extend(((w[0], 0), 1) for w, _ in self.base.neighbors((b,)))
        out.append(((b, t - 1), 1))
        out.append(((b, t + 1), 1))
        return out

    def degree(self, v):
        self._require(v)
        return 2 + (self.base.degree((v[0],)) if v[1] == 0 else 0)


class Comb2(Graph):
    """Comb(G, Z^2): a copy of Z^2 glued at its origin at every base vertex."""

    def __init__(self, base):
        if not isinstance(base, (Line, Cycle, PathTwo)):
            raise GraphError(f"comb2 base not supported: {base.family}")
        self.base = base
        self.family = f"comb2:{base.family}"
        self.root = (base.root[0], 0, 0)
        self.is_finite = False

    def contains(self, v):
        return (isinstance(v, tuple) and len(v) == 3 and _is_int(v[1]) and _is_int(v[2])
                and self.base.contains((v[0],)))

    def neighbors(self, v):
        self._require(v)
        b, t1, t2 = v
        out = []
        if t1 == 0 and t2 == 0:
            out.extend(((w[0], 0, 0), 1) for w, _ in self.base.neighbors((b,)))
        out.append(((b, t1 - 1, t2), 1))
        out.append(((b, t1 + 1, t2), 1))
        out.append(((b, t1, t2 - 1), 1))
        out.append(((b, t1, t2 + 1), 1))
        return out

    def degree(self, v):
        self._require(v)
        return 4 + (self.base.degree((v[0],)) if v[1] == 0 and v[2] == 0 else 0)


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
        kind, n, _ = v
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

    def degree(self, v):
        self._require(v)
        kind, n, _ = v
        if kind == 1:
            return 2
        if n == 0:
            return 2          # spine(1) and midpoint(0, 0)
        return 2 + (1 << (n - 1)) + (1 << n)

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
            return Line()
        if fam == "grid2d" and not params:
            return Grid2D()
        if fam == "biased-ladder" and not params:
            return BiasedLadder()
        if fam == "cycle" and len(params) == 1:
            m = int(params[0])
            return PathTwo() if m == 2 else Cycle(m)
        if fam == "star" and len(params) == 1:
            return Star(int(params[0]))
        if fam in ("comb", "comb2") and params:
            base = build_graph(":".join(params))
            return Comb(base) if fam == "comb" else Comb2(base)
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

    Indices are sorted by level (distance from the root), so the first
    `level_start[r]` indices are exactly the ball of radius r-1; boundary
    vertices (level == radius) occupy the tail.  `arc_src`/`arc_dst` list
    every directed adjacency with both endpoints inside the ball.
    `degrees[i]` is the degree in the full graph, which on the boundary
    exceeds the in-ball arc count.

    A lumped ball (`lumped` true) holds one representative per orbit of a
    group of automorphisms fixing the root, and `orbit[i]` is the orbit's
    size; each arc goes from a representative to the representative of the
    neighbour's orbit, so arcs into one orbit repeat and their weights add.
    Otherwise every orbit is a single vertex.
    """

    def __init__(self, graph, radius, coords, level, arc_src, arc_dst, degrees,
                 index_of, tooth=None, annulus=None, root=None, orbit=None):
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
        self.tooth = tooth
        self.annulus = annulus
        self.lumped = orbit is not None
        self.orbit = np.ones(self.size, dtype=np.int64) if orbit is None else orbit
        counts = np.bincount(level, minlength=radius + 1)
        self.level_start = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        self.root_index = int(index_of(self.root))
        assert level[self.root_index] == 0

    def index_of(self, v):
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


def ball(graph, radius, budget=DEFAULT_BUDGET, lumped=False):
    """Exact truncation of `graph` to distance `radius` from its root.

    Closed-form vectorized enumerations cover the families the exact kernels
    are run on at scale; everything else falls back to breadth-first search.
    With `lumped`, `line` (under x -> -x), `comb:line` (x -> -x, t -> -t)
    and `grid2d` (the eight symmetries fixing the origin) come back as
    lumped balls; other families come back unlumped.  Aborts with
    BudgetError (reporting the state count) if the ball would not fit in
    `budget` bytes.
    """
    if radius < 0:
        raise GraphError("radius must be >= 0")
    fam = graph.family
    if fam == "line":
        return _ball_line(graph, radius, budget, lumped)
    if fam.startswith("cycle:") and isinstance(graph, Cycle):
        return _ball_cycle(graph, radius, budget)
    if fam.startswith("star:"):
        return _ball_star(graph, radius, budget)
    if fam == "grid2d":
        return _ball_grid(graph, radius, budget, lumped)
    if isinstance(graph, Comb) and isinstance(graph.base, Line):
        return _ball_comb_line(graph, radius, budget, lumped)
    if isinstance(graph, Comb) and isinstance(graph.base, Cycle):
        return _ball_comb_cycle(graph, radius, budget)
    return _ball_bfs(graph, radius, budget)


def _budget_check(n_vertices, n_arcs, budget, what):
    # index arrays, levels, degrees, plus CSR assembly working space
    est = n_vertices * 40 + n_arcs * 24
    if est > budget:
        raise BudgetError(
            f"{what}: {n_vertices} states / {n_arcs} arcs need ~{est >> 20} MiB, "
            f"budget is {budget >> 20} MiB", count=n_vertices)


def _ragged(lows, counts):
    """Concatenate arange(lo, lo+c) for each (lo, c) pair, vectorized."""
    counts = np.asarray(counts, dtype=np.int64)
    lows = np.asarray(lows, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.zeros(len(counts) + 1, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))
    out = np.arange(total, dtype=np.int64) - np.repeat(starts[:-1], counts) \
        + np.repeat(lows, counts)
    return out, starts


def _columns(cols, lows, counts):
    """Pairs (c, r) with lows[i] <= r < lows[i] + counts[i] in column
    c = cols[i] (ascending), column by column, plus their flat index."""
    rs, starts = _ragged(lows, counts)
    c0 = int(cols[0])
    cum = np.zeros(int(cols[-1]) - c0 + 1, dtype=np.int64)
    low = np.zeros_like(cum)
    cum[cols - c0] = starts[:-1]
    low[cols - c0] = lows

    def flat(c, r):
        return cum[c - c0] + (r - low[c - c0])

    return np.repeat(cols, counts), rs, flat, len(rs)


def _diamond(R, quarter=False):
    """(x, y) with |x| + |y| <= R, or only those with x, y >= 0."""
    if quarter:
        xcol = np.arange(R + 1, dtype=np.int64)
        return _columns(xcol, np.zeros_like(xcol), R - xcol + 1)
    xcol = np.arange(-R, R + 1, dtype=np.int64)
    half = R - np.abs(xcol)
    return _columns(xcol, -half, 2 * half + 1)


def _finish(graph, radius, coords, level, flat_of, flat_size, edges, degrees,
            in_ball, tooth=None, annulus=None, orbit=None):
    """Common tail: level-sort, invert the flat index, map edges to indices.

    `flat_of` is only guaranteed valid for in-ball coordinates, so `index_of`
    consults the `in_ball` predicate before touching the lookup table.
    """
    n = len(level)
    keys = tuple(reversed(coords)) + (level,)
    order = np.lexsort(keys)
    coords = tuple(np.ascontiguousarray(c[order]) for c in coords)
    level = np.ascontiguousarray(level[order]).astype(np.int32)
    degrees = np.ascontiguousarray(degrees[order]).astype(np.float64)
    tooth, annulus, orbit = (None if a is None else np.ascontiguousarray(a[order])
                             for a in (tooth, annulus, orbit))

    lookup = np.full(flat_size, -1, dtype=np.int64)
    lookup[flat_of(*coords)] = np.arange(n, dtype=np.int64)

    srcs, dsts = [], []
    for src_coords, dst_coords in edges:
        srcs.append(lookup[flat_of(*src_coords)].astype(np.int32))
        dsts.append(lookup[flat_of(*dst_coords)].astype(np.int32))
    arc_src = np.concatenate(srcs) if srcs else np.empty(0, np.int32)
    arc_dst = np.concatenate(dsts) if dsts else np.empty(0, np.int32)

    def index_of(v, _lookup=lookup, _flat=flat_of, _g=graph, _in=in_ball):
        if not _g.contains(v):
            raise GraphError(f"{v!r} is not a vertex of {_g.family}")
        if not _in(*v):
            return -1
        arrs = tuple(np.asarray([c]) for c in v)
        return _lookup[_flat(*arrs)[0]]

    return Ball(graph, radius, coords, level, arc_src, arc_dst, degrees,
                index_of, tooth=tooth, annulus=annulus, orbit=orbit)


def _ball_line(graph, radius, budget, lumped=False):
    R = radius
    _budget_check(2 * R + 1, 4 * R, budget, "line ball")
    lo = 0 if lumped else -R          # lumped: one state per orbit {x, -x}
    x = np.arange(lo, R + 1, dtype=np.int64)
    edges = []
    for dx in (-1, 1):
        m = np.abs(x + dx) <= R
        dst = x[m] + dx
        edges.append(((x[m],), (np.abs(dst) if lumped else dst,)))
    return _finish(graph, R, (x,), np.abs(x), lambda xs: xs + R, 2 * R + 1,
                   edges, np.full(len(x), 2.0),
                   in_ball=lambda xv: lo <= xv <= R,
                   orbit=np.where(x == 0, 1, 2) if lumped else None)


def _ball_cycle(graph, radius, budget):
    m = graph.m
    R = radius
    if R >= m // 2:
        i = np.arange(m, dtype=np.int64)
    else:
        i = np.concatenate([np.arange(R + 1, dtype=np.int64),
                            np.arange(m - R, m, dtype=np.int64)])
    level = np.minimum(i, m - i)
    deg = np.full(len(i), 2.0)

    def flat(ii):
        return ii

    edges = []
    inside = np.zeros(m, dtype=bool)
    inside[i] = True
    for di in (-1, 1):
        j = (i + di) % m
        mask = inside[j]
        edges.append(((i[mask],), (j[mask],)))
    return _finish(graph, R, (i,), level, flat, m, edges, deg,
                   in_ball=lambda iv: min(iv, m - iv) <= R)


def _ball_star(graph, radius, budget):
    k = graph.k
    if radius == 0:
        i = np.zeros(1, dtype=np.int64)
    else:
        i = np.arange(k + 1, dtype=np.int64)
    level = (i > 0).astype(np.int64)
    deg = np.where(i == 0, float(k), 1.0)

    def flat(ii):
        return ii

    edges = []
    if radius >= 1:
        leaves = np.arange(1, k + 1, dtype=np.int64)
        hub = np.zeros(k, dtype=np.int64)
        edges = [((hub,), (leaves,)), ((leaves,), (hub,))]
    return _finish(graph, radius, (i,), level, flat, k + 1, edges, deg,
                   in_ball=lambda iv: iv == 0 or radius >= 1)


def _ball_grid(graph, radius, budget, lumped=False):
    R = radius
    if lumped:
        # the octant x >= y >= 0: one state per orbit of the eight symmetries
        xcol = np.arange(R + 1, dtype=np.int64)
        counts = np.minimum(xcol, R - xcol) + 1
        n_est = int(counts.sum())
    else:
        n_est = 2 * R * R + 2 * R + 1
    _budget_check(n_est, 4 * n_est, budget, "grid2d ball")
    xs, ys, flat, total = _columns(xcol, 0 * xcol, counts) if lumped \
        else _diamond(R)
    level = np.abs(xs) + np.abs(ys)
    edges = []
    for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        m = np.abs(xs + dx) + np.abs(ys + dy) <= R
        nx, ny = xs[m] + dx, ys[m] + dy
        if lumped:
            nx, ny = np.abs(nx), np.abs(ny)
            nx, ny = np.maximum(nx, ny), np.minimum(nx, ny)
        edges.append(((xs[m], ys[m]), (nx, ny)))
    return _finish(graph, R, (xs, ys), level, flat, total, edges,
                   np.full(total, 4.0),
                   in_ball=lambda xv, yv: (not lumped or 0 <= yv <= xv)
                   and abs(xv) + abs(yv) <= R,
                   orbit=np.where(ys == 0, np.where(xs == 0, 1, 4),
                                  np.where(xs == ys, 4, 8)) if lumped else None)


def _ball_comb_line(graph, radius, budget, lumped=False):
    R = radius
    n_est = (R + 1) * (R + 2) // 2 if lumped else 2 * R * R + 2 * R + 1
    _budget_check(n_est, 2 * n_est + 4 * R, budget, "comb(line) ball")
    # lumped: one state per orbit of x -> -x and t -> -t, the quarter x, t >= 0
    xs, ts, flat, total = _diamond(R, quarter=lumped)
    fold = np.abs if lumped else np.asarray
    level = np.abs(xs) + np.abs(ts)
    deg = np.where(ts == 0, 4.0, 2.0)
    edges = []
    for dt in (-1, 1):
        m = np.abs(xs) + np.abs(ts + dt) <= R
        edges.append(((xs[m], ts[m]), (xs[m], fold(ts[m] + dt))))
    for dx in (-1, 1):
        m = (ts == 0) & (np.abs(xs + dx) <= R)
        edges.append(((xs[m], ts[m]), (fold(xs[m] + dx), ts[m])))
    lo = 0 if lumped else -R
    return _finish(graph, R, (xs, ts), level, flat, total, edges, deg,
                   in_ball=lambda xv, tv: min(xv, tv) >= lo
                   and abs(xv) + abs(tv) <= R,
                   tooth=ts,
                   orbit=(1 + (xs != 0)) * (1 + (ts != 0)) if lumped else None)


def _ball_comb_cycle(graph, radius, budget):
    m = graph.base.m
    R = radius
    bcol = np.arange(m, dtype=np.int64)
    bdist = np.minimum(bcol, m - bcol)
    present = bdist <= R
    bcol = bcol[present]
    half = R - bdist[present]
    counts = 2 * half + 1
    _budget_check(int(counts.sum()), int(2 * counts.sum()) + 2 * m, budget,
                  "comb(cycle) ball")
    bs, ts, flat, total = _columns(bcol, -half, counts)
    level = np.minimum(bs, m - bs) + np.abs(ts)
    deg = np.where(ts == 0, 4.0, 2.0)
    edges = []
    for dt in (-1, 1):
        ok = np.minimum(bs, m - bs) + np.abs(ts + dt) <= R
        edges.append(((bs[ok], ts[ok]), (bs[ok], ts[ok] + dt)))
    for db in (-1, 1):
        nb = (bs + db) % m
        ok = (ts == 0) & (np.minimum(nb, m - nb) <= R)
        edges.append(((bs[ok], ts[ok]), (nb[ok], ts[ok])))
    return _finish(graph, R, (bs, ts), level, flat, total, edges, deg,
                   in_ball=lambda bv, tv: min(bv, m - bv) + abs(tv) <= R,
                   tooth=ts)


def _ball_bfs(graph, radius, budget, root=None):
    """Generic breadth-first truncation for families without a closed form."""
    max_states = max(budget // 250, 1)
    root = graph.root if root is None else root
    index = {root: 0}
    verts = [root]
    level = [0]
    frontier = [root]
    for r in range(1, radius + 1):
        nxt = []
        for v in frontier:
            for w in graph.concrete_neighbors(v):
                if w not in index:
                    index[w] = len(verts)
                    verts.append(w)
                    level.append(r)
                    nxt.append(w)
                    if len(verts) > max_states:
                        raise BudgetError(
                            f"bfs ball exceeded {max_states} states at radius {r}",
                            count=len(verts))
        frontier = nxt
    src, dst = [], []
    for v, i in index.items():
        for w in graph.concrete_neighbors(v):
            j = index.get(w)
            if j is not None:
                src.append(i)
                dst.append(j)
    coords = tuple(np.asarray(col, dtype=np.int64) for col in zip(*verts))
    level = np.asarray(level, dtype=np.int32)
    degrees = np.asarray([graph.degree(v) for v in verts], dtype=np.float64)
    tooth = annulus = None
    if isinstance(graph, Comb):
        tooth = np.asarray([v[1] for v in verts], dtype=np.int64)
    if isinstance(graph, Comb2):
        annulus = np.asarray([max(abs(v[1]), abs(v[2])) for v in verts],
                             dtype=np.int64)

    def index_of(v, _index=index, _g=graph):
        if not _g.contains(v):
            raise GraphError(f"{v!r} is not a vertex of {_g.family}")
        return _index.get(v, -1)

    b = Ball(graph, radius, coords, level,
             np.asarray(src, dtype=np.int32), np.asarray(dst, dtype=np.int32),
             degrees, index_of, tooth=tooth, annulus=annulus, root=root)
    b.vertex_of = lambda i: verts[i]
    return b
