"""Exact n-step transition kernels on truncated graphs.

Everything here is dynamic programming on a finite ball: one step of simple
random walk is the linear map (P^T x)(w) = sum over neighbors v of
x(v)/deg(v), and a walk started at the root cannot leave the radius-R ball
in fewer than R steps, so truncating at R = n_max + 1 gives the exact
distribution for every n <= n_max.  No spectral shortcuts, no approximation;
probabilities are double precision and all exactness claims are stated as
residuals <= 1e-12 per comparison (iterated averaging accumulates rounding
on the order of n ulp).  The step flushes probabilities below 2^-1022 to 0,
so `transition_vector(...).items()` can omit states of smaller exact mass;
no series moves by a bit.

Two identities from the theory double as self-tests:

  reversibility   p^(2n)(v,v) = sum_w p^(n)(v,w)^2 deg(v)/deg(w)
  loop-around     sum_w p^(i)(v,w) p^(j)(v,w) = p^(i+j)(v,v)   (constant degree)

The reversibility identity is also an optimization: the even-time return
series up to 2K needs only a K-step iteration, which halves the ball radius
and quarters the state count.

Series from the family root run on a lumped ball (`graphs.ball(...,
lumped=True)`).  Every line, cycle, grid2d, comb and comb2 family is
lumped by the product of its root-fixing base flip (b -> -b on the line,
b -> -b mod m on a cycle) and the tooth group fixing 0 (t -> -t on Z, the
eight symmetries of the square on Z^2).  Automorphisms fixing the root
map the walk to itself, so the chain of orbits is exact (Kemeny-Snell
lumpability): q_o, the mass of orbit o, is the walk's probability of the
whole orbit, p is q_o/|o| on each of its vertices, and sum_w p^2 =
sum_o q_o^2/|o|.  The root is a one-vertex orbit, so the diagonal is read
directly.  `comb:line` keeps about a quarter of its states, `grid2d` an
eighth, `comb2:line` a sixteenth.  An unlumped ball has |o| = 1
everywhere, so one code path serves both; `method="generic"`, other
roots, `star:k` and the biased ladder keep the full ball.

Every walk runs through one driver, `_walk`: it charges the series table
(a row per step) to the budget, builds the radius-(n + 1) ball in what
is left, steps its `Kernel` once and stores what a reader returns for
each step, so `budget` bounds the ball, its kernel and the series.  The
even return and meeting series, sums of w_i p_i^2, are summed by the step
in row order: no series goes through a BLAS dot, whose order is the CPU's.

The line, even cycles, grid2d and the combs over them are bipartite, and
their balls are indexed parity-major (`graphs.Ball`): after n steps the
walk is on the states of class n % 2 within distance n, one row range
that `Kernel.step` writes in place and every reader of a step reduces
over.  Other balls are one class, stepped by reached prefix.
"""

from __future__ import annotations

import ctypes

import numpy as np

from . import _native
from .graphs import BudgetError, GraphError, ball, build_graph, DEFAULT_BUDGET

MASS_TOL = 1e-10        # guard on probability conservation during iteration


class OracleError(RuntimeError):
    """Truncation too small for the requested horizon, or mass leaked."""


# ---------------------------------------------------------------------------
# kernel iteration
# ---------------------------------------------------------------------------

class Kernel:
    """Transposed one-step operator on a ball, as CSR arrays.

    Row i gathers mass into state i from its in-ball neighbours (on a lumped
    ball, repeated arcs into one orbit add up).  Step n fills only the rows
    `ball.rows(n)` that carry mass, in one call of the compiled `csr_rows`
    on addresses taken once; no matrix is built.  On a bipartite ball they
    are one parity class, fed only by the other, so steps alternate
    classes in place in one vector; other balls alternate two vectors.
    Rows a run has not reached are never written and stay zero.  The step
    reads 1/deg per state (`inv`) and flushes mass below 2^-1022 to 0.
    Given `weights` w, it sums w_i p_i^2 over its rows, in order, into
    `sq_sum`.  The CSR is a scatter of the ball's arcs, which it releases.
    """

    def __init__(self, ball_, weights=None):
        self.ball, lib = ball_, _native.library()
        src, dst = (np.ascontiguousarray(a, np.int32)
                    for a in (ball_.arc_src, ball_.arc_dst))
        counts = np.bincount(dst, minlength=ball_.size)
        self.indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        self.indices, at = np.empty(len(src), np.int32), self.indptr[:-1].copy()
        lib.csr_scatter(src.ctypes.data, dst.ctypes.data, len(src),
                        at.ctypes.data, self.indices.ctypes.data)
        del src, dst, counts, at
        ball_.arc_src = ball_.arc_dst = None
        self.inv, self.weights, self.sq_sum = 1.0 / ball_.degrees, weights, 0.0
        self._csr_rows, self._csr = lib.csr_rows, [ctypes.c_void_p(
            a.ctypes.data) for a in (self.indptr, self.indices, self.inv)]
        self._w = None if weights is None else self._raw(weights, "weights")
        self._reset()

    def _raw(self, v, what):
        # csr_rows reads raw memory: no strides, no bounds, no casts
        if v.dtype != np.float64 or v.shape != (self.ball.size,) \
                or not v.flags.c_contiguous:
            raise OracleError(f"{what} needs a contiguous float64 vector of "
                              f"length {self.ball.size}")
        return v.ctypes.data

    def _reset(self):
        """Fresh step vectors, so that a new run reads no stale rows."""
        v = np.zeros(self.ball.size)
        self._bufs = (v, v if self.ball.bipartite else np.zeros_like(v))
        self._addr = [ctypes.c_void_p(b.ctypes.data) for b in self._bufs]

    def step(self, vec, reach):
        """Step `reach` of a walk from the root: write only `ball.rows(reach)`."""
        i = vec is self._bufs[0]
        x = self._addr[1 - i] if vec is self._bufs[1 - i] \
            else self._raw(vec, "step")
        self.sq_sum = self._csr_rows(*self._csr, x, self._addr[i], self._w,
                                     *self.ball.rows(reach))
        return self._bufs[i]

    def iterate(self, n_steps, on_step=None):
        """Run `n_steps` steps from the root, with a mass-conservation guard.

        `on_step(n, lo, head)` is called after each step with the rows
        `head = vec[lo:hi]`, `(lo, hi) = ball.rows(n)`, which it must not
        mutate.  Returns the full vector, zero off those rows.  Raises
        OracleError if the ball is too small for the horizon or if
        probability mass is not conserved (which would mean leakage across
        the truncation boundary).
        """
        b = self.ball
        if n_steps > b.radius - 1:
            raise OracleError(
                f"ball radius {b.radius} too small for {n_steps} steps; "
                f"need radius >= n + 1")
        self._reset()
        vec = self._bufs[1]
        vec[b.root_index] = 1.0
        for n in range(1, n_steps + 1):
            vec = self.step(vec, n)
            lo, hi = b.rows(n)
            head = vec[lo:hi]
            if n % 64 == 0 or n == n_steps:
                err = abs(head.sum() - 1.0)
                if err > MASS_TOL:
                    raise OracleError(f"mass leaked at step {n}: |sum-1| = {err:.3e}")
            if on_step is not None:
                on_step(n, lo, head)
        if b.bipartite and n_steps:
            lo, hi = b.rows(n_steps - 1)
            vec[lo:hi] = 0.0               # p^(n-1), left in the other class
        return vec


# ---------------------------------------------------------------------------
# distributions and series containers
# ---------------------------------------------------------------------------

class SparseDistribution:
    """Exact n-step distribution over a ball's vertex indices."""

    def __init__(self, ball_, n, dense):
        self.ball = ball_
        self.n = n
        self.dense = dense

    def probability(self, vertex):
        idx = self.ball.index_of(vertex)
        return float(self.dense[idx])

    def items(self):
        return [(self.ball.vertex_of(int(i)), float(self.dense[i]))
                for i in np.nonzero(self.dense > 0)[0]]

    def validate(self):
        d = self.dense
        if d.min() < 0:
            raise OracleError(f"negative mass {d.min():.3e}")
        if abs(d.sum() - 1.0) > 1e-12:
            raise OracleError(f"mass {d.sum()!r} != 1")
        lo, hi = self.ball.rows(self.n)
        if np.any(d[:lo] != 0.0) or np.any(d[hi:] != 0.0):
            raise OracleError("support outside graph distance n from root, "
                              "or off n's parity class")
        return True


class KernelSeries:
    """A named list of (n, value) pairs from the exact kernel."""

    def __init__(self, name, n, values):
        self.name = name
        self.n = np.asarray(n, dtype=np.int64)
        self.values = np.asarray(values, dtype=np.float64)

    def __len__(self):
        return len(self.n)

    def value_at(self, n):
        hit = np.nonzero(self.n == n)[0]
        if len(hit) == 0:
            raise KeyError(f"no entry at n={n} in series {self.name}")
        return float(self.values[hit[0]])

    def rows(self):
        return list(zip(self.n.tolist(), self.values.tolist()))


# ---------------------------------------------------------------------------
# the exact walk
# ---------------------------------------------------------------------------

def _walk(graph, root, n, width, reader=None, budget=DEFAULT_BUDGET,
          lumped=False, weights=None):
    """The one exact walk: `n` steps from `root` (None: the family root).

    Charges the (n, width) table to `budget`, then builds the radius-(n + 1)
    `ball` around `root` in the rest, lumped if asked and the ball has a
    lumping.  `reader(ball, table)` returns the `on_step` of
    `Kernel.iterate`, which fills row k - 1 from step k's rows; given
    `weights(ball)`, column 0 is each step's sum of w_i p_i^2 instead.
    Returns the ball, the table and p^(n)."""
    charge = 8 * n * width
    if charge > budget:
        raise BudgetError(f"a {n} x {width} series table needs "
                          f"~{charge >> 20} MiB, budget is {budget >> 20} MiB")
    b = ball(graph, n + 1, budget - charge, lumped, root)
    kern, table = Kernel(b, weights and weights(b)), np.zeros((n, width))

    def mass(k, lo, head):                 # summed by the step, in row order
        table[k - 1, 0] = kern.sq_sum
    return b, table, kern.iterate(n, mass if weights else reader and reader(
        b, table))


def _diagonal(b, table):
    """Reader of p(root, root), zero while the root's row is off the step's."""
    def read(k, lo, head):
        if lo <= b.root_index:
            table[k - 1, 0] = head[b.root_index - lo]
    return read


def transition_vector(graph, root, n, budget=DEFAULT_BUDGET):
    """Exact n-step distribution of simple random walk from `root`."""
    if n < 0:
        raise OracleError("n must be >= 0")
    b, _, vec = _walk(graph, root, n, 0, budget=budget)
    dist = SparseDistribution(b, n, vec)
    dist.validate()
    return dist


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------

def _return_series(graph, k_max, every, root, budget, lumped):
    """p^(2k)(root,root) for k <= k_max through reversibility (every="even"),
    or p^(k)(root,root) read off the diagonal (every="all")."""
    reader, weights = (_diagonal, None) if every == "all" else (None, lambda b:
                       b.degrees[b.root_index] / (b.degrees * b.orbit))
    _, out, _ = _walk(graph, root, k_max, 1, reader, budget, lumped, weights)
    ns = np.arange(1, k_max + 1)
    return KernelSeries("return", 2 * ns if every == "even" else ns, out[:, 0])


def _grid_octant_series(k_max, every, budget):
    """The grid2d return series from the origin, on the octant-lumped ball."""
    return _return_series(build_graph("grid2d"), k_max, every, None, budget,
                          lumped=True)


def return_probability_series(graph, n_max, root=None, every="even",
                              budget=DEFAULT_BUDGET, method="auto"):
    """Exact return probabilities p^(n)(root, root) for n <= n_max.

    every="even" (default) computes the even-time series
    p^(2k)(root,root) for 2k <= n_max through the reversibility identity,
    which needs only a (n_max // 2)-step iteration.  every="all" iterates
    the full horizon and reads the diagonal directly, including odd times
    (zero on bipartite graphs).  `root` defaults to the family root.
    method="auto" lumps the ball by symmetry where the family has a
    lumping; "generic" iterates the full ball.  `budget` (bytes) bounds
    the truncation, its kernel and the series.  Returns a KernelSeries.
    """
    if n_max < 1:
        raise OracleError("n_max must be >= 1")
    if every not in ("even", "all"):
        raise ValueError(f"every must be 'even' or 'all', got {every!r}")
    k_max = n_max // 2 if every == "even" else n_max
    if k_max < 1:
        raise OracleError("n_max < 2 has no even entries")
    if (method == "auto" and graph.family == "grid2d"
            and (root is None or root == graph.root)):
        return _grid_octant_series(k_max, every, budget)
    return _return_series(graph, k_max, every, root, budget,
                          lumped=method == "auto")


def meeting_expectation_series(graph, n_max, root=None, budget=DEFAULT_BUDGET):
    """Exact meeting-expectation series for two independent walks from `root`.

    The increment at time n is sum_w p^(n)(root,w)^2, the probability the
    two walks occupy the same vertex at time n; the partial sums over
    1 <= m <= n estimate the expected number of meetings (time 0 excluded,
    matching the sampler's convention).  Returns the KernelSeries pair
    (partial, increment).
    """
    if n_max < 1:
        raise OracleError("n_max must be >= 1")
    _, out, _ = _walk(graph, root, n_max, 1, None, budget, True,
                      lambda b: 1.0 / b.orbit)
    ns, inc = np.arange(1, n_max + 1), out[:, 0]
    return (KernelSeries("meeting_partial", ns, np.cumsum(inc)),
            KernelSeries("meeting_increment", ns, inc))


class PerSiteSeries:
    """max over tooth height L of P[both walks at (., L) at time n], exactly.

    `table[i, j]` is the probability both independent walks sit on the same
    vertex with tooth height `heights[j]` at time `n[i]`; `values` is the
    row-wise maximum (the series the exponent bound applies to).
    """

    def __init__(self, n, heights, table):
        self.n = n
        self.heights = heights
        self.table = table
        self.values = table.max(axis=1)

    def series(self):
        return KernelSeries("persite_max", self.n, self.values)

    def at_height(self, L):
        j = np.nonzero(self.heights == L)[0]
        if len(j) == 0:
            raise KeyError(f"height {L} not in table")
        return self.table[:, j[0]]


def per_site_collision_series(graph, n_max, root=None, budget=DEFAULT_BUDGET):
    """Exact per-tooth-height simultaneous-occupation series on a comb.

    For each n <= n_max and each tooth height L, computes
    sum_v p^(n)(root,(v,L))^2 by an exact kernel iteration; heights are
    signed tooth coordinates (or the Chebyshev annulus radius for Z^2
    teeth).  The sum over base vertices v is exact because the ball is.
    The heights follow from a root at height h alone, h - R .. h + R on Z
    teeth and 0 .. h + R on Z^2 teeth (R = n_max + 1), so the table is
    charged to `budget` before the ball is built.  On a lumped comb ball
    the tooth coordinate is folded under t -> -t, so each orbit's q^2/|o|
    is binned by |t| and split evenly between t and -t as the row is
    written; the annulus radius is the same on a whole orbit, so Z^2
    teeth need no split.
    """
    if n_max < 1:
        raise OracleError("n_max must be >= 1")
    if not graph.dim or graph.m is None:
        raise GraphError(f"{graph.family} has no teeth; per-site series "
                         "is defined on comb families")
    R, v = n_max + 1, graph.root if root is None else root
    graph._require(v)
    h0 = int(graph.height(v))                  # the root's height
    low, top = h0 - R if graph.dim == 1 else 0, h0 + R

    def reader(b, table):
        h = graph.height(b.coords)
        fold = b.lumped and graph.dim == 1     # h = |t|, binned from t = 0
        (key, at), w = (h, R) if fold else (h - low, 0), 1.0 / b.orbit

        def read(k, lo, head):
            hi, row = lo + len(head), table[k - 1]
            row[at:] = np.bincount(key[lo:hi], weights=head * head * w[lo:hi],
                                   minlength=len(row) - at)
            if fold:                           # split between t and -t
                row[at + 1:] /= 2
                row[:at] = row[:at:-1]
        return read

    _, table, _ = _walk(graph, root, n_max, top + 1 - low, reader, budget,
                        lumped=True)
    heights = np.arange(low, top + 1, dtype=np.int64)
    return PerSiteSeries(np.arange(1, n_max + 1), heights, table)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _snapshots(graph, v, n, budget=DEFAULT_BUDGET):
    """The ball around `v` and the vectors p^(m)(v, .), m <= n, kept beside
    an empty table: the identity checks' balls are a few thousand states."""
    snaps = []

    def reader(b, table):
        snaps.append(np.eye(1, b.size, b.root_index)[0])
        return lambda k, lo, head: snaps.append(
            np.pad(head, (lo, b.size - lo - len(head))))

    return _walk(graph, v, n, 0, reader, budget)[0], snaps


def _loop_around(b, snaps, i, j):
    """|sum_w p^(i)(v,w) p^(j)(v,w) - p^(i+j)(v,v)|.

    Only valid on constant-degree graphs (the identity uses pi(w) constant);
    raises GraphError otherwise.
    """
    if b.graph.constant_degree is None:
        raise GraphError(f"loop-around identity needs constant degree; "
                         f"{b.graph.family} varies")
    lhs = float(np.dot(snaps[i], snaps[j]))
    return abs(lhs - float(snaps[i + j][b.root_index]))


def _reversibility(b, snaps, n):
    """|sum_w p^(n)(v,w)^2 deg(v)/deg(w) - p^(2n)(v,v)|."""
    p = snaps[n]
    lhs = float(np.dot(p * p, b.degrees[b.root_index] / b.degrees))
    return abs(lhs - float(snaps[2 * n][b.root_index]))


def identity_check_suite(tol=1e-10, budget=DEFAULT_BUDGET):
    """Built-in grid of exact-identity checks; returns (name, residual, pass).

    Loop-around on cycle(5), cycle(6), and the line for every i <= j with
    i + j <= 24; reversibility on star(4), comb(cycle:4), comb(line) for
    n <= 12.  One ball and one iteration pass per graph.
    """
    rows = []
    for spec in ("cycle:5", "cycle:6", "line"):
        b, snaps = _snapshots(build_graph(spec), None, 24, budget)
        for s in range(1, 25):
            for i in range(0, s // 2 + 1):
                res = _loop_around(b, snaps, i, s - i)
                rows.append((f"loop-around {spec} i={i} j={s - i}", res, res <= tol))
    for spec in ("star:4", "comb:cycle:4", "comb:line"):
        b, snaps = _snapshots(build_graph(spec), None, 24, budget)
        for n in range(1, 13):
            res = _reversibility(b, snaps, n)
            rows.append((f"reversibility {spec} n={n}", res, res <= tol))
    return rows
