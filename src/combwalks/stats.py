"""Collision statistics over ensemble output.

The sampler's summaries carry every meeting event as (time N, height L).
This module reduces them to the dyadic cell counts the bound-checking
workflow needs: for a cell (r, k) write n = 2^r and l = 2^k, and per
replica

    Z[r,k]  = number of records with n <= N <= 2n and l <= |L| <= 2l,
    A[r,k]  = 1 if Z[r,k] > 0,
    W[r,k]  = sum of Z over the six cells {r, r+1} x {k-1, k, k+1}.

Cell boundaries are closed on both ends, so a record sitting exactly on a
power of two counts in both adjacent cells; that is deliberate and only
inflates bound checks, never deflates them.  Negative heights fold into
positive cells by absolute value.  Plane teeth store the annulus radius
max(|x|, |y|) in the same height slot, so the identical bucketing applies.

Cells with l < 2 have no meaningful W (their inner shell l/2 is not a
power of two); they carry raw Z and A only.  Height-0 records (backbone
meetings) fall in no cell at all.

Every report reads the columns of one ``SummaryBlock`` (a list of
``PairTrajectorySummary`` views is gathered into one first) and is a pure
function of its pairs; estimates do not depend on replica order or on how
the ensemble was sharded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import BOOT, fill, stream_keys


class StatsError(ValueError):
    pass


class SchemaError(StatsError):
    """Inputs of different shapes that no report can fold together."""


# ---------------------------------------------------------------------------
# dyadic cells
# ---------------------------------------------------------------------------

@dataclass
class DyadicCellStats:
    """Monte-Carlo estimates for one dyadic cell (r, k)."""

    r: int
    k: int
    z_mean: float
    a_prob: float
    w_mean: float          # nan when the cell has no W (k < 1)
    w_given_a: float       # nan when no replica conditions
    count: int
    cond_count: int
    z: np.ndarray = field(repr=False, default=None)
    w: np.ndarray = field(repr=False, default=None)


def _block(summaries):
    """``summaries`` as a ``SummaryBlock``: a block is its own, any other
    iterable of ``PairTrajectorySummary`` views is gathered into one."""
    from .sampler import SummaryBlock      # the sampler imports this module
    return SummaryBlock.of(summaries)


def _cell_z(rows, ns, ls, n_rep, r, k):
    lo_n, hi_n = 1 << r, 1 << (r + 1)
    lo_l, hi_l = 1 << k, 1 << (k + 1)
    m = (ns >= lo_n) & (ns <= hi_n) & (ls >= lo_l) & (ls <= hi_l)
    return np.bincount(rows[m], minlength=n_rep)


def cell_ranges(r_range, k_range):
    """The distinct r and the distinct k of a grid, ascending; StatsError
    if either is empty or below 0, where no dyadic cell lies."""
    r_range, k_range = (sorted({int(x) for x in a})
                        for a in (r_range, k_range))
    if not (r_range and k_range and min(r_range + k_range) >= 0):
        raise StatsError("cell ranges must be non-empty, with r, k >= 0")
    return r_range, k_range


def dyadic_collision_stats(summaries, r_range, k_range):
    """Grid of DyadicCellStats over r in r_range, k in k_range.

    Z is counted directly; W is assembled from the Z values of the six
    surrounding cells, so Z is also counted on the grid extended by one
    in r and one in k on each side, once per cell.
    """
    r_range, k_range = cell_ranges(r_range, k_range)
    s = _block(summaries)
    n_rep, ns, ls = len(s), s.times, np.abs(s.heights)
    rows = np.repeat(np.arange(n_rep), s.meet_len)     # each meeting's pair
    z = functools.cache(lambda r, k: _cell_z(rows, ns, ls, n_rep, r, k))

    grid = {}
    for r in r_range:
        for k in k_range:
            zc = z(r, k)
            a = zc > 0
            cond = int(a.sum())
            w = sum(z(rr, kk) for rr in (r, r + 1)
                    for kk in (k - 1, k, k + 1)) if k >= 1 else None
            grid[(r, k)] = DyadicCellStats(
                r=r, k=k, z_mean=float(zc.mean()), a_prob=float(a.mean()),
                w_mean=math.nan if w is None else float(w.mean()),
                w_given_a=float(w[a].mean()) if w is not None and cond
                else math.nan,
                count=n_rep, cond_count=cond, z=zc, w=w)
    return grid


def conditional_W(summaries, cell, n_boot=1000, seed=0):
    """Ê[W | A] for one cell with a bootstrap standard error.

    Returns (estimate, standard error, conditioning count).  A bootstrap
    index is floor(u L), u a double of stream (seed, r, ``BOOT`` + k),
    which no walker reads: the same inputs give the same output.  Cells
    conditioning on fewer than 30 replicas are reported, not rejected;
    the caller decides.
    """
    r, k = cell
    if k < 1:
        raise StatsError(f"cell k={k} carries no W")
    grid = dyadic_collision_stats(summaries, [r], [k])
    st = grid[(r, k)]
    if st.cond_count == 0:
        raise StatsError(f"no replica satisfies A in cell {cell}")
    w_cond = st.w[st.z > 0].astype(np.float64)
    L = len(w_cond)
    u = np.empty((n_boot * L, 1))
    fill(stream_keys(seed, [r], BOOT + k), 0, u)
    idx = (u * L).astype(np.int64).reshape(n_boot, L)     # u * L < L
    se = float(w_cond[idx].mean(axis=1).std(ddof=1))
    return float(w_cond.mean()), se, st.cond_count


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    stderr: float
    n_lo: int
    n_hi: int
    points: int


def _line_fit(x, y):
    """Least-squares line of y against x, two float64 arrays: (slope,
    intercept, stderr of the slope) by ``linregress``'s formulas, each mean
    and moment a ``math.fsum``, correctly rounded in any order, so no float
    depends on the host's BLAS kernel.  StatsError if every x is the same."""
    if x.max() == x.min():
        raise StatsError("a line fit needs two distinct x values")
    n, mx, my = len(x), math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx, dy = x - mx, y - my
    ssxm, ssxym, ssym = (math.fsum(a * b) / n for a, b in (
        (dx, dx), (dx, dy), (dy, dy)))
    slope = ssxym / ssxm
    if ssym == 0:                              # a flat y: r is 0 / 0
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    # two points leave no degree of freedom: the slope is exact
    stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2)) if n > 2 else 0.0
    return float(slope), float(my - slope * mx), float(stderr)


def estimate_exponent(series, fit_range):
    """Least-squares power-law exponent over dyadic points of a series.

    Fits log2(value) against log2(n) using only n that are powers of two
    inside [n_lo, n_hi].  Needs at least three such points, at two n or
    more, all positive and finite.
    """
    n_lo, n_hi = fit_range
    rows = series.rows() if hasattr(series, "rows") else series
    pts = [(n, v) for n, v in ((int(n), float(v)) for n, v in rows)
           if n_lo <= n <= n_hi and (n & (n - 1)) == 0 and n > 0]
    if len(pts) < 3:
        raise StatsError(f"need >= 3 dyadic points in [{n_lo}, {n_hi}], "
                         f"got {len(pts)}")
    if not all(0 < v < math.inf for _, v in pts):      # refuses NaN too
        raise StatsError("power-law fit needs positive, finite values")
    return ExponentFit(*_line_fit(np.log2([n for n, _ in pts]),
                                  np.log2([v for _, v in pts])),
                       n_lo, n_hi, len(pts))


# ---------------------------------------------------------------------------
# growth curves and drift
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthCurve:
    times: tuple
    mean_meetings: tuple
    survival_frac: tuple      # fraction of replicas with a meeting after t


def meeting_growth_curve(summaries, checkpoints=None):
    """Mean meetings and post-t survival fraction on a checkpoint grid.

    The grid defaults to the one stored in the summaries; an explicit grid
    must be a subset of it.  Survival uses the full collision lists.
    """
    s = _block(summaries)
    if not s:
        raise StatsError("no summaries")
    (ts, counts), C = s.checkpoints.T, s.cp_len[0]
    have, same = ts[:C].tolist(), s.cp_len == C     # then pair 0's times too
    same[same] = (ts[np.repeat(same, s.cp_len)].reshape(same.sum(), C)
                  == ts[:C]).all(axis=1)
    if not same.all():
        b = same.argmin()
        raise SchemaError(f"replica {s.replica[b]} has checkpoints "
                          f"{[t for t, _ in s[b].checkpoints]}, replica "
                          f"{s.replica[0]} has {have}")
    if checkpoints is None:
        checkpoints = have
    missing = [t for t in checkpoints if t not in have]
    if missing:
        raise StatsError(f"checkpoints {missing} not recorded")
    # each pair's last meeting time, 0 for none
    last = np.where(s.meet_len > 0,
                    np.append(s.times, 0)[np.cumsum(s.meet_len) - 1], 0)
    # integer counts: every float sum below is exact, in any order
    grid = counts.reshape(len(s), C)
    means = grid[:, [have.index(t) for t in checkpoints]].mean(axis=0)
    surv = (last[:, None] > np.array(checkpoints, dtype=np.int64)).mean(axis=0)
    return GrowthCurve(tuple(checkpoints), tuple(means.tolist()),
                       tuple(surv.tolist()))


@dataclass(frozen=True)
class DriftEstimate:
    """Spine drift of the ladder walk.

    ``per_move`` is the net bias of moves between distinct spine vertices,
    sum of signed jumps over sum of absolute jumps; this is the statistic
    that converges to the jump chain's 2/3 - 1/3 = 1/3.  ``per_half_step``
    is the least-squares slope of mean position against n/2; a move between
    spine vertices happens only about every other two-step window, so this
    reads roughly half the per-move bias.
    """

    per_move: float
    per_half_step: float
    moves: int


def drift_estimate(summaries):
    """Estimate the rightward spine drift from recorded spine traces."""
    num = den = 0
    acc = first = None
    s = _block(summaries)
    for rep, extras in zip(s.replica.tolist(), s.extras):
        spine = extras.get("spine")
        if spine is None:
            raise StatsError("summaries carry no spine traces")
        shape = (spine["stride"], len(spine["x"]))
        if first not in (None, shape):
            raise SchemaError(f"spine traces mix (stride, points) {first} "
                              f"and {shape} (replica {rep})")
        first = shape
        for w in "xy":          # one trace at a time: O(points) memory
            tr = np.asarray(spine[w], dtype=np.int64)
            d = np.diff(tr)
            num, den = num + int(d.sum()), den + int(np.abs(d).sum())
            acc = tr if acc is None else acc + tr      # int64: exact
    if den == 0:
        raise StatsError("no spine moves recorded")
    mean_pos = acc / (2 * len(s))
    half_steps = np.arange(len(mean_pos), dtype=np.float64) * first[0] / 2.0
    return DriftEstimate(num / den, _line_fit(half_steps, mean_pos)[0], den)


# ---------------------------------------------------------------------------
# envelope violations
# ---------------------------------------------------------------------------

def lil_threshold(n, alpha):
    """Envelope 2 (2n)^(1/(2 alpha)) for the tooth coordinate."""
    return 2.0 * (2.0 * n) ** (1.0 / (2.0 * alpha))


def lil_envelope_check(summaries, alpha):
    """Violation counts of |tooth| > 2(2n)^(1/(2 alpha)) per replica.

    The sampler records violation times during the run; this collects the
    list matching ``alpha`` and reports per-replica counts and the last
    violation time (0 when none).  alpha is any recorded exponent > 0; the
    envelope argument needs 2/3 < alpha < 1, which is the caller's business.
    """
    if not alpha > 0.0:                        # refuses NaN too
        raise StatsError(f"alpha must be > 0, got {alpha}")
    counts, last = [], []
    for extras in _block(summaries).extras:
        lil = extras.get("lil")
        if lil is None:
            raise StatsError("summaries carry no envelope records")
        try:
            ai = lil["alphas"].index(alpha)
        except ValueError:
            raise StatsError(f"alpha={alpha} was not recorded "
                             f"(have {lil['alphas']})") from None
        times = lil["times"][ai]
        counts.append(len(times))
        last.append(times[-1] if times else 0)
    return np.array(counts, dtype=np.int64), np.array(last, dtype=np.int64)
