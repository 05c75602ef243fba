"""Dyadic cell reductions and estimators on synthetic and real summaries."""

import dataclasses
import math

import numpy as np
import pytest

from combwalks.graphs import build_graph
from combwalks.sampler import (PairTrajectorySummary, RecordPolicy,
                               SummaryBlock, run_ensemble)
from combwalks.stats import (DriftEstimate, SchemaError, StatsError,
                             conditional_W, drift_estimate,
                             dyadic_collision_stats, estimate_exponent,
                             lil_envelope_check, lil_threshold,
                             meeting_growth_curve, _line_fit)


def synth(replica, records, T=1024, extras=None, checkpoints=None):
    """Summary with collision records given as (time, height) pairs."""
    return PairTrajectorySummary(
        replica=replica, n_steps=T, meetings=len(records),
        times=[n for n, _ in records], vertices=[[0, l] for _, l in records],
        heights=[l for _, l in records],
        checkpoints=checkpoints or [(T, len(records))],
        final_x=(0, 0), final_y=(0, 0), max_tooth_x=0, max_tooth_y=0,
        extras=extras or {})


def test_single_record_lands_in_its_cell():
    grid = dyadic_collision_stats([synth(0, [(5, 3)])], range(0, 4), range(0, 3))
    st = grid[(2, 1)]                      # 4 <= 5 <= 8, 2 <= 3 <= 4
    assert st.z_mean == 1.0 and st.a_prob == 1.0 and st.cond_count == 1
    assert grid[(1, 1)].z_mean == 0.0
    assert grid[(2, 0)].z_mean == 0.0
    assert grid[(2, 2)].z_mean == 0.0


def test_boundary_records_count_twice():
    grid = dyadic_collision_stats([synth(0, [(4, 2)])], range(1, 3), range(0, 2))
    assert grid[(1, 0)].z_mean == 1.0      # 2 <= 4 <= 4, 1 <= 2 <= 2
    assert grid[(2, 0)].z_mean == 1.0      # 4 <= 4 <= 8
    assert grid[(1, 1)].z_mean == 1.0      # 2 <= 2 <= 4
    assert grid[(2, 1)].z_mean == 1.0


def test_negative_heights_fold():
    a = dyadic_collision_stats([synth(0, [(5, -3)])], [2], [1])
    b = dyadic_collision_stats([synth(0, [(5, 3)])], [2], [1])
    assert a[(2, 1)].z_mean == b[(2, 1)].z_mean == 1.0


def test_backbone_records_fall_in_no_cell():
    grid = dyadic_collision_stats([synth(0, [(5, 0), (9, 0)])],
                                  range(0, 6), range(0, 4))
    assert all(st.z_mean == 0.0 for st in grid.values())
    assert all(st.a_prob == 0.0 for st in grid.values())


def test_w_is_six_cell_sum():
    gen = np.random.default_rng(77)
    sums = []
    for rep in range(30):
        recs = [(int(gen.integers(1, 200)), int(gen.integers(1, 40)))
                for _ in range(int(gen.integers(0, 12)))]
        sums.append(synth(rep, recs))
    grid = dyadic_collision_stats(sums, [3], [2])
    st = grid[(3, 2)]
    by_cell = {}
    for rr in (3, 4):
        for kk in (1, 2, 3):
            by_cell[(rr, kk)] = dyadic_collision_stats(sums, [rr], [kk])[(rr, kk)].z
    want = sum(by_cell.values())
    assert np.array_equal(st.w, want)
    assert st.w_mean == pytest.approx(want.mean())
    assert np.array_equal(st.z > 0, np.array([s.meetings and dyadic_collision_stats(
        [s], [3], [2])[(3, 2)].z[0] > 0 for s in sums], dtype=bool))


def test_low_k_cells_have_no_w():
    grid = dyadic_collision_stats([synth(0, [(5, 1)])], [2], [0])
    st = grid[(2, 0)]
    assert math.isnan(st.w_mean) and math.isnan(st.w_given_a)
    assert st.z_mean == 1.0


def test_w_given_a_by_hand():
    sums = [
        synth(0, [(10, 5)]),               # Z = 1, W = 1
        synth(1, [(9, 4), (30, 3)]),       # Z = 1, W = 2 + 1 (l=4 on boundary)
        synth(2, [(20, 2)]),               # outside (3, 2): A = 0
        synth(3, []),
    ]
    st = dyadic_collision_stats(sums, [3], [2])[(3, 2)]
    assert st.z_mean == 0.5
    assert st.a_prob == 0.5
    assert st.cond_count == 2
    assert st.w_given_a == 2.0


def test_conditional_w_matches_grid_and_is_deterministic():
    sums = [synth(0, [(10, 5)]), synth(1, [(9, 4), (30, 3)]),
            synth(2, [(20, 2)]), synth(3, [])]
    est1 = conditional_W(sums, (3, 2), n_boot=400, seed=5)
    est2 = conditional_W(sums, (3, 2), n_boot=400, seed=5)
    assert est1 == est2
    assert est1[0] == 2.0 and est1[2] == 2
    assert est1[1] > 0
    with pytest.raises(StatsError):
        conditional_W(sums, (3, 0))
    with pytest.raises(StatsError):
        conditional_W(sums, (9, 2))        # nobody conditions there


def _random_summaries():
    gen = np.random.default_rng(123)
    sums = []
    for rep in range(40):
        recs = [(int(gen.integers(1, 300)), int(gen.integers(0, 20)))
                for _ in range(int(gen.integers(0, 8)))]
        sums.append(synth(rep, recs))
    return sums


def test_conditional_w_bootstrap_is_pinned():
    # the values of a bootstrap whose indices are floor(u * L), u the
    # doubles of stream (seed, r, BOOT + k), which no walker reads
    assert conditional_W(_random_summaries(), (6, 3), n_boot=400, seed=5) \
        == (4.0, 0.41533165876127554, 18)


def test_stats_do_not_depend_on_shard_order():
    sums = _random_summaries()
    a = dyadic_collision_stats(sums, [2, 3], [1, 2])
    b = dyadic_collision_stats(sums[::-1], [2, 3], [1, 2])
    for key in a:
        assert a[key].z_mean == b[key].z_mean
        assert a[key].a_prob == b[key].a_prob
        assert (a[key].w_given_a == b[key].w_given_a
                or (math.isnan(a[key].w_given_a) and math.isnan(b[key].w_given_a)))
    # every report on a block, on the block rebuilt from its own views and
    # on the block in reverse order; the per-replica ones come out in its
    # order, and the bootstrap's draws follow the order too
    gen = np.random.default_rng(5)
    block = SummaryBlock.of(dataclasses.replace(s, extras={
        "lil": {"alphas": [0.75], "times": [sorted(set(
            gen.integers(1, 300, int(gen.integers(0, 4))).tolist()))]},
        "spine": {"stride": 2, "x": gen.integers(0, 9, 6).tolist(),
                  "y": gen.integers(0, 9, 6).tolist()}}) for s in sums)
    views = list(block)
    assert [(s.times, s.heights) for s in views] == \
        [(s.times, s.heights) for s in sums]

    def reports(b):
        grid = dyadic_collision_stats(b, [2, 3, 6], [0, 1, 2, 3])
        return ({k: (c.z_mean, c.a_prob, repr(c.w_mean), repr(c.w_given_a),
                     c.count, c.cond_count) for k, c in grid.items()},
                conditional_W(b, (6, 3), n_boot=50, seed=5),
                meeting_growth_curve(b), lil_envelope_check(b, 0.75),
                drift_estimate(b))
    want = reports(block)
    forward, backward = SummaryBlock.of(views), SummaryBlock.of(views[::-1])
    for other, order in ((forward, slice(None)),
                         (backward, slice(None, None, -1))):
        grid, boot, growth, (counts, last), drift = reports(other)
        assert grid == want[0] and growth == want[2] and drift == want[4]
        assert boot[::2] == want[1][::2]           # estimate and count
        if order.step is None:                     # the same draws
            assert boot == want[1]
        assert np.array_equal(counts, want[3][0][order])
        assert np.array_equal(last, want[3][1][order])


def test_empty_ranges_rejected():
    with pytest.raises(StatsError):
        dyadic_collision_stats([synth(0, [])], [], [1])
    with pytest.raises(StatsError):
        dyadic_collision_stats([synth(0, [])], [1], [-1, 0])


def test_estimate_exponent_recovers_power_law():
    rows = [(n, 3.0 * n ** -1.5) for n in [2 ** j for j in range(13)]]
    rows += [(37, 1e9), (100, 1e9)]        # junk off the dyadic grid
    fit = estimate_exponent(rows, (1, 4096))
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log2(3.0), abs=1e-10)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    assert fit.points == 13


def test_estimate_exponent_guards():
    rows = [(2 ** j, 1.0 / 2 ** j) for j in range(12)]
    with pytest.raises(StatsError):
        estimate_exponent(rows, (1024, 2048))      # two points only
    with pytest.raises(StatsError):
        estimate_exponent([(1, 1.0), (2, -1.0), (4, 1.0)], (1, 4))
    # three points at one n: no line through them
    with pytest.raises(StatsError, match="distinct x"):
        estimate_exponent([(4, 1.0), (4, 2.0), (4, 3.0)], (1, 16))
    for bad in (math.nan, math.inf):
        with pytest.raises(StatsError, match="finite"):
            estimate_exponent([(4, 1.0), (8, bad), (16, 3.0)], (1, 16))


def _fits():
    """Fits of the shapes `fit` and `drift` make, and the edge cases."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 41))
        x = np.sort(rng.choice(60, n, replace=False)).astype(np.float64)
        yield x, rng.normal(size=n) * 10.0 ** rng.integers(-3, 7) - 0.75 * x
    for _ in range(20):
        n = int(rng.integers(2, 6001))
        x = np.arange(n, dtype=np.float64) * int(rng.integers(1, 65)) / 2.0
        yield x, np.cumsum(rng.integers(-1, 2, size=n)) / 2.0 ** 7
    x = np.array([1.0, 2.0, 4.0])
    yield x, np.full(3, 0.1)                       # flat: stderr is NaN
    yield x, 3.0 * x - 1.0                         # exact line
    yield x, np.array([1e-170, 2e-170, 3e-170])    # y's squares underflow
    yield x[:2], np.array([3.0, 7.0])              # two points


def test_line_fit_matches_linregress_to_its_rounding():
    # _line_fit sums with math.fsum, linregress through np.cov's BLAS dot,
    # so their floats may differ in the last bits, and by more where a fit
    # is ill-conditioned (|r| near 0 or 1, an intercept that cancels).  So
    # each is compared on its own scale: the slope on s = sqrt(ssy / ssx),
    # which bounds |slope|; the intercept on |mean y| + s |mean x|; the
    # stderr's square on s^2 / (n - 2).  The fits here differ by 2e-15 or
    # less of their scale, or by 1 ulp where s underflows
    from scipy.stats import linregress
    for x, y in _fits():
        ref, got, n = linregress(x, y), _line_fit(x, y), len(x)
        s = float(np.std(y) / np.std(x))
        scales = (s, abs(y.mean()) + s * abs(x.mean()), s * s / max(n - 2, 1))
        for a, b, scale in zip((*got[:2], got[2] ** 2), (
                ref.slope, ref.intercept, ref.stderr ** 2), scales):
            assert abs(a - b) <= max(1e-13 * scale, 4 * math.ulp(b)) or \
                math.isnan(a) and math.isnan(b), (x, y, got, ref)
        # every mean and moment correctly rounded: the order of the points
        # moves no bit
        back = _line_fit(x[::-1].copy(), y[::-1].copy())
        assert np.array_equal(back, got, equal_nan=True), (x, y)
    with pytest.raises(StatsError, match="distinct x"):
        _line_fit(np.full(3, 2.0), np.arange(3.0))


def test_growth_curve_synthetic():
    sums = [
        synth(0, [(3, 1), (10, 2)], T=16,
              checkpoints=[(4, 1), (16, 2)]),
        synth(1, [], T=16, checkpoints=[(4, 0), (16, 0)]),
    ]
    g = meeting_growth_curve(sums)
    assert g.times == (4, 16)
    assert g.mean_meetings == (0.5, 1.0)
    assert g.survival_frac == (0.5, 0.0)
    sub = meeting_growth_curve(sums, checkpoints=[16])
    assert sub.mean_meetings == (1.0,)
    with pytest.raises(StatsError):
        meeting_growth_curve(sums, checkpoints=[5])
    with pytest.raises(StatsError):
        meeting_growth_curve([])
    assert meeting_growth_curve(list(sums)) == g


def test_growth_curve_mixed_grids_is_stats_error():
    # a T = 100 run followed by a T = 64 run: 100 is not on the second grid
    sums = [synth(0, [(3, 1)], T=100, checkpoints=[(64, 1), (100, 1)]),
            synth(1, [], T=64, checkpoints=[(64, 0)])]
    with pytest.raises(StatsError, match="replica 1 has checkpoints"):
        meeting_growth_curve(sums)
    with pytest.raises(StatsError, match="replica 1 has checkpoints"):
        meeting_growth_curve(sums, checkpoints=[64])
    # grids of one length that differ in a time
    sums[1] = synth(1, [], T=100, checkpoints=[(50, 0), (100, 0)])
    with pytest.raises(SchemaError, match=r"replica 1 has checkpoints \[50"):
        meeting_growth_curve(sums)


def test_growth_curve_line_is_diffusive():
    out = run_ensemble(build_graph("line"), n_steps=4096, replicas=600, seed=20)
    g = meeting_growth_curve(out)
    assert all(b >= a for a, b in zip(g.mean_meetings, g.mean_meetings[1:]))
    fit = estimate_exponent(list(zip(g.times, g.mean_meetings)), (64, 4096))
    assert 0.35 < fit.slope < 0.65


def test_drift_estimate_synthetic():
    extras = {"spine": {"stride": 2, "x": [0, 1, 2, 3], "y": [0, 0, 0, 0]}}
    est = drift_estimate([synth(0, [], extras=extras)])
    assert isinstance(est, DriftEstimate)
    assert est.per_move == 1.0
    assert est.moves == 3
    assert est.per_half_step == pytest.approx(0.5)
    with pytest.raises(StatsError):
        drift_estimate([synth(0, [])])
    flat = {"spine": {"stride": 2, "x": [0, 0], "y": [0, 0]}}
    with pytest.raises(StatsError):
        drift_estimate([synth(0, [], extras=flat)])
    # traces of another stride or length cannot be averaged with these
    for other in ({"stride": 4, "x": [0, 1, 2, 3], "y": [0, 1, 2, 3]},
                  {"stride": 2, "x": [0, 1], "y": [0, 1]}):
        with pytest.raises(StatsError, match="spine traces mix"):
            drift_estimate([synth(0, [], extras=extras),
                            synth(1, [], extras={"spine": other})])


def test_lil_threshold_value():
    assert lil_threshold(8, 0.5) == pytest.approx(32.0)
    assert lil_threshold(0.5, 0.5) == pytest.approx(2.0)


def test_lil_envelope_check_reads_recorded_times():
    extras = {"lil": {"alphas": [0.75, 0.9], "times": [[5, 9], []]}}
    sums = [synth(0, [], extras=extras),
            synth(1, [], extras={"lil": {"alphas": [0.75, 0.9],
                                         "times": [[], [3]]}})]
    counts, last = lil_envelope_check(sums, 0.75)
    assert counts.tolist() == [2, 0]
    assert last.tolist() == [9, 0]
    counts, last = lil_envelope_check(sums, 0.9)
    assert counts.tolist() == [0, 1]
    with pytest.raises(StatsError):
        lil_envelope_check(sums, 0.8)          # not recorded
    with pytest.raises(StatsError):
        lil_envelope_check(sums, 1.2)          # not recorded
    for alpha in (0.0, -0.75, float("nan")):
        with pytest.raises(StatsError, match="alpha must be > 0"):
            lil_envelope_check(sums, alpha)
    with pytest.raises(StatsError):
        lil_envelope_check([synth(0, [])], 0.75)


def test_lil_envelope_check_reads_alphas_above_one():
    # the sampler records any exponent > 0; the reader takes them all back
    out = run_ensemble(build_graph("comb:line"), n_steps=1024, replicas=6,
                       seed=45, record=RecordPolicy(lil_alphas=(0.75, 1.25)))
    counts, last = lil_envelope_check(out, 1.25)
    times = [s.extras["lil"]["times"][1] for s in out]
    assert counts.tolist() == [len(t) for t in times]
    assert last.tolist() == [t[-1] if t else 0 for t in times]
    assert counts.sum() > 0


def test_lil_recording_end_to_end():
    out = run_ensemble(build_graph("comb:line"), n_steps=2048, replicas=30,
                       seed=44, record=RecordPolicy(lil_alphas=(0.75, 0.99)))
    loose, _ = lil_envelope_check(out, 0.75)
    tight, last = lil_envelope_check(out, 0.99)
    assert np.all(loose <= tight)
    assert np.all(last <= 2048)
