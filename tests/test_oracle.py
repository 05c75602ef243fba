"""Exact kernel checks: closed forms, dual routes, identity residuals."""

import math
import tracemalloc

import numpy as np
import pytest

from combwalks.graphs import (DEFAULT_BUDGET, BudgetError, GraphError, ball,
                              build_graph, _ball_bfs)
from combwalks.oracle import (Kernel, OracleError, SparseDistribution,
                              identity_check_suite,
                              meeting_expectation_series,
                              per_site_collision_series,
                              return_probability_series, transition_vector,
                              _loop_around, _reversibility, _snapshots)


def dict_walk(graph, root, n):
    """Brute-force n-step distribution as a plain dict, for cross-checks."""
    dist = {root: 1.0}
    for _ in range(n):
        nxt = {}
        for v, p in dist.items():
            share = p / graph.degree(v)
            for w in graph.concrete_neighbors(v):
                nxt[w] = nxt.get(w, 0.0) + share
        dist = nxt
    return dist


@pytest.mark.parametrize("spec,n", [
    ("line", 8), ("cycle:5", 9), ("cycle:2", 6), ("star:3", 8),
    ("grid2d", 6), ("comb:line", 7), ("comb:cycle:4", 7),
    ("comb2:line", 5), ("biased-ladder", 6),
])
def test_transition_vector_matches_brute_force(spec, n):
    g = build_graph(spec)
    want = dict_walk(g, g.root, n)
    dist = transition_vector(g, g.root, n)
    got = dict(dist.items())
    assert set(got) == {v for v, p in want.items() if p > 0}
    for v, p in got.items():
        assert p == pytest.approx(want[v], abs=1e-14)


def test_transition_vector_validates():
    dist = transition_vector(build_graph("comb:line"), (0, 0), 6)
    assert dist.validate()
    assert dist.probability((0, 0)) > 0
    assert dist.probability((1, 2)) == 0.0     # odd distance, even time
    assert dist.probability((3, 4)) == 0.0     # distance 7 > n
    assert sum(p for _, p in dist.items()) == pytest.approx(1.0, abs=1e-12)


def test_line_return_closed_form():
    series = return_probability_series(build_graph("line"), 64)
    for n, value in series.rows():
        k = n // 2
        assert value == pytest.approx(math.comb(2 * k, k) / 4.0 ** k, abs=1e-14)


def test_line_all_mode_has_zero_odd_times():
    series = return_probability_series(build_graph("line"), 16, every="all")
    by_n = dict(series.rows())
    assert by_n[3] == 0.0 and by_n[7] == 0.0
    assert by_n[4] == pytest.approx(math.comb(4, 2) / 16.0, abs=1e-15)


def test_grid_return_is_square_of_line():
    # product structure of the diagonal: p_Z2^(2k)(0,0) = (C(2k,k)/4^k)^2
    series = return_probability_series(build_graph("grid2d"), 128)
    for n, value in series.rows():
        k = n // 2
        one_d = math.comb(2 * k, k) / 4.0 ** k
        assert value == pytest.approx(one_d * one_d, rel=1e-12)


LUMPED = ("comb:line", "line", "grid2d", "cycle:6", "comb:cycle:3",
          "comb:cycle:4", "comb:cycle:2", "comb2:line", "comb2:cycle:4")


def horizon(spec, n):
    """A smaller horizon on comb2, whose unlumped balls grow like n^3."""
    return n // 3 if spec.startswith("comb2") else n


def heights(graph, coords):
    """Tooth height of each vertex: t on Z teeth, max(|t1|, |t2|) on Z^2."""
    if graph.family.startswith("comb2"):
        return np.maximum(np.abs(coords[1]), np.abs(coords[2]))
    return coords[1]


@pytest.mark.parametrize("every", ["even", "all"])
@pytest.mark.parametrize("spec", LUMPED)
def test_lumped_return_matches_generic(spec, every):
    g = build_graph(spec)
    n_max = horizon(spec, 96)
    fast = return_probability_series(g, n_max, every=every)
    slow = return_probability_series(g, n_max, every=every, method="generic")
    assert np.array_equal(fast.n, slow.n)
    np.testing.assert_allclose(fast.values, slow.values, rtol=0, atol=1e-15)


@pytest.mark.parametrize("spec", LUMPED)
def test_lumped_meetings_and_per_site_match_transition_vector(spec):
    g = build_graph(spec)
    n_max = horizon(spec, 48)
    _, inc = meeting_expectation_series(g, n_max)
    ps = per_site_collision_series(g, n_max) if spec.startswith("comb") \
        else None
    for n in range(1, n_max + 1):
        dist = transition_vector(g, g.root, n)
        p2 = dist.dense * dist.dense
        assert inc.value_at(n) == pytest.approx(p2.sum(), rel=0, abs=1e-15)
        if ps is not None:
            want = dict.fromkeys(ps.heights.tolist(), 0.0)
            for h, mass in zip(heights(g, dist.ball.coords).tolist(),
                               p2.tolist()):
                want[h] += mass
            np.testing.assert_allclose(ps.table[n - 1], list(want.values()),
                                       rtol=0, atol=1e-15)


@pytest.mark.parametrize("spec", LUMPED)
def test_lumped_ball_orbits_cover_full_ball(spec):
    g = build_graph(spec)
    for radius in (0, 1, 2, 7, 10):
        full = ball(g, radius)
        lumped = ball(g, radius, lumped=True)
        assert lumped.lumped and not full.lumped
        assert np.all(full.orbit == 1)
        assert lumped.orbit.sum() == full.size
        # orbits never straddle levels: each level keeps its vertex count
        per_level = np.bincount(lumped.level, weights=lumped.orbit)
        assert np.array_equal(per_level, np.bincount(full.level))
        assert lumped.root_index == 0 and lumped.orbit[0] == 1
        assert all(lumped.index_of(lumped.vertex_of(i)) == i
                   for i in range(lumped.size))


@pytest.mark.parametrize("spec,radius", [("grid2d", 200), ("comb:line", 300),
                                         ("comb2:line", 40)])
def test_budget_estimate_covers_traced_peak(spec, radius):
    g = build_graph(spec)
    tracemalloc.start()
    try:
        Kernel(ball(g, radius, lumped=True)).iterate(radius - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a budget one byte under the peak is refused, twice the peak is not
    with pytest.raises(BudgetError):
        ball(g, radius, budget=peak - 1, lumped=True)
    ball(g, radius, budget=2 * peak, lumped=True)


SERIES = {
    "return even": lambda g, n, budget: return_probability_series(
        g, n, budget=budget),
    "return all": lambda g, n, budget: return_probability_series(
        g, n, every="all", budget=budget),
    "meetings": lambda g, n, budget: meeting_expectation_series(
        g, n, budget=budget),
    "persite": lambda g, n, budget: per_site_collision_series(
        g, n, budget=budget),
}


@pytest.mark.parametrize("spec,n_max,series", [
    (spec, n_max, series)
    for spec, n_max in (("comb:line", 512), ("grid2d", 256),
                        ("comb2:line", 48), ("comb:cycle:4", 512))
    for series in SERIES if series != "persite" or spec.startswith("comb")])
def test_budget_bounds_the_traced_peak_of_every_root_series(spec, n_max,
                                                            series):
    # the budget charges the series table as well as the ball and kernel
    g, run = build_graph(spec), SERIES[series]
    tracemalloc.start()
    try:
        run(g, n_max, DEFAULT_BUDGET)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    with pytest.raises(BudgetError):
        run(g, n_max, peak - 1)


def test_kernel_step_leaves_rows_past_reach_zero():
    b = ball(build_graph("comb:line"), 12, lumped=True)
    assert b.bipartite
    kern = Kernel(b)
    vec = np.eye(1, b.size, b.root_index)[0]      # p^(0)
    for reach in range(1, 8):
        vec = kern.step(vec, reach)
        lo, hi = b.rows(reach)
        p = reach % 2
        # the written range is class p's states within distance reach
        assert lo == b.class_start[p]
        assert np.all(b.level[lo:hi] % 2 == p) and b.level[hi - 1] == reach
        assert hi - lo == np.sum((b.level <= reach) & (b.level % 2 == p))
        assert np.all(vec[hi:b.class_start[p + 1]] == 0.0)
        assert vec[lo:hi].sum() == pytest.approx(1.0, abs=1e-15)
    # a second run on the same kernel reads none of the first run's rows
    first = kern.iterate(11).copy()
    np.testing.assert_array_equal(kern.iterate(11), first)
    for bad in (vec[:-1], np.zeros(2 * b.size)[::2], vec.astype(np.float32)):
        with pytest.raises(OracleError):
            kern.step(bad, 3)


@pytest.mark.parametrize("spec, lumped", [
    ("comb:line", True), ("grid2d", True), ("comb2:line", True),
    ("comb:cycle:3", False)])
def test_step_sum_is_the_row_order_sum(spec, lumped):
    # the sum a weighted step returns, against a plain loop over its rows;
    # not sum(), which compensates float sums from Python 3.12 on
    b = ball(build_graph(spec), 12, lumped=lumped)
    assert b.bipartite == (spec != "comb:cycle:3")
    w = b.degrees[b.root_index] / (b.degrees * b.orbit)
    kern = Kernel(b, w)
    assert kern.weights is w and kern.sq_sum == 0.0
    vec = np.eye(1, b.size, b.root_index)[0]
    for reach in range(1, 12):
        vec = kern.step(vec, reach)
        acc = 0.0
        for i in range(*b.rows(reach)):
            p = float(vec[i])
            acc += p * p * float(w[i])
        assert kern.sq_sum == acc, reach
        vec = vec.copy() if reach % 3 == 0 else vec   # foreign vectors too
    plain = Kernel(ball(build_graph(spec), 12, lumped=lumped))
    plain.iterate(11)
    assert plain.weights is None and plain.sq_sum == 0.0


def _argsort_csr(src, dst, size):
    """The CSR arrays of the arcs src -> dst, rows by dst, by a stable sort."""
    order = np.argsort(dst, kind="stable")
    counts = np.bincount(dst, minlength=size)
    return (np.concatenate(([0], np.cumsum(counts))).astype(np.int32),
            src[order].astype(np.int32))


@pytest.mark.parametrize("spec, lumped, root", [
    ("comb:line", True, None), ("comb:line", False, None),
    ("grid2d", True, None), ("comb2:line", True, None),
    ("comb:cycle:3", False, None), ("star:5", False, None),
    ("biased-ladder", False, None), ("comb:line", False, (3, 2))])
def test_kernel_csr_is_the_stable_argsort_csr(spec, lumped, root):
    b = ball(build_graph(spec), 9, lumped=lumped, root=root)
    want = _argsort_csr(b.arc_src.copy(), b.arc_dst.copy(), b.size)
    kern = Kernel(b)
    assert b.arc_src is None and b.arc_dst is None
    for got, ref in zip((kern.indptr, kern.indices), want):
        assert got.dtype == np.int32 and np.array_equal(got, ref)


def test_kernel_refuses_weights_it_cannot_read():
    b = ball(build_graph("comb:line"), 6, lumped=True)
    w = 1.0 / b.orbit
    for bad in (w[:-1], np.ones(2 * b.size)[::2], w.astype(np.float32),
                np.ones(b.size, np.int64)):
        with pytest.raises(OracleError, match="weights needs a contiguous"):
            Kernel(ball(build_graph("comb:line"), 6, lumped=True), bad)
    with pytest.raises(OracleError, match="step needs a contiguous"):
        Kernel(b, w).step(w[:-1].copy(), 1)


@pytest.mark.parametrize("spec, lumped", [
    ("comb:line", True), ("grid2d", True), ("comb:cycle:3", False),
    ("comb2:line", True)])
def test_kernel_step_matches_scipy_bit_for_bit(spec, lumped):
    # scipy is the reference here only: its CSR product sums each row in
    # the same order from zero, so the written rows agree in every bit
    from scipy import sparse
    b = ball(build_graph(spec), 10, lumped=lumped)
    kern = Kernel(b)
    mat = sparse.csr_matrix(((1.0 / b.degrees)[kern.indices], kern.indices,
                             kern.indptr), shape=(b.size, b.size))
    vec = np.eye(1, b.size, b.root_index)[0]      # p^(0)
    for reach in range(1, 10):
        want = mat @ vec
        lo, hi = b.rows(reach)
        vec = kern.step(vec, reach)
        assert vec[lo:hi].tobytes() == want[lo:hi].tobytes()
        vec = vec.copy() if reach % 3 == 0 else vec   # foreign vectors too


def test_kernel_flushes_subnormals_and_restores_the_float_mode():
    # at step 600 the grid2d frontier is below 2^-1022, 121 states under
    # IEEE arithmetic; the compiled step flushes those to 0 in its own
    # float mode and hands the caller's back
    b = ball(build_graph("grid2d"), 601, lumped=True)
    vec = Kernel(b).iterate(600)
    assert not np.any((vec > 0) & (vec < 2.0 ** -1022))
    # numpy in this thread still makes and reads subnormals
    assert (np.array([2.0 ** -1022]) / 4)[0] > 0
    assert (np.array([5e-324]) * 1.0)[0] == 5e-324


LAYOUTS = ("line", "cycle:4", "grid2d", "comb:line", "comb:cycle:4",
           "comb2:line", "cycle:5", "comb:cycle:3")


@pytest.mark.parametrize("spec", LAYOUTS)
def test_parity_major_kernel_matches_level_major(spec):
    g = build_graph(spec)
    radius = 9
    pm = ball(g, radius)
    lm = _ball_bfs(g, radius, DEFAULT_BUDGET)
    assert pm.bipartite == (spec not in ("cycle:5", "comb:cycle:3"))
    assert not lm.bipartite
    perm = [pm.index_of(lm.vertex_of(i)) for i in range(lm.size)]
    runs = []
    for b in (pm, lm):
        kern = Kernel(b)
        vecs = []

        def keep(n, lo, head):
            vecs.append(np.zeros(b.size))
            vecs[-1][lo:lo + len(head)] = head

        last = kern.iterate(radius - 1, on_step=keep).copy()
        # one vector stepped in place on a bipartite ball, two otherwise
        assert (kern._bufs[0] is kern._bufs[1]) == b.bipartite
        runs.append((vecs, last))
    (p_vecs, p_last), (l_vecs, l_last) = runs
    for p, q in zip(p_vecs, l_vecs):
        np.testing.assert_allclose(p[perm], q, rtol=0, atol=1e-15)
    np.testing.assert_allclose(p_last[perm], l_last, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [4, 5])
def test_transition_vector_clears_the_other_class(n):
    g = build_graph("comb:line")
    dist = transition_vector(g, g.root, n)
    b = dist.ball
    assert b.bipartite
    # in place, the other class still held p^(n-1) before iterate returned
    assert np.all(dist.dense[b.level % 2 != n % 2] == 0.0)
    assert dist.dense.sum() == pytest.approx(1.0, abs=1e-15)
    assert dist.validate()


def test_validate_rejects_mass_on_the_wrong_class():
    g = build_graph("comb:line")
    dist = transition_vector(g, g.root, 4)
    dense = np.zeros_like(dist.dense)
    dense[dist.ball.index_of((1, 0))] = 1.0     # distance 1 <= 4, odd level
    with pytest.raises(OracleError):
        SparseDistribution(dist.ball, 4, dense).validate()


def test_diagonal_is_exactly_zero_at_odd_times():
    # the in-place vector still holds p^(n-1)(root, root) at odd n
    g = build_graph("comb:line")
    full = return_probability_series(g, 40, every="all")
    assert all(v == 0.0 for n, v in full.rows() if n % 2)
    by_n = dict(full.rows())
    for n, value in return_probability_series(g, 40).rows():
        assert by_n[n] == pytest.approx(value, rel=1e-13)


def test_even_route_matches_full_diagonal():
    # reversibility shortcut vs reading the diagonal of the full horizon
    g = build_graph("comb:cycle:4")
    halved = return_probability_series(g, 32, every="even")
    full = return_probability_series(g, 32, every="all")
    by_n = dict(full.rows())
    for n, value in halved.rows():
        assert value == pytest.approx(by_n[n], abs=1e-14)


def test_deterministic_returns_on_star_and_edge():
    hub = return_probability_series(build_graph("star:4"), 10)
    assert all(v == 1.0 for _, v in hub.rows())
    edge = return_probability_series(build_graph("cycle:2"), 10, every="all")
    vals = dict(edge.rows())
    assert vals[2] == 1.0 and vals[3] == 0.0


def test_cycle_limits():
    # bipartite cycle:4 concentrates on one parity class of size 2
    c4 = return_probability_series(build_graph("cycle:4"), 64)
    assert c4.value_at(64) == pytest.approx(0.5, abs=1e-9)
    # odd cycle:5 is aperiodic with uniform limit 1/5
    c5 = return_probability_series(build_graph("cycle:5"), 64, every="all")
    assert c5.value_at(63) == pytest.approx(0.2, abs=1e-6)


def test_meeting_series_cycle4_is_constant_half():
    partial, inc = meeting_expectation_series(build_graph("cycle:4"), 32)
    np.testing.assert_allclose(inc.values, 0.5, rtol=0, atol=1e-14)
    np.testing.assert_allclose(partial.values, 0.5 * np.arange(1, 33),
                               rtol=0, atol=1e-12)


def test_meeting_increment_limit_cycle5():
    _, inc = meeting_expectation_series(build_graph("cycle:5"), 64)
    assert inc.value_at(64) == pytest.approx(0.2, abs=1e-6)


def test_meeting_increment_comb_line_at_one():
    # both walkers take the same first step with probability 4 * (1/4)^2
    _, inc = meeting_expectation_series(build_graph("comb:line"), 4)
    assert inc.value_at(1) == pytest.approx(0.25, abs=1e-15)
    assert inc.value_at(3) > 0          # meetings at odd times do happen


def test_meeting_partial_is_cumsum():
    partial, inc = meeting_expectation_series(build_graph("comb:cycle:4"), 40)
    np.testing.assert_allclose(partial.values, np.cumsum(inc.values),
                               rtol=0, atol=1e-15)


def test_per_site_rows_sum_to_meeting_increment():
    g = build_graph("comb:line")
    ps = per_site_collision_series(g, 24)
    _, inc = meeting_expectation_series(g, 24)
    np.testing.assert_allclose(ps.table.sum(axis=1), inc.values,
                               rtol=0, atol=1e-14)
    assert np.array_equal(ps.values, ps.table.max(axis=1))


def test_per_site_heights_and_backbone_column():
    g = build_graph("comb:cycle:4")
    ps = per_site_collision_series(g, 12)
    assert ps.heights[0] == -13 and ps.heights[-1] == 13
    # time 1 mass: root spreads over 2 base + 2 tooth neighbors
    col0 = ps.at_height(0)
    assert col0[0] == pytest.approx(2 * 0.25 ** 2, abs=1e-15)
    assert ps.at_height(1)[0] == pytest.approx(0.25 ** 2, abs=1e-15)
    with pytest.raises(KeyError):
        ps.at_height(99)


def test_per_site_comb2_uses_annulus():
    ps = per_site_collision_series(build_graph("comb2:line"), 8)
    assert ps.heights[0] == 0          # Chebyshev radius is nonnegative
    assert ps.table.shape == (8, int(ps.heights[-1]) + 1)


def test_per_site_rejects_toothless_graph():
    with pytest.raises(GraphError):
        per_site_collision_series(build_graph("line"), 8)


SERIES_FROM = {
    "transition_vector": lambda g, v: transition_vector(g, v, 2),
    "per_site": lambda g, v: per_site_collision_series(g, 2, root=v)}


@pytest.mark.parametrize("name", list(SERIES_FROM))
@pytest.mark.parametrize("root", [(10 ** 20, 0), (2 ** 63 - 2, 0),
                                  (2 ** 63 - 1, 0), (0, 2 ** 63 - 1),
                                  (-2 ** 63, 0)])
def test_a_root_int64_cannot_carry_is_refused(name, root):
    # the root's distance plus the ball's radius (3 here) reaches 2^63
    with pytest.raises(GraphError, match="int64"):
        SERIES_FROM[name](build_graph("comb:line"), root)


@pytest.mark.parametrize("name", list(SERIES_FROM))
def test_a_root_int64_can_carry_runs(name):
    g, root = build_graph("comb:line"), (2 ** 63 - 4, 0)
    # a translate of the walk from (0, 0): the same probabilities
    near, at_zero = (SERIES_FROM[name](g, v) for v in (root, (0, 0)))
    if name == "transition_vector":
        assert sorted(p for _, p in near.items()) == \
            sorted(p for _, p in at_zero.items())
    else:
        assert np.array_equal(near.table, at_zero.table)


def loop_around(spec, v, i, j):
    return _loop_around(*_snapshots(build_graph(spec), v, i + j), i, j)


def reversibility(spec, v, n):
    return _reversibility(*_snapshots(build_graph(spec), v, 2 * n), n)


def test_loop_around_residuals():
    assert loop_around("cycle:5", (0,), 3, 4) < 1e-15
    assert loop_around("line", (2,), 5, 5) < 1e-15
    with pytest.raises(GraphError):
        loop_around("star:3", (0,), 2, 2)


def test_reversibility_residuals():
    assert reversibility("star:4", (0,), 6) < 1e-15
    assert reversibility("comb:cycle:4", (2, 0), 5) < 1e-15
    assert reversibility("biased-ladder", (0, 1, 0), 4) < 1e-15


def test_identity_suite_all_green():
    rows = identity_check_suite()
    assert len(rows) == 540
    assert all(ok for _, _, ok in rows)
    assert max(residual for _, residual, _ in rows) < 1e-10


def test_degenerate_inputs_raise():
    g = build_graph("line")
    with pytest.raises(OracleError):
        return_probability_series(g, 0)
    with pytest.raises(OracleError):
        return_probability_series(g, 1)       # no even entries below 2
    with pytest.raises(OracleError):
        meeting_expectation_series(g, 0)
    with pytest.raises(OracleError):
        transition_vector(g, (0,), -1)
