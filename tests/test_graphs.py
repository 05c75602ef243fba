"""Graph families, spec-string parsing, and ball construction."""

import tracemalloc

import numpy as np
import pytest

from combwalks.graphs import (Ball, BiasedLadder, BudgetError, GraphError,
                              Product, Star, ball, build_graph)
from combwalks.oracle import transition_vector


def test_build_graph_families():
    # (base modulus m, tooth dimension) of each product family
    for spec, m, dim in (("line", 0, 0), ("cycle:5", 5, 0), ("cycle:2", 2, 0),
                         ("grid2d", None, 2), ("comb:line", 0, 1),
                         ("comb:cycle:4", 4, 1), ("comb2:line", 0, 2)):
        g = build_graph(spec)
        assert isinstance(g, Product) and (g.m, g.dim) == (m, dim)
    assert isinstance(build_graph("star:3"), Star)
    assert isinstance(build_graph("biased-ladder"), BiasedLadder)


def test_build_graph_round_trips_family_string():
    for spec in ["line", "cycle:7", "cycle:2", "star:4", "grid2d",
                 "comb:line", "comb:cycle:4", "comb2:cycle:3",
                 "biased-ladder"]:
        assert build_graph(spec).family == spec


@pytest.mark.parametrize("bad", ["", "circle", "cycle:1", "cycle:x",
                                 "star:0", "comb:grid2d", "comb2:star:3",
                                 "comb:", "line:3", "cycle:0", "cycle:-3",
                                 "comb:biased-ladder", "comb:comb:line",
                                 "comb2:grid2d"])
def test_build_graph_rejects(bad):
    with pytest.raises(GraphError):
        build_graph(bad)


@pytest.mark.parametrize("spec, top", [
    ("cycle:9223372036854775808", 2 ** 63 - 1),
    ("comb:cycle:99999999999999999999", 2 ** 63 - 1),
    ("comb2:cycle:9223372036854775808", 2 ** 63 - 1),
    ("star:9007199254740993", 2 ** 53), ("star:99999999999999999999", 2 ** 53)])
def test_build_graph_refuses_a_parameter_past_its_bound(spec, top):
    # a cycle length the sampler's int64 columns cannot hold, a star size
    # whose leaves a 53-bit uniform cannot all reach
    with pytest.raises(GraphError, match=r"2\^(63|53)"):
        build_graph(spec)
    assert build_graph(f"{spec.rsplit(':', 1)[0]}:{top}")


ALL_FAMILIES = ("line", "cycle:2", "cycle:3", "cycle:5", "star:3", "grid2d",
                "comb:line", "comb:cycle:2", "comb:cycle:4", "comb2:line",
                "comb2:cycle:2", "biased-ladder")


@pytest.mark.parametrize("spec", ALL_FAMILIES)
def test_contains_rejects_floats_and_bools(spec):
    g = build_graph(spec)
    root = g.root
    assert g.contains(root)
    for i in range(len(root)):
        for c in (float(root[i]), bool(root[i]), True):
            v = root[:i] + (c,) + root[i + 1:]
            assert not g.contains(v)
            with pytest.raises(GraphError):
                g.neighbors(v)
    on_edge = (1.0,) + root[1:]         # cycle:2's second vertex as a float
    assert not g.contains(on_edge)


def test_line_neighbors():
    g = build_graph("line")
    assert sorted(w for w, _ in g.neighbors((5,))) == [(4,), (6,)]
    assert g.degree((0,)) == 2
    assert not g.contains((1, 2))


def test_cycle_wraps():
    g = build_graph("cycle:5")
    assert sorted(w for w, _ in g.neighbors((0,))) == [(1,), (4,)]
    assert not g.contains((5,))


def test_path_two_is_single_edge():
    g = build_graph("cycle:2")
    assert g.degree((0,)) == 1
    assert [w for w, _ in g.neighbors((1,))] == [(0,)]


def test_star_hub_and_leaves():
    g = build_graph("star:3")
    assert g.degree((0,)) == 3
    assert g.degree((2,)) == 1
    assert sorted(w for w, _ in g.neighbors((0,))) == [(1,), (2,), (3,)]


def test_comb_line_degrees():
    g = build_graph("comb:line")
    # spine vertices see two base neighbours and two tooth neighbours
    assert g.degree((0, 0)) == 4
    assert g.degree((3, 1)) == 2
    assert sorted(w for w, _ in g.neighbors((0, 0))) == [
        (-1, 0), (0, -1), (0, 1), (1, 0)]
    assert sorted(w for w, _ in g.neighbors((2, -3))) == [(2, -4), (2, -2)]


def test_comb_cycle_degrees():
    g = build_graph("comb:cycle:4")
    assert g.degree((0, 0)) == 4
    assert sorted(w for w, _ in g.neighbors((3, 0))) == [
        (0, 0), (2, 0), (3, -1), (3, 1)]


def test_comb_over_edge_degree_three():
    g = build_graph("comb:cycle:2")
    assert g.degree((0, 0)) == 3
    assert sorted(w for w, _ in g.neighbors((0, 0))) == [
        (0, -1), (0, 1), (1, 0)]


def test_comb2_plane_everywhere_base_at_origin():
    g = build_graph("comb2:line")
    assert g.degree((0, 0, 0)) == 6
    assert g.degree((0, 2, -1)) == 4
    ns = sorted(w for w, _ in g.neighbors((1, 0, 0)))
    assert (0, 0, 0) in ns and (2, 0, 0) in ns and (1, 1, 0) in ns
    # off the origin the base edge disappears
    ns = [w for w, _ in g.neighbors((1, 1, 0))]
    assert (0, 1, 0) not in ns and len(ns) == 4


class TestBiasedLadder:
    def setup_method(self):
        self.g = build_graph("biased-ladder")

    def test_degrees(self):
        assert self.g.degree((0, 0, 0)) == 2
        assert self.g.degree((0, 1, 0)) == 5        # 2 + 1 + 2
        assert self.g.degree((0, 2, 0)) == 8        # 2 + 2 + 4
        assert self.g.degree((0, 10, 0)) == 2 + 3 * 2 ** 9
        assert self.g.degree((1, 4, 7)) == 2

    def test_midpoint_identity_range(self):
        assert self.g.contains((1, 3, 7))
        assert not self.g.contains((1, 3, 8))
        assert not self.g.contains((0, 2, 1))

    def test_levels_above_62_are_a_quotient(self):
        assert self.g.contains((0, 300, 0))
        assert self.g.contains((1, 61, 2 ** 61 - 1))
        assert not self.g.contains((1, 61, 2 ** 61))
        assert self.g.contains((1, 300, 2 ** 62 - 1))
        assert not self.g.contains((1, 300, 2 ** 62))

    def test_neighbor_classes_with_multiplicity(self):
        ns = self.g.neighbors((0, 3, 0))
        mult = {w: m for w, m in ns}
        assert mult[(0, 2, 0)] == 1
        assert mult[(0, 4, 0)] == 1
        assert mult[(1, 2, None)] == 4
        assert mult[(1, 3, None)] == 8

    def test_numpy_levels_match_python_levels(self):
        for n in (0, 61, 62, 63, 70):
            for v in ((0, n, 0), (1, n, 0)):
                w = (v[0], np.int64(n), 0)
                assert self.g.degree(w) == self.g.degree(v)
                assert self.g.neighbors(w) == self.g.neighbors(v)
        assert self.g.degree((0, np.int64(70), 0)) == 2 + 3 * 2 ** 69

    def test_concrete_expansion_small_level(self):
        got = set(self.g.concrete_neighbors((0, 2, 0)))
        mids = {(1, 1, i) for i in range(2)} | {(1, 2, i) for i in range(4)}
        assert got == {(0, 1, 0), (0, 3, 0)} | mids

    def test_concrete_expansion_deep_level_refuses(self):
        with pytest.raises(BudgetError):
            list(self.g.concrete_neighbors((0, 30, 0)))


# ---------------------------------------------------------------------------
# balls
# ---------------------------------------------------------------------------

def test_line_ball_size_and_levels():
    b = ball(build_graph("line"), 6)
    assert b.size == 13
    assert b.interior_size() == 11      # radius - 1 by default
    assert b.interior_size(2) == 5
    i = b.index_of((0,))
    assert b.level[i] == 0
    assert b.vertex_of(b.index_of((-6,))) == (-6,)


def test_cycle_ball_saturates():
    b = ball(build_graph("cycle:5"), 7)
    assert b.size == 5
    assert b.interior_size(7) == 5


def test_comb_ball_counts():
    # |x| + |t| <= 3 on comb:line: 4 spine + teeth
    b = ball(build_graph("comb:line"), 3)
    want = sum(1 for x in range(-3, 4) for t in range(-3, 4)
               if abs(x) + abs(t) <= 3)
    assert b.size == want


def test_ball_rejects_outside_coordinates():
    b = ball(build_graph("comb:line"), 4)
    for v in [(5, 0), (0, 5), (3, 2), (-3, -2)]:
        with pytest.raises(GraphError):
            b.index_of(v)
    assert b.level[b.index_of((2, -2))] == 4


@pytest.mark.parametrize("lookup", [
    lambda: ball(build_graph("comb:line"), 3).index_of((10 ** 30, 0)),
    lambda: ball(build_graph("grid2d"), 3).index_of((2 ** 63, 1)),
    lambda: ball(build_graph("comb2:line"), 3).index_of((0, 2 ** 64, 0)),
    # np.abs wraps -2^63 to itself, which would pass an int64 radius test
    lambda: ball(build_graph("line"), 3).index_of((-2 ** 63,)),
    lambda: transition_vector(build_graph("comb:line"), (0, 0), 3)
    .probability((10 ** 30, 0))],
    ids=["comb:line", "grid2d", "comb2:line", "line-min-int64",
         "transition_vector"])
def test_a_vertex_past_int64_is_outside_the_ball(lookup):
    with pytest.raises(GraphError, match="outside the radius-"):
        lookup()


@pytest.mark.parametrize("spec, root", [
    ("comb:cycle:4", None), ("grid2d", None), ("star:5", None),
    ("biased-ladder", None), ("comb:line", (3, 2))],
    ids=["comb:cycle:4", "grid2d", "star:5", "biased-ladder",
         "comb:line-root-3-2"])
def test_ball_round_trip_and_degree_truth(spec, root):
    # star, ladder and off-root balls come from BFS, whose degrees are its
    # neighbour counts; the product balls' come from the family's rule
    g = build_graph(spec)
    b = ball(g, 5, root=root)
    for idx in range(b.size):
        v = b.vertex_of(idx)
        assert b.index_of(v) == idx
        assert b.degrees[idx] == g.degree(v)


PRODUCT_FAMILIES = ("line", "cycle:2", "cycle:3", "cycle:4", "cycle:7",
                    "grid2d", "comb:line", "comb:cycle:2", "comb:cycle:3",
                    "comb:cycle:4", "comb:cycle:5", "comb2:line",
                    "comb2:cycle:2", "comb2:cycle:3", "comb2:cycle:4")


def _height(b, i):
    g = b.graph
    if g.m is None or not g.dim:         # no teeth, or no base
        return None
    if g.dim == 1:
        return int(b.coords[1][i])
    return max(abs(int(b.coords[1][i])), abs(int(b.coords[2][i])))


@pytest.mark.parametrize("radius", [0, 1, 2, 6])
@pytest.mark.parametrize("spec", PRODUCT_FAMILIES)
def test_bfs_ball_matches_closed_form(spec, radius):
    g = build_graph(spec)
    from combwalks.graphs import _ball_bfs
    closed = ball(g, radius)
    bfs = _ball_bfs(g, radius, 2 << 30)

    def table(b):
        return {b.vertex_of(i): (int(b.level[i]), float(b.degrees[i]),
                                 _height(b, i)) for i in range(b.size)}

    def arcs(b):
        return sorted((b.vertex_of(i), b.vertex_of(j))
                      for i, j in zip(b.arc_src.tolist(), b.arc_dst.tolist()))

    assert closed.size == bfs.size
    assert table(closed) == table(bfs)
    assert arcs(closed) == arcs(bfs)


def test_ladder_ball_concrete_midpoints():
    g = build_graph("biased-ladder")
    b = ball(g, 4)
    # spine 0..4 plus all midpoints of levels 0..3 (distance level+1)
    assert b.size == 5 + (2 ** 4 - 1)
    i = b.index_of((1, 3, 5))
    assert i is not None and b.degrees[i] == 2
    spine3 = b.index_of((0, 3, 0))
    assert b.degrees[spine3] == 2 + 3 * 2 ** 2


def test_ball_budget_guard():
    with pytest.raises(BudgetError):
        ball(build_graph("grid2d"), 4000, budget=10_000)


def test_grid_ball_levels_are_sorted():
    b = ball(build_graph("grid2d"), 9)
    assert b.bipartite
    # parity-major: the even class first, levels sorted within each class
    n_even = b.class_start[1]
    assert np.all(b.level[:n_even] % 2 == 0) and np.all(b.level[n_even:] % 2 == 1)
    for lo, hi in zip(b.class_start, b.class_start[1:]):
        assert np.all(np.diff(b.level[lo:hi]) >= 0)
    assert b.level_start[0] == 0
    assert b.index_of((0, 0)) == 0


@pytest.mark.parametrize("spec", [
    "line", "cycle:2", "cycle:5", "grid2d", "comb:line", "comb:cycle:3",
    "comb2:line", "star:3", "biased-ladder"])
def test_distance_is_the_ball_level(spec):
    # the sampler's truncation test reads `distance`, the oracle its balls
    from combwalks.graphs import _ball_bfs
    g = build_graph(spec)
    for b in (ball(g, 5), ball(g, 5, lumped=True), _ball_bfs(g, 5, 2 << 30)):
        assert np.array_equal(g.distance(b.coords), b.level)
        # a sampler window: (coordinates, rows, walkers)
        window = np.stack(b.coords)[:, None]
        assert np.array_equal(g.distance(window), b.level[None])


@pytest.mark.parametrize("spec, v, distance, height, depth", [
    ("line", (-4,), 4, 0, 0), ("cycle:2", (1,), 1, 0, 0),
    ("cycle:5", (3,), 2, 0, 0), ("grid2d", (3, -5), 8, 0, 0),
    ("comb:line", (-2, -3), 5, -3, 3), ("comb:cycle:3", (2, 4), 5, 4, 4),
    ("comb2:line", (1, 2, -5), 8, 5, 5), ("comb2:line", (0, -4, 1), 5, 4, 4),
    ("star:3", (0,), 0, 0, 0), ("star:3", (2,), 1, 0, 0),
    ("biased-ladder", (1, 3, 5), 4, 0, 3),
    ("biased-ladder", (0, 7, 0), 7, 0, 7)])
def test_vertex_model_at_hand_computed_vertices(spec, v, distance, height,
                                                depth):
    g = build_graph(spec)
    cols = np.array(v)[:, None]                 # one vertex as a column
    assert g.distance(cols).tolist() == [distance]
    assert g.height(cols).tolist() == [height]
    assert g.depth(cols).tolist() == [depth]


@pytest.mark.parametrize("spec", PRODUCT_FAMILIES + ("star:4", "biased-ladder"))
def test_ball_rows_hold_the_states_a_walk_reaches(spec):
    g = build_graph(spec)
    for b in (ball(g, 6), ball(g, 6, lumped=True)):
        # bipartite: no arc within a level; breadth-first balls are one class
        same_level = np.any(b.level[b.arc_src] == b.level[b.arc_dst])
        assert b.bipartite == (spec in PRODUCT_FAMILIES and not same_level)
        for n in range(0, 9):
            lo, hi = b.rows(n)
            want = b.level <= n
            if b.bipartite:
                want &= b.level % 2 == n % 2
            assert np.array_equal(np.nonzero(want)[0], np.arange(lo, hi))


@pytest.mark.parametrize("m", [10 ** 7, 2 ** 63 - 2, 2 ** 63 - 1])
def test_cycle_ball_costs_its_radius_not_its_length(m):
    # only the 2R + 1 base vertices within R are made: a cycle longer than
    # the ball's diameter has the line's ball, in memory and in series
    from combwalks.oracle import (meeting_expectation_series,
                                  return_probability_series)
    g, line = build_graph(f"comb:cycle:{m}"), build_graph("comb:line")
    tracemalloc.start()
    try:
        b = ball(g, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert b.size == ball(line, 8).size
    assert b.vertex_of(b.index_of((m - 3, 2))) == (m - 3, 2)
    for series in (return_probability_series,
                   lambda g, n: meeting_expectation_series(g, n)[1]):
        got, want = series(g, 64).values, series(line, 64).values
        if m % 2:          # an odd cycle's ball is one class, stepped apart
            np.testing.assert_allclose(got, want, rtol=1e-12)
        else:              # an even cycle's is indexed as the line's is
            assert np.array_equal(got, want)
