"""Sampler behavior: laws against the exact kernel, construction
equivalence, record schema invariants, and worker-count independence."""

import ctypes
import dataclasses
import functools
import gc
import json
import math
import multiprocessing
import os
import re
import subprocess
import sysconfig
import tempfile
import tracemalloc
import types
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import stats as sps

import combwalks.sampler as sampler
from combwalks import _native, summaries
from combwalks.graphs import GraphError, build_graph
from combwalks.oracle import (meeting_expectation_series,
                              per_site_collision_series, transition_vector)
from combwalks.rng import BOOT, RngStream, X_HOLD, X_MAIN, X_SKEL, Y_MAIN
from combwalks.sampler import (RecordPolicy, SimulationError,
                               clock_dichotomy_violations, dyadic_checkpoints,
                               geometric_clock_path, run_ensemble, run_pair,
                               sample_marginal)
from combwalks.stats import lil_threshold
from combwalks.summaries import read_summaries, write_summaries


def to_json(s):
    """A summary's line as ``json.dumps`` writes its JSON object, keys
    sorted and no whitespace: the reference writer whose bytes
    ``write_summaries`` prints."""
    d = {"replica": s.replica, "T": s.n_steps, "meetings": s.meetings,
         "collisions": [{"n": n, "vertex": list(v), "l": l}
                        for n, v, l in zip(s.times, s.vertices, s.heights)],
         "checkpoints": [{"t": t, "meetings": m} for t, m in s.checkpoints],
         "final": {"x": list(s.final_x), "y": list(s.final_y)},
         "max_tooth": {"x": s.max_tooth_x, "y": s.max_tooth_y},
         "method": s.method, **s.extras}
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def test_dyadic_checkpoints():
    assert dyadic_checkpoints(10) == (1, 2, 4, 8, 10)
    assert dyadic_checkpoints(8) == (1, 2, 4, 8)
    assert dyadic_checkpoints(1) == (1,)
    assert dyadic_checkpoints(0) == ()


def test_run_pair_record_invariants():
    g = build_graph("comb:line")
    s = run_pair(g, n_steps=2000, seed=5, replica=0)
    assert s.meetings == len(s.times) == len(s.vertices) == len(s.heights)
    assert s.times == sorted(s.times) and len(set(s.times)) == s.meetings
    for n, v, l in zip(s.times, s.vertices, s.heights):
        assert 1 <= n <= 2000
        assert g.contains(tuple(v))
        assert l == v[1]
        assert abs(l) <= min(s.max_tooth_x, s.max_tooth_y)
    counts = [m for _, m in s.checkpoints]
    assert counts == sorted(counts)
    assert s.checkpoints[-1] == (2000, s.meetings)
    assert s.method == "direct"
    assert g.contains(s.final_x) and g.contains(s.final_y)


def test_run_pair_reproducible():
    g = build_graph("comb:cycle:4")
    a = run_pair(g, n_steps=800, seed=2, replica=1)
    b = run_pair(g, n_steps=800, seed=2, replica=1)
    assert to_json(a) == to_json(b)


def test_run_pair_other_stream_ids():
    # the defaults are seed 0, replica 0
    g = build_graph("comb:line")
    default = run_pair(g, n_steps=300)
    assert to_json(default) == to_json(run_pair(
        g, n_steps=300, seed=0, replica=0))
    # replica 2 of seed 6 is the reference walk of that replica's own X and
    # Y main streams, and differs from the default pair
    s = run_pair(g, n_steps=300, seed=6, replica=2,
                 record=RecordPolicy(lil_alphas=(1.1,)))
    hits, fx, fy, depth, lil = reference_comb_line_pair(6, 2, 300, 1.1)
    assert [*zip(s.times, map(tuple, s.vertices), s.heights)] == hits
    assert (s.final_x, s.final_y) == (fx, fy)
    assert [s.max_tooth_x, s.max_tooth_y] == depth
    assert s.extras["lil"]["times"] == [lil]
    assert (s.times, s.final_x, s.final_y) != \
        (default.times, default.final_x, default.final_y)


@pytest.mark.parametrize("spec, start", [("comb:line", (0, 5)),
                                         ("comb2:line", (1, 3, -4))])
def test_max_tooth_counts_the_start(spec, start):
    # max_tooth is the maximum over times 0 .. T, the start included: a
    # step moves the depth by at most 1, so after n steps each walker's
    # maximum lies in [depth at 0, depth at 0 + n]
    g, depth = build_graph(spec), max(map(abs, start[1:]))
    for n in (0, 1, 2):
        s = run_pair(g, start, n)
        for m in (s.max_tooth_x, s.max_tooth_y):
            assert depth <= m <= depth + n, (n, s.max_tooth_x, s.max_tooth_y)


@pytest.mark.parametrize("spec, method, channels", [
    ("comb:line", "direct", 1), ("comb2:line", "direct", 1),
    ("grid2d", "direct", 1), ("comb:line", "selfloop", 2),
    ("comb:cycle:3", "selfloop", 2), ("comb:cycle:2", "selfloop", 1),
    ("star:3", "direct", 1), ("biased-ladder", "direct", 2)])
def test_stream_roles_closer_than_the_channels_are_refused(spec, method,
                                                          channels):
    # channel c of a walker reads stream role + c: the role table keeps the
    # two walkers of each kernel at least its channel count apart and below
    # the bootstrap's ids, and run_pair takes no stream, only a replica
    g = build_graph(spec)
    kernel = sampler._make_kernel(g, g.root, 2, method, 8)
    assert len(kernel.draws) == channels
    x, y = sampler._ROLES[method]
    assert abs(x - y) >= channels and max(x, y) + channels <= BOOT
    keys = np.concatenate(sampler._stream_keys(kernel, 3, [0], (x, y)))
    assert len({k.tobytes() for k in keys}) == 2 * channels
    with pytest.raises(TypeError):
        run_pair(g, n_steps=4, rng_x=RngStream(0, 0, X_MAIN), method=method)


@pytest.mark.parametrize("method", ["direct", "selfloop"])
def test_run_pair_is_that_replica_of_run_ensemble(method):
    g, start, record = build_graph("comb:cycle:4"), (1, 2), RecordPolicy(
        checkpoints=(7, 100), lil_alphas=(0.9,))
    for r in (0, 5):
        ens = run_ensemble(g, start, 300, replicas=r + 1, seed=12,
                           record=record, method=method)
        pair = run_pair(g, start, 300, seed=12, replica=r, record=record,
                        method=method)
        assert to_json(pair) == to_json(ens[r])
        assert pair.meetings > 0


def test_odd_time_meetings_happen_on_comb():
    # P[X_1 = Y_1] = 4 (1/4)^2 = 1/4 from the comb:line root
    out = run_ensemble(build_graph("comb:line"), n_steps=1, replicas=4000,
                       seed=3)
    frac = np.mean([s.meetings for s in out])
    assert frac == pytest.approx(0.25, abs=0.03)


def test_ensemble_is_replica_ordered_and_matches_run_pair():
    g = build_graph("comb:cycle:4")
    ens = run_ensemble(g, n_steps=300, replicas=3, seed=9)
    assert [s.replica for s in ens] == [0, 1, 2]
    for r, s in enumerate(ens):
        lone = run_pair(g, n_steps=300, seed=9, replica=r)
        assert to_json(s) == to_json(lone)


@pytest.mark.parametrize("spec, method, record", [
    ("comb:line", "direct", RecordPolicy()),
    ("comb:cycle:4", "selfloop", RecordPolicy()),
    ("biased-ladder", "direct", RecordPolicy(spine_stride=3)),
    ("comb:line", "direct", RecordPolicy(lil_alphas=(0.7, 0.9))),
], ids=["comb:line", "selfloop", "ladder-spine", "lil"])
def test_worker_count_does_not_change_results(monkeypatch, spec, method,
                                              record):
    # summaries cross the process boundary whole, extras included
    monkeypatch.setattr(sampler, "_BLOCK", 4)
    g = build_graph(spec)
    one = run_ensemble(g, n_steps=400, replicas=10, seed=13, workers=1,
                       record=record, method=method)
    three = run_ensemble(g, n_steps=400, replicas=10, seed=13, workers=3,
                         record=record, method=method)
    assert [to_json(s) for s in one] == [to_json(s) for s in three]


def test_pooled_block_equals_the_serial_block_column_for_column():
    # 1030 replicas: three blocks of up to 512 pairs, two from the pool
    g = build_graph("comb:line")
    serial, pooled = (run_ensemble(g, n_steps=256, replicas=1030, seed=7,
                                   workers=w) for w in (1, 2))
    assert len(serial) == 1030 > 2 * sampler._BLOCK
    assert_blocks_equal(serial, pooled)


def test_pool_starts_no_more_workers_than_blocks(monkeypatch):
    # a fork pool starts all max_workers processes at its first submit;
    # a fake pool records the size asked for and maps in this process
    import concurrent.futures
    sizes = []

    class FakePool:
        map = staticmethod(map)

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(sampler, "_BLOCK", 4)
    g = build_graph("comb:line")
    serial = run_ensemble(g, n_steps=64, replicas=10, seed=5, workers=1)
    pooled = run_ensemble(g, n_steps=64, replicas=10, seed=5,
                          workers=100_000)
    assert sizes == [3]                        # blocks of 4, 4 and 2 pairs
    assert [to_json(s) for s in pooled] == [to_json(s) for s in serial]


@pytest.mark.parametrize("d", [0, 0.5])
@pytest.mark.parametrize("entry", [sampler.clock_dichotomy_violations,
                                   sampler.geometric_clock_path])
def test_clock_entry_points_refuse_a_degree_below_one(entry, d):
    with pytest.raises(ValueError, match="base degree must be >= 1"):
        entry(d, 16, 4)


def test_ensemble_rejects_bad_args():
    g = build_graph("line")
    with pytest.raises(ValueError):
        run_ensemble(g, n_steps=10, replicas=0)
    with pytest.raises(ValueError):
        run_ensemble(g, n_steps=10, replicas=2,
                     record=RecordPolicy(checkpoints=(5, 2)))
    # a grid past the horizon records nothing: refused, as the CLI does
    for entry in (run_ensemble, run_pair):
        with pytest.raises(ValueError, match=r"rise within 1\.\.10"):
            entry(g, n_steps=10, record=RecordPolicy(checkpoints=(8, 20)))


@pytest.mark.parametrize("call", [
    lambda g: sampler.sample_marginal(g, 6, 0),
    lambda g: sampler.sample_marginal(g, -1, 3),
    lambda g: sampler.sample_marginal(g, 6, 0, method="clock"),
    lambda g: sampler.sample_marginal(g, -1, 3, method="clock"),
    lambda g: sampler.clock_dichotomy_violations(2, -1, 3),
    lambda g: sampler.clock_dichotomy_violations(2, -3, 3),
    lambda g: run_ensemble(g, n_steps=-1, replicas=2),
    lambda g: sampler.geometric_clock_path(2, -1),
    lambda g: sampler.run_pair(g, n_steps=-1),
])
def test_entry_points_check_replicas_and_steps(call):
    with pytest.raises(ValueError, match=r"(replicas|n_steps) must be >= "):
        call(build_graph("comb:line"))


# a library caller's seed or replica: the CLI parses both as ints
@pytest.mark.parametrize("call", [
    lambda g: run_pair(g, n_steps=50, seed=1, replica=2.5),
    lambda g: run_pair(g, n_steps=50, seed=1.5),
    lambda g: sampler.sample_marginal(g, 6, 3, seed=True)])
def test_entry_points_refuse_a_seed_or_replica_that_is_not_an_int(call):
    with pytest.raises(ValueError, match="expected .*non-negative integer"):
        call(build_graph("comb:line"))


# the last six: a fraction would be truncated, a bool or a float32
# written in a form the summary reader or the JSON writer refuses
@pytest.mark.parametrize("record", [{"lil_alphas": (0.0,)},
                                    {"lil_alphas": (0.75, -0.5)},
                                    {"lil_alphas": (float("nan"),)},
                                    {"spine_stride": -3},
                                    {"checkpoints": (5.5,)},
                                    {"checkpoints": (True,)},
                                    {"spine_stride": 2.5},
                                    {"spine_stride": True},
                                    {"lil_alphas": (True,)},
                                    {"lil_alphas": (np.float32(0.75),)}])
@pytest.mark.parametrize("entry", [run_ensemble, run_pair])
def test_entry_points_refuse_bad_envelope_and_stride(entry, record):
    with pytest.raises(ValueError, match=r"(lil_alphas|spine_stride) must"):
        entry(build_graph("biased-ladder"), n_steps=8,
              record=RecordPolicy(**record))


def test_numpy_numbers_record_as_python_numbers():
    def lines(i, f):
        record = RecordPolicy(checkpoints=(i(8), i(64)), spine_stride=i(3),
                              lil_alphas=(f(0.8),))
        return [to_json(s) for s in run_ensemble(
            build_graph("biased-ladder"), n_steps=100, replicas=2, seed=3,
            record=record)]
    assert lines(np.int64, np.float64) == lines(int, float)


@pytest.mark.parametrize("spec, record", [
    ("line", {"lil_alphas": (0.75,)}), ("cycle:4", {"lil_alphas": (0.75,)}),
    ("grid2d", {"lil_alphas": (0.75,)}), ("star:3", {"lil_alphas": (0.75,)}),
    ("comb:line", {"spine_stride": 2}), ("grid2d", {"spine_stride": 2})])
@pytest.mark.parametrize("entry", [run_ensemble, run_pair])
def test_entry_points_refuse_records_the_graph_cannot_keep(entry, spec,
                                                          record):
    # envelope times need a depth coordinate, a spine trace the ladder
    with pytest.raises(GraphError, match="has no"):
        entry(build_graph(spec), n_steps=8, record=RecordPolicy(**record))


def test_zero_steps_stay_at_the_start():
    # every entry point takes n_steps = 0 and returns its start; the
    # clock draws zero rows of its streams
    g, start = build_graph("comb:cycle:4"), (1, 0)
    for method in ("direct", "selfloop"):
        for s in (run_ensemble(g, start, 0, replicas=3, seed=2,
                               method=method)[2],
                  run_pair(g, start, 0, method=method)):
            assert (s.n_steps, s.meetings, s.times, s.checkpoints) == (
                0, 0, [], [])
            assert s.final_x == s.final_y == start
        assert s.extras == {}
    for spec, record, extra in (
            ("comb:line", RecordPolicy(lil_alphas=(0.75,)), "lil"),
            ("biased-ladder", RecordPolicy(spine_stride=2), "spine")):
        s, = run_ensemble(build_graph(spec), n_steps=0, record=record)
        assert s.final_x == s.final_y == build_graph(spec).root
        assert extra in s.extras
    for method in ("direct", "selfloop", "clock"):
        assert sample_marginal(g, 0, 3, seed=2, method=method,
                               start=start).tolist() == [list(start)] * 3
    path = geometric_clock_path(2, 0)
    for key in ("S", "V", "K", "H", "R", "sigma", "tau"):
        assert path[key].tolist() == [0], key
    assert clock_dichotomy_violations(2, 0, 3) == (0, 3)


def test_custom_checkpoints_are_used_verbatim():
    g = build_graph("line")
    s = run_ensemble(g, n_steps=100, replicas=1, seed=0,
                     record=RecordPolicy(checkpoints=(8, 64)))[0]
    assert [t for t, _ in s.checkpoints] == [8, 64]


def chisq_pvalue(counts, expected):
    obs = np.asarray(counts, dtype=float)
    exp = np.asarray(expected, dtype=float)
    # pool tiny-expectation cells so the asymptotic chi-square applies
    order = np.argsort(exp)
    obs, exp = obs[order], exp[order]
    keep_o, keep_e, acc_o, acc_e = [], [], 0.0, 0.0
    for o, e in zip(obs, exp):
        acc_o, acc_e = acc_o + o, acc_e + e
        if acc_e >= 8.0:
            keep_o.append(acc_o)
            keep_e.append(acc_e)
            acc_o = acc_e = 0.0
    keep_o[-1] += acc_o
    keep_e[-1] += acc_e
    return sps.chisquare(keep_o, f_exp=keep_e).pvalue


def marginal_counts(graph, n, replicas, seed, method):
    pos = sample_marginal(graph, n, replicas, seed=seed, method=method)
    counts = {}
    for row in pos:
        counts[tuple(int(c) for c in row)] = counts.get(tuple(int(c) for c in row), 0) + 1
    return counts


@pytest.mark.parametrize("method,seed", [
    ("direct", 11), ("selfloop", 12), ("clock", 13),
])
def test_marginal_law_matches_oracle(method, seed):
    g = build_graph("comb:cycle:4")
    n, reps = 9, 30000
    law = dict(transition_vector(g, g.root, n).items())
    counts = marginal_counts(g, n, reps, seed, method)
    # nothing lands outside the exact support
    assert all(v in law for v in counts)
    support = sorted(law)
    obs = [counts.get(v, 0) for v in support]
    exp = [law[v] * reps for v in support]
    assert chisq_pvalue(obs, exp) > 1e-4


@pytest.mark.parametrize("spec, method", [
    ("comb:cycle:4", "direct"), ("comb:cycle:4", "selfloop"),
    ("comb:cycle:4", "clock"), ("comb:cycle:2", "selfloop"),
    ("comb:cycle:2", "clock")])
def test_marginal_law_at_a_real_horizon(spec, method):
    # The position at n = 1024 against the exact law, |z| <= 4 on three
    # events: the tooth at 0, |tooth| <= 32, the base at 0.  comb:cycle:2
    # is base degree 1, whose hold edge 1/3 is the one class edge that is
    # not a dyadic fraction.  Seed fixed in advance.
    g, n, reps = build_graph(spec), 1024, 16384
    law = transition_vector(g, g.root, n).items()
    pos = sample_marginal(g, n, reps, seed=1024406487, method=method)
    for event in (lambda b, t: t == 0, lambda b, t: abs(t) <= 32,
                  lambda b, t: b == 0):
        p = sum(w for (b, t), w in law if event(b, t))
        freq = event(pos[:, 0], pos[:, 1]).mean()
        z = (freq - p) / math.sqrt(p * (1 - p) / reps)
        assert abs(z) <= 4.0, f"{spec} ({method}): {freq:.4f} against " \
            f"{p:.4f}, z = {z:+.2f}"


@pytest.mark.parametrize("spec,n,seed", [
    ("line", 8, 21), ("cycle:5", 7, 22), ("star:3", 7, 23),
    ("grid2d", 6, 24), ("comb:line", 7, 25), ("comb2:line", 5, 26),
    ("biased-ladder", 6, 27),
])
def test_direct_law_other_families(spec, n, seed):
    g = build_graph(spec)
    reps = 20000
    law = dict(transition_vector(g, g.root, n).items())
    counts = marginal_counts(g, n, reps, seed, "direct")
    assert all(v in law for v in counts)
    support = sorted(law)
    obs = [counts.get(v, 0) for v in support]
    exp = [law[v] * reps for v in support]
    assert chisq_pvalue(obs, exp) > 1e-4


def test_one_step_uniform_on_comb_root():
    g = build_graph("comb:line")
    counts = {}
    for row in sample_marginal(g, 1, 8000, seed=31, start=(0, 0)):
        w = tuple(int(c) for c in row)
        counts[w] = counts.get(w, 0) + 1
    assert sorted(counts) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert chisq_pvalue(list(counts.values()), [2000.0] * 4) > 1e-4


def test_one_step_ladder_class_weights():
    g = build_graph("biased-ladder")
    buckets = {"down": 0, "up": 0, "mid_low": 0, "mid_high": 0}
    for kind, lvl, _ in sample_marginal(g, 1, 6000, seed=32, start=(0, 2, 0)):
        if kind == 0:
            buckets["down" if lvl == 1 else "up"] += 1
        else:
            buckets["mid_low" if lvl == 1 else "mid_high"] += 1
    # degree 8 splits 1:1:2:4
    exp = [6000 / 8, 6000 / 8, 6000 / 4, 6000 / 2]
    obs = [buckets["down"], buckets["up"], buckets["mid_low"], buckets["mid_high"]]
    assert chisq_pvalue(obs, exp) > 1e-4



def ladder_reference_step(kind, n, u):
    """One ladder step computed per row from the level, as the sampler did
    before its threshold table: thresholds from s = 2^(1-n), six class
    masks and ``np.select``.  Returns the next (kind, level)."""
    on_spine = kind == 0
    deep = on_spine & (n > 0)
    s = np.exp2(1.0 - n)
    e = 2.0 * s + 3.0
    c1, c2, c3 = s / e, 2.0 * s / e, (2.0 * s + 1.0) / e
    go_left = deep & (u < c1)
    go_right = (deep & (u >= c1) & (u < c2)) | (on_spine & (n == 0) & (u < 0.5))
    mid_left = deep & (u >= c2) & (u < c3)
    mid_right = (deep & (u >= c3)) | (on_spine & (n == 0) & (u >= 0.5))
    mid_to_left = ~on_spine & (u < 0.5)
    mid_to_right = ~on_spine & (u >= 0.5)
    return (mid_left | mid_right).astype(np.int64), np.select(
        [go_left, go_right, mid_left, mid_right, mid_to_left, mid_to_right],
        [n - 1, n + 1, n - 1, n, n, n + 1])


def ladder_thresholds(n):
    s = np.exp2(1.0 - n)
    e = 2.0 * s + 3.0
    return s / e, 2.0 * s / e, (2.0 * s + 1.0) / e


def test_ladder_table_rows_are_the_formula():
    thr = sampler._LadderKernel._THR
    assert thr.shape == (1078, 3)
    assert thr[0].tolist() == [0.0, 0.5, 0.5]
    assert thr[-1].tolist() == [0.5, 2.0, 2.0]
    for n in range(1, 2001):
        assert thr[min(n, 1076)].tolist() == list(ladder_thresholds(n)), n
    # the underflow the last spine row stands for
    assert ladder_thresholds(1075)[0] == 0.0 < ladder_thresholds(1075)[1]
    assert ladder_thresholds(1076)[1] == 0.0
    assert ladder_thresholds(54)[2] != ladder_thresholds(55)[2]


def test_ladder_step_matches_reference_step():
    levels = [0, 1, 2, 54, 55, 56, *range(1074, 1079), 5000, 2 ** 40]
    kinds, ns, us = [], [], []
    for lvl in levels:
        cut = [0.0, 0.5, 1.0 - 2.0 ** -53]
        for t in ladder_thresholds(np.int64(lvl)):
            cut += [t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)]
        cut = [u for u in cut if 0.0 <= u < 1.0]
        for kind in (0, 1):
            kinds += [kind] * len(cut)
            ns += [lvl] * len(cut)
            us += cut
    kinds, ns, us = (np.array(a) for a in (kinds, ns, us))
    kernel = sampler._LadderKernel(build_graph("biased-ladder"), (0, 0, 0),
                                   len(us), 1)
    kernel.pos[0, 0], kernel.pos[0, 1] = kinds, ns
    kernel.advance([us[None], np.zeros((1, len(us)), dtype=np.int64)], 1)
    ref_kind, ref_n = ladder_reference_step(kinds, ns, us)
    assert np.array_equal(kernel.pos[1, 0], ref_kind)
    assert np.array_equal(kernel.pos[1, 1], ref_n)
    # every class of every spine row and both midpoint moves are reached
    moves = set(zip(kinds.tolist(), ref_kind.tolist(), (ref_n - ns).tolist()))
    assert moves == {(0, 0, -1), (0, 0, 1), (0, 1, -1), (0, 1, 0),
                     (1, 0, 0), (1, 0, 1)}


def pm(c, minus):
    """+1 where c == minus + 1, -1 where c == minus, else 0 (int8)."""
    return (c == minus + 1).astype(np.int8) - (c == minus)


def lazy_thresholds(d):
    """The lazy tooth walk's class edges at the spine, for base degree d:
    a hold below d/(d+2), then -, + split at (d+1)/(d+2)."""
    return d / (d + 2.0), (d + 1) / (d + 2.0)


def float_moves(kernel, us):
    """A kernel's moves straight from (L, width) uniforms per channel, as
    the sampler computed them in numpy before its compiled step: the comb
    move tables ``(db, dts, dtt)``, the grid2d steps, or the star
    leaf.  The lazy walk's classes come from its own thresholds, not from
    the direct walk's class formula that the compiled step uses."""
    u = us[0]
    if isinstance(kernel, sampler._StarKernel):
        return (1 + (u * kernel.graph.k).astype(np.int64),)
    nb, n_teeth = kernel.graph.base_degree, kernel.graph.dim
    if not nb:                          # grid2d: x-, x+, y-, y+
        c = (u * 4).astype(np.int8)
        return pm(c, 0), pm(c, 2)
    flip = nb == 1                      # the single edge
    if kernel.lazy:
        q, q_down = lazy_thresholds(nb)
        hold = u < q
        dts = np.where(hold, 0, np.where(u < q_down, -1, 1))
        dtt = pm((u * 2).astype(np.int8), 0)
        db = hold if flip else \
            np.where(hold, pm((us[1] * 2).astype(np.int8), 0), 0)
        return db, dts[:, None], dtt[:, None]
    c = (u * (nb + 2 * n_teeth)).astype(np.int8)
    db = (c == 0) if flip else pm(c, 0)
    c2 = (u * (2 * n_teeth)).astype(np.int8)
    lo = 2 * np.arange(n_teeth, dtype=np.int8)[:, None]
    return db, pm(c[:, None], nb + lo), pm(c2[:, None], lo)


def window_uniforms(us):
    """(L, width) uniforms per channel laid out as ``advance`` reads them:
    one unit-stride row per step, as ``_windows`` hands them, here in rows
    wider than the window and padded with NaN, so a read past a row
    shows."""
    out = []
    for u in us:
        buf = np.full((u.shape[0], u.shape[1] + 3), np.nan)
        buf[:, :u.shape[1]] = u
        out.append(buf[:, :u.shape[1]])
    return out


def reference_comb_step(kernel, us, start):
    """One window of the comb walk as the sampler stepped it in numpy
    before its compiled loop: the ``float_moves`` tables of the window's
    (L, width) uniforms per channel ``us``, a per-step loop over the teeth,
    and the base path as a masked cumulative sum.  ``start`` is the
    (coords, width) state before the window.  Returns the states after
    each step; grid2d's states are its steps summed."""
    if not kernel.graph.base_degree:
        steps = np.stack(float_moves(kernel, us), axis=1)
        return start + np.cumsum(steps, axis=0, dtype=np.int64)
    db, dts, dtt = float_moves(kernel, us)
    L = len(us[0])
    pos = np.empty((L + 1, *start.shape), dtype=np.int64)
    pos[0] = start
    on = np.ones(db.shape, dtype=bool)
    for i in range(L):
        if kernel.graph.dim:
            on[i] = (pos[i, 1:] == 0).all(axis=0)
            pos[i + 1, 1:] = pos[i, 1:] + np.where(on[i], dts[i], dtt[i])
    pos[1:, 0] = start[0] + np.cumsum(db * on, axis=0, dtype=np.int64)
    if kernel.graph.m:
        pos[1:, 0] %= kernel.graph.m
    return pos[1:]


# a comb walker on the spine and off it, per tooth dimension
SPINE_AND_OFF = {0: [(0,)], 1: [(0, 0), (0, 1), (0, -1)],
                 2: [(0, 0, 0), (0, 1, 0), (0, 0, -1)]}
# grid2d's own vertices: the origin and beside it
GRID2D_STARTS = [(0, 0), (1, 0), (0, -1)]


@pytest.mark.parametrize("spec, method", [
    ("line", "direct"), ("cycle:2", "direct"), ("comb:line", "direct"),
    ("comb:cycle:2", "direct"), ("comb2:line", "direct"),
    ("comb:line", "selfloop"), ("comb:cycle:2", "selfloop"),
    ("grid2d", "direct"), ("star:3", "direct")])
def test_codes_give_the_float_moves(spec, method):
    # every kernel takes each move class from its uniform as the float
    # tables do, at and beside every class edge, and on the 2^-53 grid a
    # fill writes, 64 steps either side of each edge
    g = build_graph(spec)
    edges = [j / k for k in range(2, 7) for j in range(1, k)]
    if method == "selfloop":
        edges += lazy_thresholds(g.base_degree)
    us = [0.0, 1.0 - 2.0 ** -53]
    for e in edges:
        us += [e, np.nextafter(e, 0.0), np.nextafter(e, 1.0)]
    grid = np.concatenate([(np.floor(e * 2.0 ** 53) + np.arange(-64, 65))
                           * 2.0 ** -53 for e in edges])
    # every tooth uniform with every base uniform but the grid's
    u1 = np.array(us)
    u0 = np.concatenate([u1, grid])
    us = [np.repeat(u0, len(u1))[None], np.tile(u1, len(u0))[None]]
    width = us[0].shape[1]
    if spec in ("grid2d", "star:3"):    # moves straight from the tables
        for v in GRID2D_STARTS if spec == "grid2d" else [g.root]:
            kernel = sampler._make_kernel(g, v, width, method, 1)
            kernel.advance(window_uniforms(us[:1]), 1)
            step = kernel.pos[1] - kernel.pos[0]
            got = (kernel.pos[1],) if isinstance(
                kernel, sampler._StarKernel) else (step[None, 0],
                                                   step[None, 1])
            ref = float_moves(kernel, us)
            assert len(ref) == len(got)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b), v
        return
    # one compiled step against the float tables, on the spine and off it
    for v in SPINE_AND_OFF[g.dim]:
        kernel = sampler._make_kernel(g, v, width, method, 1)
        us_k = us[:len(kernel.draws)]
        kernel.advance(window_uniforms(us_k), 1)
        ref = reference_comb_step(kernel, us_k, kernel.pos[0].copy())
        assert np.array_equal(kernel.pos[1], ref[0]), v


@pytest.mark.parametrize("spec, method", [
    ("line", "direct"), ("cycle:2", "direct"), ("cycle:5", "direct"),
    ("comb:line", "direct"), ("comb:cycle:2", "direct"),
    ("comb:cycle:4", "direct"), ("comb2:line", "direct"),
    ("comb:line", "selfloop"), ("comb:cycle:2", "selfloop"),
    ("comb:cycle:4", "selfloop")])
def test_compiled_step_matches_reference_step(spec, method):
    g, width, win = build_graph(spec), 48, 64
    kernel = sampler._make_kernel(g, g.root, width, method, 3 * win)
    # the single edge draws no base channel: the hold itself flips it
    assert len(kernel.draws) == (2 if method == "selfloop" and g.m != 2
                                 else 1)
    rng = np.random.default_rng(2024)
    start = kernel.pos[0].copy()
    for w, L in enumerate((win, win, win - 17)):   # the last one is short
        us = rng.random((len(kernel.draws), L, width))
        if w == 0:
            us[:, 0, 0] = 0.0     # walker 0 starts with b-, or a hold and b-
        ref = reference_comb_step(kernel, us, start)
        kernel.advance(window_uniforms(us), L)
        assert np.array_equal(kernel.pos[1:L + 1], ref)
        if w == 0 and g.m > 2:      # from base 0, b- wraps to m - 1
            assert kernel.pos[1, 0, 0] == g.m - 1
        kernel.pos[0] = kernel.pos[L]
        start = ref[-1]


# every family `_CombKernel` steps, direct and lazy
COMB_KERNELS = [
    ("line", "direct"), ("cycle:2", "direct"), ("cycle:5", "direct"),
    ("comb:line", "direct"), ("comb:cycle:2", "direct"),
    ("comb:cycle:4", "direct"), ("comb2:line", "direct"),
    ("grid2d", "direct"), ("comb:line", "selfloop"),
    ("comb:cycle:2", "selfloop"), ("comb:cycle:4", "selfloop")]


def test_comb_step_without_the_lanes_writes_the_same_bytes(scalar_library):
    # every walker runs the scalar loop (see the fixture); widths 2
    # (run_pair), 6, 8, 18 and 1024 run the lanes' masked tail, none and
    # whole vectors beside it
    scalar = scalar_library.comb_step
    rng, win = np.random.default_rng(99), 64
    for spec, method in COMB_KERNELS:
        g = build_graph(spec)
        for width in (2, 6, 8, 18, 1024):
            lane, alone = (sampler._make_kernel(g, g.root, width, method,
                                                3 * win) for _ in range(2))
            alone._step = scalar
            start = lane.pos[0].copy()
            for w, L in enumerate((win, win, win - 17)):
                us = rng.random((len(lane.draws), L, width))
                if w == 0:
                    us[:, 0, -1] = 0.0  # a walker of the tail starts with b-
                ref = reference_comb_step(lane, us, start)
                for kernel in (lane, alone):
                    kernel.advance(window_uniforms(us), L)
                    assert np.array_equal(kernel.pos[1:L + 1], ref), (
                        spec, method, width, w)
                    kernel.pos[0] = kernel.pos[L]
                start = ref[-1]


def test_comb_step_refuses_a_window_it_cannot_read(monkeypatch):
    # before any pointer reaches C: a window laid out stream-major, rows
    # that are not unit-stride, another dtype or shape, channels with
    # different row strides, or another channel count
    g, L, width = build_graph("comb:cycle:4"), 8, 6
    kernel = sampler._make_kernel(g, g.root, width, "selfloop", L)

    def reached_c(*args):
        raise AssertionError("a refused window reached comb_step")
    monkeypatch.setattr(kernel, "_step", reached_c)
    u = np.random.default_rng(5).random((L, width))
    wide = np.empty((L, 2 * width))
    bad = [
        [u.T.copy().T, u.T.copy().T],
        [wide[:, ::2], wide[:, 1::2]],
        [u.astype(np.float32), u.astype(np.float32)],
        [u, u.astype(np.float32)],
        [u[:, :-1], u[:, :-1]],
        [u[:-1], u[:-1]],
        [u, window_uniforms([u])[0]],
        [u],
    ]
    before = kernel.pos.copy()
    for us in bad:
        with pytest.raises(ValueError, match="unit-stride float64 row"):
            kernel.advance(us, L)
        assert np.array_equal(kernel.pos, before)


def reference_observe(kernel, p, max_depth):
    """One window of the meeting and depth observers as the sampler ran
    them in numpy before its compiled loop: the meetings of the (L, coords,
    2B) states ``p`` as row-major (row, pair) indices, ``max_depth`` with
    the window's depths folded in, and their window maximum (0 without
    depth)."""
    B = p.shape[2] // 2
    rows, cols = np.nonzero((p[:, :, :B] == p[:, :, B:]).all(axis=1))
    if not kernel.graph.depth_coords:
        return np.column_stack([rows, cols]), max_depth, 0
    d_max = kernel.graph.depth(p.swapaxes(0, 1)).max(axis=0)
    return np.column_stack([rows, cols]), np.maximum(max_depth, d_max), \
        d_max.max()


@pytest.mark.parametrize("spec, method", [
    ("comb:line", "direct"), ("comb2:line", "direct"),
    ("comb:cycle:4", "selfloop"), ("line", "direct"), ("star:3", "direct"),
    ("grid2d", "direct"), ("biased-ladder", "direct")])
def test_compiled_observer_matches_reference_observer(spec, method):
    g, win = build_graph(spec), 64
    rng = np.random.default_rng(1729)
    # small coordinates, so pairs meet often, coordinate c in multiples of
    # c + 1, so each reaches a depth of its own; ladder levels are >= 0
    lo = 0 if isinstance(g, sampler.BiasedLadder) else -2
    # width % 8 = 0, 0, 2, 2, 2, 4, 6, 6, 4: the depth loop's 64-byte body
    # alone, with its 32-byte epilogue, and with its scalar remainder
    for width in (1024, 48, 34, 26, 2, 12, 14, 22, 44):
        B = width // 2
        kernel = sampler._make_kernel(g, g.root, width, method, 4 * win)
        kernel.watch()
        ref_depth = kernel.max_depth.copy()
        # random, every pair meets, none does, and a short last window
        for case, L in (("random", win), ("all", win), ("none", win),
                        ("random", win - 17)):
            p = rng.integers(lo, lo + 4, kernel.pos.shape) * np.arange(
                1, kernel.pos.shape[1] + 1)[:, None]
            if case == "all":
                p[:, :, B:] = p[:, :, :B]
            elif case == "none":
                p[:, 0, B:] = p[:, 0, :B] + 1
            else:          # the rows past a short window must not count
                p[L + 1:, :, B:] = p[L + 1:, :, :B]
            kernel.pos[...] = p
            n = kernel.observe(L)
            want, ref_depth, ref_max = reference_observe(
                kernel, kernel.pos[1:L + 1], ref_depth)
            assert np.array_equal(kernel.hits[:n], want), (case, width)
            assert n == {"all": L * B, "none": 0}.get(case, n)
            assert np.array_equal(kernel.max_depth, ref_depth), (case, width)
            assert kernel.d_max[0] == ref_max, (case, width)
        assert kernel.max_depth.any() == bool(kernel.graph.depth_coords)


def test_observer_buffers_live_as_long_as_the_kernel():
    # the kernel is the only owner of what observe writes: with no other
    # reference to its buffers and a collection in between, a window is
    # observed as the reference does, with no write into freed memory
    g, L = build_graph("comb:line"), 64
    kernel = sampler._make_kernel(g, g.root, 48, "direct", L)
    kernel.watch()
    gc.collect()
    p = np.random.default_rng(4064).integers(-2, 2, kernel.pos.shape)
    kernel.pos[...] = p
    want, ref_depth, ref_max = reference_observe(
        kernel, kernel.pos[1:L + 1], np.zeros(48, dtype=np.int64))
    gc.collect()
    n = kernel.observe(L)
    assert n > 0 and np.array_equal(kernel.hits[:n], want)
    assert np.array_equal(kernel.max_depth, ref_depth)
    assert kernel.d_max[0] == ref_max
    with pytest.raises(ValueError, match="past the history"):
        kernel.observe(L + 1)


def test_observe_without_the_lanes_writes_the_same_hits(scalar_library):
    # the scalar loop (see the fixture) against the library's, on the
    # same windows: random, every pair meets, none does, a short window;
    # widths as in test_compiled_observer_matches_reference_observer
    rng, win = np.random.default_rng(2404), 64
    for spec, method in (("comb:line", "direct"), ("comb2:line", "direct"),
                         ("line", "direct"), ("biased-ladder", "direct")):
        g = build_graph(spec)
        lo = 0 if isinstance(g, sampler.BiasedLadder) else -2
        for width in (1024, 34, 26, 18, 2, 12, 14, 22, 44):
            B = width // 2
            lane, alone = (sampler._make_kernel(g, g.root, width, method,
                                                4 * win) for _ in range(2))
            lane.watch()
            alone.watch()
            for case, L in (("random", win), ("all", win), ("none", win),
                            ("random", win - 17)):
                p = rng.integers(lo, lo + 4, lane.pos.shape)
                if case == "all":
                    p[:, :, B:] = p[:, :, :B]
                elif case == "none":
                    p[:, 0, B:] = p[:, 0, :B] + 1
                lane.pos[...] = alone.pos[...] = p
                n = lane.observe(L)
                assert scalar_library.observe(
                    alone.pos.ctypes.data, *alone.pos.shape[1:],
                    alone.graph.depth_coords, alone.max_depth.ctypes.data,
                    alone.hits.ctypes.data, alone.d_max.ctypes.data,
                    L) == n, (spec, width, case)
                assert np.array_equal(lane.hits[:n], alone.hits[:n])
                assert np.array_equal(lane.max_depth, alone.max_depth)
                assert lane.d_max[0] == alone.d_max[0], (spec, width, case)


@pytest.mark.parametrize("build", ["as is", "not compiled"])
def test_source_builds_without_warnings(build, tmp_path):
    # as is, and with the x86 guards as a target other than x86-64 GCC or
    # Clang reads them: an edit that leaves a static function or a macro
    # unused in either build fails
    guard = "#if defined(__x86_64__) && defined(__GNUC__)"
    src = _native._SOURCE
    if build == "not compiled":
        src = src.replace(guard, "#if 0")
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    run = subprocess.run(
        [*cc, *_native._CFLAGS, "-Wall", "-Wextra", "-Wunused-macros",
         "-Werror", "-o", str(tmp_path / "w.so"), "-x", "c", "-"],
        input=src.encode(), capture_output=True)
    assert run.returncode == 0, run.stderr.decode()


def test_step_library_is_built_once_per_source(monkeypatch, tmp_path):
    path = _native._library_path(_native._SOURCE, str(tmp_path))
    assert os.listdir(tmp_path) == [os.path.basename(path)]   # no temp file

    def no_compiler(*args, **kwargs):
        raise AssertionError("the cached library was built again")

    with monkeypatch.context() as m:
        m.setattr(_native.subprocess, "run", no_compiler)
        assert _native._library_path(_native._SOURCE, str(tmp_path)) == path
    # a build of another source replaces the old library; temp files stay
    (tmp_path / "tmpbuild.tmp").write_bytes(b"")
    other = _native._library_path(_native._SOURCE + "\n", str(tmp_path))
    assert other != path and sorted(os.listdir(tmp_path)) == sorted(
        [os.path.basename(other), "tmpbuild.tmp"])


def test_concurrent_builds_leave_one_whole_library(tmp_path):
    # more processes than cores build into one empty cache at once
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=4, mp_context=ctx) as pool:
        futs = [pool.submit(_native._library_path, _native._SOURCE,
                            str(tmp_path)) for _ in range(4)]
        paths = {f.result(timeout=120) for f in futs}
    assert len(paths) == 1 and os.listdir(tmp_path) == [
        os.path.basename(p) for p in paths]
    lib = ctypes.CDLL(paths.pop())
    assert lib.philox_fill and lib.comb_step and lib.observe and lib.csr_rows


def test_unwritable_step_cache_falls_back_to_a_temp_directory(monkeypatch,
                                                              tmp_path):
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "file").write_text("")     # a cache below a file: no makedirs
    monkeypatch.setattr(_native, "_CACHE", str(tmp_path / "file" / "cache"))
    lib = _native.library.__wrapped__()
    assert os.path.dirname(os.path.dirname(lib._name)) == str(tmp_path / "tmp")
    assert lib.philox_fill and lib.comb_step and lib.observe and lib.csr_rows
    # the private directory goes once the library is loaded
    assert os.listdir(tmp_path / "tmp") == []
    assert sorted(os.listdir(tmp_path)) == ["file", "tmp"]


def test_every_compiled_loop_has_its_argument_types():
    # without argtypes, ctypes would pass an int64_t as a C int, and a
    # c_int64 where the loop takes a double would reach it as garbage;
    # without its restype, an int64_t result would come back as a C int
    c_types = {"void": None, "int64_t": ctypes.c_int64,
               "double": ctypes.c_double}
    loops = re.findall(r"^(\w+) (\w+)\(([^)]*)\)", _native._SOURCE, re.M)
    assert sorted(name for _, name, _ in loops) == [
        "comb_step", "csr_rows", "csr_scatter", "jsonl_print", "jsonl_scan",
        "observe", "philox_fill", "seed_keys"]
    lib = _native.library()
    for ret, name, params in loops:
        fn = getattr(lib, name)
        want = [ctypes.c_void_p if "*" in p else c_types[p.split()[-2]]
                for p in params.split(",")]
        assert list(fn.argtypes or ()) == want, name
        assert fn.restype is c_types[ret], name


def test_step_source_compiles_without_warnings(tmp_path):
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    res = subprocess.run(
        [*cc, "-std=c99", "-Wall", "-Wextra", "-Werror", "-O2", "-shared",
         "-fPIC", "-o", str(tmp_path / "step.so"), "-x", "c", "-"],
        input=_native._SOURCE.encode(), capture_output=True)
    assert res.returncode == 0, res.stderr.decode()


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A block holds at most SCRATCH = 2^16 walker-steps at once: a 512-pair
# block of 4096 steps runs windows of 64 steps, each with 512 KiB of
# uniforms per channel (two channels under selfloop, and the ladder's
# 62-bit midpoint words beside its uniforms) and a history of the same
# rows.  The rest is the observers' buffers and the summaries;
# comb:cycle:4 pairs meet often, so there the meetings' columns weigh most.
@pytest.mark.parametrize("spec, method", [
    ("comb:line", "direct"), ("comb2:line", "direct"), ("grid2d", "direct"),
    ("comb:line", "selfloop"), ("biased-ladder", "direct"),
    ("comb:cycle:4", "direct"), ("comb:cycle:4", "selfloop")])
def test_block_peak_memory_is_bounded(spec, method):
    g = build_graph(spec)
    assert traced_peak(sampler._run_block, g, g.root, 4096, 1, range(512),
                       RecordPolicy(), method) < 8 * 2 ** 20


def test_long_block_memory_does_not_grow_with_the_horizon():
    # 8 pairs over 2^20 steps, two envelope exponents: windows of 4096
    # steps, and each window's envelope thresholds, not the horizon's
    g = build_graph("comb:line")
    assert traced_peak(sampler._run_block, g, g.root, 1 << 20, 1, range(8),
                       RecordPolicy(lil_alphas=(0.75, 0.9)),
                       "direct") < 8 * 2 ** 20


def test_clock_memory_does_not_grow_with_the_replicas():
    # 128 replicas of 2048 steps: batches of SCRATCH // 2051 = 31 replicas
    assert traced_peak(clock_dichotomy_violations, 2, 2048, 128) < 16 * 2 ** 20


def test_writer_peak_memory_is_bounded(tmp_path):
    # star:3 pairs meet at most steps: 512 pairs x 4096 steps hold 1.4M
    # meetings, 34 MB of columns, which listing them into views would
    # multiply.  The printer takes windows of SCRATCH // 8 = 2^13 ints and
    # at most one line more (each line here is under 2^14 ints): 64 bytes
    # an int of output buffer, 8 of ints and their index arrays, under 128
    # bytes an int in all, so under 128 x 2^15 bytes = 4 MiB above the block
    out = run_ensemble(build_graph("star:3"), None, 4096, 512, seed=1)
    ints = 5 + 2 * out.cp_len + 3 * out.meet_len + 2 * out.dim
    assert set(out.dim.tolist()) == {1} and ints.max() < 2 ** 14
    assert len(out.times) > 10 ** 6
    peak = traced_peak(write_summaries, str(tmp_path / "w.jsonl"), out)
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("spec, d", [("comb:cycle:4", 2), ("comb:cycle:2", 1)])
def test_selfloop_loop_count_has_the_clock_law(spec, d):
    # The selfloop construction's k_n and the clock's K_n both count the
    # self-loops of the lazy tooth walk (hold d/(d+2) at 0) up to n, so
    # they have one law: p = 0.76 and 0.55 here, where a clock at the
    # next d gives p < 1e-66.  The base moves exactly at a hold (+-1 on
    # the cycle, a flip on the single edge), so k_n is the number of steps
    # that change a walker's base.  Seeds fixed in advance.
    T, B = 1024, 2000
    g = build_graph(spec)
    kernel = sampler._make_kernel(g, g.root, 2 * B, "selfloop", T)
    keys = sampler._stream_keys(kernel, 5, range(B),
                                sampler._ROLES["selfloop"])
    k = np.zeros(2 * B, np.int64)
    for _, L in sampler._windows(kernel, keys, T):
        k += np.count_nonzero(np.diff(kernel.pos[:L + 1, 0], axis=0), axis=0)
    K = np.concatenate([a["K"][T] for _, a in sampler._clock(d, 7, 4000, T)])
    assert len(k) == len(K) == 4000
    assert sps.ks_2samp(k, K).pvalue > 1e-4


def test_clock_path_bookkeeping():
    p = geometric_clock_path(2, 4000, seed=6)
    S, G, V, K, H, R = p["S"], p["G"], p["V"], p["K"], p["H"], p["R"]
    assert len(V) == 4001 and V[0] == 0 and K[0] == 0
    dK = np.diff(K)
    assert set(np.unique(dK)) <= {0, 1}
    # the delayed walk holds exactly when the clock eats the step
    assert np.array_equal(V[1:] == V[:-1], dK == 1)
    for n in (17, 256, 1333, 4000):
        assert H[n] == int(np.count_nonzero(S[1:n // 2 + 1] == 0))
        assert R[n] == int(G[1:H[n] + 1].sum())
    # dichotomy along this sample path
    ns = np.arange(4001)
    assert np.all((K >= R) | (2 * K >= ns))


def test_clock_dichotomy_batch(monkeypatch):
    # every replica is checked once, however the replicas are batched: a
    # batch of 1000 steps holds SCRATCH // 1003 replicas
    for batch in (1, 7, 64):
        monkeypatch.setattr(sampler, "SCRATCH", batch * 1003)
        assert clock_dichotomy_violations(2, 1000, 64, seed=8) == (
            0, 64 * 1001)


def test_clock_sigma_counts_completed_steps():
    for T in (0, 1, 2, 17, 64):
        arrs = sampler._clock_arrays(
            2, RngStream(5, T, X_SKEL).generator().random((T, 6)),
            RngStream(5, T, X_HOLD).generator().random((T + 2, 6)))
        tau, sigma = arrs["tau"], arrs["sigma"]
        for n in range(T + 1):
            assert np.array_equal(sigma[n], (tau <= n).sum(axis=0) - 1)


def test_clock_output_does_not_depend_on_batch(monkeypatch):
    # a batch of 9 steps holds SCRATCH // 12 replicas
    g = build_graph("comb:cycle:4")
    ref = sample_marginal(g, 9, 250, seed=12, method="clock")
    for batch in (30, 100):
        monkeypatch.setattr(sampler, "SCRATCH", batch * 12)
        assert np.array_equal(
            sample_marginal(g, 9, 250, seed=12, method="clock"), ref)


@pytest.mark.parametrize("method", ["direct", "selfloop"])
def test_marginal_output_does_not_depend_on_batch(monkeypatch, method):
    g = build_graph("comb:cycle:4")
    ref = sample_marginal(g, 9, 250, seed=12, method=method)
    for batch in (30, 100):
        monkeypatch.setattr(sampler, "_MARGINAL_BATCH", batch)
        assert np.array_equal(
            sample_marginal(g, 9, 250, seed=12, method=method), ref)


def test_clock_batch_columns_are_clock_paths():
    # replica r of a batch is geometric_clock_path(d, n, seed, r)
    arrs = sampler._clock_arrays(
        2, sampler._draws(3, range(5, 9), X_SKEL, 40),
        sampler._draws(3, range(5, 9), X_HOLD, 42))
    for j, r in enumerate(range(5, 9)):
        path = geometric_clock_path(2, 40, seed=3, replica=r)
        for key, col in path.items():
            assert np.array_equal(arrs[key][:, j], col)
    p = geometric_clock_path(2, 40, seed=3, replica=5)
    us = RngStream(3, 5, X_SKEL).generator().random(40)
    assert np.array_equal(np.diff(p["S"]), np.where(us < 0.5, -1, 1))


def test_clock_needs_comb_with_constant_base():
    with pytest.raises(GraphError):
        sample_marginal(build_graph("line"), 5, 10, method="clock")


def test_lil_violation_extras():
    record = RecordPolicy(lil_alphas=(0.7, 0.99))
    s = run_pair(build_graph("comb:line"), n_steps=4096, record=record,
                 seed=17, replica=0)
    lil = s.extras["lil"]
    assert lil["alphas"] == [0.7, 0.99]
    t_loose, t_tight = lil["times"]
    assert all(1 <= t <= 4096 for t in t_tight)
    assert t_tight == sorted(t_tight)
    # a smaller exponent means a wider envelope, so never more violations
    assert len(t_loose) <= len(t_tight)
    assert set(t_loose) <= set(t_tight)


def test_ladder_spine_trace_and_depth():
    record = RecordPolicy(spine_stride=2)
    s = run_pair(build_graph("biased-ladder"), n_steps=300, record=record,
                 seed=19, replica=0)
    spine = s.extras["spine"]
    assert spine["stride"] == 2
    assert len(spine["x"]) == 151 and spine["x"][0] == 0
    assert all(v >= 0 for v in spine["x"])
    assert all(abs(a - b) <= 2 for a, b in zip(spine["x"], spine["x"][1:]))
    assert s.heights == [0] * s.meetings
    assert s.max_tooth_x >= max(spine["x"])


def test_comb2_collision_heights_are_chebyshev():
    out = run_ensemble(build_graph("comb2:line"), n_steps=1500, replicas=20,
                       seed=23)
    seen = 0
    for s in out:
        for (_, t1, t2), l in zip(s.vertices, s.heights):
            assert l == max(abs(t1), abs(t2))
            seen += 1
    assert seen > 0


def binomial_gate(k, n, q):
    """The Bonferroni-adjusted two-sided p of the counts ``k`` against
    Binomial(n, q), cell by cell over the cells with n q >= 5, and that
    count of cells.  ``k`` and ``q`` are arrays of one shape: the pairs of
    an ensemble of ``n`` meeting at a time t (or at t and a height) are
    Binomial(n, q_t), since the pairs are independent and a pair meets at
    most once a step."""
    tested = n * q >= 5
    k, q = k[tested], q[tested]
    p = np.minimum(2 * np.minimum(sps.binom.cdf(k, n, q),
                                  sps.binom.sf(k - 1, n, q)), 1)
    return min(1.0, len(k) * p.min()), len(k)


def meetings_per_step(out, T):
    """The count of pairs of ``out`` meeting at each time 1 .. T."""
    times = np.concatenate([s.times for s in out]).astype(np.int64)
    return np.bincount(times, minlength=T + 1)[1:T + 1]


def assert_blocks_equal(a, b):
    """Two ``SummaryBlock``s equal column for column, dtypes included."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), f.name
        assert np.array_equal(x, y), f.name


def _pair_walker_step(P, axis, H, m=0):
    """The law P[d, h_x, h_y] of the comb pair chain after walker x (axis
    1) or y (axis 2) steps; index H is height 0.  Off the spine the height
    moves -1 or +1, half each; on it the height moves -1 or +1 or the base
    -1 or +1 (d by -1 or +1), a quarter each.  On the line (m = 0) mass
    that would leave the array is dropped; on the cycle of period m >= 3
    the index is d mod m and wraps."""
    A, Q = np.moveaxis(P, axis, 1), np.zeros_like(P)
    B = np.moveaxis(Q, axis, 1)
    spine = A[:, H].copy()
    A[:, H] = 0
    B[:, 1:] = A[:, :-1]
    B[:, :-1] += A[:, 1:]
    B *= 0.5
    B[:, H - 1] += spine / 4
    B[:, H + 1] += spine / 4
    if m:
        B[:, H] += (np.roll(spine, 1, axis=0) + np.roll(spine, -1, axis=0)) / 4
    else:
        B[1:, H] += spine[:-1] / 4
        B[:-1, H] += spine[1:] / 4
    return Q


def meeting_after_law(T, starts, D=32, H=64, m=0):
    """Exact P(the comb pair from the root meets at some time in (s, T])
    for each s of ``starts``, and the most mass a run lost at the faces of
    the box |d| <= D, |h_x|, |h_y| <= H, which bounds the error.  The comb
    over the line (m = 0) or the cycle of period m is invariant under base
    translation, so (d = b_x - b_y, h_x, h_y), d mod m on the cycle, is a
    Markov chain.  A run steps its law by the walkers' stencils and, at
    each time past s, kills its mass on the diagonal d = 0, h_x = h_y: the
    mass killed is the probability."""
    d0 = 0 if m else D
    law = np.zeros((m or 2 * D + 1, 2 * H + 1, 2 * H + 1))
    law[d0, H, H], diag = 1.0, (d0, *np.diag_indices(2 * H + 1))
    hit, lost, base_lost, t = {}, 0.0, 0.0, 0

    def step(P):
        mass = P.sum()
        P = _pair_walker_step(_pair_walker_step(P, 1, H, m), 2, H, m)
        return P, mass - P.sum()
    for s in sorted(starts):
        for t in range(t, s):
            law, out = step(law)
            base_lost += out
        t, P, hit[s], run_lost = s, law.copy(), 0.0, base_lost
        for _ in range(T - s):
            P, out = step(P)
            run_lost += out
            hit[s] += P[diag].sum()
            P[diag] = 0.0
        lost = max(lost, run_lost)
    return hit, lost


@functools.lru_cache(maxsize=None)
def meeting_after_128(m=0):
    """``meeting_after_law`` at T = 128 for s = 0, 8, 32 on comb:line (m =
    0) or comb:cycle:m, computed once."""
    return meeting_after_law(128, (0, 8, 32), m=m)


def meets_after(out, starts):
    """For each s of ``starts``, the count of pairs of the block ``out``
    with a meeting time past s, read off its meeting columns."""
    pair = np.repeat(np.arange(len(out)), out.meet_len)
    return np.array([np.count_nonzero(np.bincount(
        pair[out.times > s], minlength=len(out))) for s in starts])


def test_pair_chain_law_has_the_recorded_values():
    # the values ROADMAP's direction 17 records for this chain, from an
    # independent implementation, and the chain of d mod 4 on comb:cycle:4,
    # where the pairs keep meeting
    hit, lost = meeting_after_128()
    assert lost < 1e-6
    assert hit[0] == pytest.approx(0.622169, abs=1e-6)
    assert hit[8] == pytest.approx(0.337933, abs=1e-6)
    assert hit[0] > hit[8] > hit[32] > 0
    hit, lost = meeting_after_128(4)
    assert lost < 1e-7
    assert [hit[s] for s in (0, 8, 32)] == pytest.approx(
        [0.751557, 0.532926, 0.348596], abs=1e-6)


@pytest.mark.parametrize("spec, method, seed", [
    ("comb:line", "direct", 1), ("comb:line", "selfloop", 3),
    ("comb:cycle:4", "direct", 4), ("comb:cycle:4", "selfloop", 6)])
def test_comb_meetings_after_s_match_the_pair_chain(spec, method, seed):
    # A law of whole paths: every gate at one time would pass for a sampler
    # with the right law at each time and the wrong law over paths.  The
    # fraction of 20,000 pairs meeting in (s, 128], s = 0, 8, 32, against
    # the pair chain's exact value.  Seeds fixed in advance.
    g, starts, n = build_graph(spec), (0, 8, 32), 20000
    hit, _ = meeting_after_128(g.m)
    out = run_ensemble(g, n_steps=128, replicas=n, seed=seed, method=method)
    p, tested = binomial_gate(meets_after(out, starts), n,
                              np.array([hit[s] for s in starts]))
    assert tested == 3 and p > 1e-3, f"{method}: adjusted p = {p:.3g}"


def test_pair_chain_gate_refuses_meetings_shuffled_across_pairs():
    # The negative control: each time's meeting indicators shuffled across
    # the pairs of the ensemble keep every per-time count, so every gate at
    # one time still passes, but the paths are not the walk's.  Seed of the
    # direct gate; the shuffle's seed fixed in advance.
    hit, _ = meeting_after_128()
    starts, n, T = (0, 8, 32), 20000, 128
    out = run_ensemble(build_graph("comb:line"), n_steps=T, replicas=n,
                       seed=1)
    met = np.zeros((n, T + 1), dtype=bool)
    met[np.repeat(np.arange(n), out.meet_len), out.times] = True
    met = np.random.default_rng(17).permuted(met, axis=0)
    k = np.array([np.count_nonzero(met[:, s + 1:].any(axis=1))
                  for s in starts])
    assert binomial_gate(k, n, np.array([hit[s] for s in starts]))[0] < 1e-6


def assert_mean_meetings_match_exact(spec, times, seed, method="direct"):
    """|z| <= 4 at every horizon in ``times`` for the mean meetings of 4096
    pairs against the exact partial sums, and their meetings at each step
    past the binomial gate at adjusted p > 1e-3."""
    g = build_graph(spec)
    partial, increment = meeting_expectation_series(g, times[-1])
    out = run_ensemble(g, n_steps=times[-1], replicas=4096, seed=seed,
                       record=RecordPolicy(checkpoints=times), method=method)
    counts = np.array([[m for _, m in s.checkpoints] for s in out],
                      dtype=float)
    for t, col in zip(times, counts.T):
        se = col.std(ddof=1) / math.sqrt(len(col))
        z = (col.mean() - partial.value_at(t)) / se
        assert abs(z) <= 4.0, (
            f"{spec} ({method}) mean meetings by t={t} is {col.mean():.4f}, "
            f"exact {partial.value_at(t):.4f}: z = {z:+.2f}")
    p, tested = binomial_gate(meetings_per_step(out, times[-1]), len(out),
                              increment.values)
    assert p > 1e-3, (f"{spec} ({method}) meetings per step: adjusted "
                      f"p = {p:.3g} over {tested} times")


@pytest.mark.parametrize("spec, law", [("comb:cycle:4", "comb:line"),
                                       ("comb:line", "comb:cycle:4")])
def test_binomial_gate_refuses_another_combs_law(spec, law):
    # the gate's negative control: one comb's meetings at each step against
    # the other's exact law, at the seed of the comb:cycle:4 gates
    out = run_ensemble(build_graph(spec), n_steps=1024, replicas=4096,
                       seed=406487)
    _, increment = meeting_expectation_series(build_graph(law), 1024)
    k = meetings_per_step(out, 1024)
    assert binomial_gate(k, len(out), increment.values)[0] < 1e-6


def test_comb2_mean_meetings_match_exact_partial_sums():
    # The exact partial sums come from the lumped comb2:line ball at radius
    # 257: 1.46M states, against about 22.6M unlumped.  Seed fixed in
    # advance.
    assert_mean_meetings_match_exact("comb2:line", (16, 32, 64, 128, 256),
                                     seed=2718)


@pytest.mark.parametrize("method", ["direct", "selfloop"])
def test_comb_cycle4_mean_meetings_match_exact_partial_sums(method):
    # The collision-heavy gate: comb:cycle:4 pairs meet infinitely often,
    # so every block holds many meetings.  Seed fixed in advance.
    assert_mean_meetings_match_exact("comb:cycle:4", (16, 64, 256, 1024),
                                     seed=406487, method=method)


@pytest.mark.parametrize("spec, seed", [("comb:line", 1406487),
                                        ("comb:cycle:4", 52417)])
def test_comb_meetings_per_height_match_exact_per_site_sums(spec, seed):
    # The paper's per-site law, site by site: the mean meetings of 4096
    # pairs at signed heights 0, +-1, +-2 by t, against the partial sums of
    # the exact per-site series (ball at radius 1025), |z| <= 4, and the
    # count at each time and height past the exact binomial gate.
    # Blocks of 512 pairs fill 1024 streams and step 8 walkers per vector,
    # so where the CPU has AVX-512 the draws and the steps come from the
    # hand-written lanes; on comb:cycle:4 pairs keep meeting, so the gate
    # reads thousands of hits at a real horizon.  Seeds fixed in advance.
    g, times, n = build_graph(spec), (64, 256, 1024), 4096
    exact = per_site_collision_series(g, times[-1])
    out = run_ensemble(g, n_steps=times[-1], replicas=n, seed=seed)
    pair = np.repeat(np.arange(n), [len(s.times) for s in out])
    when, height = (np.concatenate([getattr(s, a) for s in out])
                    for a in ("times", "heights"))
    for t in times:
        for h in (-2, -1, 0, 1, 2):
            want = exact.at_height(h)[:t].sum()
            col = np.bincount(pair[(when <= t) & (height == h)], minlength=n)
            z = (col.mean() - want) / (col.std(ddof=1) / math.sqrt(n))
            assert abs(z) <= 4.0, (
                f"mean meetings at height {h} by t={t} is {col.mean():.4f}, "
                f"exact {want:.4f}: z = {z:+.2f}")
    # the pairs meeting at each (t, h) against Binomial(n, table[t - 1, j])
    cell = (when - 1) * len(exact.heights) + height - exact.heights[0]
    k = np.bincount(cell.astype(np.int64), minlength=exact.table.size)
    p, tested = binomial_gate(k.reshape(exact.table.shape), n, exact.table)
    assert p > 1e-3, (f"{spec} meetings per step and height: adjusted "
                      f"p = {p:.3g} over {tested} cells")


def test_truncation_radius_escape_is_loud():
    with pytest.raises(SimulationError):
        run_pair(build_graph("line"), n_steps=500, truncation_radius=3,
                 seed=29, replica=0)


@pytest.mark.parametrize("entry", [run_ensemble, run_pair])
def test_negative_truncation_radius_is_refused_before_any_step(
        monkeypatch, entry):
    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(sampler, "_make_kernel", no_kernel)
    with pytest.raises(ValueError, match="truncation_radius must be >= 0"):
        entry(build_graph("comb:line"), n_steps=10, truncation_radius=-1)


def test_jsonl_round_trip(tmp_path):
    out = run_ensemble(build_graph("comb:line"), n_steps=200, replicas=5,
                       seed=41, record=RecordPolicy(lil_alphas=(0.75,)))
    path = tmp_path / "runs.jsonl"
    write_summaries(path, out)
    back = read_summaries(path)
    assert [to_json(s) for s in back] == [to_json(s) for s in out]
    assert back[2].extras["lil"]["alphas"] == [0.75]


def test_failed_write_keeps_previous_summaries(tmp_path, monkeypatch):
    out = run_ensemble(build_graph("comb:line"), n_steps=50, replicas=3,
                       seed=2)
    path = tmp_path / "runs.jsonl"
    write_summaries(path, out)
    before = path.read_bytes()
    assert before == "".join(to_json(s) + "\n" for s in out).encode()

    windows, real = [], _native.library().jsonl_print

    def killed_in_the_second_window(*args):
        windows.append(args)
        if len(windows) > 1:
            raise RuntimeError("killed mid-write")
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(summaries, "SCRATCH", 64)   # a window a line
        m.setattr(_native, "library", lambda: types.SimpleNamespace(
            jsonl_print=killed_in_the_second_window))
        with pytest.raises(RuntimeError, match="mid-write"):
            write_summaries(path, out)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["runs.jsonl"]
    write_summaries(path, list(out)[:1])
    assert path.read_text() == to_json(out[0]) + "\n"
    # a symlink is written through, in place, as a device or pipe would be
    link = tmp_path / "link.jsonl"
    link.symlink_to(path)
    write_summaries(link, out)
    assert link.is_symlink() and path.read_bytes() == before


def reference_comb_line_pair(seed, replica, n_steps, alpha):
    """Scalar comb:line pair walk read straight off the X and Y main streams:
    (collisions as (n, vertex, height), final x, final y, max |tooth|,
    times n at which either |tooth| exceeds the envelope for ``alpha``)."""
    paths = []
    for role in (X_MAIN, Y_MAIN):
        us = RngStream(seed, replica, role).generator().random(n_steps)
        b = t = 0
        path = []
        for u in us:
            if t == 0:
                c = int(u * 4)          # b-, b+, t-, t+
                b += (c == 1) - (c == 0)
                t += (c == 3) - (c == 2)
            else:
                t += -1 if u < 0.5 else 1
            path.append((b, t))
        paths.append(path)
    hits = [(n, x, x[1]) for n, (x, y) in enumerate(zip(*paths), 1) if x == y]
    depth = [max(abs(v[1]) for v in path) for path in paths]
    thr = lil_threshold(np.arange(n_steps + 1, dtype=np.float64), alpha)
    lil = [n for n, (x, y) in enumerate(zip(*paths), 1)
           if max(abs(x[1]), abs(y[1])) > thr[n]]
    return hits, paths[0][-1], paths[1][-1], depth, lil


def test_ensemble_matches_scalar_reference_walk():
    fill, win = sampler.SCRATCH // 6 // 4 * 4, 64  # steps per fill of 3 pairs
    n_steps = fill + 100                # a multiple of neither fill nor win
    out = run_ensemble(build_graph("comb:line"), n_steps=n_steps, replicas=3,
                       seed=44, record=RecordPolicy(lil_alphas=(1.1,)))
    assert n_steps % win
    for s in out:
        hits, fx, fy, depth, lil = reference_comb_line_pair(44, s.replica,
                                                            n_steps, 1.1)
        assert s.meetings == len(hits)
        assert [*zip(s.times, map(tuple, s.vertices), s.heights)] == hits
        assert (s.final_x, s.final_y) == (fx, fy)
        assert [s.max_tooth_x, s.max_tooth_y] == depth
        assert s.extras["lil"]["times"] == [lil]
    assert sum(s.meetings for s in out) > 0
    assert sum(len(s.extras["lil"]["times"][0]) for s in out) > 0


def _window_probe():
    """Outputs of the five observer settings plus a truncation message."""
    settings = [
        ("comb:line", None, "direct", 777,
         RecordPolicy(checkpoints=(5, 64, 100, 777), lil_alphas=(0.75, 1.25))),
        ("comb2:line", None, "direct", 500, RecordPolicy()),
        ("comb:cycle:4", None, "selfloop", 500, RecordPolicy()),
        ("biased-ladder", None, "direct", 300, RecordPolicy(spine_stride=3)),
        # from a midpoint, where the trace reads the level one step back
        ("biased-ladder", (1, 3, 2), "direct", 300,
         RecordPolicy(spine_stride=7, lil_alphas=(0.8,))),
    ]
    out = []
    for spec, start, method, n_steps, record in settings:
        out.extend(to_json(s) for s in run_ensemble(
            build_graph(spec), start, n_steps, replicas=4, seed=7,
            record=record, method=method))
    with pytest.raises(SimulationError) as exc:
        run_ensemble(build_graph("comb:line"), n_steps=500, replicas=6, seed=3,
                     truncation_radius=6)
    return out, str(exc.value)


# windows of 324 steps of 8 walkers and 216 of 12, or of 24 and 16:
# none divides 777, 500 or 300, so every run ends on a short window
@pytest.mark.parametrize("scratch", [2600, 200])
def test_window_length_does_not_change_output(monkeypatch, scratch):
    default = _window_probe()
    lil = [json.loads(line)["lil"]["times"][1] for line in default[0][:4]]
    assert any(lil)                    # the envelope records are exercised
    assert '"method":"selfloop"' in default[0][8]
    assert "spine" in default[0][12]
    assert json.loads(default[0][16])["spine"]["x"][0] == 3
    monkeypatch.setattr(sampler, "SCRATCH", scratch)
    assert _window_probe() == default


def test_chunk_length_does_not_change_output(monkeypatch):
    # SCRATCH = 24 makes every fill of the 6 walkers one Philox block of 4
    # steps: the uniform channels of comb:line with LIL, both channels of
    # the self-loop construction, and the ladder's auxiliary 62-bit stream
    settings = [
        ("comb:line", "direct", 150, RecordPolicy(lil_alphas=(0.75, 1.25))),
        ("comb:cycle:4", "selfloop", 150, RecordPolicy()),
        ("biased-ladder", "direct", 150, RecordPolicy(spine_stride=3)),
    ]

    def probe():
        return [[to_json(s) for s in run_ensemble(
            build_graph(spec), n_steps=n_steps, replicas=3, seed=31,
            record=record, method=method)]
            for spec, method, n_steps, record in settings]

    default = probe()
    finals = [json.loads(line)["final"] for line in default[2]]
    assert any(f[w][2] for f in finals for w in "xy")   # midpoint ids drawn
    monkeypatch.setattr(sampler, "SCRATCH", 24)
    assert probe() == default


@pytest.mark.parametrize("call", [
    lambda g: run_ensemble(g, start=(2 ** 63 - 1, 0), n_steps=400,
                           replicas=4, seed=3),
    lambda g: run_ensemble(g, start=(10 ** 20, 0), n_steps=4, replicas=2),
    lambda g: run_pair(g, start=(0, -(2 ** 63 - 400)), n_steps=400),
    lambda g: sample_marginal(g, 400, 4, start=(2 ** 62, 2 ** 62)),
    lambda g: sample_marginal(g, 400, 4, start=(2 ** 63 - 1, 0),
                              method="clock")])
def test_a_start_int64_cannot_carry_is_refused(call):
    # |coordinates| + steps reach 2^63: a coordinate or distance could wrap
    with pytest.raises(GraphError, match="int64"):
        call(build_graph("comb:line"))


@pytest.mark.parametrize("spec, start", [
    ("comb:line", (2 ** 63 - 1 - 400, 0)),
    # a cycle's base wraps mod m: only the distance from the root counts
    ("comb:cycle:9223372036854775807", (2 ** 63 - 2, 0))])
def test_a_start_int64_can_carry_runs_unwrapped(spec, start):
    g = build_graph(spec)
    for s in run_ensemble(g, start=start, n_steps=400, replicas=4, seed=3):
        for v in (tuple(s.final_x), tuple(s.final_y)):
            assert g.contains(v)
            assert abs(int(g.distance(v)) - int(g.distance(start))) <= 400


@pytest.mark.parametrize("spec", ["comb:cycle:9223372036854775807",
                                  "star:9007199254740992"])
def test_the_largest_families_emit_their_own_vertices(spec):
    # the largest cycle length and star size: no base reduced mod 2^64,
    # no leaf past k
    g = build_graph(spec)
    for s in run_ensemble(g, n_steps=200, replicas=8, seed=3):
        assert all(g.contains(tuple(v)) for v in
                   (s.final_x, s.final_y, *s.vertices))
    for method in ("direct", "clock")[:1 + (g.dim == 1)]:
        pos = sample_marginal(g, 200, 64, seed=3, method=method)
        assert all(g.contains(tuple(map(int, v))) for v in pos)
