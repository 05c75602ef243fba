"""Each correctness check of the benchmark passes on a real output and
fails on a corrupted copy of it; a failed check makes the run's verdict
false.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Outputs come from the benchmark's own operations at small sizes.
"""

import copy
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402
from combwalks import build_graph, oracle, sampler  # noqa: E402

SEED = 5
SMALL = {
    "comb-long": {"pairs": 16, "steps": 2048, "lil_alphas": (0.75, 0.9),
                  "lil_alpha": 0.75},
    "comb-wide": {"ensembles": (("comb:line", 96, 512, 64),
                                ("comb2:line", 64, 256, 16))},
}


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """Outputs of the small comb-long and comb-wide rounds, by op name."""
    out = {}
    for name, size in SMALL.items():
        work = str(tmp_path_factory.mktemp(name))
        ops, _ = workloads.build(name, SEED, work, size)
        for op in ops:
            result = op.run()
            assert op.check(result) == [], (name, op.name)
            out[(name, op.name)] = result
    return out


def _records(ran, key):
    return checks.read_jsonl(ran[key][0])


def test_meeting_count_bumped_fails(ran):
    recs = _records(ran, ("comb-long", "simulate"))
    g = build_graph("comb:line")
    size = SMALL["comb-long"]
    assert checks.summary_problems(recs, g, size["steps"], size["pairs"],
                                   True) == []
    bad = copy.deepcopy(recs)
    bad[3]["meetings"] += 1
    assert checks.summary_problems(bad, g, size["steps"], size["pairs"], True)


def test_checkpoint_and_vertex_corruptions_fail(ran):
    recs = _records(ran, ("comb-long", "simulate"))
    g = build_graph("comb:line")
    steps, pairs = SMALL["comb-long"]["steps"], SMALL["comb-long"]["pairs"]
    with_hits = next(i for i, r in enumerate(recs) if r["collisions"])

    bad = copy.deepcopy(recs)
    bad[0]["checkpoints"][-1]["meetings"] += 1
    assert checks.summary_problems(bad, g, steps, pairs, True)

    bad = copy.deepcopy(recs)
    bad[1]["final"]["x"][1] += 1          # wrong parity for T
    assert checks.summary_problems(bad, g, steps, pairs, True)

    bad = copy.deepcopy(recs)
    bad[with_hits]["collisions"][0]["vertex"] = [0, 0, 0]   # not a vertex
    assert checks.summary_problems(bad, g, steps, pairs, True)

    bad = copy.deepcopy(recs)
    bad[with_hits]["collisions"][0]["n"] = steps + 2
    assert checks.summary_problems(bad, g, steps, pairs, True)


def test_mean_off_the_exact_partial_sums_fails(ran):
    recs = _records(ran, ("comb-wide", "simulate comb:line"))
    partial, _ = oracle.meeting_expectation_series(build_graph("comb:line"), 64)
    exact = dict(partial.rows())
    assert checks.exact_mean_problems(checks.mean_z_scores(recs, exact, 64)) \
        == []
    shifted = {t: v + 1.0 for t, v in exact.items()}
    assert checks.exact_mean_problems(checks.mean_z_scores(recs, shifted, 64))


def test_growth_csv_cell_moved_fails(ran):
    recs = _records(ran, ("comb-long", "simulate"))
    rows = checks.read_csv_rows(ran[("comb-long", "stats growth")][0])
    assert checks.growth_problems(rows, [("comb_long", recs)]) == []
    bad = copy.deepcopy(rows)
    bad[4][2] = repr(float(bad[4][2]) + 1e-6)
    assert checks.growth_problems(bad, [("comb_long", recs)])
    bumped = copy.deepcopy(recs)
    bumped[0]["checkpoints"][-1]["meetings"] += 1
    assert checks.growth_problems(rows, [("comb_long", bumped)])


def test_lil_csv_corruption_fails(ran):
    recs = _records(ran, ("comb-long", "simulate"))
    rows = checks.read_csv_rows(ran[("comb-long", "stats lil")][0])
    assert checks.lil_problems(rows, recs, 0.75) == []
    bad = copy.deepcopy(rows)
    bad[2][1] = str(int(bad[2][1]) + 1)
    assert checks.lil_problems(bad, recs, 0.75)


def test_grid_csv_cell_moved_fails(ran):
    recs = _records(ran, ("comb-wide", "simulate comb:line"))
    rows = checks.read_csv_rows(ran[("comb-wide", "stats grid comb:line")][0])
    conf = workloads._read_conf(workloads.GRID_CONF)
    r_range = workloads._span(conf["r-range"])
    k_range = workloads._span(conf["k-range"])
    assert checks.grid_problems(rows, recs, r_range, k_range) == []
    bad = copy.deepcopy(rows)
    bad[10][2] = repr(float(bad[10][2]) + 1e-6)
    assert checks.grid_problems(bad, recs, r_range, k_range)
    hit = copy.deepcopy(recs)
    hit[0]["collisions"].append({"n": 300, "vertex": [0, 2], "l": 2})
    assert checks.grid_problems(rows, hit, r_range, k_range)


@pytest.mark.parametrize("spec,n_max,power", [("line", 512, 1),
                                              ("grid2d", 256, 2)])
def test_series_value_moved_fails(spec, n_max, power):
    series = oracle.return_probability_series(build_graph(spec), n_max)
    assert checks.closed_form_problems(series, power) == []
    series.values[17] += 1e-6
    assert checks.closed_form_problems(series, power)


def test_comb_even_series_moved_fails():
    g = build_graph("comb:line")
    even = oracle.return_probability_series(g, 128)
    diag = oracle.return_probability_series(g, 64, every="all")
    assert checks.even_all_problems(even, diag) == []
    even.values[5] += 1e-6
    assert checks.even_all_problems(even, diag)


def test_persite_row_moved_fails():
    g = build_graph("comb:cycle:4")
    ps = oracle.per_site_collision_series(g, 64)
    _, inc = oracle.meeting_expectation_series(g, 64)
    assert checks.persite_problems(ps.table, inc.values) == []
    table = ps.table.copy()
    table[40, 3] += 1e-6
    assert checks.persite_problems(table, inc.values)


def test_slopes_of_the_benchmark_series_hold():
    size = workloads.SIZES["exact-series"]
    s = oracle.return_probability_series(build_graph("comb:line"), 512)
    lo, _ = size["comb_fit"]
    assert checks.slope_problems(
        "comb:line", checks.fitted_slope(s.n, s.values, lo, 512),
        -0.78, -0.72) == []
    assert checks.slope_problems("shallow", -0.5, -0.78, -0.72)


def test_sample_outside_support_fails():
    g = build_graph("comb:cycle:4")
    law = dict(oracle.transition_vector(g, g.root, 6).items())
    for method in ("direct", "selfloop", "clock"):
        pos = sampler.sample_marginal(g, 6, 4000, seed=SEED, method=method)
        assert checks.marginal_problems(pos, law) == [], method
    bad = pos.copy()
    bad[0] = (0, 7)                  # height 7 is out of reach in 6 steps
    assert checks.marginal_problems(bad, law)
    lopsided = pos.copy()
    lopsided[:1000] = lopsided[0]    # in the support, far from the law
    assert checks.marginal_problems(lopsided, law)


def test_violation_injected_fails():
    result = sampler.clock_dichotomy_violations(2, 256, 16, seed=SEED)
    assert checks.dichotomy_problems(result, 16, 256) == []
    bad, checked = result
    assert checks.dichotomy_problems((bad + 1, checked), 16, 256)
    assert checks.dichotomy_problems((bad, checked - 1), 16, 256)


def test_tracer_leaves_outputs_unchanged_and_restores(tmp_path):
    import tracer
    from combwalks import cli

    size = SMALL["comb-long"]
    plain = str(tmp_path / "plain")
    traced = str(tmp_path / "traced")
    os.makedirs(plain)
    os.makedirs(traced)
    ops, _ = workloads.build("comb-long", SEED, plain, size)
    digest_plain = workloads.digest([op.run() for op in ops])
    original = cli.main
    tr = tracer.Tracer()
    tr.install()
    try:
        ops, _ = workloads.build("comb-long", SEED, traced, size)
        digest_traced = workloads.digest([op.run() for op in ops])
    finally:
        tr.restore()
    assert cli.main is original
    assert digest_traced == digest_plain
    m = tr.layer_metrics(wall=sum(e - s for _, p, s, e in tr.spans if p < 0))
    assert m["sampler.pair_steps"] == size["pairs"] * size["steps"]
    assert m["rng.generators"] == 2 * size["pairs"]
    assert m["stats.records"] == 2 * size["pairs"]
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers == pytest.approx(sum(e - s for _, p, s, e in tr.spans
                                       if p < 0))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "comb-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""


def _round(digest, problems):
    return {"digest": digest,
            "ops": [{"op": f"op{i}", "problems": p}
                    for i, p in enumerate(problems)]}


def test_verdict_is_false_when_a_check_fails_or_rounds_disagree():
    import run

    clean = [_round("a", [[], []]), _round("a", [[], []])]
    assert run.verdict(clean) == (4, 0, True)
    # a deterministic output that fails its check in every round
    failing = [_round("a", [[], ["off"]]), _round("a", [[], ["off"]])]
    assert run.verdict(failing) == (4, 2, False)
    # every operation raised: no round has a digest
    raised = [_round(None, [["tb"], ["tb"]]), _round(None, [["tb"], ["tb"]])]
    assert run.verdict(raised) == (4, 4, False)
    assert run.verdict([_round("a", [[]]), _round("b", [[]])])[2] is False


def test_times_are_scaled_by_the_host_speed_next_to_them():
    import run

    ref = run.REFERENCE_SPEED_S
    # set-up at half speed; op0 at full speed then at a third, op1 at a
    # third then at full speed
    r = {"setup_s": 2.0, "speed_s": [2 * ref, 2 * ref, ref, 3 * ref],
         "ops": [{"seconds": 1.0}, {"seconds": 2.0}]}
    setup, ops = run.scaled(r)
    assert setup == pytest.approx(1.0)
    assert ops == pytest.approx([1.0 / 1.5, 1.0])
    fast = {"setup_s": 1.0, "speed_s": [ref] * 4,
            "ops": [{"seconds": 0.5}, {"seconds": 0.9}]}
    slow = {"setup_s": 1.0, "speed_s": [ref] * 4,
            "ops": [{"seconds": 0.7}, {"seconds": 0.8}]}
    # each operation's median over the rounds
    assert run.median_wall([r, fast, slow]) == pytest.approx(1.0 / 1.5 + 0.9)
