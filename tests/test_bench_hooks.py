"""The benchmark's tracer wraps named functions of the package from
outside; every name it patches must still exist under `src/`, and the
CLI and the oracle must still call the wrapped names."""

import importlib.util
import os
import sys

from combwalks import cli, graphs, oracle, rng, sampler

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                     "perfbench")
TRACER = os.path.join(BENCH, "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores():
    modules = (cli, graphs, oracle, rng, sampler, oracle.Kernel,
               rng.RngStream)
    before = [dict(vars(m)) for m in modules]
    tr = _load_tracer().Tracer()
    try:
        tr.install()
        patched = len(tr._undo)
    finally:
        tr.restore()
    assert patched > 0
    assert [dict(vars(m)) for m in modules] == before


def test_benchmark_tracer_spans_fire_on_the_cli_call_sites(tmp_path):
    # a renamed or bypassed call site leaves its span empty
    runs, replicas = str(tmp_path / "runs.jsonl"), 6
    tr = _load_tracer().Tracer()
    try:
        tr.install()
        for argv in (
                ["simulate", "--graph", "comb:line", "--steps", "256",
                 "--replicas", replicas, "--seed", 1, "--workers", 1,
                 "--lil-alphas", 0.75, "--out", runs],
                ["stats", "--report", "grid", "--r-range", "1:4",
                 "--k-range", "1:2"],
                ["stats", "--report", "growth"],
                ["stats", "--report", "lil", "--alpha", 0.75]):
            if argv[0] == "stats":
                argv += ["--inputs", runs, "--out", str(tmp_path / "o.csv")]
            assert cli.main([str(a) for a in argv]) == 0
    finally:
        tr.restore()
    fired = {name for name, *_ in tr.spans}
    assert fired >= {"sampler.ensemble", "sampler.encode", "sampler.decode",
                     "stats.grid", "stats.growth", "stats.lil"}
    # one read per stats command, each reduction over every replica read
    assert [name for name, *_ in tr.spans].count("sampler.decode") == 3
    assert tr.counts["records"] == 3 * replicas
    assert tr.counts["pair_steps"] == 256 * replicas


def test_benchmark_tracer_spans_fire_on_the_oracle_call_sites(monkeypatch):
    # the exact-series operations at small sizes, plus transition_vector:
    # a driver that bypassed a patched name would zero a per-layer metric
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    size = {**workloads.SIZES["exact-series"], "comb_even": 64, "line": 64,
            "grid2d": 64, "persite_line": 16, "persite_cycle": 16}
    ops, _ = workloads.build("exact-series", 0, None, size)
    comb = graphs.build_graph("comb:line")
    tr = _load_tracer().Tracer()
    try:
        tr.install()
        for op in ops:
            op.run()
        oracle.meeting_expectation_series(comb, 16)
        oracle.transition_vector(comb, comb.root, 6)
    finally:
        tr.restore()
    fired = {name for name, *_ in tr.spans}
    assert fired >= {"graphs.ball", "oracle.kernel_build", "oracle.step",
                     "oracle.grid_octant", "oracle.transition_vector",
                     "oracle.return_probability_series",
                     "oracle.meeting_expectation_series",
                     "oracle.per_site_collision_series"}
    assert tr.counts["ball_states"] > 0 and tr.counts["oracle_steps"] > 0


def test_benchmark_tracer_spans_fire_on_the_construction_call_sites(
        monkeypatch):
    # the constructions workload at small sizes: a marginal or dichotomy
    # call that bypassed its patched name would zero its per-layer metric
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    size = {**workloads.SIZES["constructions"], "replicas": 64,
            "dichotomy_steps": 64, "dichotomy_replicas": 4}
    ops, _ = workloads.build("constructions", 0, None, size)
    tr = _load_tracer().Tracer()
    try:
        tr.install()
        for op in ops:
            op.run()
    finally:
        tr.restore()
    fired = {name for name, *_ in tr.spans}
    assert fired >= {"sampler.marginal_direct", "sampler.marginal_selfloop",
                     "sampler.marginal_clock", "sampler.dichotomy"}
    assert tr.counts["samples"] == 3 * 64
    assert tr.counts["dichotomy_checks"] == 4 * 65
