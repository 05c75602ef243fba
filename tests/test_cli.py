"""End-to-end command-line runs through subprocesses: exit codes,
CSV/JSONL outputs, config overlay, rerun determinism."""

import functools
import json
import os
import subprocess
import sys

import pytest


def run_cli(*argv, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "combwalks.cli", *argv],
                          capture_output=True, text=True, env=e)


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


@pytest.mark.parametrize("sub", [[], ["simulate"], ["oracle"], ["stats"],
                                 ["fit"], ["verify"]])
def test_help_screens(sub):
    res = run_cli(*sub, "--help")
    assert res.returncode == 0
    assert "usage" in res.stdout


def test_import_leaves_scipy_stats_unloaded(tmp_path):
    # numpy is the one run-time dependency: no command imports scipy, and
    # `fit` and `stats --report drift`, its old users, write the same bytes
    # with scipy unimportable as they write here
    from combwalks import cli
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    runs, pts = tmp_path / "ladder.jsonl", tmp_path / "pts.csv"
    assert cli.main(["simulate", "--graph", "biased-ladder", "--steps", "256",
                     "--replicas", "4", "--seed", "5", "--spine-stride", "4",
                     "--out", str(runs)]) == 0
    pts.write_text("n,value\n2,0.5\n4,0.3\n8,0.2\n16,0.12\n")
    argvs = [["fit", "--input", str(pts), "--column", "value",
              "--range", "1:16"],
             ["stats", "--report", "drift", "--inputs", str(runs)]]
    for i, argv in enumerate(argvs):
        assert cli.main([*argv, "--out", str(tmp_path / f"{i}.csv")]) == 0
    res = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; import combwalks.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'scipy']); "
         "sys.modules['scipy'] = None; "
         "print([combwalks.cli.main(a) for a in json.loads(sys.argv[1])]); "
         "print([m for m, v in sys.modules.items() "
         "if m.split('.')[0] == 'scipy' and v is not None])",
         json.dumps([[*a, "--out", str(tmp_path / f"blocked{i}.csv")]
                     for i, a in enumerate(argvs)])],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert res.stdout.split("\n")[:3] == ["[]", "[0, 0]", "[]"], res.stderr
    for i in range(len(argvs)):
        assert (tmp_path / f"blocked{i}.csv").read_bytes() == \
            (tmp_path / f"{i}.csv").read_bytes()


def test_import_leaves_process_pools_and_numpy_random_unloaded():
    # run_ensemble imports its process pool only for workers > 1, and no
    # draw in the package builds a numpy Generator: every stream, the
    # bootstrap's too, is keyed by stream_keys and drawn by fill
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    script = """if True:
        import sys
        import combwalks.cli
        from combwalks import (PairTrajectorySummary, build_graph,
                               clock_dichotomy_violations, conditional_W,
                               run_ensemble, run_pair, sample_marginal)
        g = build_graph("comb:cycle:4")
        run_pair(g, n_steps=64, seed=3, replica=2)
        run_pair(g, n_steps=64, seed=3, method="selfloop")
        run_ensemble(g, n_steps=64, replicas=3, seed=3)
        for method in ("direct", "selfloop", "clock"):
            sample_marginal(g, 6, 5, seed=3, method=method)
        clock_dichotomy_violations(2, 64, 4, seed=3)
        sums = [PairTrajectorySummary(
            replica=r, n_steps=64, meetings=len(hs), times=[9] * len(hs),
            vertices=[[0, h] for h in hs], heights=hs,
            checkpoints=[(64, len(hs))], final_x=(0, 0), final_y=(0, 0),
            max_tooth_x=0, max_tooth_y=0)
            for r, hs in enumerate([[2], [3], [], [2]])]
        print(conditional_W(sums, (3, 1), n_boot=50, seed=3))
        print([m for m in ('concurrent.futures', 'numpy.random')
               if m in sys.modules])
    """
    res = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    est, last = res.stdout.strip().split("\n")
    assert est.startswith("(1.6666666666666667, ") and est.endswith(", 3)")
    assert last == "[]"


def _without_a_compiler(monkeypatch, tmp_path, compiler):
    """No cached library and a missing or failing compiler."""
    from combwalks import _native
    cc = tmp_path / "cc"
    if compiler == "failing":
        cc.write_text("#!/bin/sh\necho 'cc: broken' >&2\nexit 1\n")
        cc.chmod(0o755)
    monkeypatch.setattr(_native.sysconfig, "get_config_var",
                        lambda name: str(cc))
    monkeypatch.setattr(_native, "_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(_native, "library",
                        functools.cache(_native.library.__wrapped__))


def _says_one_line_and_leaves_no_temp_file(code, err, tmp_path):
    assert code == 1
    assert err.startswith("build failed: cannot build the shared library")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path / "cache") == []          # no temp file left


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_simulate_without_a_compiler_exits_1(monkeypatch, tmp_path, capsys,
                                             compiler):
    # the stream fill and the comb step are built on first use; with no
    # cached library and no working compiler, simulate says so in one line
    # and exits 1, on graphs without a compiled step too
    from combwalks import cli
    _without_a_compiler(monkeypatch, tmp_path, compiler)
    for spec in ("comb:line", "star:3", "biased-ladder"):
        out = tmp_path / "runs.jsonl"
        code = cli.main(["simulate", "--graph", spec, "--steps", "8",
                         "--replicas", "2", "--seed", "1", "--workers", "1",
                         "--out", str(out)])
        _says_one_line_and_leaves_no_temp_file(
            code, capsys.readouterr().err, tmp_path)
        assert not out.exists()


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_oracle_without_a_compiler_exits_1(monkeypatch, tmp_path, capsys,
                                           compiler):
    # the exact kernel's row step lives in the same library
    from combwalks import cli
    _without_a_compiler(monkeypatch, tmp_path, compiler)
    out = tmp_path / "return.csv"
    code = cli.main(["oracle", "return", "--graph", "comb:line", "--nmax",
                     "8", "--out", str(out)])
    _says_one_line_and_leaves_no_temp_file(code, capsys.readouterr().err,
                                           tmp_path)
    assert not out.exists()


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_stats_without_a_compiler_reads_through_json(monkeypatch, tmp_path,
                                                     compiler):
    # stats scans canonical lines in the compiled library when it can be
    # built; without it every line goes through json, to the same CSV
    from combwalks import cli
    runs, csv = tmp_path / "runs.jsonl", tmp_path / "growth.csv"
    assert cli.main(["simulate", "--graph", "comb2:line", "--steps", "64",
                     "--replicas", "4", "--seed", "1", "--workers", "1",
                     "--out", str(runs)]) == 0
    argv = ["stats", "--report", "growth", "--inputs", str(runs), "--out"]
    assert cli.main([*argv, str(csv)]) == 0
    _without_a_compiler(monkeypatch, tmp_path, compiler)
    assert cli.main([*argv, str(tmp_path / "again.csv")]) == 0
    assert (tmp_path / "again.csv").read_bytes() == csv.read_bytes()


def test_run_ensemble_without_a_compiler_raises_build_error(monkeypatch,
                                                           tmp_path):
    import combwalks
    _without_a_compiler(monkeypatch, tmp_path, "missing")
    with pytest.raises(combwalks.BuildError):
        combwalks.run_ensemble(combwalks.build_graph("star:3"), n_steps=8,
                               replicas=2)


def test_no_arguments_is_usage_error():
    res = run_cli()
    assert res.returncode == 2


def test_simulate_writes_jsonl_and_reports(tmp_path):
    out = tmp_path / "runs.jsonl"
    res = run_cli("simulate", "--graph", "comb:line", "--steps", "512",
                  "--replicas", "30", "--seed", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    # the run's line goes to stderr, so stdout can carry the JSONL
    assert "replicas=30" in res.stderr and "total_meetings=" in res.stderr
    assert res.stdout == ""
    lines = out.read_text().splitlines()
    assert len(lines) == 30
    rec = json.loads(lines[0])
    assert rec["T"] == 512 and rec["replica"] == 0
    assert rec["meetings"] == len(rec["collisions"])
    assert lines == sorted(lines, key=lambda ln: json.loads(ln)["replica"])


def test_simulate_to_dev_stdout_writes_the_file_bytes(tmp_path):
    argv = ("simulate", "--graph", "comb:line", "--steps", "256",
            "--replicas", "12", "--seed", "3", "--workers", "1", "--out")
    out = tmp_path / "runs.jsonl"
    assert run_cli(*argv, str(out)).returncode == 0
    res = subprocess.run([sys.executable, "-m", "combwalks.cli", *argv,
                          "/dev/stdout"], capture_output=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == out.read_bytes()
    assert b"replicas=12" in res.stderr


@pytest.mark.parametrize("argv", [
    ["oracle", "persite", "--graph", "comb:line", "--nmax", "200"],
    ["oracle", "return", "--graph", "line", "--nmax", "8"],
    ["simulate", "--graph", "line", "--steps", "8", "--replicas", "2",
     "--seed", "1", "--workers", "1", "--out", "/dev/stdout"]],
    ids=["persite", "short-return", "simulate"])
def test_closed_stdout_stops_quietly(argv):
    # the read end closes before the command writes, as `| head` does;
    # a short output fails only at the last flush
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run([sys.executable, "-m", "combwalks.cli", *argv],
                             stdout=w, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(w)
    for text in ("config error", "Traceback", "Exception ignored"):
        assert text not in res.stderr
    assert res.returncode == 1, res.stderr


def test_simulate_workers_default_to_affinity(tmp_path, monkeypatch):
    from combwalks import SummaryBlock, cli
    seen = []

    def fake_run_ensemble(*args, workers, **kwargs):
        seen.append(workers)
        return SummaryBlock.of([])

    monkeypatch.setattr(cli, "run_ensemble", fake_run_ensemble)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    argv = ["simulate", "--graph", "line", "--steps", "8", "--replicas", "1",
            "--seed", "1", "--out", str(tmp_path / "w.jsonl")]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert cli.main(argv) == 0
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli.main(argv) == 0
    assert cli.main(argv + ["--workers", "5"]) == 0
    assert seen == [2, 64, 5]


def test_simulate_requires_out_steps_and_seed(tmp_path):
    assert run_cli("simulate", "--graph", "line", "--steps", "8",
                   "--replicas", "1").returncode == 2
    assert run_cli("simulate", "--graph", "line", "--replicas", "1",
                   "--out", str(tmp_path / "x.jsonl")).returncode == 2
    assert run_cli("simulate", "--graph", "line", "--steps", "8",
                   "--replicas", "1",
                   "--out", str(tmp_path / "x.jsonl")).returncode == 2


def test_simulate_rejects_negative_seed(tmp_path):
    out = tmp_path / "x.jsonl"
    res = run_cli("simulate", "--graph", "line", "--steps", "8",
                  "--replicas", "1", "--seed=-1", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("config error:") and "seed" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_simulate_rejects_negative_steps(tmp_path):
    out = tmp_path / "x.jsonl"
    res = run_cli("simulate", "--graph", "comb:line", "--steps", "-5",
                  "--replicas", "2", "--seed", "1", "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith("config error:") and "--steps" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_failed_write_keeps_previous_output(tmp_path, monkeypatch):
    from combwalks import cli
    out = tmp_path / "ret.csv"
    argv = ["oracle", "return", "--graph", "line", "--nmax", "16",
            "--out", str(out)]
    assert cli.main(argv) == 0
    before = out.read_bytes()
    assert before.startswith(b"n,value\n")

    def broken_csv(fh, header, rows):
        fh.write("n,value\n0,1.0\n")
        raise RuntimeError("disk gone")

    monkeypatch.setattr(cli, "_write_csv", broken_csv)
    with pytest.raises(RuntimeError, match="disk gone"):
        cli.main(argv)
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["ret.csv"]


def test_simulate_rejects_unknown_graph(tmp_path):
    res = run_cli("simulate", "--graph", "circle", "--steps", "8",
                  "--replicas", "1", "--seed", "0",
                  "--out", str(tmp_path / "x.jsonl"))
    assert res.returncode == 2


def test_simulate_rejects_bad_start(tmp_path):
    res = run_cli("simulate", "--graph", "comb:line", "--start", "9",
                  "--steps", "8", "--replicas", "1", "--seed", "0",
                  "--out", str(tmp_path / "x.jsonl"))
    assert res.returncode == 2


def test_ladder_finals_are_vertices_and_starts(tmp_path):
    from combwalks import build_graph, run_ensemble
    g = build_graph("biased-ladder")
    sums = run_ensemble(g, n_steps=4096, replicas=4, seed=1)
    finals = [v for s in sums for v in (s.final_x, s.final_y)]
    assert all(g.contains(v) for v in finals)
    deep_mid = next(v for v in finals if v[0] == 1 and v[1] > 62)
    out = tmp_path / "from_final.jsonl"
    res = run_cli("simulate", "--graph", "biased-ladder",
                  "--start", ",".join(map(str, deep_mid)), "--steps", "64",
                  "--replicas", "2", "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert len(out.read_text().splitlines()) == 2


def test_simulate_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        res = run_cli("simulate", "--graph", "comb:cycle:4", "--steps", "256",
                      "--replicas", "12", "--seed", "8", "--out", str(out))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_truncation_escape_exits_one(tmp_path):
    res = run_cli("simulate", "--graph", "line", "--steps", "500",
                  "--replicas", "1", "--seed", "0", "--truncation-radius", "3",
                  "--out", str(tmp_path / "x.jsonl"))
    assert res.returncode == 1
    assert "radius" in res.stderr


def test_negative_truncation_radius_is_a_config_error(tmp_path):
    out = tmp_path / "x.jsonl"
    res = run_cli("simulate", "--graph", "comb:line", "--steps", "10",
                  "--replicas", "2", "--seed", "1", "--truncation-radius",
                  "-1", "--out", str(out))
    assert res.returncode == 2
    assert "--truncation-radius must be >= 0" in res.stderr
    assert not out.exists()


def test_oracle_return_values(tmp_path):
    out = tmp_path / "ret.csv"
    res = run_cli("oracle", "return", "--graph", "line", "--nmax", "64",
                  "--out", str(out))
    assert res.returncode == 0
    header, rows = read_csv(out)
    assert header == ["n", "value"]
    assert len(rows) == 32
    vals = {int(r[0]): float(r[1]) for r in rows}
    assert vals[2] == 0.5
    assert vals[4] == 0.375


def test_oracle_meetings_columns_consistent(tmp_path):
    out = tmp_path / "meet.csv"
    res = run_cli("oracle", "meetings", "--graph", "cycle:5", "--nmax", "32",
                  "--out", str(out))
    assert res.returncode == 0
    header, rows = read_csv(out)
    assert header == ["n", "partial", "increment"]
    partial = [float(r[1]) for r in rows]
    inc = [float(r[2]) for r in rows]
    acc = 0.0
    for p, i in zip(partial, inc):
        acc += i
        assert abs(acc - p) < 1e-12


def test_oracle_persite_runs(tmp_path):
    out = tmp_path / "site.csv"
    res = run_cli("oracle", "persite", "--graph", "comb:cycle:4",
                  "--nmax", "32", "--out", str(out))
    assert res.returncode == 0
    header, rows = read_csv(out)
    assert header == ["n", "value"] and len(rows) == 32
    assert all(float(r[1]) > 0 for r in rows)


def test_oracle_needs_graph_and_nmax():
    assert run_cli("oracle", "return", "--graph", "line").returncode == 2
    assert run_cli("oracle", "return", "--nmax", "8").returncode == 2


@pytest.mark.parametrize("argv", [["return", "--nmax", "0"],
                                  ["return", "--nmax", "1"],
                                  ["return", "--nmax", "1", "--every", "even"],
                                  ["meetings", "--nmax=-3"],
                                  ["persite", "--nmax", "0"]])
def test_oracle_refuses_horizon_below_one_entry(argv):
    res = run_cli("oracle", argv[0], "--graph", "comb:line", *argv[1:])
    assert res.returncode == 2
    assert "config error" in res.stderr and "--nmax >= " in res.stderr


def test_oracle_return_all_times_takes_nmax_one(tmp_path):
    out = tmp_path / "r.csv"
    res = run_cli("oracle", "return", "--graph", "comb:line", "--nmax", "1",
                  "--every", "all", "--out", str(out))
    assert res.returncode == 0
    assert read_csv(out) == (["n", "value"], [["1", "0.0"]])


@pytest.mark.parametrize("flag", ["--lil-alphas=0", "--lil-alphas=-0.5",
                                  "--lil-alphas=0.75,1.5", "--lil-alphas=0.5",
                                  "--spine-stride=-3"])
def test_simulate_refuses_bad_envelope_and_stride(tmp_path, flag):
    out = tmp_path / "runs.jsonl"
    res = run_cli("simulate", "--graph", "biased-ladder", "--steps", "16",
                  "--replicas", "2", "--seed", "1", "--out", str(out), flag)
    assert res.returncode == 2
    assert "config error" in res.stderr and "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["--graph", "line", "--lil-alphas", "0.75"],
    ["--graph", "grid2d", "--lil-alphas", "0.75"],
    ["--graph", "comb:line", "--spine-stride", "2"],
    ["--graph", "comb:line", "--workers", "0"],
    ["--graph", "comb:line", "--workers", "-3"],
    ["--graph", "comb:line", "--checkpoints", "20,30"],
    ["--graph", "comb:line", "--checkpoints", "0,8"],
    ["--graph", "comb:line", "--checkpoints", "8,8"],
    ["--graph", "comb:line", "--checkpoints", "16,8"]],
    ids=["line-lil", "grid2d-lil", "comb-spine", "workers-0", "workers-neg",
         "checkpoints-past-steps", "checkpoint-0", "checkpoints-twice",
         "checkpoints-falling"])
def test_simulate_refuses_what_it_cannot_run(tmp_path, capsys, argv):
    # envelope times need a depth coordinate, a spine trace the ladder,
    # a run at least one worker, and checkpoints to rise within 1..--steps
    from combwalks import cli
    out = tmp_path / "runs.jsonl"
    assert cli.main(["simulate", "--steps", "16", "--replicas", "2",
                     "--seed", "1", "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not out.exists()


def test_simulate_records_the_checkpoints_given(tmp_path):
    from combwalks import cli
    out = tmp_path / "runs.jsonl"
    assert cli.main(["simulate", "--graph", "comb:line", "--steps", "16",
                     "--replicas", "3", "--seed", "1", "--workers", "1",
                     "--checkpoints", "4,16", "--out", str(out)]) == 0
    for r in map(json.loads, out.read_text().splitlines()):
        assert [c["t"] for c in r["checkpoints"]] == [4, 16]
        assert r["checkpoints"][-1]["meetings"] == r["meetings"]


def test_simulate_zero_steps_writes_the_start(tmp_path):
    from combwalks import cli
    out = tmp_path / "runs.jsonl"
    assert cli.main(["simulate", "--graph", "comb:line", "--steps", "0",
                     "--replicas", "3", "--seed", "1", "--workers", "1",
                     "--start", "2,0", "--out", str(out)]) == 0
    recs = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["replica"] for r in recs] == [0, 1, 2]
    for r in recs:
        assert (r["T"], r["meetings"], r["collisions"], r["checkpoints"]) == (
            0, 0, [], [])
        assert r["final"] == {"x": [2, 0], "y": [2, 0]}


@pytest.mark.parametrize("graph, start", [("comb:line", "0,5"),
                                         ("comb2:line", "1,3,-4")])
def test_simulate_max_tooth_counts_the_start(tmp_path, graph, start):
    # max_tooth is the maximum over times 0 .. T: at least the start's
    # depth, and at most one more per step
    from combwalks import cli
    depth = max(abs(int(c)) for c in start.split(",")[1:])
    for n in (0, 1, 2):
        out = tmp_path / f"runs{n}.jsonl"
        assert cli.main(["simulate", "--graph", graph, "--steps", str(n),
                         "--replicas", "3", "--seed", "1", "--workers", "1",
                         "--start", start, "--out", str(out)]) == 0
        for line in out.read_text().splitlines():
            tooth = json.loads(line)["max_tooth"]
            assert depth <= min(tooth.values()) <= max(
                tooth.values()) <= depth + n, (n, tooth)
        if n == 0:
            assert tooth == {"x": depth, "y": depth}


def test_verify_green(tmp_path):
    out = tmp_path / "checks.csv"
    res = run_cli("verify", "--out", str(out))
    assert res.returncode == 0
    assert "failures=0" in res.stderr
    header, rows = read_csv(out)
    assert header == ["check", "residual", "passed"]
    assert len(rows) == 540
    assert all(r[2] == "1" for r in rows)


def test_budget_env_is_honored(tmp_path):
    res = run_cli("oracle", "return", "--graph", "grid2d", "--nmax", "4096",
                  "--out", str(tmp_path / "x.csv"),
                  env={"COMBWALKS_BUDGET": "50000"})
    assert res.returncode == 3


@pytest.mark.parametrize("argv, env", [
    (["verify", "--budget", "1"], None),
    (["oracle", "identities", "--budget", "1"], None),
    (["verify"], {"COMBWALKS_BUDGET": "1"})])
def test_identity_checks_honor_the_budget(tmp_path, argv, env):
    out = tmp_path / "checks.csv"
    res = run_cli(*argv, "--out", str(out), env=env)
    assert res.returncode == 3
    assert res.stderr.startswith("budget exceeded: ")
    assert not out.exists()


@pytest.mark.parametrize("flag, env", [(["--budget", "-5"], None),
                                       (["--budget", "0"], None),
                                       ([], {"COMBWALKS_BUDGET": "-5"}),
                                       ([], {"COMBWALKS_BUDGET": "0"})])
def test_budget_must_be_positive(tmp_path, flag, env):
    res = run_cli("oracle", "return", "--graph", "line", "--nmax", "10",
                  *flag, "--out", str(tmp_path / "x.csv"), env=env)
    assert res.returncode == 2
    assert "budget must be > 0" in res.stderr


def test_fit_pipeline_recovers_line_exponent(tmp_path):
    ret = tmp_path / "ret.csv"
    assert run_cli("oracle", "return", "--graph", "line", "--nmax", "512",
                   "--out", str(ret)).returncode == 0
    fit = tmp_path / "fit.csv"
    res = run_cli("fit", "--input", str(ret), "--column", "value",
                  "--range", "4:512", "--out", str(fit))
    assert res.returncode == 0
    header, rows = read_csv(fit)
    assert header[:3] == ["slope", "intercept", "stderr"]
    assert abs(float(rows[0][0]) + 0.5) < 0.02


def test_fit_errors(tmp_path):
    ret = tmp_path / "ret.csv"
    run_cli("oracle", "return", "--graph", "line", "--nmax", "64",
            "--out", str(ret))
    assert run_cli("fit", "--input", str(ret), "--column", "nope",
                   "--range", "4:64").returncode == 4
    assert run_cli("fit", "--input", str(ret), "--column", "value",
                   "--range", "1024:4096").returncode == 5
    # every row at one n, and a value that is not finite: exit 5, no
    # traceback and no NaN row
    for i, rows in enumerate(("4,1.0\n4,2.0\n4,3.0", "4,1.0\n8,nan\n16,3.0",
                              "4,1.0\n8,inf\n16,3.0")):
        bad, out = tmp_path / f"bad{i}.csv", tmp_path / f"fit{i}.csv"
        bad.write_text(f"n,value\n{rows}\n")
        res = run_cli("fit", "--input", str(bad), "--column", "value",
                      "--range", "1:16", "--out", str(out))
        assert res.returncode == 5 and "Traceback" not in res.stderr
        assert res.stderr.startswith("degenerate data:") and not out.exists()
    assert run_cli("fit", "--input", str(tmp_path / "missing.csv"),
                   "--column", "value", "--range", "4:64").returncode == 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--graph", "line", "--steps", "8", "--replicas", "1",
     "--seed", "0"],
    ["oracle", "return", "--graph", "line", "--nmax", "16"],
    ["verify"],
    ["stats", "--report", "growth", "--inputs", "{runs}"],
    ["fit", "--input", "{csv}", "--column", "value", "--range", "4:16"],
], ids=["simulate", "oracle", "verify", "stats", "fit"])
def test_out_in_a_missing_directory_is_a_config_error(tmp_path, capsys,
                                                      monkeypatch, argv):
    from combwalks import cli

    def no_run(*args, **kwargs):
        raise AssertionError("simulated before --out was checked")

    monkeypatch.setattr(cli, "run_ensemble", no_run)
    runs, csv = tmp_path / "runs.jsonl", tmp_path / "ret.csv"
    runs.write_text("")
    csv.write_text("n,value\n4,0.5\n8,0.25\n16,0.125\n")
    argv = [a.format(runs=runs, csv=csv) for a in argv]
    out = str(tmp_path / "gone" / "out")
    assert cli.main([*argv, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    # the message names the path given, not the temp file beside it
    assert out in err and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == ["ret.csv", "runs.jsonl"]


def test_simulate_refuses_a_directory_as_out_before_sampling(tmp_path,
                                                             monkeypatch):
    from combwalks import cli

    def no_run(*args, **kwargs):
        raise AssertionError("simulated before --out was checked")

    monkeypatch.setattr(cli, "run_ensemble", no_run)
    for out in (tmp_path, str(tmp_path) + os.sep):
        assert cli.main(["simulate", "--graph", "line", "--steps", "8",
                         "--replicas", "1", "--seed", "0",
                         "--out", str(out)]) == 2
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("data", [
    b"n,value\n2,abc\n", b"n,value\nnan,0.5\n", b"n,value\n\xff\xfe,0.5\n", b"",
    b"n,value\n4.9,0.5\n8.5,0.25\n16.2,0.125\n"],
    ids=["word", "nan-n", "not-utf8", "empty", "fractional-n"])
def test_fit_refuses_a_file_that_is_not_a_table_of_numbers(tmp_path, capsys,
                                                           data):
    from combwalks import cli
    src = tmp_path / "in.csv"
    src.write_bytes(data)
    assert cli.main(["fit", "--input", str(src), "--column", "value",
                     "--range", "4:64"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("schema mismatch:") and "Traceback" not in err


def test_fit_reads_a_whole_number_written_as_a_float(tmp_path):
    from combwalks import cli
    src, out = tmp_path / "in.csv", tmp_path / "fit.csv"
    src.write_text("n,value\n4.0,0.5\n8.0,0.25\n16.0,0.125\n")
    assert cli.main(["fit", "--input", str(src), "--column", "value",
                     "--range", "4:16", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    row = dict(zip(header, rows[0]))
    assert (row["n_lo"], row["n_hi"], row["points"]) == ("4", "16", "3")
    assert float(row["slope"]) == pytest.approx(-1.0)


def test_stats_grid_report(tmp_path):
    runs = tmp_path / "runs.jsonl"
    run_cli("simulate", "--graph", "comb:line", "--steps", "1024",
            "--replicas", "60", "--seed", "6", "--out", str(runs))
    out = tmp_path / "grid.csv"
    res = run_cli("stats", "--report", "grid", "--inputs", str(runs),
                  "--r-range", "2:6", "--k-range", "0:3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, rows = read_csv(out)
    assert header == ["r", "k", "Z_mean", "A_prob", "W_mean", "W_given_A",
                      "count", "cond_count"]
    assert len(rows) == 5 * 4
    assert all(r[6] == "60" for r in rows)


def test_stats_grid_empty_input_writes_zero_rows(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "grid.csv"
    res = run_cli("stats", "--report", "grid", "--inputs", str(empty),
                  "--r-range", "1:2", "--k-range", "0:1", "--out", str(out))
    assert res.returncode == 0
    _, rows = read_csv(out)
    assert len(rows) == 4
    assert all(r[2] == "0.0" and r[6] == "0" for r in rows)


def _mixed_inputs(tmp_path, files):
    """One JSONL input per entry of ``files``, each the concatenation of
    comb:line runs of the listed (T, method), with an envelope exponent."""
    paths = []
    for f, runs in enumerate(files):
        parts = []
        for steps, method in runs:
            p = tmp_path / f"{method}{steps}.jsonl"
            run_cli("simulate", "--graph", "comb:line", "--steps", steps,
                    "--method", method, "--replicas", "8", "--seed", "1",
                    "--lil-alphas", "0.75", "--out", str(p))
            parts.append(p.read_text())
        paths.append(tmp_path / f"input{f}.jsonl")
        paths[-1].write_text("".join(parts))
    return paths


@pytest.mark.parametrize("files", [
    [[("64", "direct"), ("256", "selfloop")]],    # one file, T and method
    [[("64", "direct")], [("64", "selfloop")]]])  # two files, method
def test_stats_grid_mixed_inputs_is_schema_error(tmp_path, files):
    paths = _mixed_inputs(tmp_path, files)
    res = run_cli("stats", "--report", "grid", "--inputs", *map(str, paths),
                  "--r-range", "2:4", "--k-range", "0:1")
    assert res.returncode == 4
    assert str(paths[-1]) in res.stderr and "Traceback" not in res.stderr
    assert "(64, 'direct')" in res.stderr and "'selfloop')" in res.stderr


@pytest.mark.parametrize("files, other", [
    ([[("64", "direct")], [("256", "direct")]], "(256, 'direct')"),
    ([[("64", "direct")], [("64", "selfloop")]], "(64, 'selfloop')")])
def test_stats_lil_mixed_inputs_is_schema_error(tmp_path, files, other):
    paths = _mixed_inputs(tmp_path, files)
    out = tmp_path / "lil.csv"
    res = run_cli("stats", "--report", "lil", "--inputs", *map(str, paths),
                  "--out", str(out))
    assert res.returncode == 4
    assert str(paths[-1]) in res.stderr and "Traceback" not in res.stderr
    assert "(64, 'direct')" in res.stderr and other in res.stderr
    assert not out.exists()


def test_stats_malformed_jsonl_is_schema_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"not": "a summary"}\n')
    res = run_cli("stats", "--report", "grid", "--inputs", str(bad),
                  "--r-range", "1:2", "--k-range", "0:1")
    assert res.returncode == 4


# bytes that are not UTF-8, and an int with a leading zero in a line that is
# otherwise in the writer's own form: json refuses both
@pytest.mark.parametrize("data", [
    b"\xff\xfe{}\n",
    b'{"T":016,"checkpoints":[],"collisions":[],"final":{"x":[0],"y":[0]},'
    b'"max_tooth":{"x":0,"y":0},"meetings":0,"method":"direct","replica":0}\n'],
    ids=["not utf-8", "leading zero"])
def test_stats_undecodable_jsonl_is_schema_error(tmp_path, capsys, data):
    from combwalks import cli
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    rc = cli.main(["stats", "--report", "growth", "--inputs", str(path),
                   "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("schema mismatch: ") and "malformed summary" in err
    assert "Traceback" not in err


# one summary every stats report reads: a meeting, two checkpoints, an
# envelope record and a spine trace
GOOD_SUMMARY = {
    "T": 16, "checkpoints": [{"meetings": 0, "t": 8},
                             {"meetings": 1, "t": 16}],
    "collisions": [{"l": 2, "n": 12, "vertex": [0, 2]}],
    "final": {"x": [1, 3], "y": [0, 0]}, "max_tooth": {"x": 3, "y": 2},
    "meetings": 1, "method": "direct", "replica": 0,
    "lil": {"alphas": [0.75], "times": [[]]},
    "spine": {"stride": 2, "x": [0, 1, 2], "y": [0, -1, 0]}}

STATS_ARGS = {"grid": ["--r-range", "2:4", "--k-range", "1:2"],
              "growth": [], "lil": ["--alpha", "0.75"], "drift": []}


def _defect(name):
    d = json.loads(json.dumps(GOOD_SUMMARY))
    if name == "collision without l":
        del d["collisions"][0]["l"]
    elif name == "collision without n":
        del d["collisions"][0]["n"]
    elif name == "vertex is a string":
        d["collisions"][0]["vertex"] = "0,2"
    elif name == "vertex is a number":
        d["collisions"][0]["vertex"] = 2
    elif name == "checkpoint without t":
        del d["checkpoints"][1]["t"]
    elif name == "method is a number":
        d["method"] = 1
    elif name == "checkpoint meetings is a string":
        d["checkpoints"][1]["meetings"] = "x"
    elif name == "checkpoint meetings is a float":
        d["checkpoints"][1]["meetings"] = 1.5
    elif name == "collision n is a string":
        d["collisions"][0]["n"] = "x"
    elif name == "spine y shorter than x":
        d["spine"]["y"] = [0, -1]
    elif name == "spine is a list":
        d["spine"] = [2, [0, 1, 2], [0, -1, 0]]
    elif name == "spine point is a float":
        d["spine"]["x"][1] = 1.5
    elif name == "spine stride is 0":
        d["spine"]["stride"] = 0
    elif name == "lil is a list":
        d["lil"] = [[0.75], [[]]]
    elif name == "lil times shorter than alphas":
        d["lil"]["alphas"] = [0.75, 0.9]
    elif name == "lil time is a float":
        d["lil"]["times"] = [[1.5]]
    # past int64 on either side: json reads such an int where the scanner
    # refuses it, and a report would meet it as an OverflowError
    elif name == "collision n past int64":
        d["collisions"][0]["n"] = 10 ** 30
    elif name == "checkpoint meetings past int64":
        d["checkpoints"][1]["meetings"] = 10 ** 30
    elif name == "lil time past int64":
        d["lil"]["times"] = [[10 ** 30]]
    elif name == "spine point past int64":
        d["spine"]["x"][1] = 10 ** 30
    elif name == "final coordinate below int64":
        d["final"]["x"][0] = -2 ** 63 - 1
    elif name == "T past int64":
        d["T"] = 2 ** 63
    elif name == "spine stride past int64":
        d["spine"]["stride"] = 10 ** 30
    # a pair's vertices and finals have one length
    elif name == "vertex longer than the finals":
        d["collisions"][0]["vertex"] = [0, 2, 0]
    elif name == "final y longer than x":
        d["final"]["y"] = [0, 0, 0]
    return d


@pytest.mark.parametrize("report", list(STATS_ARGS))
@pytest.mark.parametrize("defect", [
    None, "collision without l", "collision without n", "vertex is a string",
    "vertex is a number", "checkpoint without t", "method is a number",
    "checkpoint meetings is a string", "checkpoint meetings is a float",
    "collision n is a string", "spine y shorter than x", "spine is a list",
    "spine point is a float", "spine stride is 0", "lil is a list",
    "lil times shorter than alphas", "lil time is a float",
    "collision n past int64", "checkpoint meetings past int64",
    "lil time past int64", "spine point past int64",
    "final coordinate below int64", "T past int64",
    "spine stride past int64", "vertex longer than the finals",
    "final y longer than x"])
def test_stats_refuses_a_malformed_summary(tmp_path, capsys, report, defect):
    from combwalks import cli
    path = tmp_path / "runs.jsonl"
    path.write_text(json.dumps(GOOD_SUMMARY) + "\n"
                    + json.dumps({**_defect(defect), "replica": 1}) + "\n")
    rc = cli.main(["stats", "--report", report, "--inputs", str(path),
                   "--out", str(tmp_path / "out.csv"), *STATS_ARGS[report]])
    err = capsys.readouterr().err
    if defect is None:                 # the intact file is read by all four
        assert rc == 0 and err == ""
        return
    assert rc == 4
    assert err.count("\n") == 1 and err.startswith("schema mismatch: ")
    assert f"{path}:2: malformed summary" in err and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def test_malformed_summary_line_counts_across_read_windows(tmp_path, capsys):
    # more than the reader's 64 KiB window of good lines before the bad one
    from combwalks import cli
    good = json.dumps(GOOD_SUMMARY) + "\n"
    lines = 2 + (1 << 16) // len(good)
    path = tmp_path / "runs.jsonl"
    path.write_text(good * (lines - 1) + "{not json\n" + good)
    assert cli.main(["stats", "--report", "growth", "--inputs", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 4
    assert f"{path}:{lines}: malformed summary" in capsys.readouterr().err


@pytest.mark.parametrize("empty", [False, True], ids=["runs", "empty"])
@pytest.mark.parametrize("cells", [["--r-range=-3:2", "--k-range=1:2"],
                                   ["--r-range=1:2", "--k-range=-1:2"]])
def test_stats_grid_refuses_cells_below_zero(tmp_path, capsys, empty, cells):
    # checked before the empty input's shortcut, and r like k
    from combwalks import cli
    path, out = tmp_path / "runs.jsonl", tmp_path / "grid.csv"
    path.write_text("" if empty else json.dumps(GOOD_SUMMARY) + "\n")
    rc = cli.main(["stats", "--report", "grid", "--inputs", str(path),
                   *cells, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 5 and err.startswith("degenerate data: ")
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("flags", [
    ["--graph", "comb:line", "--start", "99999999999999999999,0"],
    ["--graph", "comb:line", "--start", "9223372036854775807,0"],
    ["--graph", "comb:cycle:99999999999999999999"],
    ["--graph", "star:99999999999999999999"]])
def test_simulate_refuses_what_int64_cannot_carry(tmp_path, capsys, flags):
    from combwalks import cli
    out = tmp_path / "runs.jsonl"
    rc = cli.main(["simulate", *flags, "--steps", "200", "--replicas", "8",
                   "--seed", "3", "--workers", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("config error: ")
    assert any(w in err for w in ("2^63", "2^53", "int64"))
    assert "Traceback" not in err and not out.exists()


def test_stats_growth_labels_by_file_stem(tmp_path):
    paths = []
    for name, spec in [("combo", "comb:line"), ("flat", "line")]:
        p = tmp_path / f"{name}.jsonl"
        run_cli("simulate", "--graph", spec, "--steps", "64",
                "--replicas", "10", "--seed", "2", "--out", str(p))
        paths.append(str(p))
    out = tmp_path / "growth.csv"
    res = run_cli("stats", "--report", "growth", "--inputs", *paths,
                  "--out", str(out))
    assert res.returncode == 0
    _, rows = read_csv(out)
    labels = {r[0] for r in rows}
    assert labels == {"combo", "flat"}


def test_stats_growth_mixed_checkpoint_grids_is_schema_error(tmp_path):
    parts = []
    for steps in ("100", "64"):
        p = tmp_path / f"T{steps}.jsonl"
        run_cli("simulate", "--graph", "comb:line", "--steps", steps,
                "--replicas", "3", "--seed", "1", "--out", str(p))
        parts.append(p.read_text())
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(parts))
    res = run_cli("stats", "--report", "growth", "--inputs", str(mixed))
    assert res.returncode == 4
    assert str(mixed) in res.stderr and "Traceback" not in res.stderr


def test_stats_lil_and_drift_reports(tmp_path):
    comb = tmp_path / "comb.jsonl"
    run_cli("simulate", "--graph", "comb:line", "--steps", "256",
            "--replicas", "6", "--seed", "1", "--lil-alphas", "0.75",
            "--out", str(comb))
    out = tmp_path / "lil.csv"
    res = run_cli("stats", "--report", "lil", "--alpha", "0.75",
                  "--inputs", str(comb), "--out", str(out))
    assert res.returncode == 0
    header, rows = read_csv(out)
    assert header == ["replica", "violations", "last_violation"]
    assert len(rows) == 6
    for alpha in ("0.5", "1.0", "nan"):
        res = run_cli("stats", "--report", "lil", "--alpha", alpha,
                      "--inputs", str(comb))
        assert res.returncode == 2
        assert "--alpha must lie in (2/3, 1)" in res.stderr
    # a growth grid rises within 1..T, as simulate's does
    for cps in ("8,8", "16,8", "0,8"):
        res = run_cli("stats", "--report", "growth", "--checkpoints", cps,
                      "--inputs", str(comb))
        assert res.returncode == 2
        assert res.stderr.startswith("config error: --checkpoints must rise")

    # an exponent simulate records is one stats reads back
    assert run_cli("simulate", "--graph", "comb:line", "--steps", "256",
                   "--replicas", "6", "--seed", "1", "--lil-alphas", "0.7",
                   "--out", str(comb)).returncode == 0
    res = run_cli("stats", "--report", "lil", "--alpha", "0.7",
                  "--inputs", str(comb), "--out", str(out))
    assert res.returncode == 0
    assert len(read_csv(out)[1]) == 6

    ladder = tmp_path / "ladder.jsonl"
    run_cli("simulate", "--graph", "biased-ladder", "--steps", "400",
            "--replicas", "8", "--seed", "1", "--spine-stride", "2",
            "--out", str(ladder))
    drift = tmp_path / "drift.csv"
    res = run_cli("stats", "--report", "drift", "--inputs", str(ladder),
                  "--out", str(drift))
    assert res.returncode == 0
    header, rows = read_csv(drift)
    assert header == ["per_move", "per_half_step", "moves"]
    assert 0.0 < float(rows[0][0]) < 1.0


def test_stats_drift_without_traces_is_degenerate(tmp_path):
    runs = tmp_path / "runs.jsonl"
    run_cli("simulate", "--graph", "comb:line", "--steps", "64",
            "--replicas", "2", "--seed", "0", "--out", str(runs))
    res = run_cli("stats", "--report", "drift", "--inputs", str(runs))
    assert res.returncode == 5


def test_stats_drift_mixed_spine_strides_is_schema_error(tmp_path):
    parts = []
    for stride in ("8", "16"):
        p = tmp_path / f"ladder{stride}.jsonl"
        run_cli("simulate", "--graph", "biased-ladder", "--steps", "64",
                "--replicas", "2", "--seed", "1", "--spine-stride", stride,
                "--out", str(p))
        parts.append(p.read_text())
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(parts))
    res = run_cli("stats", "--report", "drift", "--inputs", str(mixed))
    assert res.returncode == 4
    assert "schema mismatch" in res.stderr and "Traceback" not in res.stderr


def test_config_file_overlay(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# ensemble settings\n"
        "graph = comb:line\n"
        "steps = 64\n"
        "replicas = 5\n"
        "seed = 9\n")
    out = tmp_path / "runs.jsonl"
    res = run_cli("simulate", "--config", str(conf), "--steps", "32",
                  "--out", str(out))
    assert res.returncode == 0
    recs = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert len(recs) == 5                   # from the file
    assert all(r["T"] == 32 for r in recs)  # flag wins over the file
    missing = run_cli("simulate", "--config", str(tmp_path / "nope.conf"),
                      "--out", str(out))
    assert missing.returncode == 2


def test_config_that_is_not_text_is_a_config_error(tmp_path, capsys):
    from combwalks import cli
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"graph = comb:line\nseed = \xff\n")
    assert cli.main(["simulate", "--config", str(conf),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


_RUN = "graph = comb:line\nsteps = 8\nreplicas = 2\nseed = 1\n"


@pytest.mark.parametrize("argv, text", [
    (["simulate"], _RUN + "method = clock\n"),     # not a --method choice
    (["oracle", "return"], "graph = line\nnmax = 8\nevery = odd\n"),
    (["simulate"], _RUN + "walkers = 4\n"),        # not a simulate flag
], ids=["choice", "oracle-choice", "unknown-key"])
def test_config_values_are_checked_as_flags(tmp_path, argv, text):
    conf = tmp_path / "bad.conf"
    conf.write_text(text)
    res = run_cli(*argv, "--config", str(conf),
                  "--out", str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
