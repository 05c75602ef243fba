"""The benchmark's four workloads: inputs, operations and their checks.

An operation is one public call: a CLI subcommand, an oracle series or a
marginal draw.  It fails if it raises, if a CLI call exits non-zero, or if
its output fails its check.  Public functions are looked up on their
module at call time, so the traced run sees the wrappers it installs.

Every size below is a scaled-down shape of an acceptance criterion in
``tests/test_acceptance.py``; ``SIZES`` holds the benchmark's sizes and the
tests of the benchmark pass smaller ones.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass
from typing import Callable

import checks

from combwalks import cli, graphs, oracle, sampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GRID_CONF = os.path.join(ROOT, "configs", "cells_grid.conf")

SIZES = {
    # criterion 5's shape: few pairs, long horizon
    "comb-long": {"pairs": 64, "steps": 65536, "lil_alphas": (0.75, 0.9),
                  "lil_alpha": 0.75},
    # criterion 8's shape: several 512-pair blocks, moderate horizon
    "comb-wide": {"ensembles": (("comb:line", 1536, 4096, 256),
                                ("comb2:line", 1024, 4096, 32))},
    # criteria 2 to 4 through the library
    "exact-series": {"comb_even": 1024, "comb_fit": (128, 1024),
                     "line": 4096, "grid2d": 2048, "diag": 128,
                     "persite_line": 256, "persite_line_fit": (64, 256),
                     "persite_cycle": 512, "persite_cycle_fit": (64, 512)},
    # criterion 7's shape: many short marginal draws, one long clock run
    "constructions": {"graph": "comb:cycle:4", "n": 6, "replicas": 12000,
                      "dichotomy_steps": 2048, "dichotomy_replicas": 128},
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    kind: str = ""            # "simulate" or "marginal" for the throughputs
    units: int = 0            # pair-steps or samples the call produces


def _cli(argv, outputs):
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"combwalks {argv[0]} exited {rc}")
    return outputs


def _read_conf(path):
    """The key=value pairs of a combwalks config file, read apart from
    ``cli``'s parser so that the grid check does not share its faults."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                key, _, val = line.partition("=")
                out[key.strip()] = val.strip()
    return out


def _span(text):
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi) + 1)


def digest(outputs):
    """sha256 over the outputs of one round, in operation order."""
    h = hashlib.sha256()
    for out in outputs:
        if isinstance(out, tuple) and all(isinstance(p, str) for p in out):
            for path in out:
                with open(path, "rb") as fh:
                    h.update(fh.read())
        elif isinstance(out, oracle.KernelSeries):
            h.update(out.n.tobytes() + out.values.tobytes())
        elif isinstance(out, oracle.PerSiteSeries):
            h.update(out.table.tobytes())
        elif hasattr(out, "tobytes"):
            h.update(out.tobytes())
        else:
            h.update(repr(out).encode())
    return h.hexdigest()


def comb_long(seed, work, size):
    # No z test against the exact partial sums here: with 64 pairs the
    # plug-in standard error of the heavy-tailed meeting counts is too
    # small often enough that |z| > 4 on about 1% of seeds of a correct
    # sampler.  comb-wide makes that test on 1024 and more pairs.
    g = graphs.build_graph("comb:line")
    jsonl = os.path.join(work, "comb_long.jsonl")
    growth_csv = os.path.join(work, "comb_long_growth.csv")
    lil_csv = os.path.join(work, "comb_long_lil.csv")
    pairs, steps = size["pairs"], size["steps"]
    records = functools.lru_cache(maxsize=None)(checks.read_jsonl)

    def check_simulate(_):
        return checks.summary_problems(records(jsonl), g, steps, pairs, True)

    def check_growth(_):
        return checks.growth_problems(checks.read_csv_rows(growth_csv),
                                      [("comb_long", records(jsonl))])

    def check_lil(_):
        return checks.lil_problems(checks.read_csv_rows(lil_csv),
                                   records(jsonl), size["lil_alpha"])

    alphas = ",".join(str(a) for a in size["lil_alphas"])
    ops = [
        Op("simulate", lambda: _cli(
            ["simulate", "--graph", "comb:line", "--steps", steps,
             "--replicas", pairs, "--seed", seed, "--workers", 1,
             "--lil-alphas", alphas, "--out", jsonl], (jsonl,)),
           check_simulate, "simulate", pairs * steps),
        Op("stats growth", lambda: _cli(
            ["stats", "--report", "growth", "--inputs", jsonl,
             "--out", growth_csv], (growth_csv,)), check_growth),
        Op("stats lil", lambda: _cli(
            ["stats", "--report", "lil", "--alpha", size["lil_alpha"],
             "--inputs", jsonl, "--out", lil_csv], (lil_csv,)), check_lil),
    ]
    return ops, {}


def comb_wide(seed, work, size):
    conf = _read_conf(GRID_CONF)
    r_range, k_range = _span(conf["r-range"]), _span(conf["k-range"])
    records = functools.lru_cache(maxsize=None)(checks.read_jsonl)
    zs = {}
    ops = []
    paths = []
    for spec, replicas, steps, exact_t in size["ensembles"]:
        g = graphs.build_graph(spec)
        stem = spec.replace(":", "_")
        jsonl = os.path.join(work, stem + ".jsonl")
        grid_csv = os.path.join(work, stem + "_grid.csv")
        paths.append((stem, jsonl))

        def check_simulate(_, g=g, jsonl=jsonl, replicas=replicas,
                           steps=steps, exact_t=exact_t, spec=spec):
            recs = records(jsonl)
            partial, _ = oracle.meeting_expectation_series(g, exact_t)
            z = checks.mean_z_scores(recs, dict(partial.rows()), exact_t)
            zs.update({f"{spec}@{t}": v for t, v in z.items()})
            return (checks.summary_problems(recs, g, steps, replicas, True)
                    + checks.exact_mean_problems(z))

        def check_grid(_, jsonl=jsonl, grid_csv=grid_csv):
            return checks.grid_problems(checks.read_csv_rows(grid_csv),
                                        records(jsonl), r_range, k_range)

        ops.append(Op(f"simulate {spec}", lambda spec=spec, jsonl=jsonl,
                      replicas=replicas, steps=steps: _cli(
            ["simulate", "--graph", spec, "--steps", steps,
             "--replicas", replicas, "--seed", seed, "--workers", 1,
             "--out", jsonl], (jsonl,)),
            check_simulate, "simulate", replicas * steps))
        ops.append(Op(f"stats grid {spec}", lambda jsonl=jsonl,
                      grid_csv=grid_csv: _cli(
            ["stats", "--config", GRID_CONF, "--inputs", jsonl,
             "--out", grid_csv], (grid_csv,)), check_grid))

    growth_csv = os.path.join(work, "wide_growth.csv")

    def check_growth(_):
        return checks.growth_problems(
            checks.read_csv_rows(growth_csv),
            [(stem, records(jsonl)) for stem, jsonl in paths])

    ops.append(Op("stats growth", lambda: _cli(
        ["stats", "--report", "growth", "--inputs",
         *[jsonl for _, jsonl in paths], "--out", growth_csv],
        (growth_csv,)), check_growth))
    return ops, zs


def exact_series(seed, work, size):
    # The exact kernels take no random input: ``seed`` changes nothing here.
    comb = graphs.build_graph("comb:line")
    line = graphs.build_graph("line")
    grid = graphs.build_graph("grid2d")
    cycle = graphs.build_graph("comb:cycle:4")

    def check_comb(series):
        diag = oracle.return_probability_series(comb, size["diag"],
                                                every="all")
        lo, hi = size["comb_fit"]
        slope = checks.fitted_slope(series.n, series.values, lo, hi)
        return (checks.even_all_problems(series, diag)
                + checks.slope_problems("comb:line return", slope,
                                        -0.78, -0.72))

    def check_persite(graph, n_max, fit, low, high):
        def check(ps):
            _, inc = oracle.meeting_expectation_series(graph, n_max)
            slope = checks.fitted_slope(ps.n, ps.values, *fit)
            return (checks.persite_problems(ps.table, inc.values)
                    + checks.slope_problems(f"{graph.family} per-site",
                                            slope, low, high))
        return check

    return [
        Op("return comb:line", lambda: oracle.return_probability_series(
            comb, size["comb_even"]), check_comb),
        Op("return line", lambda: oracle.return_probability_series(
            line, size["line"]), lambda s: checks.closed_form_problems(s, 1)),
        Op("return grid2d", lambda: oracle.return_probability_series(
            grid, size["grid2d"]), lambda s: checks.closed_form_problems(s, 2)),
        Op("persite comb:line", lambda: oracle.per_site_collision_series(
            comb, size["persite_line"]),
           check_persite(comb, size["persite_line"],
                         size["persite_line_fit"], -math.inf, -1.15)),
        Op("persite comb:cycle:4", lambda: oracle.per_site_collision_series(
            cycle, size["persite_cycle"]),
           check_persite(cycle, size["persite_cycle"],
                         size["persite_cycle_fit"], -1.03, -0.97)),
    ], {}


def constructions(seed, work, size):
    g = graphs.build_graph(size["graph"])
    n, replicas = size["n"], size["replicas"]
    steps, d_reps = size["dichotomy_steps"], size["dichotomy_replicas"]
    law = {}

    def check_marginal(positions):
        if not law:
            law.update(oracle.transition_vector(g, g.root, n).items())
        return checks.marginal_problems(positions, law)

    ops = [Op(f"marginal {method}",
              lambda method=method: sampler.sample_marginal(
                  g, n, replicas, seed=seed, method=method),
              check_marginal, "marginal", replicas)
           for method in ("direct", "selfloop", "clock")]
    ops.append(Op("dichotomy", lambda: sampler.clock_dichotomy_violations(
        g.base.constant_degree, steps, d_reps, seed=seed),
        lambda res: checks.dichotomy_problems(res, d_reps, steps)))
    return ops, {}


WORKLOADS = {
    "comb-long": comb_long,
    "comb-wide": comb_wide,
    "exact-series": exact_series,
    "constructions": constructions,
}


def build(name, seed, work, size=None):
    """Graphs, config and operations of one workload: the set-up step.
    Returns the operations and a dict the checks fill with z-scores."""
    return WORKLOADS[name](seed, work, size or SIZES[name])
