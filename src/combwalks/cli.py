"""Command-line front end.

Five subcommands wire the library into reproducible experiments:

    simulate   run a pair ensemble, write one JSONL summary per replica
    oracle     exact kernel computations (return | meetings | persite
               | identities) as CSV
    stats      reduce JSONL ensembles to CSV reports (grid | growth
               | lil | drift)
    fit        least-squares power-law exponent from a CSV column
    verify     alias for `oracle identities`

Every command is a pure function of its config: rerunning with identical
flags produces byte-identical output, whatever the worker count.  Config
may come from a flat key=value file via --config, with explicit flags
taking precedence.

Exit codes: 0 success, 1 failed check, simulation or build, 2 config
error, 3 budget exceeded, 4 input schema mismatch, 5 degenerate data.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time

import numpy as np

from ._native import BuildError
from .graphs import BudgetError, GraphError, build_graph, DEFAULT_BUDGET
from .oracle import (OracleError, identity_check_suite,
                     meeting_expectation_series, per_site_collision_series,
                     return_probability_series)
from .sampler import RecordPolicy, SimulationError, run_ensemble
from .stats import (SchemaError, StatsError, cell_ranges, check_checkpoints,
                    drift_estimate, dyadic_collision_stats,
                    estimate_exponent, lil_envelope_check,
                    meeting_growth_curve)
from .summaries import (SummaryBlock, atomic_open, read_summaries,
                        write_summaries)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SCHEMA = 4
EXIT_DEGENERATE = 5

BUDGET_ENV = "COMBWALKS_BUDGET"


class ConfigError(ValueError):
    pass


def _default_workers():
    """The CPUs this process may run on, or all of them where the platform
    has no affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _read_lines(path, error):
    """The stripped lines of a text file; ``error`` if its bytes do not
    decode.  OSError reaches ``main``, which maps it to exit 2."""
    with open(path) as fh:
        try:
            return [line.strip() for line in fh]
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not text: {exc}") from None


def _parse_config_file(path):
    out = {}
    for ln, line in enumerate(_read_lines(path, ConfigError), 1):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value")
        key, _, val = line.partition("=")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _int_list(text):
    return tuple(int(x) for x in str(text).split(",") if str(x).strip())


def _float_list(text):
    return tuple(float(x) for x in str(text).split(",") if str(x).strip())


def _span(text):
    """'a:b' inclusive integer span."""
    lo, _, hi = str(text).partition(":")
    if not hi:
        raise ConfigError(f"expected lo:hi span, got {text!r}")
    return int(lo), int(hi)


def _config_flags(path):
    """The pairs of a config file as flags: ``--key=value``, so a value such
    as ``-1,0`` stays one argument; ``inputs`` takes its comma-separated
    paths as separate arguments."""
    flags = []
    for key, val in _parse_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        if key == "inputs":
            flags += [flag, *(x for x in val.split(",") if x)]
        else:
            flags.append(f"{flag}={val}")
    return flags


def _budget(args):
    budget, env = getattr(args, "budget", None), os.environ.get(BUDGET_ENV)
    if budget is None and env:
        try:
            budget = int(env)
        except ValueError:
            raise ConfigError(f"{BUDGET_ENV} must be an integer") from None
    if budget is not None and budget <= 0:
        raise ConfigError(f"the budget must be > 0 bytes, got {budget}")
    return DEFAULT_BUDGET if budget is None else budget


def _parse_start(text):
    """The ``--start`` vertex, or None for the family root; the sampler
    refuses a tuple that is not a vertex of the graph (GraphError)."""
    try:
        return None if text is None else tuple(map(int, text.split(",")))
    except ValueError:
        raise ConfigError(f"bad start vertex {text!r}") from None


def _write_table(args, header, rows):
    """The one CSV report of a command, to ``--out`` through
    ``atomic_open`` or to stdout."""
    with (atomic_open(args.out, newline="\n") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        _write_csv(fh, header, rows)


def _write_csv(fh, header, rows):
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(repr(c) if isinstance(c, float) else str(c)
                          for c in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _check_lil_alphas(flag, alphas):
    """The one range `simulate --lil-alphas` and `stats --alpha` take."""
    if not all(2.0 / 3.0 < a < 1.0 for a in alphas):
        raise ConfigError(f"{flag} must lie in (2/3, 1), got {alphas}")


def _check_checkpoints(ts, steps=None):
    """`check_checkpoints` of --checkpoints, up to --steps where there is
    one, as a config error."""
    try:
        check_checkpoints(ts, steps)
    except ValueError as exc:
        raise ConfigError(f"--{exc}") from None


def _check_one_ensemble(report, paths, loaded, merged):
    """Refuse inputs that repeat a replica id across files (found by a
    sort of the merged ids), or, but for drift's spine traces, that mix
    (T, method): they are not one ensemble."""
    def kind(sums, i):
        return int(sums.n_steps[i]), sums.method[i]
    for path, (_, sums) in zip(paths, loaded):
        odd = ((sums.n_steps != merged.n_steps[:1])
               | (sums.method != merged.method[:1]))
        if odd.any() and report != "drift":
            raise SchemaError(
                f"{path}: {report} inputs mix (T, method) "
                f"{kind(merged, 0)} and {kind(sums, odd.argmax())}")
    order = np.argsort(merged.replica, kind="stable")
    ids, files = merged.replica[order], np.repeat(
        np.arange(len(paths)), [len(sums) for _, sums in loaded])[order]
    twice = np.flatnonzero((ids[1:] == ids[:-1]) & (files[1:] != files[:-1]))
    if len(twice):
        i = twice[0]
        raise SchemaError(f"{paths[files[i]]} and {paths[files[i + 1]]}: "
                          f"{report} inputs repeat replica {ids[i]}")


def cmd_simulate(args):
    # each checked flag: its least value (None: any) and whether a run
    # needs it (--out too: no run writes where it was not told to)
    for name, lowest, needed in (
            ("graph", None, True), ("out", None, True), ("steps", 0, True),
            ("replicas", 1, True), ("seed", 0, True),
            ("truncation_radius", 0, False), ("spine_stride", 0, False)):
        value, flag = getattr(args, name), "--" + name.replace("_", "-")
        if value is None and needed:
            raise ConfigError(f"simulate needs {flag}")
        if None not in (value, lowest) and value < lowest:
            raise ConfigError(f"{flag} must be >= {lowest}, got {value}")
    if os.path.isdir(args.out) or not os.path.isdir(
            os.path.dirname(args.out) or "."):
        raise ConfigError(f"--out {args.out}: a directory, or in a missing one")
    graph, start = build_graph(args.graph), _parse_start(args.start)
    alphas, cps = tuple(args.lil_alphas or ()), tuple(args.checkpoints or ())
    _check_lil_alphas("--lil-alphas", alphas)
    _check_checkpoints(cps, args.steps)
    record = RecordPolicy(cps, alphas, args.spine_stride or 0)
    workers = _default_workers() if args.workers is None else args.workers
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    t0 = time.time()
    sums = run_ensemble(graph, start, args.steps, args.replicas,
                        seed=args.seed, workers=workers, record=record,
                        method=args.method or "direct",
                        truncation_radius=args.truncation_radius)
    write_summaries(args.out, sums)
    total = sums.meetings.sum()
    print(f"replicas={args.replicas} total_meetings={total} "
          f"wall={time.time() - t0:.1f}s", file=sys.stderr)
    return EXIT_OK


def cmd_oracle(args):
    which, budget = args.which, _budget(args)
    if which == "identities":
        header = ("check", "residual", "passed")
        rows = [(name, res, int(ok))
                for name, res, ok in identity_check_suite(budget=budget)]
    else:
        if args.graph is None or args.nmax is None:
            raise ConfigError(f"oracle {which} needs --graph and --nmax")
        lowest = 2 if which == "return" and args.every != "all" else 1
        if args.nmax < lowest:
            raise ConfigError(f"oracle {which} needs --nmax >= {lowest}")
        graph, n_max = build_graph(args.graph), args.nmax
        header = ("n", "value")
        if which == "return":
            rows = return_probability_series(
                graph, n_max, every=args.every or "even", budget=budget).rows()
        elif which == "meetings":
            partial, inc = meeting_expectation_series(graph, n_max,
                                                      budget=budget)
            header = ("n", "partial", "increment")
            rows = [(n, v, i) for (n, v), (_, i) in zip(partial.rows(),
                                                        inc.rows())]
        else:
            rows = per_site_collision_series(graph, n_max,
                                             budget=budget).series().rows()
    _write_table(args, header, rows)
    if which == "identities":
        n_fail = sum(1 for *_, ok in rows if not ok)
        print(f"checks={len(rows)} failures={n_fail} "
              f"max_residual={max(r[1] for r in rows):.3e}", file=sys.stderr)
        return EXIT_CHECK if n_fail else EXIT_OK
    return EXIT_OK


def _load_inputs(paths):
    if not paths:
        raise ConfigError("stats needs --inputs")
    return [(os.path.splitext(os.path.basename(p))[0], read_summaries(p))
            for p in paths]


def cmd_stats(args):
    # the flags first: a bad one costs no read of the inputs
    report, alpha = args.report or "grid", args.alpha
    if report == "grid":
        if args.r_range is None or args.k_range is None:
            raise ConfigError("grid report needs --r-range and --k-range")
        (r0, r1), (k0, k1) = args.r_range, args.k_range
        # checked here too: an empty input writes its rows without a grid
        r_span, k_span = cell_ranges(range(r0, r1 + 1), range(k0, k1 + 1))
    elif report == "growth":
        _check_checkpoints(args.checkpoints or ())
    elif report == "lil":
        alpha = 0.75 if alpha is None else alpha
        _check_lil_alphas("--alpha", (alpha,))
    loaded = _load_inputs(args.inputs)
    merged = SummaryBlock.concat(sums for _, sums in loaded)
    if report != "growth":                  # one block of rows per input
        _check_one_ensemble(report, args.inputs, loaded, merged)

    if report == "grid":
        header = ("r", "k", "Z_mean", "A_prob", "W_mean", "W_given_A",
                  "count", "cond_count")
        if merged:
            grid = dyadic_collision_stats(merged, r_span, k_span)
            rows = [(r, k, c.z_mean, c.a_prob, c.w_mean, c.w_given_a,
                     c.count, c.cond_count)
                    for (r, k), c in sorted(grid.items())]
        else:
            rows = [(r, k, 0.0, 0.0, 0.0, 0.0, 0, 0)
                    for r in r_span for k in k_span]
    elif report == "growth":
        header, rows = ("graph", "t", "mean_meetings", "survival_frac"), []
        for path, (label, sums) in zip(args.inputs, loaded):
            if not sums:
                continue
            try:
                curve = meeting_growth_curve(sums, args.checkpoints or None)
            except SchemaError as exc:         # a file mixing grids
                raise SchemaError(f"{path}: {exc}") from None
            rows += [(label, t, m, s) for t, m, s in zip(
                curve.times, curve.mean_meetings, curve.survival_frac)]
    elif report == "lil":
        counts, last = lil_envelope_check(merged, alpha)
        header = ("replica", "violations", "last_violation")
        rows = list(zip(merged.replica.tolist(), counts.tolist(),
                        last.tolist()))
    else:                                      # argparse allows no other
        est = drift_estimate(merged)
        header = ("per_move", "per_half_step", "moves")
        rows = [(est.per_move, est.per_half_step, est.moves)]
    _write_table(args, header, rows)
    return EXIT_OK


def cmd_fit(args):
    if not args.input or args.column is None or args.range is None:
        raise ConfigError("fit needs --input, --column and --range")
    # one pass: a file that is not a table of numbers is a SchemaError
    path, column = args.input, args.column
    header, *lines = [line.split(",") for line in
                      _read_lines(path, SchemaError)] or [[]]
    if column not in header:
        raise SchemaError(f"{path}: column {column!r} not in {header}")
    xi = header.index("n") if "n" in header else 0
    vi = header.index(column)
    pts = []
    for parts in lines:
        if len(parts) != len(header):
            raise SchemaError(f"{path}: ragged CSV row")
        try:
            n, value = float(parts[xi]), float(parts[vi])
        except ValueError:
            raise SchemaError(f"{path}: not a number in {parts}") from None
        if not n.is_integer():                 # a NaN or infinite n too
            raise SchemaError(f"{path}: n = {parts[xi]} is not a whole number")
        pts.append((int(n), value))
    fit = estimate_exponent(pts, args.range)
    _write_table(args, ("slope", "intercept", "stderr", "n_lo", "n_hi",
                        "points"),
                 [(fit.slope, fit.intercept, fit.stderr, fit.n_lo, fit.n_hi,
                   fit.points)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags override")
    p.add_argument("--out", help="output path (default: stdout)")


@functools.cache
def build_parser():
    """The one parser of the process, built on first use."""
    ap = argparse.ArgumentParser(
        prog="combwalks",
        description="simulate and analyse colliding random walks on combs")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("simulate", help="run a pair ensemble to JSONL")
    _add_common(ps)
    ps.add_argument("--graph")
    ps.add_argument("--start")
    ps.add_argument("--steps", type=int)
    ps.add_argument("--replicas", type=int)
    ps.add_argument("--seed", type=int)
    ps.add_argument("--workers", type=int)
    ps.add_argument("--method", choices=("direct", "selfloop"))
    ps.add_argument("--checkpoints", type=_int_list)
    ps.add_argument("--lil-alphas", dest="lil_alphas", type=_float_list)
    ps.add_argument("--spine-stride", dest="spine_stride", type=int)
    ps.add_argument("--truncation-radius", dest="truncation_radius", type=int)
    ps.set_defaults(func=cmd_simulate)

    po = sub.add_parser("oracle", help="exact kernel computations to CSV")
    po.add_argument("which",
                    choices=("return", "meetings", "persite", "identities"))
    _add_common(po)
    po.add_argument("--graph")
    po.add_argument("--nmax", type=int)
    po.add_argument("--every", choices=("even", "all"))
    po.add_argument("--budget", type=int)
    po.set_defaults(func=cmd_oracle)

    pv = sub.add_parser("verify", help="alias for `oracle identities`")
    _add_common(pv)
    pv.add_argument("--budget", type=int)
    pv.set_defaults(func=cmd_oracle, which="identities")

    pt = sub.add_parser("stats", help="reduce JSONL ensembles to CSV")
    _add_common(pt)
    pt.add_argument("--inputs", nargs="+")
    pt.add_argument("--report", choices=("grid", "growth", "lil", "drift"))
    pt.add_argument("--r-range", dest="r_range", type=_span)
    pt.add_argument("--k-range", dest="k_range", type=_span)
    pt.add_argument("--alpha", type=float)
    pt.add_argument("--checkpoints", type=_int_list)
    pt.set_defaults(func=cmd_stats)

    pf = sub.add_parser("fit", help="power-law exponent from a CSV column")
    _add_common(pf)
    pf.add_argument("--input")
    pf.add_argument("--column")
    pf.add_argument("--range", type=_span)
    pf.set_defaults(func=cmd_fit)

    return ap


def main(argv=None):
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = ap.parse_args(argv)
        if args.config:
            # the file's pairs go ahead of the given flags, which win
            at = argv.index(args.command) + 1
            args = ap.parse_args(argv[:at] + _config_flags(args.config)
                                 + argv[at:])
        code = args.func(args)
        sys.stdout.flush()                 # a closed pipe shows here, not at exit
        return code
    except SystemExit as exc:
        # argparse exits 2 on bad flags, 0 on --help; keep its codes
        return int(exc.code or 0)
    except BrokenPipeError:
        # the reader of the output went away (`| head`): stop quietly, with
        # stdout on /dev/null so the interpreter's last flush writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK
    except (ConfigError, GraphError, OSError) as exc:
        # OSError: an input that cannot be read or an --out not written
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SchemaError as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (StatsError, OracleError) as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except SimulationError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_CHECK
    except BuildError as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
