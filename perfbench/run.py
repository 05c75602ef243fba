"""Benchmark of combwalks: one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a combwalks checkout.  The run makes a fixed number
of whole rounds of the workload, as many as fill S seconds on the
reference host (``ROUND_SECONDS``), each round in a fresh interpreter
(``perfbench/round.py``) with ``--workers 1``, so set-up time and peak RSS
belong to that round alone.  Times are scaled by the host's speed measured
next to them (``scaled``).  With ``--trace 0`` it prints the end-to-end
metrics: the median set-up time and peak RSS of the rounds, and as wall
time the sum over the operations of each one's median time.  With
``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics of the fastest traced round, the median throughputs of
the untraced rounds, and the trace overhead between the two kinds of
round.

The second-to-last line of standard output records the environment; the
last line is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The same record, with every round, goes to
``perfbench/out/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("comb-long", "comb-wide", "exact-series", "constructions")
REQUIRED = ("src/combwalks/__init__.py", "configs/cells_grid.conf",
            "BENCHMARK.json")
# seconds one untraced round takes on the reference host (see README),
# spawn and checks included: they fix the number of rounds of a run
ROUND_SECONDS = {"comb-long": 4.2, "comb-wide": 5.5, "exact-series": 5.5,
                 "constructions": 3.3}
MIN_ROUNDS = 2         # of each kind, at least
# seconds round.host_speed takes on the reference host at its fastest
REFERENCE_SPEED_S = 0.014
ROUND_TIMEOUT = 150.0  # seconds
LAST_START = 120.0     # start no round after this many seconds


class RoundError(RuntimeError):
    pass


def declared_units(trace):
    """Metric name to unit of the end-to-end (``trace`` 0) or per-layer
    (``trace`` 1) metrics that ``BENCHMARK.json`` declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_rev():
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over ``src/combwalks/*.py``: names the code when there is no
    git metadata."""
    src = os.path.join(ROOT, "src", "combwalks")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def spawn_round(args, index, traced, run_dir):
    work = os.path.join(run_dir, f"round{index}")
    os.makedirs(work)
    result = os.path.join(run_dir, f"round{index}.json")
    spans = os.path.join(run_dir, f"round{index}.spans.csv")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(BENCH, "round.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--work", work, "--result", result]
    if traced:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise RoundError(f"round {index} ran over {ROUND_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise RoundError(f"round {index} exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    with open(result) as fh:
        res = json.load(fh)
    shutil.rmtree(work)
    res["traced"] = traced
    res["spans"] = spans if traced else None
    return res


def round_count(args):
    """Rounds of each kind: the same for every seed and every commit, so
    that every run of a workload takes its medians over as many rounds,
    however fast the program is."""
    n = round(args.seconds / ROUND_SECONDS[args.workload])
    return max(MIN_ROUNDS, round(n / 2) if args.trace else n)


def run_rounds(args, run_dir):
    """Untraced rounds, alternating with as many traced ones under
    ``--trace 1``.  A program so slow that the run would pass the exit
    limit gets fewer rounds, and the record says so."""
    kinds = [False, True] if args.trace else [False]
    rounds = []
    start = time.monotonic()
    for _ in range(round_count(args)):
        for traced in kinds:
            if rounds and time.monotonic() - start >= LAST_START:
                return rounds
            rounds.append(spawn_round(args, len(rounds), traced, run_dir))
    return rounds


def scaled(r):
    """Set-up time and operation times of round ``r`` in reference
    seconds: each scaled by the host's speed measured next to it.

    This host's speed drifts by up to 2x in phases of seconds to minutes,
    longer than a run, and the process's CPU time drifts with it (README).
    Set-up and each operation are scaled by the mean of the speeds taken
    right before and after them."""
    speed = r["speed_s"]
    times = [r["setup_s"]] + [op["seconds"] for op in r["ops"]]
    out = [t * 2 * REFERENCE_SPEED_S / (speed[i] + speed[i + 1])
           for i, t in enumerate(times)]
    return out[0], out[1:]


def median_wall(rounds):
    """The sum over the operations of each one's median scaled time."""
    ops = [scaled(r)[1] for r in rounds]
    return sum(statistics.median(times) for times in zip(*ops))


def summarize(args, rounds):
    """Metrics of one run: medians over its rounds of the scaled times
    (``scaled``) and of the peak RSS."""
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if not args.trace:
        values = {
            "setup_s": statistics.median(scaled(r)[0] for r in plain),
            "wall_s": median_wall(plain),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"]
                                              for r in plain),
        }
    else:
        # one round's layers, so that they add up to its wall time
        best = min(traced, key=lambda r: r["wall_s"])
        values = dict(best["layers"])
        for kind, name in (("simulate", "pair_steps_per_s"),
                           ("marginal", "samples_per_s")):
            values[name] = statistics.median(
                throughput(r, kind) for r in plain)
        values["trace.wall_s"] = best["wall_s"]
        values["trace.overhead_s"] = median_wall(traced) - median_wall(plain)
    units = declared_units(args.trace)
    if set(values) != set(units):
        raise RoundError("measured and declared metrics differ: "
                         f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": v, "unit": units[name]}
            for name, v in sorted(values.items())}


def throughput(r, kind):
    """Pair-steps or samples per reference second of the operations of
    ``kind`` in round ``r``; 0 when the workload has none."""
    ops = [(op, t) for op, t in zip(r["ops"], scaled(r)[1])
           if op["kind"] == kind]
    return (sum(op["units"] for op, _ in ops) / sum(t for _, t in ops)
            if ops else 0.0)


def verdict(rounds):
    """(attempted, failed, correct) over ``rounds``.  ``correct`` holds
    when no operation raised or failed its check and, the seed being the
    same, every round wrote the same outputs."""
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for op in r["ops"] if op["problems"])
    digests = {r["digest"] for r in rounds if r["digest"] is not None}
    if len(digests) > 1:
        print("perfbench: rounds with the same seed wrote different outputs",
              file=sys.stderr)
    return attempted, failed, failed == 0 and len(digests) == 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a SIGTERM unwinds through subprocess.run, which kills and reaps the
    # running round before the exit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: {ROOT} is not a combwalks checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(OUT, f"{tag}-{os.getpid()}")
    results_dir = os.path.join(OUT, "results")
    os.makedirs(run_dir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        rounds = run_rounds(args, run_dir)
        metrics = summarize(args, rounds)
        if args.trace:
            best = min((r for r in rounds if r["traced"]),
                       key=lambda r: r["wall_s"])
            shutil.copy(best["spans"],
                        os.path.join(results_dir, tag + ".spans.csv"))
    except RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for r in rounds:
        for op in r["ops"]:
            for problem in op["problems"]:
                print(f"perfbench: {op['op']}: {problem}", file=sys.stderr)
    attempted, failed, correct = verdict(rounds)
    env = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": len(rounds), "traced_rounds": sum(r["traced"] for r in rounds),
        "rounds_planned": round_count(args) * (1 + args.trace),
        "attempted": attempted, "failed": failed,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "versions": rounds[0]["versions"],
        "git_rev": git_rev(), "src_sha256": source_digest(),
        "max_abs_z": max((r["max_abs_z"] for r in rounds
                          if r["max_abs_z"] is not None), default=None),
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(os.path.join(results_dir, tag + ".json"), "w") as fh:
        json.dump({"env": env, "result": result, "rounds": rounds}, fh,
                  indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
