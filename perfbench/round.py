"""One round of one workload, in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N --trace 0|1
        --spawned T --work DIR --result FILE [--spans FILE]

``--spawned`` is the ``time.monotonic()`` reading the parent took just
before starting this process; CLOCK_MONOTONIC is shared by all processes
of the machine, so set-up time runs from process start to the first call
into a combwalks layer.  The round writes one JSON object to ``--result``
and, when traced, its spans as CSV to ``--spans``.
The round times each operation on its own and takes the host's speed
(``host_speed``) before and after set-up and after each operation;
``wall_s`` is the sum of the operations' times.  Correctness checks run after the timed
part and after ``ru_maxrss`` is read, so they add neither time nor memory
to the metrics.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


SPEED_LOOP = 400_000


def host_speed():
    """Seconds a fixed pure-Python loop takes now.  Taken before and after
    every operation, it gives the host's speed at the time; see
    ``scaled`` in run.py."""
    t0 = time.perf_counter()
    total = 0
    for i in range(SPEED_LOOP):
        total += i
    return time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="traced rounds: write the spans here")
    args = ap.parse_args(argv)
    # the host's speed as set-up starts; the loop's own time is taken
    # out of set-up below
    probe_start = time.monotonic()
    speed = [host_speed()]
    probe = time.monotonic() - probe_start

    import combwalks
    import tracer
    import workloads

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.abspath(combwalks.__file__).startswith(
            os.path.join(root, "src") + os.sep):
        raise SystemExit(f"combwalks imported from {combwalks.__file__}, "
                         f"not from {root}/src")
    ops, zs = workloads.build(args.workload, args.seed, args.work)

    tr = tracer.Tracer() if args.trace else None
    if tr is not None:
        tr.install()
    outputs, errors, op_times = [], [], []
    first = time.monotonic()
    origin = time.perf_counter()
    speed.append(host_speed())
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs.append(op.run())
            errors.append(None)
        except Exception:  # an operation that raises is a failed operation
            outputs.append(None)
            errors.append(traceback.format_exc(limit=3))
        op_times.append(time.perf_counter() - t0)
        speed.append(host_speed())
    last = time.monotonic()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tr is not None:
        tr.restore()

    wall = sum(op_times)
    import numpy  # after the timed part, so set-up holds combwalks alone
    import scipy
    results = []
    for op, out, err, secs in zip(ops, outputs, errors, op_times):
        if err is None:
            try:
                problems = op.check(out)
            except Exception:  # output the check cannot read: a failure too
                problems = [traceback.format_exc(limit=3)]
        else:
            problems = [err]
        results.append({"op": op.name, "seconds": secs, "kind": op.kind,
                        "units": op.units, "problems": problems[:5]})
    result = {
        "setup_s": first - args.spawned - probe,
        "wall_s": wall,
        "elapsed_s": last - first,
        "speed_s": speed,
        "peak_rss_mib": peak_rss,
        "ops": results,
        "max_abs_z": max((abs(z) for z in zs.values()), default=None),
        "digest": workloads.digest(outputs) if all(
            e is None for e in errors) else None,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "combwalks": combwalks.__version__},
    }
    if tr is not None:
        result["layers"] = tr.layer_metrics(wall)
        if args.spans:
            with open(args.spans, "w") as fh:
                fh.write("name,parent,start_s,end_s\n")
                for name, parent, start, end in tr.spans:
                    fh.write(f"{name},{parent},{start - origin!r},"
                             f"{end - origin!r}\n")
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
