"""Correctness checks on the outputs of the benchmark's operations.

Each check returns a list of problems; an empty list means the output
passed.  Outputs are held against a computation made apart from the Monte
Carlo code (closed forms, the exact oracle, a recount from the JSONL) or
against a property the method must have, never against a stored copy of
an earlier output.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

Z_LIMIT = 4.0          # |z| of an ensemble mean against the exact value
SERIES_TOL = 1e-10     # exact series against closed forms and each other
P_MIN = 1e-6           # chi-square p-value of a sampled law (see README)
FLOAT_REL = 1e-12      # CSV cells against the benchmark's recount


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_csv_rows(path):
    """The rows of a CSV file after its header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def dyadic_grid(steps):
    """Powers of two up to ``steps``, then ``steps`` itself."""
    grid, t = [], 1
    while t <= steps:
        grid.append(t)
        t *= 2
    if grid[-1] != steps:
        grid.append(steps)
    return grid


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=FLOAT_REL, abs_tol=FLOAT_REL)


# ---------------------------------------------------------------------------
# pair ensembles
# ---------------------------------------------------------------------------

def summary_problems(records, graph, steps, replicas, bipartite):
    """Per-replica invariants of one simulate output."""
    problems = []
    grid = dyadic_grid(steps)
    if [r["replica"] for r in records] != list(range(replicas)):
        problems.append(f"replica indices are not 0..{replicas - 1}")
    for rec in records:
        rid = rec["replica"]
        cols = rec["collisions"]
        times = [c["n"] for c in cols]
        if rec["T"] != steps:
            problems.append(f"replica {rid}: T={rec['T']}, want {steps}")
        if rec["meetings"] != len(cols):
            problems.append(f"replica {rid}: meetings={rec['meetings']} "
                            f"but {len(cols)} collisions")
        if any(b <= a for a, b in zip(times, times[1:])) or \
                (times and (times[0] < 1 or times[-1] > steps)):
            problems.append(f"replica {rid}: collision times not strictly "
                            f"increasing within 1..{steps}")
        ts = [c["t"] for c in rec["checkpoints"]]
        ms = [c["meetings"] for c in rec["checkpoints"]]
        if ts != grid:
            problems.append(f"replica {rid}: checkpoints {ts}, want {grid}")
        elif any(b < a for a, b in zip(ms, ms[1:])) or ms[-1] != rec["meetings"]:
            problems.append(f"replica {rid}: checkpoint counts {ms} do not "
                            f"rise to meetings={rec['meetings']}")
        elif ms != [sum(1 for n in times if n <= t) for t in ts]:
            problems.append(f"replica {rid}: checkpoint counts {ms} differ "
                            "from the collisions up to each t")
        for role in ("x", "y"):
            v = tuple(rec["final"][role])
            if not graph.contains(v):
                problems.append(f"replica {rid}: final {role} {v} is not a "
                                "vertex")
            elif bipartite and sum(v) % 2 != steps % 2:
                problems.append(f"replica {rid}: final {role} {v} has the "
                                f"wrong parity for T={steps}")
        for c in cols:
            v = tuple(c["vertex"])
            if not graph.contains(v):
                problems.append(f"replica {rid}: collision vertex {v} is not "
                                "a vertex")
            elif bipartite and sum(v) % 2 != c["n"] % 2:
                problems.append(f"replica {rid}: collision at {v} has the "
                                f"wrong parity for n={c['n']}")
    return problems


def mean_z_scores(records, partial, t_max):
    """z of the ensemble mean meetings at each dyadic t <= t_max against
    the exact partial sums ``partial[t]``."""
    zs = {}
    for t in dyadic_grid(t_max):
        if t > t_max:
            break
        counts = np.array([dict((c["t"], c["meetings"])
                                for c in rec["checkpoints"])[t]
                           for rec in records], dtype=float)
        diff = counts.mean() - partial[t]
        se = counts.std(ddof=1) / math.sqrt(len(counts))
        zs[t] = diff / se if se > 0 else (0.0 if diff == 0 else math.inf)
    return zs


def exact_mean_problems(zs):
    return [f"mean meetings at t={t} is {z:+.2f} standard errors from the "
            "exact partial sum" for t, z in zs.items() if abs(z) > Z_LIMIT]


def growth_problems(rows, labelled_records):
    """``stats growth`` CSV rows against a recount of each input."""
    want = []
    for label, records in labelled_records:
        if not records:
            continue
        last = [rec["collisions"][-1]["n"] if rec["collisions"] else 0
                for rec in records]
        n = len(records)
        for t in [c["t"] for c in records[0]["checkpoints"]]:
            total = sum(dict((c["t"], c["meetings"])
                             for c in rec["checkpoints"])[t]
                        for rec in records)
            want.append((label, t, total / n, sum(x > t for x in last) / n))
    if len(rows) != len(want):
        return [f"growth CSV has {len(rows)} rows, recount has {len(want)}"]
    problems = []
    for row, (label, t, mean, surv) in zip(rows, want):
        got = (row[0], int(row[1]), float(row[2]), float(row[3]))
        if got[:2] != (label, t) or not _close(got[2], mean) \
                or not _close(got[3], surv):
            problems.append(f"growth row {row} differs from the recount "
                            f"{(label, t, mean, surv)}")
    for label, _ in labelled_records:
        surv = [float(r[3]) for r in rows if r[0] == label]
        if any(b > a for a, b in zip(surv, surv[1:])):
            problems.append(f"survival fractions of {label} increase: {surv}")
    return problems


def recount_grid(records, r_range, k_range):
    """Dyadic cells (r, k) recounted from the JSONL collision lists."""
    rep, ns, ls = [], [], []
    for i, rec in enumerate(records):
        for c in rec["collisions"]:
            rep.append(i)
            ns.append(c["n"])
            ls.append(abs(c["l"]))
    rep, ns, ls = (np.array(a, dtype=np.int64) for a in (rep, ns, ls))
    n_rep = len(records)

    def z(r, k):
        inside = ((ns >= 2 ** r) & (ns <= 2 ** (r + 1))
                  & (ls >= 2 ** k) & (ls <= 2 ** (k + 1)))
        return np.bincount(rep[inside], minlength=n_rep)

    rows = []
    for r in r_range:
        for k in k_range:
            zc = z(r, k)
            hit = zc > 0
            if k >= 1:
                w = sum(z(rr, kk) for rr in (r, r + 1)
                        for kk in (k - 1, k, k + 1))
                w_mean = float(w.sum()) / n_rep
                w_given_a = float(w[hit].sum()) / int(hit.sum()) \
                    if hit.any() else math.nan
            else:
                w_mean = w_given_a = math.nan
            rows.append((r, k, float(zc.sum()) / n_rep,
                         float(hit.sum()) / n_rep, w_mean, w_given_a,
                         n_rep, int(hit.sum())))
    return rows


def grid_problems(rows, records, r_range, k_range):
    """``stats grid`` CSV rows against ``recount_grid``."""
    want = recount_grid(records, r_range, k_range)
    if len(rows) != len(want):
        return [f"grid CSV has {len(rows)} rows, recount has {len(want)}"]
    problems = []
    for row, exp in zip(rows, want):
        got = (int(row[0]), int(row[1]), *map(float, row[2:6]),
               int(row[6]), int(row[7]))
        if got[:2] != exp[:2] or got[6:] != exp[6:] or \
                not all(_close(a, b) for a, b in zip(got[2:6], exp[2:6])):
            problems.append(f"grid row {row} differs from the recount {exp}")
    return problems


def lil_problems(rows, records, alpha):
    """``stats lil`` CSV rows against the recorded envelope times."""
    want = []
    for rec in records:
        lil = rec["lil"]
        times = lil["times"][lil["alphas"].index(alpha)]
        if any(b <= a for a, b in zip(times, times[1:])) or \
                (times and (times[0] < 1 or times[-1] > rec["T"])):
            return [f"replica {rec['replica']}: envelope times not strictly "
                    "increasing within 1..T"]
        want.append([str(rec["replica"]), str(len(times)),
                     str(times[-1] if times else 0)])
    if rows != want:
        return ["lil CSV differs from the recorded envelope times"]
    return []


# ---------------------------------------------------------------------------
# exact series
# ---------------------------------------------------------------------------

def central_binomial(k):
    """C(2k, k) / 4^k, correctly rounded."""
    return math.comb(2 * k, k) / 4 ** k


def closed_form_problems(series, power):
    """Even return series against (C(2k,k)/4^k)^power at n = 2k."""
    problems = []
    for n, v in zip(series.n.tolist(), series.values.tolist()):
        want = central_binomial(n // 2) ** power
        if n % 2 or abs(v - want) > SERIES_TOL:
            problems.append(f"return probability at n={n} is {v!r}, "
                            f"closed form {want!r}")
    return problems


def even_all_problems(even, every_all):
    """The even series against the diagonal of the all-times iteration;
    odd times are zero on a bipartite graph."""
    diag = dict(zip(every_all.n.tolist(), every_all.values.tolist()))
    problems = []
    for n, v in zip(even.n.tolist(), even.values.tolist()):
        if n in diag and abs(v - diag[n]) > SERIES_TOL:
            problems.append(f"even series at n={n} is {v!r}, diagonal "
                            f"{diag[n]!r}")
    odd = [n for n, v in diag.items() if n % 2 and v != 0.0]
    if odd:
        problems.append(f"nonzero odd-time returns at n={odd[:5]}")
    return problems


def fitted_slope(n, values, lo, hi):
    """Least-squares slope of log value against log n over lo <= n <= hi."""
    n = np.asarray(n, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = (n >= lo) & (n <= hi) & (values > 0)
    return float(np.polyfit(np.log(n[keep]), np.log(values[keep]), 1)[0])


def slope_problems(what, slope, low, high):
    if low <= slope <= high:
        return []
    return [f"{what} slope {slope:.4f} outside [{low}, {high}]"]


def persite_problems(table, increments):
    """Per-height rows must sum to the meeting increments."""
    sums = np.asarray(table).sum(axis=1)
    worst = float(np.max(np.abs(sums - np.asarray(increments))))
    if worst > SERIES_TOL:
        return [f"per-site rows differ from the meeting increments by "
                f"{worst:.3e}"]
    return []


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def marginal_problems(positions, law):
    """Samples against the exact law ``{vertex: probability}``: support,
    then a chi-square test."""
    # imported here, not at the top: round.py imports this module before
    # it takes the set-up time, which must hold only combwalks' imports
    from scipy.stats import chisquare

    uniq, cnt = np.unique(np.asarray(positions), axis=0, return_counts=True)
    counts = {tuple(int(c) for c in row): int(k) for row, k in zip(uniq, cnt)}
    outside = sorted(set(counts) - set(law))
    if outside:
        return [f"samples outside the exact support: {outside[:5]}"]
    support = sorted(law)
    obs = np.array([counts.get(v, 0) for v in support], dtype=float)
    exp = np.array([law[v] for v in support])
    exp *= obs.sum() / exp.sum()
    p = float(chisquare(obs, f_exp=exp).pvalue)
    if not p > P_MIN:
        return [f"chi-square p-value {p:.3g} against the exact law"]
    return []


def dichotomy_problems(result, replicas, steps):
    bad, checked = result
    problems = []
    if bad:
        problems.append(f"{bad} dichotomy violations")
    if checked != replicas * (steps + 1):
        problems.append(f"{checked} dichotomy checks, want "
                        f"{replicas * (steps + 1)}")
    return problems
