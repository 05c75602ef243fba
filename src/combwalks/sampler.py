"""Monte-Carlo samplers for one or two independent walks on the comb family.

Three constructions produce the same walk law on a comb:

* direct      -- pick a uniform neighbour each step;
* selfloop    -- split the walk at a spine vertex into a lazy tooth walk
                 (self-loop probability d/(d+2) at height 0) plus a base walk
                 advanced once per self-loop event; the pair (base position
                 at the loop count, tooth height) is the walk;
* clock       -- run the undelayed tooth walk first and re-insert geometric
                 holding times at every visit to height 0, then read the
                 delayed path off the two sequences.

The direct construction works on every family; the other two only on combs
whose base has constant degree, and exist so their bookkeeping quantities
(loop counts, revisit counts, holding-time sums) can be checked against the
direct law.

Everything is driven by the keyed Philox streams in :mod:`.rng`, and a
walker consumes a fixed number of draws per step whether or not the step
uses them.  ``_windows`` runs every direct and selfloop walk in two
layers, each window at most ``SCRATCH`` walker-steps:

* window   -- one call of the compiled Philox (``rng.fill``) per channel
              draws a row per step; the kernel steps on all the rows,
              writing each state into the window's history, the comb
              kernels and grid2d in one call of ``_native.comb_step``, a
              C loop built on first use;
* observer -- one ``kernel.observe`` call per window (8 pairs or 8 walkers
              per AVX-512 vector) finds the meetings and each walker's depth;
              the meeting columns, envelope violations, truncation,
              checkpoints and ladder spine trace are read off the whole
              window history at once, the first two only at the meetings and
              in windows that cross the envelope.

A replica's trajectory therefore never depends on how replicas are grouped
into worker processes, and ``run_ensemble`` emits byte-identical JSONL for
any worker count.  The two walkers of ``replicas`` pairs run as the two
halves of a single width ``2*replicas`` block; meetings are detected by
comparing the halves.

Summaries travel as a ``SummaryBlock``, one column per field for B pairs,
from ``_run_block`` through ``run_ensemble``, ``write_summaries`` and
``read_summaries`` to the reports; ``PairTrajectorySummary`` is the view
of one pair, ``block[i]``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import stat
from dataclasses import dataclass, field, fields
from itertools import chain, islice

import numpy as np

from . import _native
from .graphs import (BiasedLadder, GraphError, Star, _is_int, _ragged,
                     check_reach, LADDER_ID_BITS as _LEVEL_BITS)
from .rng import (X_BASE, X_HOLD, X_MAIN, X_SKEL, X_TOOTH, Y_MAIN, Y_TOOTH,
                  fill, stream_keys)
from .stats import SchemaError, lil_threshold

SCRATCH = 1 << 16  # per window: walker-steps, clock values, JSONL bytes
# stream roles (x, y) of the two walkers of a pair, per construction
_ROLES = {"direct": (X_MAIN, Y_MAIN), "selfloop": (X_TOOTH, Y_TOOTH)}


class SimulationError(RuntimeError):
    """A walk left its allowed region."""


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------

def dyadic_checkpoints(n_steps):
    """Powers of two up to n_steps, plus n_steps itself."""
    if n_steps < 1:
        return ()
    ts = {1 << j for j in range(n_steps.bit_length()) if (1 << j) <= n_steps}
    ts.add(n_steps)
    return tuple(sorted(ts))


@dataclass(frozen=True)
class RecordPolicy:
    """What to keep besides meetings: checkpoint grid, envelope-violation
    times for each exponent alpha, and (ladder only) the last-visited spine
    position every ``spine_stride`` steps."""

    checkpoints: tuple = ()
    lil_alphas: tuple = ()
    spine_stride: int = 0

    def __post_init__(self):
        # what the summary writer and reader keep: int times, float alphas
        if not (all(map(_is_int, (*self.checkpoints, self.spine_stride)))
                and all(isinstance(a, (int, float)) and not isinstance(
                    a, bool) for a in self.lil_alphas)):
            raise ValueError("checkpoints and spine_stride must be ints and "
                             f"lil_alphas ints or floats, got {self}")
        # the envelope 2 (2n)^(1/(2 alpha)) is defined for alpha > 0 only
        if not all(a > 0 for a in self.lil_alphas) or self.spine_stride < 0:
            raise ValueError("lil_alphas must be > 0 and spine_stride >= 0, "
                             f"got {self.lil_alphas} and {self.spine_stride}")
        if list(self.checkpoints) != sorted(set(self.checkpoints)):
            raise ValueError("checkpoints must be strictly increasing")

    def resolved_checkpoints(self, n_steps):
        if self.checkpoints:
            return tuple(int(t) for t in self.checkpoints if 0 < t <= n_steps)
        return dyadic_checkpoints(n_steps)


# the keys every summary line has; any other top-level key is an extra
_KEYS = frozenset(("replica", "T", "meetings", "collisions", "checkpoints",
                   "final", "max_tooth", "method"))
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass
class PairTrajectorySummary:
    """One pair's run, as a ``SummaryBlock`` lists it (``block[i]``).  Its
    meetings are three columns: the times, the vertices (a list of
    coordinates each) and the signed tooth heights."""

    replica: int
    n_steps: int
    meetings: int
    times: list
    vertices: list
    heights: list
    checkpoints: list          # [(t, meetings up to t)]
    final_x: tuple
    final_y: tuple
    max_tooth_x: int
    max_tooth_y: int
    method: str = "direct"
    extras: dict = field(default_factory=dict)

    def to_json(self):
        """One line, the bytes of ``json.dumps(..., sort_keys=True,
        separators=(",", ":"))`` of the summary's JSON object, written
        directly; the extras go through that encoder."""
        meets = ",".join(
            f'{{"l":{l},"n":{n},"vertex":[{",".join(map(str, v))}]}}'
            for n, v, l in zip(self.times, self.vertices, self.heights))
        cps = ",".join(f'{{"meetings":{m},"t":{t}}}'
                       for t, m in self.checkpoints)
        x, y = (",".join(map(str, f)) for f in (self.final_x, self.final_y))
        parts = {"T": self.n_steps, "collisions": f"[{meets}]",
                 "checkpoints": f"[{cps}]", "final": f'{{"x":[{x}],"y":[{y}]}}',
                 "max_tooth": f'{{"x":{self.max_tooth_x},'
                              f'"y":{self.max_tooth_y}}}',
                 "meetings": self.meetings,
                 "method": _ENCODER.encode(self.method),
                 "replica": self.replica}
        parts.update((k, _ENCODER.encode(v)) for k, v in self.extras.items())
        return "{" + ",".join(f"{_ENCODER.encode(k)}:{parts[k]}"
                              for k in sorted(parts)) + "}"


def _split(rows, counts):
    """``rows``, a list or an array to list, in consecutive runs of
    ``counts`` items; numpy lists runs of one length > 0 itself."""
    if isinstance(rows, np.ndarray):
        if len(counts) and counts[0] > 0 and (counts == counts[0]).all():
            return rows.reshape(len(counts), -1).tolist()
        rows = rows.tolist()
    at = [0, *np.cumsum(counts).tolist()]
    return [rows[i:j] for i, j in zip(at, at[1:])]


@dataclass(eq=False)
class SummaryBlock:
    """The summaries of B pairs as columns.  One entry per pair:
    ``replica``, ``n_steps``, ``method``, ``meetings``, ``max_tooth`` ((B,
    2): x, y), ``dim``, the length of each of its vertices, and ``extras``,
    a dict each.  A ragged field is the rows of every entry in turn: the
    meetings' ``times`` and ``heights`` (``meet_len`` a pair), their
    ``coords`` (``dim`` a meeting), the ``checkpoints`` ((C, 2): t, meetings
    up to t; ``cp_len`` a pair), the ``finals`` (x then y, ``dim`` each).
    Iteration and ``block[i]`` give ``PairTrajectorySummary`` views."""

    replica: np.ndarray
    n_steps: np.ndarray
    method: np.ndarray
    meetings: np.ndarray
    max_tooth: np.ndarray
    times: np.ndarray
    heights: np.ndarray
    meet_len: np.ndarray
    coords: np.ndarray
    checkpoints: np.ndarray
    cp_len: np.ndarray
    finals: np.ndarray
    dim: np.ndarray
    extras: np.ndarray

    def __len__(self):
        return len(self.replica)

    def __getitem__(self, i):
        return next(islice(self, range(len(self))[i], None))

    def __iter__(self):
        """Each pair's view.  Every column is listed once per iteration,
        and ``block[i]`` iterates up to pair i: loop, do not index."""
        dims = np.repeat(self.dim, self.meet_len)       # one a meeting
        times, verts, heights = (_split(a, self.meet_len) for a in (
            self.times, _split(self.coords, dims), self.heights))
        cps = _split([*map(tuple, self.checkpoints.tolist())], self.cp_len)
        finals = [*map(tuple, _split(self.finals, np.repeat(self.dim, 2)))]
        tooth_x, tooth_y = self.max_tooth.T.tolist()
        return map(PairTrajectorySummary, self.replica.tolist(),
                   self.n_steps.tolist(), self.meetings.tolist(), times,
                   verts, heights, cps, finals[::2], finals[1::2], tooth_x,
                   tooth_y, self.method.tolist(), map(dict, self.extras))

    @classmethod
    def of(cls, views):
        """``views``, any iterable of ``PairTrajectorySummary``, as a
        block, a block its own; ValueError on vertices of two lengths."""
        if isinstance(views, cls):
            return views
        s = list(views)
        verts = [v for x in s for v in x.vertices]
        finals = [f for x in s for f in (x.final_x, x.final_y)]
        dims = [{*map(len, (*x.vertices, x.final_x, x.final_y))} for x in s]
        if {*map(len, dims)} - {1}:
            raise ValueError("a view's vertices and finals of two lengths")

        def ints(rows, *shape):                 # the items of the rows
            return np.array([*chain(*rows)], np.int64).reshape(-1, *shape)
        return cls(
            ints([x.replica] for x in s), ints([x.n_steps] for x in s),
            np.array([x.method for x in s], object),
            ints([x.meetings] for x in s),
            ints(((x.max_tooth_x, x.max_tooth_y) for x in s), 2),
            ints(x.times for x in s), ints(x.heights for x in s),
            ints([len(x.times)] for x in s), ints(verts),
            ints((x.checkpoints for x in s), 2),
            ints([len(x.checkpoints)] for x in s), ints(finals), ints(dims),
            np.array([x.extras for x in s], object))

    @classmethod
    def concat(cls, blocks):
        """The pairs of ``blocks``, in order, as one block."""
        blocks = list(blocks) or [cls.of(())]
        return cls(*(np.concatenate([getattr(b, f.name) for b in blocks])
                     for f in fields(cls)))


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """Write ``path`` through a temp file beside it, renamed over ``path``
    when the block completes; if the block raises, the old file stays and
    the temp file goes.  An existing device, pipe or symlink is written in
    place."""
    special = os.path.lexists(path) and not stat.S_ISREG(os.lstat(path).st_mode)
    tmp = path if special else f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", newline=newline)
    except OSError as exc:                 # name the file the caller gave
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
    except BaseException:
        if not special:
            os.unlink(tmp)
        raise
    if not special:
        os.replace(tmp, path)


def write_summaries(path, summaries):
    """A ``to_json`` line per summary: a block of canonical lines printed
    in one compiled pass (``_printed``), and every other block or iterable
    of views, or every block without the library, through ``to_json``."""
    lines = None
    if isinstance(summaries, SummaryBlock):
        with contextlib.suppress(_native.BuildError):
            lines = _printed(summaries, _native.library().jsonl_print)
    with atomic_open(path) as fh:
        fh.writelines(lines or (s.to_json() + "\n" for s in summaries))


def _summary(d):
    """One ``json.loads`` line's summary; KeyError, TypeError if malformed,
    as when a count, time, coordinate, stride or trace point is not an
    int64, the one number type the writer and the scanner know, when the
    vertices and finals are not all of one length, or when the ``lil`` or
    ``spine`` extra is not of the shape the reports read: one list of times
    per alpha, two traces of one length at a stride >= 1."""
    cols, final, tooth = d["collisions"], d["final"], d["max_tooth"]
    lil = d.get("lil", {"alphas": [], "times": []})
    spine = d.get("spine", {"stride": 1, "x": [], "y": []})
    vertices = [c["vertex"] for c in cols]
    cps = [(c["t"], c["meetings"]) for c in d["checkpoints"]]
    times, heights = [c["n"] for c in cols], [c["l"] for c in cols]
    lists = (*vertices, *lil["times"], lil["alphas"], spine["x"], spine["y"])
    ints = (d["replica"], d["T"], d["meetings"], tooth["x"], tooth["y"],
            *final["x"], *final["y"], *times, *heights, *chain(*cps),
            *chain(*vertices, *lil["times"], spine["x"], spine["y"]),
            spine["stride"])
    if {*map(type, lists)} - {list} or {*map(type, ints)} - {int} \
            or type(d.get("method", "direct")) is not str \
            or min(ints) < -2 ** 63 or max(ints) >= 2 ** 63 \
            or {*map(type, lil["alphas"])} - {int, float} \
            or len(lil["times"]) != len(lil["alphas"]) \
            or len(spine["x"]) != len(spine["y"]) or spine["stride"] < 1 \
            or {*map(len, (*vertices, final["y"]))} - {len(final["x"])}:
        raise TypeError(f"replica {d['replica']}: a count, time or coordinate "
                        "is not an int64, the method not a string, or a "
                        "vertex, final, lil or spine malformed")
    return PairTrajectorySummary(
        replica=d["replica"], n_steps=d["T"], meetings=d["meetings"],
        times=times, vertices=vertices, heights=heights, checkpoints=cps,
        final_x=tuple(final["x"]), final_y=tuple(final["y"]),
        max_tooth_x=tooth["x"], max_tooth_y=tooth["y"],
        method=d.get("method", "direct"),
        extras={k: v for k, v in d.items() if k not in _KEYS})


def _layout(rows):
    """Where each column of canonical lines sits among their ints, by
    field name, ``rows`` the lines' rows as ``jsonl_scan`` writes them:
    (end, checkpoints, meetings, vertex length).  A line's ints are T,
    (meetings, t) per checkpoint, (l, n, vertex) per meeting, the finals x
    then y, max_tooth x and y, meetings, replica."""
    end, nc, nm, vd = rows.T
    start = np.concatenate(([0], end))[:-1]     # after the line before
    c, w = start + 1 + 2 * nc, 2 + vd           # first meeting, its width
    meet = np.repeat(c, nm) + np.repeat(w, nm) * _ragged(0 * nm, nm)[0]
    cps = _ragged(start + 1, 2 * nc)[0].reshape(-1, 2)[:, ::-1]  # t, meetings
    return {"replica": end - 1, "n_steps": start, "meetings": end - 2,
            "max_tooth": end[:, None] - [4, 3], "times": meet + 1,
            "heights": meet, "checkpoints": cps,
            "coords": _ragged(meet + 2, np.repeat(vd, nm))[0],
            "finals": _ragged(c + w * nm, 2 * vd)[0]}


def _scanned(ints, rows):
    """The block of the lines ``jsonl_scan`` read into ``ints``, ``rows``
    their rows; each column gathered by ``_layout``, as a copy."""
    _, nc, nm, vd = rows.T
    return SummaryBlock(
        **{f: ints[at] for f, at in _layout(rows).items()}, meet_len=nm,
        cp_len=nc, dim=vd, method=np.full(len(rows), "direct", object),
        extras=np.full(len(rows), {}, object))


def _printed(b, jsonl_print):
    """Block ``b``'s lines, printed by ``jsonl_print`` from the ints that
    ``_layout`` places, in windows of about ``SCRATCH`` bytes; None if one
    is not direct or has extras, the two things ``FORM`` fixes."""
    if any(b.extras) or (b.method != "direct").any():
        return None
    nm, nc, vd = b.meet_len, b.cp_len, b.dim
    one = np.ones_like(nm)                      # items per line, by field
    per = {"replica": one, "n_steps": one, "meetings": one, "max_tooth": one,
           "times": nm, "heights": nm, "coords": vd * nm, "checkpoints": nc,
           "finals": 2 * vd, "ints": 5 + 2 * nc + (2 + vd) * nm + 2 * vd}
    at = {f: np.concatenate(([0], np.cumsum(k))) for f, k in per.items()}
    cum = at["ints"]        # windows: 2^-3 SCRATCH ints and up to a line
    cuts = np.unique(cum[:-1] // (SCRATCH // 8), return_index=True)[1]
    cuts = [*cuts.tolist(), len(nm)]
    out = np.empty(64 * int(np.diff(cum[cuts]).max(initial=0)), np.uint8)

    def window(i, j):
        rows = np.stack((cum[i + 1:j + 1] - cum[i], nc[i:j], nm[i:j],
                         vd[i:j]), 1)
        ints = np.empty(cum[j] - cum[i], np.int64)
        for f, to in _layout(rows).items():
            ints[to] = getattr(b, f)[at[f][i]:at[f][j]]
        size = jsonl_print(ints.ctypes.data, rows.ctypes.data, j - i,
                           out.ctypes.data)     # 64 bytes an int at most
        return out[:size].tobytes().decode()
    return map(window, cuts, cuts[1:])


def read_summaries(path):
    """The summaries of a JSONL file as one ``SummaryBlock``, a pair per
    non-blank line as text mode splits it.  ``_native.jsonl_scan`` reads
    about ``SCRATCH`` bytes of whole lines at a time, ``to_json``'s own
    form straight into columns; any other line, or every line without the
    library, goes through json and ``_summary``, and one they refuse is a
    SchemaError naming its file line."""
    blocks, scan = [], lambda *args: None       # no library: rows stay -1
    with contextlib.suppress(_native.BuildError):
        scan = _native.library().jsonl_scan
    with open(path, "rb") as fh:
        at = 0                                  # file lines before `lines`
        for lines in iter(functools.partial(fh.readlines, SCRATCH), []):
            win, rows = b"".join(lines), np.full((len(lines), 4), -1, np.int64)
            ints = np.empty(len(win) // 2 + 1, np.int64)  # 2 bytes an int
            scan(win, len(win), ints.ctypes.data, rows.ctypes.data)
            ends = rows[:, 0].tolist()
            blocks.append(_scanned(ints, rows[rows[:, 0] >= 0]))
            if min(ends) < 0:       # the window's lines in order, as views
                scanned, views = iter(blocks.pop()), []
                for k, (line, end) in enumerate(zip(lines, ends), at + 1):
                    if end >= 0:
                        views.append(next(scanned))
                        continue
                    try:
                        views.extend(_summary(json.loads(s)) for s in (
                            b.decode().strip() for b in line.splitlines()) if s)
                    except (ValueError, KeyError, TypeError) as exc:
                        raise SchemaError(
                            f"{path}:{k}: malformed summary: {exc}") from None
                blocks.append(SummaryBlock.of(views))
            at += len(lines)
    return SummaryBlock.concat(blocks)


# ---------------------------------------------------------------------------
# per-family kernels
#
# A kernel holds `width` independent walkers.  `pos[i]` is the (coords, width)
# int64 state after step i of the current window; row 0 is the state the
# window starts from.  `draws` has one entry per channel a step reads:
# None for a uniform double, `high` for an integer word in [0, high) (the
# ladder's midpoint identities); channel c reads stream role + c.
# `advance(us, L)` fills rows 1..L from an (L, width) array per channel,
# row i the draws of step i, consumed every step even when a walker's
# branch ignores them.  `observe` folds in the graph's `depth` every
# window; `_run_block` reads the rest of the vertex model off the graph.
# ---------------------------------------------------------------------------

class _KernelBase:
    draws = (None,)

    def __init__(self, graph, start, width, rows):
        self.graph = graph
        self.pos = np.empty((rows + 1, len(start), width), dtype=np.int64)
        self.pos[0] = np.asarray(start, dtype=np.int64)[:, None]

    def watch(self):
        """Allocate the buffers ``observe`` writes (not for a marginal)."""
        rows, _, width = self.pos.shape
        self.max_depth = self.graph.depth(self.pos[0])  # from time 0 on
        self.hits = np.empty(((rows - 1) * (width // 2), 2), dtype=np.int32)
        self.d_max = np.zeros(1, dtype=np.int64)

    def observe(self, L):
        """The compiled observer of rows 1 .. L of ``pos``: returns the
        count n of meetings of walkers b and B + b, writes their (row - 1,
        b) to ``hits[:n]`` and folds the depths into ``max_depth`` and
        ``d_max[0]``."""
        if not 0 <= L < len(self.pos):
            raise ValueError(f"a window of {L} rows past the history")
        return _native.library().observe(
            self.pos.ctypes.data, *self.pos.shape[1:],
            self.graph.depth_coords, self.max_depth.ctypes.data,
            self.hits.ctypes.data, self.d_max.ctypes.data, L)


class _CombKernel(_KernelBase):
    """Every `graphs.Product`: comb and comb2 over a line, cycle or single
    edge, the bare base (no teeth: every vertex is on the spine), grid2d
    (two teeth on no base: every class is a tooth move), and the lazy
    construction.  The base modulus m sets the base move: a step on the
    line (m = 0), a flip on the single edge (m = 2), a step mod m on a
    cycle.

    Coordinates are (base, tooth...).  Classes at the spine, in order: the
    base moves (b-, b+, or the single edge flip), then -, + for each tooth
    coordinate.  Off the spine: -, + for each tooth coordinate.  ``advance``
    steps a window of uniforms in one call of the compiled ``comb_step``
    (see :mod:`._native`), which takes each class from its uniform.

    The lazy construction (comb only) runs the tooth as a walk on the
    integers with a self-loop of probability d/(d+2) at 0; each self-loop
    event moves an independent base walk one step: the loops are the steps
    that change the base.  The assembled pair (base position, tooth height)
    has exactly the direct comb law.  Channel 0 drives the tooth, channel 1
    the base move, the latter consumed even on steps with no base move.  The
    single edge has no channel 1: the hold itself flips the base.  Holds are
    base-move classes: for d = nb = 1, 2, (int)(u (d + 2)) >= d, d + 1 just
    where u >= d/(d+2), (d+1)/(d+2), on every double a fill writes.
    """

    def __init__(self, graph, start, width, rows, lazy=False):
        super().__init__(graph, start, width, rows)
        self.lazy = lazy
        if lazy and graph.base_degree == 2:
            self.draws = (None, None)
        self._step = _native.library().comb_step

    def advance(self, us, L):
        u0, width, g = us[0], self.pos.shape[2], self.graph
        if L >= len(self.pos) or len(us) != len(self.draws) or any(
                u.dtype != np.float64 or u.shape != (L, width)
                or u.strides != (u0.strides[0], 8) for u in us):
            raise ValueError("want a unit-stride float64 row per step")
        self._step(u0.ctypes.data, us[1].ctypes.data if len(us) > 1 else None,
                   u0.strides[0] // 8, self.pos.ctypes.data, width,
                   L, g.dim, g.base_degree, g.m or 0)


class _StarKernel(_KernelBase):
    """The walker alternates between the hub and a uniform leaf."""

    def advance(self, us, L):
        leaf = 1 + (us[0] * self.graph.k).astype(np.int64)
        at_hub = (np.arange(L) % 2 == 0)[:, None] == (self.pos[0, 0] == 0)
        self.pos[1:L + 1, 0] = np.where(at_hub, leaf, 0)


class _LadderKernel(_KernelBase):
    """Half-line spine with 2^n two-step bridges between levels n and n+1.

    Coordinates are (kind, level, midpoint index).  A step looks up the
    state's row of ``_THR``, three class thresholds: row 0 is spine(0),
    (0, 1/2, 1/2); row n >= 1 is spine(n), (s/E, 2s/E, (2s+1)/E) with
    s = 2^(1-n) and E = 2s + 3, for classes spine(n-1), spine(n+1) and a
    midpoint at level n-1 or n, weighted 1, 1, 2^(n-1), 2^n; the last row
    is a midpoint, (1/2, 2, 2): spine(l) or spine(l+1), half each.  The
    class j is the number of thresholds the uniform reaches (u >= t); the
    next state is a midpoint iff j >= 2, and the level moves by
    ``_MOVE[kind, j]``.  Spine rows stop at 1076: s/E is 0 from level 1075,
    2s/E from 1076, and (2s+1)/E is constant from 55, so row min(n, 1076)
    holds the floats of the formula at every level.

    Midpoint identities are drawn as the low min(n, 62) bits of a 62-bit
    integer per step, channel 1; beyond 62 bits distinct identities are
    truncated together (the quotient `BiasedLadder` documents), which
    distorts meeting chances at those levels by at most 2^-62 per step.
    """

    draws = (None, 1 << _LEVEL_BITS)
    _s = np.exp2(1.0 - np.arange(1, 1077))          # s of rows 1 .. 1076
    _THR = np.vstack([(0.0, 0.5, 0.5),
                      np.column_stack([_s, 2.0 * _s, 2.0 * _s + 1.0])
                      / (2.0 * _s + 3.0)[:, None],
                      (0.5, 2.0, 2.0)])
    _MOVE = np.array([[-1, 1, -1, 0], [0, 1, 0, 0]])

    def advance(self, us, L):
        (u0, raw), pos, thr, mid = us, self.pos, self._THR, len(self._THR) - 1
        for i, u in enumerate(u0):
            kind, n = pos[i, 0], pos[i, 1]
            row = np.where(kind == 1, mid, np.minimum(n, mid - 1))
            j = (u[:, None] >= thr[row]).sum(axis=1)
            pos[i + 1, 0] = j >= 2
            pos[i + 1, 1] = n + self._MOVE[kind, j]
        kind, n = pos[1:L + 1, 0], pos[1:L + 1, 1]
        lvl = np.minimum(n, _LEVEL_BITS)
        pos[1:L + 1, 2] = np.where(kind == 1, raw & ((np.int64(1) << lvl) - 1), 0)


def _make_kernel(graph, start, width, method, n_steps):
    # steps per window: whole Philox blocks, at most SCRATCH walker-steps
    rows = max(1, min(n_steps, max(4, SCRATCH // width // 4 * 4)))
    if method == "selfloop":
        if graph.dim != 1 or graph.m is None:      # Z teeth on a base
            raise GraphError("self-loop construction needs a comb graph")
        return _CombKernel(graph, start, width, rows, lazy=True)
    if method != "direct":
        raise ValueError(f"unknown construction: {method!r}")
    if graph.dim is not None:
        return _CombKernel(graph, start, width, rows)
    for gcls, kcls in ((Star, _StarKernel), (BiasedLadder, _LadderKernel)):
        if isinstance(graph, gcls):
            return kcls(graph, start, width, rows)
    raise GraphError(f"no sampler for family {graph.family}")


# ---------------------------------------------------------------------------
# block driver
# ---------------------------------------------------------------------------

def _check_steps(n_steps):
    """The one check of ``n_steps`` that every sampler entry point passes."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")


def _batches(replicas, size, n_steps):
    """Replicas 0 .. replicas - 1 as consecutive ranges of at most
    ``size``, after the one check of ``replicas`` and ``n_steps`` that
    every batched entry point passes.  Every replica reads only its own
    keyed streams, so the grouping changes memory and wall time, never
    the output."""
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    _check_steps(n_steps)
    return [range(lo, min(lo + size, replicas))
            for lo in range(0, replicas, size)]


def _start(graph, start, n_steps):
    """``start``, or the family root if None, through `check_reach`."""
    return check_reach(graph, graph.root if start is None else start, n_steps)


def _stream_keys(kernel, seed, replicas, roles):
    """Keys of the streams of each of the kernel's channels: channel c
    reads stream role + c.  Row j is walker j: ``roles[j // B]`` of
    replica ``replicas[j % B]``, B = len(replicas)."""
    return [np.concatenate([stream_keys(seed, replicas, role + c)
                            for role in roles])
            for c in range(len(kernel.draws))]


def _windows(kernel, keys, n_steps):
    """Advance the kernel's walkers ``n_steps`` steps, walker j drawing
    from the streams keyed ``keys[...][j]`` (see ``_stream_keys``).

    A window is one fill: each channel draws a row per step into a buffer
    as long as the kernel's history (at most ``SCRATCH`` values), and the
    kernel steps on all of it.  Yields ``(n0, L)`` after each window,
    while ``kernel.pos[1:L + 1]`` holds the states after steps n0 + 1 ..
    n0 + L; once exhausted, ``kernel.pos[0]`` is the final state.
    """
    rows, width = len(kernel.pos) - 1, kernel.pos.shape[2]
    bufs = [np.empty((rows, width), np.float64 if high is None else np.int64)
            for high in kernel.draws]
    for n0 in range(0, n_steps, rows):
        L = min(rows, n_steps - n0)
        for buf, k, high in zip(bufs, keys, kernel.draws):
            fill(k, n0, buf[:L], high)
        kernel.advance([b[:L] for b in bufs], L)
        yield n0, L
        kernel.pos[0] = kernel.pos[L]


def _run_block(graph, start, n_steps, seed, replicas, record, method,
               truncation_radius=None):
    """Simulate one block of replica pairs; returns their SummaryBlock.

    The two walkers of the ``B`` pairs run as columns ``b`` and ``B + b``
    of one kernel.  One ``observe`` call per window finds the meetings
    and depths; the other observers read each window of states at once
    and carry nothing to the next window but the history's row 0.
    """
    if (truncation_radius or 0) < 0:
        raise ValueError(
            f"truncation_radius must be >= 0, got {truncation_radius}")
    B = len(replicas)
    kernel = _make_kernel(graph, start, 2 * B, method, n_steps)
    cps = record.resolved_checkpoints(n_steps)
    stride, lil_alphas = int(record.spine_stride), tuple(record.lil_alphas)
    if stride and not isinstance(graph, BiasedLadder):
        raise GraphError(f"{graph.family} has no spine trace to record")
    if lil_alphas and not graph.depth_coords:
        raise GraphError(f"{graph.family} has no depth to test an envelope on")
    keys = _stream_keys(kernel, seed, replicas, _ROLES[method])

    kernel.watch()
    # per window: times, columns, vertices of the meetings
    nil = np.zeros(0, dtype=np.int64)
    hits = [(nil, nil, np.zeros((0, kernel.pos.shape[1]), np.int64))]
    cp = np.array(cps, dtype=np.int64)
    lil_keys = [[nil] for _ in lil_alphas]
    if stride:
        spine_rows = [kernel.pos[:1, 1].astype(np.int32)]   # time 0

    for n0, L in _windows(kernel, keys, n_steps):
        p = kernel.pos[1:L + 1]
        n_hits = kernel.observe(L)
        if n_hits:
            rows, cols = kernel.hits[:n_hits].T.astype(np.int64)
            hits.append((rows + n0 + 1, cols, p[rows, :, cols]))

        for a, keys in zip(lil_alphas, lil_keys):
            thr = lil_threshold(np.arange(n0 + 1, n0 + L + 1, dtype=float), a)
            # the envelope rises with n: test its low end first
            if kernel.d_max[0] > thr[0]:
                over = graph.depth(p.swapaxes(0, 1)) > thr[:, None]
                # one key per pair and step, whichever walker is over
                r, c = np.nonzero(over[:, :B] | over[:, B:])
                keys.append(c * (n_steps + 1) + r + n0 + 1)

        if truncation_radius is not None:
            out = graph.distance(p.swapaxes(0, 1)) > truncation_radius
            if out.any():
                r, col = divmod(int(np.argmax(out)), out.shape[1])
                raise SimulationError(
                    f"replica {replicas[col % B]} left the "
                    f"radius-{truncation_radius} ball at step {n0 + r + 1}")

        if stride:
            # a midpoint's neighbours are spine vertices: on a midpoint the
            # last spine level is the level one step back
            last = np.where(p[:, 0] == 0, p[:, 1], kernel.pos[:L, 1])
            spine_rows.append(last[(-n0 - 1) % stride::stride].astype(np.int32))

    times, cols, verts = (np.concatenate(a) for a in zip(*hits))
    # meetings of each pair up to each checkpoint, and in all
    counts = np.array([np.bincount(cols[times <= t], minlength=B)
                       for t in (*cps, n_steps)]).T
    # the meeting columns in replica order, then in time order
    order = np.argsort(cols, kind="stable")
    times, verts = times[order], verts[order]
    final, D = kernel.pos[0].T, kernel.pos.shape[1]     # walker j's state
    extras = {}                  # name: one value per pair
    if lil_alphas:
        times_of = []           # per alpha, each pair's violation times
        for keys in lil_keys:
            b_of, n_of = np.divmod(np.sort(np.concatenate(keys)), n_steps + 1)
            times_of.append(_split(n_of, np.bincount(b_of, minlength=B)))
        extras["lil"] = [{"alphas": list(lil_alphas), "times": list(ts)}
                         for ts in zip(*times_of)]
    if stride:
        spine = np.concatenate(spine_rows).T.tolist()
        extras["spine"] = [{"stride": stride, "x": x, "y": y}
                           for x, y in zip(spine[:B], spine[B:])]
    return SummaryBlock(
        replica=np.asarray(replicas, np.int64), meetings=counts[:, -1],
        n_steps=np.full(B, n_steps, np.int64), dim=np.full(B, D),
        method=np.full(B, method, object), cp_len=np.full(B, len(cps)),
        max_tooth=kernel.max_depth.reshape(2, B).T, coords=verts.ravel(),
        times=times, heights=graph.height(verts.T), meet_len=counts[:, -1],
        checkpoints=np.stack([np.tile(cp, B), counts[:, :-1].ravel()], 1),
        finals=np.stack([final[:B], final[B:]], 1).ravel(),
        extras=np.array([dict(zip(extras, v)) for v in zip(
            *extras.values())] or [{}] * B, object))


def run_pair(graph, start=None, n_steps=0, seed=0, replica=0, record=None,
             method="direct", truncation_radius=None):
    """Simulate one pair of independent walks for ``n_steps`` steps: pair
    ``replica`` of ``run_ensemble`` with the same ``seed``, its walkers on
    the streams the role table in :mod:`.rng` gives the construction."""
    start = _start(graph, start, n_steps)
    _check_steps(n_steps)
    return _run_block(graph, start, n_steps, seed, [replica],
                      record or RecordPolicy(), method, truncation_radius)[0]


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

_BLOCK = 512              # replica pairs per block of run_ensemble


def run_ensemble(graph, start=None, n_steps=0, replicas=1, seed=0, workers=1,
                 record=None, method="direct", truncation_radius=None):
    """Simulate ``replicas`` independent pairs and return their summaries
    in replica order, as one SummaryBlock.

    Replica r always uses the streams keyed (seed, r, role), and draws are
    chunked identically in every process, so the result is a pure function
    of (graph, start, n_steps, replicas, seed, record): worker count changes
    wall time only.
    """
    start = _start(graph, start, n_steps)
    blocks = _batches(replicas, _BLOCK, n_steps)
    run = functools.partial(_run_block, graph, start, n_steps, seed,
                            record=record or RecordPolicy(), method=method,
                            truncation_radius=truncation_radius)
    if workers <= 1 or len(blocks) == 1:
        return SummaryBlock.concat(map(run, blocks))
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(blocks))) as pool:
        return SummaryBlock.concat(pool.map(run, blocks))


# ---------------------------------------------------------------------------
# geometric-clock construction
# ---------------------------------------------------------------------------

_MARGINAL_BATCH = 8192    # replicas per batch of a direct or selfloop marginal


def _draws(seed, replicas, stream, n):
    """(n, len(replicas)) uniforms: column j holds the first n draws of
    stream (seed, replicas[j], stream)."""
    out = np.empty((n, len(replicas)))
    fill(stream_keys(seed, replicas, stream), 0, out)
    return out


def _clock(d, seed, replicas, T, first=0):
    """``(reps, _clock_arrays)`` of the undelayed-walk and holding-time
    streams over horizon T of replicas first .. first + replicas - 1, in
    batches ``reps`` of (T + 3)-row arrays of at most ``SCRATCH`` values."""
    _check_steps(T)                        # before T + 3 divides
    for reps in _batches(replicas, max(1, SCRATCH // (T + 3)), T):
        reps = range(first + reps.start, first + reps.stop)
        yield reps, _clock_arrays(d, _draws(seed, reps, X_SKEL, T),
                                  _draws(seed, reps, X_HOLD, T + 2))


def _clock_arrays(d, us, ug):
    """Vectorized clock bookkeeping for tooth walks of length T, one per
    column of the (T, width) step uniforms ``us`` and (T + 2, width) hold
    uniforms ``ug``.

    Returns dict of (T + 1, width) int64 arrays: the delayed tooth path
    V, loop counts K, revisit counts H, and holding-time sums R, plus the
    undelayed path S, per-visit holds G, the delayed time tau[m] at which
    undelayed step m completes, and sigma[n], the last undelayed step done
    by delayed time n.  Memory is O(T * width); meant for moderate
    horizons, not the chunked long runs.  ValueError if d < 1.
    """
    if d < 1:
        raise ValueError(f"base degree must be >= 1, got {d}")
    T, width = us.shape
    q = d / (d + 2.0)
    S = np.zeros((T + 1, width), dtype=np.int64)
    np.cumsum(np.where(us < 0.5, -1, 1), axis=0, out=S[1:])

    # visit ordinals: ordinal 0 is the start at time 0, later ordinals are
    # revisits S_i = 0, i >= 1.  VA[i] = number of visits with time <= i.
    VA = np.empty((T + 1, width), dtype=np.int64)
    VA[0] = 1
    np.cumsum(S[1:] == 0, axis=0, out=VA[1:])
    VA[1:] += 1

    # holds: G[j] belongs to visit ordinal j; inverse-cdf geometric with
    # P[G = k] = q^k (1 - q), using 1-u in (0,1] so log stays finite
    G = np.floor(np.log1p(-ug) / math.log(q))
    G = G.astype(np.int64)
    Gpref = np.zeros((T + 3, width), dtype=np.int64)
    np.cumsum(G, axis=0, out=Gpref[1:])

    # tau[m] = delayed time when undelayed step m completes
    tau = np.empty((T + 1, width), dtype=np.int64)
    tau[0] = 0
    tau[1:] = np.arange(1, T + 1, dtype=np.int64)[:, None]
    tau[1:] += np.take_along_axis(Gpref, VA[:T], axis=0)

    # sigma[n] = #{m : tau[m] <= n} - 1: tau rises strictly in each column,
    # so a count of completions per time (row T + 1 takes the later ones)
    # summed over time
    done = np.zeros((T + 2, width), dtype=bool)
    np.put_along_axis(done, np.minimum(tau, T + 1), True, axis=0)
    sigma = np.cumsum(done[:T + 1], axis=0, dtype=np.int64)
    sigma -= 1
    ns = np.arange(T + 1, dtype=np.int64)
    V = np.take_along_axis(S, sigma, axis=0)
    K = ns[:, None] - sigma
    H = np.take_along_axis(VA, ns[:, None] // 2, axis=0) - 1
    R = np.take_along_axis(Gpref, H + 1, axis=0) - Gpref[1]
    return {"S": S, "G": G, "V": V, "K": K, "H": H, "R": R, "sigma": sigma,
            "tau": tau}


def geometric_clock_path(d, n_steps, seed=0, replica=0):
    """Single delayed tooth walk built from an undelayed walk plus holds.

    Returns 1-d arrays S, V, K, H, R (and the holds G): V is the lazy tooth
    walk with self-loop d/(d+2) at 0, K counts its self-loop steps, H counts
    undelayed revisits to 0 up to half time, R sums the holds of those
    revisits.  Either K_n >= R_n or K_n >= n/2 holds at every n.
    """
    (_, arrs), = _clock(d, seed, 1, n_steps, first=replica)
    return {k: v[:, 0] for k, v in arrs.items()}


def clock_dichotomy_violations(d, n_steps, replicas, seed=0):
    """Count (replica, time) pairs violating K_n >= R_n or K_n >= n/2.

    Replica r is ``geometric_clock_path(d, n_steps, seed, r)``;
    ``SCRATCH`` bounds the values held at once, whatever the replica
    count, and does not change the count."""
    bad = checked = 0
    for _, arrs in _clock(d, seed, replicas, n_steps):
        ns = np.arange(n_steps + 1, dtype=np.int64)[:, None]
        ok = (arrs["K"] >= arrs["R"]) | (2 * arrs["K"] >= ns)
        bad += int((~ok).sum())
        checked += ok.size
    return bad, checked


def sample_marginal(graph, n_steps, replicas, seed=0, method="direct",
                    start=None):
    """Positions of a single walk at time ``n_steps`` for many replicas.

    The three constructions must produce the same marginal law; this is the
    hook the distribution tests use.  Returns an (replicas, k) int64 array
    of coordinate tuples.  Replica r reads only streams keyed (seed, r,
    role), so the batches (``_clock``, ``_MARGINAL_BATCH``) bound
    memory and do not change the output.
    """
    start = _start(graph, start, n_steps)
    if method == "clock":
        if graph.dim != 1 or graph.m is None:
            raise GraphError("clock construction needs a comb graph")
        if start[1] != 0:
            raise GraphError("clock construction starts on the spine")
        cols = []
        for reps, arrs in _clock(graph.base_degree, seed, replicas, n_steps):
            K = arrs["K"][n_steps]
            V = arrs["V"][n_steps]
            # base walk advanced once per self-loop event
            if graph.m == 2:
                b = (start[0] + K) % 2
            else:
                bsteps = np.where(_draws(seed, reps, X_BASE, n_steps) < 0.5,
                                  -1, 1)
                bpath = np.zeros((n_steps + 1, len(reps)), dtype=np.int64)
                np.cumsum(bsteps, axis=0, out=bpath[1:])
                b = start[0] + np.take_along_axis(bpath, K[None, :], axis=0)[0]
                if graph.m:
                    b %= graph.m
            cols.append(np.stack([b, V], axis=1))
        return np.concatenate(cols, axis=0)

    out = []
    for reps in _batches(replicas, _MARGINAL_BATCH, n_steps):
        kernel = _make_kernel(graph, start, len(reps), method, n_steps)
        keys = _stream_keys(kernel, seed, reps, _ROLES[method][:1])
        for _ in _windows(kernel, keys, n_steps):
            pass
        out.append(kernel.pos[0].T)
    return np.concatenate(out, axis=0)
