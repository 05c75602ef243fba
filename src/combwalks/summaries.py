"""Pair summaries: a block of pairs as columns, the view of one pair, and
their JSONL lines.

A ``SummaryBlock`` holds the summaries of B pairs, one column per field;
``PairTrajectorySummary`` is the view of one pair, ``block[i]``.
``write_summaries`` prints a block's lines with ``_native.jsonl_print``,
and ``read_summaries`` reads them back into columns with
``_native.jsonl_scan``: both walk the one template ``FORM``.  A line the
template does not take is read through json.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import stat
from dataclasses import dataclass, field, fields
from itertools import chain, islice

import numpy as np

from . import _native
from .graphs import _ragged
from .stats import SchemaError

SCRATCH = 1 << 16  # bytes a window: the reader's lines, the writer's ints

# the keys every summary line has; any other top-level key is an extra
_KEYS = frozenset(("replica", "T", "meetings", "collisions", "checkpoints",
                   "final", "max_tooth", "method"))
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
# what FORM can print: the sampler's constructions, in the order of its
# method groups (see _native), and the keys of each extra
_METHODS, _EXTRAS = np.array(["direct", "selfloop"], object), {
    "lil": {"alphas", "times"}, "spine": {"stride", "x", "y"}}
# a block's int columns, one per field, each placed by _layout
_COLUMNS = ("replica", "n_steps", "meetings", "max_tooth", "times",
            "heights", "coords", "checkpoints", "finals")


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
    """One line per pair of ``summaries``, a block or views gathered into
    one: the bytes of ``json.dumps(..., sort_keys=True, separators=(",",
    ":"))`` of its JSON object, printed from the columns by the compiled
    ``jsonl_print`` (``_printed``).  BuildError without the library and
    ValueError for a line the template cannot print, both before ``path``
    is touched."""
    lines = _printed(SummaryBlock.of(summaries), _native.library().jsonl_print)
    with atomic_open(path) as fh:
        fh.writelines(lines)


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
    """Where each field of summary lines sits among their ints, ``rows``
    the lines' rows as ``jsonl_scan`` writes them: (start, end,
    checkpoints, meetings, vertex length, lil times lists, spine points,
    then 0 for its method and -1 for the others in ``_METHODS``; -1: no
    lil, no spine).  A line's ints are T, (meetings, t) per checkpoint,
    (l, n, vertex) per meeting, the finals x then y, the lil extra (its
    alphas' span, then each times list's length and times), max_tooth x
    and y, meetings, replica, and the spine extra (stride, x, y)."""
    start, end, nc, nm, vd, _, ns = rows[:, :7].T
    c, w = start + 1 + 2 * nc, 2 + vd           # first meeting, its width
    meet = np.repeat(c, nm) + np.repeat(w, nm) * _ragged(0 * nm, nm)[0]
    cps = _ragged(start + 1, 2 * nc)[0].reshape(-1, 2)[:, ::-1]  # t, meetings
    lil = c + w * nm + 2 * vd                   # after the finals
    tail = end - 4 - np.maximum(2 * ns + 1, 0)  # max_tooth x on
    at = {"n_steps": start, "checkpoints": cps, "times": meet + 1,
          "heights": meet, "coords": _ragged(meet + 2, np.repeat(vd, nm))[0],
          "finals": _ragged(c + w * nm, 2 * vd)[0],
          "max_tooth": tail[:, None] + [0, 1], "meetings": tail + 2,
          "replica": tail + 3}
    if rows[:, 5:7].max(initial=-1) >= 0:       # the extras, where a line has
        at["lil"], at["spine"] = (_ragged(lo, hi - lo)[0] for lo, hi in (
            (lil, tail), (tail + 4, end)))
    return at


def _extras(win, ints, rows, ok):
    """The extras of the lines of ``win`` that ``jsonl_scan`` read into
    ``ints`` (``ok``), ``rows`` their rows: a dict each.  A line that json
    and ``_summary`` would read otherwise or refuse leaves ``ok``, for
    json: one of two methods, lil alphas that are not JSON numbers or not
    one per times list, a spine stride below 1."""
    ok &= rows[:, 7:].sum(axis=1) == 1 - len(_METHODS)  # one method matched
    out = np.full(len(rows), {}, object)
    has = np.flatnonzero(ok & (np.maximum(rows[:, 5], rows[:, 6]) >= 0))
    if not len(has):
        return out
    at = _layout(rows[has])
    lil, spine = (iter(ints[at[f]].tolist()) for f in ("lil", "spine"))
    alphas = {}                                 # by their text, parsed once
    for i, (na, ns) in zip(has.tolist(), rows[has, 5:7].tolist()):
        e = out[i] = {}
        if na >= 0:
            text = win[next(lil):next(lil)]
            if text not in alphas:
                with contextlib.suppress(ValueError):
                    alphas[text] = json.loads(b"[" + text + b"]")
            e["lil"] = {"alphas": list(alphas.get(text, ())), "times": [
                list(islice(lil, next(lil))) for _ in range(na)]}
            ok[i] = len(alphas.get(text, ())) == na and text in alphas
        if ns >= 0:
            e["spine"] = {"stride": next(spine), "x": list(islice(spine, ns)),
                          "y": list(islice(spine, ns))}
            ok[i] &= e["spine"]["stride"] >= 1
    return out


def _scanned(ints, rows, extras):
    """The block of lines that ``jsonl_scan`` read into ``ints``, ``rows``
    their rows and ``extras`` their extras; each column gathered by
    ``_layout``, as a copy."""
    at = _layout(rows)
    return SummaryBlock(
        **{f: ints[at[f]] for f in _COLUMNS}, cp_len=rows[:, 2],
        meet_len=rows[:, 3], dim=rows[:, 4], extras=extras,
        method=_METHODS[rows[:, 7:].argmax(axis=1)])


def _printed(b, jsonl_print):
    """Block ``b``'s lines, printed by ``jsonl_print`` from the ints that
    ``_layout`` places, in windows of about ``SCRATCH`` bytes.  ValueError
    for a line that ``FORM`` cannot print or the reader would refuse: a
    method it does not name, extras other than ``lil`` and ``spine``, or
    those not of the shape ``_summary`` reads; their ints go through
    int64, as the block's own columns do.  It names the replica, method,
    extra and defect, and no values."""
    methods = np.equal.outer(b.method, _METHODS) - 1
    na, ns, n_lil, n_spine, span = np.array([[-1], [-1], [0], [0], [0]]
                                            ).repeat(len(b), 1)
    lil, spine, text, at = [], [], b"", {}  # the extras' ints, alphas' JSON
    unnamed = methods.max(axis=1) < 0
    odd = unnamed | b.extras.astype(bool)
    for i, e in zip(np.flatnonzero(odd).tolist(), b.extras[odd]):
        name, why = None, "not direct or selfloop"     # what fails, and how
        try:
            if unnamed[i]:
                raise TypeError
            for name, v in e.items():
                why = "not lil or spine, or other members"
                if _EXTRAS.get(name) != {*v}:
                    raise TypeError
            if "lil" in e:
                name, why = "lil", "alphas not one number per times list"
                a, ts = e["lil"]["alphas"], e["lil"]["times"]
                if len(a) != len(ts) or {*map(type, a)} - {int, float}:
                    raise TypeError
                key = (*map(id, a),)    # the same objects, the same JSON
                if key not in at:
                    js = _ENCODER.encode(a)[1:-1].encode()
                    at[key], text = (len(text), len(text) + len(js)), text + js
                why = "times not lists of int64 ints"
                lil.append(np.array([*at[key], *chain(*(
                    (len(t), *t) for t in ts))], np.int64))
                na[i], n_lil[i] = len(ts), len(lil[-1])
                span[i] = at[key][1] - at[key][0]
            if "spine" in e:
                name, why = "spine", "stride < 1, or len(x) != len(y)"
                x, y, stride = (e["spine"][k] for k in ("x", "y", "stride"))
                if len(x) != len(y) or stride < 1:
                    raise TypeError
                why = "x and y not lists of int64 ints"
                spine.append(np.array([stride, *x, *y], np.int64))
                ns[i], n_spine[i] = len(x), len(spine[-1])
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ValueError(
                f"replica {b.replica[i]}: the template cannot print method "
                f"{b.method[i]!r}" + (f" with extra {name!r}" if name else "")
                + f": {why}") from None
    vals = {f: getattr(b, f) for f in _COLUMNS}
    vals["lil"], vals["spine"] = (np.concatenate([np.empty(0, np.int64), *a])
                                  for a in (lil, spine))
    nm, nc, vd = b.meet_len, b.cp_len, b.dim
    one = np.ones_like(nm)                      # items per line, by field
    per = {"replica": one, "n_steps": one, "meetings": one, "max_tooth": one,
           "times": nm, "heights": nm, "coords": vd * nm,
           "checkpoints": nc, "finals": 2 * vd, "lil": n_lil,
           "spine": n_spine}
    at = {f: np.concatenate(([0], np.cumsum(k))) for f, k in per.items()}
    cum = np.concatenate(([0], np.cumsum(
        5 + 2 * nc + (2 + vd) * nm + 2 * vd + n_lil + n_spine)))
    # windows: 2^-3 SCRATCH ints and up to a line; 64 bytes an int at
    # most, and each lil line's copy of its alphas
    cuts = np.unique(cum[:-1] // (SCRATCH // 8), return_index=True)[1]
    cuts = [*cuts.tolist(), len(nm)]
    size = 64 * cum + np.concatenate(([0], np.cumsum(span)))
    out = np.empty(int(np.diff(size[cuts]).max(initial=0)), np.uint8)

    def window(i, j):
        rows = np.column_stack((cum[i:j] - cum[i], cum[i + 1:j + 1] - cum[i],
                                nc[i:j], nm[i:j], vd[i:j], na[i:j], ns[i:j],
                                methods[i:j]))
        ints = np.empty(cum[j] - cum[i], np.int64)
        for f, to in _layout(rows).items():
            ints[to] = vals[f][at[f][i]:at[f][j]]
        size = jsonl_print(ints.ctypes.data, rows.ctypes.data, j - i, text,
                           out.ctypes.data)
        return out[:size].tobytes().decode()
    return map(window, cuts, cuts[1:])


def _parsed(path, lines, k):
    """The block of ``lines``, the first line ``k`` of file ``path``,
    through json and ``_summary``; a line they refuse is a SchemaError
    naming its file line."""
    views = []
    for k, line in enumerate(lines, k):
        try:
            views.extend(_summary(json.loads(s)) for s in (
                b.decode().strip() for b in line.splitlines()) if s)
        except (ValueError, KeyError, TypeError) as exc:
            raise SchemaError(f"{path}:{k}: malformed summary: {exc}") from None
    return SummaryBlock.of(views)


def read_summaries(path):
    """The summaries of a JSONL file as one ``SummaryBlock``, a pair per
    non-blank line as text mode splits it.  ``_native.jsonl_scan`` reads
    about ``SCRATCH`` bytes of whole lines at a time, each line that
    ``write_summaries`` prints straight into columns; any other line
    (other whitespace, key order, method or extras, an int past int64), or
    every line without the library, goes through json (``_parsed``)."""
    blocks, scan = [], lambda *args: None       # no library: rows stay -1
    with contextlib.suppress(_native.BuildError):
        scan = _native.library().jsonl_scan
    with open(path, "rb") as fh:
        at = 0                                  # file lines before `lines`
        for lines in iter(functools.partial(fh.readlines, SCRATCH), []):
            win, rows = b"".join(lines), np.full((len(lines), 9), -1, np.int64)
            ints = np.empty(len(win) // 2 + 1, np.int64)  # 2 bytes an int
            scan(win, len(win), ints.ctypes.data, rows.ctypes.data)
            ok = rows[:, 1] >= 0
            extras = _extras(win, ints, rows, ok)
            # the window in runs of lines read alike: scanned, or by json
            cuts = [0, *np.flatnonzero(ok[1:] != ok[:-1]) + 1, len(lines)]
            for i, j in zip(cuts, cuts[1:]):
                blocks.append(_scanned(ints, rows[i:j], extras[i:j]) if ok[i]
                              else _parsed(path, lines[i:j], at + i + 1))
            at += len(lines)
    return SummaryBlock.concat(blocks)
