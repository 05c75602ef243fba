"""Byte identity of the sampler's JSONL, of the `stats` and `fit` CSVs and
of the exact oracle's series: pinned sha256 digests of small fixed
ensembles, one per kernel, of every `stats` report over fixed inputs, of a
`fit` over an exact return series, and of oracle series on lumped, BFS and
two-vector balls.

A change that is meant to keep the same bytes (a refactor, a faster
kernel) must leave every digest here unchanged; a change that alters a
construction on purpose updates the digest it moves and says why.
"""

import dataclasses
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from combwalks import _native, cli, sampler, summaries
from combwalks.graphs import build_graph
from combwalks.oracle import (meeting_expectation_series,
                              per_site_collision_series,
                              return_probability_series)
from combwalks.sampler import RecordPolicy, run_ensemble
from combwalks.stats import SchemaError
from combwalks.summaries import (PairTrajectorySummary, SummaryBlock,
                                 read_summaries, write_summaries)
from test_sampler import assert_blocks_equal, to_json

# spec, method, n_steps, replicas, seed, record[, start]
CASES = {
    "comb:line": ("comb:line", "direct", 2000, 8, 11,
                  RecordPolicy(checkpoints=(5, 64, 100, 2000),
                               lil_alphas=(0.75, 1.25))),
    "comb:cycle:4-selfloop": ("comb:cycle:4", "selfloop", 1000, 8, 12,
                              RecordPolicy()),
    # the single-edge base: the hold itself flips the base
    "comb:cycle:2-selfloop": ("comb:cycle:2", "selfloop", 1000, 8, 17,
                              RecordPolicy()),
    "comb2:line": ("comb2:line", "direct", 1000, 8, 13, RecordPolicy()),
    "grid2d": ("grid2d", "direct", 1000, 8, 14, RecordPolicy()),
    "star:3": ("star:3", "direct", 1000, 8, 15, RecordPolicy()),
    "line": ("line", "direct", 1000, 8, 16, RecordPolicy()),
    # every walker passes level 1076, where the ladder's threshold table
    # reaches its last spine row (see sampler._LadderKernel)
    "biased-ladder": ("biased-ladder", "direct", 16384, 16, 5,
                      RecordPolicy(spine_stride=64)),
    # from midpoint(3, 2), over windows of 4096, 4096 and 1808 rows: a
    # stride of 7 starts each window at another offset, and a trace time
    # on a midpoint reads the spine level one step back
    "biased-ladder-midpoint": ("biased-ladder", "direct", 10000, 8, 21,
                               RecordPolicy(spine_stride=7, lil_alphas=(0.8,)),
                               (1, 3, 2)),
}

# sha256 of the JSONL that ``write_summaries`` writes for each case
DIGESTS = {
    "comb:line":
        "9235b85c56ffef890d695f1ad0ee3bba35d61709bbe9f1e8bd1fab16a9295b5b",
    "comb:cycle:4-selfloop":
        "b668939e0b48c231e41906b872216fe02c1a05f4f1921f383f152c4cfd2421cf",
    "comb:cycle:2-selfloop":
        "69b4b704d426af4db873f4afb1c6e82aee6890da693fcbffc4abc18cf695290d",
    "comb2:line":
        "0f8487008a0e3af6405dbf534c77209f3cd361821e87e2883feb69e66665401e",
    "grid2d":
        "112e66fff64715c7e008edd122a5338db4336f89608adf8174abbf3471f79776",
    "star:3":
        "6a951091c4f95fc6583a33e0e2cfb08601311ba8a4f49d7a02286efcdccf8dea",
    "line":
        "750e568cda03c645648f9d059282b53bfe783f8daeaa825affa02c996e29b622",
    "biased-ladder":
        "793fab44c69d69479de29626b3c9b86ad29049800f3df6b1d87803187daa129f",
    "biased-ladder-midpoint":
        "c64a77f600f4cf5e6ff5879d69ba8eaa9fd72ae56bbe3e8459671adc91128e04",
}


@functools.lru_cache(maxsize=None)
def _jsonl(spec, method, n_steps, replicas, seed, record, start=None):
    """A case's block and the bytes ``write_summaries`` writes for it."""
    out = run_ensemble(build_graph(spec), start, n_steps, replicas, seed=seed,
                       record=record, method=method)
    with tempfile.TemporaryDirectory() as tmp:
        write_summaries(os.path.join(tmp, "runs.jsonl"), out)
        with open(os.path.join(tmp, "runs.jsonl"), "rb") as fh:
            return out, fh.read()


@pytest.mark.parametrize("name", list(CASES))
def test_jsonl_bytes_are_pinned(name):
    out, data = _jsonl(*CASES[name])
    assert sum(s.meetings for s in out) > 0
    if name == "biased-ladder":
        assert min(min(s.max_tooth_x, s.max_tooth_y) for s in out) > 1076
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


# what the writer must get right besides the sampler's common lines, and
# a method and extras it refuses
EDGE_SUMMARY = PairTrajectorySummary(
    replica=3, n_steps=40, meetings=2, times=[7, 31],
    vertices=[[-2, 0, -5], [-1, 4, 4]], heights=[-5, 4],
    checkpoints=[(8, 1), (40, 2)], final_x=(-3, 1, 0), final_y=(0, 0, -2),
    max_tooth_x=5, max_tooth_y=4, method="se\u00efl \"loop\"",
    extras={"lil": {"times": [[3], []], "alphas": [0.1 + 0.2, 1e-07]},
            "zeta": None, "\u00e9": [True, 2.5, float("nan")],
            "K": {"b": -1, "a": "x"}})
EMPTY_SUMMARY = PairTrajectorySummary(
    replica=0, n_steps=0, meetings=0, times=[], vertices=[], heights=[],
    checkpoints=[], final_x=(0,), final_y=(0,), max_tooth_x=0,
    max_tooth_y=0)


@pytest.mark.parametrize("name", list(CASES))
def test_jsonl_round_trips_and_equals_the_reference_writer(name, tmp_path):
    out, data = _jsonl(*CASES[name])
    assert data.decode() == "".join(to_json(s) + "\n" for s in out)
    path = str(tmp_path / "runs.jsonl")
    write_summaries(path, out)
    back = read_summaries(path)
    assert "".join(to_json(s) + "\n" for s in back).encode() == data
    assert [(s.times, s.vertices, s.heights) for s in back] == \
        [(s.times, s.vertices, s.heights) for s in out]


def test_round_trip_cases_cover_the_writer(tmp_path):
    sums = [s for case in CASES.values() for s in _jsonl(*case)[0]]
    verts = [v for s in sums for v in s.vertices]
    assert any(not s.times for s in sums)
    assert any(min(v) < 0 for v in verts)
    assert {len(v) for v in verts} == {1, 2, 3}
    assert any(isinstance(a, float) for s in sums
               for a in s.extras.get("lil", {}).get("alphas", ()))
    assert {k for s in sums for k in s.extras} == {"lil", "spine"}
    # the edge's lil extra on a selfloop line, and no meeting at all
    edge = dataclasses.replace(EDGE_SUMMARY, method="selfloop",
                               extras={"lil": EDGE_SUMMARY.extras["lil"]})
    path = tmp_path / "edge.jsonl"
    write_summaries(str(path), [edge, EMPTY_SUMMARY])
    want = [to_json(edge), to_json(EMPTY_SUMMARY)]
    assert path.read_text() == "".join(line + "\n" for line in want)
    assert [to_json(s) for s in read_summaries(str(path))] == want
    # a method or an extra the template does not name is refused, before
    # the file is opened
    for odd in (EDGE_SUMMARY, dataclasses.replace(edge, method="clock"),
                dataclasses.replace(edge, extras=EDGE_SUMMARY.extras)):
        with pytest.raises(ValueError, match="template"):
            write_summaries(str(tmp_path / "odd.jsonl"), [odd])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edge.jsonl"]


# extras of the template's keys but of a shape the reader refuses, which
# the writer refuses too
MALFORMED_EXTRAS = {
    "fewer alphas than times": {"lil": {"alphas": [0.75], "times": [[], []]}},
    "an alpha true": {"lil": {"alphas": [True], "times": [[]]}},
    "a times list not a list": {"lil": {"alphas": [0.75], "times": [5]}},
    "a time not a number": {"lil": {"alphas": [0.75], "times": [["x"]]}},
    "a time past int64": {"lil": {"alphas": [0.75], "times": [[2 ** 63]]}},
    "spine stride 0": {"spine": {"stride": 0, "x": [], "y": []}},
    "spine x longer than y": {"spine": {"stride": 1, "x": [1], "y": []}},
    "spine without y": {"spine": {"stride": 1, "x": []}},
}


@pytest.mark.parametrize("defect", list(MALFORMED_EXTRAS))
def test_writer_refuses_extras_the_reader_refuses(defect, tmp_path):
    odd = dataclasses.replace(EMPTY_SUMMARY, replica=5,
                              extras=MALFORMED_EXTRAS[defect])
    path = tmp_path / "runs.jsonl"
    with pytest.raises(ValueError, match="replica 5: the template cannot"):
        write_summaries(str(path), [EMPTY_SUMMARY, odd])
    assert not path.exists()
    # the line as json writes it is refused on the way in
    path.write_text(to_json(odd) + "\n")
    with pytest.raises(SchemaError, match=":1: malformed summary"):
        read_summaries(str(path))


# a ladder line of 4096 steps at spine stride 2 and a lil line of as many
# times, each with one defect: method, extra and defect as refused
LONG_DEFECTS = {
    "spine stride 0": ("direct", {"spine": {
        "stride": 0, "x": list(range(2048)), "y": list(range(2048))}},
        "method 'direct' with extra 'spine': stride < 1"),
    "a time past int64": ("selfloop", {"lil": {
        "alphas": [0.75], "times": [[*range(4095), 2 ** 63]]}},
        "method 'selfloop' with extra 'lil': times not lists of int64"),
    "a method not named": ("clock", {"spine": {
        "stride": 2, "x": list(range(2048)), "y": list(range(2048))}},
        "method 'clock': not direct or selfloop"),
}


@pytest.mark.parametrize("defect", list(LONG_DEFECTS))
def test_writer_refusal_names_the_defect_not_the_values(defect, tmp_path):
    method, extras, want = LONG_DEFECTS[defect]
    odd = dataclasses.replace(EMPTY_SUMMARY, replica=5, method=method,
                              extras=extras)
    with pytest.raises(ValueError) as info:
        write_summaries(str(tmp_path / "runs.jsonl"), [odd])
    message = str(info.value)
    assert message.startswith("replica 5: the template cannot print " + want)
    assert len(message) < 200


# graphs whose direct blocks without extras the printer writes, and the
# seed of each
PRINTED = {"comb:line": 11, "comb2:line": 13, "line": 16, "grid2d": 14,
           "comb:cycle:4": 12, "star:3": 15, "biased-ladder": 5}


def _direct(s, **changes):
    """View ``s`` as a canonical line, direct with no extras, changed."""
    return dataclasses.replace(s, method="direct", extras={}, **changes)


# ints at int64's edges, of 19 digits too, which the scanner reads
INT64_EDGES = _direct(
    EDGE_SUMMARY, replica=2 ** 63 - 1, n_steps=1234567890123456789,
    meetings=-2 ** 63, times=[-2 ** 63, 10 ** 18],
    vertices=[[-2 ** 63, 0, 2 ** 63 - 1], [999999999999999999, -1, 0]],
    heights=[2 ** 63 - 1, -1], checkpoints=[(-2 ** 63, 2 ** 63 - 1)],
    final_x=(-2 ** 63, 0, -10 ** 18), max_tooth_y=-2 ** 63)
NEVER_MET = [dataclasses.replace(
    EMPTY_SUMMARY, replica=r, n_steps=64, checkpoints=[(1, 0), (64, 0)],
    final_x=(r, -1), final_y=(0, 2), max_tooth_x=3) for r in range(3)]


@functools.lru_cache(maxsize=None)
def _printer_case(name):
    """A block the writer is given, and whether it is printed (True) or
    refused (False); or views no block takes (None)."""
    if name in PRINTED:
        return run_ensemble(build_graph(name), None, 1000, 8,
                            seed=PRINTED[name]), True
    of, selfloop = SummaryBlock.of, _jsonl(*CASES["comb:cycle:4-selfloop"])[0]
    lil, spine = (_jsonl(*CASES[case])[0] for case in (
        "comb:line", "biased-ladder"))
    return {
        "never met": (of(NEVER_MET), True),
        "no pairs": (of([]), True),
        "int64 edges": (of([INT64_EDGES, EMPTY_SUMMARY]), True),
        # a pair's vertices and finals have one length
        "vertex lengths vary": ((_direct(EDGE_SUMMARY, vertices=[
            [1, 2, 3], [4]]),), None),
        "finals of two lengths": ((_direct(EMPTY_SUMMARY, final_x=(
            0, 1)),), None),
        "selfloop": (selfloop, True),
        "lil": (lil, True),
        "spine": (spine, True),
        "one method not direct": (of([*NEVER_MET[:2], dataclasses.replace(
            NEVER_MET[2], method="selfloop")]), True),
        "mixed": (SummaryBlock.concat([
            _printer_case("line")[0], selfloop, lil, spine, of(NEVER_MET),
            _printer_case("comb2:line")[0]]), True),
        # each line copies more alpha bytes than its ints could print
        "alphas longer than a line's ints": (of([dataclasses.replace(
            NEVER_MET[r % 3], replica=r, extras={"lil": {
                "alphas": [10 ** 3000], "times": [[]]}}) for r in range(64)]),
            True),
        "a method the template does not name": (of([dataclasses.replace(
            NEVER_MET[0], method="clock")]), False),
        "an extra it does not know": (of([dataclasses.replace(
            NEVER_MET[0], extras={"k_trace": []})]), False),
    }[name]


PRINTER_CASES = [*PRINTED, "never met", "no pairs", "int64 edges",
                 "vertex lengths vary", "finals of two lengths", "selfloop",
                 "lil", "spine", "one method not direct", "mixed",
                 "alphas longer than a line's ints",
                 "a method the template does not name",
                 "an extra it does not know"]


# with windows of 64 bytes (8 ints) every line is a window alone
@pytest.mark.parametrize("scratch", [None, 64])
@pytest.mark.parametrize("name", PRINTER_CASES)
def test_printer_writes_the_bytes_of_to_json(name, scratch, tmp_path,
                                             monkeypatch):
    block, printed = _printer_case(name)
    if printed is None:
        with pytest.raises(ValueError, match="vertices and finals of two lengths"):
            SummaryBlock.of(block)
        return
    if scratch:
        monkeypatch.setattr(summaries, "SCRATCH", scratch)
    path = tmp_path / "runs.jsonl"
    if not printed:
        with pytest.raises(ValueError, match="template"):
            write_summaries(str(path), block)
        assert not path.exists()
        return
    want = "".join(to_json(s) + "\n" for s in block).encode()
    write_summaries(str(path), block)
    assert path.read_bytes() == want
    # the scanner reads every line back, none through json
    back, fallbacks = _read(path, monkeypatch)
    assert fallbacks == 0 and [to_json(s) for s in back] == [
        to_json(s) for s in block]
    # a plain list of views is gathered into a block; without the library
    # the writer refuses, and leaves the file as it was
    write_summaries(str(path), list(block))
    assert path.read_bytes() == want

    def no_library():
        raise _native.BuildError("no compiler")
    monkeypatch.setattr(_native, "library", no_library)
    with pytest.raises(_native.BuildError):
        write_summaries(str(path), block)
    assert path.read_bytes() == want


def test_printer_cases_cover_the_template():
    blocks = [_printer_case(name)[0] for name in PRINTED]
    assert {v for b in blocks for v in b.dim.tolist()} == {1, 2, 3}
    assert all(len(b.times) for b in blocks)
    assert any(not n for b in blocks for n in b.meet_len.tolist())
    assert min(b.coords.min() for b in blocks) < 0
    # star:3's 8 lines take more than one window
    lib = _native.library()
    assert len([*summaries._printed(_printer_case("star:3")[0],
                                  lib.jsonl_print)]) > 1
    # FORM names each construction a block runs, in _METHODS' order
    assert [*summaries._METHODS] == [*sampler._ROLES]
    ints = SummaryBlock.of([INT64_EDGES]).coords.tolist()
    assert {-2 ** 63, 2 ** 63 - 1} <= {*ints}
    assert len(str(INT64_EDGES.n_steps)) == 19


_summary = summaries._summary


def _json_lines(path):
    """The summaries of ``path`` as ``json.loads`` reads each stripped
    text-mode line: the reference ``read_summaries`` must equal."""
    with open(path) as fh:
        return [_summary(json.loads(line)) for line in map(str.strip, fh)
                if line]


def _read(path, monkeypatch):
    """``read_summaries(path)`` and how many of its lines went through
    ``json`` rather than the compiled scanner."""
    fallbacks = []
    monkeypatch.setattr(summaries, "_summary",
                        lambda d: fallbacks.append(d) or _summary(d))
    return read_summaries(str(path)), len(fallbacks)


# every case's lines, selfloop, lil and spine ones too, are scanned
@pytest.mark.parametrize("name", list(CASES))
def test_reader_equals_json_line_by_line(name, tmp_path, monkeypatch):
    path = tmp_path / "runs.jsonl"
    path.write_bytes(_jsonl(*CASES[name])[1])
    back, fallbacks = _read(path, monkeypatch)
    assert list(back) == _json_lines(path)
    assert fallbacks == 0


@pytest.mark.parametrize("name", list(CASES))
def test_scanned_block_equals_the_json_block(name, tmp_path, monkeypatch):
    # the same file read with the scanner and with every line through
    # json, and the sampler's own block
    out, data = _jsonl(*CASES[name])
    path = tmp_path / "runs.jsonl"
    path.write_bytes(data)
    scanned = read_summaries(str(path))
    assert_blocks_equal(out, scanned)

    def no_library():
        raise _native.BuildError("no compiler")
    monkeypatch.setattr(_native, "library", no_library)
    through_json, fallbacks = _read(path, monkeypatch)
    assert fallbacks == len(scanned)
    assert_blocks_equal(scanned, through_json)


# the lines of a `selfloop` run (comb:cycle:4, T = 8, 2 replicas, seed 9)
# as the sampler wrote them while it recorded `k_trace`, each walker's loop
# count at the checkpoints; it writes them today without that member
K_TRACE_LINES = (
    '{"T":8,"checkpoints":[{"meetings":1,"t":1},{"meetings":2,"t":2},'
    '{"meetings":2,"t":4},{"meetings":2,"t":8}],"collisions":[{"l":-1,'
    '"n":1,"vertex":[0,-1]},{"l":0,"n":2,"vertex":[0,0]}],"final":{"x":[1,'
    '-1],"y":[0,0]},"k_trace":[{"t":1,"x":0,"y":0},{"t":2,"x":0,"y":0},'
    '{"t":4,"x":2,"y":0},{"t":8,"x":3,"y":0}],"max_tooth":{"x":1,"y":2},'
    '"meetings":2,"method":"selfloop","replica":0}\n'
    '{"T":8,"checkpoints":[{"meetings":0,"t":1},{"meetings":0,"t":2},'
    '{"meetings":1,"t":4},{"meetings":2,"t":8}],"collisions":[{"l":0,"n":4,'
    '"vertex":[0,0]},{"l":0,"n":5,"vertex":[1,0]}],"final":{"x":[0,-2],'
    '"y":[1,-3]},"k_trace":[{"t":1,"x":0,"y":0},{"t":2,"x":0,"y":0},{"t":4,'
    '"x":0,"y":2},{"t":8,"x":2,"y":3}],"max_tooth":{"x":2,"y":3},'
    '"meetings":2,"method":"selfloop","replica":1}\n')


def _hand_edited(kind):
    """comb2:line's lines, edited as a person or another writer might, or
    the lines of an older writer."""
    if kind == "k_trace, as written before it went":
        return K_TRACE_LINES
    lines = _jsonl(*CASES["comb2:line"])[1].decode().splitlines()
    if kind == "spaces, key order":
        return "".join(json.dumps(dict(reversed(json.loads(s).items())))
                       + "\n" if i % 2 else s + "\n"
                       for i, s in enumerate(lines))
    if kind == "crlf, lone cr":
        return "\r\n".join(lines[:4]) + "\r" + "\r\n".join(lines[4:]) + "\r\n"
    if kind == "blank lines, no final newline":
        return "\n\n".join(lines) + "\n \n\t\n" + lines[0]
    if kind == "ints at int64's edge, -0":
        for i, r in enumerate(("9223372036854775807", "999999999999999999",
                               "1000000000000000000", "-0")):
            lines[i] = re.sub(r'"replica":\d+', f'"replica":{r}', lines[i])
        lines[4] = lines[4].replace('"T":1000', '"T":-0')
        return "\n".join(lines) + "\n"
    if kind == "uneven vertices, finals":
        i = next(i for i, s in enumerate(lines) if '"vertex"' in s)
        lines[i] = lines[i].replace('"vertex":[', '"vertex":[7,', 1)
        lines[5] = lines[5].replace('"y":[', '"y":[7,', 1)
        return "\n".join(lines) + "\n"
    long = to_json(PairTrajectorySummary(
        replica=8, n_steps=9000, meetings=6000, times=list(range(6000)),
        vertices=[[i, -i] for i in range(6000)], heights=[-i for i in range(
            6000)], checkpoints=[(9000, 6000)], final_x=(1, 2), final_y=(3, 4),
        max_tooth_x=9000, max_tooth_y=9000))
    assert len(long) > summaries.SCRATCH
    return "\n".join(lines[:3] + [long] + lines[3:]) + "\n"


def _refuses_uneven_lines(path, monkeypatch):
    """A pair's vertices and finals have one length: the scanner leaves a
    line that breaks it to json, which refuses it by its file line, the
    edited vertex's (1) and, with that line restored, the final's (6);
    without the library every line up to it goes through json."""
    good = _jsonl(*CASES["comb2:line"])[1].decode().splitlines(True)
    edited = _hand_edited("uneven vertices, finals").splitlines(True)
    fallbacks, real = [], _native.library

    def no_library():
        raise _native.BuildError("no compiler")
    monkeypatch.setattr(summaries, "_summary",
                        lambda d: fallbacks.append(d) or _summary(d))
    for k in (1, 6):
        path.write_text("".join(good[:k - 1] + edited[k - 1:]))
        for library, through_json in ((real, 1), (no_library, k)):
            monkeypatch.setattr(_native, "library", library)
            fallbacks.clear()
            with pytest.raises(SchemaError, match=re.escape(
                    f"{path}:{k}: malformed summary: replica ")) as info:
                read_summaries(str(path))
            assert "vertex, final" in str(info.value)
            assert len(fallbacks) == through_json


# lines in the writer's own form but for one defect that ``_summary``
# refuses: case, what the defect replaces in its second line, and with what
SCANNER_DEFECTS = {
    "alphas not numbers": ("comb:line", '"alphas":[0.75,1.25]',
                           '"alphas":[0.75,,1.25]'),
    "an alpha with a leading zero": ("comb:line", '"alphas":[0.75,1.25]',
                                     '"alphas":[0.75,01.25]'),
    "an alpha true": ("comb:line", '"alphas":[0.75,1.25]',
                      '"alphas":[0.75,true]'),
    "fewer alphas than times": ("comb:line", '"alphas":[0.75,1.25]',
                                '"alphas":[0.75]'),
    "spine stride 0": ("biased-ladder", '"stride":64,', '"stride":0,'),
    "spine x longer than y": ("biased-ladder", '"stride":64,"x":[',
                              '"stride":64,"x":[5,'),
    "T past int64": ("comb2:line", '"T":1000,', '"T":9223372036854775808,'),
    "T below int64": ("comb2:line", '"T":1000,', '"T":-9223372036854775809,'),
    "T of 20 digits": ("comb2:line", '"T":1000,', '"T":10000000000000001000,'),
}


@pytest.mark.parametrize("defect", list(SCANNER_DEFECTS))
def test_scanner_leaves_what_summary_refuses_to_json(defect, tmp_path):
    # the scanner takes no line that json and _summary refuse: each is
    # refused by its file line, as through json alone
    case, old, new = SCANNER_DEFECTS[defect]
    lines = _jsonl(*CASES[case])[1].decode().splitlines(True)
    assert old in lines[1]
    lines[1] = lines[1].replace(old, new, 1)
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:2: malformed summary: ")):
        read_summaries(str(path))


# none of FORM's methods, and two of them at once
@pytest.mark.parametrize("method", ["clock", "", "directselfloop"])
def test_reader_takes_a_method_the_template_does_not_name(method, tmp_path,
                                                         monkeypatch):
    lines = _jsonl(*CASES["comb2:line"])[1].decode().splitlines(True)
    lines[3] = lines[3].replace('"method":"direct"', f'"method":"{method}"')
    path = tmp_path / "runs.jsonl"
    path.write_text("".join(lines))
    back, fallbacks = _read(path, monkeypatch)
    assert fallbacks == 1 and list(back) == _json_lines(path)
    assert back.method.tolist() == ["direct"] * 3 + [method] + ["direct"] * 4


# with windows of 64 bytes, shorter than any line, each window is one line
@pytest.mark.parametrize("scratch", [None, 64])
@pytest.mark.parametrize("kind", [
    "spaces, key order", "crlf, lone cr", "blank lines, no final newline",
    "ints at int64's edge, -0", "uneven vertices, finals",
    "a line longer than the window", "k_trace, as written before it went"])
def test_reader_equals_json_on_hand_edited_lines(kind, scratch, tmp_path,
                                                 monkeypatch):
    path = tmp_path / "runs.jsonl"
    path.write_bytes(_hand_edited(kind).encode())
    if scratch:
        monkeypatch.setattr(summaries, "SCRATCH", scratch)
    if kind == "uneven vertices, finals":
        _refuses_uneven_lines(path, monkeypatch)
        return
    back, fallbacks = _read(path, monkeypatch)
    assert list(back) == _json_lines(path)
    assert len(back) == {"blank lines, no final newline": 9,
                         "a line longer than the window": 9,
                         "k_trace, as written before it went": 2}.get(kind, 8)
    assert fallbacks == {"spaces, key order": 4, "crlf, lone cr": 8,
                         "k_trace, as written before it went": 2}.get(kind, 0)
    if kind == "k_trace, as written before it went":
        # an ordinary extra on the way in, which the writer, printing what
        # the sampler records, refuses; today's run writes its lines
        # without it, and `stats --report growth` takes both files at once
        # and writes the same rows for each
        assert all("k_trace" in s.extras for s in back)
        again, new = tmp_path / "again.jsonl", tmp_path / "new.jsonl"
        with pytest.raises(ValueError, match="template cannot print"):
            write_summaries(str(again), back)
        assert not again.exists()
        write_summaries(str(new), run_ensemble(
            build_graph("comb:cycle:4"), None, 8, 2, seed=9,
            method="selfloop"))
        assert [json.loads(line) for line in new.read_text().splitlines()] \
            == [{k: v for k, v in json.loads(line).items() if k != "k_trace"}
                for line in K_TRACE_LINES.splitlines()]
        csv = tmp_path / "growth.csv"
        assert cli.main(["stats", "--report", "growth", "--inputs", str(path),
                         str(new), "--out", str(csv)]) == 0
        rows = csv.read_text().splitlines()[1:]
        assert len(rows) == 8
        assert [r.replace("runs,", "new,", 1) for r in rows[:4]] == rows[4:]


# the inputs of the `stats` reports, by file stem: spec, method, n_steps,
# replicas, seed, record
STATS_INPUTS = {
    "comb_line": ("comb:line", "direct", 4096, 256, 21,
                  RecordPolicy(lil_alphas=(0.75, 0.9))),
    "comb2_line": ("comb2:line", "direct", 1024, 32, 22, RecordPolicy()),
    "ladder": ("biased-ladder", "direct", 2048, 16, 23,
               RecordPolicy(spine_stride=2)),
}

GRID_CONF = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "configs", "cells_grid.conf")

# `stats` arguments of each report; a `.jsonl` name is an input above
STATS_REPORTS = {
    "grid": ["--config", GRID_CONF, "--inputs", "comb_line.jsonl"],
    "growth": ["--report", "growth", "--inputs", "comb_line.jsonl",
               "comb2_line.jsonl"],
    "lil 0.75": ["--report", "lil", "--alpha", "0.75", "--inputs",
                 "comb_line.jsonl"],
    # the lower envelope: one replica crosses it
    "lil 0.9": ["--report", "lil", "--alpha", "0.9", "--inputs",
                "comb_line.jsonl"],
    "drift": ["--report", "drift", "--inputs", "ladder.jsonl"],
}

# sha256 of the CSV each report writes
STATS_DIGESTS = {
    "grid":
        "7fcf5b0e74781e3077a8c4c7cbe2e74c90c3e8fd008adbfef6922bfad694f23f",
    "growth":
        "f8e4ec9910bb38e61ccad107d28e6767ecc1f59423a0081a4c03a3518ec632ab",
    "lil 0.75":
        "11cacd3fad9795e3f04deff4c590fffca53e5bb1e5743041ad8cfada5575a3eb",
    "lil 0.9":
        "22c836e0df8bedca9b404151a728880a40c9fb79f8f1b8f00854b4fb4b8f6c35",
    "drift":
        "d9ee8ff7fbf0b08c059bb5c0325d63b5f8aa60fa668020c7b0ec40b8c59a4570",
}

# sha256 of `oracle return --graph comb:line --nmax 1024`'s CSV and of the
# CSV of `fit --column value --range 8:1024` over it
FIT_DIGESTS = (
    "e88e8bb306d28868f3a05e44186ad47e4b2612baf001a512a4f3565984f4c61c",
    "6cb14fa61654cff868599b4ea806e64482368aeea8e6562687b6c228ea2c6403")


@pytest.fixture(scope="module")
def stats_inputs(tmp_path_factory):
    where = tmp_path_factory.mktemp("stats")
    for stem, case in STATS_INPUTS.items():
        write_summaries(str(where / f"{stem}.jsonl"), _jsonl(*case)[0])
    return where


@pytest.mark.parametrize("report", list(STATS_REPORTS))
def test_stats_csv_bytes_are_pinned(report, stats_inputs):
    argv = [str(stats_inputs / a) if a.endswith(".jsonl") else a
            for a in STATS_REPORTS[report]]
    out = stats_inputs / f"{report}.csv"
    assert cli.main(["stats", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        STATS_DIGESTS[report]


def test_fit_csv_bytes_are_pinned(tmp_path):
    ret, fit = tmp_path / "return.csv", tmp_path / "fit.csv"
    assert cli.main(["oracle", "return", "--graph", "comb:line", "--nmax",
                     "1024", "--out", str(ret)]) == 0
    assert cli.main(["fit", "--input", str(ret), "--column", "value",
                     "--range", "8:1024", "--out", str(fit)]) == 0
    assert tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (ret, fit)) == FIT_DIGESTS


def _returns(spec, n_max, every):
    return lambda: return_probability_series(build_graph(spec), n_max,
                                             every=every)


# each case returns the arrays whose float64 bytes are hashed, in order
ORACLE_CASES = {
    "return-even comb:line": _returns("comb:line", 600, "even"),
    "return-all comb:line": _returns("comb:line", 300, "all"),
    "return-even grid2d": _returns("grid2d", 200, "even"),
    "return-all grid2d": _returns("grid2d", 100, "all"),
    # not bipartite: the kernel alternates two vectors
    "return-all comb:cycle:3": _returns("comb:cycle:3", 200, "all"),
    # BFS balls, not lumped: a star, an off-root comb and the ladder
    "return-all star:3": _returns("star:3", 64, "all"),
    "return-all comb:line root (3, 2)": lambda: return_probability_series(
        build_graph("comb:line"), 64, root=(3, 2), every="all"),
    "return-all biased-ladder": _returns("biased-ladder", 12, "all"),
    "meetings comb:line": lambda: meeting_expectation_series(
        build_graph("comb:line"), 300),
    "meetings comb2:line": lambda: meeting_expectation_series(
        build_graph("comb2:line"), 60),
    "persite comb:line": lambda: per_site_collision_series(
        build_graph("comb:line"), 300),
    "persite comb2:line": lambda: per_site_collision_series(
        build_graph("comb2:line"), 60),
    # long enough that the far frontier of the ball falls below 2^-1022,
    # which the compiled step flushes to 0
    "return-all grid2d n=600": _returns("grid2d", 600, "all"),
    "return-all line n=1200": _returns("line", 1200, "all"),
}

# sha256 of the bytes of each case's series
ORACLE_DIGESTS = {
    "return-even comb:line":
        "1691c4f7064e6f9426b9c3f786310e12214438e7461cf63e5f5cb94c59506b1e",
    "return-all comb:line":
        "49531d096c2f1931a5113e2c5ef7f39bb955ccb026f4aaf6ebb130635db20c03",
    "return-even grid2d":
        "be127d00cf20009d181aaf57d90d2997cbe038fbd88572ca347dee010d24ed30",
    "return-all grid2d":
        "1202bb63aa6548a56ecac54c2ebecd2cce8be3eb6442e9098ac7e31a2f191e44",
    "return-all comb:cycle:3":
        "86b8c8ceccf97434b4826464e24d145d44af3d27cc222e4ceb23d97522f1a0a4",
    "return-all star:3":
        "a7e80125b8b48ccadeec48406188d7acc7d94e6d13b918da200940fd54b1a554",
    "return-all comb:line root (3, 2)":
        "a135b562bcd2dc6f4fba26150eee862cdf7fbe695ee208a1319b7299d496b73c",
    "return-all biased-ladder":
        "4ebac3ee1a38895dff0414e24252fcdc9d234d2996c75365e9a6ffd5575b528d",
    "meetings comb:line":
        "79388e0b355e0a9c37b88467a29b171cfffbddafe3b816b3bd83efd7264b390a",
    "meetings comb2:line":
        "0578d6c9d2d8905cf51c4b1041655f151a6510d74045feb8e989ac96bbc57d42",
    "persite comb:line":
        "adfea154943ceb03f98ff8643ca78b69330054099cfb93ac16379fa5121aecb6",
    "persite comb2:line":
        "717267ff93a20a7d3ab817c56d04069a5e1b9ca98b08d5ec6130bbfdff378fef",
    "return-all grid2d n=600":
        "b3c9be543bfef80ec4f16a74041e883baeabc66cc90f3e70e1646d04368abffb",
    "return-all line n=1200":
        "98d0fca0c3be6ff37e420a091ebaf4d51a0487352c215ecfe7fb7ca31a5db33d",
}


def _series_bytes(out):
    if isinstance(out, tuple):
        return b"".join(_series_bytes(s) for s in out)
    if hasattr(out, "table"):
        arrays = (out.n, out.heights, out.table)
    else:
        arrays = (out.n, out.values)
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("name", list(ORACLE_CASES))
def test_oracle_bytes_are_pinned(name):
    data = _series_bytes(ORACLE_CASES[name]())
    assert hashlib.sha256(data).hexdigest() == ORACLE_DIGESTS[name]


# the series a step's weighted sum of squares gives (the step sums it in
# row order, where a BLAS dot's order depended on the CPU's kernel)
MASS_CASES = ("return-even comb:line", "return-even grid2d",
              "meetings comb:line", "meetings comb2:line")


@pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_CORETYPE": "Nehalem"}],
    ids=["Haswell", "Prescott", "Nehalem"])
def test_oracle_digests_do_not_depend_on_the_blas_kernel(env, tmp_path):
    # OpenBLAS picks its kernels once, at load: a fresh interpreter per
    # kernel runs the pinned-digest tests of the series above, the fit and
    # the drift report, whose line fits sum with math.fsum, not np.cov
    here = os.path.dirname(os.path.abspath(__file__))
    code = (f"import pathlib, sys; sys.path[:0] = {[here]!r}\n"
            "import test_bytes as t\n"
            "for name in t.MASS_CASES: t.test_oracle_bytes_are_pinned(name)\n"
            "t.test_fit_csv_bytes_are_pinned(pathlib.Path('.'))\n"
            "ladder = t._jsonl(*t.STATS_INPUTS['ladder'])[0]\n"
            "t.write_summaries('ladder.jsonl', ladder)\n"
            "t.test_stats_csv_bytes_are_pinned('drift', pathlib.Path('.'))\n")
    src = os.path.join(here, os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    res = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env={**os.environ, **env, "PYTHONPATH": path},
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
