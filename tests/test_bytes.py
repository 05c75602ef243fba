"""Byte identity of the sampler's JSONL and of the exact oracle's series:
pinned sha256 digests of small fixed ensembles, one per kernel, and of
oracle series on lumped, BFS and two-vector balls.

A change that is meant to keep the same bytes (a refactor, a faster
kernel) must leave every digest here unchanged; a change that alters a
construction on purpose updates the digest it moves and says why.
"""

import hashlib

import numpy as np
import pytest

from combwalks.graphs import build_graph
from combwalks.oracle import (meeting_expectation_series,
                              per_site_collision_series,
                              return_probability_series)
from combwalks.sampler import RecordPolicy, run_ensemble

# spec, method, n_steps, replicas, seed, record
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
}

# sha256 of the JSONL that ``write_summaries`` writes for each case
DIGESTS = {
    "comb:line":
        "9235b85c56ffef890d695f1ad0ee3bba35d61709bbe9f1e8bd1fab16a9295b5b",
    "comb:cycle:4-selfloop":
        "3b6b6e2e9e407209c22a4259417db03ca4f3d3f99d049d859e87554b0006060b",
    "comb:cycle:2-selfloop":
        "8e441c9f6840a1b360ce0a01fa13e7e95eeff68902b8d1d58ac6bd52e3a9dcb7",
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
}


def _jsonl(spec, method, n_steps, replicas, seed, record):
    out = run_ensemble(build_graph(spec), n_steps=n_steps, replicas=replicas,
                       seed=seed, record=record, method=method)
    return out, "".join(s.to_json() + "\n" for s in out).encode()


@pytest.mark.parametrize("name", list(CASES))
def test_jsonl_bytes_are_pinned(name):
    out, data = _jsonl(*CASES[name])
    assert sum(s.meetings for s in out) > 0
    if name == "biased-ladder":
        assert min(min(s.max_tooth_x, s.max_tooth_y) for s in out) > 1076
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name]


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
    # a BFS ball, not lumped
    "return-all star:3": _returns("star:3", 64, "all"),
    "meetings comb:line": lambda: meeting_expectation_series(
        build_graph("comb:line"), 300),
    "meetings comb2:line": lambda: meeting_expectation_series(
        build_graph("comb2:line"), 60),
    "persite comb:line": lambda: per_site_collision_series(
        build_graph("comb:line"), 300),
    "persite comb2:line": lambda: per_site_collision_series(
        build_graph("comb2:line"), 60),
}

# sha256 of the bytes of each case's series
ORACLE_DIGESTS = {
    "return-even comb:line":
        "6192546da173eb2e4c44af29b9516e684eb4b82435d8b70d2b9031ad8a72abc0",
    "return-all comb:line":
        "49531d096c2f1931a5113e2c5ef7f39bb955ccb026f4aaf6ebb130635db20c03",
    "return-even grid2d":
        "f21917cdb1e51765ab6125a19a0bb88bf588269761dbd2a264808c6ccda1c9ef",
    "return-all grid2d":
        "1202bb63aa6548a56ecac54c2ebecd2cce8be3eb6442e9098ac7e31a2f191e44",
    "return-all comb:cycle:3":
        "86b8c8ceccf97434b4826464e24d145d44af3d27cc222e4ceb23d97522f1a0a4",
    "return-all star:3":
        "a7e80125b8b48ccadeec48406188d7acc7d94e6d13b918da200940fd54b1a554",
    "meetings comb:line":
        "97b3c185d08143978974ca1c7771feba0b80ea6b8c8b01f2d21bf29c5933fad6",
    "meetings comb2:line":
        "9ab2352534233dc46eceb8c608c9ee1340e7a75d187046d055baeb8541b0be7d",
    "persite comb:line":
        "adfea154943ceb03f98ff8643ca78b69330054099cfb93ac16379fa5121aecb6",
    "persite comb2:line":
        "717267ff93a20a7d3ab817c56d04069a5e1b9ca98b08d5ec6130bbfdff378fef",
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
