"""Byte identity of the sampler's JSONL: pinned sha256 digests of small
fixed ensembles, one per kernel.

A change that is meant to keep the same bytes (a refactor, a faster
kernel) must leave every digest here unchanged; a change that alters a
construction on purpose updates the digest it moves and says why.
"""

import hashlib

import pytest

from combwalks.graphs import build_graph
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
