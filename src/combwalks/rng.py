"""Reproducible random-number streams for ensemble simulation.

Every walker role in every replica owns a counter-based Philox stream keyed
by (master seed, replica index, stream id).  Streams derived this way are
independent and replayable: the same key always yields the same sequence,
no matter how replicas are grouped into worker processes or how draws are
chunked.  That is the whole determinism story; nothing downstream may pull
randomness from anywhere else.

Stream ids are assigned per role so that the two walkers of a pair and the
component processes of the decomposed constructions never share a stream:

    0 / 2    X / Y main step stream (one double per step)
    1 / 3    X / Y auxiliary stream (raw 64-bit words; midpoint indices)
    4 / 6    X / Y tooth-walk stream (self-loop decomposition)
    5 / 7    X / Y base-walk stream  (self-loop decomposition, clock)
    8        undelayed-walk stream (geometric clock)
    9        holding-time stream   (geometric clock)
    10 / 11  reserved; no constant names them

``RngStream(seed, r, stream).generator()`` defines a stream: Philox keyed
by ``SeedSequence(seed, spawn_key=(r, stream))``, counter 0.  The sampler
builds none per replica: ``stream_keys`` hashes many replicas' keys in one
numpy pass, and ``fill`` draws their streams: short rows in one numpy
pass of Philox4x64-10, long rows through one reused Philox.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

X_MAIN, X_AUX = 0, 1
Y_MAIN = 2
X_TOOTH, X_BASE = 4, 5
Y_TOOTH = 6
X_SKEL, X_HOLD = 8, 9
AUX = X_AUX - X_MAIN      # offset of a walker's auxiliary stream from its main one


@dataclass(frozen=True)
class RngStream:
    """Key of one reproducible stream: (seed, replica, stream id)."""

    seed: int
    replica: int
    stream: int = 0

    def generator(self):
        seq = SeedSequence(entropy=self.seed,
                           spawn_key=(self.replica, self.stream))
        return Generator(Philox(seq))


# numpy's SeedSequence hash, pool of 4 words, run on uint32 columns
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43b0d7e5, 0x931e8875, 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R, _POOL, _M32 = 0xca01f9dd, 0x4973f715, 4, 0xFFFFFFFF


def _hasher(hc, mult):
    """numpy's ``hashmix``: its constant advances with every call."""
    def hashmix(v):
        nonlocal hc
        v = v ^ np.uint32(hc)
        hc = hc * mult & _M32
        v = v * np.uint32(hc)
        return v ^ v >> np.uint32(16)
    return hashmix


def _mix(x, y):
    r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return r ^ r >> np.uint32(16)


def _hash(entropy):
    """``generate_state(2, np.uint64)`` of the SeedSequence of each column
    of the uint32 rows ``entropy``, all columns in one pass."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        pool = [_mix(p, hashmix(w)) for p in pool]
    s = [v.astype(np.uint64) for v in map(_hasher(_INIT_B, _MULT_B), pool)]
    return np.stack([s[0] | s[1] << np.uint64(32),
                     s[2] | s[3] << np.uint64(32)], axis=1)


def _words(n):
    """The uint32 words of a non-negative int, low first, as SeedSequence."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]


def stream_keys(seed, replicas, stream):
    """(N, 2) uint64 Philox keys of the streams (seed, r, stream) for r in
    ``replicas``: row j equals ``SeedSequence(seed, spawn_key=(replicas[j],
    stream)).generate_state(2, np.uint64)``."""
    r = np.asarray(replicas, dtype=np.int64).reshape(-1)
    if (r < 0).any():
        raise ValueError("expected non-negative integer")
    head = _words(seed)
    head += [0] * (_POOL - len(head))     # SeedSequence pads before a spawn key
    tail = _words(stream)
    lo, hi = (r & _M32).astype(np.uint32), (r >> 32).astype(np.uint32)
    keys = np.empty((len(r), 2), dtype=np.uint64)
    # the hash constants depend on the word count: one pass per count
    for sel, words in ((hi == 0, [lo]), (hi > 0, [lo, hi])):
        n = int(sel.sum())
        keys[sel] = _hash([np.full(n, w, np.uint32) for w in head]
                          + [w[sel] for w in words]
                          + [np.full(n, w, np.uint32) for w in tail])
    return keys


# Philox4x64-10 (Salmon et al., SC11): multipliers of counter words 0 and 2,
# Weyl increments of key words 0 and 1
_M0, _M1, _W0, _W1 = map(np.uint64, (0xD2E7470EE14C6C93, 0xCA5A826395121157,
                                     0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B))
_LO, _S32 = np.uint64(_M32), np.uint64(32)
# rows of at most this many doubles are filled as numpy columns, faster
# than one Philox call per row up to about 32 draws and slower beyond
_SHORT = 32


def _mulhi(m, x):
    """High words of the 128-bit products ``m * x``, from 32-bit halves."""
    m_lo, m_hi, x_lo, x_hi = m & _LO, m >> _S32, x & _LO, x >> _S32
    ll, lh, hl = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    carry = ((ll >> _S32) + (lh & _LO) + (hl & _LO)) >> _S32
    return m_hi * x_hi + (lh >> _S32) + (hl >> _S32) + carry


def _philox_doubles(keys, start, n):
    """(n, len(keys)) doubles: column j holds draws ``start .. start + n - 1``
    of the stream keyed ``keys[j]``, the bytes numpy's Philox gives."""
    k0, k1 = keys[:, 0], keys[:, 1]
    first = start // 4 + 1                # numpy bumps the counter, then draws
    c0 = np.arange(first, first - (-n // 4), dtype=np.uint64)[:, None]
    c1 = c2 = c3 = np.uint64(0)
    for r in range(10):
        if r:
            k0, k1 = k0 + _W0, k1 + _W1
        c0, c1, c2, c3 = (_mulhi(_M1, c2) ^ c1 ^ k0, c2 * _M1,
                          _mulhi(_M0, c0) ^ c3 ^ k1, c0 * _M0)
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=1)
    words = words.reshape(4 * len(words), len(keys))[:n]
    return (words >> np.uint64(11)) * 2.0 ** -53


def fill(keys, start, out, high=None):
    """Row j of ``out`` gets draws ``start, start + 1, ...`` of the stream
    keyed ``keys[j]``: doubles in [0, 1), or integers in [0, ``high``),
    one 64-bit word each when ``high`` is a power of two.  Rows of at most
    ``_SHORT`` doubles run Philox4x64-10 on numpy columns, all rows in one
    pass.  Longer rows and ``high=`` fills share one Philox, set per row to
    the row's key, the counter of the block before draw ``start`` and an
    empty buffer: its generator's state after ``start`` draws.  Both give
    the same bytes."""
    if start % 4:
        raise ValueError("fill starts on a Philox block: start % 4 == 0")
    if high is None and out.shape[1] <= _SHORT:
        out[...] = _philox_doubles(keys, start, out.shape[1]).T
        return
    g = Generator(Philox(0))
    state = g.bit_generator.state         # a fresh one: empty buffer
    for key, row in zip(keys.tolist(), out):
        state["state"] = {"counter": [start // 4, 0, 0, 0], "key": key}
        g.bit_generator.state = state
        if high is None:
            g.random(out=row)
        else:
            row[:] = g.integers(0, high, dtype=out.dtype, size=len(row))
