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
    1 / 3    X / Y channel 1 (the ladder's midpoint words)
    4 / 6    X / Y tooth-walk stream (self-loop decomposition)
    5 / 7    X / Y base-walk stream  (self-loop channel 1, clock)
    8        undelayed-walk stream (geometric clock)
    9        holding-time stream   (geometric clock)
    10 + k   bootstrap of dyadic cell (r, k), k >= 1, keyed by replica r

The ``generator`` of ``RngStream(seed, r, stream)`` defines a stream:
Philox keyed by ``SeedSequence(seed, spawn_key=(r, stream))``, counter 0.
Nothing in the package builds one: ``stream_keys`` hashes many replicas'
keys in one call of the compiled ``seed_keys``, and ``fill`` draws all
their streams in one call of the compiled Philox4x64-10, the package's one
copy of the cipher.  Both need the library (``_native.BuildError``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _native
from .graphs import _is_int

X_MAIN = 0
Y_MAIN = 2
X_TOOTH, X_BASE = 4, 5
Y_TOOTH = 6
X_SKEL, X_HOLD, BOOT = 8, 9, 10


@dataclass(frozen=True)
class RngStream:
    """Key of one reproducible stream: (seed, replica, stream id).
    ``generator()`` defines the stream; ``fill`` draws the same bytes."""

    seed: int
    replica: int
    stream: int = 0

    def generator(self):
        from numpy.random import Generator, Philox, SeedSequence
        seq = SeedSequence(entropy=self.seed,
                           spawn_key=(self.replica, self.stream))
        return Generator(Philox(seq))


def _words(n):
    """The uint32 words of a non-negative int, low first, as SeedSequence."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")
    n = int(n)                  # a numpy int shifts in its own width
    return [n >> s & 0xFFFFFFFF for s in range(0, max(n.bit_length(), 1), 32)]


def stream_keys(seed, replicas, stream):
    """(N, 2) uint64 Philox keys of the streams (seed, r, stream) for r in
    ``replicas``: row j equals ``SeedSequence(seed, spawn_key=(replicas[j],
    stream)).generate_state(2, np.uint64)``; each a non-negative int."""
    r = np.arange(replicas.start, replicas.stop, replicas.step) \
        if isinstance(replicas, range) else None
    if r is None or r.dtype.kind not in "iu":   # or a range past int64
        r = np.asarray(replicas).reshape(-1)
    # numpy casts a list's bools to int: test its items as graphs._is_int
    listed = isinstance(replicas, (list, tuple))
    if listed and not all(map(_is_int, replicas)) \
            or r.size and r.dtype.kind not in "iu" or (r < 0).any():
        raise ValueError(f"expected non-negative integer replicas, got {r}")
    r = np.ascontiguousarray(r, dtype=np.uint64)
    head, tail = (np.array(_words(w), np.uint32) for w in (seed, stream))
    keys = np.empty((len(r), 2), dtype=np.uint64)
    _native.library().seed_keys(head.ctypes.data, len(head), r.ctypes.data,
                                len(r), tail.ctypes.data, len(tail),
                                keys.ctypes.data)
    return keys


def fill(keys, start, out, high=None):
    """Column j of ``out`` gets draws ``start, start + 1, ...`` of the
    stream keyed ``keys[j]``, one row per draw: float64 doubles in [0, 1),
    or, given ``high``, int64 integers in [0, ``high``), one 64-bit word
    each, as numpy's ``integers`` spends them when ``high`` is a power of
    two in (2^32, 2^64).  All columns run in one call of the compiled
    ``philox_fill`` (see :mod:`._native`), with the bytes of
    ``RngStream.generator`` advanced ``start`` draws."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    h = 0 if high is None else int(high)
    if (start % 4 or start < 0 or out.ndim != 2
            or out.dtype != (np.float64 if high is None else np.int64)
            or not out[:1].flags.c_contiguous or not out.flags.writeable
            or keys.shape != (out.shape[1], 2)
            or high is not None and (h & h - 1 or not 2 ** 32 < h < 2 ** 64)):
        raise ValueError("fill writes, from a Philox block (start % 4 == 0), "
                         "one key's draws per column of unit-stride rows: "
                         "float64, or int64 given high = 2^33 .. 2^63")
    _native.library().philox_fill(
        keys.ctypes.data, out.shape[1], start, len(out), out.ctypes.data,
        out.strides[0] // out.itemsize, h and 65 - h.bit_length())
