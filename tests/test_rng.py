"""Stream keying: reproducible, disjoint by (seed, replica, stream)."""

import ctypes
import dataclasses
import subprocess
import sysconfig

import numpy as np
import pytest
from numpy.random import SeedSequence

from combwalks import _native, rng
from combwalks.rng import X_MAIN, Y_MAIN, RngStream, fill, stream_keys


def test_same_key_same_draws():
    a = RngStream(7, 3, X_MAIN).generator().random(16)
    b = RngStream(7, 3, X_MAIN).generator().random(16)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_draws():
    base = RngStream(7, 3, X_MAIN).generator().random(16)
    for other in [RngStream(8, 3, X_MAIN), RngStream(7, 4, X_MAIN),
                  RngStream(7, 3, Y_MAIN)]:
        assert not np.array_equal(base, other.generator().random(16))


def test_streams_are_frozen():
    s = RngStream(1, 2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.seed = 9


SEEDS = [0, 1, 2 ** 32 + 5, 2 ** 64 + 3, 2 ** 128 + 9, (1 << 200) + 77]
REPLICAS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40, 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_keys_match_seed_sequence(seed):
    # seeds of one, two, three, five and seven words; replicas of one
    # and of two words
    for stream in range(12):
        keys = stream_keys(seed, REPLICAS, stream)
        assert keys.shape == (len(REPLICAS), 2) and keys.dtype == np.uint64
        for key, r in zip(keys, REPLICAS):
            ref = SeedSequence(seed, spawn_key=(r, stream)).generate_state(
                2, np.uint64)
            assert np.array_equal(key, ref)


def test_stream_keys_reject_negatives():
    for args in [(-1, [0], 0), (0, [3, -1], 0), (0, [0], -1)]:
        with pytest.raises(ValueError):
            stream_keys(*args)
    assert stream_keys(3, [], 0).shape == (0, 2)


def test_fill_continues_the_reference_generator():
    replicas = [0, 4, 2 ** 32 + 1]
    keys = stream_keys(9, replicas, Y_MAIN)
    ref = [RngStream(9, r, Y_MAIN).generator() for r in replicas]
    u = np.empty((3, 40))
    for start in range(0, 40, 8):              # five chunks of 8
        fill(keys, start, u[:, start:start + 8])
    assert np.array_equal(u, [g.random(40) for g in ref])
    high = np.int64(1) << 62
    raw = np.empty((3, 24), dtype=np.int64)
    for start in (0, 12):
        fill(keys, start, raw[:, start:start + 12], high=high)
    ref = [RngStream(9, r, Y_MAIN).generator() for r in replicas]
    assert np.array_equal(raw, [g.integers(0, high, dtype=np.int64, size=24)
                                for g in ref])
    with pytest.raises(ValueError):
        fill(keys, 6, u[:, :4])


@pytest.mark.parametrize("start", [0, 4, 4096, 2 ** 40])
def test_fill_equals_the_reference_generator_at_every_length(start):
    # every length through nine Philox blocks, doubles written through a
    # strided view as the sampler's window buffers are, and 62-bit words
    replicas = [0, 7, 2 ** 32 + 1]
    keys = stream_keys(11, replicas, X_MAIN)
    buf = np.empty((len(replicas), 40))
    raw = np.empty((len(replicas), 40), dtype=np.int64)
    high = np.int64(1) << 62
    for length in range(1, 37):
        fill(keys, start, buf[:, :length])
        fill(keys, start, raw[:, :length], high=high)
        for r, row, words in zip(replicas, buf, raw):
            g = RngStream(11, r, X_MAIN).generator()
            g.bit_generator.advance(start // 4)
            assert np.array_equal(row[:length], g.random(length))
            g = RngStream(11, r, X_MAIN).generator()
            g.bit_generator.advance(start // 4)
            assert np.array_equal(words[:length], g.integers(
                0, high, dtype=np.int64, size=length))


# 0, 1 and 2 full groups of the 16 rows philox_fill runs per pass in
# AVX-512 lanes, and the rows left over beside them
LANE_ROWS = [1, 8, 15, 16, 17, 31, 32, 33, 40]


@pytest.mark.parametrize("start", [0, 4, 4096, 2 ** 40])
def test_fill_equals_the_reference_in_and_beside_the_lane_groups(start):
    # every length through nine Philox blocks, doubles through a strided
    # view, and the words of every high fill takes, 2^33 .. 2^63 (every
    # shift); columns past the length stay as they were
    for rows in LANE_ROWS:
        replicas = [5 * r + 2 for r in range(rows)]
        keys = stream_keys(17, replicas, X_MAIN)

        def reference(high):
            gens = [RngStream(17, r, X_MAIN).generator() for r in replicas]
            for g in gens:
                g.bit_generator.advance(start // 4)
            return np.array([g.random(36) if high is None else g.integers(
                0, high, dtype=np.int64, size=36) for g in gens])
        for high in [None, *(2 ** e for e in range(33, 64))]:
            want = reference(high)
            out = np.empty((rows, 40), dtype=want.dtype)
            for length in range(1, 37):
                out[:] = 3
                fill(keys, start, out[:, :length], high=high)
                assert np.array_equal(out[:, :length], want[:, :length]), (
                    rows, high, length)
                assert (out[:, length:] == 3).all(), (rows, high, length)


@pytest.mark.parametrize("lanes", ["not compiled", "not supported"])
def test_fill_without_the_lanes_writes_the_same_bytes(tmp_path, lanes):
    # the source as a target other than x86-64 GCC or Clang builds it, and
    # as it runs on a CPU without AVX-512: every row runs the scalar loop
    src, flags = _native._SOURCE, ["-D__builtin_cpu_supports(f)=0"]
    if lanes == "not compiled":
        guard = "#if defined(__x86_64__) && defined(__GNUC__)"
        assert src.count(guard) == 2            # the body and its call
        src, flags = src.replace(guard, "#if 0"), []
    cc = (sysconfig.get_config_var("CC") or "cc").split()
    so = tmp_path / "scalar.so"
    subprocess.run([*cc, *_native._CFLAGS, *flags, "-o", str(so), "-x", "c",
                    "-"], input=src.encode(), check=True)
    scalar = ctypes.CDLL(str(so)).philox_fill
    scalar.argtypes = _native.library().philox_fill.argtypes
    keys = stream_keys(17, range(40), X_MAIN)
    for shift, dtype in ((0, np.float64), (2, np.int64)):
        want, got = (np.empty((40, 37), dtype=dtype) for _ in range(2))
        fill(keys, 2 ** 40, want, high=2 ** 62 if shift else None)
        scalar(keys.ctypes.data, 40, 2 ** 40, 37, got.ctypes.data, 37, shift)
        assert np.array_equal(got, want)


class _Built(Exception):
    pass


def test_fill_builds_no_generator(monkeypatch):
    # one compiled path for every row length and for integer draws
    keys = stream_keys(3, range(5), X_MAIN)
    fills = [(np.empty((5, n)), None) for n in (1, 32, 33, 4096)]
    fills.append((np.empty((5, 40), dtype=np.int64), np.int64(1) << 62))
    ref = []
    for out, high in fills:
        gens = [RngStream(3, r, X_MAIN).generator() for r in range(5)]
        for g in gens:
            g.bit_generator.advance(2)
        n = out.shape[1]
        ref.append([g.random(n) if high is None else
                    g.integers(0, high, dtype=np.int64, size=n)
                    for g in gens])

    def refuse(*args):
        raise _Built
    monkeypatch.setattr(rng, "Generator", refuse)
    monkeypatch.setattr(rng, "Philox", refuse)
    for (out, high), want in zip(fills, ref):
        fill(keys, 8, out, high=high)
        assert np.array_equal(out, want)


def test_fill_refuses_what_it_cannot_write():
    keys = stream_keys(3, range(4), X_MAIN)
    high = np.int64(1) << 62
    bad = [
        # dtype: doubles without high, 64-bit integers with it
        (keys, np.empty((4, 8), dtype=np.float32), None),
        (keys, np.empty((4, 8), dtype=np.int64), None),
        (keys, np.empty((4, 8)), high),
        # rows that are not unit-stride
        (keys, np.empty((4, 16))[:, ::2], None),
        (keys, np.empty((8, 4)).T, None),
        # memory C may not write
        (keys, np.broadcast_to(np.empty(8), (4, 8)), None),
        # one key per row, no more and no fewer
        (keys[:3], np.empty((4, 8)), None),
        (keys, np.empty((5, 8)), None),
        # high: a power of two in (2^32, 2^64), one whole word per draw
        *[(keys, np.empty((4, 8), dtype=np.int64), h)
          for h in (2 ** 32, 2 ** 40 + 1, 6, 2 ** 64)],
    ]
    for k, out, h in bad:
        before = out.copy()
        with pytest.raises(ValueError):
            fill(k, 0, out, high=h)
        assert np.array_equal(out, before, equal_nan=out.dtype.kind == "f")
    for h in (2 ** 33, 2 ** 63):        # the ends of the accepted range
        out = np.empty((4, 8), dtype=np.int64)
        fill(keys, 0, out, high=h)
        assert np.array_equal(out, [
            RngStream(3, r, X_MAIN).generator().integers(
                0, h, dtype=np.int64, size=8) for r in range(4)])
