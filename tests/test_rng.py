"""Stream keying: reproducible, disjoint by (seed, replica, stream)."""

import dataclasses

import numpy as np
import pytest
from numpy.random import SeedSequence

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


def test_stream_keys_reject_what_is_not_an_int():
    # graphs._is_int's rule: ints and numpy integers, not bools or floats
    for args in [(1.5, [0], 0), (True, [0], 0), (0, [2.5], 0),
                 (0, [True], 0), (0, np.array([1.0]), 0), (0, [0], 1.0),
                 (0, [0], False), (0, ["1"], 0), (0, [1, True], 0),
                 (0, (True, 2), 0), (0, np.array([1, 2], object), 0)]:
        with pytest.raises(ValueError, match="non-negative integer"):
            stream_keys(*args)
    assert np.array_equal(stream_keys(np.int64(7), np.array([3], np.uint32),
                                      np.int32(2)), stream_keys(7, [3], 2))


def test_fill_continues_the_reference_generator():
    replicas = [0, 4, 2 ** 32 + 1]
    keys = stream_keys(9, replicas, Y_MAIN)
    ref = [RngStream(9, r, Y_MAIN).generator() for r in replicas]
    u = np.empty((40, 3))
    for start in range(0, 40, 8):              # five chunks of 8
        fill(keys, start, u[start:start + 8])
    assert np.array_equal(u.T, [g.random(40) for g in ref])
    high = np.int64(1) << 62
    raw = np.empty((24, 3), dtype=np.int64)
    for start in (0, 12):
        fill(keys, start, raw[start:start + 12], high=high)
    ref = [RngStream(9, r, Y_MAIN).generator() for r in replicas]
    assert np.array_equal(raw.T, [g.integers(0, high, dtype=np.int64, size=24)
                                  for g in ref])
    with pytest.raises(ValueError):
        fill(keys, 6, u[:4])


@pytest.mark.parametrize("start", [0, 4, 4096, 2 ** 40])
def test_fill_equals_the_reference_generator_at_every_length(start):
    # every length through nine Philox blocks, doubles written through a
    # strided view with an offset, and 62-bit words
    replicas = [0, 7, 2 ** 32 + 1]
    keys = stream_keys(11, replicas, X_MAIN)
    buf = np.empty((40, len(replicas) + 2))
    raw = np.empty((40, len(replicas)), dtype=np.int64)
    high = np.int64(1) << 62
    for length in range(1, 37):
        fill(keys, start, buf[:length, 1:-1])
        fill(keys, start, raw[:length], high=high)
        for r, col, words in zip(replicas, buf[:, 1:-1].T, raw.T):
            g = RngStream(11, r, X_MAIN).generator()
            g.bit_generator.advance(start // 4)
            assert np.array_equal(col[:length], g.random(length))
            g = RngStream(11, r, X_MAIN).generator()
            g.bit_generator.advance(start // 4)
            assert np.array_equal(words[:length], g.integers(
                0, high, dtype=np.int64, size=length))


# 0, 1, 2 and 3 full groups of the 16 columns philox_fill runs per pass in
# AVX-512 lanes, and the columns left over beside them
LANE_COLUMNS = range(1, 49)


@pytest.mark.parametrize("start", [0, 4, 4096, 2 ** 40])
def test_fill_equals_the_reference_in_and_beside_the_lane_groups(start):
    # every length through nine Philox blocks, doubles through a strided
    # view, and the words of every high fill takes, 2^33 .. 2^63 (every
    # shift); rows past the length and the column past the view stay as
    # they were
    replicas = [5 * r + 2 for r in range(max(LANE_COLUMNS))]
    for high in [None, *(2 ** e for e in range(33, 64))]:
        gens = [RngStream(17, r, X_MAIN).generator() for r in replicas]
        for g in gens:
            g.bit_generator.advance(start // 4)
        want = np.array([g.random(36) if high is None else g.integers(
            0, high, dtype=np.int64, size=36) for g in gens]).T
        for cols in LANE_COLUMNS:
            keys = stream_keys(17, replicas[:cols], X_MAIN)
            out = np.empty((40, cols + 1), dtype=want.dtype)
            for length in range(1, 37):
                out[:] = 3
                fill(keys, start, out[:length, :cols], high=high)
                assert np.array_equal(out[:length, :cols],
                                      want[:length, :cols]), (cols, high,
                                                               length)
                assert (out[length:] == 3).all(), (cols, high, length)
                assert (out[:, cols] == 3).all(), (cols, high, length)


def test_fill_without_the_lanes_writes_the_same_bytes(scalar_library):
    # every column runs the scalar loop (see the fixture)
    scalar = scalar_library.philox_fill
    keys = stream_keys(17, range(40), X_MAIN)
    for shift, dtype in ((0, np.float64), (2, np.int64)):
        want, got = (np.empty((37, 40), dtype=dtype) for _ in range(2))
        fill(keys, 2 ** 40, want, high=2 ** 62 if shift else None)
        scalar(keys.ctypes.data, 40, 2 ** 40, 37, got.ctypes.data, 40, shift)
        assert np.array_equal(got, want)


class _Built(Exception):
    pass


def test_fill_builds_no_generator(monkeypatch):
    # one compiled path for every row length and for integer draws
    keys = stream_keys(3, range(5), X_MAIN)
    fills = [(np.empty((n, 5)), None) for n in (1, 32, 33, 4096)]
    fills.append((np.empty((40, 5), dtype=np.int64), np.int64(1) << 62))
    ref = []
    for out, high in fills:
        gens = [RngStream(3, r, X_MAIN).generator() for r in range(5)]
        for g in gens:
            g.bit_generator.advance(2)
        n = len(out)
        ref.append(np.array([g.random(n) if high is None else
                             g.integers(0, high, dtype=np.int64, size=n)
                             for g in gens]).T)

    def refuse(*args):
        raise _Built
    # RngStream.generator imports these from numpy.random when it runs
    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "Philox", refuse)
    for (out, high), want in zip(fills, ref):
        fill(keys, 8, out, high=high)
        assert np.array_equal(out, want)


def test_fill_refuses_what_it_cannot_write():
    keys = stream_keys(3, range(4), X_MAIN)
    high = np.int64(1) << 62
    bad = [
        # dtype: doubles without high, 64-bit integers with it
        (keys, np.empty((8, 4), dtype=np.float32), None),
        (keys, np.empty((8, 4), dtype=np.int64), None),
        (keys, np.empty((8, 4)), high),
        # columns that are not unit-stride, a stream-major buffer among them
        (keys, np.empty((8, 8))[:, ::2], None),
        (keys, np.empty((4, 8)).T, None),
        # memory C may not write
        (keys, np.broadcast_to(np.empty(4), (8, 4)), None),
        # one key per column, no more and no fewer, whatever the row count
        (keys[:3], np.empty((8, 4)), None),
        (keys, np.empty((8, 5)), None),
        (keys, np.empty((4, 8)), None),
        # high: a power of two in (2^32, 2^64), one whole word per draw
        *[(keys, np.empty((8, 4), dtype=np.int64), h)
          for h in (2 ** 32, 2 ** 40 + 1, 6, 2 ** 64)],
        # an empty out has strides (0, 0), but every other refusal holds
        (keys, np.empty((0, 4), dtype=np.float32), None),
        (keys[:3], np.empty((0, 4)), None),
        (keys, np.empty((0, 4)), 2 ** 40 + 1),
    ]
    for k, out, h in bad:
        before = out.copy()
        with pytest.raises(ValueError):
            fill(k, 0, out, high=h)
        assert np.array_equal(out, before, equal_nan=out.dtype.kind == "f")
    fill(keys, 4, np.empty((0, 4)))          # zero draws: a zero-step run
    fill(keys, 4, np.empty((0, 4), dtype=np.int64), high=high)
    for h in (2 ** 33, 2 ** 63):        # the ends of the accepted range
        out = np.empty((8, 4), dtype=np.int64)
        fill(keys, 0, out, high=h)
        assert np.array_equal(out.T, [
            RngStream(3, r, X_MAIN).generator().integers(
                0, h, dtype=np.int64, size=8) for r in range(4)])
