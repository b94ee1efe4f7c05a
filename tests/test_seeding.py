"""The keyed generators give the stream of ``default_rng`` on the same key."""

import numpy as np
import pytest

from reservoir_tta import seeding
from reservoir_tta.seeding import keyed_rng, keyed_rngs


@pytest.mark.parametrize(
    "key",
    [
        (0,),
        (2**32 - 1,),
        (101, 0),
        (7, 10, 1999),
        (0, 2**32 - 1, 3, 2**31),
        (1, 0, 5, 24, 2**32 - 1),
    ],
)
def test_keyed_rng_matches_tuple_seed(key):
    got, want = keyed_rng(*key), np.random.default_rng(key)
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.standard_normal(64), want.standard_normal(64))
    np.testing.assert_array_equal(got.integers(0, 5, 64), want.integers(0, 5, 64))


@pytest.mark.parametrize("key", [(-1,), (2**32,), (3, 2**40)])
def test_keyed_rng_rejects_entries_outside_uint32(key):
    with pytest.raises(OverflowError):
        keyed_rng(*key)


# Non-contiguous, unsorted and repeated indices, with both ends of the range.
_INDICES = [0, 2**32 - 1, 5, 3, 1_000_003, 2**31, 5, 77, 1]


@pytest.mark.parametrize(
    "prefix",
    [
        (),
        (2**32 - 1,),
        (101, 0),
        (7, 10, 2**32 - 1),
        (0, 2**32 - 1, 3, 2**31),
        (1, 0, 5, 24, 2**32 - 1),
    ],
    ids=lambda prefix: f"key-length-{len(prefix) + 1}",
)
@pytest.mark.parametrize("chunk", [2048, 4], ids=["one-chunk", "chunks-of-4"])
def test_keyed_rngs_match_keyed_rng_at_every_key(monkeypatch, prefix, chunk):
    monkeypatch.setattr(seeding, "_CHUNK", chunk)
    for i, got in zip(_INDICES, keyed_rngs(prefix, _INDICES), strict=True):
        want = keyed_rng(*prefix, i)
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.integers(0, 5, 64), want.integers(0, 5, 64))
        np.testing.assert_array_equal(got.standard_normal(64), want.standard_normal(64))


def test_keyed_rngs_reset_the_buffered_word_at_every_key():
    # Three 32-bit draws leave half of a 64-bit output buffered in the
    # shared bit generator; the next key must not see it.
    for i, got in zip(range(3), keyed_rngs((9,), range(3))):
        assert got.bit_generator.state == keyed_rng(9, i).bit_generator.state
        got.random(3, dtype=np.float32)
        assert got.bit_generator.state["has_uint32"] == 1


def test_keyed_rngs_of_no_index_yield_nothing():
    assert list(keyed_rngs((1, 2), range(0))) == []


def test_keyed_rngs_make_one_default_rng_call_per_key(monkeypatch, default_rng_calls):
    monkeypatch.setattr(seeding, "_CHUNK", 4)
    for _ in keyed_rngs((3,), range(10)):
        pass
    assert len(default_rng_calls) == 10


# Rows of trailing key words: both ends of the range, repeats, unsorted.
_ROWS = [(0, 0), (2**32 - 1, 5), (3, 2**31), (3, 2**31), (7, 0), (1, 2**32 - 1), (0, 1)]


@pytest.mark.parametrize("prefix", [(), (5,), (23, 2, 0), (1, 0, 5, 24)])
@pytest.mark.parametrize("chunk", [2048, 3], ids=["one-chunk", "chunks-of-3"])
@pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "uint32-array"])
def test_keyed_rngs_of_key_rows_match_keyed_rng_at_every_row(monkeypatch, prefix, chunk, as_array):
    monkeypatch.setattr(seeding, "_CHUNK", chunk)
    rows = np.array(_ROWS, dtype=np.uint32) if as_array else _ROWS
    for row, got in zip(_ROWS, keyed_rngs(prefix, rows), strict=True):
        want = keyed_rng(*prefix, *row)
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.integers(0, 5, 64), want.integers(0, 5, 64))
        np.testing.assert_array_equal(got.standard_normal(64), want.standard_normal(64))


def test_keyed_rngs_of_three_word_rows_cross_chunk_edges(monkeypatch):
    monkeypatch.setattr(seeding, "_CHUNK", 4)
    rows = [(a, k, i) for a in range(2) for k in range(3) for i in range(3)]
    for row, got in zip(rows, keyed_rngs((23, 2), rows), strict=True):
        assert got.bit_generator.state == keyed_rng(23, 2, *row).bit_generator.state


def test_keyed_rngs_make_one_default_rng_call_per_key_row(monkeypatch, default_rng_calls):
    monkeypatch.setattr(seeding, "_CHUNK", 4)
    for _ in keyed_rngs((3,), [(k, i) for k in range(5) for i in range(2)]):
        pass
    assert len(default_rng_calls) == 10


@pytest.mark.parametrize(
    "prefix, indices",
    [
        ((), [-1]),
        ((), [3, 2**32]),
        ((-1,), [0]),
        ((2**32,), [0]),
        ((3, 2**40), [1]),
        ((), [(0, -1)]),
        ((1,), [(0, 1), (2**32, 0)]),
    ],
)
def test_keyed_rngs_reject_entries_outside_uint32(prefix, indices):
    with pytest.raises(OverflowError):
        list(keyed_rngs(prefix, indices))


@pytest.mark.parametrize("seed", [0, 12345, 2**32 - 1])
def test_trailing_zeros_name_the_same_stream_up_to_four_words(seed):
    want = np.random.default_rng(seed).standard_normal(16).tobytes()
    for key in [(seed,), (seed, 0), (seed, 0, 0), (seed, 0, 0, 0)]:
        assert keyed_rng(*key).standard_normal(16).tobytes() == want, key
    assert next(keyed_rngs((seed, 0, 0), [0])).standard_normal(16).tobytes() == want
    # A fifth word is mixed in after the pool is filled, even when it is 0.
    assert keyed_rng(seed, 0, 0, 0, 0).standard_normal(16).tobytes() != want
