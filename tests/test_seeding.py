"""``keyed_rng`` gives the stream of ``default_rng`` on the same key."""

import numpy as np
import pytest

from reservoir_tta.seeding import keyed_rng


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


@pytest.mark.parametrize(
    "key",
    [
        (-1,),
        (2**32,),
        (3, 2**40),
        (-1, 0),
        (2**32, 0),
        (3, 2**40, 1),
        (0, -1),
        (1, 2**32, 0),
        (1, 0, 5, 24, -1),
        (0, 0, 0, 0, 2**32),
        (np.int64(-1),),
        (np.int64(2**32),),
        (np.uint64(2**32 + 5),),
    ],
)
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
@pytest.mark.parametrize("entry", [int, np.uint32, np.int64], ids=["int", "uint32", "int64"])
def test_keyed_rng_matches_tuple_seed_at_every_index(prefix, entry):
    # The callers' pattern: one keyed_rng per index, from a generator
    # expression; numpy integer entries in range give the int's stream.
    rngs = (keyed_rng(*map(entry, prefix), entry(i)) for i in _INDICES)
    for i, got in zip(_INDICES, rngs, strict=True):
        want = np.random.default_rng((*prefix, i))
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.integers(0, 5, 64), want.integers(0, 5, 64))
        np.testing.assert_array_equal(got.standard_normal(64), want.standard_normal(64))


def test_keyed_rng_is_fresh_at_every_key():
    # Three 32-bit draws leave half of a 64-bit output buffered in the
    # generator; the next key's generator must not see it.
    for i, got in zip(range(3), (keyed_rng(9, i) for i in range(3)), strict=True):
        assert got.bit_generator.state == np.random.default_rng((9, i)).bit_generator.state
        got.random(3, dtype=np.float32)
        assert got.bit_generator.state["has_uint32"] == 1


def test_keyed_rng_makes_one_default_rng_call_per_key(default_rng_calls):
    for _ in (keyed_rng(3, i) for i in range(10)):
        pass
    assert [tuple(key.tolist()) for (key,) in default_rng_calls] == [(3, i) for i in range(10)]


# Rows of trailing key words: both ends of the range, repeats, unsorted.
_ROWS = [(0, 0), (2**32 - 1, 5), (3, 2**31), (3, 2**31), (7, 0), (1, 2**32 - 1), (0, 1)]


@pytest.mark.parametrize("prefix", [(), (5,), (23, 2, 0), (1, 0, 5, 24)])
@pytest.mark.parametrize("as_array", [False, True], ids=["tuples", "uint32-array"])
def test_keyed_rng_of_key_rows_matches_tuple_seed_at_every_row(prefix, as_array):
    rows = np.array(_ROWS, dtype=np.uint32) if as_array else _ROWS
    rngs = (keyed_rng(*prefix, *row) for row in rows)
    for row, got in zip(_ROWS, rngs, strict=True):
        want = np.random.default_rng((*prefix, *row))
        assert got.bit_generator.state == want.bit_generator.state
        np.testing.assert_array_equal(got.integers(0, 5, 64), want.integers(0, 5, 64))
        np.testing.assert_array_equal(got.standard_normal(64), want.standard_normal(64))


def test_keyed_rng_of_nested_indices_matches_tuple_seed_in_row_major_order():
    # The nested generator expression of the candidate and stream batches.
    rows = [(a, k, i) for a in range(2) for k in range(3) for i in range(3)]
    rngs = (keyed_rng(23, 2, a, k, i) for a in range(2) for k in range(3) for i in range(3))
    for row, got in zip(rows, rngs, strict=True):
        assert got.bit_generator.state == np.random.default_rng((23, 2, *row)).bit_generator.state


def test_keyed_rng_makes_one_default_rng_call_per_key_row(default_rng_calls):
    for _ in (keyed_rng(3, k, i) for k in range(5) for i in range(2)):
        pass
    keys = [tuple(key.tolist()) for (key,) in default_rng_calls]
    assert keys == [(3, k, i) for k in range(5) for i in range(2)]


@pytest.mark.parametrize("seed", [0, 12345, 2**32 - 1])
def test_trailing_zeros_name_the_same_stream_up_to_four_words(seed):
    want = np.random.default_rng(seed).standard_normal(16).tobytes()
    for key in [(seed,), (seed, 0), (seed, 0, 0), (seed, 0, 0, 0)]:
        assert keyed_rng(*key).standard_normal(16).tobytes() == want, key
    # A fifth word is mixed in after the pool is filled, even when it is 0.
    assert keyed_rng(seed, 0, 0, 0, 0).standard_normal(16).tobytes() != want
