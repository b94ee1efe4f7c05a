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


@pytest.mark.parametrize(
    "prefix, indices",
    [((), [-1]), ((), [3, 2**32]), ((-1,), [0]), ((2**32,), [0]), ((3, 2**40), [1])],
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
