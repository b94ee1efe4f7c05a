"""The keyed generator gives the stream of ``default_rng`` on the same key."""

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


@pytest.mark.parametrize("key", [(-1,), (2**32,), (3, 2**40)])
def test_keyed_rng_rejects_entries_outside_uint32(key):
    with pytest.raises(OverflowError):
        keyed_rng(*key)
