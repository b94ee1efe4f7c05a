"""Counter-based seeding: one generator per key of small nonnegative ints.

Every independent random draw of the package (a stream batch, a set-up
batch, a Monte-Carlo chunk of trials) takes its own generator from a key such
as ``(seed, tag, index)``, so a draw never depends on the order in which the
others were made.

A caller that keeps its generator takes it from ``keyed_rng``. A loop that
uses each key's generator only until it moves on to the next key takes them
from ``keyed_rngs``: it hashes a chunk of keys at once and re-seeds one shared
bit generator per key, which gives the same streams at a fraction of the
set-up cost, also for keys of several varying words, given as rows. Either
way every keyed generator, also each batch of a stacked draw, is the result
of one call of ``np.random.default_rng``, looked up at call time, so a
wrapper installed on that module attribute sees each of them.

``SeedSequence`` hashes the missing words of its four-word pool as 0, so
``keyed_rng(s, 0, 0, 0)``, ``keyed_rng(s, 0)`` and ``np.random.default_rng(s)``
give one stream: keys of up to four words that differ only by trailing
zeros share their draws.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

KEY_BOUND = 2**32  # every key entry lies in [0, KEY_BOUND)

# Keys ``keyed_rngs`` hashes at once; bounds its transient arrays.
_CHUNK = 2048

# numpy's SeedSequence constants (pool of 4 uint32 words).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
# PCG64's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def keyed_rng(*key: int) -> np.random.Generator:
    """``np.random.default_rng(key)``, built sooner.

    An int in ``[0, 2**32)`` gives ``SeedSequence`` exactly one uint32
    entropy word, the same word as the entry of a ``uint32`` array, so both
    seeds give the same stream; the array skips numpy's int-by-int tuple
    conversion. An entry outside that range raises ``OverflowError``.

    The generator is fresh: the caller may keep it as long as it likes.
    """
    return np.random.default_rng(np.array(key, dtype=np.uint32))


def keyed_rngs(prefix: Sequence[int], keys: Sequence) -> Iterator[np.random.Generator]:
    """The generators of ``keyed_rng(*prefix, *row)`` for each ``row`` of ``keys``, in order.

    ``keys`` holds Python ints (a ``range`` or a list), one trailing key word
    each, or a block of rows of them, one row of trailing words per key.
    Each yielded generator gives the same stream as ``keyed_rng(*prefix,
    *row)`` but is valid only until the next one is yielded: all of them wrap
    one shared ``PCG64`` that is re-seeded for every key. The keys are
    hashed ``_CHUNK`` at a time with ``SeedSequence``'s arithmetic on uint32
    columns. An entry of the prefix or of ``keys`` outside ``[0, 2**32)``
    raises ``OverflowError``, before the first generator of its chunk.
    """
    head = np.array(prefix, dtype=np.uint32)
    bitgen = np.random.PCG64(0)
    for start in range(0, len(keys), _CHUNK):
        rows = np.array(keys[start:start + _CHUNK], dtype=np.uint32)
        entropy = np.vstack((np.broadcast_to(head[:, None], (head.size, len(rows))), rows.T))
        for state in _pcg64_states(_seed_sequence_state(entropy)):
            bitgen.state = {
                "bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0
            }
            yield np.random.default_rng(bitgen)


def _hashmix(value: np.ndarray, hash_const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of a uint32 column; returns the next constant too."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = value * np.uint32(hash_const)
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _seed_sequence_state(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(entropy[:, j]).generate_state(8, np.uint32)`` for every
    column ``j`` of a ``(words, n)`` uint32 array, as 8 uint32 columns."""
    words = entropy.shape[0]
    zero = np.zeros(entropy.shape[1], dtype=np.uint32)
    hash_const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        mixed, hash_const = _hashmix(entropy[i] if i < words else zero, hash_const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = _hashmix(pool[i_src], hash_const)
                pool[i_dst] = _mix(pool[i_dst], mixed)
    for i_src in range(_POOL_SIZE, words):
        for i_dst in range(_POOL_SIZE):
            mixed, hash_const = _hashmix(entropy[i_src], hash_const)
            pool[i_dst] = _mix(pool[i_dst], mixed)

    hash_const = _INIT_B
    state = []
    for i_dst in range(8):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state.append(value ^ (value >> _XSHIFT))
    return state


def _pcg64_states(words: list[np.ndarray]) -> Iterator[dict[str, int]]:
    """PCG64's seeded ``{"state", "inc"}`` per column of its 8 SeedSequence words.

    ``generate_state(4, np.uint64)`` pairs the words low word first into
    ``(s0, s1, s2, s3)``; PCG64 seeds with ``initstate = s0 * 2**64 + s1``
    and ``initseq = s2 * 2**64 + s3`` through PCG's ``srandom``.
    """
    s0, s1, s2, s3 = (
        (words[2 * k].astype(np.uint64) | (words[2 * k + 1].astype(np.uint64) << np.uint64(32)))
        .tolist()
        for k in range(4)
    )
    for a, b, c, d in zip(s0, s1, s2, s3):
        initstate, initseq = (a << 64) | b, (c << 64) | d
        inc = ((initseq << 1) | 1) & _MASK128
        yield {"state": ((inc + initstate) * _PCG_MULT + inc) & _MASK128, "inc": inc}
