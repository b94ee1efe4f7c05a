"""Counter-based seeding: one generator per key of small nonnegative ints.

Every generator of the package comes from ``keyed_rng``: each independent
random draw (the source blob and sample, the classifier's and the style
extractor's weights, the source minibatch order, a stream batch, a set-up
batch, a Monte-Carlo chunk of trials) takes its own generator from a key
such as ``(seed, tag, index)``, so a draw never depends on the order in
which the others were made. Every generator, also each batch of a stacked
draw, is the result of one ``keyed_rng`` call and so of one call of
``np.random.default_rng``, looked up at call time, so a wrapper installed on
that module attribute sees each key.

``SeedSequence`` hashes the missing words of its four-word pool as 0, so
``keyed_rng(s, 0, 0, 0)``, ``keyed_rng(s, 0)`` and ``keyed_rng(s)`` give one
stream: keys of up to four words that differ only by trailing zeros share
their draws.
"""

from __future__ import annotations

import numpy as np

KEY_BOUND = 2**32  # every key entry lies in [0, KEY_BOUND)


def keyed_rng(*key: int) -> np.random.Generator:
    """``np.random.default_rng(key)``, seeded from a ``uint32`` array.

    An int in ``[0, 2**32)`` gives ``SeedSequence`` exactly one uint32
    entropy word, the same word as the entry of a ``uint32`` array, so both
    seeds give the same stream; the array skips numpy's int-by-int tuple
    conversion. An entry outside that range, a numpy integer too, raises
    ``OverflowError``: each entry passes through ``int`` first, since numpy
    wraps a numpy integer cast to ``uint32`` where it rejects a Python int.

    The generator is fresh: the caller may keep it as long as it likes.
    """
    return np.random.default_rng(np.array([int(k) for k in key], dtype=np.uint32))
