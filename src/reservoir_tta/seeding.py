"""Counter-based seeding: one generator per key of small nonnegative ints.

Every independent random draw of the package (a Monte-Carlo trial, a stream
batch, a set-up batch) takes its own generator from a key such as
``(seed, tag, index)``, so a draw never depends on the order in which the
others were made.
"""

from __future__ import annotations

import numpy as np

KEY_BOUND = 2**32  # every key entry lies in [0, KEY_BOUND)


def keyed_rng(*key: int) -> np.random.Generator:
    """``np.random.default_rng(key)``, built sooner.

    An int in ``[0, 2**32)`` gives ``SeedSequence`` exactly one uint32
    entropy word, the same word as the entry of a ``uint32`` array, so both
    seeds give the same stream; the array skips numpy's int-by-int tuple
    conversion. An entry outside that range raises ``OverflowError``.

    ``np.random.default_rng`` is looked up at every call, so a wrapper
    installed on the module attribute sees every generator built here.
    """
    return np.random.default_rng(np.array(key, dtype=np.uint32))
