"""Reproducible random streams, one Philox key per key path.

``stream(seed, *path)`` is the only place a generator is built.  Its key
is a 128-bit blake2b hash of the flattened path ``(seed, *path)``; items
are ints of any size or strings, and a tuple item (a key handed down by
a caller) is spliced in place.  Following the key/counter split of
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11),
every stream has its own key, so two different paths never share a
stream.  Estimators label their streams ("kernel", "limit", ...), a
caller that runs one estimator several times adds what tells the calls
apart, and suites key each claim by its claim id.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence


class _Key(ISeedSequence):
    """The key words, handed to Philox in place of a seed sequence:
    ``Philox(key=...)`` would read OS entropy for one and discard it."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _flat(parts):
    for part in parts:
        if isinstance(part, tuple):
            yield from _flat(part)
        else:   # numpy ints would repr differently from equal ints
            yield part if isinstance(part, str) else operator.index(part)


def stream(seed, *path) -> np.random.Generator:
    """The generator keyed by the flattened path ``(seed, *path)``."""
    text = repr(tuple(_flat((seed, *path))))
    digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
    words = np.frombuffer(digest, dtype="<u8")
    return np.random.Generator(np.random.Philox(_Key(words)))
