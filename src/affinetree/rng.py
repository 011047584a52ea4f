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

``stream_rows`` reads many streams ``stream(seed, *path, i)`` at once
from one position, and ``streams_at`` hands out each of many at its own
position.  Philox is counter-based: uniform k of a stream depends only
on its key and k, so one bit generator serves every row by taking each
row's key and the counter of its first uniform.
``position`` and ``seek`` read and set how far one stream has been
drawn; no other module reads or sets a generator's state.
"""

from __future__ import annotations

import hashlib
import operator
import struct

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


_KEY_WORDS = struct.Struct("<2Q")     # a digest as two 64-bit key words


def stream(seed, *path) -> np.random.Generator:
    """The generator keyed by the flattened path ``(seed, *path)``."""
    text = repr(tuple(_flat((seed, *path))))
    digest = hashlib.blake2b(text.encode(), digest_size=16).digest()
    words = np.frombuffer(digest, dtype="<u8")
    return np.random.Generator(np.random.Philox(_Key(words)))


def stream_rows(rows, start, size, seed, *path) -> np.ndarray:
    """Uniforms ``start`` to ``start + size`` of each stream
    ``stream(seed, *path, i)`` for ``i`` in ``rows``: row r holds what
    that stream's ``random()`` draws yield after ``start`` draws.  Every
    row starts at the same Philox block, so the loop only re-keys it."""
    skip = start % 4                # draws of that block before ``start``
    out = np.empty((len(rows), skip + size))
    gen, state, prefix = _rekeyed(seed, path)
    bits, inner = gen.bit_generator, state["state"]
    inner["counter"][0] = start // 4
    for row, i in zip(out, rows):
        inner["key"] = _row_key(prefix, i)
        bits.state = state
        gen.random(out=row)
    return out[:, skip:]


def streams_at(rows, starts, seed, *path):
    """For each ``i`` in ``rows``, a generator in the state of
    ``stream(seed, *path, i)`` after as many draws as the matching item of
    ``starts``; it is one generator, re-keyed for every row, so use each
    before asking for the next."""
    gen, state, prefix = _rekeyed(seed, path)
    bits, inner = gen.bit_generator, state["state"]
    for i, start in zip(rows, starts):
        inner["key"] = _row_key(prefix, i)
        inner["counter"][0] = start // 4
        bits.state = state
        if start % 4:
            gen.random(start % 4)
        yield gen


def _rekeyed(seed, path):
    """(generator, state, prefix) for re-keying one Philox generator per
    stream ``stream(seed, *path, i)``: set the key words and the counter of
    the first uniform's block in ``state["state"]``, then hand ``state``
    to the bit generator.  ``prefix`` hashes the key text before ``i``."""
    # repr of (*prefix, i) is the prefix's items, then repr(i) and ")"
    head = "(" + "".join(f"{item!r}, " for item in _flat((seed, *path)))
    prefix = hashlib.blake2b(head.encode(), digest_size=16)
    bits = np.random.Philox(_Key(np.zeros(2, dtype=np.uint64)))
    # the setter reads plain ints faster than the arrays the getter gives
    state = bits.state
    state["state"] = {"counter": [0, 0, 0, 0], "key": None}
    state["buffer"] = [0] * 4
    return np.random.Generator(bits), state, prefix


def _row_key(prefix, i):
    """The key words of the stream whose key text is ``prefix`` then i."""
    h = prefix.copy()
    h.update(b"%d)" % operator.index(i))
    return _KEY_WORDS.unpack(h.digest())


def position(gen) -> int:
    """Uniforms ``gen`` has handed out, four per Philox block."""
    state = gen.bit_generator.state
    return 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"]


def seek(gen, pos: int) -> None:
    """Leave ``gen`` as ``pos`` draws of ``random()`` from its start do."""
    state = gen.bit_generator.state
    state["state"]["counter"][0], state["buffer_pos"] = max(pos - 1, 0) // 4, 4
    gen.bit_generator.state = state
    gen.random((pos - 1) % 4 + 1 if pos else 0)
