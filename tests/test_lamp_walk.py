"""The lamp engine (``grid.LampGrid``) against the generic walks.

Each reference walks on ``group.compose``, one ``law.sample_step`` per
step (``generic_walk``): the engine must give the same elements, disc
ids, reads and errors from the same uniforms.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinetree.errors import AffineTreeError, InexactAtom, \
    RealizationMismatch, StepBudgetExceeded
from affinetree.grid import reader
from affinetree.group import LampAffine, act_end, compose
from affinetree.law import StepLaw
from affinetree.rng import stream, stream_rows
from affinetree.tree import OMEGA, LampEnd, LampVertex, end_in_disc, pack
from affinetree.walk import (
    excursion_rows,
    ladder_excursion,
    ladder_limit_rows,
    sample_boundary_limit,
)

import generic_walk
from test_walk import _counts, _uniforms, check_group_reads, read_state


def _state(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


def _outcome(fn):
    try:
        return fn()
    except (AffineTreeError, TypeError) as exc:
        return type(exc).__name__


def _lamps(draw, q, lo, hi, size):
    return tuple(draw(st.dictionaries(st.integers(lo, hi),
                                      st.integers(1, q - 1),
                                      max_size=size)).items())


@st.composite
def lamp_laws(draw, min_drift=None):
    """Lamp laws with q in {2, 3, 4, 5}, shifts in [-2, 2] and random
    atom lamps."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(2, 3))
    atoms = tuple(LampAffine(q, _lamps(draw, q, -3, 3, 3),
                             draw(st.integers(-2, 2))) for _ in range(n))
    ws = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    law = StepLaw(atoms, tuple(Fraction(w, sum(ws)) for w in ws))
    if min_drift is not None:
        assume(law.drift() >= min_drift)
    assert law.grid is not None
    return law


def _end(draw, q):
    return LampEnd(q, draw(st.integers(-2, 12)), _lamps(draw, q, -6, 12, 5))


def _disc(draw, q, image):
    """A disc near the image's window, at times the image's own disc."""
    known = image.known_to if isinstance(image, LampEnd) else 8
    h = known + draw(st.integers(-6, 2))
    if isinstance(image, LampEnd) and h <= known and draw(st.booleans()):
        return LampVertex(q, h, image.values)
    return LampVertex(q, h, _lamps(draw, q, h - 6, h, 3))


def _lamp_state(grid, g):
    """The prefix state (s, (), t) of the lamp element g: t its lamps
    ``pack``ed, shifted by -s."""
    num, lo = pack(g.lamps, grid.width)
    return g.shift, (), (num, lo - g.shift)


@settings(max_examples=120, deadline=None)
@given(lamp_laws(), st.data())
def test_lamp_reads_match_compose(law, data):
    q, grid = law.degree, law.grid
    g, r = law.atoms[0].identity(), stream(data.draw(st.integers(0, 2 ** 32)), 0)
    for move in data.draw(st.lists(st.sampled_from("lr"), max_size=20)):
        x = law.sample_step(r)
        g = compose(x, g) if move == "l" else compose(g, x)
        s, _, (num, floor) = state = _lamp_state(grid, g)
        assert grid.element((s, 1, num, floor + s)) == g
        depth = data.draw(st.integers(-6, 8))
        assert grid.disc_id(grid.key(num, floor + s, depth)) == \
            g.lamps_to(depth)
        end = OMEGA if data.draw(st.integers(0, 20)) == 0 \
            else _end(data.draw, q)
        if end is OMEGA:      # the engine reads only cut ends
            with pytest.raises(RealizationMismatch):
                reader(grid, end)
            continue
        image = _outcome(lambda: act_end(g, end))
        disc = _disc(data.draw, q, image)
        assert _outcome(lambda: read_state(grid, end, state, disc)) == \
            _outcome(lambda: end_in_disc(act_end(g, end), disc))


@settings(max_examples=40, deadline=None)
@given(lamp_laws(min_drift=Fraction(1, 4)), st.integers(0, 2 ** 32),
       st.integers(1, 5), st.booleans())
def test_lamp_boundary_limit_matches_generic(law, seed, depth, ladder):
    if ladder:      # one row reading stream 0 in order
        [got] = ladder_limit_rows(
            law.grid, lambda ids, start, size: _uniforms(
                stream(seed, 0), start, size), np.array([0]), depth,
            depth + 8)
        assert got == generic_walk.ladder_boundary_limit(
            law, stream(seed, 0), depth=depth)
        return
    fast, ref = stream(seed, 0), stream(seed, 0)
    assert sample_boundary_limit(law, fast, depth=depth) == \
        generic_walk.sample_boundary_limit(law, ref, depth=depth)
    assert _state(fast) == _state(ref)
    fast, ref = stream(seed, 1), stream(seed, 1)
    for fn, rng in ((sample_boundary_limit, fast),
                    (generic_walk.sample_boundary_limit, ref)):
        with pytest.raises(StepBudgetExceeded):
            fn(law, rng, depth=depth, max_steps=5)
    assert _state(fast) == _state(ref)
    assert fast.random() == ref.random()


@settings(max_examples=40, deadline=None)
@given(lamp_laws(min_drift=Fraction(1, 4)), st.integers(0, 2 ** 32),
       st.data())
def test_lamp_ladder_excursions_match_generic(law, seed, data):
    """The batch's excursions of one stream against those of generic
    ``compose``, and each prefix state's reads."""
    q, grid = law.degree, law.grid
    [(lengths, heights, states)] = excursion_rows(
        grid, lambda ids, start, size: stream_rows(ids, start, size, seed),
        np.array([1]), 4, 30)
    ref = stream(seed, 1)
    want = [ladder_excursion(law, ref, track_prefix=True) for _ in range(4)]
    assert (lengths, heights) == ([w.length for w in want],
                                  [w.height for w in want])
    prefix = {(s, c, t): grid.element((s, 1, t[0], t[1] + s))
              for s, c, t in states}
    assert _counts((prefix[k], m) for k, m in states.items()) == \
        Counter(g for w in want for g in w.prefix)
    end = _end(data.draw, q)
    discs = [_disc(data.draw, q, end) for _ in range(4)]
    groups = {}
    for (s, c, t), m in states.items():
        groups.setdefault((s, c), []).append((t, m, prefix[s, c, t]))
    for (s, c), members in groups.items():
        check_group_reads(reader(grid, end), end, s, c, members, discs,
                          _outcome)


@pytest.mark.parametrize("known_to", [0, 5])
def test_window_limited_atoms_are_refused(known_to):
    """A lamp atom known only up to a position is refused where the law
    is built: no walk can lose its window."""
    atoms = (LampAffine(3, (), 1), LampAffine(3, ((0, 2),), -1, known_to))
    with pytest.raises(InexactAtom, match="not exact"):
        StepLaw(atoms, (Fraction(3, 4), Fraction(1, 4)))
