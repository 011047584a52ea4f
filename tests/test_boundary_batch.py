"""Certified boundary limits as one batch of keyed rows.

``walk.boundary_limits`` walks the streams ``stream(seed, *path, i)``
together; each row must give what ``sample_boundary_limit`` gives on
that stream, on the engine and on generic ``compose`` (``generic_walk``),
and its steps must be the uniforms that call used.
``limit_measure_value`` draws its rotation units and reads its hits from
the batch; both must match the generic ``sample_mbar`` and membership
test, sample by sample.
"""

import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetree import grid, walk
from affinetree.config import parse_config
from affinetree.errors import AffineTreeError, PrecisionExhausted, \
    StepBudgetExceeded
from affinetree.group import PadicAffine, act_vertex, compose, invert, \
    power
from affinetree.law import StepLaw
from affinetree.padic import PAdic
from affinetree.renewal import (
    CylinderEvent,
    _mbar_rows,
    limit_measure_value,
)
from affinetree.rng import position, stream
from affinetree.tree import LampVertex, PadicVertex
from affinetree.walk import boundary_limits, ladder_limit_rows, \
    limit_rows, sample_boundary_limit

import generic_walk
from test_lamp_walk import lamp_laws
from test_walk import SMALL_BUDGETS, _uniforms, grid_laws

LAW_NEG = StepLaw((PadicAffine(PAdic.from_int(0, 2),
                               PAdic.from_fraction(Fraction(1, 2), 2)),
                   PadicAffine(PAdic.from_int(1, 2), PAdic.from_int(2, 2))),
                  (Fraction(3, 4), Fraction(1, 4)))


def _with_budget(law, budget):
    """The p-adic law with its atoms' values held at ``budget``: at a
    small working precision an exact translation has fewer digits than
    the end window, which the end must still cut at the window."""
    if law.kind != "padic" or budget is None:
        return law
    atoms = tuple(PadicAffine(PAdic.from_fraction(g.t.exact, g.prime, budget),
                              PAdic.from_fraction(g.a.exact, g.prime, budget))
                  for g in law.atoms)
    return StepLaw(atoms, law.weights)


def _row(bl, max_steps):
    """A batch row as ``_scalar`` gives it: a walk out of steps used
    ``max_steps`` uniforms, a certified one its ``steps``."""
    return repr(bl), max_steps if bl is None else bl.steps


def _scalar(law, seed, path, i, fn=sample_boundary_limit, **kw):
    """(limit or None, uniforms used) of ``fn``, ``sample_boundary_limit``
    or its generic reference, on stream i, the limit as its repr: equal
    p-adic values compare equal to precision, and the repr tells exact
    values apart as reports do."""
    rng = stream(seed, *path, i)
    try:
        return repr(fn(law, rng, **kw)), position(rng)
    except StepBudgetExceeded:
        return repr(None), position(rng)


@st.composite
def batch_cases(draw):
    law = draw(st.one_of(grid_laws(), lamp_laws(min_drift=Fraction(1, 4))))
    law = _with_budget(law, draw(st.sampled_from([None, *SMALL_BUDGETS])))
    depth = draw(st.integers(1, 6))
    kw = {"depth": depth,
          "end_window": draw(st.one_of(st.none(),
                                       st.integers(depth, depth + 24))),
          "max_steps": draw(st.sampled_from([10 ** 7, 10 ** 7, 40, 90,
                                             300]))}
    # short guards and long runs make the key runs, not the height,
    # decide many stops
    rule = {"stable_epochs": draw(st.integers(1, 6)),
            "height_guard": draw(st.sampled_from([0, 2, 15]))}
    # small blocks and chunks: rows span several of each
    shape = draw(st.sampled_from([(grid.BATCH_ROWS, grid.BATCH_COLS),
                                  (3, 5), (4, 17)]))
    return law, kw, rule, shape


@settings(max_examples=60, deadline=None)
@given(batch_cases(), st.integers(0, 2 ** 32), st.integers(1, 9))
def test_batch_matches_scalar_limits_row_by_row(case, seed, count):
    """The batch against ``sample_boundary_limit`` on the engine and on
    generic compose, under the stop rule as shipped and under its other
    settings (``walk.STABLE_EPOCHS`` and ``walk.HEIGHT_GUARD`` patched)."""
    law, kw, rule, (rows, cols) = case
    ref = generic_walk.sample_boundary_limit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "BATCH_ROWS", rows)
        mp.setattr(grid, "BATCH_COLS", cols)
        got = boundary_limits(law, count, seed, "batch", **kw)
        for i, bl in enumerate(got):
            assert _row(bl, kw["max_steps"]) == \
                _scalar(law, seed, ("batch",), i, **kw) == \
                _scalar(law, seed, ("batch",), i, ref, **kw)
        mp.setattr(walk, "STABLE_EPOCHS", rule["stable_epochs"])
        mp.setattr(walk, "HEIGHT_GUARD", rule["height_guard"])
        got = boundary_limits(law, count, seed, "batch", **kw)
        for i, bl in enumerate(got):
            assert _row(bl, kw["max_steps"]) == \
                _scalar(law, seed, ("batch",), i, **kw) == \
                _scalar(law, seed, ("batch",), i, ref, **kw)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("working", [48, 8])
def test_ends_carry_exactly_their_window(working):
    """At working precision 8 most translations here are exact with fewer
    digits than the window; every end, on the engine batch, the one-row
    branch, the generic walk and the ladder walk (on the engine and on
    generic ``compose``), is still known modulo exactly p**end_window and
    refuses a read past the window, and every end of the right walk
    agrees at the window with a 40-digit certification of its stream."""
    text = (CONFIGS / "drift_pos.ini").read_text()
    law = parse_config(text.replace("working_precision = 48",
                                    f"working_precision = {working}")).law
    assert law.atoms[0].t.budget.working == working
    depth, window, count = 4, 12, 200
    deep = boundary_limits(law, count, 5, "window", depth=depth,
                           end_window=40)
    batch = boundary_limits(law, count, 5, "window", depth=depth)
    for i, (bl, ref) in enumerate(zip(batch, deep)):
        rng = lambda: stream(5, "window", i)
        ends = [bl.end,
                sample_boundary_limit(law, rng(), depth=depth).end,
                generic_walk.sample_boundary_limit(law, rng(),
                                                   depth=depth).end]
        for end in ends:
            assert end.disc_key(window) == ref.end.disc_key(window)
        if i < 20:      # the ladder walk's limit is another point
            [ladder] = ladder_limit_rows(
                law.grid, lambda ids, start, size: _uniforms(
                    rng(), start, size), np.array([0]), depth, window)
            ends += [ladder.end, generic_walk.ladder_boundary_limit(
                law, rng(), depth=depth).end]
            assert repr(ends[-2]) == repr(ends[-1])
        for end in ends:
            assert end.value.known_exponent == window
            with pytest.raises(PrecisionExhausted):
                end.disc_key(30)


def test_rows_span_blocks_and_exhaust_budgets():
    law = LAW_NEG.inverse()
    got = boundary_limits(law, 200, 7, "span", depth=3, end_window=40,
                          max_steps=150)
    steps = [bl.steps for bl in got if bl]
    assert max(steps) > grid.BATCH_COLS and len(steps) < len(got)
    for i, bl in enumerate(got):
        assert _row(bl, 150) == _scalar(law, 7, ("span",), i, depth=3,
                                        end_window=40, max_steps=150)


def _outcome(fn):
    try:
        return fn()
    except AffineTreeError as exc:
        return type(exc).__name__


def _events(draw, law, window, x):
    """Single-level events near the end's window: sources at 0 and off
    it, some above the window, and targets that are often the images of
    the sources under s**level·x^{-1}, so that deep sources hit too."""
    level = draw(st.integers(-3, 3))
    image = compose(power(law.atoms[0].reference_homothety().element, level),
                    invert(x))
    out = []
    for _ in range(draw(st.integers(1, 2))):
        h = draw(st.sampled_from([0, 1, window - 1, window, window + 1,
                                  draw(st.integers(-3, window + 2))]))
        if law.kind == "padic":
            p = law.degree
            center = draw(st.sampled_from(
                [0, 0, Fraction(draw(st.integers(0, 99)), p ** 2)]))
            out.append((PadicVertex(p, h, center), PadicVertex(
                p, h + level, Fraction(draw(st.integers(0, 63))))))
        else:
            q = law.degree
            lamps = lambda top: tuple(draw(st.dictionaries(
                st.integers(top - 3, top), st.integers(1, q - 1),
                max_size=2)).items())
            out.append((LampVertex(q, h, lamps(h)),
                        LampVertex(q, h + level, lamps(h + level))))
        tgt = _outcome(lambda: act_vertex(image, out[-1][0]))
        if not isinstance(tgt, str) and draw(st.booleans()):
            out[-1] = out[-1][0], tgt
    return [CylinderEvent(*zip(*out))]


def _end(law, row, depth):
    """The end of a limit row of ``law``'s inverted walk."""
    return walk._boundary_limit(law.inverse().grid, row, depth + 8).end


def _hit_cases(f, law, depth, rows, units):
    """Per limit row of ``law``'s inverted walk and its unit: the hit read
    on integers (None where ``hit_test`` does not decide it) and
    the generic member test of s**level·x^{-1}, or its error's name."""
    s_h = power(law.atoms[0].reference_homothety().element, f.level)
    test = law.inverse().grid.hit_test(f, depth + 8)
    for row, unit in zip(rows, units):
        x = law.atoms[0].section(_end(law, row, depth), unit)
        want = _outcome(lambda: f.member(compose(s_h, invert(x))))
        yield x, (None if test is None else test(row[3], unit)), want


@settings(max_examples=40, deadline=None)
@given(st.one_of(grid_laws(), lamp_laws(min_drift=Fraction(1, 4))),
       st.integers(0, 2 ** 32), st.integers(0, 4), st.data())
def test_limit_samples_match_sample_mbar(up, seed, top, data):
    law = up.inverse()          # negative drift; its inverse walks up
    depth = max(top + 2, 4)
    samples = 5
    rows, units = zip(*_mbar_rows(law, seed, samples, depth))
    x = law.atoms[0].section(_end(law, rows[0], depth), units[0])
    for f in _events(data.draw, law, depth + 8, x):
        cases = _hit_cases(f, law, depth, rows, units)
        for i, (x, hit, want) in enumerate(cases):
            # the repr holds every digit of the end and of the unit
            assert repr(x) == repr(generic_walk.sample_mbar(
                law, stream(seed, "limit", i), depth=depth))
            assert hit in (None, want)
    if law.kind != "padic":
        assert units == (None,) * samples


@settings(max_examples=40, deadline=None)
@given(grid_laws().filter(lambda up: up.degree > 2),
       st.integers(0, 2 ** 32), st.integers(0, 4), st.data())
def test_integer_hits_match_member_for_odd_primes(up, seed, top, data):
    """The hit read on integers at p = 3 and 5, whose unit inverse is
    taken modulo a power of p, with units drawn here."""
    law = up.inverse()
    p, depth, samples = law.degree, max(top + 2, 4), 5
    rows = [row for chunk in limit_rows(up, samples, seed, "limit",
                                        depth=depth) for row in chunk]
    units = [data.draw(st.integers(0, p ** 48 // p - 1)) * p
             + data.draw(st.integers(1, p - 1)) for _ in rows]
    x = law.atoms[0].section(_end(law, rows[0], depth), units[0])
    for f in _events(data.draw, law, depth + 8, x):
        for _, hit, want in _hit_cases(f, law, depth, rows, units):
            assert hit in (None, want)


def test_sample_mbar_draws_units_for_odd_primes():
    """p**48 is past numpy's int64 bound for p = 3 and 5, so the unit's
    digits are drawn in chunks."""
    law = StepLaw((PadicAffine(PAdic.from_int(0, 3),
                               PAdic.from_fraction(Fraction(1, 3), 3)),
                   PadicAffine(PAdic.from_int(1, 3), PAdic.from_int(3, 3))),
                  (Fraction(3, 4), Fraction(1, 4)))
    smp = generic_walk.sample_mbar(law, stream(1, "limit", 0), depth=4)
    [(_, unit)] = _mbar_rows(law, 1, 1, 4)
    assert repr(smp) == repr(law.atoms[0].section(
        sample_boundary_limit(law.inverse(), stream(1, "limit", 0),
                                   depth=4).end, unit))


def _reference_value(f, law, seed, samples):
    """``limit_measure_value`` one generic ``sample_mbar`` at a time."""
    s_h = power(law.atoms[0].reference_homothety().element, f.level)
    depth = max(max(t.height for t in f.targets) + 2, 4)
    hits = sum(f.member(compose(s_h, invert(generic_walk.sample_mbar(
        law, stream(seed, "limit", i), depth=depth))))
        for i in range(samples))
    return hits / samples


@pytest.mark.parametrize("src,tgt", [
    ((0, 0), (0, 0)), ((1, 0), (2, 1)), ((2, 0), (1, 1)), ((1, 1), (1, 1)),
    ((20, 0), (20, 0)), ((12, 0), (0, 0)), ((13, 0), (0, 0))],
    ids=["home", "up", "down", "off-center", "deep", "window-edge",
         "past-window"])
def test_limit_measure_value_matches_sample_mbar(src, tgt):
    """Hits are read on integers for sources centered at 0 within the
    ends' default window (depth 4 + 8 levels at target height 0); past it
    the element read runs out of digits on both paths."""
    f = CylinderEvent((PadicVertex(2, *src),), (PadicVertex(2, *tgt),))
    depth = max(tgt[0] + 2, 4)
    on_integers = LAW_NEG.inverse().grid.hit_test(
        f, walk._end_window(depth, None)) is not None
    assert on_integers == (src[0] <= depth + 8 and src[1] == 0)
    got = _outcome(lambda: limit_measure_value(f, LAW_NEG, 3, 300).value)
    assert got == _outcome(lambda: 2 * _reference_value(f, LAW_NEG, 3, 300))
    assert (got == "PrecisionExhausted") == (src == (13, 0))


def _peak(samples):
    """Peak traced memory of ``limit_measure_value`` on ``samples``."""
    f = CylinderEvent((PadicVertex(2, 0, 0),), (PadicVertex(2, 0, 0),))
    tracemalloc.start()
    try:
        est = limit_measure_value(f, LAW_NEG, 8, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.trajectories == samples
    return peak


def test_limit_measure_value_memory_is_bounded():
    # the batch holds one batch of rows at a time, so the peak does not
    # grow from 10**3 to 10**4 samples (about 1.5 MB at both); holding
    # every sample's row would add about 3 MB at 10**4, its limit about
    # 10 MB.  10**5 samples peak at the same, but tracemalloc slows each
    # sample about tenfold, to 30 s for them on 2 cores.
    small, large = _peak(10 ** 3), _peak(10 ** 4)
    assert large < small + 2 ** 18
    assert large < 4 * 2 ** 20
