"""Ladder excursions and the ladder-walk limit as one batch of keyed rows.

``renewal.ladder_cluster_run`` walks the clusters of a law on the engine
as rows of ``walk.ladder_limit_rows`` and ``walk.excursion_rows`` and
reads prefix states an (S, C) group at a time through ``grid.reader``.
Each cluster must give what the generic walks of ``generic_walk`` give
on the same streams: excursion lengths and heights, prefix elements,
every disc read, errors included, and the ladder walk's limit, which
stops where its end and key are exact and agrees with the certified
rule of the right walk.
"""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinetree import grid, renewal
from affinetree.config import load_config
from affinetree.errors import AffineTreeError, PrecisionExhausted
from affinetree.law import StepLaw
from affinetree.group import act_end
from affinetree.padic import PAdic, PrecisionBudget
from affinetree.rng import stream, stream_rows
from affinetree.suites import _default_product_events, renewal_claims
from affinetree.tree import LampEnd, LampVertex, PadicEnd, PadicVertex, \
    end_in_disc
from affinetree.walk import excursion_rows, ladder_excursion, \
    ladder_limit_rows

import generic_walk
from test_boundary_batch import _with_budget
from test_lamp_walk import lamp_laws
from test_renewal import _no_draws
from test_walk import SMALL_BUDGETS, _counts, aff, check_group_reads, \
    grid_laws, prefix_key, read_state, state_element

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _outcome(fn):
    try:
        return fn()
    except AffineTreeError as exc:
        return type(exc).__name__


def _rows(seed, key):
    return lambda ids, start, size: stream_rows(ids, start, size, seed, key)


def _narrow_end(draw, law):
    """An end whose window is near the prefix heights: a p-adic value
    known to a few digits, exact (on a plain form, whose prefix states
    are exact) or zero to precision, or a lamp end known to a low
    position."""
    if law.kind != "padic":
        q = law.degree
        lamps = draw(st.dictionaries(st.integers(-6, 6),
                                     st.integers(1, q - 1), max_size=4))
        return LampEnd(q, draw(st.integers(-4, 6)), tuple(lamps.items()))
    p, budget = law.degree, law.atoms[0].a.budget
    kind = draw(st.sampled_from(["digits", "digits", "zero"]
                                + ["exact"] * law.grid.plain))
    if kind == "zero":
        return PadicEnd(PAdic.zero(p, draw(st.integers(-3, 6)), budget))
    x = Fraction(draw(st.integers(-500, 500).filter(bool)),
                 p ** draw(st.integers(0, 2)))
    if kind == "exact":
        return PadicEnd(PAdic.from_fraction(x, p, budget))
    exact = PAdic.from_fraction(x, p, PrecisionBudget(96, 1))
    return PadicEnd(PAdic(p, exact.valuation, exact.unit,
                          draw(st.integers(1, 8)), budget=budget))


def _disc(draw, law, state, end):
    """A disc near the window of the image of ``end`` under the prefix
    state, at times the image's own disc."""
    s = state[0]
    h = s + draw(st.integers(-3, 8))
    if law.kind == "padic":
        p = law.degree
        center = Fraction(draw(st.integers(0, 10 ** 4)),
                          p ** draw(st.integers(0, 2)))
        disc = PadicVertex(p, h, center)
        if draw(st.booleans()):
            image = _outcome(lambda: act_end(
                state_element(law.grid, state), end).value.residue(h))
            if not isinstance(image, str):
                disc = PadicVertex(p, h, image)
        return disc
    q = law.degree
    return LampVertex(q, h, tuple(draw(st.dictionaries(
        st.integers(h - 4, h), st.integers(1, q - 1), max_size=2)).items()))


@settings(max_examples=50, deadline=None)
@given(st.one_of(grid_laws(), lamp_laws(min_drift=Fraction(1, 4))),
       st.sampled_from([None, *SMALL_BUDGETS]), st.integers(0, 2 ** 32),
       st.integers(1, 5), st.integers(1, 6),
       st.sampled_from([(grid.BATCH_ROWS, grid.BATCH_COLS), (2, 5)]),
       st.data())
def test_clusters_match_generic_twin(law, budget, seed, depth, exc, shape,
                                     data):
    """Cluster by cluster on the same streams: lengths, heights, prefix
    elements with their counts (modulo the states' window where the form
    is not plain), the ladder walk's limit, and every read of every prefix
    state, against the cluster's limit and a narrow end."""
    law = _with_budget(law, budget)
    form, count = law.grid, 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grid, "BATCH_ROWS", shape[0])
        mp.setattr(grid, "BATCH_COLS", shape[1])
        got = list(renewal._clusters(law, seed, count, exc, depth))
        limits = ladder_limit_rows(form, _rows(seed, "ups"), np.arange(count),
                                   depth, depth + 24)
    want = list(generic_walk.clusters(law, seed, count, exc, depth))
    window = depth + 24
    for i, ((ls, hs, groups, read), (wls, whs, wgroups, _), bl) in \
            enumerate(zip(got, want, limits)):
        assert (ls, hs) == (wls, whs)
        assert repr(bl) == repr(generic_walk.ladder_boundary_limit(
            law, stream(seed, "ups", i), depth=depth, end_window=window))
        states = [((s, c, t), m) for (s, c), members in groups.items()
                  for t, m in members]
        prefix = {state: state_element(form, state) for state, _ in states}
        key = lambda g: g if law.kind != "padic" \
            else prefix_key(form, g, window)
        assert _counts((key(prefix[state]), m) for state, m in states) \
            == Counter(key(g) for [(g, _)] in wgroups.values())
        narrow = _narrow_end(data.draw, law)
        near = grid.reader(form, narrow)
        for end, reads in ((bl.end, read), (narrow, near)):
            for (s, c), members in groups.items():
                members = [(t, m, prefix[s, c, t]) for t, m in members]
                discs = [_disc(data.draw, law, (s, c, t), end)
                         for t, _, _ in members]
                for member, disc in zip(members, discs):
                    check_group_reads(reads, end, s, c, [member], [disc],
                                      _outcome)
                check_group_reads(reads, end, s, c, members, discs[:4],
                                  _outcome)


# terms below p**0: t = 1/2 on p = 2, and t = 2/3 on p = 3
LAW_HALF = StepLaw((aff(0, 2), aff(Fraction(1, 2), Fraction(1, 2))),
                   (Fraction(3, 4), Fraction(1, 4)))
LAW_P3 = StepLaw((aff(1, 3, 3), aff(Fraction(2, 3), Fraction(1, 3), 3)),
                 (Fraction(3, 4), Fraction(1, 4)))
# no term below p**1: t = 2 is the only translation, on p = 2
LAW_TWO = StepLaw((aff(0, Fraction(1, 2)), aff(2, 2)),
                  (Fraction(1, 4), Fraction(3, 4)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(grid_laws(), lamp_laws(min_drift=Fraction(1, 4)),
                 st.sampled_from([LAW_HALF, LAW_P3, LAW_TWO])),
       st.integers(0, 2 ** 32), st.integers(1, 5), st.sampled_from([0, 8, 24]))
@example(LAW_TWO, 5, 4, 24)
def test_ladder_limit_stops_where_it_is_exact(law, seed, depth, extra):
    """On the same uniforms, the ladder walk's limit stops at its first
    record r with r + low >= max(depth, end_window) + ``key_reach``, low
    the lowest exponent of an atom's term, read from the atoms
    (``generic_walk.term_floor``), and has the end and key of the
    certified rule of the right walk
    (``generic_walk.certified_ladder_limit``), which stops later."""
    window = depth + extra
    [got] = ladder_limit_rows(law.grid, _rows(seed, "ups"), np.arange(1),
                              depth, window)
    want = generic_walk.certified_ladder_limit(
        law, stream(seed, "ups", 0), depth=depth, end_window=window)
    assert (repr(got.end), got.key) == (repr(want.end), want.key)
    low, rng, top = generic_walk.term_floor(law), stream(seed, "ups", 0), 0
    for n in itertools.count(1):
        top += ladder_excursion(law, rng).height
        if low is None or top + low >= window + law.grid.key_reach:
            break
    assert got.steps == n <= want.steps


LAW_POS = load_config(CONFIGS / "drift_pos.ini").law
LAW_LAMP = load_config(CONFIGS / "lamplighter.ini").law


def _states(law, seed):
    """The distinct prefix states of 40 excursions and their elements."""
    [(_, _, states)] = excursion_rows(law.grid, _rows(seed, "exc"),
                                      np.arange(1), 40, 30)
    return {state: state_element(law.grid, state) for state in states}


def _reads(law, end, states, discs):
    return [(_outcome(lambda: read_state(law.grid, end, state, d)),
             _outcome(lambda: end_in_disc(act_end(g, end), d)))
            for state, g in states.items() for d in discs]


@pytest.mark.parametrize("kind", ["window", "cancel", "exact", "zero",
                                  "lamp-window"])
def test_reads_raise_where_generic_raises(kind):
    """Ends with a narrow window: the batch's reads raise exactly where
    the generic reads do, on the known window, the ``min_acceptable``
    rule and the exact or zero ends that stay generic."""
    law = LAW_LAMP if kind == "lamp-window" else LAW_POS
    states = _states(law, 5)
    heights = range(-6, 4)
    if kind == "lamp-window":
        end = LampEnd(2, -1, ((-3, 1),))
        discs = [LampVertex(2, h, ()) for h in heights]
    else:
        budget = law.atoms[0].a.budget
        if kind == "window":       # x known to 2 digits
            end = PadicEnd(PAdic(2, 0, 1, 2, budget=budget))
        elif kind == "cancel":     # x = -t + 2**6 for a deep state
            (s, _, (num, floor)), _ = max(states.items(),
                                          key=lambda kv: abs(kv[0][2][0]))
            x = -Fraction(num) * Fraction(2) ** floor + 2 ** 6
            exact = PAdic.from_fraction(x, 2, PrecisionBudget(96, 1))
            end = PadicEnd(PAdic(2, exact.valuation, exact.unit, 10,
                                 budget=budget))
        elif kind == "exact":
            end = PadicEnd(PAdic.from_fraction(Fraction(3, 4), 2, budget))
        else:
            end = PadicEnd(PAdic.zero(2, -2, budget))
        discs = [PadicVertex(2, h, c) for h in heights for c in (0, 1)]
    reads = _reads(law, end, states, discs)
    assert all(got == want for got, want in reads)
    raised = {got for got, _ in reads if isinstance(got, str)}
    assert raised == (set() if kind == "exact"
                      else {"IndistinguishableAtPrecision"}
                      if kind == "lamp-window" else {"PrecisionExhausted"})


def _default_product_events_of(law):
    name = "drift_pos" if law.kind == "padic" else "lamplighter"
    return _default_product_events(load_config(CONFIGS / f"{name}.ini"))


@pytest.mark.parametrize("law", [LAW_POS, LAW_LAMP], ids=["pos", "lamp"])
def test_cluster_run_matches_generic_twin(law):
    """Whole estimates, bit for bit; a disc above the ladder limit's end
    window raises on both paths with the same message."""
    fns = [(ev.disc, weight) for ev, weight in zip(
        _default_product_events_of(law), (lambda s: 2, lambda s: int(s > -2)))]
    fns.append((None, lambda s: 1))
    runs = [run(law, 3, 4, 10, fns) for run in (
        renewal.ladder_cluster_run, generic_walk.cluster_run)]
    assert repr(runs[0]) == repr(runs[1])
    deep = PadicVertex(2, 30, 0) if law.kind == "padic" \
        else LampVertex(2, 30, ())
    errors = []
    for run in (renewal.ladder_cluster_run, generic_walk.cluster_run):
        with pytest.raises(AffineTreeError) as exc:
            run(law, 3, 2, 3, [(deep, lambda s: 1)])
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]
    if law.kind == "padic":
        assert errors[0][0] is PrecisionExhausted


def test_cluster_run_memory_is_bounded():
    events = _default_product_events_of(LAW_POS)
    fns = [(ev.disc, lambda s: 1) for ev in events]
    tracemalloc.start()
    try:
        renewal.ladder_cluster_run(LAW_POS, 7, 2000, 10, fns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("clusters", [0, 1])
def test_fewer_than_two_clusters_are_refused(clusters):
    with pytest.raises(ValueError, match="at least 2"):
        renewal.ladder_cluster_run(LAW_POS, 1, clusters, 5,
                                   [(None, lambda s: 1)])
    cfg = load_config(CONFIGS / "drift_pos.ini")
    [claim] = [c for c in renewal_claims(cfg, n_upsilon=clusters,
                                         oracle_trajectories=10)
               if c["claim"].startswith("renewal.identity")]
    assert claim["claim"] == "renewal.identity"
    assert claim["verdict"] == "skip"
    assert "at least 2 clusters" in claim["details"]["reason"]


def test_no_excursions_per_cluster_are_refused(monkeypatch):
    """0 excursions per cluster used to walk every cluster to the step
    budget before an error that named no ladder epoch."""
    for name in ("_clusters", "stream", "stream_rows"):
        monkeypatch.setattr(renewal, name, _no_draws)
    with pytest.raises(ValueError, match="at least 1"):
        renewal.ladder_cluster_run(LAW_POS, 1, 10, 0, [(None, lambda s: 1)])
