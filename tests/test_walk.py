"""Walk engine: products, ladder epochs, boundary limits."""

import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinetree import walk
from affinetree.errors import (
    NonPositiveDrift,
    PrecisionExhausted,
    StepBudgetExceeded,
)
from affinetree.grid import GridLaw, blocks, reader, vertex_test
from affinetree.group import PadicAffine, act_end, act_vertex, compose, \
    identity_like, phi
from affinetree.config import load_config
from affinetree.law import WINDOW_CAP, StepLaw
from affinetree.padic import DEFAULT_BUDGET, PAdic, PrecisionBudget
from affinetree.renewal import CylinderEvent
from affinetree.rng import position, stream, stream_rows
from affinetree.tree import PadicEnd, PadicVertex, end_in_disc
from affinetree.walk import (
    DEFAULT_STEP_BUDGET,
    BoundaryLimit,
    LadderExcursion,
    excursion_rows,
    ladder_excursion,
    ladder_heights,
    ladder_limit_rows,
    regime_summary,
    run_product,
    sample_boundary_limit,
)

import generic_walk

CONFIGS = Path(__file__).parent.parent / "configs"


def aff(t, a, p=2, budget=DEFAULT_BUDGET):
    return PadicAffine(PAdic.from_fraction(Fraction(t), p, budget),
                       PAdic.from_fraction(Fraction(a), p, budget))


LAW_POS = StepLaw((aff(0, 2), aff(1, Fraction(1, 2))),
                  (Fraction(3, 4), Fraction(1, 4)))
LAW_NEG = StepLaw((aff(0, Fraction(1, 2)), aff(1, 2)),
                  (Fraction(3, 4), Fraction(1, 4)))
# drift 1/50: many first ladder epochs lie several blocks out
LAW_SLOW = StepLaw((aff(0, 2), aff(1, Fraction(1, 2))),
                   (Fraction(51, 100), Fraction(49, 100)))
LAW_23 = StepLaw((aff(0, 4), aff(1, Fraction(1, 8))),      # steps +2, -3
                 (Fraction(2, 3), Fraction(1, 3)))


def test_run_product_height_matches_phi_path():
    """One (1, 200) block of ``phi_sums`` reads the same uniforms as 200
    scalar draws, so it gives the product's heights step for step."""
    seen = []
    run_product(LAW_POS, stream(4, 0), 200,
                visitor=lambda n, g: seen.append(phi(g)))
    [(done, rows, heights)] = LAW_POS.phi_sums(stream(4, 0), 1, 200, 200)
    assert (done, rows.tolist()) == (0, [0])
    assert heights[0].tolist() == seen


def test_ladder_excursion_stops_at_first_record():
    for i in range(50):
        exc = ladder_excursion(LAW_POS, stream(9, i), track_prefix=True)
        assert exc.height >= 1
        assert phi(exc.element) == exc.height
        assert len(exc.prefix) == exc.length
        # every proper prefix stays at or below zero
        for g in exc.prefix:
            assert phi(g) <= 0


def test_ladder_heights_vectorized_moments():
    lengths, heights = ladder_heights(LAW_POS, stream(10, 0), 20000)
    assert lengths.shape == heights.shape == (20000,)
    assert heights.min() >= 1
    # E[S_l] = E[l] * drift (optional stopping)
    ratio = lengths.mean() / heights.mean()
    assert abs(ratio - 2.0) < 0.1


def test_ladder_budget_negative_drift(monkeypatch):
    monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", 5000)
    with pytest.raises(StepBudgetExceeded):
        ladder_heights(LAW_NEG, stream(11, 0), 100)


def _blockwise_ladder(law, rng, count, max_steps):
    """The simulation whose uniforms ``ladder_heights`` reads: in windows
    of 8, 16, 32, ... steps, up to ``WINDOW_CAP`` and cut at ``max_steps``,
    every path still below its first epoch draws a whole block of steps
    by inverse-CDF lookup."""
    phis = np.array(law.phis, dtype=np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    heights = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    carried = np.zeros(count, dtype=np.int64)
    offset, width = 0, 8
    while active.size:
        if offset >= max_steps:
            raise StepBudgetExceeded(
                f"{active.size} paths without a ladder epoch after "
                f"{offset} steps")
        width = min(width, WINDOW_CAP, max_steps - offset)
        u = rng.random((active.size, width))
        idx = np.minimum(np.searchsorted(law.thresholds, u, side="right"),
                         len(phis) - 1)
        paths = carried[active, None] + np.cumsum(phis[idx], axis=1)
        hit = paths > 0
        any_hit = hit.any(axis=1)
        first = np.argmax(hit, axis=1)
        done = active[any_hit]
        lengths[done] = offset + first[any_hit] + 1
        heights[done] = paths[any_hit, first[any_hit]]
        carried[active] = paths[:, -1]
        active = active[~any_hit]
        offset, width = offset + width, 2 * width
    return lengths, heights


@pytest.mark.parametrize("law,count,moved,max_steps", [
    (LAW_POS, 3000, 0, DEFAULT_STEP_BUDGET),
    (LAW_POS, 1, 3, DEFAULT_STEP_BUDGET),
    (LAW_POS, 0, 3, DEFAULT_STEP_BUDGET),
    (LAW_SLOW, 400, 0, DEFAULT_STEP_BUDGET),
    (LAW_SLOW, 400, 3, DEFAULT_STEP_BUDGET),
    (LAW_23, 2000, 3, DEFAULT_STEP_BUDGET),
    (LAW_NEG, 100, 3, 5000),          # the budget runs out
    (LAW_SLOW, 400, 3, 1000),         # the budget cuts the last window
], ids=["pos", "pos-one", "pos-none", "slow", "slow-moved", "plus2-minus3",
        "neg-budget", "slow-budget"])
def test_ladder_heights_read_the_blockwise_uniforms(law, count, moved,
                                                    max_steps, monkeypatch):
    def run(fn):
        rng = stream(15, moved, count)
        rng.random(moved)
        try:
            out = [a.tolist() for a in fn(law, rng, count, max_steps)]
        except StepBudgetExceeded as exc:
            out = str(exc)
        return out, _state(rng), rng.random(7).tolist()

    monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", max_steps)
    got = run(lambda *a: ladder_heights(*a[:3]))
    assert got == run(_blockwise_ladder)
    if law is LAW_SLOW and max_steps == DEFAULT_STEP_BUDGET:
        assert max(got[0][0]) > 2040    # past 8 + 16 + ... + 1024 steps
    if law is LAW_NEG:
        assert "without a ladder epoch" in got[0]


@pytest.mark.parametrize("law,count,budget", [
    (LAW_SLOW, 400, 1000), (LAW_SLOW, 40, 1000), (LAW_SLOW, 40, 5000),
    (LAW_NEG, 100, 5000), (LAW_POS, 3000, 1000)])
def test_ladder_heights_keep_their_step_budget(law, count, budget,
                                               monkeypatch):
    """No path runs past the budget, and a path without an epoch within
    it ends the call after exactly that many steps."""
    monkeypatch.setattr(walk, "DEFAULT_STEP_BUDGET", budget)
    try:
        lengths, _ = ladder_heights(law, stream(10, "b"), count)
    except StepBudgetExceeded as exc:
        assert str(exc).endswith(f"without a ladder epoch after {budget} "
                                 "steps")
    else:
        assert lengths.min() >= 1 and lengths.max() <= budget


def test_ladder_heights_memory_is_bounded():
    tracemalloc.start()
    try:
        ladder_heights(LAW_POS, stream(10, 0), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # drawing each path's whole first block took about 235 MB
    assert peak < 16 * 2 ** 20


DRIFT_NEG = load_config(CONFIGS / "drift_neg.ini").law
SUMMARY_KEYS = {
    "drift", "n_trajectories", "horizon", "mean_final_height",
    "mean_final_over_n", "std_final_height", "fraction_final_positive",
    "fraction_final_negative", "min_late_height", "max_late_height",
    "fraction_late_all_positive", "fraction_late_all_negative"}


def _summary_reference(law, rng, n_traj, horizon):
    """``regime_summary`` from S at horizon // 2 (``final_phis``) and one
    (n_traj, late half) block of uniforms, looked up by inverse CDF."""
    phis = np.array(law.phis, dtype=np.int64)
    start = law.final_phis(rng, n_traj, horizon // 2)
    u = rng.random((n_traj, horizon - horizon // 2))
    idx = np.minimum(np.searchsorted(law.thresholds, u, side="right"),
                     len(phis) - 1)
    late = start[:, None] + np.cumsum(phis[idx], axis=1)
    final = late[:, -1]
    return {
        "drift": str(law.drift()),
        "n_trajectories": n_traj,
        "horizon": horizon,
        "mean_final_height": float(final.mean()),
        "mean_final_over_n": float(final.mean()) / horizon,
        "std_final_height": float(final.std()),
        "fraction_final_positive": float((final > 0).mean()),
        "fraction_final_negative": float((final < 0).mean()),
        "min_late_height": int(late.min()),
        "max_late_height": int(late.max()),
        "fraction_late_all_positive": float((late > 0).all(axis=1).mean()),
        "fraction_late_all_negative": float((late < 0).all(axis=1).mean()),
    }


@pytest.mark.parametrize("law,n_traj,horizon", [
    (DRIFT_NEG, 300, 10000),      # two row chunks of one window
    (DRIFT_NEG, 40, 2 * WINDOW_CAP - 1),
    (LAW_POS, 50, 201),
    (LAW_23, 20, 2),
    (LAW_NEG, 5, 1)],
    ids=["drift_neg", "drift_neg-cap", "pos-odd", "plus2-minus3-h2", "neg-h1"])
def test_regime_summary_matches_one_block(law, n_traj, horizon):
    """With the late half in one window, the summary is the one-block
    reference's, key for key, and leaves ``rng`` where it does."""
    got_rng, want_rng = stream(12, horizon), stream(12, horizon)
    got = regime_summary(law, got_rng, n_traj, horizon)
    assert set(got) == SUMMARY_KEYS
    assert got == _summary_reference(law, want_rng, n_traj, horizon)
    assert _state(got_rng) == _state(want_rng)


def test_regime_summary_memory_is_bounded():
    tracemalloc.start()
    try:
        regime_summary(DRIFT_NEG, stream(12, "mem"), 1000, 10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole 1000 x 10000 height array took 162 MB
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("n_traj,horizon,name", [
    (0, 10, "n_traj"), (-1, 10, "n_traj"), (5, 0, "horizon"),
    (5, -3, "horizon")])
def test_regime_summary_refuses_an_empty_run(n_traj, horizon, name):
    """No path or no step: a ValueError naming the argument, before any
    draw."""
    rng = stream(12, "empty")
    before = _state(rng)
    with pytest.raises(ValueError, match=name):
        regime_summary(LAW_POS, rng, n_traj, horizon)
    assert _state(rng) == before


def test_regime_summary_signs():
    up = regime_summary(LAW_POS, stream(12, 0), 100, 2000)
    down = regime_summary(LAW_NEG, stream(12, 1), 100, 2000)
    assert up["fraction_final_positive"] > 0.99
    assert down["fraction_final_negative"] > 0.99
    assert abs(up["mean_final_over_n"] - 0.5) < 0.05


def test_boundary_limit_certified_and_stable():
    rng = stream(13, 0)
    bl = sample_boundary_limit(LAW_POS, rng, depth=4)
    assert bl.steps == position(rng)      # one uniform per step
    # a longer window over the same stream lands in the same depth-4 disc
    again = sample_boundary_limit(LAW_POS, stream(13, 0), depth=4,
                                  end_window=20)
    assert bl.end.disc_key(4) == again.end.disc_key(4)


def test_boundary_limit_needs_positive_drift():
    with pytest.raises(NonPositiveDrift):
        sample_boundary_limit(LAW_NEG, stream(13, 1), depth=4)


def test_end_of_product_window_is_honest():
    """The end is cut at its window at every working precision, also
    where the exact translation has fewer digits than the window."""
    for budget in [DEFAULT_BUDGET, *SMALL_BUDGETS]:
        law = StepLaw(tuple(aff(g.t.exact, g.a.exact, budget=budget)
                            for g in LAW_POS.atoms), LAW_POS.weights)
        g = run_product(law, stream(14, 0), 400)
        for window in (6, 20):
            e = g.limit_end(known_exponent=window)
            assert e.value.known_exponent == window
            assert e.disc_key(window) == g.t.residue(window)
            with pytest.raises(PrecisionExhausted):
                e.disc_key(window + 1)


def test_disc_key_depth_monotone():
    bl1 = sample_boundary_limit(LAW_POS, stream(15, 0), depth=6)
    bl2 = sample_boundary_limit(LAW_POS, stream(15, 1), depth=6)
    # agreeing at depth 6 implies agreeing at any shallower depth
    if bl1.end.disc_key(6) == bl2.end.disc_key(6):
        assert bl1.end.disc_key(3) == bl2.end.disc_key(3)


# -- the grid engine against generic compose ------------------------------------
#
# The references below are the walks written on generic ``compose``, one
# ``law.sample_step`` per step: the engine must give the same results and
# leave the generator in the same state.

PRIMES = st.sampled_from([2, 3, 5])
# scale units and translation denominators, those prime to p drawn
UNITS = [-1, 3, Fraction(1, 3), Fraction(-5, 7)]
DENS = [3, 7]
# small working precisions, so that v(t) + working bounds a sum's window
SMALL_BUDGETS = [PrecisionBudget(working=12, min_acceptable=4),
                 PrecisionBudget(working=5, min_acceptable=2)]


def _state(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


def _p_power(p, e):
    return Fraction(p) ** e


def _prime_to(draw, p, values):
    """1, or often one of ``values`` prime to p."""
    values = [x for x in values if Fraction(x).numerator % p
              and Fraction(x).denominator % p]
    return draw(st.sampled_from([1, 1, *values]))


@st.composite
def grid_laws(draw, plain=False):
    """Laws with drift >= 1/4, negative translations included: atoms
    (n/d·p**-k, u·p**phi) with scale units u such as -1, 3, 1/3 and -5/7
    and denominators d prime to p, or all of them 1 for ``plain``."""
    p = draw(PRIMES)
    n = draw(st.integers(2, 3))
    phis = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    ts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 2)),
                       min_size=n, max_size=n))
    ws = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    units = [1 if plain else _prime_to(draw, p, UNITS) for _ in phis]
    dens = [1 if plain else _prime_to(draw, p, DENS) for _ in phis]
    atoms = tuple(PadicAffine(
        PAdic.from_fraction(Fraction(tn, d * p ** tk), p),
        PAdic.from_fraction(u * _p_power(p, ph), p))
        for (tn, tk), ph, u, d in zip(ts, phis, units, dens))
    law = StepLaw(atoms, tuple(Fraction(w, sum(ws)) for w in ws))
    assume(law.drift() >= Fraction(1, 4))
    return law


def _scalar_limit(law, rng, depth, *, step=None, need=None,
                  max_steps=10 ** 7):
    """sample_boundary_limit on generic compose; with ``need``, the ladder
    walk's exact stop instead: the first record at or above ``need``."""
    step = step or law.sample_step
    end_window = depth + 8
    g = identity_like(law.atoms[0])
    top = stable = 0
    key = None
    for n in range(1, max_steps + 1):
        g = compose(g, step(rng))
        h = phi(g)
        if h <= top:
            continue
        top = h
        if need is not None and h >= need:
            return BoundaryLimit(g.limit_end(end_window), g.t.residue(depth),
                                 n)
        if need is not None or h < depth:
            continue
        k = g.t.residue(depth)
        stable = stable + 1 if k == key else 1
        key = k
        if stable >= 3 and top >= end_window + 15:
            return BoundaryLimit(g.limit_end(end_window), key, n)
    raise StepBudgetExceeded("reference budget")


def _scalar_excursion(law, rng, track_prefix=False):
    """ladder_excursion on generic compose."""
    g = identity_like(law.atoms[0])
    prefix = [g] if track_prefix else None
    for n in itertools.count(1):
        g = compose(law.sample_step(rng), g)
        if phi(g) > 0:
            return LadderExcursion(n, g, phi(g), prefix)
        if track_prefix:
            prefix.append(g)


@settings(max_examples=40, deadline=None)
@given(grid_laws(), st.integers(0, 2 ** 32), st.integers(1, 5),
       st.booleans())
def test_boundary_limit_engine_matches_compose(law, seed, depth, ladder):
    assert law.grid == GridLaw.of(law)
    fast, ref = stream(seed, 0), stream(seed, 0)
    if ladder:      # one row reading stream 0 in order, as the scalar walk
        [got] = ladder_limit_rows(
            law.grid, lambda ids, start, size: _uniforms(
                stream(seed, 0), start, size), np.array([0]), depth,
            depth + 8)
        low = generic_walk.term_floor(law)
        want = _scalar_limit(law, ref, depth, step=lambda r: _scalar_excursion(
            law, r).element, need=0 if low is None else depth + 8 - low)
        assert got == want
        assert got == generic_walk.ladder_boundary_limit(
            law, stream(seed, 0), depth=depth)
        return
    got = sample_boundary_limit(law, fast, depth=depth)
    want = _scalar_limit(law, ref, depth)
    assert got == want
    assert _state(fast) == _state(ref)
    # a step budget that runs out leaves the generator as the scalar path does
    fast, ref = stream(seed, 1), stream(seed, 1)
    with pytest.raises(StepBudgetExceeded):
        sample_boundary_limit(law, fast, depth=depth, max_steps=5)
    with pytest.raises(StepBudgetExceeded):
        _scalar_limit(law, ref, depth, max_steps=5)
    assert _state(fast) == _state(ref)


@settings(max_examples=40, deadline=None)
@given(grid_laws(), st.integers(0, 2 ** 32), st.booleans())
def test_ladder_excursion_engine_matches_compose(law, seed, track):
    fast, ref = stream(seed, 0), stream(seed, 0)
    for _ in range(3):   # successive excursions on one stream
        got = ladder_excursion(law, fast, track_prefix=track)
        assert got == _scalar_excursion(law, ref, track)
        assert _state(fast) == _state(ref)
    # the batch on the same stream: the same excursions and prefixes
    grid, ref = GridLaw.of(law), stream(seed, 1)
    [(lengths, heights, states)] = excursion_rows(
        grid, lambda ids, start, size: _uniforms(stream(seed, 1), start, size),
        np.array([0]), 3, WINDOW)
    want = [_scalar_excursion(law, ref, True) for _ in range(3)]
    assert (lengths, heights) == ([w.length for w in want],
                                  [w.height for w in want])
    assert _prefix_counts(grid, states) == \
        _counts((prefix_key(grid, g), 1) for w in want for g in w.prefix)


def _uniforms(rng, start, size):
    """Uniforms ``start`` to ``start + size`` of a fresh stream, as one
    row of a batch."""
    rng.random(start)
    return rng.random((1, size))


def _counts(pairs):
    """A Counter of (item, multiplicity) pairs; equal items add up."""
    out = Counter()
    for item, m in pairs:
        out[item] += m
    return out


# the digits an excursion's prefix states keep, on a form that is not plain
WINDOW = 30


def read_state(grid, end, state, disc):
    """Whether the prefix state (s, c, t) maps ``end`` into ``disc``, read
    alone as a group of one (``grid.reader``)."""
    s, c, t = state
    [m] = reader(grid, end)(s, c, [(t, 1)], [disc])
    return bool(m)


def check_group_reads(read, end, s, c, members, discs, outcome):
    """A group's read (``grid.reader``) against ``end_in_disc`` of each
    member's element g (members (t, m, g)) acting on ``end``, errors
    included (``outcome`` names them): each member against each disc
    alone, then the group against all of ``discs`` at once, which sums
    the members' multiplicities per disc or, where one of their reads
    raises, raises the error of one of them."""
    want = [[outcome(lambda: end_in_disc(act_end(g, end), d)) for d in discs]
            for _, _, g in members]
    for (t, _, _), row in zip(members, want):
        for d, w in zip(discs, row):
            assert outcome(lambda: read(s, c, [(t, 1)], [d])) == \
                (w if isinstance(w, str) else [int(w)])
    errors = {w for row in want for w in row if isinstance(w, str)}
    got = outcome(lambda: read(s, c, [(t, m) for t, m, _ in members], discs))
    if errors:
        assert got in errors
    else:
        assert got == [sum(m for (_, m, _), row in zip(members, want)
                           if row[i]) for i in range(len(discs))]


def unit_product(grid, counts):
    """The exact product of u_k**c over the form's units and their
    ``counts`` c."""
    return math.prod((Fraction(u) ** c for (_, u), c in
                      zip(grid.units, counts)), start=Fraction(1))


def state_element(grid, state):
    """The element (s, u, u·t·p**s) of a prefix state (s, c, t), u the
    unit of the counts c."""
    s, c, t = state
    u = unit_product(grid, c) if c else 1
    return grid.element((s, u, u * t[0], t[1] + s))


def prefix_key(grid, g, window=WINDOW):
    """A prefix element g = (t, a) as its state keeps it: itself on a
    plain form, else (phi, a's unit and t/a, both modulo p**window)."""
    if grid.plain:
        return g
    p, a = grid.prime, g.a.exact / Fraction(grid.prime) ** phi(g)
    return (phi(g), a.numerator * pow(a.denominator, -1, p ** window)
            % p ** window, (g.t / g.a).residue(window))


def _prefix_counts(grid, states, window=WINDOW):
    """The prefix elements of counted states (s, c, t) of
    ``excursion_rows``, as ``prefix_key`` gives them, with their
    multiplicities: a state's translation may cancel to zero at another
    floor."""
    return _counts((prefix_key(grid, state_element(grid, state), window), m)
                   for state, m in states.items())


@pytest.mark.parametrize("count", [0, 1, 7, 511, 512, 513, 1029])
def test_draws_match_scalar_indices(count):
    """The atom indices of a batch's rows, block by block, are those of
    repeated ``law.sample_index`` on each row's stream."""
    law = StepLaw((aff(0, 2), aff(1, Fraction(1, 2)), aff(-1, 1)),
                  (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    rows = np.arange(3)
    got = [[] for _ in rows]
    for b in blocks(law.grid, lambda ids, start, size: stream_rows(
            ids, start, size, 5, count), rows, 0, count):
        for row, ks in zip(b.live.tolist(), b.k.tolist()):
            got[row] += ks
        b.going = slice(None)
    for i in rows:
        ref = stream(5, count, i)
        assert got[i] == [law.sample_index(ref) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(grid_laws(plain=True), st.data())
def test_grid_reads_match_compose(law, data):
    grid = GridLaw.of(law)
    p = grid.prime
    u = data.draw(st.integers(1, 40).filter(lambda v: v % p))
    s0 = data.draw(st.integers(-3, 3))
    t0 = Fraction(data.draw(st.integers(-50, 50)),
                  p ** data.draw(st.integers(0, 3)))
    g = PadicAffine(PAdic.from_fraction(t0, p),
                    PAdic.from_fraction(u * _p_power(p, s0), p))
    r = stream(data.draw(st.integers(0, 2 ** 32)), 0)
    for move in data.draw(st.lists(st.sampled_from("lr"), max_size=25)):
        x = law.sample_step(r)
        g = compose(x, g) if move == "l" else compose(g, x)
        state = grid.start(g)
        assert state is not None and grid.element(state) == g
        depth = data.draw(st.integers(-4, 8))
        assert grid.disc_id(grid.key(*state[2:], depth)) == \
            g.t.residue(depth)
        src = PadicVertex(p, data.draw(st.integers(-3, 3)),
                          Fraction(data.draw(st.integers(0, 99)), p ** 3))
        tgt = PadicVertex(p, src.height + phi(g), Fraction(
            data.draw(st.integers(0, 99)), p ** 3))
        if data.draw(st.booleans()):
            tgt = act_vertex(g, src)
        f = CylinderEvent((src,), (tgt,))
        assert vertex_test(grid, f.sources, f.targets)(*state) == \
            f.member(g)


def _outcome(fn):
    try:
        return fn()
    except PrecisionExhausted:
        return "precision exhausted"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3]), st.integers(-60, 60),
       st.integers(1, 10 ** 20), st.sampled_from([1, 1, -1, 7, 25]),
       st.integers(-10 ** 20, 10 ** 20), st.integers(-60, 60))
def test_engine_form_round_trips(p, s, u, d, num, floor):
    # a state as ``start`` gives it: a unit u prime to p, an int when it
    # is one, and num prime to p with floor its valuation, or (0, 0)
    assume(u % p and d % p and (num % p if num else floor == 0))
    u = Fraction(u, d) if Fraction(u, d).denominator > 1 else u // d
    grid = GridLaw(p, ((0, 0, 1),), DEFAULT_BUDGET, np.array([1.0]))
    state = (s, u, num, floor)
    assert grid.start(grid.element(state)) == state


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_prefix_in_disc_matches_act_end(data):
    """A prefix state's read against every kind of end, with a scale unit
    of any count of a unit atom (count 0: the plain form's); an exact end
    is refused, as the engine reads only cut ends."""
    p = data.draw(PRIMES)
    budget = data.draw(st.sampled_from([DEFAULT_BUDGET, *SMALL_BUDGETS]))
    unit = data.draw(st.sampled_from([
        u for u in UNITS
        if Fraction(u).numerator % p and Fraction(u).denominator % p]))
    grid = GridLaw(p, ((0, 0, 1),), budget, np.array([1.0]),
                   units=((0, unit),))
    counts = (data.draw(st.sampled_from([0, 0, 1, -1, 3, -4])),)
    state = (data.draw(st.integers(-4, 4)), unit_product(grid, counts),
             data.draw(st.integers(-300, 300)), data.draw(st.integers(-4, 4)))
    g = grid.element((*state[:2], state[1] * state[2], state[3]))
    kind = data.draw(st.sampled_from(["digits", "cancel", "exact", "zero"]))
    x = Fraction(data.draw(st.integers(-500, 500).filter(bool)),
                 p ** data.draw(st.integers(0, 3)))
    prec = data.draw(st.one_of(st.integers(1, budget.working + 2),
                               st.integers(budget.working - 2,
                                           budget.working + 2)))
    if kind == "cancel" and state[2]:
        # x = -t/a + p**(v + d)·x with v = v(t/a): a·x + t keeps about
        # prec - d digits, often right at the min_acceptable bound
        base = -g.t.exact / g.a.exact
        d = data.draw(st.one_of(
            st.integers(-2, prec + 2),
            st.integers(-1, 1).map(
                lambda k: prec - budget.min_acceptable + k)))
        x = base + x * Fraction(p) ** (
            PAdic.from_fraction(base, p).valuation + d)
    if kind == "zero":
        value = PAdic.zero(p, data.draw(st.integers(-2, 16)), budget)
    elif kind == "exact" or not x:
        value = PAdic.from_fraction(x, p, budget)
    else:                    # x known to prec digits, maybe beyond working
        exact = PAdic.from_fraction(x, p, PrecisionBudget(96, 1))
        value = PAdic(p, exact.valuation, exact.unit, prec, budget=budget)
    end = PadicEnd(value)
    # disc heights near the bounds of the image's window: the point's
    # window shifted by s, cut at working digits, and v(t) + working
    known = value.known_exponent
    anchor = data.draw(st.sampled_from([
        6, 6 if known is None else state[0] + known,
        6 if value.is_zero else state[0] + value.valuation + budget.working,
        6 if not state[2] else g.t.valuation + budget.working]))
    h = anchor + data.draw(st.integers(-4, 3))
    center = PadicVertex(p, h, Fraction(
        data.draw(st.integers(0, 10 ** 6)),
        p ** data.draw(st.integers(0, 3)))).center
    if data.draw(st.booleans()):   # the true residue, when there is one
        try:
            center = act_end(g, end).value.residue(h)
        except PrecisionExhausted:
            pass
    disc = PadicVertex(p, h, center)
    s, _, num, floor = state
    read = lambda: read_state(grid, end, (s, counts, (num, floor - s)), disc)
    if value.exact is not None:
        with pytest.raises(ValueError, match="exact"):
            read()
    else:
        assert _outcome(read) == \
            _outcome(lambda: end_in_disc(act_end(g, end), disc))
