"""Walk engine: products, ladder epochs, boundary limits."""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

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
from affinetree.law import StepLaw
from affinetree.padic import DEFAULT_BUDGET, PAdic, PrecisionBudget, \
    fraction_truncate
from affinetree.renewal import CylinderEvent
from affinetree.rng import stream, stream_rows
from affinetree.tree import PadicEnd, PadicVertex, end_in_disc
from affinetree.walk import (
    DEFAULT_STEP_BUDGET,
    LADDER_BLOCK,
    BoundaryLimit,
    LadderExcursion,
    excursion_rows,
    ladder_boundary_limit,
    ladder_excursion,
    ladder_heights,
    regime_summary,
    run_product,
    sample_boundary_limit,
)


def aff(t, a, p=2):
    return PadicAffine(PAdic.from_fraction(Fraction(t), p),
                       PAdic.from_fraction(Fraction(a), p))


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
    g = run_product(LAW_POS, stream(4, 0), 200)
    heights = LAW_POS.sample_phi_paths(stream(4, 0), 1, 200)
    assert phi(g) == heights[0, -1]


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
    """The simulation whose uniforms ``ladder_heights`` reads: in blocks
    of ``LADDER_BLOCK`` steps, every path still below its first epoch
    draws a whole block of steps by inverse-CDF lookup."""
    phis = np.array(law.phis, dtype=np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    heights = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    carried = np.zeros(count, dtype=np.int64)
    offset = 0
    while active.size:
        if offset >= max_steps:
            raise StepBudgetExceeded(
                f"{active.size} paths without a ladder epoch after "
                f"{offset} steps")
        u = rng.random((active.size, LADDER_BLOCK))
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
        offset += LADDER_BLOCK
    return lengths, heights


@pytest.mark.parametrize("law,count,moved,max_steps", [
    (LAW_POS, 3000, 0, DEFAULT_STEP_BUDGET),
    (LAW_POS, 1, 3, DEFAULT_STEP_BUDGET),
    (LAW_POS, 0, 3, DEFAULT_STEP_BUDGET),
    (LAW_SLOW, 400, 0, DEFAULT_STEP_BUDGET),
    (LAW_SLOW, 400, 3, DEFAULT_STEP_BUDGET),
    (LAW_23, 2000, 3, DEFAULT_STEP_BUDGET),
    (LAW_NEG, 100, 3, 5000),          # the budget runs out
    (LAW_SLOW, 400, 3, 1000),         # within the last block
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
        assert max(got[0][0]) > 2 * LADDER_BLOCK    # rows span blocks
    if law is LAW_NEG:
        assert "without a ladder epoch" in got[0]


def test_ladder_heights_memory_is_bounded():
    tracemalloc.start()
    try:
        ladder_heights(LAW_POS, stream(10, 0), 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # drawing each path's whole first block took about 235 MB
    assert peak < 16 * 2 ** 20


def test_regime_summary_signs():
    up = regime_summary(LAW_POS, stream(12, 0), 100, 2000)
    down = regime_summary(LAW_NEG, stream(12, 1), 100, 2000)
    assert up["fraction_final_positive"] > 0.99
    assert down["fraction_final_negative"] > 0.99
    assert abs(up["mean_final_over_n"] - 0.5) < 0.05


def test_boundary_limit_certified_and_stable():
    bl = sample_boundary_limit(LAW_POS, stream(13, 0), depth=4)
    assert bl.certified
    # a longer window over the same stream lands in the same depth-4 disc
    again = sample_boundary_limit(LAW_POS, stream(13, 0), depth=4,
                                  end_window=20)
    assert bl.end.disc_key(4) == again.end.disc_key(4)


def test_boundary_limit_needs_positive_drift():
    with pytest.raises(NonPositiveDrift):
        sample_boundary_limit(LAW_NEG, stream(13, 1), depth=4)


def test_end_of_product_window_is_honest():
    g = run_product(LAW_POS, stream(14, 0), 400)
    e = g.limit_end(known_exponent=6)
    assert e.value.known_exponent == 6


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
# small working precisions, so that v(t) + working bounds a sum's window
SMALL_BUDGETS = [PrecisionBudget(working=12, min_acceptable=4),
                 PrecisionBudget(working=5, min_acceptable=2)]


def _state(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["buffer"].tolist(),
            s["buffer_pos"], s["has_uint32"], s["uinteger"])


def _p_power(p, e):
    return Fraction(p) ** e


@st.composite
def grid_laws(draw):
    """Laws on the digit grid with drift >= 1/4, negative translations
    included."""
    p = draw(PRIMES)
    n = draw(st.integers(2, 3))
    phis = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    ts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 2)),
                       min_size=n, max_size=n))
    ws = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    atoms = tuple(PadicAffine(PAdic.from_fraction(Fraction(tn, p ** tk), p),
                              PAdic.from_fraction(_p_power(p, ph), p))
                  for (tn, tk), ph in zip(ts, phis))
    law = StepLaw(atoms, tuple(Fraction(w, sum(ws)) for w in ws))
    assume(law.drift() >= Fraction(1, 4))
    return law


def _scalar_limit(law, rng, depth, *, step=None, max_steps=10 ** 7):
    """sample_boundary_limit on generic compose."""
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
        if h < depth:
            continue
        k = g.t.residue(depth)
        stable = stable + 1 if k == key else 1
        key = k
        if stable >= 3 and top >= end_window + 15:
            return BoundaryLimit(g.limit_end(end_window), key, n, top, True)
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
    assert GridLaw.of(law) is not None
    fast, ref = stream(seed, 0), stream(seed, 0)
    if ladder:
        got = ladder_boundary_limit(law, fast, depth=depth)
        want = _scalar_limit(law, ref, depth, step=lambda r: _scalar_excursion(
            law, r).element)
    else:
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
        np.array([0]), 3)
    want = [_scalar_excursion(law, ref, True) for _ in range(3)]
    assert (lengths, heights) == ([w.length for w in want],
                                  [w.height for w in want])
    assert _prefix_counts(grid, states) == \
        Counter(g for w in want for g in w.prefix)


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


def _prefix_counts(grid, states):
    """The prefix elements of counted states (s, t) of ``excursion_rows``,
    with their multiplicities: a state's translation may cancel to zero
    at another floor."""
    return _counts((grid.element((s, 1, t[0], t[1] + s)), m)
                   for (s, t), m in states.items())


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
@given(grid_laws(), st.data())
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


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_prefix_in_disc_matches_act_end(data):
    p = data.draw(PRIMES)
    budget = data.draw(st.sampled_from([DEFAULT_BUDGET, *SMALL_BUDGETS]))
    grid = GridLaw(p, ((0, 0, 1),), budget, np.array([1.0]))
    state = (data.draw(st.integers(-4, 4)), 1,
             data.draw(st.integers(-300, 300)), data.draw(st.integers(-4, 4)))
    g = grid.element(state)
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
    center = fraction_truncate(
        Fraction(data.draw(st.integers(0, 10 ** 6)),
                 p ** data.draw(st.integers(0, 3))), p, h)
    if data.draw(st.booleans()):   # the true residue, when there is one
        try:
            center = act_end(g, end).value.residue(h)
        except PrecisionExhausted:
            pass
    disc = PadicVertex(p, h, center)
    assert (grid.point(end)[1] is None) == \
        (value.exact is not None or value.is_zero)
    s, _, num, floor = state
    assert _outcome(lambda: reader(grid, end)((s, (num, floor - s)),
                                              disc)) == \
        _outcome(lambda: end_in_disc(act_end(g, end), disc))
