"""Potential kernel estimators, invariant measures, renewal checks."""

import dataclasses
import math
import operator
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetree import grid, renewal
from affinetree.config import load_config
from affinetree.errors import (
    InexactAtom,
    NonPositiveDrift,
    OracleUnsupported,
)
from affinetree.group import (
    LampAffine,
    PadicAffine,
    act_vertex,
    compose,
    elements_agree,
    identity_like,
    invert,
    phi,
    power,
)
from affinetree.law import StepLaw
from affinetree.padic import PAdic, PrecisionBudget
from affinetree.renewal import (
    CylinderEvent,
    KernelEstimate,
    ProductCylinder,
    band_solve,
    estimate_m_misinv,
    kernel_oracle,
    limit_measure_value,
    potential_kernel,
    verify_boundary_limit,
    verify_omega_limit,
    verify_renewal_identity,
    wald_mass_check,
)
from affinetree.rng import stream
from affinetree.suites import wald_claims
from affinetree.tree import (
    LampVertex,
    PadicEnd,
    PadicVertex,
    end_in_disc,
    origin_padic,
)

import generic_walk
from generic_walk import sample_mbar
from test_lamp_walk import _lamps
from test_walk import DENS, UNITS, _prime_to


def aff(t, a, p=2):
    return PadicAffine(PAdic.from_fraction(Fraction(t), p),
                       PAdic.from_fraction(Fraction(a), p))


LAW_POS = StepLaw((aff(0, 2), aff(1, Fraction(1, 2))),
                  (Fraction(3, 4), Fraction(1, 4)))
LAW_NEG = StepLaw((aff(0, Fraction(1, 2)), aff(1, 2)),
                  (Fraction(3, 4), Fraction(1, 4)))
O = origin_padic(2)
HOME = CylinderEvent((O,), (O,), name="home")


def test_cylinder_membership():
    assert HOME.level == 0
    assert HOME.member(aff(1, 1))          # 1 Z_2-translation fixes o
    assert not HOME.member(aff(0, 2))
    assert not HOME.member(aff(Fraction(1, 2), 1))
    two_pair = CylinderEvent((O, PadicVertex(2, 1, 0)),
                             (O, PadicVertex(2, 1, 1)))
    assert two_pair.member(aff(1, 1))


def test_cylinder_empty_when_levels_disagree():
    ev = CylinderEvent((O, O), (O, PadicVertex(2, 1, 0)))
    assert ev.is_empty
    assert not ev.member(aff(0, 1))


def test_end_in_disc():
    e = PadicEnd(PAdic.from_fraction(Fraction(3, 4), 2))
    assert end_in_disc(e, PadicVertex(2, 2, Fraction(3, 4)))
    assert end_in_disc(e, PadicVertex(2, -2, 0))
    assert not end_in_disc(e, PadicVertex(2, 1, 0))


def test_kernel_estimate_agreement_uses_tails():
    a = KernelEstimate(1.0, 0.01, 100, 10, 0.0, False, 0)
    b = KernelEstimate(1.02, 0.01, 100, 10, 0.0, False, 0)
    assert not a.agrees_with(b, 1.0)
    assert a.agrees_with(b, 3.0)
    c = KernelEstimate(1.1, 0.01, 100, 10, 0.08, True, 0)
    assert a.agrees_with(c, 3.0)    # covered by the tail bound


def test_single_atom_kernel_exact():
    # deterministic climb: the origin cylinder is visited exactly once
    law = StepLaw((aff(0, 2),), (Fraction(1),))
    est = potential_kernel(identity_like(law.atoms[0]), HOME, law, 1, 50)
    assert est.value == 1.0 and est.stderr == 0.0
    up = CylinderEvent((O,), (PadicVertex(2, 3, 0),))
    est = potential_kernel(identity_like(law.atoms[0]), up, law, 1, 50)
    assert est.value == 1.0


@pytest.mark.parametrize("trajectories", [0, -1])
def test_kernel_refuses_empty_batches(trajectories):
    with pytest.raises(ValueError):
        potential_kernel(identity_like(LAW_POS.atoms[0]), HOME, LAW_POS, 1,
                         trajectories)


@pytest.mark.parametrize("samples", [0, -1])
def test_limit_value_refuses_empty_batches(samples, monkeypatch):
    # refused before any draw: the draws are cut off
    monkeypatch.setattr(renewal, "_mbar_rows", None)
    with pytest.raises(ValueError, match="samples"):
        limit_measure_value(HOME, LAW_NEG, 1, samples)


def _dominant_band(rng, count, n, lo, up):
    """A random complex band of ``count`` column diagonally dominant
    systems in ``band_solve``'s layout, and the systems as dense
    matrices."""
    band = rng.normal(size=(count, n, lo + up + 1)) \
        + 1j * rng.normal(size=(count, n, lo + up + 1))
    dense = np.zeros((count, n, n), complex)
    for i in range(n):
        for j in range(max(0, i - lo), min(n, i + up + 1)):
            dense[:, i, j] = band[:, i, lo + j - i]
    off = np.abs(dense).sum(axis=1) - np.abs(np.diagonal(dense, 0, 1, 2))
    for i in range(n):
        dense[:, i, i] = band[:, i, lo] = (off[:, i] + 0.5) * np.exp(
            2j * np.pi * rng.random(count))
    return band, dense


@pytest.mark.parametrize("lo", range(4))
@pytest.mark.parametrize("up", range(4))
@pytest.mark.parametrize("columns", [1, 3])
def test_band_solve_matches_dense_solve(lo, up, columns):
    rng = stream("band_solve", lo, up, columns)
    count, n = 5, 9
    band, dense = _dominant_band(rng, count, n, lo, up)
    rhs = rng.normal(size=(n, columns)) + 1j * rng.normal(size=(n, columns))
    got = band_solve(band.copy(), lo, rhs)
    want = np.linalg.solve(dense, np.broadcast_to(rhs, (count, n, columns)))
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
    # one right-hand side per system
    rhs = rng.normal(size=(count, n, columns))
    got = band_solve(band.copy(), lo, rhs)
    assert np.abs(got - np.linalg.solve(dense, rhs)).max() \
        < 1e-12 * np.abs(got).max()


def test_band_solve_refuses_a_singular_system():
    band, _ = _dominant_band(stream("band_solve", "singular"), 3, 5, 1, 1)
    band[1, 3] = 0.0                  # row 3 and, with it, column 3 of
    band[1, 2, 2] = band[1, 4, 0] = 0.0       # system 1 are zero
    with pytest.raises(OracleUnsupported, match="singular.*height 1"):
        band_solve(band, 1, np.ones((5, 1)), s_min=-2)


@pytest.mark.parametrize("law, width", [(LAW_POS, 6), (StepLaw(
    (aff(0, 3, 3), aff(-2, Fraction(1, 9), 3)),
    (Fraction(2, 3), Fraction(1, 3))), 4)], ids=["p2", "p3"])
def test_grid_phases_are_the_characters_of_the_digit_shift(law, width):
    grid = law.grid
    p = grid.prime
    m = p ** width
    count, phases = grid.characters(width)
    assert count == m // 2 + 1
    k = np.arange(count)[:, None]
    for txn in (1, -1, 2, 5):
        cells = np.arange(width + 2)   # the last ones shift by 0 mod M
        shift = np.array([txn * p ** int(c) % m for c in cells])
        want = np.exp(-2j * np.pi * k * shift / m)
        assert np.abs(phases(txn, cells) - want).max() < 1e-12


def test_oracle_matches_single_atom_law():
    law = StepLaw((aff(0, 2),), (Fraction(1),))
    cyl = CylinderEvent((O,), (PadicVertex(2, 2, 0),))
    out = kernel_oracle(law, [HOME, cyl])
    assert abs(out["visits"][HOME.render()] - 1.0) < 1e-9
    assert abs(out["visits"][cyl.render()] - 1.0) < 1e-9
    assert out["bias"] < 1e-6


def test_oracle_rejects_off_grid_laws():
    law = StepLaw((aff(0, 3, 3), aff(1, Fraction(1, 3), 3)),
                  (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(OracleUnsupported):
        kernel_oracle(StepLaw((aff(Fraction(1, 3), 2),
                               aff(1, Fraction(1, 2))),
                              (Fraction(1, 2), Fraction(1, 2))), [HOME])
    lamp = StepLaw((LampAffine(2, (), 1),), (Fraction(1),))
    with pytest.raises(OracleUnsupported):
        kernel_oracle(lamp, [HOME])


@pytest.mark.parametrize("target", [PadicVertex(2, -9, 0),
                                    PadicVertex(2, 41, 0),
                                    PadicVertex(2, 0, Fraction(1, 2 ** 9))],
                         ids=["below", "above", "center-below-grid"])
def test_oracle_rejects_targets_off_the_window(target):
    # a target outside the truncated chain would read 0 visits
    with pytest.raises(OracleUnsupported):
        kernel_oracle(LAW_POS, [HOME, CylinderEvent((O,), (target,))])


def _exact_chain(law, cylinders, s_min, s_max):
    """Visits, killed and escaped mass of the truncated chain by an exact
    ``Fraction`` solve of the Green function over its reachable (height,
    translation mod p**c_max) states, stepping with the atoms' exact
    translations and heights."""
    p = law.degree
    c_max = max(1, *(c.targets[0].height for c in cylinders))
    mod, unit = Fraction(p) ** c_max, Fraction(p) ** s_min
    start = (0, Fraction(0))
    index, states, moves = {start: 0}, [start], []
    killed, escaped = [], []
    for s, t in states:              # grows while it is walked
        out, kill, esc = [], Fraction(0), Fraction(0)
        for atom, w in zip(law.atoms, law.weights):
            t2, s2 = t + Fraction(p) ** s * atom.t.exact, s + phi(atom)
            if (t2 / unit).denominator != 1 or s2 < s_min:
                kill += w
            elif s2 > s_max:
                esc += w
            else:
                key = (s2, t2 % mod)
                if key not in index:
                    index[key] = len(states)
                    states.append(key)
                out.append((index[key], w))
        moves.append(out)
        killed.append(kill)
        escaped.append(esc)
    n = len(states)
    # (I - T^T) g = e_start, with the right-hand side as column n
    rows = [{i: Fraction(1)} for i in range(n)]
    rows[0][n] = Fraction(1)
    for i, out in enumerate(moves):
        for j, w in out:
            rows[j][i] = rows[j].get(i, 0) - w
    for i in range(n):
        piv = next(r for r in range(i, n) if rows[r].get(i))
        rows[i], rows[piv] = rows[piv], rows[i]
        inv = 1 / rows[i][i]
        pivot = {c: v * inv for c, v in rows[i].items()}
        rows[i] = pivot
        for r in range(n):
            f = rows[r].get(i) if r != i else None
            if f:
                for c, v in pivot.items():
                    rows[r][c] = rows[r].get(c, 0) - f * v
    g = [row.get(n, Fraction(0)) for row in rows]
    visits = {}
    for cyl in cylinders:
        y = cyl.targets[0]
        visits[cyl.render()] = sum(
            (g[i] for i, (s, t) in enumerate(states)
             if s == y.height and ((t - y.center) / Fraction(p) ** s)
             .denominator == 1), Fraction(0))
    return (visits, sum(map(operator.mul, g, killed)),
            sum(map(operator.mul, g, escaped)))


def _shallow_cylinders(p, s_min):
    o = origin_padic(p)
    return [CylinderEvent((o,), (PadicVertex(p, h, Fraction(k, p ** -s_min)),))
            for h in range(s_min, 2)
            for k in range(0, p ** (h - s_min), p ** max(0, h - s_min - 3))]


@pytest.mark.parametrize("law, s_min, s_max", [
    # drift_pos with a negative translation
    (StepLaw((aff(0, 2), aff(-1, Fraction(1, 2))),
             (Fraction(3, 4), Fraction(1, 4))), -3, 3),
    # the first atom climbs from the window's floor with a digit below
    # the grid
    (StepLaw((aff(Fraction(-1, 2), 2), aff(1, Fraction(1, 2))),
             (Fraction(3, 4), Fraction(1, 4))), -2, 4),
    # centered, with a translation at height 0
    (StepLaw((aff(0, 2), aff(0, Fraction(1, 2)), aff(3, 1)),
             (Fraction(3, 8), Fraction(3, 8), Fraction(1, 4))), -2, 3),
    # p = 3: an odd number of grid residues
    (StepLaw((aff(0, 3, 3), aff(2, Fraction(1, 3), 3)),
             (Fraction(2, 3), Fraction(1, 3))), -1, 3),
    # bands wider than 1: an upward step of 2 with a downward step of 1
    (StepLaw((aff(0, 4), aff(1, Fraction(1, 2))),
             (Fraction(1, 3), Fraction(2, 3))), -3, 4),
    # a downward step of 3
    (StepLaw((aff(0, 2), aff(-1, Fraction(1, 8))),
             (Fraction(3, 4), Fraction(1, 4))), -3, 4),
    # p = 3 with steps of 2 both ways
    (StepLaw((aff(1, 9, 3), aff(-2, Fraction(1, 3), 3),
              aff(0, Fraction(1, 9), 3)),
             (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))), -1, 3),
], ids=["negative-t", "digits-below-grid", "centered", "p3", "up2-down1",
        "down3", "p3-phi2"])
def test_oracle_matches_exact_chain(law, s_min, s_max):
    cylinders = _shallow_cylinders(law.degree, s_min)
    out = kernel_oracle(law, cylinders, s_min=s_min, s_max=s_max)
    visits, killed, escaped = _exact_chain(law, cylinders, s_min, s_max)
    assert killed > 0 and escaped > 0
    for name, want in visits.items():
        assert abs(out["visits"][name] - want) < 1e-12, name
    assert abs(out["bias"] - killed) < 1e-12
    assert abs(out["escaped_mass"] - escaped) < 1e-12


@st.composite
def grid_oracle_cases(draw):
    """A small grid law with 2-3 atoms, |phi| <= 3 and p-power
    translations, and a window small enough for ``_exact_chain``."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 3))
    phis = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)
                .filter(any))      # a walk that keeps its height may be stuck
    ws = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    atoms = tuple(aff(Fraction(draw(st.integers(-3, 3)),
                               p ** draw(st.integers(0, 2))),
                      Fraction(p) ** ph, p) for ph in phis)
    law = StepLaw(atoms, tuple(Fraction(w, sum(ws)) for w in ws))
    s_min = draw(st.integers(-2 if p == 2 else -1, 0))
    return law, s_min, draw(st.integers(1, 3))   # targets reach height 1


@settings(max_examples=60, deadline=None)
@given(grid_oracle_cases())
def test_oracle_matches_exact_chain_on_grid_laws(case):
    law, s_min, s_max = case
    cylinders = _shallow_cylinders(law.degree, s_min)
    out = kernel_oracle(law, cylinders, s_min=s_min, s_max=s_max)
    visits, killed, escaped = _exact_chain(law, cylinders, s_min, s_max)
    for name, want in visits.items():
        assert abs(out["visits"][name] - want) < 1e-12, name
    assert abs(out["bias"] - killed) < 1e-12
    assert abs(out["escaped_mass"] - escaped) < 1e-12


@pytest.mark.parametrize("s_min, s_max, target", [
    (1, 6, PadicVertex(2, 2, 0)),
    (2, 6, PadicVertex(2, 2, 0)),
    (-8, -1, PadicVertex(2, -2, 0)),
])
def test_oracle_refuses_windows_without_height_0(s_min, s_max, target):
    # the walk starts at height 0, so a window without it has no start row
    with pytest.raises(OracleUnsupported, match="height 0"):
        kernel_oracle(LAW_POS, [CylinderEvent((O,), (target,))],
                      s_min=s_min, s_max=s_max)


@pytest.mark.parametrize("law", [
    StepLaw((aff(1, 1),), (Fraction(1),)),
    StepLaw((aff(0, 1), aff(1, 1)), (Fraction(1, 2), Fraction(1, 2))),
], ids=["translation", "translation-or-stay"])
def test_oracle_refuses_walks_that_keep_their_height(law):
    with pytest.raises(OracleUnsupported, match="singular"):
        kernel_oracle(law, [HOME])


def test_oracle_deep_window_is_cheap():
    # a height-6 target widens drift_pos's digit grid to M = 2**14
    targets = [PadicVertex(2, 6, 0), PadicVertex(2, 6, 5)]
    tracemalloc.start()
    try:
        out = kernel_oracle(LAW_POS, [CylinderEvent((O,), (y,))
                                      for y in targets])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    # visits as a dense solve per character gives them
    for y, want in zip(targets, (0.359035164865851, 0.02374705795607699)):
        name = CylinderEvent((O,), (y,)).render()
        assert abs(out["visits"][name] - want) < 1e-12, name


def test_kernel_matches_oracle_with_negative_translation():
    law = StepLaw((aff(0, 2), aff(-1, Fraction(1, 2))),
                  (Fraction(3, 4), Fraction(1, 4)))
    cylinders = _shallow_cylinders(2, -2)
    oracle = kernel_oracle(law, cylinders)
    ident = identity_like(law.atoms[0])
    for i, cyl in enumerate(cylinders):
        est = potential_kernel(ident, cyl, law, (5, i), 3000)
        want = oracle["visits"][cyl.render()]
        assert abs(est.value - want) <= 4 * est.stderr + est.tail_bound \
            + oracle["bias"], cyl.render()


def test_wald_identity_small_run():
    rep = wald_mass_check(LAW_POS, 3, 20000)
    assert abs(rep["ratio"] - 2.0) < 3 * rep["ratio_stderr"]
    assert abs(rep["wald_residual"]) < 3 * rep["wald_residual_stderr"]


def _no_draws(*args, **kw):
    raise AssertionError("drew before refusing")


@pytest.mark.parametrize("excursions", [0, 1])
def test_wald_check_refuses_fewer_than_two_excursions(excursions,
                                                      monkeypatch):
    monkeypatch.setattr(renewal, "stream", _no_draws)
    monkeypatch.setattr(renewal, "ladder_heights", _no_draws)
    with pytest.raises(ValueError, match="at least 2"):
        wald_mass_check(LAW_POS, 1, excursions)


@pytest.mark.parametrize("lengths,heights,ratio_z,wald_z", [
    ([1, 1], [1, 1], -math.inf, math.inf),    # ratio 1 against 2
    ([2, 2], [1, 1], 0.0, 0.0)], ids=["off-target", "on-target"])
def test_wald_gap_without_spread_is_infinitely_many_errors(
        lengths, heights, ratio_z, wald_z, monkeypatch):
    monkeypatch.setattr(renewal, "ladder_heights", lambda law, rng, count: (
        np.array(lengths), np.array(heights)))
    rep = wald_mass_check(LAW_POS, 1, 2)
    assert rep["ratio_stderr"] == rep["wald_residual_stderr"] == 0.0
    assert (rep["ratio_z"], rep["wald_z"]) == (ratio_z, wald_z)
    cfg = SimpleNamespace(law=LAW_POS, seed=1, tolerance_sigmas=4.0)
    verdicts = [c["verdict"] for c in wald_claims(cfg, excursions=2)]
    assert verdicts == ["fail" if ratio_z else "pass"] * 2


def test_mbar_samples_are_horocyclic():
    r = stream(21, 0)
    for _ in range(20):
        assert phi(sample_mbar(LAW_NEG, r)) == 0


def test_mbar_rotation_marginal_uniform():
    r = stream(22, 0)
    odd = 0
    n = 400
    for _ in range(n):
        s = sample_mbar(LAW_NEG, r)
        odd += int(s.a.residue(2)) // 2   # second binary digit of r
    assert abs(odd / n - 0.5) < 3 * 0.5 / n ** 0.5


def test_mbar_degenerate_law_is_point_mass():
    # one lamp atom: the inverted boundary limit and its section are fixed
    atom = LampAffine(2, ((0, 1),), -1)
    law = StepLaw((atom,), (Fraction(1),))
    r = stream(23, 0)
    first = sample_mbar(law, r)
    second = sample_mbar(law, r)
    assert elements_agree(first, second)


def test_misinv_total_mass_is_inverse_drift():
    ests, stats = estimate_m_misinv(LAW_POS, [None], 5, n_upsilon=300,
                                    exc_per_upsilon=40)
    est = ests[0]
    assert abs(est.value - 2.0) < 4 * est.stderr


def test_renewal_identity_requires_positive_drift():
    ev = ProductCylinder(PadicVertex(2, 1, 0), frozenset({0}))
    with pytest.raises(NonPositiveDrift):
        verify_renewal_identity(LAW_NEG, [ev], 1)


def test_limit_and_kernel_match_for_home_event():
    # coarse version of the two-estimator agreement check
    from affinetree.group import power
    s = LAW_NEG.atoms[0].reference_homothety()
    est = potential_kernel(power(s.element, 20), HOME, LAW_NEG, 8, 8000)
    lim = limit_measure_value(HOME, LAW_NEG, 8, 8000)
    assert est.agrees_with(lim, 4.0)


def test_omega_limit_rejects_unknown_regime():
    with pytest.raises(ValueError):
        verify_omega_limit(LAW_NEG, HOME, "sideways", [5], 1, trajectories=10)


def test_ascend_escape_needs_negative_drift():
    from affinetree.errors import NonNegativeDrift
    with pytest.raises(NonNegativeDrift):
        verify_omega_limit(LAW_POS, HOME, "ascend-escape", [5], 1,
                           trajectories=10)


# -- the grid batch against generic compose ------------------------------------


@st.composite
def kernel_cases(draw):
    """A p-adic law of any drift, its atoms' scale units and translation
    denominators prime to p (as ``test_walk.grid_laws``), a start element
    with unit u != 1 (rational at times) and s != 0 allowed, a one- or
    two-pair cylinder, and stop-rule settings; zero-drift cases keep the
    horizon small."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["centered", "weak", "any"]))
    if kind != "any":   # weights (nearly) balance the heights
        up, down = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        phis, ws = [up, -down], [down, up]
        if kind == "weak":           # small drift: exits often re-enter
            ws = [4 * w for w in ws]
            ws[draw(st.integers(0, 1))] += 1
        if draw(st.booleans()):
            phis.append(0)
            ws.append(draw(st.integers(1, 3)))
    else:
        n = draw(st.integers(2, 3))
        phis = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        ws = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    ts = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 2)),
                       min_size=len(phis), max_size=len(phis)))
    atoms = tuple(aff(Fraction(tn, _prime_to(draw, p, DENS) * p ** tk),
                      _prime_to(draw, p, UNITS) * Fraction(p) ** ph, p)
                  for (tn, tk), ph in zip(ts, phis))
    law = StepLaw(atoms, tuple(Fraction(w, sum(ws)) for w in ws))
    u = draw(st.integers(1, 40).filter(lambda v: v % p)) \
        * _prime_to(draw, p, UNITS)
    s0 = draw(st.integers(-3, 3))
    t0 = Fraction(draw(st.integers(-50, 50)), p ** draw(st.integers(0, 3))
                  * _prime_to(draw, p, DENS))
    g = aff(t0, u * Fraction(p) ** s0, p)
    # targets are the images of the sources under an element the walk can
    # reach (g times a few atoms), or drawn at that element's level
    reach = g
    for atom in draw(st.lists(st.sampled_from(atoms), max_size=6)):
        reach = compose(reach, atom)
    sources, targets = [], []
    for _ in range(draw(st.integers(1, 2))):
        src = PadicVertex(p, draw(st.integers(-2, 2)),
                          Fraction(draw(st.integers(0, p ** 5)), p ** 3))
        sources.append(src)
        targets.append(act_vertex(reach, src) if draw(st.booleans())
                       else PadicVertex(p, src.height + phi(reach), Fraction(
                           draw(st.integers(0, p ** 4)), p ** 2)))
    horizon = draw(st.integers(0, 60) if law.drift() == 0
                   else st.sampled_from([draw(st.integers(0, 40)), 400]))
    settings_ = dict(horizon=horizon, delta=draw(st.integers(-1, 3)),
                     min_steps=draw(st.integers(0, 12)))
    return law, g, CylinderEvent(tuple(sources), tuple(targets)), settings_


@settings(max_examples=200, deadline=None)
@given(kernel_cases(), st.integers(0, 2 ** 32), st.integers(1, 16),
       st.sampled_from([None, (1, 7), (3, 1), (5, 32)]))
def test_grid_kernel_batch_matches_compose(case, seed, trajectories, sizes):
    """The batch gives the generic-``compose`` KernelEstimate bit for bit,
    also when trajectories are cut into small row chunks and step blocks
    (extension blocks resume each stream mid-way)."""
    _batch_matches_compose(case, seed, trajectories, sizes)


def _batch_matches_compose(case, seed, trajectories, sizes):
    """The stop-rule settings are drawn into ``renewal.KERNEL_DELTA`` and
    ``renewal.KERNEL_MIN_STEPS``; the reference walks are those of
    ``generic_walk.visits``."""
    law, g, f, kw = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(renewal, "KERNEL_DELTA", kw["delta"])
        mp.setattr(renewal, "KERNEL_MIN_STEPS", kw["min_steps"])
        if sizes:
            mp.setattr(grid, "BATCH_ROWS", sizes[0])
            mp.setattr(grid, "BATCH_COLS", sizes[1])
        got = potential_kernel(g, f, law, seed, trajectories,
                               horizon=kw["horizon"])
        mp.setattr(renewal, "_grid_visits", generic_walk.visits)
        want = potential_kernel(g, f, law, seed, trajectories,
                                horizon=kw["horizon"])
    assert got == want


@st.composite
def lamp_kernel_cases(draw):
    """A lamp law with q in 2..5 and positive, negative or zero drift, a
    start s**n or b·s**n for a horocyclic b with lamps, a one- or
    two-pair cylinder, and stop-rule settings."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    up, down = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    shifts, ws = [up, -down], [down, up]             # zero drift
    sign = draw(st.sampled_from([-1, 0, 1]))
    if sign:                 # tilt the weights toward one direction
        ws = [4 * w for w in ws]
        ws[0 if sign > 0 else 1] += draw(st.integers(1, 8))
    if draw(st.booleans()):
        shifts.append(0)
        ws.append(draw(st.integers(1, 3)))
    atoms = tuple(LampAffine(q, _lamps(draw, q, -3, 3, 3), sh)
                  for sh in shifts)
    law = StepLaw(atoms, tuple(Fraction(w, sum(ws)) for w in ws))
    assert (law.drift() > 0) - (law.drift() < 0) == sign
    g = power(law.atoms[0].reference_homothety().element, draw(st.integers(-20, 20)))
    if draw(st.booleans()):
        g = compose(LampAffine(q, _lamps(draw, q, -6, 6, 4), 0), g)
    reach = g
    for atom in draw(st.lists(st.sampled_from(atoms), max_size=6)):
        reach = compose(reach, atom)
    sources, targets = [], []
    for _ in range(draw(st.integers(1, 2))):
        h = draw(st.integers(-2, 2))
        src = LampVertex(q, h, _lamps(draw, q, h - 4, h, 3))
        sources.append(src)
        targets.append(act_vertex(reach, src) if draw(st.booleans())
                       else LampVertex(q, h + phi(reach),
                                       _lamps(draw, q, h - 6, h + 2, 3)))
    horizon = draw(st.integers(0, 60) if sign == 0
                   else st.sampled_from([draw(st.integers(0, 40)), 400]))
    settings_ = dict(horizon=horizon, delta=draw(st.integers(-1, 3)),
                     min_steps=draw(st.integers(0, 12)))
    return law, g, CylinderEvent(tuple(sources), tuple(targets)), settings_


@settings(max_examples=200, deadline=None)
@given(lamp_kernel_cases(), st.integers(0, 2 ** 32), st.integers(1, 16),
       st.sampled_from([None, (1, 7), (3, 1), (5, 32)]))
def test_lamp_kernel_batch_matches_compose(case, seed, trajectories, sizes):
    """``test_grid_kernel_batch_matches_compose`` for lamp laws, whose
    batch adds digits without carries: bit for bit the generic estimate,
    the centered tail included."""
    _batch_matches_compose(case, seed, trajectories, sizes)


CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.mark.parametrize("sizes", [None, (5, 7)])
@pytest.mark.parametrize("config", ["drift_pos", "drift_neg"])
def test_kernel_matches_compose_at_the_shipped_stop_rule(config, sizes):
    """The batch gives the generic-``compose`` KernelEstimate bit for bit
    at the shipped ``KERNEL_DELTA`` and ``KERNEL_MIN_STEPS``, in both drift
    directions, from e and s**15, on HOME and a cylinder two levels up,
    and the same visits and exit and re-entry steps E and R; in blocks of
    7 steps, block edges fall between a trajectory's E and its stop."""
    law = load_config(CONFIGS / f"{config}.ini").law
    s = law.atoms[0].reference_homothety().element
    up = CylinderEvent((O,), (PadicVertex(2, 2, 3),))
    stop = (1 if law.drift() > 0 else -1, renewal.KERNEL_DELTA,
            renewal.KERNEL_MIN_STEPS)
    seen = []
    for g in (identity_like(s), power(s, 15)):
        for f in (HOME, up):
            with pytest.MonkeyPatch.context() as mp:
                if sizes:
                    mp.setattr(grid, "BATCH_ROWS", sizes[0])
                    mp.setattr(grid, "BATCH_COLS", sizes[1])
                got = potential_kernel(g, f, law, 5, 32)
                runs = [visits(g, f, law, 5, "kernel", 32, 20000, stop)
                        for visits in (renewal._grid_visits,
                                       generic_walk.visits)]
                mp.setattr(renewal, "_grid_visits", generic_walk.visits)
                want = potential_kernel(g, f, law, 5, 32)
            assert got == want
            (rows, steps, *ends), (rows2, steps2, *ends2) = runs
            assert sorted(zip(rows.tolist(), steps.tolist())) == \
                sorted(zip(rows2.tolist(), steps2.tolist()))
            for a, b in zip(ends, ends2):       # E and R of every walk
                assert np.array_equal(a, b)
            seen.append((got.value, ends[0].max()))
    assert all(v for v, _ in seen[:2])   # the walks from e meet both events
    assert all(e < renewal._NEVER for _, e in seen)      # every walk exits


@pytest.mark.parametrize("sizes", [None, (5, 7)])
def test_kernel_counts_no_visit_after_the_stop(monkeypatch, sizes):
    """A walk that stops at step n - 1 and is in the event at step n: at
    KERNEL_DELTA 0 a drift_pos walk one level above the event exits and
    stops at once (KERNEL_MIN_STEPS n - 1), and a down step takes it to
    the target, the origin's image under the walk's atoms up to step n.
    The batch counts no visit at step n, as the generic walk does; in
    blocks of 7 steps, n - 1 and n share a block."""
    law = load_config(CONFIGS / "drift_pos.ini").law
    g = identity_like(law.atoms[0])
    w = generic_walk.GenericWalk(law, stream(3, "kernel", 0), g)
    walked = [(0, g)]
    for _ in range(60):
        walked.append((w.right(), w.g))
    n = next(n for n in range(3, 60) if n % 7 != 1
             and walked[n][0] == walked[n - 1][0] - 1)
    f = CylinderEvent((O,), (act_vertex(walked[n][1], O),))
    monkeypatch.setattr(renewal, "KERNEL_DELTA", 0)
    monkeypatch.setattr(renewal, "KERNEL_MIN_STEPS", n - 1)
    if sizes:
        monkeypatch.setattr(grid, "BATCH_ROWS", sizes[0])
        monkeypatch.setattr(grid, "BATCH_COLS", sizes[1])
    ref = generic_walk.visits
    # without the stop rule, walk 0 is in the event at step n
    rows, steps, _, _ = ref(g, f, law, 3, "kernel", 4, 200)
    assert (0, n) in zip(rows.tolist(), steps.tolist())
    runs = [visits(g, f, law, 3, "kernel", 4, 200, (1, 0, n - 1))
            for visits in (renewal._grid_visits, ref)]
    (rows, steps, *ends), (rows2, steps2, *ends2) = runs
    assert ends[0][0] == n - 1 and (0, n) not in zip(rows2.tolist(),
                                                      steps2.tolist())
    assert sorted(zip(rows.tolist(), steps.tolist())) == \
        sorted(zip(rows2.tolist(), steps2.tolist()))
    for a, b in zip(ends, ends2):
        assert np.array_equal(a, b)
    got = potential_kernel(g, f, law, 3, 4, horizon=200)
    monkeypatch.setattr(renewal, "_grid_visits", ref)
    assert got == potential_kernel(g, f, law, 3, 4, horizon=200)


def test_tail_cap_is_reported(monkeypatch):
    # a small exit distance makes re-entries common
    monkeypatch.setattr(renewal, "KERNEL_DELTA", 2)
    monkeypatch.setattr(renewal, "KERNEL_MIN_STEPS", 0)
    law = StepLaw((aff(0, Fraction(1, 2)), aff(1, 2)),
                  (Fraction(3, 5), Fraction(2, 5)))
    g = power(law.atoms[0].reference_homothety().element, 2)
    free = potential_kernel(g, HOME, law, 4, 400)
    assert 0.1 < free.rho < renewal.TAIL_RHO_CAP and not free.rho_capped
    monkeypatch.setattr(renewal, "TAIL_RHO_CAP", 0.05)
    capped = potential_kernel(g, HOME, law, 4, 400)
    assert capped.rho == free.rho and capped.rho_capped
    assert capped.tail_bound < free.tail_bound


def test_inexact_atoms_are_refused():
    """An atom known only to finitely many digits is refused where the
    law is built, so no walk can lose precision."""
    t = PAdic(2, 0, 0b1011011, 7, budget=PrecisionBudget(8, 6))
    with pytest.raises(InexactAtom, match="not exact"):
        StepLaw((PadicAffine(t, PAdic.from_int(2, 2)), aff(0, "1/2")),
                (Fraction(1, 2), Fraction(1, 2)))


def test_precision_aborts_fail_verdicts(monkeypatch):
    """An estimate that lost trajectories to precision aborts passes no
    check: ``agrees_with``, the positive-drift decay check and the
    omega-limit bound each fail it, though its numbers alone pass.  No
    walk aborts since law atoms are exact, so the estimates are built by
    hand."""
    whole = KernelEstimate(0.01, 0.001, 50, 200, 0.0)
    est = dataclasses.replace(whole, aborted=20)
    assert whole.agrees_with(whole)
    assert not est.agrees_with(est)
    assert not est.agrees_with(whole) and not whole.agrees_with(est)
    monkeypatch.setattr(renewal, "potential_kernel",
                        lambda *args, **kw: est)
    rep = verify_boundary_limit(LAW_POS, HOME, [2, 4], 1, trajectories=50,
                                horizon=200)
    assert [e["aborted"] for e in rep["estimates"]] == [20, 20]
    assert rep["checks"] == [{"trend_nonincreasing": True,
                              "final_below_0.05": True}]
    assert not rep["pass"]
    rep = verify_omega_limit(LAW_POS, HOME, "descend", [2, 4], 1,
                             trajectories=50, horizon=200)
    assert rep["final_bound"] < rep["tolerance"] and not rep["pass"]
