"""Acceptance gate: twelve numbered criteria, each with pinned sizes,
seeds and tolerances.  One scoreboard line per criterion is printed in
the terminal summary (see conftest).
"""

import json
import time

import pytest
from click.testing import CliRunner

from affinetree.cli import main as cli_main
from affinetree.config import parse_config
from affinetree.renewal import (
    CylinderEvent,
    ProductCylinder,
    verify_boundary_limit,
    verify_omega_limit,
    verify_renewal_identity,
    wald_mass_check,
)
from affinetree.suites import (
    algebra_claims,
    boundary_measure_claims,
    oracle_claims,
    padic_isometry_claims,
    period_invariance_claims,
    regime_claims,
)
from affinetree.tree import PadicVertex, origin_padic

from conftest import record_criterion

SIGMAS = 3.0


def cfg_text(atoms, prime=2, seed=11, extra=""):
    lines = [f"atom{i + 1} = {a} weight {w}" for i, (a, w) in enumerate(atoms)]
    return (f"[realization]\nkind = padic\nprime = {prime}\n\n[law]\n"
            + "\n".join(lines) + f"\n\n[experiment]\nseed = {seed}\n" + extra)


CFG_POS = parse_config(cfg_text([("affine(t = 0, a = 2)", "3/4"),
                                 ("affine(t = 1, a = 1/2)", "1/4")]))
CFG_NEG = parse_config(cfg_text([("affine(t = 0, a = 1/2)", "3/4"),
                                 ("affine(t = 1, a = 2)", "1/4")]))
CFG_CEN = parse_config(cfg_text([("affine(t = 0, a = 2)", "3/8"),
                                 ("affine(t = 0, a = 1/2)", "3/8"),
                                 ("affine(t = 1, a = 1)", "1/4")]))
CFG_P3 = parse_config(cfg_text([("affine(t = 0, a = 3)", "3/4"),
                                ("affine(t = 1, a = 1/3)", "1/4")], prime=3))
CFG_LAMP = parse_config("""
[realization]
kind = lamplighter
q = 2

[law]
atom1 = lamp(shift = 1, lamps = []) weight 3/4
atom2 = lamp(shift = -1, lamps = [0:1]) weight 1/4

[experiment]
seed = 11
""")

O = origin_padic(2)
HOME = CylinderEvent((O,), (O,), name="home")


def all_pass(claims):
    return all(c["verdict"] == "pass" for c in claims)


def test_criterion_01_algebra_suite():
    t0 = time.perf_counter()
    claims = []
    for cfg in (CFG_POS, CFG_P3, CFG_LAMP):
        claims += algebra_claims(cfg, cases=10000, seed=101)
    elapsed = time.perf_counter() - t0
    ok = all_pass(claims) and elapsed < 30
    detail = (f"3 realizations x 10^4 exact cases, "
              f"failures {[c['estimate'] for c in claims]}, {elapsed:.1f}s")
    assert record_criterion(1, "algebra", ok, detail), detail


def test_criterion_02_isometry():
    t0 = time.perf_counter()
    claims = padic_isometry_claims(CFG_POS, pairs=10000, seed=102)
    elapsed = time.perf_counter() - t0
    ok = all_pass(claims) and elapsed < 10
    detail = f"10^4 end pairs exact, {elapsed:.1f}s"
    assert record_criterion(2, "theta equals p-adic norm", ok, detail), detail


def test_criterion_03_wald_mass():
    rep = wald_mass_check(CFG_POS.law, 103, 100000)
    ok = abs(rep["ratio"] - 2.0) <= SIGMAS * rep["ratio_stderr"] \
        and abs(rep["wald_residual"]) <= SIGMAS * rep["wald_residual_stderr"]
    detail = (f"E[l]/E[S_l] = {rep['ratio']:.4f} +- {rep['ratio_stderr']:.4f}"
              f" (target 2), residual {rep['wald_residual']:.4f}")
    assert record_criterion(3, "ladder mass 1/drift", ok, detail), detail


def test_criterion_04_regime_trichotomy():
    claims = []
    for cfg in (CFG_NEG, CFG_POS, CFG_CEN):
        claims += [c for c in regime_claims(cfg, trajectories=1000,
                                            horizon=10000, seed=104)
                   if c["verdict"] != "skip"]
    ok = all_pass(claims)
    detail = "; ".join(f"{c['claim']}={c['estimate']:.3f}" for c in claims
                       if c["estimate"] is not None)
    assert record_criterion(4, "drift trichotomy", ok, detail), detail


@pytest.fixture(scope="module")
def boundary_measure():
    return boundary_measure_claims(CFG_POS, samples=10000, depth=6,
                                   inv_depth=3, seed=105)


def test_criterion_05_no_point_mass(boundary_measure):
    c = next(c for c in boundary_measure if c["claim"] == "boundary.nonatomic")
    ok = c["verdict"] == "pass"
    detail = f"max disc mass by depth {c['details']['max_mass_by_depth']}"
    assert record_criterion(5, "limit law non-atomic", ok, detail), detail


def test_criterion_06_invariance(boundary_measure):
    c = next(c for c in boundary_measure if c["claim"] == "boundary.invariance")
    # the claim holds all discs together (Bonferroni); the criterion keeps
    # its per-disc bound as well
    ok = c["verdict"] == "pass" and c["estimate"] <= SIGMAS
    detail = (f"worst disc z = {c['estimate']:.2f} over "
              f"{c['details']['discs']} depth-3 discs (tol {SIGMAS})")
    assert record_criterion(6, "one-step invariance", ok, detail), detail


def test_criterion_07_oracle_equivalence():
    claims = oracle_claims(CFG_POS, sigmas=SIGMAS, seed=11, trajectories=6000)
    c = claims[0]
    ok = c["verdict"] == "pass"
    detail = (f"{c['details']['cylinders']} cylinders, worst z = "
              f"{c['estimate']:.2f}, oracle bias {c['details']['oracle_bias']:.1e}")
    assert record_criterion(7, "Monte Carlo matches exact chain", ok,
                            detail), detail


def test_criterion_08_boundary_limit_two_estimators():
    rep = verify_boundary_limit(CFG_NEG.law, HOME, [15, 20, 25], 108,
                                trajectories=100000, limit_samples=100000,
                                sigmas=SIGMAS)
    ok = rep["pass"]
    vals = ", ".join(f"{e['value']:.4f}" for e in rep["estimates"])
    detail = (f"kernel at n=15,20,25: {vals}; independent limit "
              f"{rep['limit_estimate']['value']:.4f} "
              f"+- {rep['limit_estimate']['stderr']:.4f}")
    assert record_criterion(8, "kernel limit matches boundary measure", ok,
                            detail), detail


def test_criterion_09_null_limits():
    parts = []
    rep = verify_boundary_limit(CFG_POS.law, HOME, [10, 20, 30], 109,
                                trajectories=20000, sigmas=SIGMAS)
    parts.append(("ascend", rep["pass"],
                  rep["estimates"][-1]["value"]))
    for name, cfg in (("pos", CFG_POS), ("neg", CFG_NEG), ("cen", CFG_CEN)):
        traj, hor = (1000, 3000) if name == "cen" else (3000, 4000)
        rep = verify_omega_limit(cfg.law, HOME, "descend", [10, 20, 30], 109,
                                 trajectories=traj, horizon=hor,
                                 tolerance=0.05)
        parts.append((f"descend-{name}", rep["pass"], rep["final_bound"]))
    rep = verify_omega_limit(CFG_NEG.law, HOME, "ascend-escape", [10, 20, 30],
                             109, trajectories=3000, tolerance=0.05)
    parts.append(("ascend-escape", rep["pass"], rep["final_bound"]))
    ok = all(p[1] for p in parts)
    detail = "; ".join(f"{n}: {v:.4f}" for n, _, v in parts) + " (tol 0.05)"
    assert record_criterion(9, "null limits", ok, detail), detail


def test_criterion_10_renewal_identity():
    events = [ProductCylinder(PadicVertex(2, 1, 0), frozenset({0, 1})),
              ProductCylinder(PadicVertex(2, 1, 1), frozenset({0}))]
    rep = verify_renewal_identity(CFG_POS.law, events, 110, n_upsilon=2000,
                                  exc_per_upsilon=50, sigmas=SIGMAS)
    ok = rep["pass"]
    detail = "; ".join(
        f"lhs {c['lhs']:.4f} vs rhs {c['rhs']:.4f} "
        f"(gap {c['gap']:.4f}, tol {c['tolerance']:.4f}, "
        f"truncation {c['truncation_bound']})"
        for c in rep["checks"])
    assert record_criterion(10, "renewal identity", ok, detail), detail


def test_criterion_11_period_invariance():
    claims = period_invariance_claims(CFG_NEG, n=20, trajectories=20000,
                                      sigmas=SIGMAS, seed=111)
    ok = all_pass(claims)
    detail = "; ".join(
        f"{c['claim']}: {len(c['details']['checks'])} comparisons"
        for c in claims)
    assert record_criterion(11, "direction fixed by rotations", ok,
                            detail), detail


def test_criterion_12_determinism(tmp_path):
    runner = CliRunner()
    text = cfg_text([("affine(t = 0, a = 2)", "3/4"),
                     ("affine(t = 1, a = 1/2)", "1/4")],
                    extra="trajectories = 100\nhorizon = 400\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    blobs = {"wald": [], "omega-limit": [], "algebra": []}
    for run in ("a", "b"):
        for suite in blobs:
            out = tmp_path / f"{suite}-{run}"
            res = runner.invoke(cli_main, [
                "verify", "--config", str(cfg), "--suite", suite,
                "--out", str(out)])
            assert res.exit_code == 0, res.output
            blobs[suite].append((out / "report.json").read_bytes())
    ok = all(a == b for a, b in blobs.values())
    detail = f"suites {sorted(blobs)} rerun byte-identical: {ok}"
    assert record_criterion(12, "determinism", ok, detail), detail
