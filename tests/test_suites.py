"""Regime claims: drift estimates follow the exact law of the final
height, centered estimates from threshold counts equal those from atom
indices, the drift claims draw per path and not per step, memory stays
bounded, and step-budget exhaustion is reported.
The exact oracle's values on the shipped configs are pinned, a centered
oracle claim is a skip, and the invariance claim holds its discs
together to the rate its tolerance states."""

import math
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from affinetree import renewal, suites
from affinetree.config import load_config, parse_config
from affinetree.errors import OracleUnsupported, StepBudgetExceeded
from affinetree.group import PadicAffine, identity_like, power
from affinetree.law import WINDOW_CAP, StepLaw
from affinetree.padic import PAdic
from affinetree.rng import position, stream
from affinetree.walk import boundary_limits, sample_boundary_limit

CONFIGS = Path(__file__).parent.parent / "configs"


def aff(t, a):
    return PadicAffine(PAdic.from_fraction(Fraction(t), 2),
                       PAdic.from_fraction(Fraction(a), 2))


def _exact_tail(law, horizon):
    """P(S_horizon < -20) for a descending law, P(S_horizon > 20) for an
    ascending one, summed exactly over the atom counts of a two-atom law."""
    (a, b), (wa, wb) = law.phis, law.weights
    past = (lambda s: s < -20) if law.drift() < 0 else (lambda s: s > 20)
    return float(sum(math.comb(horizon, k) * wa ** k * wb ** (horizon - k)
                     for k in range(horizon + 1)
                     if past(a * k + b * (horizon - k))))


def _indexed_estimate(law, trajectories, horizon, seed):
    """``regime_claims``' estimate for a centered law from atom indices:
    the share of paths whose running extremes pass +-10: in windows of
    512, 1024, ... steps, up to ``WINDOW_CAP``, the paths still undecided
    draw one block."""
    phis = np.array(law.phis, dtype=np.int64)

    def steps(rng, shape):
        idx = np.searchsorted(law.thresholds, rng.random(shape), side="right")
        return phis[np.minimum(idx, len(phis) - 1)]

    span, rng = max(horizon, 300000), stream(seed, "regime.centered")
    carry, mx, mn = np.zeros((3, trajectories), dtype=np.int64)
    live, done, width = np.arange(trajectories), 0, 512
    while live.size and done < span:
        width = min(width, WINDOW_CAP, span - done)
        seg = carry[live, None] + np.cumsum(steps(rng, (live.size, width)),
                                            axis=1)
        mx[live] = np.maximum(mx[live], seg.max(axis=1))
        mn[live] = np.minimum(mn[live], seg.min(axis=1))
        carry[live] = seg[:, -1]
        live = live[(mx[live] <= 10) | (mn[live] >= -10)]
        done, width = done + width, 2 * width
    return float(((mx > 10) & (mn < -10)).mean())


# laws whose estimates sit near 1/2, so that a changed height moves them
UP, DOWN, STAY = aff(0, 2), aff(1, Fraction(1, 2)), aff(1, 1)
SLIGHT_DOWN = StepLaw((UP, DOWN), (Fraction(19, 40), Fraction(21, 40)))
SLIGHT_UP = StepLaw((UP, DOWN), (Fraction(21, 40), Fraction(19, 40)))
LAZY = StepLaw((UP, DOWN, STAY), (Fraction(1, 1500), Fraction(1, 1500),
                                  Fraction(1498, 1500)))
# a little lazier than centered.ini: at seeds 1 and 2 some paths are
# decided within their first 512-step window, and a few never are
LAZIER = StepLaw((UP, DOWN, STAY), (Fraction(1, 4), Fraction(1, 4),
                                    Fraction(1, 2)))


@pytest.mark.parametrize("law,trajectories,horizon,seeds,within", [
    (SLIGHT_DOWN, 2000, 400, tuple(range(20)), (0.1, 0.9)),
    (SLIGHT_UP, 2000, 401, tuple(range(20)), (0.1, 0.9)),
    (LAZY, 40, 1000, (8,), (0.1, 0.9)),
    (LAZY, 5, 310000, (8, 9, 10), (0.1, 0.9)),
    (LAZY, 1, 1000, tuple(range(6)), (0.1, 0.9)),
    (LAZIER, 40, 1000, (1, 2, 3), (0.5, 0.99))],
    ids=["descend", "ascend", "centered", "centered-ragged-span",
         "centered-one-path", "centered-lazier"])
def test_regime_estimates_match_atom_indices(law, trajectories, horizon,
                                             seeds, within):
    got = [suites.regime_claims(SimpleNamespace(law=law), trajectories,
                                horizon, limit_samples=1, seed=seed)[0]
           ["estimate"] for seed in seeds]
    if law.drift():
        # pooled over the seeds, within 5 sigma of the exact tail
        p, n = _exact_tail(law, horizon), trajectories * len(seeds)
        assert abs(np.mean(got) - p) < 5 * math.sqrt(p * (1 - p) / n)
    else:
        assert got == [_indexed_estimate(law, trajectories, horizon, seed)
                       for seed in seeds]
    # paths of both verdicts, so that a changed height would show
    assert within[0] < np.mean(got) < within[1]


class _Counted:
    """A generator that counts the uniforms and the multinomial rows drawn
    through it."""

    def __init__(self, gen):
        self.gen, self.drawn, self.rows = gen, 0, 0

    bit_generator = property(lambda self: self.gen.bit_generator)

    def random(self, size=None, out=None):
        self.drawn += out.size if out is not None else int(np.prod(size))
        return self.gen.random(size, out=out)

    def multinomial(self, n, pvals, size):
        self.rows += int(np.prod(size))
        return self.gen.multinomial(n, pvals, size)


def _counted_streams(monkeypatch):
    """The streams ``suites`` opens from here on, each a ``_Counted``."""
    made = []

    def counted(*key):
        made.append(_Counted(stream(*key)))
        return made[-1]

    monkeypatch.setattr(suites, "stream", counted)
    return made


def test_regime_centered_reads_only_undecided_paths(monkeypatch):
    """A path's verdict is final once both extremes pass +-10, typically
    a few thousand of its 300 000 steps in, so the claim reads a small
    share of the uniforms of whole paths."""
    made = _counted_streams(monkeypatch)
    claim = suites.regime_claims(load_config(CONFIGS / "centered.ini"),
                                 trajectories=200, horizon=10000, seed=3)[0]
    assert claim["claim"] == "regime.centered" and len(made) == 1
    assert made[0].drawn < 0.15 * 200 * claim["details"]["horizon"]


def test_regime_descend_draws_per_path(monkeypatch):
    """A final height comes from its path's atom counts: one multinomial
    row per path through the claim's stream, and no uniform per step."""
    made = _counted_streams(monkeypatch)
    claim = suites.regime_claims(load_config(CONFIGS / "drift_neg.ini"),
                                 trajectories=1000, horizon=10000, seed=3)[0]
    assert claim["claim"] == "regime.descend" and claim["verdict"] == "pass"
    assert len(made) == 1 and made[0].drawn == 0 and made[0].rows <= 1000


def test_regime_descend_memory_is_bounded():
    cfg = load_config(CONFIGS / "drift_neg.ini")
    tracemalloc.start()
    try:
        claim = suites.regime_claims(cfg, trajectories=1000, horizon=10000,
                                     seed=3)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert claim["claim"] == "regime.descend" and claim["verdict"] == "pass"
    # whole paths took about 240 MB here
    assert peak < 32 * 2 ** 20


def test_regime_centered_memory_is_bounded():
    cfg = load_config(CONFIGS / "centered.ini")
    tracemalloc.start()
    try:
        claim = suites.regime_claims(cfg, trajectories=200, horizon=10000,
                                     seed=3)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert claim["claim"] == "regime.centered" and claim["verdict"] == "pass"
    # whole 20 000-step blocks of 200 paths took about 80 MB here
    assert peak < 24 * 2 ** 20


def test_regime_boundary_counts_budget_exhaustion(monkeypatch):
    cfg = load_config(CONFIGS / "drift_pos.ini")

    def every_third_runs_out(law, count, *key, **kw):
        calls.append((count, kw["max_steps"]))
        rows = boundary_limits(law, count, *key, **kw)
        return [None if i % 3 == 2 else bl for i, bl in enumerate(rows)]

    calls = []
    monkeypatch.setattr(suites, "boundary_limits", every_third_runs_out)
    claim = suites.regime_claims(cfg, trajectories=20, horizon=200,
                                 limit_samples=30, seed=4)[1]
    assert claim["claim"] == "regime.boundary" and calls == [(30, 20000)]
    assert claim["details"] == {"samples": 30, "budget_exhausted": 10}
    assert claim["estimate"] <= 20 / 30 and claim["verdict"] == "fail"


@pytest.mark.parametrize("max_steps", [1, 26, 60, 90])
def test_batch_counts_exhaustion_as_the_scalar_loop(max_steps):
    law = load_config(CONFIGS / "drift_pos.ini").law
    rows = boundary_limits(law, 40, 4, "regime.boundary", depth=4,
                           max_steps=max_steps)
    want = []
    for i in range(40):
        rng = stream(4, "regime.boundary", i)
        try:
            want.append(sample_boundary_limit(law, rng, depth=4,
                                              max_steps=max_steps))
        except StepBudgetExceeded:
            want.append(None)
        assert (rows[i].steps if rows[i] else max_steps) == position(rng)
    assert rows == want
    exhausted = want.count(None)
    if max_steps < 27:       # a certified limit climbs to height 27
        assert exhausted == 40
    if max_steps == 60:
        assert 0 < exhausted < 40


# visits of three shallow cylinders, killed and escaped mass, as a power
# iteration of the truncated chain gave them before the direct solve
ORACLE_VALUES = {
    "drift_pos": ((1.8147963595218777, 0.042561494782530844,
                   0.20164289696879628), 5.080526342529088e-05,
                  0.9999491947357874),
    "drift_neg": ((1.4443900183284109, 0.042561631138084775,
                   1.4443841328209983), 1.0, 0.0),
    "centered": ((6.209044618936746, 1.171590489345089,
                  5.904756629076967), 0.82, 0.18),
}


@pytest.mark.parametrize("name", sorted(ORACLE_VALUES))
def test_oracle_values_are_pinned(name):
    cfg = load_config(CONFIGS / f"{name}.ini")
    out = suites.kernel_oracle(cfg.law, suites._oracle_cylinders(cfg))
    visits, killed, escaped = ORACLE_VALUES[name]
    for cyl, want in zip(("V(o->p:0:0)", "V(o->p:1:1@-1)", "V(o->p:-2:0)"),
                         visits):
        assert abs(out["visits"][cyl] - want) < 1e-10, cyl
    assert abs(out["bias"] - killed) < 1e-10
    assert abs(out["escaped_mass"] - escaped) < 1e-10


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.ini")),
                         ids=lambda p: p.stem)
def test_shipped_kernels_run_on_the_engine(path):
    """Every shipped law's potential kernel sums its translations exactly
    in integers from the starts its claims use: the law's engine form is
    plain and each start integral."""
    cfg = load_config(str(path))
    f = suites._home_event(cfg)
    s = cfg.law.atoms[0].reference_homothety().element
    for g in (identity_like(s), power(s, 15), power(s, -15)):
        grid, (_, u, num, _), *_ = renewal._kernel_walk(g, f, cfg.law)
        assert grid.plain and u.denominator == num.denominator == 1, g


@pytest.mark.parametrize("old,new", [
    ("affine(t = 1, a = 1/2)", "affine(t = 1/3, a = 1/2)"),
    ("affine(t = 0, a = 2)", "affine(t = 0, a = 6)")],
    ids=["denominator", "unit"])
def test_off_grid_oracle_is_a_skip(old, new):
    """The walks of a law with a translation denominator or a scale unit
    run on the engine, but its digit chain is no convolution with fixed
    shifts: the exact oracle refuses it, and the claim is a skip."""
    cfg = parse_config((CONFIGS / "drift_pos.ini").read_text()
                       .replace(old, new))
    assert not cfg.law.grid.plain
    reason = ("atoms are off the digit grid: need exact scales p**k and "
              "translations with p-power denominators")
    with pytest.raises(OracleUnsupported) as exc:
        renewal.kernel_oracle(cfg.law, [suites._home_event(cfg)])
    assert str(exc.value) == reason
    [claim] = suites.oracle_claims(cfg)
    assert claim["claim"] == "renewal.oracle" and claim["verdict"] == "skip"
    assert claim["details"]["reason"] == reason


def test_centered_oracle_is_a_skip_without_a_kernel(monkeypatch):
    """A centered height walk is recurrent: the mass killed below the
    oracle's window (0.82 on centered.ini) bounds no gap, so the claim is
    a skip and runs no kernel."""
    def no_kernel(*args, **kw):
        raise AssertionError("a kernel ran")
    monkeypatch.setattr(suites, "potential_kernel", no_kernel)
    [claim] = suites.oracle_claims(load_config(CONFIGS / "centered.ini"))
    assert claim["claim"] == "renewal.oracle" and claim["verdict"] == "skip"
    assert claim["details"]["reason"] == (
        "centered law: its height walk is recurrent, so the mass killed "
        "below the window bounds nothing")


def test_invariance_holds_all_discs_to_the_stated_rate():
    """drift_pos.ini at its own seed reads a worst z of 3.17 over 73
    discs: a 3-sigma bound per disc failed it, and the threshold for all
    discs together, at the two-sided rate of one disc at 3 sigma, passes
    it."""
    cfg = load_config(CONFIGS / "drift_pos.ini")
    c = suites.boundary_measure_claims(cfg, samples=4000, seed=11)[1]
    m, z_star = c["details"]["discs"], c["tolerance"]
    assert m * math.erfc(z_star / math.sqrt(2)) == \
        pytest.approx(math.erfc(3 / math.sqrt(2)), rel=1e-9)
    assert 3 < c["estimate"] <= z_star and c["verdict"] == "pass"


@pytest.mark.parametrize("sigmas", [0.01, 10.0, 40.0])
def test_invariance_threshold_at_any_tolerance(sigmas):
    """Every finite tolerance above 0 gives a finite threshold at or above
    it: past 8.3 sigmas 1 - tail rounds to 1, past 38 the tail is 0."""
    cfg = load_config(CONFIGS / "drift_pos.ini")
    c = suites.boundary_measure_claims(cfg, samples=200, sigmas=sigmas,
                                       seed=1)[1]
    assert sigmas <= c["tolerance"] < math.inf


def test_invariance_fails_a_moved_push(monkeypatch):
    """Pushing by atom2 with t = 3 instead of 1 moves the limit law; the
    push is the claim's only draw through ``StepLaw.sample_step``."""
    cfg = load_config(CONFIGS / "drift_pos.ini")
    moved = PadicAffine(PAdic.from_int(3, 2, cfg.budget), cfg.law.atoms[1].a)
    drawn = []

    def push(law, rng):
        drawn.append(law.sample_index(rng))
        return moved if drawn[-1] == 1 else law.atoms[drawn[-1]]
    monkeypatch.setattr(StepLaw, "sample_step", push)
    c = suites.boundary_measure_claims(cfg, samples=4000, seed=1)[1]
    assert len(drawn) == 4000 and 1 in drawn
    assert c["verdict"] == "fail" and c["estimate"] > 3 * c["tolerance"]
