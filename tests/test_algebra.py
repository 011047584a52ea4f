"""The exact-algebra suite: its random inputs follow their stated laws,
each helper returns the number of items asked for, every identity it
checks fails on a wrong operation, and any prime the config accepts
(p**12 beyond int64 included) runs through it."""

import json
import math
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from affinetree import suites
from affinetree.cli import main
from affinetree.config import load_config, parse_config
from affinetree.group import PadicAffine, act_vertex, compose, invert, norm, phi
from affinetree.rng import stream
from affinetree.tree import theta

CONFIGS = Path(__file__).parent.parent / "configs"
P2 = load_config(CONFIGS / "drift_pos.ini")
LAMP = load_config(CONFIGS / "lamplighter.ini")
P43_TEXT = """
[realization]
kind = padic
prime = 43

[law]
atom1 = affine(t = 0, a = 43) weight 3/4
atom2 = affine(t = 1, a = 1/43) weight 1/4

[experiment]
seed = 11
"""
P43 = parse_config(P43_TEXT)
# a q = 3 lamp law: its lamps add by the field sum, not by XOR
LAMP3 = parse_config("""
[realization]
kind = lamplighter
q = 3

[law]
atom1 = lamp(shift = 1, lamps = [0:2]) weight 3/4
atom2 = lamp(shift = -1, lamps = [0:1, 1:2]) weight 1/4

[experiment]
seed = 13
""")


def within_5_sigma(count, trials, rate):
    """Whether ``count`` successes of ``trials`` lie within 5 binomial
    standard deviations of ``rate``."""
    sd = math.sqrt(trials * rate * (1 - rate))
    return abs(count - trials * rate) <= 5 * sd


def _factors(cfg):
    return [*cfg.law.atoms, *map(invert, cfg.law.atoms)]


@pytest.mark.parametrize("cfg", [P2, LAMP, P43], ids=["p2", "lamp", "p43"])
@pytest.mark.parametrize("n", [0, 1, 7, 1001])
def test_each_helper_returns_n_items(cfg, n):
    rng = stream(5, "algebra.exact")
    assert len(suites._random_element(cfg, rng, _factors(cfg), n)) == n
    assert len(suites._random_vertex(cfg, rng, n)) == n
    assert len(suites._random_end(cfg, rng, n)) == n


def test_cases_run_across_blocks(monkeypatch):
    """A case count that is not a multiple of the block still checks
    every case once."""
    seen = []
    real = suites.decompose
    monkeypatch.setattr(suites, "_BLOCK", 3)
    monkeypatch.setattr(suites, "decompose",
                        lambda g, s: seen.append(g) or real(g, s))
    [claim] = suites.algebra_claims(P2, cases=7, seed=3)
    assert claim["verdict"] == "pass" and len(seen) == 7


def _words(monkeypatch, cfg, n):
    """The factor words of n random elements, as tuples of indices into
    ``_factors(cfg)`` (an index at or past the atom count is an inverse),
    each followed, for the p-adic realization, by its extra translation."""
    monkeypatch.setattr(suites, "compose", lambda a, b: a + (
        (b,) if isinstance(b, PadicAffine) else b))
    labels = [(i,) for i in range(len(_factors(cfg)))]
    return suites._random_element(cfg, stream(17, "algebra.exact"), labels, n)


@pytest.mark.parametrize("cfg", [P2, LAMP], ids=["p2", "lamp"])
def test_element_words_follow_their_laws(monkeypatch, cfg):
    n, atoms = 4000, len(cfg.law.atoms)
    words = _words(monkeypatch, cfg, n)
    if cfg.kind == "padic":
        shifts = [w[-1].t.exact * cfg.prime ** 2 for w in words]
        words = [w[:-1] for w in words]
        assert all(s.denominator == 1 and -64 <= s <= 64 for s in shifts)
        assert min(shifts) == -64 and max(shifts) == 64
        assert within_5_sigma(sum(s > 0 for s in shifts), n, 64 / 129)
    lengths = Counter(map(len, words))
    assert set(lengths) == {1, 2, 3, 4}
    assert all(within_5_sigma(lengths[k], n, 1 / 4) for k in range(1, 5))
    picks = [i for w in words for i in w]
    assert within_5_sigma(sum(i >= atoms for i in picks), len(picks), 1 / 2)
    assert within_5_sigma(sum(i % atoms == 0 for i in picks), len(picks),
                          1 / atoms)


@pytest.mark.parametrize("cfg", [P2, P43], ids=["p2", "p43"])
def test_padic_vertices_and_ends_follow_their_laws(cfg):
    n, p = 4000, cfg.prime
    rng = stream(19, "algebra.exact")
    vertices = suites._random_vertex(cfg, rng, n)
    heights = Counter(v.height for v in vertices)
    assert set(heights) == set(range(-4, 5))
    assert all(within_5_sigma(heights[h], n, 1 / 9) for h in heights)
    # at height 4 the drawn center c/p**4, c < p**8, is its own truncation
    top = [v.center * p ** 4 for v in vertices if v.height == 4]
    assert all(c.denominator == 1 and 0 <= c < p ** 8 for c in top)
    nums = [e.value.exact * p ** 4 for e in suites._random_end(cfg, rng, n)]
    assert all(c.denominator == 1 and 0 <= c < p ** 12 for c in nums)
    # the top and the bottom digit of c are uniform: the range is the
    # stated one, and so is the p**4 that divides it
    for cs, k in ((top, 8), (nums, 12)):
        assert within_5_sigma(sum(2 * c >= p ** k for c in cs), len(cs), 1 / 2)
        assert within_5_sigma(sum(c % p != 0 for c in cs), len(cs),
                              (p - 1) / p)


def test_lamp_vertices_and_ends_follow_their_laws():
    n, q, window = 4000, LAMP.q, suites.END_WINDOW
    rng = stream(23, "algebra.exact")
    vertices = suites._random_vertex(LAMP, rng, n)
    heights = Counter(v.height for v in vertices)
    assert all(within_5_sigma(heights[h], n, 1 / 9) for h in range(-4, 5))
    assert all(v.height - 4 <= pos <= v.height
               for v in vertices for pos, _ in v.lamps)
    # a lamp shows when it is lit and its uniform value is nonzero
    shown = (q - 1) / q
    assert within_5_sigma(sum(len(v.lamps) for v in vertices), 5 * n,
                          0.5 * shown)
    ends = suites._random_end(LAMP, rng, n)
    assert all(e.known_to == window and -4 <= pos <= window
               for e in ends for pos, _ in e.values)
    assert within_5_sigma(sum(len(e.values) for e in ends),
                          (window + 5) * n, 0.3 * shown)


# Wrong operations, each with the failure bucket that must see it.  An
# operation that is itself a consistent isometry, such as act_vertex by
# g with its translation dropped (the action of another element), or
# theta scaled by a constant, satisfies the identities and cannot fail
# them; these break them.
WRONG = {
    "meet": ("act_vertex", lambda g, x: act_vertex(g, x).father()),
    "theta": ("theta", lambda a, b: theta(a, b) ** 2),
    "norm": ("norm", lambda g: norm(g) + phi(g)),
    "axioms": ("invert", lambda g: compose(invert(g), invert(g))),
}


@pytest.mark.parametrize("cfg", [P2, LAMP, LAMP3],
                         ids=["p2", "lamp", "lamp3"])
@pytest.mark.parametrize("bucket", sorted(WRONG))
def test_algebra_exact_fails_a_wrong_operation(monkeypatch, cfg, bucket):
    name, wrong = WRONG[bucket]
    monkeypatch.setattr(suites, name, wrong)
    [claim] = suites.algebra_claims(cfg, cases=40, seed=29)
    assert claim["verdict"] == "fail"
    assert claim["details"]["failures"][bucket] > 0


def test_algebra_exact_fails_a_swapped_product(monkeypatch):
    """``compose`` with its operands swapped keeps the group axioms (it
    is the opposite group's product) but not the decomposition g = b·s**n."""
    monkeypatch.setattr(suites, "compose", lambda g, h: compose(h, g))
    [claim] = suites.algebra_claims(P2, cases=40, seed=29)
    assert claim["details"]["failures"]["decomposition"] > 0


def test_q3_lamps_pass_the_exact_claim():
    [claim] = suites.algebra_claims(LAMP3, cases=400, seed=37)
    assert claim["verdict"] == "pass" and claim["estimate"] == 0
    assert claim["details"]["theta_pairs_beyond_window"] < 400


def test_prime_43_passes_both_claims():
    [exact] = suites.algebra_claims(P43, cases=60, seed=31)
    [iso] = suites.padic_isometry_claims(P43, pairs=200, seed=31)
    assert exact["verdict"] == "pass" and exact["estimate"] == 0
    assert iso["verdict"] == "pass" and iso["estimate"] == 0


def test_verify_algebra_exits_0_on_prime_43(tmp_path):
    cfg = tmp_path / "p43.ini"
    cfg.write_text(P43_TEXT)
    out = tmp_path / "r"
    res = CliRunner().invoke(main, ["verify", "--config", str(cfg),
                                    "--suite", "algebra", "--out", str(out)])
    assert res.exit_code == 0, res.output
    claims = json.loads((out / "report.json").read_text())["claims"]
    assert [c["verdict"] for c in claims] == ["pass", "pass"]
