"""Step laws and the experiment config format."""

import math
from fractions import Fraction

import numpy as np
import pytest

from affinetree import law as law_module
from affinetree.config import parse_config, parse_element
from affinetree.errors import (
    EmptySupport,
    InexactAtom,
    InvalidPrime,
    MalformedSyntax,
    NonExceptionalityFailed,
    WeightsNotNormalized,
)
from affinetree.grid import inverse_cdf
from affinetree.group import LampAffine, PadicAffine, phi
from affinetree.law import StepLaw
from affinetree.padic import PAdic
from affinetree.rng import stream

POS = """
[realization]
kind = padic
prime = 2

[law]
atom1 = affine(t = 0, a = 2) weight 3/4
atom2 = affine(t = 1, a = 1/2) weight 1/4

[experiment]
seed = 5
trajectories = 100
horizon = 500

[cylinders]
home = p:0:0 -> p:0:0
"""


def aff(t, a, p=2):
    return PadicAffine(PAdic.from_fraction(Fraction(t), p),
                       PAdic.from_fraction(Fraction(a), p))


def law_pos():
    return StepLaw((aff(0, 2), aff(1, Fraction(1, 2))),
                   (Fraction(3, 4), Fraction(1, 4)))


def test_exact_drift():
    assert law_pos().drift() == Fraction(1, 2)
    assert law_pos().inverse().drift() == -Fraction(1, 2)
    assert law_pos().phi_gcd() == 1


def test_weights_must_normalize():
    with pytest.raises(WeightsNotNormalized):
        StepLaw((aff(0, 2),), (Fraction(1, 2),))
    with pytest.raises(WeightsNotNormalized):
        StepLaw((aff(0, 2), aff(1, 1)), (Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(EmptySupport):
        StepLaw((), ())


def test_sampling_frequencies():
    law = law_pos()
    idx = law.sample_indices(stream(1, 0), 20000)
    assert abs((idx == 0).mean() - 0.75) < 0.02


def test_scalar_and_vector_sampling_agree():
    law = law_pos()
    scalar = [law.sample_index(stream(3, 7)) for _ in range(1)]
    # same stream, same first uniform
    vec = law.sample_indices(stream(3, 7), 1)
    assert scalar[0] == vec[0]


TINY = Fraction(1, 10 ** 20)


@pytest.mark.parametrize("weights", [
    (1,), (3, 1), (1, 1, 1), (5, 1, 2, 7), (1, 2, 3, 4, 5),
    (6, 1, 1, 3, 2, 9),
    # a weight so small that two float thresholds are equal
    (Fraction(1, 2), TINY, Fraction(1, 2) - TINY),
    (Fraction(1, 3), Fraction(2, 3) - TINY, TINY),
])
def test_inverse_cdf_is_clamped_searchsorted(weights):
    """The comparison lookup every sampler uses gives the clamped binary
    search, on arrays and on single floats."""
    total = sum(map(Fraction, weights))
    law = StepLaw(tuple(aff(0, 2) for _ in weights),
                  tuple(Fraction(w) / total for w in weights))
    t, k = law.thresholds, len(weights)
    assert bool((np.diff(t) == 0).any()) == (TINY in weights)
    u = np.concatenate([t, np.nextafter(t, 0), np.nextafter(t, 1),
                        [0.0, np.nextafter(1, 0)],
                        stream(8, k).random(2000)])
    want = np.minimum(np.searchsorted(t, u, side="right"), k - 1)
    got = inverse_cdf(t, u)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(inverse_cdf(t, u[None]), want[None])
    assert [inverse_cdf(t, x) for x in u.tolist()] == want.tolist()
    assert np.array_equal(law.sample_indices(_Fixed(u), u.size), want)


def test_phi_paths_match_atom_phis():
    law = law_pos()
    [(_, rows, paths)] = law.phi_sums(stream(2, 0), 50, 100, 100)
    assert rows.tolist() == list(range(50))
    steps = np.diff(paths, axis=1, prepend=0)
    assert set(np.unique(steps)) <= {-1, 1}


def test_phi_sums_windows_double_to_the_cap(monkeypatch):
    """Windows double from the given width up to ``WINDOW_CAP`` and are
    cut at the span; each covers the paths ``going`` kept."""
    monkeypatch.setattr(law_module, "WINDOW_CAP", 24)
    windows = [(done, rows.tolist(), sums.shape) for done, rows, sums in
               law_pos().phi_sums(stream(2, 1), 5, 5, 70,
                                  lambda live: live[1:])]
    assert windows == [(0, [0, 1, 2, 3, 4], (5, 5)),
                       (5, [1, 2, 3, 4], (4, 10)),
                       (15, [2, 3, 4], (3, 20)),
                       (35, [3, 4], (2, 24)),
                       (59, [4], (1, 11))]


class _Fixed:
    """A stand-in generator whose ``random`` returns given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert np.shape(size) == () or tuple(size) == self.u.shape
        return self.u


@pytest.mark.parametrize("exps,weights,dtype", [
    ((1, -1), (3, 1), np.int8),
    ((1, -1, 0), (3, 3, 2), np.int8),
    ((200, -150, 0, 3), (1, 2, 3, 4), np.int16),     # phi jumps of 350
    ((-127, 127), (1, 1), np.int16),                  # a jump of 254
    ((0, 0), (1, 1), np.int8),
    ((5,), (1,), np.int8),
])
def test_phi_steps_match_indexed_phis(exps, weights, dtype):
    total = sum(weights)
    law = StepLaw(tuple(aff(0, Fraction(2) ** e) for e in exps),
                  tuple(Fraction(w, total) for w in weights))
    assert law.phis == exps
    t = law.thresholds
    # every threshold exactly, its neighbours, the ends of [0, 1)
    u = np.concatenate([t, np.nextafter(t, 0), np.nextafter(t, 1),
                        [0.0, np.nextafter(1, 0)],
                        stream(6, len(exps)).random(500)])
    want = np.array(law.phis)[law.sample_indices(_Fixed(u), u.size)]
    steps = law.phi_steps(u)
    assert steps.dtype == dtype
    assert np.array_equal(steps.astype(np.int64), want)


def _exact_cdf(law, n):
    """P(S_n <= x) for x = n * min(phis) .. n * max(phis): the n-fold
    convolution of the step law, as the n-th power of its discrete Fourier
    transform over exactly the support's span."""
    lo, hi = min(law.phis), max(law.phis)
    size = n * (hi - lo) + 1
    step = np.zeros(size)
    np.add.at(step, np.array(law.phis) - lo, [float(w) for w in law.weights])
    return n * lo, np.cumsum(np.fft.irfft(np.fft.rfft(step) ** n, size))


def test_final_phis_follow_the_exact_law():
    """Final heights against the exact law of S_n, by the
    Dvoretzky-Kiefer-Wolfowitz bound: the empirical CDF of k draws strays
    past eps = sqrt(12 / k) anywhere with probability below 2e^-24."""
    law = StepLaw((aff(0, 4), aff(1, Fraction(1, 8)), aff(1, 1)),
                  (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    k = 20000
    for n in (1, 2, 7, 100000):
        ends = law.final_phis(stream(7, n), k, n)
        assert ends.shape == (k,) and ends.dtype == np.int64
        lo, cdf = _exact_cdf(law, n)
        assert lo <= ends.min() and ends.max() < lo + cdf.size
        seen = np.cumsum(np.bincount(ends - lo, minlength=cdf.size)) / k
        assert np.abs(seen - cdf).max() < math.sqrt(12 / k), n


def test_inverse_atoms():
    law = law_pos()
    inv = law.inverse()
    assert [phi(a) for a in inv.atoms] == [-1, 1]
    assert inv.weights == law.weights


def test_moment_report_exact_strings():
    rep = law_pos().moment_report()
    assert rep["drift"] == "1/2"
    assert rep["phi_abs_mean"] == "1"
    assert rep["phi_gcd"] == 1


# -- config parsing -------------------------------------------------------------


def test_parse_minimal_config():
    cfg = parse_config(POS)
    assert cfg.kind == "padic" and cfg.prime == 2
    assert cfg.law.drift() == Fraction(1, 2)
    assert cfg.seed == 5 and cfg.trajectories == 100
    assert len(cfg.cylinders) == 1
    name, ev = cfg.cylinders[0]
    assert name == "home" and ev.level == 0


def test_parse_element_literals():
    e = parse_element("affine(t = 3/4, a = 2)", prime=2)
    assert isinstance(e, PadicAffine) and phi(e) == 1
    e = parse_element("lamp(shift = -1, lamps = [0:1, 2:1])", q=2)
    assert isinstance(e, LampAffine) and phi(e) == -1
    with pytest.raises(MalformedSyntax):
        parse_element("affine(t = 1, a = 2)", q=2)   # wrong realization
    with pytest.raises(MalformedSyntax):
        parse_element("gibberish", prime=2)


def test_located_errors():
    bad = POS.replace("weight 3/4", "weight 2/4")
    with pytest.raises(WeightsNotNormalized):
        parse_config(bad)
    with pytest.raises(InvalidPrime) as exc:
        parse_config(POS.replace("prime = 2", "prime = 4"))
    assert "realization.prime" in str(exc.value)
    with pytest.raises(MalformedSyntax):
        parse_config(POS.replace("atom1 = affine(t = 0, a = 2) weight 3/4",
                                 "atom1 = affine(t = 0, a = 2)"))
    # a key or section the format does not name is refused where it is
    for text, where in [
            (POS.replace("horizon = 500", "horizn = 50"),
             "experiment.horizn"),
            (POS.replace("prime = 2", "prime = 2\nend_window = 12"),
             "realization.end_window"),
            (POS.replace("prime = 2", "prime = 2\nq = 2"), "realization.q"),
            (POS.replace("[law]", "[law]\nweights = 3/4, 1/4"),
             "law.weights"),
            (POS + "\n[extra]\nx = 1\n", "extra"),
            ("[DEFAULT]\nseed = 1\n" + POS, "DEFAULT.seed")]:
        with pytest.raises(MalformedSyntax) as exc:
            parse_config(text)
        assert exc.value.location == where
    # a law atom known only to its digits is refused at its key
    with pytest.raises(InexactAtom) as exc:
        parse_config(POS.replace("affine(t = 1, a = 1/2)",
                                 "affine(t = 2^0 * (1.1)_2, a = 1/2)"))
    assert exc.value.location == "law.atom2"


@pytest.mark.parametrize("prime", [
    2 ** 64 + 13,                      # prime, past uint64 digit draws
    318665857834031151167461,          # 399165290221 · 798330580441
], ids=["prime-past-2**64", "pseudoprime-to-bases-2..37"])
def test_primes_from_2_64_on_are_refused(prime):
    with pytest.raises(InvalidPrime, match="realization.prime"):
        parse_config(POS.replace("prime = 2", f"prime = {prime}"))


def test_largest_prime_below_2_64_is_accepted():
    p = 2 ** 64 - 59
    cfg = parse_config(POS.replace("prime = 2", f"prime = {p}")
                       .replace("a = 2", f"a = {p}")
                       .replace("a = 1/2", f"a = 1/{p}"))
    assert cfg.prime == p


def test_exceptional_law_rejected():
    hor = POS.replace("affine(t = 0, a = 2)", "affine(t = 2, a = 1)") \
             .replace("affine(t = 1, a = 1/2)", "affine(t = 1, a = 1)")
    with pytest.raises(NonExceptionalityFailed):
        parse_config(hor)
    cfg = parse_config(hor, allow_exceptional=True)
    assert not cfg.law.validate().passed


def test_config_hash_tracks_semantics():
    cfg = parse_config(POS)
    assert cfg.config_hash() == parse_config(POS + "\n# comment").config_hash()
    assert cfg.config_hash() != \
        parse_config(POS.replace("seed = 5", "seed = 6")).config_hash()


def test_empty_cylinder_rejected():
    bad = POS.replace("home = p:0:0 -> p:0:0",
                      "home = p:0:0 -> p:0:0 ; p:0:0 -> p:1:0")
    with pytest.raises(MalformedSyntax) as exc:
        parse_config(bad)
    assert "cylinders.home" in str(exc.value)


def _with_tolerance(tol):
    return POS.replace("horizon = 500",
                       f"horizon = 500\ntolerance_sigmas = {tol}")


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(MalformedSyntax) as exc:
        parse_config(_with_tolerance(tol))
    assert "experiment.tolerance_sigmas" in str(exc.value)


def test_default_tolerance_parses():
    assert parse_config(POS).tolerance_sigmas == 3.0
    assert parse_config(_with_tolerance("3")).tolerance_sigmas == 3.0
