"""Arithmetic on truncated p-adic numbers."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetree.errors import (
    DivisionByZero,
    MalformedSyntax,
    PrecisionExhausted,
    PrimeMismatch,
)
from affinetree.padic import (
    PAdic,
    PrecisionBudget,
    int_valuation,
    is_prime,
    parse_padic,
)

B = PrecisionBudget()


def fraction_truncate(value, p, exponent):
    """The base-p digits of a rational below ``exponent``, as a Fraction."""
    return PAdic.from_fraction(value, p).residue(exponent)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(2 ** 61 - 1)


@pytest.mark.parametrize("n", [
    3215031751,             # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,    # strong pseudoprime to the bases 2 .. 23
])
def test_is_prime_sees_through_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_int_valuation():
    assert int_valuation(12, 2) == 2
    assert int_valuation(12, 3) == 1
    assert int_valuation(-8, 2) == 3
    assert int_valuation(7, 2) == 0
    # the binary shortcut agrees with repeated division
    for n in [*range(-300, 0), *range(1, 300), 3 * 2 ** 70, -(2 ** 90)]:
        v = 0
        while n % 2 ** (v + 1) == 0:
            v += 1
        assert int_valuation(n, 2) == v


@pytest.mark.parametrize("num,den,p,v", [
    (4, 1, 2, 2), (3, 4, 2, -2), (1, 1, 2, 0), (18, 5, 3, 2), (5, 27, 3, -3),
])
def test_valuation_and_norm(num, den, p, v):
    x = PAdic.from_rational(num, den, p)
    assert x.valuation == v
    assert x.norm() == Fraction(p) ** -v


def test_zero_properties():
    z = PAdic.zero(2)
    assert z.is_zero and z.is_exact_zero
    x = PAdic.from_int(6, 2)
    assert (z + x) == x
    assert (z * x).is_exact_zero


def test_exact_rational_shadow_survives_cancellation():
    # 1 - 1 + small: plain modular arithmetic would lose all digits at 1 - 1
    one = PAdic.from_int(1, 2)
    small = PAdic.from_rational(1, 1, 2) * PAdic.from_fraction(
        Fraction(2) ** 40, 2)
    y = one - one + small
    assert y.valuation == 40
    assert y.exact == Fraction(2) ** 40


def test_inverse_round_trip():
    x = PAdic.from_rational(3, 8, 5)
    assert (x * x.inverse()).exact == 1
    with pytest.raises(DivisionByZero):
        PAdic.zero(5).inverse()


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        PAdic.from_int(1, 2) + PAdic.from_int(1, 3)


def test_residue():
    x = PAdic.from_rational(11, 1, 2)   # ...1011
    assert x.residue(2) == 3
    assert x.residue(4) == 11


def test_fraction_truncate_keeps_low_digits():
    # digits of 11/4 below exponent 1: 1/4 + 1/2 + 0 = 3/4... base 2
    assert fraction_truncate(Fraction(11, 4), 2, 1) == Fraction(3, 4)
    assert fraction_truncate(Fraction(11, 4), 2, 3) == Fraction(11, 4)
    # denominator coprime to p is resolved through a modular inverse
    assert fraction_truncate(Fraction(1, 3), 2, 2) == 3  # 1/3 = ...0101011
    assert fraction_truncate(Fraction(0), 2, 5) == 0


def test_render_and_parse_round_trip():
    x = parse_padic("3/4", 2, B)
    assert x.exact == Fraction(3, 4)
    y = parse_padic("2^-2 * (1.1)_2", 2, B)
    assert y.valuation == -2 and list(y.digits()) == [1, 1]
    z = PAdic.from_fraction(Fraction(3, 4), 2, B)
    assert parse_padic(z.render(), 2, B) == z
    with pytest.raises(MalformedSyntax):
        parse_padic("not a number", 2, B)


def test_with_known_exponent_drops_shadow():
    x = PAdic.from_int(5, 2).with_known_exponent(10)
    assert x.exact is None
    assert x.known_exponent == 10


def test_known_exponent_of_an_exact_value():
    """Only an exact zero has no known exponent.  A nonzero exact value
    reports valuation + working, yet its residue reads past that."""
    x = PAdic.from_int(16, 2, PrecisionBudget(8, 6))
    assert x.known_exponent == 12
    assert x.residue(30) == 16
    assert PAdic.from_int(0, 2).known_exponent is None


rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                         max_denominator=10 ** 4)


@settings(max_examples=200, deadline=None)
@given(rationals.filter(bool), st.sampled_from([2, 3, 5]),
       st.integers(1, 12), st.integers(1, 40))
def test_exact_value_weakens_to_exactly_its_window(r, p, working, extra):
    """An exact value is cut at the requested exponent also where that
    lies past its working digits: what is kept is the rational's residue,
    and no digit above it."""
    x = PAdic.from_fraction(r, p, PrecisionBudget(working, 1))
    k = x.valuation + extra
    y = x.with_known_exponent(k)
    assert y.den is None and y.known_exponent == k
    assert y.residue_pair(k) == x.residue_pair(k)
    with pytest.raises(PrecisionExhausted):
        y.residue_pair(k + 1)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, st.sampled_from([2, 3, 5]),
       st.sampled_from([-50, 0, 50]), st.sampled_from([-50, 0, 50]),
       st.integers(-70, 70))
def test_field_ops_match_exact_rationals(a, b, p, ka, kb, e):
    # scaling by p**±50 changes an operand beyond the 48 working digits
    a, b = a * Fraction(p) ** ka, b * Fraction(p) ** kb
    x, y = PAdic.from_fraction(a, p), PAdic.from_fraction(b, p)
    cases = [(x + y, a + b), (x * y, a * b), (x - y, a - b), (-x, -a)]
    if a:
        cases.append((x.inverse(), 1 / a))
    if b:
        cases.append((x / y, a / b))
    for out, want in cases:
        # the same rational, kept in the same lowest terms
        assert out.exact == want and out == PAdic.from_fraction(want, p)
    r = x.residue(e)
    rn, re = x.residue_pair(e)
    assert r == rn * Fraction(p) ** re and re <= 0 and (re == 0 or rn % p)
    assert 0 <= r < Fraction(p) ** e
    assert r == a or int_valuation((a - r).numerator, p) \
        - int_valuation((a - r).denominator, p) >= e
    if a:
        u = a / Fraction(p) ** x.valuation
        assert u.numerator % p and u.denominator % p


@settings(max_examples=200, deadline=None)
@given(rationals, st.sampled_from([2, 3, 5]))
def test_norm_is_ultrametric_scale(a, p):
    x = PAdic.from_fraction(a, p)
    if a == 0:
        assert x.norm() == 0
    else:
        v = x.valuation
        assert a * Fraction(p) ** -v != 0
        assert x.norm() == Fraction(p) ** -v


def _digit_fields(x):
    return (x.valuation, x.unit, x.precision, x.zero_bound)


def _digit_copy(x):
    """The same digits without the rational: a value on the modular path."""
    return PAdic(x.prime, x.valuation, x.unit, x.precision,
                 zero_bound=x.zero_bound, budget=x.budget)


@settings(max_examples=200, deadline=None)
@given(rationals, rationals, st.sampled_from([2, 3, 5]))
def test_exact_path_matches_modular_path(a, b, p):
    x, y = PAdic.from_fraction(a, p), PAdic.from_fraction(b, p)
    dx, dy = _digit_copy(x), _digit_copy(y)
    assert dx.exact is None and dy.exact is None
    cases = [(x + y, lambda: dx + dy), (x - y, lambda: dx - dy),
             (x * y, lambda: dx * dy), (-x, lambda: -dx)]
    if a != 0:
        cases.append((x.inverse(), dx.inverse))
    for out, modular in cases:
        assert out.exact is not None
        want = PAdic.from_rational(out.exact.numerator,
                                   out.exact.denominator, p)
        assert _digit_fields(out) == _digit_fields(want)
        if out.exact != 0:
            # the digits are those of the rational: unit * p**v == exact
            # modulo p**(v + precision), and the unit is reduced
            v, unit, prec = out.valuation, out.unit, out.precision
            assert 0 < unit < p ** prec and unit % p != 0
            gap = out.exact / Fraction(p) ** v - unit
            assert gap == 0 or int_valuation(gap.numerator, p) >= prec
        try:
            m = modular()
        except PrecisionExhausted:
            continue   # cancellation the exact path does not suffer
        assert m.exact is None or m.is_exact_zero
        assert (out - m).is_zero


def test_exact_values_compare_as_rationals():
    # equal on the 48 working digits, yet different rationals
    x, y = PAdic.from_fraction(1, 2), PAdic.from_fraction(1 + 2 ** 50, 2)
    assert _digit_fields(x) == _digit_fields(y)
    assert x != y and x == PAdic.from_rational(2, 2, 2)
    # a digit value never equals an exact one, so equality stays
    # transitive and a set's size does not hang on insertion order
    d = _digit_copy(x)
    assert d != x and d != y and d == _digit_copy(y)
    assert len({x, d, y}) == len({d, x, y}) == 3


def _value_of_form(a, p, form):
    """The rational a as an exact value, its digit copy, or its digits
    known to six places."""
    x = PAdic.from_fraction(a, p)
    if form == "digits":
        return _digit_copy(x)
    if form == "short":
        return x.with_known_exponent(6 if x.is_zero else x.valuation + 6)
    return x


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
forms = st.sampled_from(["exact", "digits", "short"])


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([2, 3]), small_rationals, st.integers(0, 1), forms,
       small_rationals, st.integers(0, 1), forms)
def test_equal_values_hash_equal(p, a, ka, form_a, b, kb, form_b):
    # ka, kb add p**50: a change beyond the working digits
    a, b = a + ka * Fraction(p) ** 50, b + kb * Fraction(p) ** 50
    x, y = _value_of_form(a, p, form_a), _value_of_form(b, p, form_b)
    if x == y:
        assert hash(x) == hash(y)
    if form_a == form_b == "exact":
        assert (x == y) == (a == b)
