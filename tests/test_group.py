"""Affine tree isometries: composition, action, decomposition, fixed ends."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetree.errors import AffineTreeError, PrecisionExhausted
from affinetree.group import (
    FIXES_ALL,
    LampAffine,
    PadicAffine,
    act_end,
    act_vertex,
    compose,
    decompose,
    elements_agree,
    ends_agree,
    fixed_end,
    invert,
    is_identity,
    norm,
    phi,
    power,
    validate_non_exceptional,
)
from affinetree.padic import PAdic
from affinetree.tree import (
    OMEGA,
    PadicEnd,
    graph_distance,
    meet,
    origin_lamp,
    origin_padic,
)


def aff(t, a, p=2):
    return PadicAffine(PAdic.from_fraction(Fraction(t), p),
                       PAdic.from_fraction(Fraction(a), p))


small = st.fractions(min_value=-50, max_value=50, max_denominator=16)
scales = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2),
                          Fraction(3), Fraction(4), Fraction(3, 4)])


@st.composite
def padic_elements(draw):
    return aff(draw(small), draw(scales))


@st.composite
def lamp_elements(draw):
    lamps = tuple((pos, draw(st.integers(0, 1)))
                  for pos in draw(st.sets(st.integers(-5, 5), max_size=4)))
    return LampAffine(2, lamps, draw(st.integers(-3, 3)))


@settings(max_examples=150, deadline=None)
@given(padic_elements(), padic_elements(), padic_elements())
def test_padic_group_axioms(g, h, k):
    assert elements_agree(compose(compose(g, h), k), compose(g, compose(h, k)))
    assert is_identity(compose(g, invert(g)))
    assert elements_agree(compose(g.identity(), g), g)
    assert phi(compose(g, h)) == phi(g) + phi(h)


@settings(max_examples=150, deadline=None)
@given(lamp_elements(), lamp_elements(), lamp_elements())
def test_lamp_group_axioms(g, h, k):
    assert elements_agree(compose(compose(g, h), k), compose(g, compose(h, k)))
    assert is_identity(compose(g, invert(g)))
    assert elements_agree(compose(g, g.identity()), g)
    assert phi(compose(g, h)) == phi(g) + phi(h)


@settings(max_examples=100, deadline=None)
@given(padic_elements(), st.integers(-6, 6))
def test_power_matches_repeated_composition(g, n):
    direct = g.identity()
    step = g if n >= 0 else invert(g)
    for _ in range(abs(n)):
        direct = compose(direct, step)
    assert elements_agree(power(g, n), direct)


def test_phi_is_scale_valuation():
    assert phi(aff(0, 2)) == 1
    assert phi(aff(5, Fraction(1, 4))) == -2
    assert phi(LampAffine(2, (), 3)) == 3


def test_act_vertex_on_origin():
    o = origin_padic(2)
    assert act_vertex(aff(0, 2), o).height == 1
    assert act_vertex(aff(1, 1), o) == o          # 1 is in Z_2
    assert act_vertex(aff(Fraction(1, 2), 1), o).height == 0
    assert act_vertex(aff(Fraction(1, 2), 1), o) != o


def test_act_end_fixes_omega():
    assert act_end(aff(3, 2), OMEGA) is OMEGA


def test_action_is_homomorphism_on_vertices():
    g, h = aff(Fraction(1, 2), 2), aff(3, Fraction(1, 4))
    x = origin_padic(2).son(1).son(0)
    assert act_vertex(compose(g, h), x) == act_vertex(g, act_vertex(h, x))


def test_norm_is_displacement_of_origin():
    o = origin_padic(2)
    for g in (aff(0, 2), aff(1, 1), aff(Fraction(3, 4), Fraction(1, 2))):
        assert norm(g) == graph_distance(act_vertex(g, o), o)
    assert norm(aff(0, 1).identity()) == 0


def test_decompose_round_trip():
    s = aff(0, 1).reference_homothety()
    for g in (aff(0, 4), aff(Fraction(5, 8), Fraction(1, 2)), aff(7, 1)):
        b, n = decompose(g, s)
        assert phi(b) == 0 and n == phi(g)
        assert elements_agree(compose(b, power(s.element, n)), g)


def test_decompose_lamp():
    g = LampAffine(2, ((0, 1), (2, 1)), -2)
    s = g.reference_homothety()
    b, n = decompose(g, s)
    assert phi(b) == 0 and n == -2
    assert elements_agree(compose(b, power(s.element, n)), g)


def test_fixed_end_homothety():
    # t = 0: fixes the end 0 for any scaling
    e = fixed_end(aff(0, 2))
    assert isinstance(e, PadicEnd) and e.value.is_zero
    # identity fixes everything
    assert fixed_end(aff(0, 1)) is FIXES_ALL
    # pure translation fixes no bottom end
    assert fixed_end(aff(1, 1)) is None
    # solve 2y + 1 = y
    e = fixed_end(aff(1, 2))
    assert e.value.exact == -1


def test_fixed_end_is_fixed():
    g = aff(3, Fraction(1, 4))
    e = fixed_end(g)
    assert ends_agree(act_end(g, e), e)


def test_fixed_end_lamp():
    s = LampAffine(2, (), 1)
    e = fixed_end(s)
    assert e is not None and e is not FIXES_ALL
    assert ends_agree(act_end(s, e), e)
    assert fixed_end(LampAffine(2, (), 0)) is FIXES_ALL


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.dictionaries(
    st.integers(-5, 5), st.integers(1, 4), max_size=4),
    st.integers(-3, 3).filter(bool))
def test_lamp_fixed_end_is_fixed(q, lamps, shift):
    """Either sign of shift: the end has support bounded below and g
    fixes it on the window where g·xi is known."""
    g = LampAffine(q, tuple(lamps.items()), shift)
    e = fixed_end(g)
    assert ends_agree(act_end(g, e), e)
    assert e.known_to >= max(lamps, default=0)


def test_lamp_powers_share_a_fixed_end():
    """g and g**2, g of negative shift, fix one end: not a valid law."""
    g = LampAffine(2, ((0, 1),), -1)
    assert ends_agree(fixed_end(g), fixed_end(power(g, 2)))
    rep = validate_non_exceptional([g, power(g, 2)])
    assert not rep.passed and rep.common_fixed_end


def test_validate_non_exceptional():
    ok = validate_non_exceptional([aff(0, 2), aff(1, Fraction(1, 2))])
    assert ok.passed and ok.phi_gcd == 1
    # everything fixes the end 0
    rep = validate_non_exceptional([aff(0, 2), aff(0, Fraction(1, 2))])
    assert not rep.passed and rep.common_fixed_end
    # horocyclic only
    rep = validate_non_exceptional([aff(1, 1)])
    assert not rep.passed and rep.in_horocyclic
    # gcd 2 fails unless overridden
    rep = validate_non_exceptional([aff(0, 4), aff(1, Fraction(1, 4))])
    assert not rep.passed
    rep = validate_non_exceptional([aff(0, 4), aff(1, Fraction(1, 4))],
                                   allow_non_surjective=True)
    assert rep.passed and rep.phi_gcd == 2


@settings(max_examples=100, deadline=None)
@given(padic_elements())
def test_norm_symmetry(g):
    assert norm(g) == norm(invert(g))


@st.composite
def limited_padic_elements(draw):
    """Exact elements, and elements whose t (or a) is known only below
    some exponent: digits, or zero only to a bound."""
    p = draw(st.sampled_from([2, 3]))
    a = PAdic.from_fraction(Fraction(p) ** draw(st.integers(-3, 5))
                            * draw(st.sampled_from([1, -1, Fraction(1, 5)])),
                            p)
    t = PAdic.from_fraction(draw(small), p)
    if draw(st.booleans()):
        t = t.with_known_exponent(draw(st.integers(-4, 7)))
    if draw(st.booleans()):
        a = a.with_known_exponent(a.valuation + draw(st.integers(1, 6)))
    return PadicAffine(t, a)


@st.composite
def limited_lamp_elements(draw):
    """Lamp elements, known everywhere or only up to a position."""
    lamps = tuple((pos, draw(st.integers(1, 2)))
                  for pos in draw(st.sets(st.integers(-5, 5), max_size=4)))
    known = draw(st.one_of(st.none(), st.integers(-6, 6)))
    return LampAffine(3, lamps, draw(st.integers(-4, 4)), known)


def _outcome(f):
    """f(), or the type and message of the package error it raises."""
    try:
        return f()
    except AffineTreeError as exc:
        return type(exc), str(exc)


def _distance_through_meet(g):
    o = g.origin()
    x = act_vertex(g, o)
    return x.height + o.height - 2 * meet(x, o).height


@settings(max_examples=400, deadline=None)
@given(st.one_of(limited_padic_elements(), limited_lamp_elements()))
def test_norm_matches_distance_of_the_image(g):
    o = g.origin()
    want = _outcome(lambda: graph_distance(act_vertex(g, o), o))
    assert _outcome(lambda: norm(g)) == want
    assert _outcome(lambda: _distance_through_meet(g)) == want


@pytest.mark.parametrize("g", [
    PadicAffine(PAdic.from_int(1, 2).with_known_exponent(1),
                PAdic.from_int(8, 2)),
    PadicAffine(PAdic.zero(2, 1), PAdic.from_int(8, 2)),
    LampAffine(2, ((0, 1),), 3, known_to=1),
], ids=["t-digits-below-phi", "t-zero-to-a-bound", "lamps-known-below-shift"])
def test_norm_raises_where_the_image_is_not_known(g):
    for f in (lambda: norm(g), lambda: act_vertex(g, g.origin())):
        with pytest.raises(PrecisionExhausted):
            f()


def test_lamp_norm():
    # g o sits at height 2 with a lamp at -1: it meets o at height -2
    g = LampAffine(2, ((-1, 1), (2, 1)), 2)
    assert norm(g) == 2 + 0 - 2 * -2 == _distance_through_meet(g)
    assert norm(LampAffine(2, (), -3)) == 3
