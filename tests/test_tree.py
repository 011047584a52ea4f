"""Vertices, ends, meets and the boundary ultrametric."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetree.errors import (
    AffineTreeError,
    IndistinguishableAtPrecision,
    MalformedSyntax,
)
from affinetree.group import LampAffine, PadicAffine, act_vertex, phi
from affinetree.padic import PAdic, int_valuation
from affinetree.tree import (
    OMEGA,
    LampEnd,
    LampVertex,
    PadicEnd,
    PadicVertex,
    end_in_disc,
    graph_distance,
    meet,
    origin_lamp,
    origin_padic,
    parse_vertex,
    theta,
)


def pend(num, den=1, p=2):
    return PadicEnd(PAdic.from_rational(num, den, p))


def test_vertex_canonicalizes_center():
    # D(11/4, 2) keeps only digits below exponent 1
    assert PadicVertex(2, 1, Fraction(11, 4)) == PadicVertex(2, 1, Fraction(3, 4))
    assert PadicVertex(2, 0, 5) == PadicVertex(2, 0, 1)


def test_father_son_round_trip():
    o = origin_padic(2)
    for b in range(2):
        assert o.son(b).father() == o
    assert o.son(1).height == 1
    ol = origin_lamp(3)
    for b in range(3):
        assert ol.son(b).father() == ol


def test_sons_are_distinct():
    o = origin_padic(3)
    sons = {o.son(b) for b in range(3)}
    assert len(sons) == 3
    with pytest.raises(Exception):
        o.son(3)


def test_busemann_is_height():
    """The Busemann function of the top end is the height attribute."""
    assert origin_padic(2).height == 0
    assert PadicVertex(2, -3, 0).height == -3


def test_meet_vertices():
    o = origin_padic(2)
    x = o.son(0).son(0)
    y = o.son(1)
    assert meet(x, y) == o
    assert meet(x, x) == x
    # meet of nested vertices is the shallower one
    assert meet(x, o.son(0)) == o.son(0)


def test_meet_with_omega_is_undefined():
    from affinetree.errors import OmegaOperand
    with pytest.raises(OmegaOperand):
        meet(origin_padic(2), OMEGA)


def test_graph_distance():
    o = origin_padic(2)
    assert graph_distance(o, o) == 0
    assert graph_distance(o, o.son(0)) == 1
    assert graph_distance(o.son(0), o.son(1)) == 2
    x = o.son(0).son(1)
    assert graph_distance(x, o.son(1)) == 3


def test_theta_is_padic_norm_of_difference():
    a, b = pend(0), pend(1)
    assert theta(a, b) == 1            # |0-1| = 1
    assert theta(a, pend(4)) == Fraction(1, 4)
    assert theta(a, pend(1, 3)) == 1   # 1/3 is a unit
    assert theta(a, pend(1, 2)) == 2
    assert theta(a, a) == 0


def test_theta_vertex_end_mix():
    # theta between an end and a vertex through their meet height
    o = origin_padic(2)
    assert theta(pend(0), o) == 1
    assert theta(pend(4), PadicVertex(2, 2, 4)) == Fraction(1, 4)


def test_end_agreement_beyond_window_raises():
    # distinct windows, same values: cannot be separated at this precision
    a = LampEnd(2, 3, ((0, 1),))
    b = LampEnd(2, 5, ((0, 1),))
    with pytest.raises(IndistinguishableAtPrecision) as exc:
        theta(a, b)
    assert exc.value.upper_bound <= Fraction(2) ** -3


@pytest.mark.parametrize("lamps", [((1, 1),), ((1, 1), (8, 1))],
                         ids=["no-lamp-above", "lamp-above"])
def test_lamp_ends_agreeing_on_the_common_window_raise(lamps):
    # a lamp of the longer end above the shorter end's window tells the
    # ends apart no more than its absence does, as in the p-adic meet
    a, b = LampEnd(2, 5, ((1, 1),)), LampEnd(2, 10, lamps)
    for f in (meet, theta):
        with pytest.raises(IndistinguishableAtPrecision) as exc:
            f(a, b)
        assert exc.value.upper_bound == Fraction(1, 32)


def test_lamp_meet():
    a = LampEnd(2, 10, ((0, 1),))
    b = LampEnd(2, 10, ((0, 1), (2, 1)))
    # first disagreement at position 2: meet at height 1, theta = 2^-1
    assert theta(a, b) == Fraction(1, 2)


def test_lamp_end_window_query():
    e = LampEnd(2, 5, ((1, 1),))
    assert e.lamp(1) == 1 and e.lamp(0) == 0
    with pytest.raises(IndistinguishableAtPrecision):
        e.lamp(6)


@pytest.mark.parametrize("make", [
    lambda lamps: LampEnd(3, 5, lamps), lambda lamps: LampVertex(3, 5, lamps),
    lambda lamps: LampAffine(3, lamps, 0)])
def test_lamp_positions_given_twice_raise(make):
    with pytest.raises(ValueError, match="duplicate lamp positions"):
        make(((1, 1), (1, 2)))
    # a zero lamp is dropped before the check
    assert make(((1, 3), (1, 2))).lamps == ((1, 2),)


def test_lamp_discs_at_one_height_do_not_overlap():
    e = LampEnd(2, 10, ((-5, 1), (1, 1)))
    # both of these held when only the positions from the vertex's lowest
    # lamp up were read
    assert not end_in_disc(e, LampVertex(2, 1, ()))
    assert not end_in_disc(e, LampVertex(2, 1, ((1, 1),)))
    assert not end_in_disc(e, LampVertex(2, 1, ((-5, 1),)))
    assert end_in_disc(e, LampVertex(2, 1, ((-5, 1), (1, 1))))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.integers(-3, 6),
       st.dictionaries(st.integers(-4, 8), st.integers(1, 3), max_size=5),
       st.integers(-5, 8),
       st.dictionaries(st.integers(-6, 8), st.integers(1, 3), max_size=4))
def test_end_in_disc_reads_the_lamps_up_to_the_height(q, known, values, h,
                                                      lamps):
    e = LampEnd(q, known, tuple(values.items()))
    v = LampVertex(q, h, tuple(lamps.items()))
    if h > known:
        with pytest.raises(IndistinguishableAtPrecision):
            end_in_disc(e, v)
    else:
        below = tuple((pos, x) for pos, x in e.values if pos <= h)
        assert end_in_disc(e, v) == (below == v.lamps)
        assert end_in_disc(e, LampVertex(q, h, e.values))


def test_parse_vertex_round_trip():
    for text in ("p:0:0", "p:2:1.1@-1", "p:-3:0", "lamp:1:[0=1]", "lamp:0:[]"):
        v = parse_vertex(text, prime=2, q=2)
        assert parse_vertex(v.render(), prime=2, q=2) == v
    with pytest.raises(MalformedSyntax):
        parse_vertex("p:zero:0", prime=2)


@settings(max_examples=150, deadline=None)
@given(st.fractions(min_value=-100, max_value=100, max_denominator=64),
       st.fractions(min_value=-100, max_value=100, max_denominator=64),
       st.fractions(min_value=-100, max_value=100, max_denominator=64))
def test_theta_ultrametric_inequality(a, b, c):
    ea, eb, ec = pend(a.numerator, a.denominator), \
        pend(b.numerator, b.denominator), pend(c.numerator, c.denominator)
    assert theta(ea, ec) <= max(theta(ea, eb), theta(eb, ec))


@settings(max_examples=150, deadline=None)
@given(st.integers(-8, 8), st.integers(0, 2 ** 12))
def test_meet_height_bounds_both_heights(h, k):
    x = PadicVertex(2, h, Fraction(k, 2 ** 4))
    y = origin_padic(2)
    m = meet(x, y)
    assert m.height <= min(x.height, y.height)
    assert m == meet(y, x)


def test_theta_tells_apart_ends_beyond_the_working_digits():
    # the two values share their 48 working digits but not their rationals
    a, b = pend(1), pend(1 + 2 ** 50)
    assert theta(a, b) == (a.value - b.value).norm() == Fraction(1, 2 ** 50)
    assert meet(a, b).height == a.meet_height(b) == 50


def _padic_point(draw, p, vertex):
    if vertex:
        return PadicVertex(p, draw(st.integers(-3, 4)),
                           Fraction(draw(st.integers(0, p ** 5)), p ** 2))
    # few values, so that ends often agree or coincide
    value = PAdic.from_fraction(Fraction(draw(st.integers(-6, 6)), p ** 2)
                                + draw(st.integers(0, 1)) * p ** 50, p)
    if draw(st.booleans()):
        value = value.with_known_exponent(draw(st.integers(-3, 6)))
    return PadicEnd(value)


def _lamp_point(draw, q, vertex):
    lamps = tuple((pos, draw(st.integers(1, q - 1)))
                  for pos in draw(st.sets(st.integers(-3, 4), max_size=3)))
    top = draw(st.integers(-3, 5))
    return LampVertex(q, top, lamps) if vertex else LampEnd(q, top, lamps)


@st.composite
def point_pairs(draw, vertices):
    """Two points of one realization; ``vertices`` says which are
    vertices."""
    if draw(st.booleans()):
        p = draw(st.sampled_from([2, 3]))
        return tuple(_padic_point(draw, p, v) for v in vertices)
    q = draw(st.sampled_from([2, 3]))
    return tuple(_lamp_point(draw, q, v) for v in vertices)


def _outcome(f):
    """f(), or the type and upper bound of the package error it raises."""
    try:
        return f()
    except AffineTreeError as exc:
        return type(exc), getattr(exc, "upper_bound", None)


@pytest.mark.parametrize("vertices", [(True, True), (True, False),
                                      (False, False)],
                         ids=["vertex/vertex", "vertex/end", "end/end"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_meet_height_matches_meet(vertices, data):
    x, y = data.draw(point_pairs(vertices))
    if x == y:
        assert theta(x, y) == 0
    h = _outcome(lambda: x.meet_height(y))
    m = _outcome(lambda: meet(x, y))
    if h is None:
        # ends that coincide exactly: meet raises, theta is zero
        assert m == (IndistinguishableAtPrecision, 0)
        assert theta(x, y) == 0
    elif isinstance(h, tuple):
        assert m == h
    else:
        assert m.height == h
        if x != y:
            assert theta(x, y) == Fraction(x.degree) ** -h
        if x.is_vertex and y.is_vertex:
            assert graph_distance(x, y) == x.height + y.height - 2 * h
            # the highest common ancestor, found by climbing
            assert h == next(k for k in range(min(x.height, y.height), -20, -1)
                             if _ancestor(x, k) == _ancestor(y, k))
        elif x.is_vertex:
            assert end_in_disc(y, _ancestor(x, h))


def _ancestor(v, height):
    while v.height > height:
        v = v.father()
    return v


def test_end_known_to_a_vertex_height_meets_it_there():
    v = PadicVertex(2, 3, Fraction(5))
    e = PadicEnd(PAdic.from_int(5, 2).with_known_exponent(3))
    assert v.meet_height(e) == 3 and meet(v, e) == v
    assert theta(e, v) == Fraction(1, 8)
    with pytest.raises(IndistinguishableAtPrecision):
        v.son(1).meet_height(e)


# -- integer centers against the Fraction path they replace ----------------

def _ref_center(c, p, h):
    """The digits of the rational c below exponent h, through exact
    ``PAdic`` arithmetic and its Fraction ``residue``."""
    return PAdic.from_fraction(c, p).residue(h)


def _rational(draw, p):
    """A rational with a p-power and a prime-to-p part in its
    denominator, both possibly trivial."""
    return Fraction(draw(st.integers(-10 ** 6, 10 ** 6)),
                    p ** draw(st.integers(0, 6))
                    * draw(st.sampled_from([1, 5, 7])))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_centers_match_the_fraction_path(data):
    draw = data.draw
    p = draw(st.sampled_from([2, 3]))
    hx, hy = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    cx = _rational(draw, p)
    num, floor = draw(st.integers(-10 ** 6, 10 ** 6)), draw(st.integers(-6, 3))
    cy = Fraction(num) * Fraction(p) ** floor
    x, y = PadicVertex(p, hx, cx), PadicVertex(p, hy, num, floor)
    rx, ry = _ref_center(cx, p, hx), _ref_center(cy, p, hy)
    assert (x.height, x.center) == (hx, rx) and (y.height, y.center) == (hy, ry)
    # equality and hash against vertices built from the Fraction centers
    for v, c in ((x, rx), (y, cy), (y, ry)):
        w = PadicVertex(p, v.height, c)
        assert v == w and hash(v) == hash(w)
    # the meet's height and center
    m = min(hx, hy) if rx == ry else min(
        hx, hy, int_valuation((rx - ry).numerator, p)
        - int_valuation((rx - ry).denominator, p))
    assert x.meet_height(y) == m
    assert meet(x, y) == PadicVertex(p, m, _ref_center(rx, p, m))
    # the image under an element of rational t and a
    a = Fraction(p) ** draw(st.integers(-3, 3)) * draw(
        st.sampled_from([1, -1, Fraction(5, 7), Fraction(-7, 5)]))
    t = _rational(draw, p)
    g = PadicAffine(PAdic.from_fraction(t, p), PAdic.from_fraction(a, p))
    image = act_vertex(g, x)
    assert image.height == hx + phi(g)
    assert image.center == _ref_center(a * rx + t, p, hx + phi(g))
    # an end inside the disc of x, or one just outside it
    e = rx + draw(st.integers(-50, 50)) * Fraction(p) ** (
        hx + draw(st.integers(-1, 1)))
    assert end_in_disc(PadicEnd(PAdic.from_fraction(e, p)), x) == \
        (_ref_center(e, p, hx) == rx)
    # sons and father, and the text form
    b = draw(st.integers(0, p - 1))
    assert x.son(b).center == _ref_center(rx + b * Fraction(p) ** hx, p,
                                          hx + 1)
    assert x.father().center == _ref_center(rx, p, hx - 1)
    for v in (x, y, x.son(b), x.father(), image):
        assert parse_vertex(v.render(), prime=p) == v
        # the (num, floor) the engine reads, from the Fraction center
        c = v.center
        assert (v.num, v.floor) == (c.numerator,
                                    -int_valuation(c.denominator, p))


@pytest.mark.parametrize("center", [0, 5, Fraction(3, 4)])
def test_vertex_rejects_a_composite_prime(center):
    with pytest.raises(ValueError, match="not prime"):
        PadicVertex(4, 1, center)
