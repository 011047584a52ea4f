"""The packed lamp form against a dict model.

Every lamp element, vertex and end holds its configuration as the packed
ints (num, floor) of ``tree.pack``.  Here each operation of the group and
the tree is checked against a small reference model that holds a
configuration as a dict {position: value mod q} and does each operation
position by position: composition, inversion, both actions, meet
heights, disc keys, equality, hashing and rendering, for q in {2, 3, 5}
and with and without known windows.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from affinetree.errors import AffineTreeError
from affinetree.group import LampAffine, act_end, act_vertex, compose, invert
from affinetree.tree import LampEnd, LampVertex, lamp_form, pack

QS = st.sampled_from([2, 3, 5])


# -- the model -----------------------------------------------------------------


def lit(pairs, q, top=None):
    """{position: value mod q} of (position, value) pairs, without zero
    lamps or lamps above ``top`` (None: no top)."""
    return {p: v % q for p, v in pairs if v % q and (top is None or p <= top)}


def moved_sum(a, b, shift, q, top):
    """a plus b moved up by ``shift``, cut at ``top``."""
    out = dict(a)
    for p, v in b.items():
        out[p + shift] = out.get(p + shift, 0) + v
    return lit(out.items(), q, top)


def min_known(a, b):
    return min((k for k in (a, b) if k is not None), default=None)


def ref_compose(q, g1, g2):
    (a, s1, k1), (b, s2, k2) = g1, g2
    known = min_known(k1, None if k2 is None else k2 + s1)
    return moved_sum(a, b, s1, q, known), s1 + s2, known


def ref_inverse(q, g):
    a, s, k = g
    return lit(((p - s, -v) for p, v in a.items()), q), -s, \
        None if k is None else k - s


def ref_act_vertex(q, g, x):
    (a, s, k), (b, h) = g, x
    if k is not None and k < h + s:
        return "PrecisionExhausted"
    return moved_sum(a, b, s, q, h + s), h + s


def ref_act_end(q, g, e):
    (a, s, k), (b, top) = g, e
    known = min_known(k, top + s)
    return moved_sum(a, b, s, q, known), known


def ref_meet_height(x, y):
    """(lamps, top, is_vertex) points: below the lowest position, up to
    the common top, where they differ."""
    cap = min(x[1], y[1])
    differ = [p for p in x[0].keys() | y[0].keys()
              if p <= cap and x[0].get(p) != y[0].get(p)]
    if differ:
        return min(differ) - 1
    if not (x[2] or y[2]):
        return "IndistinguishableAtPrecision"
    return cap


def prefix(lamps, depth):
    return {p: v for p, v in lamps.items() if p <= depth}


def rendered(lamps, sep):
    return ",".join(f"{p}{sep}{v}" for p, v in sorted(lamps.items()))


# -- package objects of model values -------------------------------------------


def element(q, g):
    a, s, k = g
    return LampAffine(q, tuple(a.items()), s, k)


def packed(q, lamps):
    return pack(tuple(sorted(lamps.items())), lamp_form(q)[0])


def _outcome(f):
    try:
        return f()
    except AffineTreeError as exc:
        return type(exc).__name__


@st.composite
def raw_lamps(draw, q, lo=-5, hi=6):
    """(position, value) pairs, values of any residue (zeros included),
    positions distinct."""
    positions = draw(st.lists(st.integers(lo, hi), unique=True, max_size=5))
    return [(p, draw(st.integers(-q, 2 * q))) for p in positions]


@st.composite
def models(draw, q):
    """(element model, vertex model, end model) of random lamps, the
    element known on a window or not."""
    known = draw(st.none() | st.integers(-2, 8))
    g = lit(draw(raw_lamps(q)), q, known), draw(st.integers(-3, 3)), known
    h = draw(st.integers(-3, 5))
    top = draw(st.integers(-3, 8))
    return g, (lit(draw(raw_lamps(q)), q, h), h), \
        (lit(draw(raw_lamps(q)), q, top), top)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_operations_match_the_dict_model(data):
    q = data.draw(QS)
    g1, x, e = data.draw(models(q))
    g2, _, _ = data.draw(models(q))
    G1, G2 = element(q, g1), element(q, g2)
    X, E = LampVertex(q, x[1], tuple(x[0].items())), \
        LampEnd(q, e[1], tuple(e[0].items()))
    assert G1.lamps == tuple(sorted(g1[0].items()))
    want = ref_compose(q, g1, g2)
    got = compose(G1, G2)
    assert got == element(q, want) and hash(got) == hash(element(q, want))
    assert got.lamps == tuple(sorted(want[0].items()))
    assert (got.shift, got.known_to) == want[1:]
    want = ref_inverse(q, g1)
    assert invert(G1) == element(q, want)
    assert (invert(G1).shift, invert(G1).known_to) == want[1:]
    want = ref_act_vertex(q, g1, x)
    got = _outcome(lambda: act_vertex(G1, X))
    if isinstance(want, str):
        assert got == want
    else:
        assert got == LampVertex(q, want[1], tuple(want[0].items()))
        assert (got.lamps, got.height) == (tuple(sorted(want[0].items())),
                                           want[1])
    want = ref_act_end(q, g1, e)
    got = act_end(G1, E)
    assert got == LampEnd(q, want[1], tuple(want[0].items()))
    assert (got.values, got.known_to) == (tuple(sorted(want[0].items())),
                                          want[1])
    depth = data.draw(st.integers(-4, 8))
    assert G1.lamps_to(depth) == packed(q, prefix(g1[0], depth))
    assert (G1.lamps_to(depth) == G2.lamps_to(depth)) == \
        (prefix(g1[0], depth) == prefix(g2[0], depth))
    assert (G1 == G2) == (g1 == g2)
    assert G1 == element(q, g1) and hash(G1) == hash(element(q, g1))
    assert G1.render() == \
        f"lamp(shift = {g1[1]}, lamps = [{rendered(g1[0], ':')}])"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tree_operations_match_the_dict_model(data):
    q = data.draw(QS)
    _, x, e = data.draw(models(q))
    _, y, f = data.draw(models(q))
    if data.draw(st.booleans()):     # often near-equal configurations
        y = prefix(x[0], y[1]), y[1]
        f = prefix(e[0], f[1]), f[1]
    points = {"x": (x[0], x[1], True), "y": (y[0], y[1], True),
              "e": (e[0], e[1], False), "f": (f[0], f[1], False)}
    objects = {"x": LampVertex(q, x[1], tuple(x[0].items())),
               "y": LampVertex(q, y[1], tuple(y[0].items())),
               "e": LampEnd(q, e[1], tuple(e[0].items())),
               "f": LampEnd(q, f[1], tuple(f[0].items()))}
    for a in points:
        for b in points:
            assert _outcome(lambda: objects[a].meet_height(objects[b])) == \
                ref_meet_height(points[a], points[b])
            same = points[a] == points[b]
            assert (objects[a] == objects[b]) == same
            if same:
                assert hash(objects[a]) == hash(objects[b])
    depth = data.draw(st.integers(-4, 8))
    E, F = objects["e"], objects["f"]
    assert E.disc_key(depth) == packed(q, prefix(e[0], depth))
    assert (E.disc_key(depth) == F.disc_key(depth)) == \
        (prefix(e[0], depth) == prefix(f[0], depth))
    assert objects["x"].render() == f"lamp:{x[1]}:[{rendered(x[0], '=')}]"
    assert E.render() == f"lampend:{e[1]}:[{rendered(e[0], '=')}]"
