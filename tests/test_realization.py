"""The realization rule: operands of two realizations never mix.

Two operands are of one realization when they are of one class family
(p-adic or lamplighter) and one degree (the prime p or the lamp count
q).  Every operation on a pair that is not raises ``RealizationMismatch``.
"""

from fractions import Fraction

import pytest

from affinetree.errors import RealizationMismatch
from affinetree.group import (
    LampAffine,
    PadicAffine,
    act_end,
    act_vertex,
    compose,
    elements_agree,
    ends_agree,
    validate_non_exceptional,
)
from affinetree.padic import PAdic
from affinetree.tree import (
    LampEnd,
    PadicEnd,
    end_in_disc,
    meet,
    origin_lamp,
    origin_padic,
    theta,
)


def _padic(p):
    """(element, vertex, end) over Q_p."""
    return (PadicAffine(PAdic.from_int(1, p), PAdic.from_int(p, p)),
            origin_padic(p).son(1),
            PadicEnd(PAdic.from_fraction(Fraction(1, 3), p)))


def _lamp(q):
    """(element, vertex, end) of the lamplighter tree with q lamp states."""
    return (LampAffine(q, ((0, 1),), 1), origin_lamp(q).son(1),
            LampEnd(q, 8, ((0, 1), (3, 1))))


PAIRS = {"p2-p3": (_padic(2), _padic(3)), "p2-q2": (_padic(2), _lamp(2)),
         "q2-q3": (_lamp(2), _lamp(3)), "q2-p2": (_lamp(2), _padic(2))}

OPERATIONS = {
    "compose": lambda a, b: compose(a[0], b[0]),
    "elements_agree": lambda a, b: elements_agree(a[0], b[0]),
    "act_vertex": lambda a, b: act_vertex(a[0], b[1]),
    "act_end": lambda a, b: act_end(a[0], b[2]),
    "meet vertex/vertex": lambda a, b: meet(a[1], b[1]),
    "meet vertex/end": lambda a, b: meet(a[1], b[2]),
    "meet end/end": lambda a, b: meet(a[2], b[2]),
    "theta": lambda a, b: theta(a[2], b[2]),
    "end_in_disc": lambda a, b: end_in_disc(a[2], b[1]),
    "ends_agree": lambda a, b: ends_agree(a[2], b[2]),
    "validate_non_exceptional":
        lambda a, b: validate_non_exceptional([a[0], b[0]]),
}


@pytest.mark.parametrize("op", OPERATIONS)
@pytest.mark.parametrize("pair", PAIRS)
def test_mismatched_realizations_raise(pair, op):
    a, b = PAIRS[pair]
    with pytest.raises(RealizationMismatch):
        OPERATIONS[op](a, b)
