"""The oriented homogeneous tree: vertices, ends, meets, heights, ultrametric.

Each realization is one family of classes that owns its arithmetic:

* p-adic (``PadicVertex``, ``PadicEnd``): a vertex at height h is the
  disc of radius p**(-h) around a canonical center (the digit expansion
  truncated below exponent h); bottom ends are p-adic numbers known to
  finite precision.
* lamplighter (``LampVertex``, ``LampEnd``): a vertex at height h is a
  lamp configuration known on positions <= h; bottom ends are
  configurations with support bounded below, known on a finite window.
  Each holds its lamps as the packed ints (num, floor) of ``pack``, the
  form the group's ``LampAffine`` and the engine's ``LampGrid`` share.

Every class of a family (with the elements of ``group`` and the engine
forms of ``grid``) has the family's ``kind`` and a ``degree``, the
branching number.  The module functions hold their operands to one
realization (``same_realization``) and hand them to the family's method.

Heights grow away from the distinguished top end: the father of a vertex
sits one level above it (height - 1), each vertex has q sons below.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

from .errors import (
    BranchOutOfRange,
    IndistinguishableAtPrecision,
    MalformedSyntax,
    OmegaOperand,
    RealizationMismatch,
)
from .padic import PAdic, int_valuation, is_prime, residue


class _Omega:
    """The distinguished fixed end; a singleton."""

    _instance = None
    is_vertex = False

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"


OMEGA = _Omega()


def same_realization(x, y):
    """The realization rule: raise ``RealizationMismatch`` unless x and y
    are of one class family (``kind``) and one ``degree``."""
    if x.kind != y.kind or x.degree != y.degree:
        raise RealizationMismatch(f"{x!r} vs {y!r}")


class _PadicPoint:
    """What p-adic vertices and ends share: each is a p-adic value known
    up to a cap (``value_and_cap``)."""

    kind = "padic"
    degree = property(attrgetter("prime"))

    def meet_height(self, other):
        """Height of the meet, or None for ends that coincide exactly;
        raises ``IndistinguishableAtPrecision`` for operands that agree
        on all their known digits but are not known to coincide."""
        ux, capx = self.value_and_cap()
        uy, capy = other.value_and_cap()
        caps = [c for c in (capx, capy) if c is not None]
        diff = ux - uy
        if not diff.is_zero:
            return min([diff.valuation, *caps])
        # zero, or zero only below p**bound: the caps decide, if any
        bound = diff.zero_bound
        if bound is None or caps and bound >= min(caps):
            return min(caps, default=None)
        raise IndistinguishableAtPrecision(
            "operands agree beyond the known window" if caps
            else "ends agree on the whole known window",
            upper_bound=Fraction(self.prime) ** -min(caps, default=bound))

    def meet(self, other):
        h = self.meet_height(other)
        if h is None:
            raise IndistinguishableAtPrecision(
                "ends agree on the whole known window",
                upper_bound=Fraction(0))
        return PadicVertex(self.prime, h,
                           *self.value_and_cap()[0].residue_pair(h))


def sorted_lamps(lamps, q, top) -> tuple:
    """``lamps`` ((pos, val), ...) with values modulo q, sorted by
    position, without zero lamps or lamps above ``top`` (None: no top);
    raises ``ValueError`` for a position given twice."""
    out = tuple(sorted((p, r) for p, v in lamps
                       if (r := v % q) and (top is None or p <= top)))
    if len(dict(out)) != len(out):
        raise ValueError("duplicate lamp positions")
    return out


# -- the packed lamp form ------------------------------------------------------
#
# A lamp configuration is a digit string without carries: the ints (num,
# floor) hold the lamp at position floor + i in the ``width``-bit field i
# of num.  Every lamp class (and the engine form ``grid.LampGrid``) keeps
# it canonical, as ``cut`` gives it: field 0 nonzero, or (0, 0) without
# lamps; so equal configurations have equal ints.


def pack(lamps, width):
    """(num, floor) of sorted nonzero lamps ((position, value), ...)."""
    floor = lamps[0][0] if lamps else 0
    return sum(v << width * (p - floor) for p, v in lamps), floor


def unpack(num, floor, width) -> tuple:
    """The sorted nonzero lamps ((position, value), ...) of ``pack``."""
    mask = (1 << width) - 1
    return tuple((floor + i, v) for i in range(-(-num.bit_length() // width))
                 if (v := num >> width * i & mask))


def cut(num, floor, top, width):
    """The canonical (num, floor) of the lamps at positions <= top (None:
    every lamp)."""
    if top is not None:
        if top < floor:
            return 0, 0
        num &= (1 << width * (top - floor + 1)) - 1
    if num & ((1 << width) - 1):
        return num, floor
    if not num:
        return 0, 0
    z = ((num & -num).bit_length() - 1) // width      # empty low fields
    return num >> width * z, floor + z


def _xor_sum(num, floor, n, e):
    """The sum of (num, floor) and (n, e) for q = 2, one bit per lamp,
    added by XOR; not cut."""
    if not n:
        return num, floor
    if not num:
        return n, e
    if e < floor:
        return (num << (floor - e)) ^ n, e
    return num ^ (n << (e - floor)), floor


def _field_sum(q, width):
    """(add, neg): ``_xor_sum`` and the field-wise negation for q > 2,
    2**(width-1) >= q.  Digits below q add within a field, and adding
    2**(width-1) - q sets a field's top bit exactly where it holds q or
    more; there q is taken off."""
    half = 1 << (width - 1)

    def ones(t):
        """A 1 in each field of t, and in the one above."""
        return ((1 << width * (t.bit_length() // width + 1)) - 1) \
            // ((1 << width) - 1)

    def fields(t):
        """Field-wise t mod q, for fields below 2q."""
        one = ones(t)
        return t - (((t + (half - q) * one) & half * one) >> (width - 1)) * q

    def add(num, floor, n, e):
        if not n:
            return num, floor
        if not num:
            return n, e
        if e < floor:
            num, floor = num << width * (floor - e), e
        else:
            n <<= width * (e - floor)
        return fields(num + n), floor

    def neg(num):
        return fields(q * ones(num) - num)    # q - v per field, then q -> 0
    return add, neg


@functools.cache
def lamp_form(q):
    """(width, add, neg) of the packed form over Z/q: ``add(num, floor, n,
    e)`` sums two configurations, not cut, and ``neg(num)`` negates one
    field by field."""
    if q == 2:
        return 1, _xor_sum, int      # each lamp is its own negative
    width = (q - 1).bit_length() + 1
    return (width, *_field_sum(q, width))


class LampDigits:
    """What the lamp classes share: a configuration over Z/q held in the
    packed form as the ints ``num`` and ``floor``."""

    kind = "lamplighter"
    degree = property(attrgetter("q"))

    def _fill(self, q, lamps, top, **fields):
        """Set ``lamps``, checked by ``sorted_lamps`` and packed, and
        ``fields``: the public constructors.  The results of arithmetic
        are built unchecked from canonical ints, by each class's ``_of``."""
        num, floor = pack(sorted_lamps(lamps, q, top), lamp_form(q)[0])
        self.__dict__.update(q=q, num=num, floor=floor, **fields)

    @property
    def lamps(self) -> tuple:
        """The sorted nonzero lamps ((position, value), ...)."""
        return unpack(self.num, self.floor, lamp_form(self.q)[0])

    def lamps_to(self, top):
        """The canonical (num, floor) of the lamps at positions <= top."""
        return cut(self.num, self.floor, top, lamp_form(self.q)[0])

    def _render_lamps(self, sep) -> str:
        return ",".join(f"{p}{sep}{v}" for p, v in self.lamps)


class _LampPoint(LampDigits):
    """What lamp vertices and ends share: lamps known on the positions up
    to ``known_to``."""

    @classmethod
    def from_row(cls, q, top, low, row):
        """The point known up to ``top`` whose lamp at position low + i is
        ``row[i]`` (an int, taken modulo q): ``cls(q, top, zip(range(low,
        low + len(row)), row))`` without the sort and its checks, since a
        row names each position once and in order."""
        width = lamp_form(q)[0]
        num = 0
        for v in reversed(row):
            num = num << width | v % q
        return cls._of(q, *cut(num, low, top, width), top)

    def meet_height(self, other):
        """Height of the meet: below the lowest position where the two
        configurations differ, capped by the common window."""
        cap = min(self.known_to, other.known_to)
        lo = min(self.floor, other.floor)
        width = lamp_form(self.q)[0]
        diff, low = cut((self.num << width * (self.floor - lo))
                        ^ (other.num << width * (other.floor - lo)),
                        lo, cap, width)
        if diff:
            return low - 1
        if not (self.is_vertex or other.is_vertex):
            raise IndistinguishableAtPrecision(
                "lamp ends agree on the whole known window",
                upper_bound=Fraction(self.q) ** -cap)
        return cap

    def meet(self, other):
        h = self.meet_height(other)
        return LampVertex._of(self.q, *self.lamps_to(h), h)


@dataclass(frozen=True, init=False)
class PadicVertex(_PadicPoint):
    """Disc D(center, p**(-height)) around the canonical center, the
    digits below exponent height, of a Fraction or int center·p**floor.
    It is stored as the ints (num, floor) in ``residue``'s form, and
    ``center`` is its Fraction view."""

    prime: int
    height: int
    num: int
    floor: int

    is_vertex = True

    def __init__(self, prime: int, height: int, center, floor: int = 0):
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        num, floor = residue(center, floor, height, prime) \
            if isinstance(center, int) else PAdic.from_fraction(
                center * Fraction(prime) ** floor, prime).residue_pair(height)
        self.__dict__.update(prime=prime, height=height, num=num, floor=floor)

    @property
    def center(self) -> Fraction:
        return Fraction(self.num, self.prime ** -self.floor)

    def value_and_cap(self):
        return PAdic.from_digits(self.num, self.floor, self.prime), self.height

    def father(self) -> "PadicVertex":
        return PadicVertex(self.prime, self.height - 1, self.num, self.floor)

    def son(self, branch: int) -> "PadicVertex":
        p, h, floor = self.prime, self.height, min(self.floor, self.height)
        if not 0 <= branch < p:
            raise BranchOutOfRange(f"branch {branch} not in [0, {p})")
        return PadicVertex(p, h + 1, self.num * p ** (self.floor - floor)
                           + branch * p ** (h - floor), floor)

    def render(self) -> str:
        center = _render_center(self.num, self.floor, self.prime)
        return f"p:{self.height}:{center}"

    __repr__ = render


@dataclass(frozen=True, init=False)
class LampVertex(_LampPoint):
    """Lamp configuration known on positions <= height, built from
    ``lamps`` ((pos, val), ...) and kept packed."""

    q: int
    height: int
    num: int
    floor: int

    is_vertex = True
    known_to = property(attrgetter("height"))

    def __init__(self, q: int, height: int, lamps):
        self._fill(q, lamps, height, height=height)

    @classmethod
    def _of(cls, q, num, floor, height):
        self = object.__new__(cls)
        self.__dict__.update(q=q, height=height, num=num, floor=floor)
        return self

    def father(self) -> "LampVertex":
        h = self.height - 1
        return LampVertex._of(self.q, *self.lamps_to(h), h)

    def son(self, branch: int) -> "LampVertex":
        q, h = self.q, self.height + 1
        if not 0 <= branch < q:
            raise BranchOutOfRange(f"branch {branch} not in [0, {q})")
        # a lamp above the others keeps (num, floor) canonical
        return LampVertex._of(q, *lamp_form(q)[1](self.num, self.floor,
                                                  branch, h), h)

    def render(self) -> str:
        return f"lamp:{self.height}:[{self._render_lamps('=')}]"

    __repr__ = render


@dataclass(frozen=True)
class PadicEnd(_PadicPoint):
    """A bottom end of the p-adic tree: a p-adic number to finite precision."""

    value: PAdic

    is_vertex = False
    prime = property(attrgetter("value.prime"))

    def value_and_cap(self):
        return self.value, None

    def in_disc(self, vertex) -> bool:
        return self.value.residue_pair(vertex.height) == \
            (vertex.num, vertex.floor)

    def disc_key(self, depth: int):
        """Hashable id of the depth-``depth`` disc containing the end."""
        return self.value.residue(depth)

    def agrees(self, other) -> bool:
        return (self.value - other.value).is_zero

    def render(self) -> str:
        return f"end:{self.value.render()}"

    __repr__ = render


@dataclass(frozen=True, init=False)
class LampEnd(_LampPoint):
    """A bottom end of the lamplighter tree, built from ``values`` ((pos,
    val), ...) and kept packed.

    The lamps at positions <= ``known_to`` are known; all positions
    below the lowest lamp are zero (support is bounded below), positions
    above ``known_to`` are unknown.
    """

    q: int
    known_to: int
    num: int
    floor: int

    is_vertex = False
    values = property(attrgetter("lamps"))

    def __init__(self, q: int, known_to: int, values):
        self._fill(q, values, known_to, known_to=known_to)

    @classmethod
    def _of(cls, q, num, floor, known_to):
        self = object.__new__(cls)
        self.__dict__.update(q=q, known_to=known_to, num=num, floor=floor)
        return self

    def lamp(self, pos: int) -> int:
        if pos > self.known_to:
            raise IndistinguishableAtPrecision(
                f"lamp at {pos} beyond known window (<= {self.known_to})")
        num, width = self.num, lamp_form(self.q)[0]
        return num >> width * (pos - self.floor) & (1 << width) - 1 \
            if pos >= self.floor else 0

    def in_disc(self, vertex) -> bool:
        # the discs at one height partition the ends: an end lies in the
        # disc whose lamps at positions <= height are its own
        if vertex.height > self.known_to:
            raise IndistinguishableAtPrecision(
                f"disc at height {vertex.height} beyond known window "
                f"(<= {self.known_to})")
        return self.lamps_to(vertex.height) == (vertex.num, vertex.floor)

    def disc_key(self, depth: int):
        """Hashable id of the depth-``depth`` disc containing the end: its
        lamps at positions <= depth, packed."""
        return self.lamps_to(depth)

    def agrees(self, other) -> bool:
        cap = min(self.known_to, other.known_to)
        return self.lamps_to(cap) == other.lamps_to(cap)

    def render(self) -> str:
        return f"lampend:{self.known_to}:[{self._render_lamps('=')}]"

    __repr__ = render


def origin_padic(prime: int) -> PadicVertex:
    """The disc D(0, 1)."""
    return PadicVertex(prime, 0, Fraction(0))


def origin_lamp(q: int) -> LampVertex:
    """The empty configuration at height 0."""
    return LampVertex(q, 0, ())


def end_in_disc(end, vertex) -> bool:
    """Whether a boundary point lies in the disc below ``vertex``."""
    if end is OMEGA or end.is_vertex:
        raise TypeError(f"not a boundary point: {end!r}")
    same_realization(end, vertex)
    return end.in_disc(vertex)


def meet(x, y):
    """First common vertex of the geodesics from x and y to the top end,
    built at the height ``meet_height`` finds."""
    if x is OMEGA or y is OMEGA:
        raise OmegaOperand("meet with the top end is undefined")
    same_realization(x, y)
    return x.meet(y)


def graph_distance(x, y) -> int:
    """Edge count between two vertices: phi(x) + phi(y) - 2 phi(x ^ y),
    from the meet's height alone (no meet vertex is built)."""
    if not (x.is_vertex and y.is_vertex):
        raise TypeError("graph_distance takes vertices")
    same_realization(x, y)
    return x.height + y.height - 2 * x.meet_height(y)


def theta(a, b) -> Fraction:
    """Ultrametric q**(-phi(a ^ b)) from the meet's height alone; zero when
    the operands are equal or are ends that coincide exactly."""
    if a is OMEGA or b is OMEGA:
        raise OmegaOperand("theta with the top end is undefined")
    same_realization(a, b)
    h, q = None if a == b else a.meet_height(b), a.degree
    return Fraction(0) if h is None else Fraction(q ** max(-h, 0),
                                                  q ** max(h, 0))


# -- serialization -----------------------------------------------------------


def _render_center(num: int, floor: int, p: int) -> str:
    if not num:
        return "0"
    w = int_valuation(num, p)
    u, digits = num // p ** w, []
    while u:
        digits.append(str(u % p))
        u //= p
    return ".".join(digits) + f"@{floor + w}"


def _parse_center(text: str, p: int):
    """(c, floor) of a center literal, the center being c·p**floor."""
    text = text.strip()
    if "@" in text:
        digit_str, v = text.rsplit("@", 1)
        digits = [int(d) for d in digit_str.split(".")]
        if not digits or digits[0] == 0:
            raise MalformedSyntax(f"leading digit must be nonzero in {text!r}")
        return sum(d * p ** i for i, d in enumerate(digits)), int(v)
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den)), 0
    return int(text), 0


def parse_vertex(text: str, *, prime=None, q=None) -> "PadicVertex | LampVertex":
    """Parse "p:height:centerdigits" or "lamp:height:[pos=val,...]"."""
    parts = text.strip().split(":", 2)
    if len(parts) != 3:
        raise MalformedSyntax(f"cannot parse vertex {text!r}")
    kind, height_s, payload = parts
    try:
        height = int(height_s)
    except ValueError as exc:
        raise MalformedSyntax(f"bad height in {text!r}") from exc
    if kind == "p":
        if prime is None:
            raise MalformedSyntax("p-adic vertex literal but no prime configured")
        return PadicVertex(prime, height, *_parse_center(payload, prime))
    if kind == "lamp":
        if q is None:
            raise MalformedSyntax("lamplighter vertex literal but no q configured")
        payload = payload.strip()
        if not (payload.startswith("[") and payload.endswith("]")):
            raise MalformedSyntax(f"bad lamp list in {text!r}")
        return LampVertex(q, height, parse_lamps(payload[1:-1], "="))
    raise MalformedSyntax(f"unknown vertex kind {kind!r}")


def parse_lamps(text: str, sep: str, location=None) -> tuple:
    """The (position, value) pairs of "pos<sep>val, ..." lamp entries; a
    position given twice is malformed."""
    lamps, text = {}, text.strip()
    for item in text.split(",") if text else ():
        try:
            pos, val = map(int, item.split(sep))
        except ValueError as exc:
            raise MalformedSyntax(f"bad lamp entry {item!r}",
                                  location) from exc
        if pos in lamps:
            raise MalformedSyntax(f"duplicate lamp position {pos}", location)
        lamps[pos] = val
    return tuple(lamps.items())
