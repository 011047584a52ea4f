"""The oriented homogeneous tree: vertices, ends, meets, heights, ultrametric.

Each realization is one family of classes that owns its arithmetic:

* p-adic (``PadicVertex``, ``PadicEnd``): a vertex at height h is the
  disc of radius p**(-h) around a canonical center (the digit expansion
  truncated below exponent h); bottom ends are p-adic numbers known to
  finite precision.
* lamplighter (``LampVertex``, ``LampEnd``): a vertex at height h is a
  lamp configuration known on positions <= h; bottom ends are
  configurations with support bounded below, known on a finite window.

Every class of a family (with the elements of ``group`` and the engine
forms of ``grid``) has the family's ``kind`` and a ``degree``, the
branching number.  The module functions hold their operands to one
realization (``same_realization``) and hand them to the family's method.

Heights grow away from the distinguished top end: the father of a vertex
sits one level above it (height - 1), each vertex has q sons below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
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
    out = tuple(sorted((p, v % q) for p, v in lamps
                       if v % q and (top is None or p <= top)))
    if len(dict(out)) != len(out):
        raise ValueError("duplicate lamp positions")
    return out


class _LampPoint:
    """What lamp vertices and ends share: nonzero ``lamps`` known on the
    positions up to ``known_to``."""

    kind = "lamplighter"
    degree = property(attrgetter("q"))

    def meet_height(self, other):
        """Height of the meet: below the first position where the sorted
        lamp tuples part, capped by the common window."""
        cap = min(self.known_to, other.known_to)
        past = (cap + 1, 0)
        for a, b in zip_longest(self.lamps, other.lamps, fillvalue=past):
            if a != b:
                h = min(a[0], b[0]) - 1
                if h < cap:
                    return h
                break
        if not (self.is_vertex or other.is_vertex):
            raise IndistinguishableAtPrecision(
                "lamp ends agree on the whole known window",
                upper_bound=Fraction(self.q) ** -cap)
        return cap

    def meet(self, other):
        return LampVertex(self.q, self.meet_height(other), self.lamps)


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


@dataclass(frozen=True)
class LampVertex(_LampPoint):
    """Lamp configuration known on positions <= height."""

    q: int
    height: int
    lamps: tuple  # sorted ((pos, val), ...), val != 0, pos <= height

    is_vertex = True
    known_to = property(attrgetter("height"))

    def __post_init__(self):
        object.__setattr__(self, "lamps",
                           sorted_lamps(self.lamps, self.q, self.height))

    def father(self) -> "LampVertex":
        return LampVertex(self.q, self.height - 1, self.lamps)

    def son(self, branch: int) -> "LampVertex":
        if not 0 <= branch < self.q:
            raise BranchOutOfRange(f"branch {branch} not in [0, {self.q})")
        lamps = self.lamps + (((self.height + 1, branch),) if branch else ())
        return LampVertex(self.q, self.height + 1, lamps)

    def render(self) -> str:
        inner = ",".join(f"{p}={v}" for p, v in self.lamps)
        return f"lamp:{self.height}:[{inner}]"

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


@dataclass(frozen=True)
class LampEnd(_LampPoint):
    """A bottom end of the lamplighter tree.

    ``values`` lists the nonzero lamps at positions <= ``known_to``; all
    positions below the smallest listed one are zero (support is bounded
    below), positions above ``known_to`` are unknown.
    """

    q: int
    known_to: int
    values: tuple  # sorted ((pos, val), ...), val != 0, pos <= known_to

    is_vertex = False
    lamps = property(attrgetter("values"))

    def __post_init__(self):
        object.__setattr__(self, "values",
                           sorted_lamps(self.values, self.q, self.known_to))

    def lamp(self, pos: int) -> int:
        if pos > self.known_to:
            raise IndistinguishableAtPrecision(
                f"lamp at {pos} beyond known window (<= {self.known_to})")
        return dict(self.values).get(pos, 0)

    def in_disc(self, vertex) -> bool:
        # the discs at one height partition the ends: an end lies in the
        # disc whose lamps at positions <= height are its own
        if vertex.height > self.known_to:
            raise IndistinguishableAtPrecision(
                f"disc at height {vertex.height} beyond known window "
                f"(<= {self.known_to})")
        return self.disc_key(vertex.height) == vertex.lamps

    def disc_key(self, depth: int):
        """Hashable id of the depth-``depth`` disc containing the end."""
        return tuple((p, v) for p, v in self.values if p <= depth)

    def agrees(self, other) -> bool:
        cap = min(self.known_to, other.known_to)
        return self.disc_key(cap) == other.disc_key(cap)

    def render(self) -> str:
        inner = ",".join(f"{p}={v}" for p, v in self.values)
        return f"lampend:{self.known_to}:[{inner}]"

    __repr__ = render


def origin_padic(prime: int) -> PadicVertex:
    """The disc D(0, 1)."""
    return PadicVertex(prime, 0, Fraction(0))


def origin_lamp(q: int) -> LampVertex:
    """The empty configuration at height 0."""
    return LampVertex(q, 0, ())


def busemann(x) -> int:
    """Height of a vertex (generation number with respect to the top end)."""
    return x.height


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
    """The (position, value) pairs of "pos<sep>val, ..." lamp entries."""
    lamps, text = [], text.strip()
    for item in text.split(",") if text else ():
        try:
            pos, val = item.split(sep)
            lamps.append((int(pos), int(val)))
        except ValueError as exc:
            raise MalformedSyntax(f"bad lamp entry {item!r}",
                                  location) from exc
    return tuple(lamps)
