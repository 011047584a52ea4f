"""The oriented homogeneous tree: vertices, ends, meets, heights, ultrametric.

Two concrete realizations share one vertex/end API:

* p-adic: a vertex at height h is the disc of radius p**(-h) around a
  canonical center (the digit expansion truncated below exponent h);
  bottom ends are p-adic numbers known to finite precision.
* lamplighter: a vertex at height h is a lamp configuration known on
  positions <= h; bottom ends are configurations with support bounded
  below, known on a finite window.

Heights grow away from the distinguished top end: the father of a vertex
sits one level above it (height - 1), each vertex has q sons below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BranchOutOfRange,
    IndistinguishableAtPrecision,
    MalformedSyntax,
    OmegaOperand,
    RealizationMismatch,
)
from .padic import DEFAULT_BUDGET, PAdic, fraction_truncate, int_valuation


class _Omega:
    """The distinguished fixed end; a singleton."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "omega"


OMEGA = _Omega()

_set_field = object.__setattr__


@dataclass(frozen=True)
class PadicVertex:
    """Disc D(center, p**(-height)); center is the canonical truncation."""

    prime: int
    height: int
    center: Fraction

    def __post_init__(self):
        # canonical form: 0 <= center < p**height-scale, digits below exponent height
        object.__setattr__(self, "center",
                           fraction_truncate(self.center, self.prime,
                                             self.height))

    @classmethod
    def _canonical(cls, prime: int, height: int, center: Fraction):
        """The vertex of a center that is already the canonical truncation
        (a ``PAdic.residue(height)``), without truncating it again."""
        self = object.__new__(cls)
        _set_field(self, "prime", prime)
        _set_field(self, "height", height)
        _set_field(self, "center", center)
        return self

    @property
    def degree(self):
        return self.prime

    def father(self) -> "PadicVertex":
        return PadicVertex(self.prime, self.height - 1, self.center)

    def son(self, branch: int) -> "PadicVertex":
        if not 0 <= branch < self.prime:
            raise BranchOutOfRange(f"branch {branch} not in [0, {self.prime})")
        c = self.center + branch * Fraction(self.prime) ** self.height
        return PadicVertex(self.prime, self.height + 1, c)

    def ancestor(self, height: int) -> "PadicVertex":
        if height > self.height:
            raise ValueError("ancestor must be at or above the vertex")
        return PadicVertex(self.prime, height, self.center)

    def render(self) -> str:
        return f"p:{self.height}:{_render_center(self.center, self.prime)}"

    __repr__ = render


@dataclass(frozen=True)
class LampVertex:
    """Lamp configuration known on positions <= height."""

    q: int
    height: int
    lamps: tuple  # sorted ((pos, val), ...), val != 0, pos <= height

    def __post_init__(self):
        lamps = tuple(sorted((p, v % self.q) for p, v in self.lamps
                             if v % self.q != 0 and p <= self.height))
        if len({p for p, _ in lamps}) != len(lamps):
            raise ValueError("duplicate lamp positions")
        object.__setattr__(self, "lamps", lamps)

    @property
    def degree(self):
        return self.q

    def father(self) -> "LampVertex":
        return LampVertex(self.q, self.height - 1, self.lamps)

    def son(self, branch: int) -> "LampVertex":
        if not 0 <= branch < self.q:
            raise BranchOutOfRange(f"branch {branch} not in [0, {self.q})")
        lamps = self.lamps + (((self.height + 1, branch),) if branch else ())
        return LampVertex(self.q, self.height + 1, lamps)

    def ancestor(self, height: int) -> "LampVertex":
        if height > self.height:
            raise ValueError("ancestor must be at or above the vertex")
        return LampVertex(self.q, height, self.lamps)

    def render(self) -> str:
        inner = ",".join(f"{p}={v}" for p, v in self.lamps)
        return f"lamp:{self.height}:[{inner}]"

    __repr__ = render


@dataclass(frozen=True)
class PadicEnd:
    """A bottom end of the p-adic tree: a p-adic number to finite precision."""

    value: PAdic

    @property
    def prime(self):
        return self.value.prime

    def render(self) -> str:
        return f"end:{self.value.render()}"

    __repr__ = render


@dataclass(frozen=True)
class LampEnd:
    """A bottom end of the lamplighter tree.

    ``values`` lists the nonzero lamps at positions <= ``known_to``; all
    positions below the smallest listed one are zero (support is bounded
    below), positions above ``known_to`` are unknown.
    """

    q: int
    known_to: int
    values: tuple  # sorted ((pos, val), ...), val != 0, pos <= known_to

    def __post_init__(self):
        vals = tuple(sorted((p, v % self.q) for p, v in self.values
                            if v % self.q != 0 and p <= self.known_to))
        object.__setattr__(self, "values", vals)

    def lamp(self, pos: int) -> int:
        if pos > self.known_to:
            raise IndistinguishableAtPrecision(
                f"lamp at {pos} beyond known window (<= {self.known_to})")
        for p, v in self.values:
            if p == pos:
                return v
        return 0

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
    if isinstance(end, PadicEnd):
        return end.value.residue(vertex.height) == vertex.center
    if isinstance(end, LampEnd):
        # the discs at one height partition the ends: an end lies in the
        # disc whose lamps at positions <= height are its own
        if vertex.height > end.known_to:
            raise IndistinguishableAtPrecision(
                f"disc at height {vertex.height} beyond known window "
                f"(<= {end.known_to})")
        return tuple((p, v) for p, v in end.values
                     if p <= vertex.height) == vertex.lamps
    raise TypeError(f"not a boundary point: {end!r}")


def _is_vertex(x):
    return isinstance(x, (PadicVertex, LampVertex))


def _is_end(x):
    return isinstance(x, (PadicEnd, LampEnd))


def _padic_value_and_cap(x, budget):
    """(p-adic value, knowledge cap) for a vertex or end operand."""
    if isinstance(x, PadicVertex):
        return PAdic.from_fraction(x.center, x.prime, budget), x.height
    return x.value, None


def meet(x, y, budget=DEFAULT_BUDGET):
    """First common vertex of the geodesics from x and y to the top end."""
    if x is OMEGA or y is OMEGA:
        raise OmegaOperand("meet with the top end is undefined")
    if isinstance(x, (PadicVertex, PadicEnd)) != isinstance(y, (PadicVertex, PadicEnd)):
        raise RealizationMismatch(f"{x!r} vs {y!r}")
    if _is_vertex(x) and _is_vertex(y) and x == y:
        return x
    if isinstance(x, (PadicVertex, PadicEnd)):
        return _meet_padic(x, y, budget)
    return _meet_lamp(x, y)


def _meet_padic(x, y, budget):
    prime = x.prime
    if prime != y.prime:
        raise RealizationMismatch(f"p={prime} vs p={y.prime}")
    ux, capx = _padic_value_and_cap(x, budget)
    uy, capy = _padic_value_and_cap(y, budget)
    caps = [c for c in (capx, capy) if c is not None]
    diff = ux - uy
    if diff.is_zero:
        if caps and diff.zero_bound is not None and min(caps) <= diff.zero_bound:
            h = min(caps)
        elif not caps:
            bound = diff.zero_bound
            ub = Fraction(1, prime ** bound) if bound is not None and bound >= 0 \
                else (Fraction(prime ** -bound) if bound is not None else Fraction(0))
            raise IndistinguishableAtPrecision(
                "ends agree on the whole known window", upper_bound=ub)
        elif diff.zero_bound is None:
            h = min(caps)
        else:
            raise IndistinguishableAtPrecision(
                "operands agree beyond the known window",
                upper_bound=Fraction(1) / Fraction(prime) ** min(caps))
    else:
        h = diff.valuation
        if caps:
            h = min(h, *caps)
    return PadicVertex._canonical(prime, h, ux.residue(h))


def _lamp_known_cap(x):
    return x.height if isinstance(x, LampVertex) else x.known_to


def _lamp_value(x, pos):
    if isinstance(x, LampVertex):
        for p, v in x.lamps:
            if p == pos:
                return v
        return 0
    return x.lamp(pos)


def _meet_lamp(x, y):
    if x.q != y.q:
        raise RealizationMismatch(f"q={x.q} vs q={y.q}")
    cap = min(_lamp_known_cap(x), _lamp_known_cap(y))
    positions = sorted({p for p, _ in (x.lamps if _is_vertex(x) else x.values)}
                       | {p for p, _ in (y.lamps if _is_vertex(y) else y.values)})
    h = cap
    for pos in positions:
        if pos > cap:
            break
        if _lamp_value(x, pos) != _lamp_value(y, pos):
            h = pos - 1
            break
    else:
        if _is_end(x) and _is_end(y):
            raise IndistinguishableAtPrecision(
                "lamp ends agree on the whole known window",
                upper_bound=Fraction(1) / Fraction(x.q) ** cap)
    lamps = tuple((p, _lamp_value(x, p)) for p in positions
                  if p <= h and _lamp_value(x, p) != 0)
    return LampVertex(x.q, h, lamps)


def graph_distance(x, y, budget=DEFAULT_BUDGET) -> int:
    """Edge count between two vertices: phi(x) + phi(y) - 2 phi(x ^ y)."""
    if not (_is_vertex(x) and _is_vertex(y)):
        raise TypeError("graph_distance takes vertices")
    return x.height + y.height - 2 * meet(x, y, budget).height


def theta(a, b, budget=DEFAULT_BUDGET) -> Fraction:
    """Ultrametric q**(-phi(a ^ b)); zero when the operands coincide."""
    if a is OMEGA or b is OMEGA:
        raise OmegaOperand("theta with the top end is undefined")
    if a == b:
        return Fraction(0)
    if _is_end(a) and _is_end(b):
        same = (a.value.eq_to_precision(b.value)
                if isinstance(a, PadicEnd) and isinstance(b, PadicEnd) else None)
        if same:
            # agreement through the window: report the distance upper bound
            bound = (a.value - b.value).zero_bound
            ub = Fraction(0) if bound is None else \
                (Fraction(1, a.prime ** bound) if bound >= 0
                 else Fraction(a.prime ** -bound))
            if bound is None:
                return Fraction(0)
            raise IndistinguishableAtPrecision(
                "ends agree on the whole known window", upper_bound=ub)
    m = meet(a, b, budget)
    q = m.degree
    h = m.height
    return Fraction(1, q ** h) if h >= 0 else Fraction(q ** -h)


# -- serialization -----------------------------------------------------------


def _render_center(center: Fraction, p: int) -> str:
    if center == 0:
        return "0"
    den_val = int_valuation(center.denominator, p) if center.denominator > 1 else 0
    n = int(center * p ** den_val)
    v = int_valuation(n, p) - den_val
    u = n // p ** (v + den_val)
    digits = []
    while u:
        digits.append(str(u % p))
        u //= p
    return ".".join(digits) + f"@{v}"


def _parse_center(text: str, p: int) -> Fraction:
    text = text.strip()
    if text == "0":
        return Fraction(0)
    if "@" in text:
        digit_str, v = text.rsplit("@", 1)
        v = int(v)
        digits = [int(d) for d in digit_str.split(".")]
        if not digits or digits[0] == 0:
            raise MalformedSyntax(f"leading digit must be nonzero in {text!r}")
        u = sum(d * p ** i for i, d in enumerate(digits))
        return Fraction(u) * Fraction(p) ** v
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


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
        return PadicVertex(prime, height, _parse_center(payload, prime))
    if kind == "lamp":
        if q is None:
            raise MalformedSyntax("lamplighter vertex literal but no q configured")
        payload = payload.strip()
        if not (payload.startswith("[") and payload.endswith("]")):
            raise MalformedSyntax(f"bad lamp list in {text!r}")
        inner = payload[1:-1].strip()
        lamps = []
        if inner:
            for item in inner.split(","):
                pos, val = item.split("=")
                lamps.append((int(pos), int(val)))
        return LampVertex(q, height, tuple(lamps))
    raise MalformedSyntax(f"unknown vertex kind {kind!r}")
