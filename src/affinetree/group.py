"""Affine isometries of the oriented tree in two exact realizations.

* ``PadicAffine``: maps u -> a*u + t with a, t in Q_p, a != 0; height
  displacement is the valuation of a.
* ``LampAffine``: pairs (lamp configuration, shift) composing by
  shifted pointwise sum; height displacement is the shift.

Both fix the top end; the height displacement (``phi``) is a group
homomorphism onto Z.  Each class joins its realization's family in
``tree`` and owns the arithmetic: composition, inversion, the action on
vertices and ends, and the realization's identity, origin and reference
homothety.  The module functions are the package's entry points: each
holds its operands to the realization rule (``tree.same_realization``)
and hands them to the method.  The semidirect decomposition against a
reference homothety and the non-degeneracy validation of a support set
work the same on both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter

from .errors import (
    EmptySupport,
    InexactAtom,
    PrecisionExhausted,
    RealizationMismatch,
)
from .padic import PAdic
from .tree import (
    OMEGA,
    LampDigits,
    LampEnd,
    LampVertex,
    PadicEnd,
    PadicVertex,
    cut,
    lamp_form,
    origin_lamp,
    origin_padic,
    same_realization,
)


@dataclass(frozen=True)
class PadicAffine:
    """u -> a*u + t on Q_p (equivalently the matrix [[a, t], [0, 1]])."""

    t: PAdic
    a: PAdic

    kind = "padic"
    degree_name = "p"
    prime = degree = property(attrgetter("a.prime"))
    phi = property(attrgetter("a.valuation"))
    # whether t and a are exact, as a law's atoms must be
    exact = property(lambda g: None not in (g.t.den, g.a.den))

    def __post_init__(self):
        if self.a.prime != self.t.prime:
            raise RealizationMismatch("t and a live over different primes")
        if self.a.is_zero:
            raise ValueError("scale coefficient must be invertible")

    def compose(self, other) -> "PadicAffine":
        return PadicAffine(self.t + self.a * other.t, self.a * other.a)

    def inverse(self) -> "PadicAffine":
        ainv = self.a.inverse()
        return PadicAffine(-(ainv * self.t), ainv)

    def act_vertex(self, x) -> PadicVertex:
        h = x.height + self.phi
        c = self.a * PAdic.from_digits(x.num, x.floor, self.prime,
                                       self.a.budget) + self.t
        return PadicVertex(self.prime, h, *c.residue_pair(h))

    def act_end(self, e) -> PadicEnd:
        return PadicEnd(self.a * e.value + self.t)

    def norm(self) -> int:
        """d(g o, o) = phi - 2 min(0, phi, v(t)): g o is the disc of t at
        height phi, which meets o at min(0, phi, v(t))."""
        h, t = self.phi, self.t
        if t.den is None:
            t.residue(h)  # raises where act_vertex(g, o) does
        return h - 2 * (min(0, h) if t.is_zero else min(0, h, t.valuation))

    def identity(self) -> "PadicAffine":
        """The identity, one shared element per (prime, budget)."""
        return _padic_identity(self.prime, self.a.budget)

    def origin(self) -> PadicVertex:
        return origin_padic(self.prime)

    def agrees(self, other) -> bool:
        return (self.t - other.t).is_zero and (self.a - other.a).is_zero

    def fixed_end(self, end_window=None):
        one = PAdic.from_int(1, self.prime, self.a.budget)
        denom = one - self.a
        if denom.is_zero:
            if denom.zero_bound is not None:
                raise PrecisionExhausted("a - 1 is zero only to precision")
            if self.t.is_zero and self.t.zero_bound is None:
                return FIXES_ALL
            if self.t.is_zero:
                raise PrecisionExhausted("t is zero only to precision")
            return None
        return PadicEnd(self.t * denom.inverse())

    def reference_homothety(self) -> "ReferenceHomothety":
        """s = (t=0, a=p) fixing the end 0."""
        p, budget = self.prime, self.a.budget
        return ReferenceHomothety(
            PadicAffine(PAdic.zero(p, None, budget),
                        PAdic.from_int(p, p, budget)),
            PadicEnd(PAdic.zero(p, None, budget)))

    def limit_end(self, known_exponent: int) -> PadicEnd:
        """Where a right product at this element goes, known modulo
        p**known_exponent: later terms may change any digit above."""
        return PadicEnd(self.t.with_known_exponent(known_exponent))

    def engine(self, law):
        """The engine form of a law of this realization."""
        from .grid import GridLaw
        return GridLaw.of(law)

    def section(self, end, unit) -> "PadicAffine":
        """The horocyclic element (t = the end, a = the rotation unit)."""
        return PadicAffine(end.value,
                           PAdic.from_int(unit, self.prime, self.a.budget))

    def rotation_draws(self, gens):
        """Per generator of ``gens``, the rotation about the reference end:
        a uniform unit modulo p**working drawn from it."""
        return (_uniform_unit(g, self.prime, self.a.budget.working)
                for g in gens)

    def render(self) -> str:
        return f"affine(t = {self.t.render()}, a = {self.a.render()})"

    __repr__ = render


@functools.cache
def _padic_identity(prime, budget):
    return PadicAffine(PAdic.zero(prime, None, budget),
                       PAdic.from_int(1, prime, budget))


def _uniform_unit(rng, p: int, digits: int) -> int:
    """A uniform unit modulo p**digits.  Its digits are one draw when
    p**digits fits numpy's int64 bound, else drawn low chunks first, each
    of as many digits as fit."""
    if p ** digits <= 2 ** 63:
        u = int(rng.integers(0, p ** digits))
    else:
        chunk = max(c for c in range(1, 64) if p ** c <= 2 ** 63)
        u = sum(int(rng.integers(0, p ** min(chunk, digits - lo))) * p ** lo
                for lo in range(0, digits, chunk))
    d0 = 1 + int(rng.integers(0, p - 1))
    return u - u % p + d0


def _min_known(a, b):
    """The smaller window; None (no bound) when both are None."""
    return b if a is None else a if b is None else min(a, b)


@dataclass(frozen=True, init=False)
class LampAffine(LampDigits):
    """(configuration, shift) acting by shifted sum on lamp configurations,
    built from ``lamps`` ((pos, val), ...) and kept packed.

    ``known_to`` bounds the positions where the configuration is known
    (None: fully known, finite support).  Window-limited elements arise
    from boundary sections.
    """

    q: int
    num: int
    floor: int
    shift: int
    known_to: "int | None" = None

    degree_name = "q"
    phi = property(attrgetter("shift"))
    # whether the lamps are known everywhere, as a law's atoms must be
    exact = property(lambda g: g.known_to is None)

    def __init__(self, q: int, lamps, shift: int, known_to=None):
        self._fill(q, lamps, known_to, shift=shift, known_to=known_to)

    @classmethod
    def _of(cls, q, num, floor, shift, known_to):
        self = object.__new__(cls)
        self.__dict__.update(q=q, num=num, floor=floor, shift=shift,
                             known_to=known_to)
        return self

    def _shifted_sum(self, x, top):
        """(num, floor) of this element's lamps plus those of ``x`` moved
        by its shift, cut at ``top``."""
        width, add, _ = lamp_form(self.q)
        return cut(*add(self.num, self.floor, x.num, x.floor + self.shift),
                   top, width)

    def compose(self, other) -> "LampAffine":
        known = _min_known(self.known_to, None if other.known_to is None
                           else other.known_to + self.shift)
        return LampAffine._of(self.q, *self._shifted_sum(other, known),
                              self.shift + other.shift, known)

    def inverse(self) -> "LampAffine":
        h, num = self.shift, self.num
        known = None if self.known_to is None else self.known_to - h
        return LampAffine._of(self.q, lamp_form(self.q)[2](num),
                              self.floor - h if num else 0, -h, known)

    def act_vertex(self, x) -> LampVertex:
        h = x.height + self.shift
        if self.known_to is not None and self.known_to < h:
            raise PrecisionExhausted(
                f"acting element known to {self.known_to}, need {h}")
        return LampVertex._of(self.q, *self._shifted_sum(x, h), h)

    def norm(self) -> int:
        """d(g o, o) = shift - 2 min(0, shift, lowest lamp - 1): g o and o
        first differ at the element's lowest lamp."""
        h = self.shift
        if self.known_to is not None and self.known_to < h:
            self.act_vertex(self.origin())  # raises: g o is not known
        return h - 2 * min(0, h, self.floor - 1 if self.num else 0)

    def act_end(self, e) -> LampEnd:
        known = _min_known(self.known_to, e.known_to + self.shift)
        return LampEnd._of(self.q, *self._shifted_sum(e, known), known)

    def identity(self) -> "LampAffine":
        return LampAffine._of(self.q, 0, 0, 0, None)

    def origin(self) -> LampVertex:
        return origin_lamp(self.q)

    def agrees(self, other) -> bool:
        known = _min_known(self.known_to, other.known_to)
        return self.shift == other.shift and \
            self.lamps_to(known) == other.lamps_to(known)

    def fixed_end(self, end_window=None):
        """For a nonzero shift h, the unique configuration xi with support
        bounded below and sigma(n) + xi(n - h) = xi(n): the sum of sigma
        moved up by j·h for j >= 0 when h > 0, minus the sum of sigma
        moved up by j·|h| for j >= 1 when h < 0."""
        h, q, num, floor = self.shift, self.q, self.num, self.floor
        if h == 0:
            return FIXES_ALL if not num and self.known_to is None else None
        width, add, neg = lamp_form(q)
        if end_window is None:     # past the highest lamp, if any
            high = floor + (num.bit_length() - 1) // width if num else 0
            end_window = max(0, high) + 4 * abs(h) + 8
        if h < 0:
            num, floor, h = neg(num), floor - h, -h
        xi = 0, 0
        for at in range(floor, end_window + 1, h) if num else ():
            xi = add(*xi, num, at)
        return LampEnd._of(q, *cut(*xi, end_window, width), end_window)

    def reference_homothety(self) -> "ReferenceHomothety":
        """s = (0, shift 1) fixing the all-zero configuration."""
        return ReferenceHomothety(LampAffine(self.q, (), 1),
                                  LampEnd(self.q, 24, ()))

    def limit_end(self, known_exponent: int) -> LampEnd:
        return LampEnd._of(self.q, *self.lamps_to(known_exponent),
                           known_exponent)

    def engine(self, law):
        from .grid import LampGrid
        return LampGrid(law)

    def section(self, end, unit) -> "LampAffine":
        """The translation section; the rotation group is trivial."""
        return LampAffine._of(self.q, end.num, end.floor, 0, end.known_to)

    def rotation_draws(self, gens):
        """No unit: nothing is drawn."""
        return repeat(None)

    def render(self) -> str:
        return f"lamp(shift = {self.shift}, lamps = [{self._render_lamps(':')}])"

    __repr__ = render


def require_exact(g, location=None):
    """Refuse an element known only to finitely many digits (p-adic) or
    lamp positions: law atoms and walk starts are exact, so no walk loses
    precision."""
    if not g.exact:
        raise InexactAtom(f"{g.render()} is not exact: law atoms and walk "
                          "starts must be known everywhere", location)


def compose(g1, g2):
    """Group product: apply g2 first, then g1."""
    same_realization(g1, g2)
    return g1.compose(g2)


def invert(g):
    return g.inverse()


def phi(g) -> int:
    """Height displacement; a homomorphism onto Z."""
    return g.phi


def power(g, n: int):
    """g**n by binary exponentiation (negative n via the inverse)."""
    if n < 0:
        return power(invert(g), -n)
    if n == 0:
        return identity_like(g)
    acc, base = None, g
    while True:
        if n & 1:
            acc = base if acc is None else compose(acc, base)
        n >>= 1
        if not n:
            return acc
        base = compose(base, base)


def act_vertex(g, x):
    """Image of a vertex; height moves by phi(g)."""
    if not x.is_vertex:
        raise RealizationMismatch(f"{g!r} cannot act on {x!r}")
    same_realization(g, x)
    return g.act_vertex(x)


def act_end(g, e):
    """Image of a boundary point; the top end is always fixed."""
    if e is OMEGA:
        return OMEGA
    if e.is_vertex:
        raise RealizationMismatch(f"{g!r} cannot act on {e!r}")
    same_realization(g, e)
    return g.act_end(e)


def identity_like(g):
    return g.identity()


def norm(g) -> int:
    """Semi-norm |g| = d(g o, o), read from the element's fields by its
    height-only form (the image g o is never built)."""
    return g.norm()


def elements_agree(g1, g2) -> bool:
    """Equality to precision (p-adic) / on the known window (lamplighter)."""
    same_realization(g1, g2)
    return g1.agrees(g2)


def is_identity(g) -> bool:
    return elements_agree(g, identity_like(g))


@dataclass(frozen=True)
class ReferenceHomothety:
    """An element of height displacement 1 together with its fixed bottom end."""

    element: "PadicAffine | LampAffine"
    fixed_center: "PadicEnd | LampEnd"

    def __post_init__(self):
        if phi(self.element) != 1:
            raise ValueError("reference homothety must have height displacement 1")


def decompose(g, s: ReferenceHomothety):
    """Split g = b * s**n with b horocyclic and n = phi(g)."""
    n = phi(g)
    b = compose(g, power(s.element, -n))
    return b, n


class FixesEverything:
    """Sentinel: the identity fixes every bottom end."""

    def __repr__(self):
        return "<fixes all ends>"


FIXES_ALL = FixesEverything()


def fixed_end(g, *, end_window=None):
    """The bottom end fixed by g, FIXES_ALL for the identity, None if none.

    p-adic: a != 1 gives y = t/(1-a); a pure translation fixes nothing.
    Lamplighter with nonzero shift h: ``LampAffine.fixed_end``.
    """
    return g.fixed_end(end_window)


def ends_agree(e1, e2) -> bool:
    """Whether two bottom ends agree on their common known window."""
    same_realization(e1, e2)
    return e1.agrees(e2)


@dataclass
class ValidationReport:
    passed: bool
    in_horocyclic: bool
    common_fixed_end: object
    phis: tuple
    phi_gcd: int
    messages: tuple

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}: " + "; ".join(self.messages)


def validate_non_exceptional(atoms, *, allow_non_surjective=False):
    """Check that the atoms generate a non-degenerate subgroup.

    PASS requires some atom to move heights and the atoms to admit no
    common fixed bottom end.  The gcd of the height displacements is
    reported; a gcd other than 1 fails unless explicitly allowed, since
    every verification assumes the height homomorphism is onto Z.
    """
    atoms = list(atoms)
    if not atoms:
        raise EmptySupport("a step law needs at least one atom")
    for other in atoms[1:]:
        same_realization(atoms[0], other)
    phis = tuple(phi(g) for g in atoms)
    messages = []
    in_hor = all(v == 0 for v in phis)
    if in_hor:
        messages.append("support contained in Hor(T): no atom moves heights")
    common = FIXES_ALL
    for g in atoms:
        fe = fixed_end(g)
        if fe is None:
            common = None
            break
        if fe is FIXES_ALL:
            continue
        if common is FIXES_ALL:
            common = fe
        elif not ends_agree(common, fe):
            common = None
            break
    if common is not None:
        messages.append("all atoms fix a common bottom end (roto-homothety group)")
    g = math.gcd(*phis)
    surjective_ok = (g == 1) or allow_non_surjective
    if g != 1 and not in_hor and not allow_non_surjective:
        messages.append(f"height displacements generate {g}Z, not Z "
                        "(pass allow_non_surjective to override)")
    passed = (not in_hor) and common is None and surjective_ok
    if passed:
        messages.append("non-exceptional: moves heights and fixes no bottom end")
    return ValidationReport(passed, in_hor, common, phis, g, tuple(messages))
