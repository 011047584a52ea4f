"""Affine isometries of the oriented tree in two exact realizations.

* p-adic: maps u -> a*u + t with a, t in Q_p, a != 0; height displacement
  is the valuation of a.
* lamplighter: pairs (lamp configuration, shift) composing by
  shifted pointwise sum; height displacement is the shift.

Both fix the top end; the height displacement is a group homomorphism
onto Z.  Module functions implement composition, inversion, the action on
vertices and ends, the semidirect decomposition against a reference
homothety, and non-degeneracy validation of a support set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    EmptySupport,
    PrecisionExhausted,
    RealizationMismatch,
)
from .padic import DEFAULT_BUDGET, PAdic
from .tree import (
    OMEGA,
    LampEnd,
    LampVertex,
    PadicEnd,
    PadicVertex,
    graph_distance,
    origin_lamp,
    origin_padic,
)


@dataclass(frozen=True)
class PadicAffine:
    """u -> a*u + t on Q_p (equivalently the matrix [[a, t], [0, 1]])."""

    t: PAdic
    a: PAdic

    def __post_init__(self):
        if self.a.prime != self.t.prime:
            raise RealizationMismatch("t and a live over different primes")
        if self.a.is_zero:
            raise ValueError("scale coefficient must be invertible")

    @property
    def prime(self):
        return self.a.prime

    def render(self) -> str:
        return f"affine(t = {self.t.render()}, a = {self.a.render()})"

    __repr__ = render


@dataclass(frozen=True)
class LampAffine:
    """(configuration, shift) acting by shifted sum on lamp configurations.

    ``known_to`` bounds the positions where the configuration is known
    (None: fully known, finite support).  Window-limited elements arise
    from boundary sections.
    """

    q: int
    lamps: tuple
    shift: int
    known_to: "int | None" = None

    def __post_init__(self):
        lamps = tuple(sorted((p, v % self.q) for p, v in self.lamps
                             if v % self.q != 0))
        if self.known_to is not None:
            lamps = tuple((p, v) for p, v in lamps if p <= self.known_to)
        if len({p for p, _ in lamps}) != len(lamps):
            raise ValueError("duplicate lamp positions")
        object.__setattr__(self, "lamps", lamps)

    def lamp(self, pos: int) -> int:
        if self.known_to is not None and pos > self.known_to:
            raise PrecisionExhausted(
                f"lamp at {pos} beyond known window (<= {self.known_to})")
        for p, v in self.lamps:
            if p == pos:
                return v
        return 0

    def render(self) -> str:
        inner = ",".join(f"{p}:{v}" for p, v in self.lamps)
        return f"lamp(shift = {self.shift}, lamps = [{inner}])"

    __repr__ = render


@functools.cache
def identity_padic(prime: int, budget=DEFAULT_BUDGET) -> PadicAffine:
    """The identity, one shared element per (prime, budget)."""
    return PadicAffine(PAdic.zero(prime, None, budget),
                       PAdic.from_int(1, prime, budget))


@functools.cache
def identity_lamp(q: int) -> LampAffine:
    return LampAffine(q, (), 0)


def _same_realization(g1, g2):
    if type(g1) is not type(g2):
        raise RealizationMismatch(f"{type(g1).__name__} vs {type(g2).__name__}")
    if isinstance(g1, PadicAffine):
        if g1.prime != g2.prime:
            raise RealizationMismatch(f"p={g1.prime} vs p={g2.prime}")
    elif g1.q != g2.q:
        raise RealizationMismatch(f"q={g1.q} vs q={g2.q}")


def _min_known(*vals):
    known = [v for v in vals if v is not None]
    return min(known) if known else None


def compose(g1, g2):
    """Group product: apply g2 first, then g1."""
    _same_realization(g1, g2)
    if isinstance(g1, PadicAffine):
        return PadicAffine(g1.t + g1.a * g2.t, g1.a * g2.a)
    merged = dict(g1.lamps)
    for p, v in g2.lamps:
        pos = p + g1.shift
        merged[pos] = (merged.get(pos, 0) + v) % g1.q
    known = _min_known(g1.known_to,
                       None if g2.known_to is None else g2.known_to + g1.shift)
    lamps = tuple((p, v) for p, v in merged.items() if v)
    return LampAffine(g1.q, lamps, g1.shift + g2.shift, known)


def invert(g):
    if isinstance(g, PadicAffine):
        ainv = g.a.inverse()
        return PadicAffine(-(ainv * g.t), ainv)
    lamps = tuple((p - g.shift, (-v) % g.q) for p, v in g.lamps)
    known = None if g.known_to is None else g.known_to - g.shift
    return LampAffine(g.q, lamps, -g.shift, known)


def phi(g) -> int:
    """Height displacement; a homomorphism onto Z."""
    if isinstance(g, PadicAffine):
        return g.a.valuation
    return g.shift


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
    if isinstance(g, PadicAffine):
        if not isinstance(x, PadicVertex) or x.prime != g.prime:
            raise RealizationMismatch(f"{g!r} cannot act on {x!r}")
        h = x.height + phi(g)
        c = g.a * PAdic.from_fraction(x.center, g.prime, g.a.budget) + g.t
        return PadicVertex._canonical(g.prime, h, c.residue(h))
    if not isinstance(x, LampVertex) or x.q != g.q:
        raise RealizationMismatch(f"{g!r} cannot act on {x!r}")
    h = x.height + g.shift
    if g.known_to is not None and g.known_to < h:
        raise PrecisionExhausted(
            f"acting element known to {g.known_to}, need {h}")
    merged = dict(g.lamps)
    for p, v in x.lamps:
        pos = p + g.shift
        merged[pos] = (merged.get(pos, 0) + v) % g.q
    lamps = tuple((p, v) for p, v in merged.items() if v and p <= h)
    return LampVertex(g.q, h, lamps)


def act_end(g, e):
    """Image of a boundary point; the top end is always fixed."""
    if e is OMEGA:
        return OMEGA
    if isinstance(g, PadicAffine):
        if not isinstance(e, PadicEnd) or e.prime != g.prime:
            raise RealizationMismatch(f"{g!r} cannot act on {e!r}")
        return PadicEnd(g.a * e.value + g.t)
    if not isinstance(e, LampEnd) or e.q != g.q:
        raise RealizationMismatch(f"{g!r} cannot act on {e!r}")
    known = _min_known(g.known_to, e.known_to + g.shift)
    merged = {p + g.shift: v for p, v in e.values}
    for p, v in g.lamps:
        merged[p] = (merged.get(p, 0) + v) % g.q
    vals = tuple((p, v) for p, v in merged.items() if v and p <= known)
    return LampEnd(g.q, known, vals)


def origin_of(g):
    return origin_padic(g.prime) if isinstance(g, PadicAffine) \
        else origin_lamp(g.q)


def identity_like(g):
    return identity_padic(g.prime, g.a.budget) if isinstance(g, PadicAffine) \
        else identity_lamp(g.q)


def norm(g) -> int:
    """Semi-norm |g| = d(g o, o)."""
    o = origin_of(g)
    return graph_distance(act_vertex(g, o), o)


def elements_agree(g1, g2) -> bool:
    """Equality to precision (p-adic) / on the known window (lamplighter)."""
    _same_realization(g1, g2)
    if isinstance(g1, PadicAffine):
        return (g1.t - g2.t).is_zero and (g1.a - g2.a).is_zero
    if g1.shift != g2.shift:
        return False
    known = _min_known(g1.known_to, g2.known_to)
    positions = {p for p, _ in g1.lamps} | {p for p, _ in g2.lamps}
    for p in positions:
        if known is not None and p > known:
            continue
        if g1.lamp(p) != g2.lamp(p):
            return False
    return True


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


def default_homothety_padic(prime, budget=DEFAULT_BUDGET) -> ReferenceHomothety:
    """s = (t=0, a=p) fixing the end 0."""
    s = PadicAffine(PAdic.zero(prime, None, budget),
                    PAdic.from_int(prime, prime, budget))
    return ReferenceHomothety(s, PadicEnd(PAdic.zero(prime, None, budget)))


def default_homothety_lamp(q, end_window=24) -> ReferenceHomothety:
    """s = (0, shift 1) fixing the all-zero configuration."""
    s = LampAffine(q, (), 1)
    return ReferenceHomothety(s, LampEnd(q, end_window, ()))


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
    Lamplighter with nonzero shift h: the unique configuration
    xi(n) = sum_j sigma(n - j h), which has support bounded below.
    """
    if isinstance(g, PadicAffine):
        one = PAdic.from_int(1, g.prime, g.a.budget)
        denom = one - g.a
        if denom.is_zero:
            if denom.zero_bound is not None:
                raise PrecisionExhausted("a - 1 is zero only to precision")
            if g.t.is_zero and g.t.zero_bound is None:
                return FIXES_ALL
            if g.t.is_zero:
                raise PrecisionExhausted("t is zero only to precision")
            return None
        return PadicEnd(g.t * denom.inverse())
    if g.shift == 0:
        if not g.lamps:
            return FIXES_ALL if g.known_to is None else None
        return None
    h = g.shift
    if end_window is None:
        top = max((p for p, _ in g.lamps), default=0)
        end_window = max(0, top) + 4 * abs(h) + 8
    sigma = dict(g.lamps)
    vals = []
    low = min((p for p, _ in g.lamps), default=0)
    for n in range(low - abs(h), end_window + 1):
        total = 0
        j = 0
        while True:
            pos = n - j * h
            if h > 0 and pos < low:
                break
            if h < 0 and pos > max((p for p, _ in g.lamps), default=0):
                break
            total = (total + sigma.get(pos, 0)) % g.q
            j += 1
        if total:
            vals.append((n, total))
    return LampEnd(g.q, end_window, tuple(vals))


def ends_agree(e1, e2) -> bool:
    """Whether two bottom ends agree on their common known window."""
    if type(e1) is not type(e2):
        return False
    if isinstance(e1, PadicEnd):
        return (e1.value - e2.value).is_zero
    cap = min(e1.known_to, e2.known_to)
    positions = {p for p, _ in e1.values} | {p for p, _ in e2.values}
    return all(e1.lamp(p) == e2.lamp(p) for p in positions if p <= cap)


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
        _same_realization(atoms[0], other)
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
        if isinstance(fe, FixesEverything):
            continue
        if isinstance(common, FixesEverything):
            common = fe
        elif not ends_agree(common, fe):
            common = None
            break
    if isinstance(common, FixesEverything):
        # every atom is the identity: degenerate, fixes everything
        common = atoms and fixed_end(atoms[0]) or None
    if common is not None:
        messages.append("all atoms fix a common bottom end (roto-homothety group)")
    nonzero = [abs(v) for v in phis if v]
    g = math.gcd(*nonzero) if nonzero else 0
    surjective_ok = (g == 1) or allow_non_surjective
    if g != 1 and not in_hor and not allow_non_surjective:
        messages.append(f"height displacements generate {g}Z, not Z "
                        "(pass allow_non_surjective to override)")
    passed = (not in_hor) and common is None and surjective_ok
    if passed:
        messages.append("non-exceptional: moves heights and fixes no bottom end")
    return ValidationReport(passed, in_hor, common, phis, g, tuple(messages))
