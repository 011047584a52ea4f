"""Exact and bounded-precision arithmetic in the field of p-adic numbers.

An exact value, a rational, is stored as the integers (v, n, d) with
value p**v·n/d, n and d prime to p and to each other and d > 0, so
its arithmetic is integer arithmetic and its valuation a field read.
Any other value is stored as ``unit * p**valuation`` where ``unit`` is an
integer coprime to ``p`` known modulo ``p**precision``.  Every operation
on such values tracks how many significant base-p digits survive;
cancellation raises the valuation and shrinks the precision instead of
fabricating digits.  A value that is congruent to zero modulo everything
we know is kept in a distinct "zero to precision" state rather than being
promoted to a true zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import attrgetter

from .errors import (
    DivisionByZero,
    MalformedSyntax,
    PrecisionExhausted,
    PrimeMismatch,
    ZeroDenominator,
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..37: deterministic for n below
    318665857834031151167461 (about 3.2e23), the least strong pseudoprime
    to all of them (Sorenson & Webster, Math. Comp. 86, 2017), so for
    every n below 2**64; above that bound a composite may pass."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(n: int, p: int) -> int:
    """Largest k with p**k dividing n.  Undefined for n == 0."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p == 2:
        return (n & -n).bit_length() - 1
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True)
class PrecisionBudget:
    """Working precision (digits) and the floor below which results error."""

    working: int = 48
    min_acceptable: int = 6

    def __post_init__(self):
        if not (1 <= self.min_acceptable <= self.working):
            raise ValueError("need 1 <= min_acceptable <= working")


DEFAULT_BUDGET = PrecisionBudget()


def residue(num, floor, h, p):
    """num·p**floor modulo p**h as (r, e): the canonical residue (the
    digits below exponent h) is r·p**e, with e <= 0 and p not dividing r
    when e < 0, so equal residues give equal pairs."""
    if not num or h <= floor:
        return 0, 0
    r = num % p ** (h - floor)
    if floor >= 0:
        return r * p ** floor, 0
    if not r:
        return 0, 0
    w = min(int_valuation(r, p), -floor)
    return r // p ** w, floor + w


_digit_fields = attrgetter("prime", "zero_bound", "valuation", "unit",
                           "precision")
_exact_fields = attrgetter("prime", "valuation", "num", "den")


class PAdic:
    """An element of Q_p, exact or known to finitely many significant digits.

    Immutable.  An exact value is p**valuation·num/den in ints, with
    ``num`` and ``den`` prime to p and to each other and ``den`` > 0
    (``num`` 0 and ``valuation`` None for zero).  It never loses digits:
    its ``unit`` and ``precision`` are those of its expansion at working
    precision, worked out the first time they are read.
    Any other value has ``den`` None and keeps truncated digits: ``unit``
    modulo ``p**precision``, or, when the value is indistinguishable from
    zero, ``zero_bound`` (and no ``unit``/``valuation``): it is then only
    known to be divisible by ``p**zero_bound`` (``None`` means exactly
    zero).  An exact value never equals one of truncated digits.
    """

    __slots__ = ("prime", "valuation", "unit", "precision", "zero_bound",
                 "budget", "num", "den")

    def __init__(self, prime, valuation, unit, precision, *, zero_bound=False,
                 budget=DEFAULT_BUDGET, _checked=False):
        if not _checked:
            if not is_prime(prime):
                raise ValueError(f"{prime} is not prime")
            if zero_bound is False:
                if precision < 1:
                    raise PrecisionExhausted("no significant digits left")
                unit %= prime ** precision
                if unit % prime == 0:
                    raise ValueError("unit must be coprime to p")
        _set_prime(self, prime)
        _set_valuation(self, valuation)
        _set_unit(self, unit)
        _set_precision(self, precision)
        _set_zero_bound(self, zero_bound)
        _set_budget(self, budget)
        _set_num(self, None)
        _set_den(self, None)

    @classmethod
    def _of_exact(cls, prime, v, n, d, budget):
        """The exact value p**v·n/d of ints n, d prime to p and to each
        other, d > 0; zero for n == 0."""
        self = object.__new__(cls)
        _set_prime(self, prime)
        _set_budget(self, budget)
        _set_num(self, n)
        _set_den(self, d if n else 1)
        _set_valuation(self, v if n else None)
        _set_zero_bound(self, False if n else None)
        return self

    def __getattr__(self, name):
        # called only for unset slots: the digit fields of an exact value
        # that were not read before (no digits and unit None for zero)
        if name not in ("unit", "precision") or self.den is None:
            raise AttributeError(name)
        prec = self.budget.working if self.num else 0
        mod = self.prime ** prec
        _set_precision(self, prec)
        _set_unit(self, self.num * pow(self.den, -1, mod) % mod or None)
        return getattr(self, name)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("PAdic values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, prime, bound=None, budget=DEFAULT_BUDGET):
        """Zero, or 'divisible by p**bound' when bound is an int."""
        if bound is None:
            return cls._of_exact(prime, 0, 0, 1, budget)
        return cls(prime, None, None, 0, zero_bound=bound, budget=budget,
                   _checked=True)

    @classmethod
    def from_int(cls, n, prime, budget=DEFAULT_BUDGET):
        return cls.from_rational(n, 1, prime, budget)

    @classmethod
    def from_rational(cls, num, den, prime, budget=DEFAULT_BUDGET):
        """Exact rational num/den (ints) embedded in Q_p."""
        if den == 0:
            raise ZeroDenominator("denominator is zero")
        if not is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        num, den, v = num // g, den // g, 0
        if num % prime == 0 and num:
            v = int_valuation(num, prime)
            num //= prime ** v
        elif den % prime == 0:
            v = -int_valuation(den, prime)
            den //= prime ** -v
        return cls._of_exact(prime, v, num, den, budget)

    @classmethod
    def from_digits(cls, num, floor, prime, budget=DEFAULT_BUDGET):
        """The exact value num·p**floor of ints; p is taken to be prime."""
        w = int_valuation(num, prime) if num else 0
        return cls._of_exact(prime, floor + w, num // prime ** w, 1, budget)

    @classmethod
    def from_fraction(cls, frac, prime, budget=DEFAULT_BUDGET):
        """Exact rational ``frac`` (a Fraction or an int) embedded in Q_p."""
        return cls.from_rational(frac.numerator, frac.denominator, prime,
                                 budget)

    # -- predicates and views ----------------------------------------------

    @property
    def exact(self):
        """The value as a Fraction; None unless it is exact."""
        if self.den is not None:
            p, v = self.prime, self.valuation or 0
            return Fraction(self.num * p ** max(v, 0),
                            self.den * p ** max(-v, 0))

    @property
    def is_zero(self) -> bool:
        return self.zero_bound is not False

    @property
    def is_exact_zero(self) -> bool:
        return self.zero_bound is None

    @property
    def known_exponent(self):
        """The value is determined modulo p**known_exponent; None only for
        an exact zero.  A nonzero exact value gives valuation + working, as
        ``__add__`` needs, yet its ``residue`` reads any depth."""
        if self.is_zero:
            return self.zero_bound
        return self.valuation + self.precision

    def norm(self) -> Fraction:
        """p-adic absolute value p**(-valuation); 0 for (to-precision) zero.

        For a zero-to-precision value the true norm may be anything up to
        p**(-zero_bound); ``is_zero`` flags that 0 is only an upper bound.
        """
        if self.is_zero:
            return Fraction(0)
        p, v = self.prime, self.valuation
        return Fraction(p ** max(-v, 0), p ** max(v, 0))

    def digits(self):
        """Significant base-p digits, least significant first; d0 != 0."""
        if self.is_zero:
            return []
        u, out = self.unit, []
        for _ in range(self.precision):
            out.append(u % self.prime)
            u //= self.prime
        return out

    def residue(self, exponent: int) -> Fraction:
        """Canonical representative of the value modulo p**exponent: the
        digits below ``exponent``, as an exact Fraction in [0, ...).
        Errors when the expansion is not known that far."""
        r, e = self.residue_pair(exponent)
        return Fraction(r, self.prime ** -e)

    def residue_pair(self, exponent: int):
        """``residue`` as the ints (r, e) of the module's ``residue``."""
        p, v, n, d = self.prime, self.valuation, self.num, self.den
        if d is None:                        # digits, or zero to precision
            known = self.known_exponent
            if known is not None and known < exponent:
                raise PrecisionExhausted(
                    f"{'zero only' if self.is_zero else 'value'} known "
                    f"modulo p^{known}, need p^{exponent}")
            n, d = self.unit, 1
        if not n or v >= exponent:
            return 0, 0
        mod = p ** (exponent - v)
        kept = n * pow(d, -1, mod) % mod    # prime to p, as n and d are
        return (kept * p ** v, 0) if v >= 0 else (kept, v)

    def with_known_exponent(self, exponent: int) -> "PAdic":
        """Forget digits at and above ``exponent`` (weaken the knowledge).

        Used when a computed value is only certified modulo p**exponent,
        e.g. the limit of a convergent series summed to finitely many terms.
        An exact value is always cut there, its unit read from num/den (its
        ``unit`` has only working digits); digits known less far are kept.
        """
        if self.is_zero:
            if self.zero_bound is None or self.zero_bound >= exponent:
                return PAdic.zero(self.prime, exponent, self.budget)
            return self
        if self.den is None and self.known_exponent <= exponent:
            return self
        if self.valuation >= exponent:
            return PAdic.zero(self.prime, exponent, self.budget)
        # a deliberate weakening, so the min_acceptable floor does not apply
        mod = self.prime ** (exponent - self.valuation)
        unit = self.unit if self.den is None \
            else self.num * pow(self.den, -1, mod)
        return PAdic(self.prime, self.valuation, unit % mod,
                     exponent - self.valuation, budget=self.budget,
                     _checked=True)

    def _require_same(self, other):
        if not isinstance(other, PAdic):
            raise TypeError(f"expected PAdic, got {type(other).__name__}")
        if self.prime != other.prime:
            raise PrimeMismatch(f"p={self.prime} vs p={other.prime}")

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, v, n, d):
        """This exact value plus the exact p**v·n/d: the sum of the
        fractions over the lower valuation, as ``Fraction`` adds them."""
        p, v1, n1, d1 = self.prime, self.valuation, self.num, self.den
        if not (n and n1):
            return PAdic._of_exact(p, v, n, d, self.budget) if n else self
        if v < v1:
            n1 *= p ** (v1 - v)
        elif v > v1:
            n, v = n * p ** (v - v1), v1
        g = gcd(d1, d)
        s = d1 // g
        t = n1 * (d // g) + n * s
        g = gcd(t, g)
        n, d = t // g, s * (d // g)
        if n % p == 0 and n:
            w = int_valuation(n, p)
            n, v = n // p ** w, v + w
        return PAdic._of_exact(p, v, n, d, self.budget)

    def __neg__(self):
        if self.den is not None:
            return PAdic._of_exact(self.prime, self.valuation, -self.num,
                                   self.den, self.budget)
        if self.is_zero:
            return self
        return PAdic(self.prime, self.valuation,
                     self.prime ** self.precision - self.unit,
                     self.precision, budget=self.budget, _checked=True)

    def __add__(self, other):
        self._require_same(other)
        if self.den is not None and other.den is not None:
            return self._plus(other.valuation, other.num, other.den)
        p, budget = self.prime, self.budget
        kx, ky = self.known_exponent, other.known_exponent
        if self.is_zero and other.is_zero:
            if kx is None and ky is None:
                return self
            bound = kx if ky is None else ky if kx is None else min(kx, ky)
            return PAdic.zero(p, bound, budget)
        if self.is_zero or other.is_zero:
            z, nz = (self, other) if self.is_zero else (other, self)
            if z.zero_bound is None:
                return nz
            known = min(z.zero_bound, nz.known_exponent)
            if nz.valuation >= known:
                return PAdic.zero(p, known, budget)
            prec = known - nz.valuation
            if prec < budget.min_acceptable:
                raise PrecisionExhausted(f"{prec} digits left after addition")
            return PAdic(p, nz.valuation, nz.unit % p ** prec, prec,
                         budget=budget, _checked=True)
        k = min(kx, ky)
        m = min(self.valuation, other.valuation)
        mod = p ** (k - m)
        total = (self.unit * p ** (self.valuation - m)
                 + other.unit * p ** (other.valuation - m)) % mod
        if total == 0:
            return PAdic.zero(p, k, budget)
        w = int_valuation(total, p)
        val = m + w
        prec = k - val
        if prec < budget.min_acceptable:
            raise PrecisionExhausted(f"{prec} digits left after cancellation")
        return PAdic(p, val, total // p ** w, prec, budget=budget, _checked=True)

    def __sub__(self, other):
        self._require_same(other)
        if self.den is not None and other.den is not None:
            return self._plus(other.valuation, -other.num, other.den)
        return self + (-other)

    def __mul__(self, other):
        self._require_same(other)
        p, budget = self.prime, self.budget
        if self.den is not None and other.den is not None:
            n1, n2, d1, d2 = self.num, other.num, self.den, other.den
            if not (n1 and n2):
                return PAdic._of_exact(p, 0, 0, 1, budget)
            g1, g2 = gcd(n1, d2), gcd(n2, d1)
            return PAdic._of_exact(p, self.valuation + other.valuation,
                                   n1 // g1 * (n2 // g2),
                                   d1 // g2 * (d2 // g1), budget)
        if self.is_zero or other.is_zero:
            if self.is_exact_zero or other.is_exact_zero:
                return PAdic.zero(p, None, budget)
            bx, by = self.zero_bound, other.zero_bound
            if self.is_zero and other.is_zero:
                bound = None if (bx is None or by is None) else bx + by
            elif self.is_zero:
                bound = None if bx is None else bx + other.valuation
            else:
                bound = None if by is None else by + self.valuation
            return PAdic.zero(p, bound, budget)
        prec = min(self.precision, other.precision)
        unit = self.unit * other.unit % p ** prec
        return PAdic(p, self.valuation + other.valuation, unit, prec,
                     budget=budget, _checked=True)

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("cannot invert a (to-precision) zero")
        p, budget = self.prime, self.budget
        if self.den is not None:
            n, d = (self.num, self.den) if self.num > 0 \
                else (-self.num, -self.den)
            return PAdic._of_exact(p, -self.valuation, d, n, budget)
        prec = self.precision
        unit = pow(self.unit % p ** prec, -1, p ** prec)
        return PAdic(p, -self.valuation, unit, prec, budget=budget,
                     _checked=True)

    def __truediv__(self, other):
        return self * other.inverse()

    # -- text ---------------------------------------------------------------

    def render(self) -> str:
        """Log/CSV form: the exact rational when known, else the digit form
        "p^v * (d0.d1...)_p"; to-precision zero as "0 (mod p^k)"."""
        if self.den is not None:
            return str(self.exact)
        if self.is_zero:
            if self.zero_bound is None:
                return "0"
            return f"0 (mod {self.prime}^{self.zero_bound})"
        ds = ".".join(str(d) for d in self.digits())
        return f"{self.prime}^{self.valuation} * ({ds})_{self.prime}"

    __repr__ = render

    def __eq__(self, other):
        if not isinstance(other, PAdic):
            return NotImplemented
        if self.den is None:
            return other.den is None \
                and _digit_fields(self) == _digit_fields(other)
        return _exact_fields(self) == _exact_fields(other)

    def __hash__(self):
        # what equal values share
        return hash((self.prime, self.valuation, self.zero_bound))


# Slot setters that bypass the immutability guard, cheaper than
# object.__setattr__.
(_set_prime, _set_valuation, _set_unit, _set_precision, _set_zero_bound,
 _set_budget, _set_num, _set_den) = (PAdic.__dict__[name].__set__
                                     for name in PAdic.__slots__)


_RATIONAL_RE = re.compile(r"^([+-]?\d+)\s*(?:/\s*(\d+))?$")
_DIGITS_RE = re.compile(r"^(\d+)\^([+-]?\d+)\s*\*\s*\(([\d.]+)\)_(\d+)$")


def parse_padic(text: str, prime: int, budget=DEFAULT_BUDGET) -> PAdic:
    """Parse "num/den", "int" or the digit rendering back into a value."""
    text = text.strip()
    m = _RATIONAL_RE.match(text)
    if m:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
        return PAdic.from_rational(num, den, prime, budget)
    m = _DIGITS_RE.match(text)
    if m:
        p, val, digit_str, p2 = int(m.group(1)), int(m.group(2)), m.group(3), int(m.group(4))
        if p != prime or p2 != prime:
            raise PrimeMismatch(f"literal base {p2 if p == prime else p} "
                                f"vs configured prime {prime}")
        digits = [int(d) for d in digit_str.split(".")]
        if not digits or digits[0] == 0:
            raise MalformedSyntax(f"leading digit must be nonzero in {text!r}")
        unit = sum(d * prime ** i for i, d in enumerate(digits))
        return PAdic(prime, val, unit, len(digits), budget=budget)
    raise MalformedSyntax(f"cannot parse p-adic literal {text!r}")
