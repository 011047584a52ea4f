"""Exact integer walk engine for p-adic laws on the digit grid.

A law is on the digit grid when every atom is (txn·p**txe, p**phi): its
scale is a plain power of p and its translation has a p-power
denominator.  An element reached by such a walk is kept as the scale
exponent ``s``, a positive integer unit ``u`` (a = u·p**s, u prime to p)
and the translation ``num·p**floor``, so a step costs a few integer
operations instead of exact ``PAdic`` arithmetic.  Group elements and
ends are built once, when a walk is done, and every read (residues, the
disc a moved boundary point lands in) gives what the generic arithmetic
of ``group`` gives on the same element, errors included.

Atom indices are drawn in blocks.  They are the indices of repeated
``StepLaw.sample_index`` on the same generator, and on leaving a
``Draws`` context the generator is where those scalar draws leave it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PrecisionExhausted
from .group import PadicAffine, act_end, phi
from .padic import PAdic, PrecisionBudget, int_valuation
from .tree import end_in_disc

FIRST_BLOCK = 64      # uniforms drawn at first
BLOCK = 512           # at most at a time
IDENTITY = (0, 1, 0, 0)   # (s, u, num, floor) of the identity


def split(x: Fraction, p: int):
    """(num, e) with x == num·p**e and e <= 0, or None when the
    denominator of x is not a power of p."""
    den = x.denominator
    if den == 1:
        return x.numerator, 0
    dv = int_valuation(den, p) if den % p == 0 else 0
    return (x.numerator, -dv) if den == p ** dv else None


@dataclass(frozen=True)
class GridLaw:
    """A p-adic step law on the digit grid, atom k being
    (txn·p**txe, p**phi) for ``steps[k] == (txn, txe, phi)``."""

    prime: int
    steps: tuple
    budget: PrecisionBudget
    thresholds: np.ndarray

    @classmethod
    def of(cls, law) -> "GridLaw | None":
        """The grid form of ``law``; None when it is not on the grid."""
        if not law.is_padic:
            return None
        p = law.degree
        steps = []
        for atom in law.atoms:
            t, a = atom.t.exact, atom.a.exact
            if t is None or a is None:
                return None
            ph = phi(atom)
            if a != (Fraction(p ** ph) if ph >= 0 else Fraction(1, p ** -ph)):
                return None
            txn = split(t, p)
            if txn is None:
                return None
            steps.append((*txn, ph))
        return cls(p, tuple(steps), law.atoms[0].a.budget, law.thresholds)

    def start(self, g) -> "tuple | None":
        """(s, u, num, floor) of a start element; None when its scale is
        not a positive integer unit times a power of p or its translation
        is off the grid."""
        if not isinstance(g, PadicAffine) or g.prime != self.prime:
            return None
        t, a = g.t.exact, g.a.exact
        if t is None or a is None:
            return None
        p = self.prime
        s = phi(g)
        u = a * p ** -s if s <= 0 else a / p ** s
        tt = split(t, p)
        if u.denominator != 1 or u <= 0 or tt is None:
            return None
        return s, int(u), *tt


def atom_index(grid: GridLaw, u):
    """The atom indices ``StepLaw.sample_index`` reads from uniforms
    ``u``, an array of any shape."""
    return np.minimum(np.searchsorted(grid.thresholds, u, side="right"),
                      len(grid.steps) - 1)


def _blocks(grid: GridLaw, rng):
    """Blocks of atom indices; they double in size up to ``BLOCK``, so a
    short walk draws few uniforms it does not use."""
    size = FIRST_BLOCK
    while True:
        yield atom_index(grid, rng.random(size)).tolist()
        size = min(2 * size, BLOCK)


class Draws:
    """Atom indices for walks that share one generator, as a context.

    ``next()`` hands out the indices of repeated ``law.sample_index(rng)``.
    On exit the generator is put back where one such scalar draw per
    index handed out would leave it, so whatever draws from it next sees
    the same uniforms as after the scalar path.
    """

    def __init__(self, grid: GridLaw, rng):
        self.grid = grid
        self._rng = rng
        self._mark = None    # generator state before the current block
        self._used = 0       # indices of the current block handed out
        self.next = self._indices().__next__

    def _indices(self):
        blocks = _blocks(self.grid, self._rng)
        while True:
            self._mark = self._rng.bit_generator.state
            for self._used, k in enumerate(next(blocks), 1):
                yield k

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._mark is not None:
            self._rng.bit_generator.state = self._mark
            self._rng.random(self._used)
        self.next = None


# -- integer reads --------------------------------------------------------------


def shifted_sum(num, floor, n, e, p):
    """(num', floor') with num'·p**floor' == num·p**floor + n·p**e."""
    if not num:
        return n, e
    if e < floor:
        return num * p ** (floor - e) + n, e
    return num + n * p ** (e - floor), floor


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


def residue_is(num, floor, h, center: Fraction, p) -> bool:
    """Whether num·p**floor modulo p**h is the canonical residue ``center``."""
    r, e = residue(num, floor, h, p)
    return center.numerator == r and center.denominator == p ** -e


def element(grid: GridLaw, state) -> PadicAffine:
    """The exact group element of a state (s, u, num, floor)."""
    s, u, num, floor = state
    p, budget = grid.prime, grid.budget
    t = Fraction(num * p ** floor) if floor >= 0 else Fraction(num, p ** -floor)
    a = Fraction(u * p ** s) if s >= 0 else Fraction(u, p ** -s)
    return PadicAffine(PAdic.from_fraction(t, p, budget),
                       PAdic.from_fraction(a, p, budget))


def vertex_test(grid: GridLaw, sources, targets):
    """``test(s, u, num, floor)``: whether the element maps each source
    vertex into the disc of its target (``act_vertex(g, src) == tgt``
    for sources and targets at the element's height displacement)."""
    p = grid.prime
    pairs = [(*split(x.center, p), y.height, y.center)
             for x, y in zip(sources, targets)]

    def test(s, u, num, floor):
        for cn, ce, h, c in pairs:
            n, e = shifted_sum(num, floor, u * cn, s + ce, p) if cn \
                else (num, floor)
            if not residue_is(n, e, h, c, p):
                return False
        return True
    return test


class GridPoint:
    """A boundary point prepared for ``prefix_in_disc``.  Exact and
    zero-to-precision points stay on the generic path."""

    __slots__ = ("end", "generic", "val", "unit", "prec")

    def __init__(self, end, grid: GridLaw):
        x = end.value
        self.end = end
        self.generic = x.exact is not None or x.is_zero
        if not self.generic:
            # a·x keeps the digits of the shorter operand; a is exact
            self.val, self.unit = x.valuation, x.unit
            self.prec = min(x.precision, grid.budget.working)


def _precision_exhausted(known, h):
    return PrecisionExhausted(f"value known modulo p^{known}, need p^{h}")


def prefix_in_disc(grid: GridLaw, state, point: GridPoint, disc) -> bool:
    """``end_in_disc(act_end(g, point.end), disc)`` for the grid element
    g of ``state``, on integers.

    The image a·x + t is known modulo p**known, where a·x keeps the
    digits of x shifted by s and, for t != 0, ``PAdic.__add__`` keeps no
    more than v(t) + working digits and refuses a nonzero sum with fewer
    than ``min_acceptable`` significant digits.  Reading the disc below
    that window raises ``PrecisionExhausted``, as the generic path does.
    """
    if point.generic:
        return end_in_disc(act_end(element(grid, state), point.end), disc)
    s, u, num, floor = state
    p, h, center = grid.prime, disc.height, disc.center
    lead = s + point.val                   # valuation of a·x
    known = lead + point.prec
    prod = u * point.unit % p ** point.prec
    if not num:                            # t = 0: the image is a·x
        if lead >= h:
            return center == 0
        if known < h:
            raise _precision_exhausted(known, h)
        return residue_is(prod, lead, h, center, p)
    budget = grid.budget
    if floor + budget.working < known:
        known = min(known, floor + int_valuation(num, p) + budget.working)
    base = min(lead, floor)
    y = (prod * p ** (lead - base) + num * p ** (floor - base)) \
        % p ** (known - base)
    if not y:                              # zero to precision p**known
        if known >= h:
            return center == 0
        raise PrecisionExhausted(
            f"zero only known modulo p^{known}, need p^{h}")
    val = base + int_valuation(y, p)
    if known - val < budget.min_acceptable:
        raise PrecisionExhausted(
            f"{known - val} digits left after cancellation")
    if val >= h:
        return center == 0
    if known < h:
        raise _precision_exhausted(known, h)
    return residue_is(y, base, h, center, p)


# -- walks -----------------------------------------------------------------------


class GridWalk:
    """A walk's element (num·p**floor, u·p**s) on a grid law.

    ``right()`` and ``left()`` multiply by the next drawn atom on that
    side and return the new height; ``walk.py`` runs its loops on this
    class and on a generic twin with the same methods.
    """

    __slots__ = ("grid", "next", "p", "steps", "s", "u", "num", "floor")

    def __init__(self, draws: Draws, state=IDENTITY):
        grid = draws.grid
        self.grid, self.next, self.p, self.steps = \
            grid, draws.next, grid.prime, grid.steps
        self.s, self.u, self.num, self.floor = state

    def _add(self, n, e):
        """t += n·p**e"""
        self.num, self.floor = shifted_sum(self.num, self.floor, n, e, self.p)

    def right(self) -> int:
        """g -> g·x for a drawn atom x."""
        txn, txe, ph = self.steps[self.next()]
        if txn:
            self._add(self.u * txn, self.s + txe)
        self.s += ph
        return self.s

    def left(self) -> int:
        """g -> x·g for a drawn atom x."""
        txn, txe, ph = self.steps[self.next()]
        self.s += ph
        self.floor += ph
        if txn:
            self._add(txn, txe)
        return self.s

    def right_by(self, other: "GridWalk") -> int:
        """g -> g·h for the element h another walk has reached."""
        if other.num:
            self._add(self.u * other.num, self.s + other.floor)
        self.u *= other.u
        self.s += other.s
        return self.s

    def key(self, depth):
        """Id of the depth-``depth`` disc below the element's position."""
        return residue(self.num, self.floor, depth, self.p)

    def disc_id(self, key) -> Fraction:
        """The residue a ``key`` stands for, as ``PAdic.residue`` gives it."""
        r, e = key
        return Fraction(r, self.p ** -e)

    def snapshot(self):
        return self.s, self.u, self.num, self.floor

    def element(self) -> PadicAffine:
        return element(self.grid, self.snapshot())

    def element_of(self, state) -> PadicAffine:
        return element(self.grid, state)

    def point(self, end) -> GridPoint:
        return GridPoint(end, self.grid)

    def lands_in(self, state, point: GridPoint, disc) -> bool:
        return prefix_in_disc(self.grid, state, point, disc)
