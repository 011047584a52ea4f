"""Exact integer walk engine on the digit grid, for both realizations.

Every exact p-adic atom is on the digit grid, (txn/d·p**txe, u·p**phi)
with its translation denominator d and scale unit u prime to p.  An
element reached by a walk is kept as the scale exponent ``s``, its unit
(for a walk, the counts of the atoms of unit other than 1) and the
translation ``num·p**floor``, so a step costs a few integer operations
instead of exact ``PAdic`` arithmetic.  On a ``plain`` law (every u and
d 1) the translation is an exact integer sum; otherwise each term is
multiplied by the running unit product (its inverse on the left walk)
and reduced modulo the digits a read can see, so every read is exact
and no number grows with the walk.  A lamp element is a digit grid
without carries (``LampGrid``): for prime q, Z/q ≀ Z is the subgroup of
Aff(F_q((t))) with monomial scales (Cartwright, Kaimanovich & Woess,
Ann. Inst. Fourier 44, 1994), so one body of code serves both.  The lamp
classes hold their lamps in that packed form (``tree.pack``), so the
law's form reads their fields as they are and adds them with the same
field sums.  Group elements and ends are built once, when a walk is
done, and every read is an integer read that gives what the generic
arithmetic of ``group`` gives on the same element, errors included,
but that the limit measure's hits are decided also where generic
cancellation refuses a digit the end knows.

Walks run as batches, one keyed stream each, read block by block
(``blocks``): atom indices, heights, unit counts and the exponents of
translation terms, for the potential kernel, certified boundary limits
and ladder excursions alike (these count their units as they step, and
not at all on a plain form).  ``block_terms`` is a block's one term
table, for the kernel and the certified limits, and ``vertex_test`` the
one integer read of an event, for the kernel's states and the limit
measure's (``hit_state``); ``reader`` reads excursion prefixes against
discs on an end cut to a window (``point``, ``image_key``).
``GridLaw.characters`` is the digit grid's character table, for the
exact oracle of plain laws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter

import numpy as np

from .errors import IndistinguishableAtPrecision, PrecisionExhausted
from .group import LampAffine, PadicAffine, require_exact
from .padic import PAdic, PrecisionBudget, int_valuation, residue
from .tree import cut, lamp_form, same_realization

BATCH_ROWS = 128      # walks of a batch (``blocks``) walked together
BATCH_COLS = 128      # steps each of them draws at a time


@dataclass(frozen=True)
class GridLaw:
    """A p-adic step law on the digit grid, atom k being
    (c_k·p**txe, u_k·p**phi) for ``steps[k] == (txn, txe, phi)``, c_k =
    txn/d_k: ``units`` holds (k, u_k) for each atom whose scale unit u_k
    is not 1, and ``coefs`` the c_k."""

    prime: int
    steps: tuple
    budget: PrecisionBudget
    thresholds: np.ndarray
    units: tuple = ()
    coefs: tuple = ()

    key_reach = 0    # ``key(.., depth)`` reads terms at exponents < depth
    kind = "padic"
    degree = property(attrgetter("prime"))

    @classmethod
    def of(cls, law) -> "GridLaw":
        """The grid form of a p-adic ``law`` of exact atoms."""
        grid = cls(law.degree, (), law.atoms[0].a.budget, law.thresholds)
        parts = [grid.start(atom) for atom in law.atoms]
        coefs = tuple(Fraction(num) for _, _, num, _ in parts)
        units = tuple((k, u) for k, (_, u, _, _) in enumerate(parts) if u != 1)
        steps = tuple((c.numerator, floor, s)
                      for (s, _, _, floor), c in zip(parts, coefs))
        return replace(grid, steps=steps, units=units, coefs=coefs)

    @functools.cached_property
    def plain(self) -> bool:
        """Whether every scale unit and denominator is 1."""
        return not self.units and all(c.denominator == 1 for c in self.coefs)

    def start(self, g) -> tuple:
        """(s, u, num, floor) of an exact element: the scale u·p**s and
        the translation num·p**floor, num prime to p and floor its
        valuation, or (0, 0); u and num ints where they are integers and
        Fractions (denominator prime to p) otherwise."""
        same_realization(self, g)
        require_exact(g)
        t, a = g.t, g.a
        u = a.num if a.den == 1 else Fraction(a.num, a.den)
        num = t.num if t.den == 1 else Fraction(t.num, t.den)
        return a.valuation, u, num, t.valuation or 0   # None for t == 0

    def unit(self, counts, m, *scales) -> int:
        """The product of ``scales`` (rationals with denominators prime to
        p) and of u_k**c over the ``units`` and their ``counts`` c (of any
        sign), modulo p**m, as an int in [0, p**m)."""
        mod = self.prime ** m
        r = math.prod(_mod(x, mod) for x in scales)
        for (_, u), c in zip(self.units, counts):
            r = r * pow(_mod(u, mod), c, mod)
        return r % mod

    def sum(self, num, floor, n, e):
        """(num', floor') with num'·p**floor' == num·p**floor + n·p**e."""
        if not num:
            return n, e
        if e < floor:
            return num * self.prime ** (floor - e) + n, e
        return num + n * self.prime ** (e - floor), floor

    def key(self, num, floor, depth):
        """Id of the depth-``depth`` disc below the translation."""
        return residue(num, floor, depth, self.prime)

    def disc_id(self, key) -> Fraction:
        """The residue a ``key`` stands for, as ``PAdic.residue`` gives it."""
        r, e = key
        return Fraction(r, self.prime ** -e)

    def element(self, state) -> PadicAffine:
        """The exact group element of a state (s, u, num, floor): the
        scale u·p**s and the translation num·p**floor, u and num ints or
        Fractions with denominators prime to p, as ``start`` gives them."""
        s, u, num, floor = state
        p, budget = self.prime, self.budget
        t = PAdic.from_digits(num.numerator, floor, p, budget) \
            if num.denominator == 1 \
            else PAdic.from_fraction(num * Fraction(p) ** floor, p, budget)
        return PadicAffine(t, PAdic._of_exact(p, s, u.numerator,
                                              u.denominator, budget))

    def point(self, end):
        """(end, valuation, unit, digits) of an end known modulo p**k, as
        ``limit_end`` cuts it: the unit cut to its digits, and (end, k, 0,
        0) for a zero to that precision.  An exact end raises
        ``ValueError``, and the top end, of no realization,
        ``RealizationMismatch``: the engine reads only cut ends."""
        same_realization(self, end)
        x = end.value
        if x.den is not None:
            raise ValueError(f"{end!r} is exact; the engine reads ends "
                             "known modulo a power of p")
        if x.is_zero:
            return end, x.zero_bound, 0, 0
        # a·x keeps the digits of the shorter operand; a is exact
        prec = min(x.precision, self.budget.working)
        return end, x.valuation, x.unit % self.prime ** prec, prec

    def image_key(self, point, s, t, h):
        """The key at depth h - s of x + t, for the ``point`` x and t =
        (num, floor), that tells whether p**s·(x + t) lies in a disc of
        height h.  x + t is known modulo p**known: x keeps its digits (a
        zero to precision p**k none below k), and for t != 0
        ``PAdic.__add__`` keeps at most v(t) + working digits and refuses
        a nonzero sum with fewer than ``min_acceptable`` significant ones.
        A read below that window raises ``PrecisionExhausted`` as the
        generic one does, with the image's exponents."""
        _, val, y, prec = point    # y: x's digits, then x + t's over base
        p, h = self.prime, h - s
        known, (num, floor), base = val + prec, t, val
        if num:                     # else the image is p**s·x
            budget = self.budget
            if floor + budget.working < known:
                known = min(known,
                            floor + int_valuation(num, p) + budget.working)
            base = min(val, floor)
            y = (y * p ** (val - base) + num * p ** (floor - base)) \
                % p ** (known - base)
            if not y:                          # zero to precision p**known
                if known >= h:
                    return 0, 0
                raise PrecisionExhausted(
                    f"zero only known modulo p^{known + s}, need p^{h + s}")
            val = base + int_valuation(y, p)
            if known - val < budget.min_acceptable:
                raise PrecisionExhausted(
                    f"{known - val} digits left after cancellation")
        if val >= h:
            return 0, 0
        if known < h:
            raise PrecisionExhausted(
                f"value known modulo p^{known + s}, need p^{h + s}")
        return residue(y, base, h, p)

    def hit_state(self, f):
        """``state(translation, unit)``: the engine state (s, u, num,
        floor) of s**level·x^{-1}, for the ``_mbar_rows`` element x whose
        end has that translation (num, floor), known at least to the
        highest source, top, and whose rotation unit is ``unit``.
        ``vertex_test`` adds u·c at s + ce, for each source's center c =
        cn·p**ce, to the translation -p**level·x·u and reads the sum below
        the source's height moved up by level: so the state keeps x's
        digits below top, n·p**e, moved up by level, and u is unit**-1
        modulo the digits (x - c)·u keeps there, p**(top - min(e, ce))."""
        level, p = f.level, self.prime
        top = max(src.height for src in f.sources)
        low = min((src.floor for src in f.sources if src.num), default=top)

        def state(t, unit):
            n, e = self.key(*t, top)        # x mod p**top is n·p**e
            mod = p ** (top - min(e, low))
            u = pow(unit, -1, mod)
            return level, u, -n * u % mod, e + level
        return state

    def characters(self, width):
        """(count, phases) of the characters k < count of Z/M, M = p**width,
        the real-FFT half k <= M/2 (k and M - k are conjugate on a real
        function); ``phases(txn, cells)[k, i]`` is ω**(k·txn·p**cells[i]),
        ω = exp(-2πi/M): what adding that term, cell 0 the lowest digit,
        puts on character k."""
        p, M = self.prime, self.prime ** width
        ks = np.arange(M // 2 + 1)
        roots = np.exp(-2j * np.pi / M * np.arange(M))

        def phases(txn, cells):
            shift = [txn * pow(p, int(c), M) % M for c in cells]
            return roots[np.outer(ks, np.array(shift, np.int64)) % M]
        return len(ks), phases

    def disc_sums(self, width, hat, discs):
        """Per disc (j, c), the sum over the cells x = c mod p**j of the
        real function on Z/p**width whose ``characters`` are ``hat[j]``."""
        p = self.prime
        cells = np.fft.irfft(hat[:width + 1], n=p ** width, axis=1)
        return [float(cells[j].reshape(-1, p ** j)[:, c].sum())
                for j, c in discs]


class LampGrid:
    """A lamplighter law on the digit grid without carries, atom k being
    shift ``steps[k][2]`` with the packed lamps ``steps[k][:2]`` (the
    form of ``tree.pack``); a state (s, 1, num, floor) has shift s and
    the packed lamps (num, floor)."""

    key_reach = 1    # ``key(.., depth)`` reads terms at exponents <= depth
    kind = "lamplighter"
    degree = property(attrgetter("q"))
    units = ()       # a lamp law is ``plain``: its scales are shifts
    plain = True

    def __init__(self, law):
        self.q = law.degree
        self.width, self.sum, self.neg = lamp_form(self.q)
        self.steps = tuple((a.num, a.floor, a.shift) for a in law.atoms)
        self.thresholds = law.thresholds

    def start(self, g) -> tuple:
        """(shift, 1, num, floor) of a start element known everywhere."""
        same_realization(self, g)
        require_exact(g)
        return g.shift, 1, g.num, g.floor

    def key(self, num, floor, depth):
        """The lamps at positions <= depth, packed and canonical: the
        ``lamps_to`` and ``disc_key`` of the lamp classes."""
        return cut(num, floor, depth, self.width)

    def disc_id(self, key) -> tuple:
        return key

    def element(self, state) -> LampAffine:
        s, _, num, floor = state
        return LampAffine._of(self.q, *cut(num, floor, None, self.width), s,
                              None)

    def point(self, end):
        """(end, num, floor) of an end; the top end raises
        ``RealizationMismatch``."""
        same_realization(self, end)
        return end, end.num, end.floor

    def image_key(self, point, s, t, h):
        """``GridLaw.image_key``; above the image's window, end.known_to
        + s, it raises as ``LampEnd.in_disc`` does."""
        end, num, floor = point
        if h - s > end.known_to:
            raise IndistinguishableAtPrecision(
                f"disc at height {h} beyond known window "
                f"(<= {end.known_to + s})")
        return self.key(*self.sum(*t, num, floor), h - s)

    def hit_state(self, f):
        """``GridLaw.hit_state``: x^{-1} has the end's lamps negated, and
        s**level moves them up by level."""
        level, neg = f.level, self.neg
        return lambda t, unit: (level, 1, neg(t[0]), t[1] + level)


@functools.lru_cache(maxsize=1024)
def _mod(x, mod):
    """The rational ``x``, its denominator prime to p, modulo ``mod`` =
    p**m, as an int in [0, mod)."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, mod) % mod


def inverse_cdf(thresholds, u):
    """The atom indices a law with cumulative ``thresholds`` reads from
    uniforms ``u``, a float or an array of any shape: the count of the
    thresholds but the last at or below u.  That is searchsorted(side=
    "right") clamped to the last atom, one comparison per atom instead
    of a binary search per uniform."""
    k = np.zeros(u.shape, np.intp) if isinstance(u, np.ndarray) else 0
    for t in thresholds[:-1].tolist():
        k += u >= t
    return k


@functools.lru_cache(maxsize=64)
def _step_columns(steps, units):
    """(phis, txes, ids) of a form's steps and unit atoms as arrays,
    shared and never written; an atom without a translation term has its
    exponent far above every cut."""
    return (np.array([ph for _, _, ph in steps]),
            np.array([e if n else 2 ** 62 for n, e, _ in steps]),
            np.array([k for k, _ in units], dtype=np.intp))


def row_units(b, rows, cols, after=False):
    """Per (row, column) of a block, the counts of the unit atoms before
    that step (with it if ``after``) as a tuple, () on a plain form."""
    if b.units is None:
        return [()] * len(rows)
    return list(map(tuple, b.units[rows, cols + after].tolist()))


class Block:
    """Steps n0 + 1 .. n0 + size of the walks of a batch still running.

    ``live`` holds their ranks among the batch's rows, ``k`` their atom
    indices, ``path`` their heights before the block and after each of
    its steps, ``units`` likewise the counts of each unit atom of the form
    (None on a form without units), and ``exps`` the exponent of each
    step's translation term, read by ``block_terms`` alone.
    The reader of a block sets ``going``, the entries of ``live`` (a mask
    or a list) that walk on into the next block; it may write the first
    column of ``path``.
    """

    __slots__ = ("live", "n0", "k", "path", "units", "exps", "going")


def row_chunks(count):
    """The rows 0..count-1 of a batch of walks, ``BATCH_ROWS`` at a
    time."""
    for a in range(0, count, BATCH_ROWS):
        yield np.arange(a, min(a + BATCH_ROWS, count))


def blocks(grid: GridLaw, read, rows, s0, horizon):
    """The walks ``rows`` on the engine form ``grid``, all from height
    ``s0``, block by block up to ``horizon`` steps, as ``Block``s.

    Walk ``rows[r]`` takes one atom per uniform of ``read(ids, start,
    size)``, the uniforms ``start`` to ``start + size`` of each of the
    walks ``ids``.  A batch of ``BATCH_ROWS`` rows in blocks of
    ``BATCH_COLS`` steps keeps the arrays near 128 KB.
    """
    phis, txes, ids = _step_columns(grid.steps, grid.units)
    height = np.full(len(rows), s0, dtype=np.int64)
    counts = ids.size and np.zeros((len(rows), ids.size), dtype=np.int64)
    b = Block()
    b.live, b.n0, b.units = np.arange(len(rows)), 0, None
    while b.live.size and b.n0 < horizon:
        size = min(BATCH_COLS, horizon - b.n0)
        b.k = inverse_cdf(grid.thresholds, read(rows[b.live], b.n0, size))
        b.path = np.empty((b.live.size, size + 1), dtype=np.int64)
        b.path[:, 0] = height[b.live]
        b.path[:, 1:] = phis[b.k]
        b.path.cumsum(axis=1, out=b.path)
        if ids.size:
            b.units = np.empty((b.live.size, size + 1, ids.size), np.int64)
            b.units[:, 0] = counts[b.live]
            b.units[:, 1:] = b.k[:, :, None] == ids
            b.units.cumsum(axis=1, out=b.units)
            counts[b.live] = b.units[:, -1]
        b.exps = b.path[:, :-1] + txes[b.k]
        b.going = None
        yield b
        height[b.live] = b.path[:, -1]
        b.live = b.live[b.going]
        b.n0 += size


def block_terms(grid, b, cut, scale=1, reach=None):
    """The translation terms of a block's steps at exponents below
    ``cut``, as (at, cols, exps, coefs): row i of ``b.live`` has the
    terms at[i] .. at[i + 1] - 1, in step order, each with its column,
    exponent and coefficient.  The coefficient is scale·txn on a
    ``plain`` form with an integral ``scale``, else the unit of the
    counts before the step times scale·c_k, modulo p**(cut - exponent).
    With ``reach``, row i keeps only its terms in columns below
    reach[i]."""
    size = b.exps.shape[1]
    flat = (b.exps < cut).ravel().nonzero()[0]
    if reach is not None:
        flat = flat[flat % size < reach[flat // size]]
    cols = flat % size
    exps, ks = b.exps.take(flat).tolist(), b.k.take(flat).tolist()
    if grid.plain and scale.denominator == 1:
        txns = [scale * txn for txn, _, _ in grid.steps]
        coefs = [txns[j] for j in ks]
    else:
        coefs = [grid.unit(c, cut - x, scale, grid.coefs[j])
                 for j, c, x in zip(ks, row_units(b, flat // size, cols),
                                    exps)]
    # row i's terms are the flat indices in [i·size, (i + 1)·size)
    at = flat.searchsorted(np.arange(0, b.exps.size + 1, size)).tolist()
    return at, cols.tolist(), exps, coefs


# -- integer reads --------------------------------------------------------------


def vertex_test(grid, sources, targets):
    """``test(s, u, num, floor)``: whether the element of the engine form
    ``grid`` maps each source vertex into the disc of its target
    (``act_vertex(g, src) == tgt`` for sources and targets at the
    element's height displacement).  The image of a source adds its
    digits, times u, at their exponents shifted by s."""
    pairs = [(x.num, x.floor, y.height, grid.key(y.num, y.floor, y.height))
             for x, y in zip(sources, targets)]

    def test(s, u, num, floor):
        for cn, ce, h, want in pairs:
            t = grid.sum(num, floor, u * cn, s + ce) if cn else (num, floor)
            if grid.key(*t, h) != want:
                return False
        return True
    return test


def reader(grid, end):
    """``read(s, c, members, discs)``: per disc, the total multiplicity
    of the ``members`` (t, m) whose prefix state (s, c, t) maps ``end``
    into it: whether u·p**s·(x + t), u the unit of the counts c, lies in
    the disc, errors included, as generic arithmetic reads it of the
    element (s, u, u·t·p**s) of the engine form ``grid``.  That holds iff
    x + t lies in the disc moved by u**-1·p**-s, read at depth h - s:
    so each member reads one key per disc height (``image_key``), and
    each disc, moved once, looks its key up among them."""
    point = grid.point(end)

    def read(s, c, members, discs):
        out = [0] * len(discs)
        for h in dict.fromkeys(d.height for d in discs):
            tally = {}
            for t, m in members:
                key = grid.image_key(point, s, t, h)
                tally[key] = tally.get(key, 0) + m
            for i, disc in enumerate(discs):
                if disc.height == h:
                    num, floor = disc.num, disc.floor
                    if c and h > floor:
                        num = grid.unit([-n for n in c], h - floor, num)
                    out[i] = tally.get(grid.key(num, floor - s, h - s), 0)
        return out
    return read
