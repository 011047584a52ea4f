"""Potential-kernel estimation and renewal-based invariant measures.

The potential kernel at g of a cylinder event counts the expected visits
of g·R_n to the event.  Ladder excursions of the height process yield
the invariant boundary measure (the excursion-average estimator) and the
renewal product identity; the boundary limit of the kernel along the
reference homothety is matched against an independent estimator built
from the inverted walk's harmonic measure extended by rotation averaging.

Laws with an engine form (``StepLaw.grid``: the p-adic digit grid, or
lamp digits added without carries) run on the integer engine of
``grid``.  The potential kernel walks all its trajectories as one batch,
one body for both forms: numpy draws the atom indices of many keyed
streams at once (``rng.stream_rows``, read block by block by
``grid.blocks``) and sums them into heights, the stop rule is a
first-index search per trajectory, and the translation is folded by the
form's ``sum``, in exact integers, only up to the steps where the walk
is at the event's level.  The limit-measure estimator walks its
certified boundary limits as one batch as well (``walk.limit_rows``) and
reads its hits from the ends' integer digits.  The excursion estimators
walk their clusters as batches too: each cluster's ladder-walk limit and
excursions are rows of ``walk.ladder_limit_rows`` and
``walk.excursion_rows``, and a functional reads each distinct prefix
state once (``grid.reader``).  Only laws off the engine use generic
group arithmetic, one step at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    NonNegativeDrift,
    NonPositiveDrift,
    OracleUnsupported,
    PrecisionExhausted,
    RealizationMismatch,
    StepBudgetExceeded,
)
from .group import (
    PadicAffine,
    act_end,
    act_vertex,
    compose,
    invert,
    phi,
    power,
)
from .grid import blocks, reader, row_chunks, vertex_test
from .padic import PAdic
from .rng import stream, stream_rows, streams_at
from .tree import end_in_disc
from .walk import (
    DEFAULT_STEP_BUDGET,
    _end_window,
    _GenericWalk,
    excursion_rows,
    ladder_boundary_limit,
    ladder_excursion,
    ladder_heights,
    ladder_limit_rows,
    limit_rows,
    sample_boundary_limit,
)

# -- events -------------------------------------------------------------------


@dataclass(frozen=True)
class CylinderEvent:
    """V(sources -> targets): elements mapping each source vertex to its target.

    All pairs must share the same height displacement, otherwise the event
    is empty (an element moves every height by the same amount).
    """

    sources: tuple
    targets: tuple
    name: str = ""

    def __post_init__(self):
        if len(self.sources) != len(self.targets):
            raise ValueError("sources and targets must pair up")
        if not self.sources:
            raise ValueError("empty vertex list")

    @property
    def level(self):
        """The height displacement members must have; None if the event is empty."""
        levels = {t.height - s.height for s, t in zip(self.sources, self.targets)}
        return levels.pop() if len(levels) == 1 else None

    @property
    def is_empty(self) -> bool:
        return self.level is None

    def member(self, g) -> bool:
        if self.is_empty or phi(g) != self.level:
            return False
        return all(act_vertex(g, s) == t
                   for s, t in zip(self.sources, self.targets))

    def render(self) -> str:
        pairs = "; ".join(f"{s!r} -> {t!r}"
                          for s, t in zip(self.sources, self.targets))
        return self.name or pairs


@dataclass(frozen=True)
class ProductCylinder:
    """disc x z-set event on (boundary, Z); z-support must be finite, >= 0."""

    disc: object   # a vertex: the disc of ends below it
    zset: frozenset

    def __post_init__(self):
        zs = frozenset(int(z) for z in self.zset)
        if any(z < 0 for z in zs):
            raise ValueError("z-support must lie in the nonnegative integers")
        object.__setattr__(self, "zset", zs)


# -- estimates ----------------------------------------------------------------


@dataclass
class KernelEstimate:
    value: float
    stderr: float
    trajectories: int
    horizon: int
    tail_bound: float
    truncated: bool = False
    aborted: int = 0
    rho: float = 0.0            # observed re-entry frequency, before the cap
    rho_capped: bool = False    # whether TAIL_RHO_CAP bounded the tail

    def agrees_with(self, other: "KernelEstimate", sigmas=3.0) -> bool:
        """Values within ``sigmas`` standard errors plus both tail bounds,
        and neither estimate lost trajectories to precision aborts."""
        gap = abs(self.value - other.value)
        tol = sigmas * math.hypot(self.stderr, other.stderr) \
            + self.tail_bound + other.tail_bound
        return gap <= tol and not (self.aborted or other.aborted)


# -- potential kernel ---------------------------------------------------------

KERNEL_DELTA = 15
KERNEL_MIN_STEPS = 50
TAIL_RHO_CAP = 0.9
_NEVER = np.iinfo(np.int64).max


def _kernel_walk(g, f: CylinderEvent, law):
    """(engine form, start state, membership test, highest target height)
    of the integer kernel walk, or None when the law or the start element
    is off the engine."""
    grid = law.grid
    start = grid and grid.start(g)
    if not start:
        return None
    return (grid, start, vertex_test(grid, f.sources, f.targets),
            max(t.height for t in f.targets))


def _first(mask, n0):
    """Per row, the step of the first True of ``mask``, whose column c
    holds step n0 + 1 + c; _NEVER for a row with none."""
    col = mask.argmax(axis=1)
    return np.where(mask[np.arange(len(mask)), col], n0 + 1 + col, _NEVER)


def _stop_steps(heights, at, n0, level, rule, e, r):
    """The drifting stop rule on a block of steps n0 + 1, n0 + 2, ... of
    each row, given the exit and re-entry steps found so far: (e, r, end)
    with end the step a row stops at (_NEVER while it runs on), and r
    cleared for a row that stops before re-entering."""
    direction, delta, min_steps = rule
    n = np.arange(n0 + 1, n0 + 1 + heights.shape[1])
    d = (heights - level) * direction
    e = np.where(e < _NEVER, e, _first((d > delta) & (n >= min_steps), n0))
    r = np.where(r < _NEVER, r, _first(at & (n > e[:, None]), n0))
    far = _first((d > 2 * delta) & (n >= e[:, None]) & (n < r[:, None]), n0)
    end = np.minimum(far, _first((d > delta) & (n >= r[:, None]), n0))
    return e, np.where(far < _NEVER, _NEVER, r), end


def _grid_visits(walk, level, seed, label, trajectories, horizon, stop=None):
    """Kernel walks 0..trajectories-1 on the engine, as a batch.

    Trajectory i takes the uniforms of ``stream(seed, label, i)`` in
    order, one atom per uniform.  ``stop`` is (direction, delta,
    min_steps) of the drifting stop rule, or None to run the horizon.
    Each row folds its translation terms in step order, only as far as
    the visit that reads them.  Returns (rows, steps) of every visit to
    the event, as flat arrays, per trajectory its exit step E and
    re-entry step R (_NEVER when it has none), and 0: no trajectory
    loses precision on integers.  See ``potential_kernel`` for the rule.
    """
    grid, (s0, u, num0, floor0), member, top = walk
    add, steps, cut = grid.sum, grid.steps, top + grid.key_reach
    at_start = s0 == level and member(s0, u, num0, floor0)
    hit_rows, hit_steps = [], []
    exits = np.full(trajectories, _NEVER)
    backs = np.full(trajectories, _NEVER)
    reads = {}            # membership by translation: walks meet few

    def read(ids, start, size):
        return stream_rows(ids, start, size, seed, label)
    for rows in row_chunks(trajectories):
        ids = rows.tolist()
        if at_start:
            hit_rows += ids
            hit_steps += [0] * len(ids)
        carry = [(num0, floor0)] * len(rows)
        for b in blocks(grid, read, rows, s0, horizon):
            live, n0, k = b.live, b.n0, b.k
            heights = b.path[:, 1:]
            size = heights.shape[1]
            at = heights == level
            end = np.full(live.size, _NEVER)
            if stop:
                exits[rows[live]], backs[rows[live]], end = _stop_steps(
                    heights, at, n0, level, stop, exits[rows[live]],
                    backs[rows[live]])
            col = np.arange(size)
            seen = at & (col < (end - n0)[:, None])
            going = (end == _NEVER) & (n0 + size < horizon)
            # the translation is read only at visits, from the terms that
            # steps up to a row's last visit (its whole block, for a row
            # that runs on) add at exponents a read at the top height sees
            last = np.where(seen.any(axis=1),
                            size - 1 - seen[:, ::-1].argmax(axis=1), -1)
            last[going] = size - 1
            tr, tc = np.nonzero((b.exps < cut) & (col <= last[:, None]))
            vr, vc = np.nonzero(seen)
            bounds = np.arange(live.size + 1)
            t_at = tr.searchsorted(bounds).tolist()
            v_at = vr.searchsorted(bounds).tolist()
            coefs = [u * steps[j][0] for j in k[tr, tc].tolist()]
            exps, tc, vc = b.exps[tr, tc].tolist(), tc.tolist(), vc.tolist()
            live_l, going_l = live.tolist(), going.tolist()
            for i in np.flatnonzero(last >= 0).tolist():
                row, j, t1 = live_l[i], t_at[i], t_at[i + 1]
                t = carry[row]
                for v in vc[v_at[i]:v_at[i + 1]]:
                    while j < t1 and tc[j] <= v:
                        t = add(*t, coefs[j], exps[j])
                        j += 1
                    hit = reads.get(t)
                    if hit is None:
                        hit = reads[t] = member(level, u, *t)
                    if hit:
                        hit_rows.append(ids[row])
                        hit_steps.append(n0 + 1 + v)
                if going_l[i] and t1 > t_at[i]:
                    for j in range(j, t1):
                        t = add(*t, coefs[j], exps[j])
                    carry[row] = grid.key(*t, top)   # drop what no read sees
            b.going = going
    return (np.array(hit_rows, dtype=np.int64),
            np.array(hit_steps, dtype=np.int64), exits, backs, 0)


def _generic_visits(g, f, law, seed, label, trajectories, horizon,
                    stop=None):
    """``_grid_visits`` on generic group arithmetic, for laws or starts
    off the engine: trajectory i walks ``_GenericWalk`` from g on
    ``stream(seed, label, i)``, and the rule of ``_stop_steps`` is applied
    step by step.  A trajectory that loses its precision ends there; the
    last item is how many did."""
    level = f.level
    direction, delta, min_steps = stop or (0, 0, 0)   # d = 0: no exit
    hit_rows, hit_steps = [], []
    exits = np.full(trajectories, _NEVER)
    backs = np.full(trajectories, _NEVER)
    aborted = 0
    for i in range(trajectories):
        w = _GenericWalk(law, stream(seed, label, i), g)
        if f.member(g):
            hit_rows.append(i)
            hit_steps.append(0)
        e = r = _NEVER
        try:
            for n in range(1, horizon + 1):
                h = w.right()
                if h == level and f.member(w.g):
                    hit_rows.append(i)
                    hit_steps.append(n)
                d = (h - level) * direction
                if e == _NEVER:
                    if d > delta and n >= min_steps:
                        e = n
                elif r == _NEVER and h == level:
                    r = n
                # from the exit on: 2·delta out before re-entry, delta after
                if e <= n and d > (2 * delta if r == _NEVER else delta):
                    break
        except PrecisionExhausted:
            aborted += 1
        exits[i], backs[i] = e, r
    return (np.array(hit_rows, dtype=np.int64),
            np.array(hit_steps, dtype=np.int64), exits, backs, aborted)


def potential_kernel(g, f: CylinderEvent, law, seed, trajectories, *,
                     horizon=20000) -> KernelEstimate:
    """Expected visits of g·R_n to the event, over n = 0..horizon.

    For drifting walks with displacement d_n = (height - level) in the
    drift direction, a trajectory exits at the first step E >=
    ``KERNEL_MIN_STEPS`` with d_E > ``KERNEL_DELTA`` and re-enters at its
    next visit R to the level; it stops at the first step in [E, R) with
    d > 2·KERNEL_DELTA (re-entry from there is negligible), else at the
    first step from R on with d > KERNEL_DELTA, else at the horizon.  Both
    constants are read when it is called.  The tail beyond the stop is
    bounded by the observed re-entry frequency rho, capped at
    ``TAIL_RHO_CAP`` (``rho`` reports it before the cap, ``rho_capped``
    whether the cap bit).  Centered walks run the full horizon and report
    the last-half visit rate of a fresh batch of at most 200 trajectories
    as a truncation proxy.  ``seed`` is a stream key (see ``rng``):
    trajectory i draws from ``(seed, "kernel", i)``, the centered tail
    from "tail".  ``aborted`` counts the trajectories of both batches
    that lost their precision; each keeps the visits it made.

    Laws on the engine, p-adic and lamp, run every trajectory in one
    batch (``_grid_visits``): atom indices come from ``rng.stream_rows``
    in blocks, heights are cumulative sums, the stop rule is a
    first-index search per row, and the translation is summed in exact
    integers only up to the visits it is read at.  Only terms at
    exponents below H + ``key_reach`` enter the sum, H the highest
    target height: a read at height h <= H sees the digits below h
    (p-adic) or up to h (lamp), so a later term changes no read.  Only
    laws off the engine walk one trajectory at a time on generic group
    arithmetic (``_generic_visits``); both give the visits the same way,
    and one reduction reads them.
    """
    if trajectories < 1:
        raise ValueError(f"{trajectories} trajectories estimate nothing")
    if f.is_empty:
        return KernelEstimate(0.0, 0.0, trajectories, 0, 0.0)
    drift = law.drift()
    direction = 0 if drift == 0 else (1 if drift > 0 else -1)
    fast = _kernel_walk(g, f, law)

    def visits(label, count, stop=None):
        if fast:
            return _grid_visits(fast, f.level, seed, label, count, horizon,
                                stop)
        return _generic_visits(g, f, law, seed, label, count, horizon, stop)

    rows, steps, exits, backs, aborted = visits(
        "kernel", trajectories,
        (direction, KERNEL_DELTA, KERNEL_MIN_STEPS) if direction else None)
    totals = np.bincount(rows, minlength=trajectories).astype(float)
    value = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(trajectories)) \
        if trajectories > 1 else 0.0
    if direction == 0:
        # proxy only: visits cannot be bounded by a drift argument, so
        # report the last-half visit rate observed on a fresh small batch
        n = min(trajectories, 200)
        _, late, _, _, lost = visits("tail", n)
        tail = float(np.count_nonzero(late > horizon // 2)) / n
        return KernelEstimate(value, stderr, trajectories, horizon, tail,
                              truncated=True, aborted=aborted + lost)
    post_visits = np.bincount(rows[steps >= backs[rows]],
                              minlength=trajectories).astype(float)
    reentered = backs < _NEVER
    n_ex = int(np.count_nonzero(exits < _NEVER))
    rho = float(reentered.sum()) / n_ex if n_ex else 0.0
    capped = min(rho, TAIL_RHO_CAP)
    per_round = float(post_visits[reentered].mean()) if reentered.any() else 1.0
    tail = per_round * capped / (1.0 - capped)
    return KernelEstimate(value, stderr, trajectories, horizon, tail,
                          aborted=aborted, rho=rho,
                          rho_capped=rho > TAIL_RHO_CAP)


# -- Wald / ladder mass -------------------------------------------------------


def wald_mass_check(law, seed, excursions) -> dict:
    """Empirical E[l]/E[S_l] against the exact 1/drift, plus the Wald
    residual; ``seed`` is a stream key, drawn from as ``(seed, "wald")``."""
    mu = law.drift()
    if mu <= 0:
        raise NonPositiveDrift("ascending ladder epochs need positive drift")
    r = stream(seed, "wald")
    lengths, heights = ladder_heights(law, r, excursions)
    el, esl = lengths.mean(), heights.mean()
    ratio = el / esl
    target = 1 / mu
    # delta method for the ratio of means
    resid_ratio = lengths - ratio * heights
    ratio_se = float(resid_ratio.std(ddof=1) / (esl * math.sqrt(excursions)))
    wald = heights - float(mu) * lengths
    wald_mean = float(wald.mean())
    wald_se = float(wald.std(ddof=1) / math.sqrt(excursions))
    return {
        "excursions": excursions,
        "mean_ladder_time": float(el),
        "mean_ladder_height": float(esl),
        "ratio": float(ratio),
        "ratio_stderr": ratio_se,
        "exact_inverse_drift": str(Fraction(target)),
        "ratio_z": (float(ratio) - float(target)) / ratio_se if ratio_se else 0.0,
        "wald_residual": wald_mean,
        "wald_residual_stderr": wald_se,
        "wald_z": wald_mean / wald_se if wald_se else 0.0,
    }


# -- excursion-average invariant measure --------------------------------------


@dataclass
class ClusterEstimate:
    value: float
    stderr: float
    clusters: int
    excursions: int


def _cluster_ratio(numers: np.ndarray, denoms: np.ndarray) -> ClusterEstimate:
    n = len(denoms)
    m = float(numers.mean() / denoms.mean())
    resid = numers - m * denoms
    se = float(resid.std(ddof=1) / (denoms.mean() * math.sqrt(n)))
    return ClusterEstimate(m, se, n, 0)


def _clusters(law, seed, count, exc_count, depth):
    """Per cluster i < count: (lengths, heights, states, inside) of its
    ``exc_count`` excursions on ``(seed, "exc", i)``, read against the
    ladder walk's limit on ``(seed, "ups", i)``.  ``states`` lists (S,
    state, multiplicity) of the prefix states and ``inside(state, disc)``
    reads one."""
    # generous window: excursion prefixes have negative heights and
    # shift the point's known digits down when acting on it
    window = depth + 24
    grid = law.grid
    if grid is None:
        for i in range(count):
            end = ladder_boundary_limit(law, stream(seed, "ups", i),
                                        depth=depth, end_window=window).end
            rng = stream(seed, "exc", i)
            excs = [ladder_excursion(law, rng, track_prefix=True)
                    for _ in range(exc_count)]
            yield ([e.length for e in excs], [e.height for e in excs],
                   [(phi(g), g, 1) for e in excs for g in e.prefix],
                   lambda g, disc, end=end: end_in_disc(act_end(g, end),
                                                        disc))
        return

    def rows_of(key):
        return lambda ids, start, size: stream_rows(ids, start, size, seed,
                                                    key)
    for rows in row_chunks(count):
        limits = ladder_limit_rows(grid, rows_of("ups"), rows, depth, window)
        excs = excursion_rows(grid, rows_of("exc"), rows, exc_count)
        for bl, (lengths, heights, states) in zip(limits, excs):
            yield (lengths, heights,
                   [(s, (s, t), m) for (s, t), m in states.items()],
                   reader(grid, bl.end))


def _totals(functionals, states, inside) -> list:
    """Per functional (disc, weight): the sum over prefix states of
    weight(S), times the state's multiplicity, over the states whose
    point lies in the disc (every state for disc None).  A state whose
    weight is 0 is not read."""
    out = [0] * len(functionals)
    fns = [(j, disc, weight, {}) for j, (disc, weight) in
           enumerate(functionals)]    # with weight(S) per S met
    for s, state, m in states:
        for j, disc, weight, weights in fns:
            w = weights.get(s)
            if w is None:
                w = weights[s] = weight(s)
            if w and (disc is None or inside(state, disc)):
                out[j] += m * w
    return out


def ladder_cluster_run(law, seed, n_upsilon, exc_per_upsilon, functionals, *,
                       depth=4) -> list:
    """Excursion-average estimates normalized by E[S_l].

    Samples boundary points from the ladder walk's harmonic measure, then
    runs independent excursions from each.  A functional is a pair
    (disc, weight): per excursion it sums weight(S_k) over the prefix
    L_0..L_{l-1} (heights S_0..S_{l-1}) where L_k maps the point into the
    disc below the vertex ``disc`` (every k for disc None).  Each is
    averaged within clusters and divided by the empirical mean ladder
    height.  Returns one ClusterEstimate per functional, plus a stats
    dict.  Cluster i draws its point from ``(seed, "ups", i)`` and its
    excursions from ``(seed, "exc", i)``; ``seed`` is a stream key.
    Laws on the engine walk the clusters as batches of keyed rows.
    """
    if n_upsilon < 2:
        raise ValueError(f"{n_upsilon} clusters give no standard error; "
                         "the cluster estimates need at least 2")
    mu = law.drift()
    if mu <= 0:
        raise NonPositiveDrift("excursion averages need positive drift")
    n_fn = len(functionals)
    numer = np.zeros((n_fn, n_upsilon))
    denom = np.zeros(n_upsilon)
    lengths = np.zeros(n_upsilon)
    for i, (ls, hs, states, inside) in enumerate(_clusters(
            law, seed, n_upsilon, exc_per_upsilon, depth)):
        numer[:, i] = np.array(_totals(functionals, states, inside),
                               dtype=float) / exc_per_upsilon
        denom[i] = sum(hs) / exc_per_upsilon
        lengths[i] = sum(ls) / exc_per_upsilon
    out = []
    for j in range(n_fn):
        est = _cluster_ratio(numer[j], denom)
        est.excursions = n_upsilon * exc_per_upsilon
        out.append(est)
    stats = {
        "clusters": n_upsilon,
        "excursions_per_cluster": exc_per_upsilon,
        "mean_ladder_height": float(denom.mean()),
        "mean_ladder_height_stderr":
            float(denom.std(ddof=1) / math.sqrt(n_upsilon)),
        "mean_ladder_time": float(lengths.mean()),
    }
    return out, stats


def estimate_m_misinv(law, discs, seed, *, n_upsilon=2000, exc_per_upsilon=50):
    """Invariant-measure values of boundary discs via excursion averages.

    m(D) = E[sum of 1_D(L_k·point) over the excursion] / E[S_l], the point
    drawn from the ladder walk's harmonic measure.  ``discs`` are vertices;
    pass None entries for the whole boundary (constant 1).  ``seed`` is a
    stream key, used as in ``ladder_cluster_run``.
    """
    depth = max([d.height for d in discs if d is not None], default=1) + 2
    return ladder_cluster_run(law, seed, n_upsilon, exc_per_upsilon,
                              [(d, lambda s: 1) for d in discs],
                              depth=max(depth, 4))


# -- inverted-walk boundary measure and kernel limits -------------------------


@dataclass
class BoundaryMeasureSample:
    element: object       # horocyclic: phi == 0
    mass_scale: Fraction  # total mass of the extended measure


def sample_mbar(law, rng, *, depth=4) -> BoundaryMeasureSample:
    """One draw from the rotation-averaged extension of the inverted-walk
    harmonic measure to the horocyclic group, for a negative-drift law.

    p-adic: (t = sampled end of the inverted walk, a = uniform unit);
    lamplighter: the rotation group at the reference end is trivial, so
    the element is the translation section of the sampled end.
    """
    mu = law.drift()
    if mu >= 0:
        raise NonNegativeDrift("the inverted walk must have positive drift")
    bl = sample_boundary_limit(law.inverse(), rng, depth=depth)
    atom = law.atoms[0]
    unit, _ = next(atom.rotation_draws([rng]))
    return BoundaryMeasureSample(atom.section(bl.end, unit), -1 / mu)


def _mbar_rows(law, seed, samples, depth):
    """The draws of ``sample_mbar(law, stream(seed, "limit", i), depth)``
    for i < samples, for a law whose inverse is on the engine: per sample
    (row, unit, gen, limit).  ``row`` is the inverted walk's (steps, top,
    key, translation) of ``walk.limit_rows`` and ``limit(i, row)`` its
    ``BoundaryLimit``; ``gen`` is stream i where the unit draw left it
    (None where no unit is drawn), and is reused for the next sample."""
    if law.drift() >= 0:
        raise NonNegativeDrift("the inverted walk must have positive drift")
    chunks, limit = limit_rows(law.inverse(), samples, seed, "limit",
                               depth=depth)
    i = 0
    for rows in chunks:
        if None in rows:
            raise StepBudgetExceeded(
                f"no certified depth-{depth} disc within "
                f"{DEFAULT_STEP_BUDGET} steps")
        draws = law.atoms[0].rotation_draws(streams_at(
            range(i, i + len(rows)), [r[0] for r in rows], seed, "limit"))
        for row, (unit, gen) in zip(rows, draws):
            yield row, unit, gen, limit
        i += len(rows)


def limit_measure_value(f: CylinderEvent, law, seed, samples) -> KernelEstimate:
    """Monte Carlo value of the limiting measure of the kernel along the
    reference homothety, evaluated on a single-level cylinder event.

    Only the height-f.level term of the homothety convolution can meet
    the event, so the value is mass x P[s**level · x^{-1} in f] with x
    drawn from the rotation-averaged boundary measure.  ``seed`` is a
    stream key; sample i is drawn from ``stream(seed, "limit", i)``.

    When the inverted law is on the engine, the samples' certified limits
    walk as one batch (``walk.limit_rows``), each unit is drawn where its
    walk left its stream, and the event is read on integers where the
    end's digits decide it (``hit_test`` of the engine form), else on the
    element.
    """
    if f.is_empty:
        return KernelEstimate(0.0, 0.0, samples, 0, 0.0)
    s_h = power(law.atoms[0].reference_homothety().element, f.level)
    depth = max(max(t.height for t in f.targets) + 2, 4)
    hits = 0
    grid = law.inverse().grid
    if grid is None:
        for i in range(samples):
            smp = sample_mbar(law, stream(seed, "limit", i), depth=depth)
            hits += f.member(compose(s_h, invert(smp.element)))
    elif samples:
        test = grid.hit_test(f, _end_window(depth, None))
        for i, (row, unit, _, limit) in enumerate(
                _mbar_rows(law, seed, samples, depth)):
            if test is not None:
                hits += test(row[3], unit)
            else:
                x = law.atoms[0].section(limit(i, row).end, unit)
                hits += f.member(compose(s_h, invert(x)))
    mass = -1 / law.drift()
    prob = hits / samples
    value = float(mass) * prob
    stderr = float(mass) * math.sqrt(max(prob * (1 - prob), 1e-12) / samples)
    return KernelEstimate(value, stderr, samples, 0, 0.0)


# -- verification reports ------------------------------------------------------


def _z_gap(e1: KernelEstimate, e2: KernelEstimate) -> float:
    se = math.hypot(e1.stderr, e2.stderr)
    return abs(e1.value - e2.value) / se if se else 0.0


def verify_boundary_limit(law, f: CylinderEvent, n_list, seed, *,
                          trajectories=20000, limit_samples=20000,
                          sigmas=3.0, horizon=20000) -> dict:
    """Kernel estimates along s**n, compared per drift regime.

    Negative drift: estimates stabilize and match the boundary-measure
    prediction.  Positive drift: estimates decay to zero.  Centered:
    trend only (the excursion estimators have no variance control).  An
    estimate with precision aborts fails the first two.  ``seed`` is a
    stream key; the kernel at s**n is keyed ``(seed, n)``.
    """
    s = law.atoms[0].reference_homothety()
    drift = law.drift()
    estimates = [potential_kernel(power(s.element, n), f, law, (seed, n),
                                  trajectories, horizon=horizon)
                 for n in n_list]
    report = {
        "drift": str(drift),
        "n_list": list(n_list),
        "estimates": [vars(e) for e in estimates],
        "checks": [],
    }
    passed = True
    if drift < 0:
        limit = limit_measure_value(f, law, seed, limit_samples)
        report["limit_estimate"] = vars(limit)
        for i in range(len(estimates)):
            for j in range(i + 1, len(estimates)):
                ok = estimates[i].agrees_with(estimates[j], sigmas)
                report["checks"].append({
                    "pair": [n_list[i], n_list[j]],
                    "z": _z_gap(estimates[i], estimates[j]),
                    "pass": ok})
                passed &= ok
        for i, e in enumerate(estimates):
            ok = e.agrees_with(limit, sigmas)
            report["checks"].append({
                "pair": [n_list[i], "limit"],
                "z": _z_gap(e, limit), "pass": ok})
            passed &= ok
    elif drift > 0:
        vals = [e.value + e.tail_bound for e in estimates]
        decay = all(vals[i + 1] <= vals[i] + sigmas * math.hypot(
            estimates[i].stderr, estimates[i + 1].stderr)
            for i in range(len(vals) - 1))
        small = vals[-1] < 0.05
        report["checks"].append({"trend_nonincreasing": decay,
                                 "final_below_0.05": small})
        passed = decay and small and not any(e.aborted for e in estimates)
    else:
        report["caveat"] = ("centered walk: excursion lengths are not "
                            "integrable, values reported as a trend only")
        report["checks"].append({"trend_values": [e.value for e in estimates]})
        passed = True
    report["pass"] = bool(passed)
    return report


def verify_omega_limit(law, f: CylinderEvent, regime, n_list, seed, *,
                       trajectories=3000, tolerance=0.05,
                       horizon=4000) -> dict:
    """Kernel decay along sequences leaving through the top end.

    descend: g = s**-n.  ascend-escape (p-adic, negative drift): g =
    (t, p**n) with |t| = p**n, which moves toward the top end although
    its height goes to +infinity.  The last estimate must be below
    ``tolerance`` with no precision aborts.  ``seed`` is a stream key;
    the kernel at the n-th element is keyed ``(seed, n)``.
    """
    s = law.atoms[0].reference_homothety()
    drift = law.drift()
    estimates = []
    for n in n_list:
        if regime == "descend":
            g = power(s.element, -n)
        elif regime == "ascend-escape":
            if law.kind != "padic":
                raise RealizationMismatch("ascend-escape sequences are p-adic")
            if drift >= 0:
                raise NonNegativeDrift(
                    "ascend-escape decay needs negative drift")
            p = law.degree
            budget = law.atoms[0].a.budget
            g = PadicAffine(PAdic.from_rational(1, p ** n, p, budget),
                            PAdic.from_int(p ** n, p, budget))
        else:
            raise ValueError(f"unknown regime {regime!r}")
        estimates.append(potential_kernel(g, f, law, (seed, n), trajectories,
                                          horizon=horizon))
    final = estimates[-1]
    ok = final.value + final.tail_bound < tolerance and not final.aborted
    return {
        "regime": regime,
        "drift": str(drift),
        "n_list": list(n_list),
        "estimates": [vars(e) for e in estimates],
        "final_bound": final.value + final.tail_bound,
        "tolerance": tolerance,
        "pass": bool(ok),
    }


def verify_renewal_identity(law, events, seed, *, n_upsilon=1000,
                            exc_per_upsilon=50, sigmas=3.0) -> dict:
    """Renewal product identity on disc x z-set events, positive drift.

    LHS: excursion average of sum over prefix steps k and shifts z >= 0 of
    the event indicator at (L_k·point, S_k + z), normalized by E[S_l];
    every term with S_k + z outside the z-set vanishes, so the z-sum is
    finite with zero truncation error.  RHS: the z-section sum, i.e.
    |z-set| times the invariant disc measure, from an independent run.
    ``seed`` is a stream key; the two sides are keyed ``(seed, "lhs")``
    and ``(seed, "rhs")``.
    """
    if law.drift() <= 0:
        raise NonPositiveDrift("the renewal identity check needs positive drift")
    # at a prefix height S, the shifts z in the z-set with S + z >= 0
    lhs_fns = [(ev.disc, lambda s, zs=tuple(ev.zset): sum(z >= s for z in zs))
               for ev in events]
    lhs, lhs_stats = ladder_cluster_run(law, (seed, "lhs"), n_upsilon,
                                        exc_per_upsilon, lhs_fns)
    rhs, rhs_stats = estimate_m_misinv(law, [ev.disc for ev in events],
                                       (seed, "rhs"), n_upsilon=n_upsilon,
                                       exc_per_upsilon=exc_per_upsilon)
    checks = []
    passed = True
    for ev, le, re_ in zip(events, lhs, rhs):
        rhs_val = len(ev.zset) * re_.value
        rhs_se = len(ev.zset) * re_.stderr
        gap = abs(le.value - rhs_val)
        tol = sigmas * math.hypot(le.stderr, rhs_se)
        ok = gap <= tol
        passed &= ok
        checks.append({
            "disc": repr(ev.disc),
            "zset": sorted(ev.zset),
            "lhs": le.value, "lhs_stderr": le.stderr,
            "rhs": rhs_val, "rhs_stderr": rhs_se,
            "gap": gap, "tolerance": tol,
            "truncation_bound": 0.0,
            "pass": ok,
        })
    return {
        "drift": str(law.drift()),
        "lhs_stats": lhs_stats,
        "rhs_stats": rhs_stats,
        "normalizer_mean_ladder_height": lhs_stats["mean_ladder_height"],
        "checks": checks,
        "pass": bool(passed),
    }


# -- exact truncated-chain oracle ----------------------------------------------


def kernel_oracle(law, cylinders, *, s_min=-8, s_max=40) -> dict:
    """Exact expected-visit values for designed small p-adic instances.

    Requires every atom's scale to be a plain power of p and every atom's
    translation to have a p-power denominator, so the translation part of
    R_n lives on a fixed digit grid.  The grid keeps digits at exponents
    in [s_min, c_max); paths whose height leaves [s_min, s_max], or that
    add digits below s_min, are removed.  A step adds a multiple of a
    power of p to the digits modulo M = p**(c_max - s_min), a convolution
    on Z/M, so the discrete Fourier transform diagonalises it (the
    character method of Diaconis, *Group Representations in Probability
    and Statistics*, ch. 3).  For each character k the Green function
    from (height 0, digits 0) solves one height system
    (I - A_k) Ĝ_k = e_0, banded with bandwidth max |phi|.  One Gaussian
    elimination without pivoting solves the systems of all M/2 + 1
    characters at once, and one inverse real FFT gives G(height, digits)
    exactly, up to float rounding.

    The window must contain height 0.  Cylinders must be single-source
    V(origin -> y) with y in the height window and its center on the
    grid.  A law whose walk cannot leave a height of the window gives a
    singular system and is refused too.  Returns per-cylinder visit
    expectations, ``bias`` (the killed mass) and ``escaped_mass`` (the
    mass that leaves above the window).
    """
    if law.kind != "padic":
        raise OracleUnsupported("the truncated-chain oracle is p-adic only")
    p = law.degree
    grid = law.grid
    if grid is None:
        raise OracleUnsupported(
            "atoms are off the digit grid: need exact scales p**k and "
            "translations with p-power denominators")
    if s_min > 0 or s_max < 0:
        raise OracleUnsupported("the height window must contain height 0")
    specs = []
    for cyl in cylinders:
        if cyl.is_empty or len(cyl.sources) != 1 \
                or cyl.sources[0].height != 0 or cyl.sources[0].center != 0:
            raise OracleUnsupported("oracle cylinders must be V(origin -> y)")
        y = cyl.targets[0]
        if not s_min <= y.height <= s_max:
            raise OracleUnsupported("target outside the height window")
        c = y.center / Fraction(p) ** s_min
        if c.denominator != 1:
            raise OracleUnsupported("target center below the digit grid")
        specs.append((cyl.render(), y.height - s_min, int(c)))
    width = max([1 - s_min] + [j for _, j, _ in specs])
    M = p ** width
    n_s = s_max - s_min + 1
    rows = np.arange(n_s)
    moves, killed, escaped = [], np.zeros(n_s), np.zeros(n_s)
    for (txn, txe, ph), w in zip(grid.steps, map(float, law.weights)):
        # row r moves to r + ph and adds txn·p**(r + txe) to the digits;
        # txe < 0 only for txn prime to p, so r + txe < 0 leaves the grid
        to = rows + ph
        on_grid = rows + txe >= 0
        killed += w * (~on_grid | (to < 0))
        escaped += w * (on_grid & (to >= n_s))
        keep = on_grid & (to >= 0) & (to < n_s)
        shift = [txn * pow(p, int(r) + txe, M) % M for r in rows[keep]]
        moves.append((rows[keep], to[keep], w, np.array(shift, np.int64)))
    # one band over all characters: band[k, i, lo + j - i] is entry (i, j)
    # of I - A_k, and a move up by phi lies on the diagonal lo - phi.  G is
    # real, so the characters k and M - k are conjugate.
    lo = max(0, *(ph for _, _, ph in grid.steps))
    up = max(0, *(-ph for _, _, ph in grid.steps))
    ks = np.arange(M // 2 + 1)
    band = np.zeros((len(ks), n_s, lo + up + 1), complex)
    band[:, :, lo] = 1.0
    roots = np.exp(-2j * np.pi / M * np.arange(M))
    for r, to, w, shift in moves:
        band[:, to, lo + r - to] -= w * roots[np.outer(ks, shift) % M]
    # Column r of A_k holds the moves out of row r, of total weight at most
    # 1, so I - A_k is column diagonally dominant; elimination keeps it so
    # and needs no pivoting (Golub & Van Loan, *Matrix Computations*, 3.4),
    # and a pivot within rounding of 0 leaves a zero column: singular.
    x = np.zeros((len(ks), n_s + up), complex)    # zeros above the top row
    x[:, -s_min] = 1.0
    for i in range(n_s):
        piv = band[:, i, lo]
        if (np.abs(piv) <= n_s * np.finfo(float).eps).any():
            raise OracleUnsupported(
                f"singular height system: no way out of height {i + s_min}")
        for d in range(1, min(lo, n_s - 1 - i) + 1):
            f = band[:, i + d, lo - d, None] / piv[:, None]
            band[:, i + d, lo - d:lo - d + up + 1] -= f * band[:, i, lo:]
            x[:, i + d] -= f[:, 0] * x[:, i]
    for i in reversed(range(n_s)):
        x[:, i] -= (band[:, i, lo + 1:] * x[:, i + 1:i + 1 + up]).sum(1)
        x[:, i] /= band[:, i, lo]
    if not np.isfinite(x).all():
        raise OracleUnsupported("the height solve is not finite")
    g_hat = x[:, :n_s].T
    # targets sit at rows 0 .. width
    green = np.fft.irfft(g_hat[:width + 1], n=M, axis=1)
    visits = {name: float(green[j].reshape(-1, p ** j)[:, c].sum())
              for name, j, c in specs}
    mass = g_hat[:, 0].real
    return {"visits": visits, "bias": float(mass @ killed),
            "escaped_mass": float(mass @ escaped)}
