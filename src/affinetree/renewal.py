"""Potential-kernel estimation and renewal-based invariant measures.

The potential kernel at g of a cylinder event counts the expected visits
of g·R_n to the event.  Ladder excursions of the height process yield
the invariant boundary measure (the excursion-average estimator) and the
renewal product identity; the boundary limit of the kernel along the
reference homothety is matched against an independent estimator built
from the inverted walk's harmonic measure extended by rotation averaging.

Every law walks as batches of keyed rows on its engine form
(``StepLaw.grid``: the p-adic digit grid, or lamp digits added without
carries): the potential kernel's trajectories, the limit-measure
estimator's certified limits and the excursion clusters alike.  The
exact oracle ``kernel_oracle`` reads three parts: a ``HeightChain``, the
characters of the digit grid of a plain law (``GridLaw``) and one
``band_solve`` over all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, pairwise

import numpy as np

from .errors import (
    NonNegativeDrift,
    NonPositiveDrift,
    OracleUnsupported,
    RealizationMismatch,
    StepBudgetExceeded,
)
from .group import (
    PadicAffine,
    act_vertex,
    compose,
    invert,
    phi,
    power,
)
from .grid import blocks, reader, row_chunks, row_units, vertex_test
from .padic import PAdic
from .rng import stream, stream_rows, streams_at
from .walk import (
    DEFAULT_STEP_BUDGET,
    _boundary_limit,
    _end_window,
    excursion_rows,
    ladder_heights,
    ladder_limit_rows,
    limit_rows,
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
    """(engine form, start state, membership test, highest target height,
    digits of the unit that the test reads) of the kernel walk."""
    return (law.grid, law.grid.start(g),
            vertex_test(law.grid, f.sources, f.targets),
            max(t.height for t in f.targets),
            max(max(x.height - x.floor for x in f.sources), 1))


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
    the visit that reads them: exactly on a ``plain`` form from an
    integral start, else times the units before them, below the cut.
    Returns (rows, steps) of every visit to the event, as flat arrays,
    and per trajectory its exit step E and re-entry step R (_NEVER when
    it has none).  See ``potential_kernel`` for the rule.
    """
    grid, (s0, u, num0, floor0), member, top, digits = walk
    add, steps, cut = grid.sum, grid.steps, top + grid.key_reach
    exact = grid.plain and u.denominator == num0.denominator == 1
    if not exact:       # the start's digits a read sees, and its unit's
        num0 = grid.unit((), cut - floor0, num0) if cut > floor0 else 0
        num0, floor0 = grid.key(num0, floor0, cut)
    unit = u if exact else grid.unit((), digits, u)
    at_start = s0 == level and member(s0, unit, num0, floor0)
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
            exps = b.exps[tr, tc].tolist()
            if exact:
                coefs = [u * steps[j][0] for j in k[tr, tc].tolist()]
                visits = vc.tolist()
            else:      # each visit with the unit of its element
                coefs = [grid.unit(c, cut - x, u, grid.coefs[j])
                         for j, c, x in zip(k[tr, tc].tolist(),
                                            row_units(b, tr, tc), exps)]
                visits = list(zip(vc.tolist(), [
                    grid.unit(c, digits, u)
                    for c in row_units(b, vr, vc, after=True)]))
            tc = tc.tolist()
            live_l, going_l = live.tolist(), going.tolist()
            for i in np.flatnonzero(last >= 0).tolist():
                row, j, t1 = live_l[i], t_at[i], t_at[i + 1]
                t = carry[row]
                for v in visits[v_at[i]:v_at[i + 1]]:
                    if not exact:
                        v, unit = v
                    while j < t1 and tc[j] <= v:
                        t = add(*t, coefs[j], exps[j])
                        j += 1
                    at = t if exact else (unit, t)
                    hit = reads.get(at)
                    if hit is None:
                        hit = reads[at] = member(level, unit, *t)
                    if hit:
                        hit_rows.append(ids[row])
                        hit_steps.append(n0 + 1 + v)
                if going_l[i] and t1 > t_at[i]:
                    for j in range(j, t1):
                        t = add(*t, coefs[j], exps[j])
                    carry[row] = grid.key(*t, top)   # drop what no read sees
            b.going = going
    return (np.array(hit_rows, dtype=np.int64),
            np.array(hit_steps, dtype=np.int64), exits, backs)


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
    from "tail".  No trajectory loses precision, so ``aborted`` is 0.

    Every trajectory runs in one batch on the law's engine form
    (``_grid_visits``): atom indices come from ``rng.stream_rows`` in
    blocks, heights are cumulative sums, the stop rule is a first-index
    search per row, and the translation is summed in integers only up to
    the visits it is read at.  Only terms at exponents below H +
    ``key_reach`` enter the sum, H the highest target height: a read at
    height h <= H sees the digits below h (p-adic) or up to h (lamp), so
    a later term changes no read.
    """
    if trajectories < 1:
        raise ValueError(f"{trajectories} trajectories estimate nothing")
    if f.is_empty:
        return KernelEstimate(0.0, 0.0, trajectories, 0, 0.0)
    drift = law.drift()
    direction = 0 if drift == 0 else (1 if drift > 0 else -1)
    walk = _kernel_walk(g, f, law)

    def visits(label, count, stop=None):
        return _grid_visits(walk, f.level, seed, label, count, horizon, stop)

    rows, steps, exits, backs = visits(
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
        _, late, _, _ = visits("tail", n)
        tail = float(np.count_nonzero(late > horizon // 2)) / n
        return KernelEstimate(value, stderr, trajectories, horizon, tail,
                              truncated=True)
    post_visits = np.bincount(rows[steps >= backs[rows]],
                              minlength=trajectories).astype(float)
    reentered = backs < _NEVER
    n_ex = int(np.count_nonzero(exits < _NEVER))
    rho = float(reentered.sum()) / n_ex if n_ex else 0.0
    capped = min(rho, TAIL_RHO_CAP)
    per_round = float(post_visits[reentered].mean()) if reentered.any() else 1.0
    tail = per_round * capped / (1.0 - capped)
    return KernelEstimate(value, stderr, trajectories, horizon, tail,
                          rho=rho, rho_capped=rho > TAIL_RHO_CAP)


# -- Wald / ladder mass -------------------------------------------------------


def wald_mass_check(law, seed, excursions) -> dict:
    """Empirical E[l]/E[S_l] against the exact 1/drift, plus the Wald
    residual; ``seed`` is a stream key, drawn from as ``(seed, "wald")``."""
    if excursions < 2:
        raise ValueError(f"{excursions} excursions give no standard error; "
                         "the Wald check needs at least 2")
    mu = law.drift()
    if mu <= 0:
        raise NonPositiveDrift("ascending ladder epochs need positive drift")
    lengths, heights = ladder_heights(law, stream(seed, "wald"), excursions)
    el, esl = lengths.mean(), heights.mean()
    ratio = el / esl
    target = 1 / mu
    # delta method for the ratio of means
    resid_ratio = lengths - ratio * heights
    ratio_se = float(resid_ratio.std(ddof=1) / (esl * math.sqrt(excursions)))
    wald = heights - float(mu) * lengths
    wald_mean = float(wald.mean())
    wald_se = float(wald.std(ddof=1) / math.sqrt(excursions))
    # a gap with no spread at all is infinitely many standard errors
    z = lambda gap, se: gap / se if se else math.copysign(math.inf, gap) \
        if gap else 0.0
    return {
        "excursions": excursions,
        "mean_ladder_time": float(el),
        "mean_ladder_height": float(esl),
        "ratio": float(ratio),
        "ratio_stderr": ratio_se,
        "exact_inverse_drift": str(Fraction(target)),
        "ratio_z": z(float(ratio) - float(target), ratio_se),
        "wald_residual": wald_mean,
        "wald_residual_stderr": wald_se,
        "wald_z": z(wald_mean, wald_se),
    }



# -- excursion-average invariant measure --------------------------------------


@dataclass
class ClusterEstimate:
    value: float
    stderr: float


def _cluster_ratio(numers: np.ndarray, denoms: np.ndarray) -> ClusterEstimate:
    n = len(denoms)
    m = float(numers.mean() / denoms.mean())
    resid = numers - m * denoms
    se = float(resid.std(ddof=1) / (denoms.mean() * math.sqrt(n)))
    return ClusterEstimate(m, se)


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

    def rows_of(key):
        return lambda ids, start, size: stream_rows(ids, start, size, seed,
                                                    key)
    for rows in row_chunks(count):
        limits = ladder_limit_rows(grid, rows_of("ups"), rows, depth, window)
        excs = excursion_rows(grid, rows_of("exc"), rows, exc_count, window)
        for bl, (lengths, heights, states) in zip(limits, excs):
            yield (lengths, heights,
                   [(state[0], state, m) for state, m in states.items()],
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
    The clusters walk as batches of keyed rows on the engine.
    """
    if n_upsilon < 2:
        raise ValueError(f"{n_upsilon} clusters give no standard error; "
                         "the cluster estimates need at least 2")
    if exc_per_upsilon < 1:
        raise ValueError(f"{exc_per_upsilon} excursions per cluster give no "
                         "estimate; each cluster needs at least 1")
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
    out = [_cluster_ratio(numer[j], denom) for j in range(n_fn)]
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


def _mbar_rows(law, seed, samples, depth):
    """Draws x = ``section(end, unit)`` for i < samples of the rotation-
    averaged extension of the inverted walk's harmonic measure (mass
    -1/drift): per sample the inverted walk's row of ``walk.limit_rows``
    on stream i and the unit drawn where it left the stream (None for a
    lamp law, whose rotation group is trivial)."""
    if law.drift() >= 0:
        raise NonNegativeDrift("the inverted walk must have positive drift")
    i = 0
    for rows in limit_rows(law.inverse(), samples, seed, "limit",
                           depth=depth):
        if None in rows:
            raise StepBudgetExceeded(
                f"no certified depth-{depth} disc within "
                f"{DEFAULT_STEP_BUDGET} steps")
        draws = law.atoms[0].rotation_draws(streams_at(
            range(i, i + len(rows)), [r[0] for r in rows], seed, "limit"))
        yield from zip(rows, draws)
        i += len(rows)


def limit_measure_value(f: CylinderEvent, law, seed, samples) -> KernelEstimate:
    """Monte Carlo value of the limiting measure of the kernel along the
    reference homothety, evaluated on a single-level cylinder event.

    Only the height-f.level term of the homothety convolution can meet
    the event, so the value is mass x P[s**level · x^{-1} in f] with x
    drawn from the rotation-averaged boundary measure (``_mbar_rows``).
    ``seed`` is a stream key; sample i is drawn from ``stream(seed,
    "limit", i)``.

    The samples' certified limits walk as one batch on the inverted
    law's engine form (``walk.limit_rows``), each unit is drawn where its
    walk left its stream, and the event is read on integers where the
    end's digits decide it (``hit_test`` of the engine form), else on the
    element.
    """
    if samples < 1:
        raise ValueError(f"{samples} samples estimate nothing")
    if f.is_empty:
        return KernelEstimate(0.0, 0.0, samples, 0, 0.0)
    s_h = power(law.atoms[0].reference_homothety().element, f.level)
    depth = max(max(t.height for t in f.targets) + 2, 4)
    hits = 0
    grid = law.inverse().grid
    window = _end_window(depth, None)
    test = grid.hit_test(f, window)
    for row, unit in _mbar_rows(law, seed, samples, depth):
        if test is not None:
            hits += test(row[3], unit)
        else:
            end = _boundary_limit(grid, row, window).end
            x = law.atoms[0].section(end, unit)
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
        at = list(zip(n_list, estimates))
        for (n1, e1), (n2, e2) in [*combinations(at, 2),
                                   *((x, ("limit", limit)) for x in at)]:
            ok = e1.agrees_with(e2, sigmas)
            report["checks"].append({"pair": [n1, n2], "z": _z_gap(e1, e2),
                                     "pass": ok})
            passed &= ok
    elif drift > 0:
        vals = [e.value + e.tail_bound for e in estimates]
        decay = all(v2 <= v1 + sigmas * math.hypot(e1.stderr, e2.stderr)
                    for (v1, e1), (v2, e2) in pairwise(zip(vals, estimates)))
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


class HeightChain:
    """A grid law's height on the window [s_min, s_max], rows 0 .. n - 1.
    Atom k, of weight w, moves row r to r + phi and adds txn·p**(r + txe)
    at digit cell r + txe, cell 0 being exponent s_min: ``moves`` has per
    atom (rows, to, w, txn, cells) of its moves within the window, and
    ``killed`` and ``escaped`` per row the weight that leaves below the
    window or the cells (txe < 0 only for txn prime to p), and above."""

    def __init__(self, steps, weights, s_min, s_max):
        n = self.n = s_max - s_min + 1
        rows = np.arange(n)
        self.moves, self.killed, self.escaped = [], np.zeros(n), np.zeros(n)
        for (txn, txe, ph), w in zip(steps, weights):
            to, cells = rows + ph, rows + txe
            keep = cells >= 0
            self.killed += w * (~keep | (to < 0))
            self.escaped += w * (keep & (to >= n))
            keep &= (to >= 0) & (to < n)
            self.moves.append((rows[keep], to[keep], w, txn, cells[keep]))
        self.lo = max(0, *(ph for _, _, ph in steps))     # moves up
        self.up = max(0, *(-ph for _, _, ph in steps))

    def band(self, count, phases):
        """I - A_k for k < count as ``band_solve`` reads it, A_k[to, r] the
        weight of r -> to times column k of ``phases(txn, cells)``.  Column
        r holds the moves out of row r, of weight at most 1 and phases of
        modulus 1, so I - A_k is column diagonally dominant."""
        lo = self.lo
        band = np.zeros((count, self.n, lo + self.up + 1), complex)
        band[:, :, lo] = 1.0
        for r, to, w, txn, cells in self.moves:
            band[:, to, lo + r - to] -= w * phases(txn, cells)
        return band


def band_solve(band, lo, rhs, s_min=0):
    """x with band[k] x[k] = rhs for all k, rhs (n, c) or (K, n, c) with a
    column per right-hand side; ``band[k, i, lo + j - i]`` is entry (i, j)
    of system k, and is overwritten.  Elimination without pivoting keeps
    a column diagonally dominant system so (Golub & Van Loan, *Matrix
    Computations*, 3.4): there a pivot within rounding of 0 leaves a zero
    column, and row i is refused as singular, named height s_min + i."""
    count, n, wide = band.shape
    up = wide - 1 - lo
    x = np.zeros((count, n + up, rhs.shape[-1]), complex)  # 0 past row n
    x[:, :n] = rhs
    for i in range(n):
        piv = band[:, i, lo]
        if (np.abs(piv) <= n * np.finfo(float).eps).any():
            raise OracleUnsupported(
                f"singular height system: no way out of height {i + s_min}")
        for d in range(1, min(lo, n - 1 - i) + 1):
            f = band[:, i + d, lo - d, None] / piv[:, None]
            band[:, i + d, lo - d:lo - d + up + 1] -= f * band[:, i, lo:]
            x[:, i + d] -= f * x[:, i]
    for i in reversed(range(n)):
        x[:, i] -= (band[:, i, lo + 1:, None] * x[:, i + 1:i + 1 + up]).sum(1)
        x[:, i] /= band[:, i, lo, None]
    if not np.isfinite(x).all():
        raise OracleUnsupported("the height solve is not finite")
    return x[:, :n]


def kernel_oracle(law, cylinders, *, s_min=-8, s_max=40) -> dict:
    """Exact expected visits of V(origin -> y) events, y in the window
    [s_min, s_max] with its center on the grid, for p-adic laws on the
    digit grid, on their ``HeightChain``; the window must contain height
    0.  A step adds a term to the digits, a convolution, so characters
    diagonalise it (Diaconis, *Group Representations in Probability and
    Statistics*, ch. 3): per character k the Green function from (height
    0, digits 0) solves (I - A_k) Ĝ_k = e_0.  Returns ``visits`` per
    cylinder, ``bias`` (the killed mass) and ``escaped_mass``."""
    if law.kind != "padic":
        raise OracleUnsupported("the truncated-chain oracle is p-adic only")
    grid = law.grid
    if not grid.plain:
        raise OracleUnsupported(
            "atoms are off the digit grid: need exact scales p**k and "
            "translations with p-power denominators")
    if s_min > 0 or s_max < 0:
        raise OracleUnsupported("the height window must contain height 0")
    names, discs = [], []
    for cyl in cylinders:
        if cyl.is_empty or len(cyl.sources) != 1 \
                or cyl.sources[0].height != 0 or cyl.sources[0].num != 0:
            raise OracleUnsupported("oracle cylinders must be V(origin -> y)")
        y = cyl.targets[0]
        if not s_min <= y.height <= s_max:
            raise OracleUnsupported("target outside the height window")
        if y.floor < s_min:      # the center num·p**floor, num prime to p
            raise OracleUnsupported("target center below the digit grid")
        names.append(cyl.render())
        discs.append((y.height - s_min,
                      y.num * grid.prime ** (y.floor - s_min)))
    # digit cells: the exponents s_min .. 0 and those below every target
    width = max([1 - s_min] + [j for j, _ in discs])
    chain = HeightChain(grid.steps, map(float, law.weights), s_min, s_max)
    g_hat = band_solve(chain.band(*grid.characters(width)), chain.lo,
                       np.eye(chain.n)[:, [-s_min]], s_min)[:, :, 0].T
    mass = g_hat[:, 0].real
    return {"visits": dict(zip(names, grid.disc_sums(width, g_hat, discs))),
            "bias": float(mass @ chain.killed),
            "escaped_mass": float(mass @ chain.escaped)}
