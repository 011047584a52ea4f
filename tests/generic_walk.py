"""The reference walks: each estimator of the engine written on generic
group arithmetic, one ``law.sample_step`` per step on ``group.compose``.

The engine's batches (``affinetree.grid``) are tested against these bit
for bit, from the same uniforms, errors included: kernel visits,
certified limits of the right walk, exact limits of the ladder walk,
excursion clusters with their prefix reads and the draws of the limit
measure.  Each reads the stop rules of ``walk`` and ``renewal`` when it
is called, as the engine does.  The certified rule of the right walk is
also kept here for the ladder walk (``certified_ladder_limit``): the
reference the exact stop of ``walk.ladder_limit_rows`` must agree with.
"""

import numpy as np

from affinetree import renewal, walk
from affinetree.errors import NonNegativeDrift, StepBudgetExceeded
from affinetree.group import act_end, compose, identity_like, phi
from affinetree.rng import stream
from affinetree.tree import end_in_disc
from affinetree.walk import BoundaryLimit, ladder_excursion

_NEVER = np.iinfo(np.int64).max


class GenericWalk:
    """A walk from ``g`` (the identity by default) on generic group
    arithmetic, one draw of ``rng`` per step."""

    def __init__(self, law, rng, g=None):
        self.law, self.rng = law, rng
        self.g = identity_like(law.atoms[0]) if g is None else g

    def right(self) -> int:
        self.g = compose(self.g, self.law.sample_step(self.rng))
        return phi(self.g)


def _key(law, g, depth):
    """The disc key at depth d: the residue below p**d or the lamps at
    positions <= d."""
    return g.t.residue(depth) if law.kind == "padic" else g.lamps_to(depth)


def certified_limit(law, w, step, depth, end_window, max_steps):
    """The certified limit of the walk ``w`` stepped by ``step``, under
    ``walk.STABLE_EPOCHS`` and ``walk.HEIGHT_GUARD``, its keys those of
    ``_key``."""
    end_window = walk._end_window(depth, end_window)
    top = stable = 0
    key = None
    for n in range(1, max_steps + 1):
        h = step()
        if h <= top:
            continue
        top = h
        if h < depth:
            continue
        k = _key(law, w.g, depth)
        stable = stable + 1 if k == key else 1
        key = k
        if stable >= walk.STABLE_EPOCHS \
                and top >= end_window + walk.HEIGHT_GUARD:
            return BoundaryLimit(w.g.limit_end(end_window), key, n)
    raise StepBudgetExceeded(
        f"no certified depth-{depth} disc within {max_steps} steps")


def sample_boundary_limit(law, rng, *, depth, end_window=None,
                          max_steps=walk.DEFAULT_STEP_BUDGET):
    """``walk.sample_boundary_limit`` on the generic right walk."""
    walk._require_positive_drift(law)
    w = GenericWalk(law, rng)
    return certified_limit(law, w, w.right, depth, end_window, max_steps)


def _ladder_walk(law, rng):
    """A generic walk and its ladder step, which composes it with the
    element L_l of the next ``ladder_excursion`` drawn from ``rng``."""
    w = GenericWalk(law, rng)

    def ladder_step():
        w.g = compose(w.g, ladder_excursion(law, rng).element)
        return phi(w.g)
    return w, ladder_step


def term_floor(law):
    """The lowest exponent of an atom's translation term, read from the
    atoms: the valuation of t, or the lowest lamp position; None when no
    atom has a term."""
    lows = [a.t.valuation for a in law.atoms] if law.kind == "padic" \
        else [a.floor for a in law.atoms if a.num]
    return min((v for v in lows if v is not None), default=None)


def ladder_boundary_limit(law, rng, *, depth, end_window=None,
                          max_steps=walk.DEFAULT_STEP_BUDGET):
    """The exact limit of the ladder walk, whose steps are the elements
    L_l of successive ``ladder_excursion``s drawn from ``rng``; ``steps``
    counts ladder steps (``walk.ladder_limit_rows``).  It stops at the
    first record r with r + ``term_floor`` >= max(depth, end_window) +
    reach, reach 1 for the lamps at position depth and 0 on p-adic keys:
    no later term reaches the key or the end."""
    walk._require_positive_drift(law)
    end_window = walk._end_window(depth, end_window)
    w, step = _ladder_walk(law, rng)
    low = term_floor(law)
    need = 0 if low is None else \
        max(depth, end_window) + (law.kind != "padic") - low
    for n in range(1, max_steps + 1):
        if step() >= need:
            return BoundaryLimit(w.g.limit_end(end_window),
                                 _key(law, w.g, depth), n)
    raise StepBudgetExceeded(
        f"no exact depth-{depth} ladder limit within {max_steps} steps")


def certified_ladder_limit(law, rng, *, depth, end_window=None,
                           max_steps=walk.DEFAULT_STEP_BUDGET):
    """The ladder walk's limit under the right walk's certified rule
    (``certified_limit``): what ``ladder_boundary_limit`` must agree with
    in end and key."""
    walk._require_positive_drift(law)
    w, step = _ladder_walk(law, rng)
    return certified_limit(law, w, step, depth, end_window, max_steps)


def visits(g, f, law, seed, label, trajectories, horizon, stop=None):
    """A stand-in for ``renewal._grid_visits`` that walks trajectory i on
    ``stream(seed, label, i)`` from g and applies the rule of
    ``renewal._stop_steps`` step by step."""
    direction, delta, min_steps = stop or (0, 0, 0)   # d = 0: no exit
    level, hit_rows, hit_steps = f.level, [], []
    exits = np.full(trajectories, _NEVER)
    backs = np.full(trajectories, _NEVER)
    for i in range(trajectories):
        w = GenericWalk(law, stream(seed, label, i), g)
        if f.member(g):
            hit_rows.append(i)
            hit_steps.append(0)
        e = r = _NEVER
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
        exits[i], backs[i] = e, r
    return (np.array(hit_rows, dtype=np.int64),
            np.array(hit_steps, dtype=np.int64), exits, backs)


def clusters(law, seed, count, exc_count, depth):
    """``renewal._clusters`` on generic walks: each prefix element its own
    group (S, its rank), read by ``end_in_disc`` of its image of the
    ladder walk's limit."""
    window = depth + 24
    for i in range(count):
        end = ladder_boundary_limit(law, stream(seed, "ups", i),
                                    depth=depth, end_window=window).end
        rng = stream(seed, "exc", i)
        excs = [ladder_excursion(law, rng, track_prefix=True)
                for _ in range(exc_count)]

        def read(s, c, members, discs, end=end):
            return [sum(m for g, m in members
                        if end_in_disc(act_end(g, end), d)) for d in discs]
        yield ([e.length for e in excs], [e.height for e in excs],
               {(phi(g), k): [(g, 1)] for k, g in enumerate(
                   g for e in excs for g in e.prefix)},
               read)


def sample_mbar(law, rng, *, depth=4):
    """One draw from the rotation-averaged extension of the inverted
    walk's harmonic measure to the horocyclic group: a certified limit of
    the generic inverted walk and a rotation unit drawn where it left
    ``rng``, as ``renewal._mbar_rows`` draws them on the engine."""
    if law.drift() >= 0:
        raise NonNegativeDrift("the inverted walk must have positive drift")
    bl = sample_boundary_limit(law.inverse(), rng, depth=depth)
    atom = law.atoms[0]
    return atom.section(bl.end, next(atom.rotation_draws([rng])))


def cluster_run(law, *args, **kw):
    """``renewal.ladder_cluster_run`` on the clusters of ``clusters``."""
    saved = renewal._clusters
    renewal._clusters = clusters
    try:
        return renewal.ladder_cluster_run(law, *args, **kw)
    finally:
        renewal._clusters = saved
