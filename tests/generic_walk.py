"""The reference walks: each estimator of the engine written on generic
group arithmetic, one ``law.sample_step`` per step on ``group.compose``.

The engine's batches (``affinetree.grid``) are tested against these bit
for bit, from the same uniforms, errors included: kernel visits,
certified limits of the right walk and of the ladder walk, excursion
clusters and the draws of the limit measure.  Each reads the stop rules
of ``walk`` and ``renewal`` when it is called, as the engine does.
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


def certified_limit(law, w, step, depth, end_window, max_steps):
    """The certified limit of the walk ``w`` stepped by ``step``, under
    ``walk.STABLE_EPOCHS`` and ``walk.HEIGHT_GUARD``: the key at depth d
    is the residue below p**d or the lamps at positions <= d."""
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
        k = w.g.t.residue(depth) if law.kind == "padic" \
            else w.g.lamps_to(depth)
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


def ladder_boundary_limit(law, rng, *, depth, end_window=None,
                          max_steps=walk.DEFAULT_STEP_BUDGET):
    """The certified limit of the ladder walk, whose steps are the
    elements L_l of successive ``ladder_excursion``s drawn from ``rng``;
    ``steps`` counts ladder steps (``walk.ladder_limit_rows``)."""
    walk._require_positive_drift(law)
    w = GenericWalk(law, rng)

    def ladder_step():
        w.g = compose(w.g, ladder_excursion(law, rng).element)
        return phi(w.g)
    return certified_limit(law, w, ladder_step, depth, end_window,
                           max_steps)


def visits(g, f, law):
    """A stand-in for ``renewal._grid_visits`` that walks trajectory i on
    ``stream(seed, label, i)`` from g and applies the rule of
    ``renewal._stop_steps`` step by step."""
    def run(_walk, level, seed, label, trajectories, horizon, stop=None):
        direction, delta, min_steps = stop or (0, 0, 0)   # d = 0: no exit
        hit_rows, hit_steps = [], []
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
    return run


def clusters(law, seed, count, exc_count, depth):
    """``renewal._clusters`` on generic walks: prefix elements as states,
    read by ``end_in_disc`` of their image of the ladder walk's limit."""
    window = depth + 24
    for i in range(count):
        end = ladder_boundary_limit(law, stream(seed, "ups", i),
                                    depth=depth, end_window=window).end
        rng = stream(seed, "exc", i)
        excs = [ladder_excursion(law, rng, track_prefix=True)
                for _ in range(exc_count)]
        yield ([e.length for e in excs], [e.height for e in excs],
               [(phi(g), g, 1) for e in excs for g in e.prefix],
               lambda g, disc, end=end: end_in_disc(act_end(g, end), disc))


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
