"""Random walk trajectories, ladder epochs and boundary limits.

Height-only questions (drift, Wald identity, regime classification) use
vectorized numpy paths.  Questions about where the walk lands on the
boundary track full group elements: the right products R_n = X_1...X_n
converge to a boundary point when the height drift is positive, and the
sampler certifies a disc of requested depth around the limit.

Each element-tracking loop is written once, against a walk object.  For
p-adic and lamp laws with an engine form (``StepLaw.grid``) that object
is ``grid.GridWalk`` (integer state, atom indices drawn in blocks); for
any other law it is a generic twin on ``group.compose``.  Both give the
same elements, disc ids and ends from the same uniforms and leave the
generator in the same state.  ``run_product`` stays on generic
arithmetic: it hands every running product to its visitor and is the
reference the engine is tested against.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDrift, StepBudgetExceeded
from .grid import Draws, GridWalk
from .group import PadicAffine, act_end, compose, identity_like, phi
from .rng import position, seek, uniforms_at
from .tree import LampEnd, PadicEnd, end_in_disc

DEFAULT_STEP_BUDGET = 10 ** 7
LADDER_BLOCK = 512    # ladder_heights' steps per path and block


def run_product(law, rng, horizon: int, *, side="right", visitor=None):
    """Product of ``horizon`` sampled steps; new steps multiply on ``side``.

    ``visitor(n, g)`` is called after each step with the running product.
    """
    g = identity_like(law.atoms[0])
    for n in range(1, horizon + 1):
        x = law.sample_step(rng)
        g = compose(g, x) if side == "right" else compose(x, g)
        if visitor is not None:
            visitor(n, g)
    return g


@dataclass
class LadderExcursion:
    """One excursion of the left walk to its first strictly positive height.

    ``element`` is L_l = X_l ... X_1 at the first epoch l with S_l > 0.
    ``prefix`` (when tracked) lists L_0 = e, L_1, ..., L_{l-1}, whose
    heights are all <= 0.
    """

    length: int
    element: object
    height: int
    prefix: "list | None" = None


class _GenericWalk:
    """A walk from the identity on generic group arithmetic: the twin of
    ``grid.GridWalk`` for laws off the digit grid."""

    def __init__(self, law, rng):
        self.law, self.rng = law, rng
        self.g = identity_like(law.atoms[0])

    def right(self) -> int:
        self.g = compose(self.g, self.law.sample_step(self.rng))
        return phi(self.g)

    def left(self) -> int:
        self.g = compose(self.law.sample_step(self.rng), self.g)
        return phi(self.g)

    def right_by(self, other: "_GenericWalk") -> int:
        self.g = compose(self.g, other.g)
        return phi(self.g)

    def key(self, depth):
        return _prefix_key(self.g, depth)

    def disc_id(self, key):
        return key

    def snapshot(self):
        return self.g

    def element(self):
        return self.g

    def element_of(self, g):
        return g

    def point(self, end):
        return end

    def lands_in(self, g, end, disc) -> bool:
        return end_in_disc(act_end(g, end), disc)


@contextmanager
def _walks(law, rng):
    """Factory of walks from the identity, all drawing from ``rng``: on
    the integer engine when the law has a grid form, else generic."""
    grid = law.grid
    if grid is None:
        yield lambda: _GenericWalk(law, rng)
        return
    with Draws(grid, rng) as draws:
        yield lambda: GridWalk(draws)


def _excursion(walk, prefix, heights, max_steps):
    """Left-multiply ``walk`` until its height is positive: (length,
    height).  Appends each earlier state and height when ``prefix`` is a
    list."""
    for n in range(1, max_steps + 1):
        h = walk.left()
        if h > 0:
            return n, h
        if prefix is not None:
            prefix.append(walk.snapshot())
            heights.append(h)
    raise StepBudgetExceeded(
        f"no ascending ladder epoch within {max_steps} steps")


def ladder_excursion(law, rng, *, track_prefix=False,
                     max_steps=DEFAULT_STEP_BUDGET) -> LadderExcursion:
    with _walks(law, rng) as new_walk:
        w = new_walk()
        prefix = [w.snapshot()] if track_prefix else None
        n, h = _excursion(w, prefix, [], max_steps)
        if prefix is not None:
            prefix = [w.element_of(x) for x in prefix]
        return LadderExcursion(n, w.element(), h, prefix)


def ladder_excursions(law, rng, count: int, end) -> list:
    """``count`` successive ladder excursions on ``rng``, read against the
    boundary point ``end``, as (length, height, heights, inside).

    ``heights`` lists S_0, ..., S_{l-1} of the prefix L_0 = e, ...,
    L_{l-1}, and ``inside(k, disc)`` is
    ``end_in_disc(act_end(L_k, end), disc)``.
    """
    out = []
    with _walks(law, rng) as new_walk:
        point = new_walk().point(end)
        for _ in range(count):
            w = new_walk()
            prefix, heights = [w.snapshot()], [0]
            n, h = _excursion(w, prefix, heights, DEFAULT_STEP_BUDGET)
            out.append((n, h, heights,
                        lambda k, disc, w=w, prefix=prefix:
                        w.lands_in(prefix[k], point, disc)))
    return out


def ladder_heights(law, rng, count: int, *, max_steps=DEFAULT_STEP_BUDGET):
    """Vectorized (lengths, heights) at the first ascending ladder epoch.

    In a block of ``LADDER_BLOCK`` steps from position P of the Philox
    stream ``rng``, the j-th path still below 0 reads uniforms P + j *
    LADDER_BLOCK + k, in windows of growing width up to its epoch; ``rng``
    ends where whole blocks leave it, also when the step budget runs out.
    """
    lengths = np.zeros(count, dtype=np.int64)
    heights = np.zeros(count, dtype=np.int64)
    active = np.arange(count)
    carried = np.zeros(count, dtype=np.int64)  # S at the end of prior blocks
    pos, offset = position(rng), 0
    while active.size:
        if offset >= max_steps:
            seek(rng, pos)
            raise StepBudgetExceeded(
                f"{active.size} paths without a ladder epoch after {offset} steps")
        live, lo, hi = np.arange(active.size), 0, 8   # ranks still below 0
        while live.size and lo < LADDER_BLOCK:
            rows = active[live]
            u = uniforms_at(rng, pos + LADDER_BLOCK * live + lo, hi - lo)
            paths = carried[rows, None] + np.cumsum(law.phi_steps(u), axis=1)
            hit = paths > 0
            any_hit = hit.any(axis=1)
            first = np.argmax(hit, axis=1)[any_hit]
            lengths[rows[any_hit]] = offset + lo + first + 1
            heights[rows[any_hit]] = paths[any_hit, first]
            carried[rows] = paths[:, -1]
            live, lo, hi = live[~any_hit], hi, 2 * hi
        pos += LADDER_BLOCK * active.size
        active = active[live]
        offset += LADDER_BLOCK
    seek(rng, pos)
    return lengths, heights


def regime_summary(law, rng, n_traj: int, horizon: int) -> dict:
    """Height statistics of n_traj paths: terminal law, extremes, sign counts."""
    paths = law.sample_phi_paths(rng, n_traj, horizon)
    final = paths[:, -1]
    half = paths[:, horizon // 2:]
    return {
        "drift": float(law.drift()),
        "n_trajectories": n_traj,
        "horizon": horizon,
        "mean_final_height": float(final.mean()),
        "mean_final_over_n": float(final.mean()) / horizon,
        "std_final_height": float(final.std()),
        "fraction_final_positive": float((final > 0).mean()),
        "fraction_final_negative": float((final < 0).mean()),
        "min_late_height": int(half.min()),
        "max_late_height": int(half.max()),
        "fraction_late_all_positive": float((half > 0).all(axis=1).mean()),
        "fraction_late_all_negative": float((half < 0).all(axis=1).mean()),
    }


def _prefix_key(g, depth: int):
    """Hashable id of the depth-``depth`` disc below the element's position."""
    if isinstance(g, PadicAffine):
        return g.t.residue(depth)
    return tuple((p, v) for p, v in g.lamps if p <= depth)


def end_of_product(g, known_exponent: int):
    """Boundary point the right product is converging to, with honest window."""
    if isinstance(g, PadicAffine):
        return PadicEnd(g.t.with_known_exponent(known_exponent))
    return LampEnd(g.q, known_exponent,
                   tuple((p, v) for p, v in g.lamps if p <= known_exponent))


def disc_key(end, depth: int):
    """Hashable id of the depth-``depth`` disc containing a boundary point."""
    if isinstance(end, PadicEnd):
        return end.value.residue(depth)
    return tuple((p, v) for p, v in end.values if p <= depth)


@dataclass
class BoundaryLimit:
    end: object
    key: object       # disc id at the requested depth
    steps: int
    max_height: int
    certified: bool


def _certified_limit(walk, step, depth, stable_epochs, height_guard,
                     end_window, max_steps) -> BoundaryLimit:
    if end_window is None:
        end_window = depth + 8
    top = 0
    stable = 0
    key = None
    for n in range(1, max_steps + 1):
        h = step()
        if h <= top:
            continue
        top = h
        if h < depth:
            continue
        k = walk.key(depth)
        stable = stable + 1 if k == key else 1
        key = k
        if stable >= stable_epochs and top >= end_window + height_guard:
            end = end_of_product(walk.element(), end_window)
            return BoundaryLimit(end, walk.disc_id(key), n, top, True)
    raise StepBudgetExceeded(
        f"no certified depth-{depth} disc within {max_steps} steps")


def _require_positive_drift(law):
    if law.drift() <= 0:
        raise NonPositiveDrift(
            "right products only converge to the boundary under positive drift")


def sample_boundary_limit(law, rng, *, depth: int, stable_epochs=3,
                          height_guard=15, end_window=None,
                          max_steps=DEFAULT_STEP_BUDGET) -> BoundaryLimit:
    """Limit disc of depth ``depth`` around lim R_n for a positive-drift walk.

    The depth-d disc is certified once its id is unchanged across
    ``stable_epochs`` successive running-maximum records of the height
    and the height has climbed ``height_guard`` levels past the end
    window, so a later return below the window has probability at most
    about q**-height_guard.  The returned end is known to ``end_window``
    digits (default depth + 8, leaving headroom for later arithmetic).
    """
    _require_positive_drift(law)
    with _walks(law, rng) as new_walk:
        w = new_walk()
        return _certified_limit(w, w.right, depth, stable_epochs,
                                height_guard, end_window, max_steps)


def ladder_boundary_limit(law, rng, *, depth: int, stable_epochs=3,
                          height_guard=15, end_window=None,
                          max_steps=DEFAULT_STEP_BUDGET) -> BoundaryLimit:
    """``sample_boundary_limit`` for the ladder walk, whose steps are the
    elements L_l of successive ladder excursions drawn from ``rng``.
    ``steps`` counts ladder steps."""
    _require_positive_drift(law)
    with _walks(law, rng) as new_walk:
        w = new_walk()

        def ladder_step():
            exc = new_walk()
            _excursion(exc, None, None, DEFAULT_STEP_BUDGET)
            return w.right_by(exc)
        return _certified_limit(w, ladder_step, depth, stable_epochs,
                                height_guard, end_window, max_steps)
