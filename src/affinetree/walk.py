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

Certified boundary limits of laws on the engine are walked as one batch
instead (``boundary_limits``, walk i on ``stream(seed, *path, i)``,
read block by block as the potential kernel reads its walks,
``grid.blocks``): heights are cumulative sums, records a running
maximum, and translation terms are folded in exact integers only below
the depth and the end window they can change.
``sample_boundary_limit`` is the batch's one-walk case on a generator;
the loop on a walk object serves laws off the engine and the ladder walk.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDrift, StepBudgetExceeded
from .grid import Draws, GridWalk, atom_index, blocks, row_chunks
from .group import PadicAffine, act_end, compose, identity_like, phi
from .rng import position, seek, stream, stream_rows, uniforms_at
from .tree import LampEnd, PadicEnd, end_in_disc

DEFAULT_STEP_BUDGET = 10 ** 7
LADDER_BLOCK = 512    # ladder_heights' steps per path and block
STABLE_EPOCHS = 3     # defaults of the certified-limit stop rule
HEIGHT_GUARD = 15


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
    """The certified limit of one walk stepped by ``step``: the ladder
    walk, and laws off the engine."""
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


def _limit_chunks(grid, read, count, depth, stable_epochs, height_guard,
                  end_window, max_steps):
    """Certified limits of the right walks 0..count-1 on the engine form
    ``grid``, as one list per batch of walks: per walk (steps, top, key,
    translation), or None when ``max_steps`` run out.

    The walks are read by ``grid.blocks`` from ``read``, a batch of rows
    at a time (``grid.row_chunks``).  Records are a running maximum of
    the heights.  Only translation terms below
    ``max(depth, end_window) + grid.key_reach`` can change a key or the
    end; they are folded in exact integers, and ``translation`` is their
    sum (num, floor).  A key changes only at a term below ``depth +
    grid.key_reach``, so the stop rule compares keys only at the first
    record after such a term.
    """
    steps = grid.steps
    span = max(depth, end_window)
    key_cut, fold_cut = depth + grid.key_reach, span + grid.key_reach
    goal = end_window + height_guard
    for rows in row_chunks(count):
        m = len(rows)
        out = [None] * m
        # the running maximum, or depth - 1 while that is more: a record
        # that counts is a step above it
        top = np.full(m, depth - 1, dtype=np.int64)
        trans = [(0, 0)] * m          # terms folded so far
        cur = [grid.key(0, 0, depth)] * m   # and their key
        last = [None] * m     # key at the last record at or above depth
        stable = [0] * m      # records in a row with that key
        for b in blocks(grid, read, rows, 0, max_steps):
            live, n0, k, path = b.live, b.n0, b.k, b.path
            hs = path[:, 1:]
            tr, tc = (b.exps < fold_cut).nonzero()
            path[:, 0] = top[live]
            best = np.maximum.accumulate(path, axis=1)
            rr, rc = (best[:, 1:] > best[:, :-1]).nonzero()
            bounds = np.arange(live.size + 1)
            r_at = rr.searchsorted(bounds).tolist()
            r_h, rc = hs[rr, rc].tolist(), rc.tolist()
            t_at = tr.searchsorted(bounds).tolist()
            coefs = [steps[j][0] for j in k[tr, tc].tolist()]
            texps, tc = b.exps[tr, tc].tolist(), tc.tolist()
            going = []
            for i, row in enumerate(live.tolist()):
                # fold the walk's terms; keys[v] is the key after the v-th
                # key term, which comes at step cols[v - 1]
                t, keys, sums, cols = trans[row], [cur[row]], [], []
                for j in range(t_at[i], t_at[i + 1]):
                    t = grid.sum(*t, coefs[j], texps[j])
                    sums.append(t)
                    if texps[j] < key_cut:
                        keys.append(grid.key(*t, depth))
                        cols.append(tc[j])
                # records: heights rise and a key moves only at a key
                # term, so a run of equal keys restarts only at the first
                # record after one, and the stop is the first record high
                # enough in a run long enough
                r, r1 = r_at[i], r_at[i + 1]
                high = bisect_left(r_h, goal, r, r1)
                first = r - stable[row]           # first record of the run
                key = last[row]
                while r < r1:
                    v = bisect_right(cols, rc[r])
                    if keys[v] != key:
                        key, first = keys[v], r
                    end = bisect_left(rc, cols[v], r, r1) \
                        if v < len(cols) else r1
                    stop = max(r, high, first + stable_epochs - 1)
                    if stop < end:
                        c = rc[stop]
                        j = bisect_right(tc, c, t_at[i], t_at[i + 1]) \
                            - t_at[i]
                        out[row] = (n0 + c + 1, r_h[stop], key,
                                    sums[j - 1] if j else trans[row])
                        break
                    r = end
                else:
                    going.append(i)
                    if sums:   # digits that no read reaches are dropped
                        trans[row] = grid.key(*sums[-1], span)
                        cur[row] = keys[-1]
                    if r1 > r_at[i]:
                        last[row], stable[row] = key, r1 - first
            top[live] = best[:, -1]
            b.going = going
        yield out


def _translation(grid, indices):
    """(num, floor) of the whole translation of the right walk through
    the atoms ``indices``."""
    s, t = 0, (0, 0)
    for j in indices.tolist():
        n, e, ph = grid.steps[j]
        if n:
            t = grid.sum(*t, n, s + e)
        s += ph
    return t


def _boundary_limit(grid, read, i, limit, end_window) -> BoundaryLimit:
    """The ``BoundaryLimit`` of walk i's (steps, top, key, translation)."""
    n, top, key, t = limit
    end = end_of_product(grid.element((top, 1, *t)), end_window)
    if isinstance(end, PadicEnd) and end.value.exact is not None:
        # an end with few digits keeps the exact value: every term counts
        t = _translation(grid, atom_index(grid, read([i], 0, n)[0]))
        end = end_of_product(grid.element((top, 1, *t)), end_window)
    return BoundaryLimit(end, grid.disc_id(key), n, top, True)


def _require_positive_drift(law):
    if law.drift() <= 0:
        raise NonPositiveDrift(
            "right products only converge to the boundary under positive drift")


def _limit_rows(grid, count, seed, path, depth, end_window, max_steps):
    """(chunks, limit) of ``limit_rows`` with its end window and step
    budget."""
    def read(rows, start, size):
        return stream_rows(rows, start, size, seed, *path)
    chunks = _limit_chunks(grid, read, count, depth, STABLE_EPOCHS,
                           HEIGHT_GUARD, end_window, max_steps)
    return chunks, lambda i, row: _boundary_limit(grid, read, i, row,
                                                  end_window)


def limit_rows(law, count, seed, *path, depth: int):
    """The walks of ``boundary_limits`` on the engine form of ``law``,
    as (chunks, limit): ``chunks`` yields one list per batch of walks,
    per walk (steps, top, key, translation) or None, and ``limit(i,
    row)`` makes walk i's ``BoundaryLimit`` of its row."""
    return _limit_rows(law.grid, count, seed, path, depth, depth + 8,
                       DEFAULT_STEP_BUDGET)


def boundary_limits(law, count, seed, *path, depth: int, end_window=None,
                    max_steps=DEFAULT_STEP_BUDGET) -> list:
    """``sample_boundary_limit`` on the streams ``stream(seed, *path, i)``
    for i < count, as a list of (limit, uniforms used); limit is None for
    a walk that ran out of ``max_steps``.  Laws on the engine walk as one
    batch (``limit_rows``)."""
    _require_positive_drift(law)
    if end_window is None:
        end_window = depth + 8
    out = []
    if law.grid is None:
        for i in range(count):
            r = stream(seed, *path, i)
            try:
                out.append((sample_boundary_limit(
                    law, r, depth=depth, end_window=end_window,
                    max_steps=max_steps), position(r)))
            except StepBudgetExceeded:
                out.append((None, position(r)))
        return out
    chunks, limit = _limit_rows(law.grid, count, seed, path, depth,
                                end_window, max_steps)
    for rows in chunks:
        for row in rows:
            i = len(out)
            out.append((None, max_steps) if row is None
                       else (limit(i, row), row[0]))
    return out


def sample_boundary_limit(law, rng, *, depth: int,
                          stable_epochs=STABLE_EPOCHS,
                          height_guard=HEIGHT_GUARD, end_window=None,
                          max_steps=DEFAULT_STEP_BUDGET) -> BoundaryLimit:
    """Limit disc of depth ``depth`` around lim R_n for a positive-drift walk.

    The depth-d disc is certified once its id is unchanged across
    ``stable_epochs`` successive running-maximum records of the height
    and the height has climbed ``height_guard`` levels past the end
    window, so a later return below the window has probability at most
    about q**-height_guard.  The returned end is known to ``end_window``
    digits (default depth + 8, leaving headroom for later arithmetic).
    On the engine this is the one-walk case of the batch, and ``rng``
    is left where one draw per step leaves it.
    """
    _require_positive_drift(law)
    grid = law.grid
    if grid is None:
        with _walks(law, rng) as new_walk:
            w = new_walk()
            return _certified_limit(w, w.right, depth, stable_epochs,
                                    height_guard, end_window, max_steps)
    if end_window is None:
        end_window = depth + 8
    pos = position(rng)
    drawn = 0     # uniforms read from pos on

    def read(rows, start, size):
        nonlocal drawn
        if start != drawn:
            seek(rng, pos + start)
        drawn = start + size
        return rng.random((1, size))
    [row], = _limit_chunks(grid, read, 1, depth, stable_epochs, height_guard,
                           end_window, max_steps)
    if row is None:
        seek(rng, pos + max_steps)
        raise StepBudgetExceeded(
            f"no certified depth-{depth} disc within {max_steps} steps")
    bl = _boundary_limit(grid, read, 0, row, end_window)
    seek(rng, pos + row[0])
    return bl


def ladder_boundary_limit(law, rng, *, depth: int,
                          stable_epochs=STABLE_EPOCHS,
                          height_guard=HEIGHT_GUARD, end_window=None,
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
