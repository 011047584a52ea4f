"""Random walk trajectories, ladder epochs and boundary limits.

Height-only questions (drift, Wald identity, regime classification) use
vectorized numpy paths.  Questions about where the walk lands on the
boundary track full group elements: the right products R_n = X_1...X_n
converge to a boundary point when the height drift is positive, and the
sampler certifies a disc of requested depth around the limit.

Laws with an engine form (``StepLaw.grid``, p-adic and lamp) walk as
batches of keyed rows, read block by block as the potential kernel reads
its walks (``grid.blocks``): heights are cumulative sums, records a
running maximum, and each row folds its translation terms in exact
integers, in step order, only as far as the record that reads them.
Laws off the engine walk one step at a time on ``group.compose`` (a
generic walk object, from any start), and that loop is the reference the
batches are tested against; ``run_product`` hands every running product
to its visitor.

Certified boundary limits (``boundary_limits``, walk i on
``stream(seed, *path, i)``) fold only the terms below the depth and the
end window they can change; ``sample_boundary_limit`` is the batch's
one-walk case on a generator.  Every certified limit stops under the
rule of ``STABLE_EPOCHS`` and ``HEIGHT_GUARD``, read when it is called.
The successive ladder excursions of one walk are split by the strict
records of its running maximum (``excursion_rows``), and the ladder
walk, whose steps are whole excursions, takes its limit from the same
records (``ladder_limit_rows``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDrift, StepBudgetExceeded
from .grid import blocks, inverse_cdf, row_chunks
from .group import compose, identity_like, phi
from .rng import position, seek, stream, stream_rows, uniforms_at

DEFAULT_STEP_BUDGET = 10 ** 7
LADDER_BLOCK = 512    # ladder_heights' steps per path and block
STABLE_EPOCHS = 3     # the certified-limit stop rule, read at each call
HEIGHT_GUARD = 15


def run_product(law, rng, horizon: int, *, visitor=None):
    """The right product R_n of ``horizon`` sampled steps, walked by
    ``_GenericWalk``; ``visitor(n, g)`` is called after each step with
    the running product.
    """
    w = _GenericWalk(law, rng)
    for n in range(1, horizon + 1):
        w.right()
        if visitor is not None:
            visitor(n, w.g)
    return w.g


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
    """A walk from ``g`` (the identity by default) on generic group
    arithmetic, one draw of ``rng`` per step: laws off the engine, and
    the batches' reference."""

    def __init__(self, law, rng, g=None):
        self.law, self.rng = law, rng
        self.g = identity_like(law.atoms[0]) if g is None else g

    def right(self) -> int:
        self.g = compose(self.g, self.law.sample_step(self.rng))
        return phi(self.g)

    def left(self) -> int:
        self.g = compose(self.law.sample_step(self.rng), self.g)
        return phi(self.g)


def ladder_excursion(law, rng, *, track_prefix=False) -> LadderExcursion:
    """One ladder excursion on ``_GenericWalk``, within
    ``DEFAULT_STEP_BUDGET`` steps."""
    w = _GenericWalk(law, rng)
    prefix = [w.g] if track_prefix else None
    for n in range(1, DEFAULT_STEP_BUDGET + 1):
        h = w.left()
        if h > 0:
            return LadderExcursion(n, w.g, h, prefix)
        if prefix is not None:
            prefix.append(w.g)
    raise StepBudgetExceeded(
        f"no ascending ladder epoch within {DEFAULT_STEP_BUDGET} steps")


def _record_rows(grid, read, rows, first, walk, error):
    """Each walk ``rows`` on the engine form ``grid``, read block by block
    by ``grid.blocks`` from ``read``, until ``walk`` has its result.
    ``walk(state, n, ks, hs)`` takes a walk's state (``first()`` at the
    start), its steps so far and the block's atom indices and heights
    after each step, and gives (result, None) or (None, next state).  A
    walk that runs out of steps raises ``StepBudgetExceeded(error)``."""
    out, run = [None] * len(rows), [first() for _ in rows]
    for b in blocks(grid, read, rows, 0, DEFAULT_STEP_BUDGET):
        going = []
        for i, (row, ks, hs) in enumerate(zip(
                b.live.tolist(), b.k.tolist(), b.path[:, 1:].tolist())):
            out[row], run[row] = walk(run[row], b.n0, ks, hs)
            if out[row] is None:
                going.append(i)
        b.going = going
    if None in out:
        raise StepBudgetExceeded(error)
    return out


def excursion_rows(grid, read, rows, count) -> list:
    """The first ``count`` ladder excursions of each walk ``rows``
    (``_record_rows``), as (lengths, heights, states) per walk.

    The excursions of a walk are split by the strict records of its
    running maximum.  ``states`` counts the prefix states (S_k, T_k) of
    them all: S_k is the height of L_k over the excursion's start and
    T_k = sum over j <= k of txn_j·p**(txe_j - S_j), so L_k maps a point
    x to p**S_k·(x + T_k) (``grid.reader``).
    """
    add, steps = grid.sum, grid.steps

    def walk(run, n, ks, hs):
        lengths, heights, states, top, start, t = run
        for j, h in zip(ks, hs):
            n += 1
            if h > top:                 # the excursion ends
                lengths.append(n - start)
                heights.append(h - top)
                if len(lengths) == count:
                    return (lengths, heights, states), None
                top, start, t = h, n, (0, 0)
                state = 0, t
            else:
                txn, txe, _ = steps[j]
                if txn:
                    t = add(*t, txn, txe - h + top)
                state = h - top, t
            states[state] = states.get(state, 0) + 1
        return None, (lengths, heights, states, top, start, t)
    return _record_rows(
        grid, read, rows, lambda: ([], [], {(0, (0, 0)): 1}, 0, 0, (0, 0)),
        walk, f"no ascending ladder epoch within {DEFAULT_STEP_BUDGET} steps")


def ladder_limit_rows(grid, read, rows, depth, end_window) -> list:
    """``ladder_boundary_limit`` of each walk ``rows`` (``_record_rows``).

    Ladder step m is the element of the walk's m-th excursion, so the
    ladder heights are the walk's records, and atom n of an excursion
    from height H0 to H1 adds txn·p**(txe + H0 + H1 - H_n) to the
    translation (H_n the height after it).  Terms wait at exponent txe -
    H_n until their excursion ends; the whole translation is folded, so
    the end is the generic ladder walk's.
    """
    add, steps = grid.sum, grid.steps
    goal = end_window + HEIGHT_GUARD

    def walk(run, _n0, ks, hs):
        # translation, waiting terms, top, ladder steps, key, stable
        t, wait, top, n, key, stable = run
        for j, h in zip(ks, hs):
            txn, txe, _ = steps[j]
            if txn:
                wait = add(*wait, txn, txe - h)
            if h <= top:
                continue
            if wait[0]:
                t = add(*t, wait[0], wait[1] + top + h)
            wait, top, n = (0, 0), h, n + 1
            if h < depth:
                continue
            k = grid.key(*t, depth)
            stable = stable + 1 if k == key else 1
            key = k
            if stable >= STABLE_EPOCHS and top >= goal:
                end = grid.element((top, 1, *t)).limit_end(end_window)
                return BoundaryLimit(end, grid.disc_id(key), n, top,
                                     True), None
        return None, (t, wait, top, n, key, stable)
    return _record_rows(
        grid, read, rows, lambda: ((0, 0), (0, 0), 0, 0, None, 0), walk,
        f"no certified depth-{depth} disc within {DEFAULT_STEP_BUDGET} "
        "steps")


def ladder_heights(law, rng, count: int):
    """Vectorized (lengths, heights) at the first ascending ladder epoch,
    within ``DEFAULT_STEP_BUDGET`` steps, read when it is called.

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
        if offset >= DEFAULT_STEP_BUDGET:
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


@dataclass
class BoundaryLimit:
    end: object
    key: object       # disc id at the requested depth
    steps: int
    max_height: int
    certified: bool


def _end_window(depth, end_window):
    """``end_window``, or by default depth + 8: headroom for later
    arithmetic on the end."""
    return depth + 8 if end_window is None else end_window


def _certified_limit(walk, step, depth, end_window, max_steps):
    """The certified limit of one generic walk stepped by ``step``."""
    end_window = _end_window(depth, end_window)
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
        k = walk.g.prefix_key(depth)
        stable = stable + 1 if k == key else 1
        key = k
        if stable >= STABLE_EPOCHS and top >= end_window + HEIGHT_GUARD:
            end = walk.g.limit_end(end_window)
            return BoundaryLimit(end, key, n, top, True)
    raise StepBudgetExceeded(
        f"no certified depth-{depth} disc within {max_steps} steps")


def _limit_chunks(grid, read, count, depth, end_window, max_steps):
    """Certified limits of the right walks 0..count-1 on the engine form
    ``grid``, as one list per batch of walks: per walk (steps, top, key,
    translation), or None when ``max_steps`` run out.

    The walks are read by ``grid.blocks`` from ``read``, a batch of rows
    at a time (``grid.row_chunks``).  Records are a running maximum of
    the heights.  Only translation terms below
    ``max(depth, end_window) + grid.key_reach`` can change a key or the
    end; each row folds them in exact integers, in step order, only as
    far as the record that reads them, and ``translation`` is their sum
    (num, floor) at the stop.  A key changes only at a term below
    ``depth + grid.key_reach``, so a record reads the key again only
    after such a term.
    """
    add, steps = grid.sum, grid.steps
    span = max(depth, end_window)
    key_cut, fold_cut = depth + grid.key_reach, span + grid.key_reach
    goal = end_window + HEIGHT_GUARD
    for rows in row_chunks(count):
        m = len(rows)
        out = [None] * m
        # the running maximum, or depth - 1 while that is more: a record
        # that counts is a step above it
        top = np.full(m, depth - 1, dtype=np.int64)
        # per walk: terms folded so far, their key (None until read again),
        # the key at the last record and the records in a row with it
        state = [((0, 0), None, None, 0)] * m
        for b in blocks(grid, read, rows, 0, max_steps):
            live, n0, k, path = b.live, b.n0, b.k, b.path
            tr, tc = (b.exps < fold_cut).nonzero()
            path[:, 0] = top[live]
            best = np.maximum.accumulate(path, axis=1)
            rr, rc = (best[:, 1:] > best[:, :-1]).nonzero()
            bounds = np.arange(live.size + 1)
            r_at = rr.searchsorted(bounds).tolist()
            r_h, rc = path[rr, rc + 1].tolist(), rc.tolist()
            t_at = tr.searchsorted(bounds).tolist()
            coefs = [steps[j][0] for j in k[tr, tc].tolist()]
            texps, tc = b.exps[tr, tc].tolist(), tc.tolist()
            going = []
            for i, row in enumerate(live.tolist()):
                t, cur, key, stable = state[row]
                j, t1 = t_at[i], t_at[i + 1]
                for r in range(r_at[i], r_at[i + 1]):
                    while j < t1 and tc[j] <= rc[r]:
                        t = add(*t, coefs[j], texps[j])
                        cur = None if texps[j] < key_cut else cur
                        j += 1
                    if cur is None:
                        cur = grid.key(*t, depth)
                    stable = stable + 1 if cur == key else 1
                    key = cur
                    if stable >= STABLE_EPOCHS and r_h[r] >= goal:
                        out[row] = (n0 + rc[r] + 1, r_h[r], key, t)
                        break
                else:
                    going.append(i)
                    for j in range(j, t1):
                        t = add(*t, coefs[j], texps[j])
                        cur = None if texps[j] < key_cut else cur
                    if t1 > t_at[i]:   # digits that no read reaches go
                        t = grid.key(*t, span)
                    state[row] = t, cur, key, stable
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
    end = grid.element((top, 1, *t)).limit_end(end_window)
    if end.is_exact:
        # an end with few digits keeps the exact value: every term counts
        t = _translation(grid, inverse_cdf(grid.thresholds,
                                           read([i], 0, n)[0]))
        end = grid.element((top, 1, *t)).limit_end(end_window)
    return BoundaryLimit(end, grid.disc_id(key), n, top, True)


def _require_positive_drift(law):
    if law.drift() <= 0:
        raise NonPositiveDrift(
            "right products only converge to the boundary under positive drift")


def limit_rows(law, count, seed, *path, depth: int, end_window=None,
               max_steps=DEFAULT_STEP_BUDGET):
    """The walks of ``boundary_limits`` on the engine form of ``law``,
    as (chunks, limit): ``chunks`` yields one list per batch of walks,
    per walk (steps, top, key, translation) or None, and ``limit(i,
    row)`` makes walk i's ``BoundaryLimit`` of its row."""
    grid = law.grid
    end_window = _end_window(depth, end_window)

    def read(rows, start, size):
        return stream_rows(rows, start, size, seed, *path)
    chunks = _limit_chunks(grid, read, count, depth, end_window, max_steps)
    return chunks, lambda i, row: _boundary_limit(grid, read, i, row,
                                                  end_window)


def boundary_limits(law, count, seed, *path, depth: int, end_window=None,
                    max_steps=DEFAULT_STEP_BUDGET) -> list:
    """``sample_boundary_limit`` on the streams ``stream(seed, *path, i)``
    for i < count, as a list of (limit, uniforms used); limit is None for
    a walk that ran out of ``max_steps``.  Laws on the engine walk as one
    batch (``limit_rows``)."""
    _require_positive_drift(law)
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
    chunks, limit = limit_rows(law, count, seed, *path, depth=depth,
                               end_window=end_window, max_steps=max_steps)
    for rows in chunks:
        for row in rows:
            i = len(out)
            out.append((None, max_steps) if row is None
                       else (limit(i, row), row[0]))
    return out


def sample_boundary_limit(law, rng, *, depth: int, end_window=None,
                          max_steps=DEFAULT_STEP_BUDGET) -> BoundaryLimit:
    """Limit disc of depth ``depth`` around lim R_n for a positive-drift walk.

    The depth-d disc is certified once its id is unchanged across
    ``STABLE_EPOCHS`` successive running-maximum records of the height
    and the height has climbed ``HEIGHT_GUARD`` levels past the end
    window, so a later return below the window has probability at most
    about q**-HEIGHT_GUARD.  The returned end is known to ``end_window``
    digits (default depth + 8, leaving headroom for later arithmetic).
    On the engine this is the one-walk case of the batch, and ``rng``
    is left where one draw per step leaves it.
    """
    _require_positive_drift(law)
    grid = law.grid
    if grid is None:
        w = _GenericWalk(law, rng)
        return _certified_limit(w, w.right, depth, end_window, max_steps)
    end_window = _end_window(depth, end_window)
    pos = position(rng)
    drawn = 0     # uniforms read from pos on

    def read(rows, start, size):
        nonlocal drawn
        if start != drawn:
            seek(rng, pos + start)
        drawn = start + size
        return rng.random((1, size))
    [row], = _limit_chunks(grid, read, 1, depth, end_window, max_steps)
    if row is None:
        seek(rng, pos + max_steps)
        raise StepBudgetExceeded(
            f"no certified depth-{depth} disc within {max_steps} steps")
    bl = _boundary_limit(grid, read, 0, row, end_window)
    seek(rng, pos + row[0])
    return bl


def ladder_boundary_limit(law, rng, *, depth: int, end_window=None,
                          max_steps=DEFAULT_STEP_BUDGET) -> BoundaryLimit:
    """``sample_boundary_limit`` for the ladder walk, whose steps are the
    elements L_l of successive ladder excursions drawn from ``rng``, on
    generic group arithmetic, under the same stop rule (``STABLE_EPOCHS``
    and ``HEIGHT_GUARD``).  ``steps`` counts ladder steps; its batch form
    on the engine is ``ladder_limit_rows``."""
    _require_positive_drift(law)
    w = _GenericWalk(law, rng)

    def ladder_step():
        w.g = compose(w.g, ladder_excursion(law, rng).element)
        return phi(w.g)
    return _certified_limit(w, ladder_step, depth, end_window, max_steps)
