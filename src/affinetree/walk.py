"""Random walk trajectories, ladder epochs and boundary limits.

Height-only questions (ladder epochs, regime summaries) walk numpy
paths in windows (``StepLaw.phi_sums``) until each is decided or its
span is walked, and index and reduce each window's sums in whatever
layout it comes in: a window wider in paths than in steps is a
transposed view.  Questions about where the walk lands on the boundary
track full group elements: the right products R_n = X_1...X_n converge
to a boundary point when the height drift is positive, and the sampler
certifies a disc of requested depth around the limit.

Every law walks on its engine form (``StepLaw.grid``, p-adic and lamp)
as batches of keyed rows (``grid.blocks``): certified boundary limits
(``boundary_limits``), which fold the block's one term table
(``grid.block_terms``), and the two ladder walks, which step by one step
table (``_moves``).  Those are the ladder excursions, split by the strict
records of the running maximum (``excursion_rows``), each L_l mapping x
to U·p**(H1 - H0)·(x + T) from record H0 to record H1, and the limit of
the ladder walk (``ladder_limit_rows``), whose translation gains
U_1·p**H1·T at each record H1.  Only ``run_product`` (``simulate
--dump``) and ``ladder_excursion`` step on ``group.compose``, one draw
per step.  Certified limits of the right walk stop under
``STABLE_EPOCHS`` and ``HEIGHT_GUARD``, read when called; the ladder
walk's limit is exact.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDrift, StepBudgetExceeded
from .grid import block_terms, blocks, row_chunks
from .group import compose, identity_like, phi
from .rng import position, seek, stream_rows

DEFAULT_STEP_BUDGET = 10 ** 7
STABLE_EPOCHS = 3     # the right walk's certified stop, read at each call
HEIGHT_GUARD = 15


def run_product(law, rng, horizon: int, *, visitor=None):
    """The right product R_n of ``horizon`` steps drawn from ``rng``, one
    draw each; ``visitor(n, g)`` is called after each step with the
    running product.
    """
    g = identity_like(law.atoms[0])
    for n in range(1, horizon + 1):
        g = compose(g, law.sample_step(rng))
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


def ladder_excursion(law, rng, *, track_prefix=False) -> LadderExcursion:
    """One ladder excursion of the left walk, one draw of ``rng`` per
    step, within ``DEFAULT_STEP_BUDGET`` steps."""
    g = identity_like(law.atoms[0])
    prefix = [g] if track_prefix else None
    for n in range(1, DEFAULT_STEP_BUDGET + 1):
        g = compose(law.sample_step(rng), g)
        if phi(g) > 0:
            return LadderExcursion(n, g, phi(g), prefix)
        if prefix is not None:
            prefix.append(g)
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


def _moves(grid):
    """The step table of both ladder walks: per atom k of the engine form
    ``grid``, (txn, txe, move) for a step that leaves an excursion at
    height s over its start.  On a ``plain`` form the step adds
    txn·p**(txe - s) to the excursion's T, exactly, and move is None; on
    others it is (1, 0, move), ``move(t, c, s, window)`` adding one to
    atom k's count in C, then U**-1·c_k·p**(txe - s) to T modulo
    p**window, U the unit of C.  So a step of a plain walk counts no
    units, and one with neither a term nor a unit does nothing."""
    if grid.plain:
        return [(txn, txe, None) for txn, txe, _ in grid.steps]
    add, ids = grid.sum, {k for k, _ in grid.units}

    def unit_move(j):
        txn, txe, _ = grid.steps[j]
        one = tuple(int(k == j) for k, _ in grid.units) if j in ids else ()

        def move(t, c, s, window):
            if one:                     # a unit atom counts its step
                c = tuple(map(operator.add, c, one))
            e = txe - s
            if txn and e < window:
                t = grid.key(*add(*t, grid.unit(
                    [-a for a in c], window - e, grid.coefs[j]), e), window)
            return t, c
        return move
    return [(1, 0, unit_move(j)) if txn or j in ids else (0, 0, None)
            for j, (txn, _, _) in enumerate(grid.steps)]


def excursion_rows(grid, read, rows, count, window) -> list:
    """The first ``count`` ladder excursions of each walk ``rows``
    (``_record_rows``), as (lengths, heights, states) per walk.

    The excursions of a walk are split by the strict records of its
    running maximum.  ``states`` counts the prefix states (S_k, C_k, T_k)
    of them all: S_k is the height of L_k over the excursion's start, C_k
    the counts of its unit atoms (its unit U_k, the product of u_j**C_j) and
    T_k = sum over j <= k of U_j**-1·txn_j/d_j·p**(txe_j - S_j), so L_k
    maps a point x to U_k·p**S_k·(x + T_k) (``grid.reader``).  T_k is
    exact on a ``plain`` form, else modulo p**``window``, as are its
    reads of ends known modulo p**window at most.  A step moves (T, C)
    by its atom's entry of ``_moves``, and C is counted from the
    excursion's start.
    """
    add, zero = grid.sum, (0,) * len(grid.units)
    moves = _moves(grid)

    def walk(run, n, ks, hs):
        lengths, heights, states, top, start, t, c = run
        for j, h in zip(ks, hs):
            n += 1
            if h > top:                 # the excursion ends
                lengths.append(n - start)
                heights.append(h - top)
                if len(lengths) == count:
                    return (lengths, heights, states), None
                top, start, t, c = h, n, (0, 0), zero
                state = 0, zero, t
            else:
                txn, txe, move = moves[j]
                if txn:
                    if move:
                        t, c = move(t, c, h - top, window)
                    else:
                        t = add(*t, txn, txe - h + top)
                state = h - top, c, t
            states[state] = states.get(state, 0) + 1
        return None, (lengths, heights, states, top, start, t, c)
    return _record_rows(
        grid, read, rows,
        lambda: ([], [], {(0, zero, (0, 0)): 1}, 0, 0, (0, 0), zero), walk,
        f"no ascending ladder epoch within {DEFAULT_STEP_BUDGET} steps")


def ladder_limit_rows(grid, read, rows, depth, end_window) -> list:
    """The limit (``BoundaryLimit``) of the ladder walk of each walk
    ``rows`` (``_record_rows``), whose step m is the element L_l of the
    walk's m-th ladder excursion, so its heights are the walk's records;
    ``steps`` counts ladder steps.

    An excursion from the record H0 to H1 moves its own (T, C) by
    ``_moves`` as ``excursion_rows`` does, so L_l maps x to
    U·p**(H1 - H0)·(x + T), U the unit of C.  The ladder walk up to H0
    scales by U_0·p**H0, so at H1 its translation gains U_0·U·p**H1·T =
    U_1·p**H1·T, U_1 the unit of the walk's counts at H1.  It is exact on
    a ``plain`` form, else modulo p**span, span = max(depth, end_window);
    as H1 > H0, T is kept modulo p**(span - H0 - 1).

    The limit is exact, not certified: an excursion's heights stay at or
    below H0 until the last, so each term lands at txe + H0 + H1 - H_n >=
    txe + H0, H_n the height after it, and later records only raise H0.
    A row stops at its first record r with r + low >= span +
    ``grid.key_reach``, low the lowest txe of an atom with a term (the
    valuation of its translation, or its lowest lamp): no later term
    reaches the end (known modulo p**end_window, or its lamps up to
    end_window) or the depth key, read once there.  Both equal what the
    certified rule of ``sample_boundary_limit`` gives wherever it stops no
    earlier, as for end_window >= depth and low >= key_reach -
    ``HEIGHT_GUARD``; every shipped law has low = 0.
    """
    add, span = grid.sum, max(depth, end_window)
    need = span + grid.key_reach - min(   # the record a row stops at
        (e for n, e, _ in grid.steps if n), default=span + grid.key_reach)
    moves, zero, plain = _moves(grid), (0,) * len(grid.units), grid.plain

    def walk(run, _n0, ks, hs):
        # translation, ladder steps, top, the walk's unit counts there and
        # the excursion's (T, C)
        t, n, top, w, tt, c = run
        for j, h in zip(ks, hs):
            txn, txe, move = moves[j]
            if txn:
                if move:
                    tt, c = move(tt, c, h - top, span - top - 1)
                else:
                    tt = add(*tt, txn, txe - h + top)
            if h <= top:
                continue
            if plain:                   # L_l lands: t += U_1·p**h·T
                if tt[0]:
                    t = add(*t, tt[0], tt[1] + h)
            else:
                w = tuple(map(operator.add, w, c))
                if tt[0] and tt[1] + h < span:
                    t = grid.key(*add(*t, grid.unit(
                        w, span - tt[1] - h, tt[0]), tt[1] + h), span)
            n, top, tt, c = n + 1, h, (0, 0), zero
            if h >= need:
                return _boundary_limit(
                    grid, (n, h, grid.key(*t, depth), t), end_window), None
        return None, (t, n, top, w, tt, c)
    return _record_rows(
        grid, read, rows, lambda: ((0, 0), 0, 0, zero, (0, 0), zero), walk,
        f"no exact depth-{depth} ladder limit within {DEFAULT_STEP_BUDGET} "
        "steps")


def ladder_heights(law, rng, count: int):
    """Vectorized (lengths, heights) at the first ascending ladder epoch,
    within ``DEFAULT_STEP_BUDGET`` steps, read when it is called.

    The paths still below their first epoch walk in windows of 8, 16,
    32, ... steps (``StepLaw.phi_sums``), so ``rng`` ends where those
    draws leave it, also when the budget runs out.  A window's sums are
    compared with -S, S the height at its start, with no copy of the
    paths; every path's first passage is found at once, it is read only
    for the paths that pass 0 in the window, and a height is S plus the
    sum there.
    """
    lengths, heights, carried = np.zeros((3, count), dtype=np.int64)
    for done, rows, seg in law.phi_sums(rng, count, 8, DEFAULT_STEP_BUDGET,
                                        lambda live: live[lengths[live] == 0]):
        s = carried[rows]                        # S at done
        hit = seg > -s[:, None]
        up = hit.any(axis=1).nonzero()[0]
        first, at = np.argmax(hit, axis=1)[up], rows[up]
        lengths[at] = done + first + 1
        heights[at] = s[up] + seg[up, first]
        carried[rows] = s + seg[:, -1]
    left = np.count_nonzero(lengths == 0)
    if left:
        raise StepBudgetExceeded(
            f"{left} paths without a ladder epoch after "
            f"{DEFAULT_STEP_BUDGET} steps")
    return lengths, heights


def regime_summary(law, rng, n_traj: int, horizon: int) -> dict:
    """Height statistics of n_traj paths: terminal law, late-half extremes,
    sign counts.  S at horizon // 2 comes from atom counts (``final_phis``),
    and S_{h//2+1}..S_h walk in windows (``phi_sums``), held one at a time."""
    if n_traj < 1:
        raise ValueError(f"n_traj {n_traj}: the summary needs a path")
    if horizon < 1:
        raise ValueError(f"horizon {horizon}: the summary needs a step")
    late = horizon - horizon // 2
    final = law.final_phis(rng, n_traj, horizon // 2)
    low = np.full(n_traj, np.iinfo(np.int64).max)
    high = np.full(n_traj, np.iinfo(np.int64).min)
    for _, rows, seg in law.phi_sums(rng, n_traj, late, late):
        low[rows] = np.minimum(low[rows], seg.min(axis=1) + final[rows])
        high[rows] = np.maximum(high[rows], seg.max(axis=1) + final[rows])
        final[rows] += seg[:, -1]
    return {
        "drift": str(law.drift()),
        "n_trajectories": n_traj,
        "horizon": horizon,
        "mean_final_height": float(final.mean()),
        "mean_final_over_n": float(final.mean()) / horizon,
        "std_final_height": float(final.std()),
        "fraction_final_positive": float((final > 0).mean()),
        "fraction_final_negative": float((final < 0).mean()),
        "min_late_height": int(low.min()),
        "max_late_height": int(high.max()),
        "fraction_late_all_positive": float((low > 0).mean()),
        "fraction_late_all_negative": float((high < 0).mean()),
    }


@dataclass
class BoundaryLimit:
    end: object
    key: object       # disc id at the requested depth
    steps: int


def _end_window(depth, end_window):
    """``end_window``, or by default depth + 8: headroom for later
    arithmetic on the end."""
    return depth + 8 if end_window is None else end_window


def _limit_chunks(grid, read, count, depth, end_window, max_steps):
    """Certified limits of the right walks 0..count-1 on the engine form
    ``grid``, as one list per batch of walks: per walk (steps, top, key,
    translation), or None when ``max_steps`` run out.

    The walks are read by ``grid.blocks`` from ``read``, a batch of rows
    at a time (``grid.row_chunks``).  Records are a running maximum of
    the heights.  Only translation terms below
    ``max(depth, end_window) + grid.key_reach`` can change a key or the
    end; each row folds them from the block's term table
    (``grid.block_terms``), in step order, only as far as the record
    that reads them, and ``translation`` is their sum (num, floor) at the
    stop.  A key changes only at a term below ``depth + grid.key_reach``,
    so a record reads the key again only after such a term.
    """
    add, span = grid.sum, max(depth, end_window)
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
            live, n0, path = b.live, b.n0, b.path
            t_at, tc, texps, coefs = block_terms(grid, b, fold_cut)
            path[:, 0] = top[live]
            best = np.maximum.accumulate(path, axis=1)
            after = best[:, 1:]           # at a record, its height
            rr, rc = (after > best[:, :-1]).nonzero()
            r_at = rr.searchsorted(np.arange(live.size + 1)).tolist()
            r_h, rc = after[rr, rc].tolist(), rc.tolist()
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


def _boundary_limit(grid, limit, end_window) -> BoundaryLimit:
    """The ``BoundaryLimit`` of a walk's (steps, top, key, translation)."""
    n, top, key, t = limit
    end = grid.element((top, 1, *t)).limit_end(end_window)
    return BoundaryLimit(end, grid.disc_id(key), n)


def _require_positive_drift(law):
    if law.drift() <= 0:
        raise NonPositiveDrift(
            "right products only converge to the boundary under positive drift")


def limit_rows(law, count, seed, *path, depth: int, end_window=None,
               max_steps=DEFAULT_STEP_BUDGET):
    """The walks of ``boundary_limits`` on the engine form of ``law``: one
    list per batch of walks, per walk (steps, top, key, translation) or
    None, the translation exact below the end window (``_boundary_limit``)."""
    def read(rows, start, size):
        return stream_rows(rows, start, size, seed, *path)
    return _limit_chunks(law.grid, read, count, depth,
                         _end_window(depth, end_window), max_steps)


def boundary_limits(law, count, seed, *path, depth: int, end_window=None,
                    max_steps=DEFAULT_STEP_BUDGET) -> list:
    """``sample_boundary_limit`` on the streams ``stream(seed, *path, i)``
    for i < count, as a list of ``BoundaryLimit``, None for a walk that
    ran out of ``max_steps``, walked as one batch (``limit_rows``)."""
    _require_positive_drift(law)
    out = []
    end_window = _end_window(depth, end_window)
    for rows in limit_rows(law, count, seed, *path, depth=depth,
                           end_window=end_window, max_steps=max_steps):
        out += [None if row is None else
                _boundary_limit(law.grid, row, end_window) for row in rows]
    return out


def sample_boundary_limit(law, rng, *, depth: int, end_window=None,
                          max_steps=DEFAULT_STEP_BUDGET) -> BoundaryLimit:
    """Limit disc of depth ``depth`` around lim R_n for a positive-drift walk.

    The depth-d disc is certified once its id is unchanged across
    ``STABLE_EPOCHS`` successive running-maximum records of the height
    and the height has climbed ``HEIGHT_GUARD`` levels past the end
    window, so a later return below the window has probability at most
    about q**-HEIGHT_GUARD.  The end is known modulo p**``end_window``
    (default depth + 8, headroom for later arithmetic), exact or not: a
    read past it raises.  This is the one-walk case of the batch, read
    from ``rng`` in sequence, and ``rng`` is left where one draw per step
    leaves it.
    """
    _require_positive_drift(law)
    grid = law.grid
    end_window = _end_window(depth, end_window)
    pos = position(rng)
    [row], = _limit_chunks(grid, lambda rows, start, size: rng.random(
        (1, size)), 1, depth, end_window, max_steps)
    seek(rng, pos + (max_steps if row is None else row[0]))
    if row is None:
        raise StepBudgetExceeded(
            f"no certified depth-{depth} disc within {max_steps} steps")
    return _boundary_limit(grid, row, end_window)
