"""Reference values for the benchmark's statistical checks.

Computed with plain numpy, independently of ``affinetree``, so that the
benchmark checks the package against code that shares none of its logic.
The printed values are pasted into ``workloads.py``; rerun with

    python3 perfbench/reference.py

(about two minutes on one core).

* ``limit_in_z2``: P[xi in Z_2] for the boundary limit xi = lim R_n(0) of
  the right products R_n = X_1...X_n of a 2-adic law whose atoms are
  (t, 2**phi) with t = 0 or t = +-2**e.  Then xi = sum_k 2**S_{k-1} t_k,
  and xi lies in Z_2 exactly when the terms with negative exponent sum
  to an integer.  Those terms are added modulo 2**62 in 62-bit fixed
  point; a path is dropped once its height reaches ``HIGH``, since a
  return below 0 from there has probability 3**-HIGH.
* ``centered_miss``: P[not (max S > 10 and min S < -10)] over 300000
  steps of the centered height walk (+1 and -1 w.p. 3/8, 0 w.p. 1/4),
  by exact dynamic programming; this is the failure rate of
  ``regime_claims`` on ``configs/centered.ini``.
"""

from __future__ import annotations

import numpy as np

FRAC_BITS = 62
HIGH = 48

# (weight, phi, t) with t = None or (sign, exponent); the laws of
# configs/drift_pos.ini and of the inverse of configs/drift_neg.ini
DRIFT_POS = [(0.75, +1, None), (0.25, -1, (+1, 0))]
DRIFT_NEG_INVERSE = [(0.75, +1, None), (0.25, -1, (-1, -1))]


def limit_in_z2(atoms, samples, seed, chunk=500_000):
    rng = np.random.default_rng(seed)
    cum = np.cumsum([w for w, _, _ in atoms])
    phis = np.array([ph for _, ph, _ in atoms], dtype=np.int64)
    inside = 0
    for start in range(0, samples, chunk):
        n = min(chunk, samples - start)
        s = np.zeros(n, dtype=np.int64)
        acc = np.zeros(n, dtype=np.uint64)
        live = np.arange(n)
        while live.size:
            k = np.searchsorted(cum, rng.random(live.size), side="right")
            k = np.minimum(k, len(atoms) - 1)
            for ai, (_, _, t) in enumerate(atoms):
                if t is None:
                    continue
                sign, e = t
                sel = live[k == ai]
                exp = s[sel] + e
                frac = sel[exp < 0]
                shift = exp[exp < 0] + FRAC_BITS
                if frac.size and shift.min() < 0:
                    raise RuntimeError("height left the fixed-point window")
                term = np.left_shift(np.uint64(1), shift.astype(np.uint64))
                acc[frac] = acc[frac] + term if sign > 0 else acc[frac] - term
            s[live] += phis[k]
            live = live[s[live] < HIGH]
        inside += int(np.count_nonzero(acc & np.uint64((1 << FRAC_BITS) - 1) == 0))
    p = inside / samples
    return p, (p * (1 - p) / samples) ** 0.5


def centered_miss(steps=300_000, level=10, floor=-6000):
    """P[max_{k<=steps} S_k <= level], doubled by symmetry (the event that
    both extremes stay inside +-level has probability below 1e-200)."""
    size = level - floor + 1          # heights floor..level
    dist = np.zeros(size)
    dist[-floor] = 1.0                # start at height 0
    for _ in range(steps):
        new = 0.25 * dist
        new[1:] += 0.375 * dist[:-1]  # up; mass stepping above level leaves
        new[:-1] += 0.375 * dist[1:]  # down
        new[0] += 0.375 * dist[0]     # the floor is never left in time
        dist = new
    return 2.0 * float(dist.sum())


def main():
    for name, atoms, seed in (("drift_pos", DRIFT_POS, 1),
                              ("drift_neg_inverse", DRIFT_NEG_INVERSE, 2)):
        p, se = limit_in_z2(atoms, 4_000_000, seed)
        print(f"limit_in_z2[{name}] = {p:.6f} +- {se:.6f}")
    print(f"centered_miss = {centered_miss():.6f}")


if __name__ == "__main__":
    main()
