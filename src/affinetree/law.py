"""Finitely supported step laws on the affine group.

A law is a list of atoms, exact group elements (``require_exact``), with
exact Fraction weights.  Sampling uses inverse-CDF lookup against
cumulative float thresholds; the scalar and vectorized paths consume
uniforms identically, so a height-only simulation and a full group
simulation with the same stream visit the same atoms.  Height paths
skip the atom index: u picks the step phis[0] plus the jump phis[j+1] -
phis[j] at each threshold j <= u, and ``phi_sums`` alone walks them,
window by window, never whole: a window with more paths than steps is
summed across its paths, one vector add per step, a narrower one along
each path.  A final height draws no step: it is phis . K, K its
multinomial atom counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EmptySupport, WeightsNotNormalized
from .grid import inverse_cdf
from .group import decompose, invert, norm, phi, require_exact, \
    validate_non_exceptional

WINDOW_CAP = 20000    # the widest window of steps a height path draws


def _window_sums(steps, dtype) -> np.ndarray:
    """Running sums in ``dtype`` of ``steps``, a (paths, steps) array,
    along each path.  With more paths than steps, one vector add per step
    sums across the paths into a step-major array, handed out as its
    transposed (paths, steps) view; otherwise ``np.cumsum`` sums along
    each path."""
    paths, width = steps.shape
    if width >= paths:
        return np.cumsum(steps, axis=1, dtype=dtype)
    out = np.empty((width, paths), dtype)
    out[0] = steps[:, 0]
    for j in range(1, width):
        np.add(out[j - 1], steps[:, j], out=out[j])
    return out.T


@dataclass(frozen=True)
class StepLaw:
    atoms: tuple
    weights: tuple  # Fractions, positive, summing to 1
    thresholds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.atoms:
            raise EmptySupport("a step law needs at least one atom")
        for atom in self.atoms:
            require_exact(atom)
        weights = tuple(Fraction(w) for w in self.weights)
        if len(weights) != len(self.atoms):
            raise WeightsNotNormalized("one weight per atom required")
        if any(w <= 0 for w in weights):
            raise WeightsNotNormalized("weights must be positive")
        total = sum(weights)
        if total != 1:
            raise WeightsNotNormalized(f"weights sum to {total}, not 1")
        object.__setattr__(self, "weights", weights)
        cum = np.cumsum([float(w) for w in weights])
        cum[-1] = 1.0
        object.__setattr__(self, "thresholds", cum)

    @property
    def kind(self) -> str:
        """The realization kind of the atoms, "padic" or "lamplighter"."""
        return self.atoms[0].kind

    @property
    def degree(self) -> int:
        """Branching number q of the tree the law acts on."""
        return self.atoms[0].degree

    @functools.cached_property
    def phis(self) -> tuple:
        return tuple(phi(a) for a in self.atoms)

    def drift(self) -> Fraction:
        """Mean height displacement of one step, exact."""
        return self._drift

    @functools.cached_property
    def _drift(self) -> Fraction:
        return sum((w * phi(a) for a, w in zip(self.atoms, self.weights)),
                   Fraction(0))

    def phi_second_moment(self) -> Fraction:
        return sum((w * phi(a) ** 2 for a, w in zip(self.atoms, self.weights)),
                   Fraction(0))

    def phi_gcd(self) -> int:
        return math.gcd(*self.phis)

    def inverse(self) -> "StepLaw":
        """Law of the inverted step: same weights on the inverse atoms."""
        return self._inverse

    @functools.cached_property
    def _inverse(self) -> "StepLaw":
        return StepLaw(tuple(invert(a) for a in self.atoms), self.weights)

    @functools.cached_property
    def grid(self) -> "GridLaw | LampGrid":
        """The law's form on the integer walk engine."""
        return self.atoms[0].engine(self)

    def validate(self, *, allow_non_surjective=False):
        return validate_non_exceptional(
            self.atoms, allow_non_surjective=allow_non_surjective)

    # -- sampling ------------------------------------------------------------

    def sample_index(self, rng) -> int:
        return inverse_cdf(self.thresholds, rng.random())

    def sample_step(self, rng):
        return self.atoms[self.sample_index(rng)]

    def sample_indices(self, rng, size) -> np.ndarray:
        return inverse_cdf(self.thresholds, rng.random(size))

    def phi_steps(self, u) -> np.ndarray:
        """``phis[sample_indices]`` for uniforms ``u``, in the narrowest
        signed integer type holding every phi and phi jump."""
        dtype, jumps = self._jumps
        out = np.full(u.shape, self.phis[0], dtype)
        for t, d in zip(self.thresholds, jumps):
            out += (u >= t) * d
        return out

    @functools.cached_property
    def _jumps(self):
        """``phi_steps``' dtype and its phi jump per threshold."""
        jumps = np.diff(self.phis).tolist()
        dtype = np.min_scalar_type(-max(map(abs, [*self.phis, *jumps])) - 1)
        return dtype, [dtype.type(d) for d in jumps]

    def final_phis(self, rng, n_traj: int, horizon: int) -> np.ndarray:
        """S_horizon of n_traj paths: phis . K for atom counts K drawn from
        Multinomial(horizon, the samplers' float weights), in atom order."""
        probs = np.diff(self.thresholds, prepend=0.0)
        return rng.multinomial(horizon, probs, size=n_traj) @ np.array(
            self.phis, dtype=np.int64)

    def phi_sums(self, rng, count: int, width: int, span: int, going=None):
        """Heights of the paths 0..count-1 in windows of ``width``, twice
        that, ... steps, up to ``WINDOW_CAP``, cut at ``span``.  Each window
        reads one (paths, width) block of ``rng`` for the paths still live,
        in order: all at first, then those ``going(rows)`` keeps (all by
        default).  It yields (steps before the window, rows, heights gained
        in it) by row chunks of about 2**20 steps, which read the same
        uniforms; heights are int32 where a window cannot overflow.  They
        may be a transposed view (``_window_sums``), not C order: callers
        index and reduce them and never assume their layout."""
        live, done, top = np.arange(count), 0, max(map(abs, self.phis))
        while live.size and done < span:
            width = min(width, WINDOW_CAP, span - done)
            sums = np.int32 if width * top < 2**31 else np.int64
            step = max(1, 2 ** 20 // width)            # rows per chunk
            for a in range(0, live.size, step):
                rows = live[a:a + step]
                yield done, rows, _window_sums(self.phi_steps(
                    rng.random((rows.size, width))), sums)
            live = live if going is None else going(live)
            done, width = done + width, 2 * width

    def moment_report(self) -> dict:
        """Exact moment summary; all quantities are finite (finite support).

        Includes the mean absolute height step, the mean vertex norm of a
        step, and the third moment (2 + eps with eps = 1) of the norms of
        the horocyclic parts against the default reference homothety.
        """
        drift = self.drift()
        s = self.atoms[0].reference_homothety()
        norms = [norm(a) for a in self.atoms]
        b_norms = [norm(decompose(a, s)[0]) for a in self.atoms]
        wsum = lambda vals: sum((w * v for w, v in zip(self.weights, vals)),
                                Fraction(0))
        return {
            "atoms": [a.render() for a in self.atoms],
            "weights": [str(w) for w in self.weights],
            "phis": list(self.phis),
            "drift": str(drift),
            "drift_float": float(drift),
            "phi_abs_mean": str(wsum([abs(v) for v in self.phis])),
            "phi_second_moment": str(self.phi_second_moment()),
            "norm_mean": str(wsum(norms)),
            "b_norm_moment_exponent": 3,
            "b_norm_moment": float(wsum([Fraction(v) ** 3 for v in b_norms])),
            "phi_gcd": self.phi_gcd(),
        }
