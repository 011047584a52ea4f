"""Reproducible random streams.

Counter-based Philox generators keyed by (seed, stream index), so any
trajectory can be re-simulated independently of how many others ran
before it.  Scalar and vectorized sampling paths draw the same uniforms
in the same order.
"""

from __future__ import annotations

import numpy as np

_MASK128 = (1 << 128) - 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator number ``index`` of the family keyed by seed."""
    key = ((seed << 64) ^ index) & _MASK128
    return np.random.Generator(np.random.Philox(key=key))
