"""Random walks on the affine group of a homogeneous tree.

Two exact realizations of the tree's affine isometries: the p-adic
affine group acting on discs of Q_p, and the lamplighter group acting
on lamp configurations over Z.  The package simulates right random
walks driven by finitely supported step laws and numerically checks
their renewal-theoretic behavior: the drift trichotomy, the invariant
boundary measure built from ladder epochs, the renewal identity, and
the boundary limits of the potential kernel.
"""

__version__ = "1.0.0"

from .errors import AffineTreeError
from .padic import PAdic, PrecisionBudget
from .tree import (
    OMEGA,
    LampEnd,
    LampVertex,
    PadicEnd,
    PadicVertex,
    graph_distance,
    meet,
    origin_lamp,
    origin_padic,
    theta,
)
from .group import (
    LampAffine,
    PadicAffine,
    act_end,
    act_vertex,
    compose,
    decompose,
    fixed_end,
    invert,
    norm,
    phi,
    power,
    validate_non_exceptional,
)
from .law import StepLaw
from .walk import (
    boundary_limits,
    ladder_excursion,
    ladder_heights,
    regime_summary,
    run_product,
    sample_boundary_limit,
)
from .renewal import (
    CylinderEvent,
    KernelEstimate,
    ProductCylinder,
    estimate_m_misinv,
    kernel_oracle,
    limit_measure_value,
    potential_kernel,
    verify_boundary_limit,
    verify_omega_limit,
    verify_renewal_identity,
    wald_mass_check,
)
from .config import ExperimentConfig, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
