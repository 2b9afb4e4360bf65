"""Numerical calculus for linear relations and their semigroups.

The package treats multivalued linear operators on K^d through orthonormal
graph bases: subspace arithmetic, canonical parts, resolvents, dissipativity
certificates, degenerate and integrated semigroups, convergence tables for
relation sequences, and a grid Dirichlet laboratory for domain-perturbation
experiments.
"""

from .errors import (
    ConfigError,
    ContractFailed,
    DecompositionFailure,
    InconsistentEquivalence,
    InvalidInput,
    MaskTouchesBoundary,
    NotAPseudoResolvent,
    NotDissipative,
    NotInResolventSet,
    NotMDissipative,
    NotSurjective,
    OutsideSector,
    RelsemiError,
    SolverBreakdown,
    VanishingMultiplier,
)
from .subspace import Subspace
from .relation import LinearRelation, RelationParts
from .spectral import resolvent, resolvent_set_scan
from .dissipative import (
    decide_m_dissipative,
    dissipativity_l2,
    dissipativity_sampled,
    is_m_dissipative,
    lumer_phillips_invert,
    maximal_dissipative_extension,
)
from .semigroup import (
    SectorSpec,
    decompose,
    holomorphic_at,
    integrated_at,
    sector_verify,
    semigroup_at,
)
from .converge import trotter_kato_report, holomorphic_convergence_report
from .grids import Box, DomainMask, Grid, mask_from_shapes
from .heatlab import (
    DirichletGridRelation,
    heat_orbit,
    perturbation_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "ConfigError",
    "ContractFailed",
    "DecompositionFailure",
    "DirichletGridRelation",
    "DomainMask",
    "Grid",
    "InconsistentEquivalence",
    "InvalidInput",
    "LinearRelation",
    "MaskTouchesBoundary",
    "NotAPseudoResolvent",
    "NotDissipative",
    "NotInResolventSet",
    "NotMDissipative",
    "NotSurjective",
    "OutsideSector",
    "RelationParts",
    "RelsemiError",
    "SectorSpec",
    "SolverBreakdown",
    "Subspace",
    "VanishingMultiplier",
    "decide_m_dissipative",
    "decompose",
    "dissipativity_l2",
    "dissipativity_sampled",
    "heat_orbit",
    "holomorphic_at",
    "holomorphic_convergence_report",
    "integrated_at",
    "is_m_dissipative",
    "lumer_phillips_invert",
    "mask_from_shapes",
    "maximal_dissipative_extension",
    "perturbation_experiment",
    "resolvent",
    "resolvent_set_scan",
    "sector_verify",
    "semigroup_at",
    "trotter_kato_report",
]
