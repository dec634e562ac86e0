"""Projection methods onto linear and affine subspaces.

Construct subspaces, form cyclic (alternating) and simultaneous
(averaged) projection operators, compute Friedrichs numbers by several
independent routes, and verify the exact error-operator norms and optimal
convergence-rate bounds these methods obey in finite dimensions.
"""

from .affine import (
    AffineFamily,
    AffineSubspace,
    cyclic_affine,
    intersection_affine,
    simultaneous_affine,
)
from .angles import (
    FriedrichsResult,
    cos_two,
    friedrichs_from_norm,
    friedrichs_gram,
)
from .errors import (
    ContainmentError,
    DegenerateError,
    InfeasibleError,
    InputError,
    ProjBoundsError,
)
from .methods import (
    IterationTrace,
    IterOperator,
    cyclic_bound,
    cyclic_operator,
    error_operator_norm,
    iterate,
    kw_bound,
    optimal_bound_simultaneous,
    simultaneous_operator,
    verify_error_identity,
)
from .numlin import null_space, orthonormal_basis, spectral_norm, symmetric_norm
from .productspace import (
    ProductSpaceModel,
    build_product,
    chain_residual_profile,
    cos_CD,
    lift_diag,
    pierra_lift_residual,
)
from .scenario import (
    Scenario,
    SubspaceSpec,
    format_scenario,
    generate_random,
    generate_two_subspace,
    parse_scenario,
)
from .subspaces import Family, Subspace, intersection, reduced_component

__version__ = "0.1.0"

__all__ = [
    "AffineFamily",
    "AffineSubspace",
    "ContainmentError",
    "DegenerateError",
    "Family",
    "FriedrichsResult",
    "InfeasibleError",
    "InputError",
    "IterOperator",
    "IterationTrace",
    "ProductSpaceModel",
    "ProjBoundsError",
    "Scenario",
    "Subspace",
    "SubspaceSpec",
    "build_product",
    "chain_residual_profile",
    "cos_CD",
    "cos_two",
    "cyclic_affine",
    "cyclic_bound",
    "cyclic_operator",
    "error_operator_norm",
    "format_scenario",
    "friedrichs_from_norm",
    "friedrichs_gram",
    "generate_random",
    "generate_two_subspace",
    "intersection",
    "intersection_affine",
    "iterate",
    "kw_bound",
    "lift_diag",
    "null_space",
    "optimal_bound_simultaneous",
    "orthonormal_basis",
    "parse_scenario",
    "pierra_lift_residual",
    "reduced_component",
    "simultaneous_affine",
    "simultaneous_operator",
    "spectral_norm",
    "symmetric_norm",
    "verify_error_identity",
]
