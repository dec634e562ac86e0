"""Product-space reformulation of the simultaneous method.

The family M_1, ..., M_r in R^n lifts into R^(n*r) as two subspaces: the
cartesian product C = M_1 x ... x M_r (block-diagonal basis) and the
diagonal D = {(x, ..., x)}.  Alternating projections between C and D
reproduce the averaged-projector iteration on the base space, and the
angle between C and D encodes the simultaneous convergence rate.  The
central identity checked here is the five-link chain

    || T^k - P_M ||  =  || T - P_M ||^k
                     =  ( (r-1)/r cos(M_1,...,M_r) + 1/r )^k
                     =  cos(C, D)^(2k)
                     =  || P_D P_C P_D - P_CD ||^k
                     =  || (P_D P_C P_D)^k - P_CD ||,

with T the averaged projector and P_CD the projector onto C intersect D.

On the inner product: the product space is often equipped with the
averaged form <x, y> = (1/r) sum_i <x_i, y_i>.  That is a uniform positive
multiple of the standard inner product on R^(n*r), and scaling an inner
product by a constant a > 0 changes nothing this module computes: the
norm scales uniformly (||.||' = sqrt(a) ||.||), so nearest-point
minimizers, hence metric projections, are unchanged; operator norms are
suprema of ||Ax||'/||x||' in which sqrt(a) cancels; angle quantities are
Rayleigh quotients, which also cancel.  Everything here therefore uses
the standard inner product.  The only scale-sensitive quantity is the
norm of a lifted vector, sqrt(r) ||x|| under the standard metric, and all
verification compares vectors on one side of the lift so the factor never
enters.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .angles import cos_two, friedrichs_gram, optimal_rate
from .errors import DegenerateError, InputError
from .methods import IterationTrace, error_profile
from .numlin import as_vector, symmetric_norm
from .subspaces import Family, Subspace

__all__ = [
    "ProductSpaceModel",
    "MAX_PRODUCT_DIM",
    "build_product",
    "lift_diag",
    "cos_CD",
    "verify_norm_chain",
    "chain_residual_profile",
    "verify_pierra_lift",
    "pierra_lift_residual",
    "product_alternating_traces",
]

# Dense n*r x n*r matrices beyond this size are out of scope.
MAX_PRODUCT_DIM = 2000


@dataclass(frozen=True, eq=False)
class ProductSpaceModel:
    """The lifted pair (C, D) in R^(n*r) of the base ``family``; ``pair``
    is (C, D) as a Family, so that C intersect D is computed once."""

    base_dim: int
    factor_count: int
    C: Subspace
    D: Subspace
    family: Family
    pair: Family


def build_product(subspaces) -> ProductSpaceModel:
    """Assemble C (block-diagonal lift) and D (diagonal) for the family.

    C's basis stacks each factor's basis into its own block row; D's basis
    columns are (1/sqrt(r)) (e_j, ..., e_j), orthonormal under the standard
    metric.  dim C = sum_i dim M_i and dim D = n.
    """
    fam = Family.of(subspaces, 2)
    n, r = fam.ambient_dim, len(fam)
    if n * r > MAX_PRODUCT_DIM:
        raise InputError(
            f"product dimension {n * r} exceeds the dense cap {MAX_PRODUCT_DIM}"
        )
    total_cols = sum(S.dim for S in fam)
    C_basis = np.zeros((n * r, total_cols))
    col = 0
    for i, S in enumerate(fam):
        C_basis[i * n : (i + 1) * n, col : col + S.dim] = S.basis
        col += S.dim
    D_basis = np.vstack([np.eye(n)] * r) / np.sqrt(r)
    C, D = Subspace(C_basis), Subspace(D_basis)
    return ProductSpaceModel(n, r, C, D, fam, Family((C, D)))


def _exponents(k_values, least: int) -> list[int]:
    """The distinct values of ``k_values``, ascending; InputError unless
    there is at least one and each is an integer (Python or numpy) >= ``least``."""
    try:
        ks = sorted({operator.index(k) for k in k_values})
    except TypeError:
        raise InputError("exponents must be integers") from None
    if not ks or ks[0] < least:
        raise InputError(f"exponents must be a nonempty list of integers >= {least}")
    return ks


def lift_diag(model: ProductSpaceModel, x) -> np.ndarray:
    """The diagonal lift (x, ..., x) of a base-space vector.

    Under the standard metric the lift has norm sqrt(r) ||x||; under the
    averaged metric it has norm ||x||.  Callers compare lifted vectors with
    lifted vectors, so either convention gives the same verdict.
    """
    v = as_vector(x, "vector", model.base_dim)
    return np.tile(v, model.factor_count)


def cos_CD(model: ProductSpaceModel) -> float:
    """Friedrichs-angle cosine between C and D, computed inside R^(n*r)."""
    return cos_two(model.pair).value


def chain_residual_profile(subspaces, k_values) -> dict[int, np.ndarray]:
    """Adjacent chain residuals for several exponents at once.

    Returns {k: residuals} where residuals are the five absolute adjacent
    differences of the chain members at exponent k.  The two direct power
    norms are built incrementally over k; everything else about each chain
    member remains an independent code path (direct power norm, single-step
    norm to the k, Friedrichs-formula rate, product-space angle, and the
    two product-operator analogues).  ``subspaces`` may be a model from
    :func:`build_product`; otherwise degeneracy is decided before the
    product space is built.  ``k_values`` must be a nonempty collection of
    integers >= 1.
    """
    wanted = _exponents(k_values, 1)
    model = subspaces if isinstance(subspaces, ProductSpaceModel) else None
    fam = model.family if model else Family.of(subspaces, 2)
    fr = friedrichs_gram(fam)
    if fr.degenerate:
        raise DegenerateError(
            "every subspace equals the intersection: all six chain members "
            "are identically zero and the chain holds trivially"
        )
    T = fam.averaged_projector
    P_M = fam.intersection.projector()
    one_step = symmetric_norm(T - P_M)
    q = optimal_rate(fr, len(fam))
    model = model or build_product(fam)
    c_prod = cos_CD(model)
    P_C = model.C.projector()
    P_D = model.D.projector()
    P_CD = model.pair.intersection.projector()
    T_prod = P_D @ P_C @ P_D
    del P_C, P_D  # two dense nr x nr matrices the power loop does not need
    prod_one_step = symmetric_norm(T_prod - P_CD)
    out: dict[int, np.ndarray] = {}
    Tk = None
    Tpk = None
    for k in range(1, wanted[-1] + 1):
        Tk = T if Tk is None else Tk @ T
        Tpk = T_prod if Tpk is None else Tpk @ T_prod
        if k in wanted:
            members = np.array(
                [
                    symmetric_norm(Tk - P_M),
                    one_step**k,
                    q**k,
                    c_prod ** (2 * k),
                    prod_one_step**k,
                    symmetric_norm(Tpk - P_CD),
                ]
            )
            out[k] = np.abs(np.diff(members))
    return out


def verify_norm_chain(subspaces, k: int) -> np.ndarray:
    """Five adjacent residuals of the six-member norm chain at exponent k.

    Each member is computed independently (see module docstring for the
    chain); the caller asserts each residual is at most 1e-8.  Raises
    DegenerateError when every subspace equals the intersection, in which
    case all six members are zero and the chain holds trivially.
    """
    return chain_residual_profile(subspaces, [k])[k]


def pierra_lift_residual(subspaces, starts, k_values) -> float:
    """Largest lift-consistency residual over the given starts and steps.

    For each start x and step count k, compares (P_D P_C)^k applied to the
    lifted start against the lift of T^k(x), plus the projector onto
    C intersect D against the lift of P_M(x).  Projectors are assembled
    once and shared across the grid.  ``subspaces`` may be a model from
    :func:`build_product`.  ``k_values`` must be a nonempty collection of
    integers >= 0.
    """
    ks = _exponents(k_values, 0)
    model = subspaces if isinstance(subspaces, ProductSpaceModel) else build_product(subspaces)
    P_C = model.C.projector()
    P_D = model.D.projector()
    P_CD = model.pair.intersection.projector()
    T = model.family.averaged_projector
    P_M = model.family.intersection.projector()
    worst = 0.0
    for x in starts:
        v = as_vector(x, "start", model.base_dim)
        lifted = lift_diag(model, v)
        anchor = np.linalg.norm(P_CD @ lifted - lift_diag(model, P_M @ v))
        y = lifted
        t = v
        step = 0
        for k in ks:
            while step < k:
                y = P_D @ (P_C @ y)
                t = T @ t
                step += 1
            drift = np.linalg.norm(y - lift_diag(model, t))
            worst = max(worst, drift + anchor)
    return worst


def product_alternating_traces(model: ProductSpaceModel, starts, k_max) -> list[IterationTrace]:
    """The lifted iteration y <- P_D P_C y of :func:`pierra_lift_residual`
    from each start, against P_CD lift(x0), with bounds cos(C, D)^(2k)
    ||lift(x0)||."""
    P_C = model.C.projector()
    P_D = model.D.projector()
    P_CD = model.pair.intersection.projector()
    c_prod = cos_CD(model)
    traces = []
    for x0 in starts:
        lifted = lift_diag(model, x0)
        errors = error_profile(lifted, P_CD @ lifted, lambda y: P_D @ (P_C @ y), k_max)
        bounds = c_prod ** (2 * np.arange(k_max + 1)) * np.linalg.norm(lifted)
        traces.append(IterationTrace(start=x0, errors=errors, bounds=bounds))
    return traces


def verify_pierra_lift(subspaces, x, k: int) -> float:
    """Lift-consistency residual for one start and one step count.

    Returns || (P_D P_C)^k lift(x) - lift(T^k x) ||
          + || P_CD lift(x) - lift(P_M x) ||; the caller asserts <= 1e-9.
    """
    return pierra_lift_residual(subspaces, [x], [k])
