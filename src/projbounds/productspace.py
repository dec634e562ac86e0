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
P_C, P_D and P_CD act through the bases of C, D and C intersect D, never
as n*r x n*r matrices; the two product-operator members are norms of
n*r x m blocks, m <= min(n, dim C) (see :func:`chain_residual_profile`).

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

from dataclasses import dataclass

import numpy as np

from .angles import cos_two, friedrichs_gram, optimal_rate
from .errors import DegenerateError, InputError
from .methods import IterationTrace, error_profile, exponents, orbit, power_orbit, sweep
from .numlin import as_vector, spectral_norm, symmetric_norm
from .subspaces import Family, Subspace

__all__ = [
    "ProductSpaceModel",
    "build_product",
    "lift_diag",
    "cos_CD",
    "chain_residual_profile",
    "pierra_lift_residual",
    "product_alternating_traces",
]

@dataclass(frozen=True, eq=False)
class ProductSpaceModel:
    """The lifted pair (C, D) in R^(n*r) of the base ``family``; ``pair``
    is (C, D) as a Family, so that C intersect D is computed once."""

    C: Subspace
    D: Subspace
    family: Family
    pair: Family

    def step(self, y: np.ndarray) -> np.ndarray:
        """One lifted alternating step P_D P_C y, through the bases of C and D."""
        return self.D.project(self.C.project(y))

    def limit(self, y: np.ndarray) -> np.ndarray:
        """P_CD y, the limit of the lifted iteration from y, through the
        basis of C intersect D."""
        return self.pair.intersection.project(y)


def build_product(subspaces) -> ProductSpaceModel:
    """Assemble C (block-diagonal lift) and D (diagonal) for the family.

    C's basis stacks each factor's basis into its own block row; D's basis
    columns are (1/sqrt(r)) (e_j, ..., e_j), orthonormal under the standard
    metric.  dim C = sum_i dim M_i and dim D = n.
    """
    fam = Family.of(subspaces, 2)
    n, r = fam.ambient_dim, len(fam)
    total_cols = sum(S.dim for S in fam)
    C_basis = np.zeros((n * r, total_cols))
    col = 0
    for i, S in enumerate(fam):
        C_basis[i * n : (i + 1) * n, col : col + S.dim] = S.basis
        col += S.dim
    D_basis = np.vstack([np.eye(n)] * r) / np.sqrt(r)
    C, D = Subspace(C_basis), Subspace(D_basis)
    return ProductSpaceModel(C, D, fam, Family((C, D)))


def lift_diag(model: ProductSpaceModel, x) -> np.ndarray:
    """The diagonal lift (x, ..., x) of a base-space vector.

    Under the standard metric the lift has norm sqrt(r) ||x||; under the
    averaged metric it has norm ||x||.  Callers compare lifted vectors with
    lifted vectors, so either convention gives the same verdict.
    """
    v = as_vector(x, "vector", model.family.ambient_dim)
    return np.tile(v, len(model.family))


def cos_CD(model: ProductSpaceModel) -> float:
    """Friedrichs-angle cosine between C and D, computed inside R^(n*r)."""
    return cos_two(model.pair).value


def chain_residual_profile(subspaces, k_values) -> np.ndarray:
    """Adjacent chain residuals for several exponents at once.

    Row j holds the five absolute adjacent differences of the chain
    members at the j-th exponent of ``k_values``: shape (5,) for one
    integer k, (len(k_values), 5) for a list, rows in its order.  The
    members are ||T^k - P_M||, ||T - P_M||^k, the Friedrichs-formula rate
    q^k, the product-space angle cos(C, D)^(2k), ||P_D P_C P_D - P_CD||^k
    and ||(P_D P_C P_D)^k - P_CD||; the second and fifth are the k = 1
    values of the first's and sixth's walks to the k.
    Members 1 and 2 walk S, the family's n x m span, through T: T^k - P_M
    is symmetric and vanishes outside M_1 + ... + M_r, which S spans, so
    its norm is that of the m x m block S^T (T^k S - P_M S).  Members 5 and
    6 walk B = Q_D S = lift(S)/sqrt(r) through the lifted step: A_k =
    (P_D P_C P_D)^k - P_CD equals A_k P_D (C intersect D lies in D) and
    vanishes on the lift of (M_1 + ... + M_r)-perp, which P_C and P_CD
    annihilate, so ||A_k|| is the largest singular value of the n*r x m
    block (P_D P_C)^k B - P_CD B (the walk starts in D, where P_D P_C is
    the sandwiched operator).  ``subspaces`` may be a model from
    :func:`build_product`; a degenerate family (:attr:`Family.degenerate`)
    raises DegenerateError before any product space is built.  ``k_values``
    is one integer >= 1 or a nonempty 1-d collection of them
    (:func:`methods.exponents`).
    """
    ks = exponents(k_values)
    walked = np.append(ks, 1)
    model = subspaces if isinstance(subspaces, ProductSpaceModel) else None
    fam = model.family if model else Family.of(subspaces, 2)
    if fam.degenerate:
        raise DegenerateError(
            "every subspace equals the intersection: all six chain members "
            "are identically zero and the chain holds trivially"
        )
    S = fam.span
    P_M_S, walk = fam.intersection.project(S), power_orbit(fam.averaged_projector, S)
    base = sweep(walked, lambda TkS: symmetric_norm(S.T @ (TkS - P_M_S)), walk)
    q = optimal_rate(friedrichs_gram(fam), len(fam))
    model = model or build_product(fam)
    c_prod = cos_CD(model)
    start = model.D.basis @ S
    anchor, walk = model.limit(start), orbit(model.step, start)
    del start  # the walk frees its start block at its first step
    prod = sweep(walked, lambda Z: spectral_norm(Z - anchor), walk)
    rows = [
        np.abs(np.diff([base[k], base[1] ** k, q**k, c_prod ** (2 * k), prod[1] ** k, prod[k]]))
        for k in ks.reshape(-1).tolist()
    ]
    return np.array(rows).reshape(ks.shape + (5,))


def pierra_lift_residual(subspaces, starts, k_values) -> float:
    """Largest lift-consistency residual over the given starts and steps.

    For each start x and step count k, compares (P_D P_C)^k applied to the
    lifted start against the lift of T^k(x), plus the projection of the
    lifted start onto C intersect D against the lift of P_M(x).  Each side
    is applied through subspace bases, never as an n*r x n*r matrix; one
    walk per start goes to the largest k.  ``subspaces`` may be a model
    from :func:`build_product`.  ``k_values`` is one integer >= 0 or a
    nonempty 1-d collection of them (:func:`methods.exponents`); ``starts``
    must not be empty, since a residual over no starts would check nothing.
    """
    ks = exponents(k_values, 0)
    starts = list(starts)
    if not starts:
        raise InputError("pierra_lift_residual needs at least one start")
    model = subspaces if isinstance(subspaces, ProductSpaceModel) else build_product(subspaces)
    fam = model.family
    T = fam.averaged_projector
    worst = 0.0
    for x in starts:
        v = as_vector(x, "start", fam.ambient_dim)
        lifted = lift_diag(model, v)
        anchor = np.linalg.norm(model.limit(lifted) - lift_diag(model, fam.intersection.project(v)))
        walks = orbit(model.step, lifted), orbit(lambda t: T @ t, v)
        drift = sweep(ks, lambda y, t: np.linalg.norm(y - lift_diag(model, t)), *walks)
        worst = max(worst, max(drift.values()) + anchor)
    return worst


def product_alternating_traces(model: ProductSpaceModel, starts, k_max) -> list[IterationTrace]:
    """The lifted iteration y <- P_D P_C y of :func:`pierra_lift_residual`
    from each start, against P_CD lift(x0), with bounds cos(C, D)^(2k)
    ||lift(x0)||."""
    c_prod = cos_CD(model)
    traces = []
    for x0 in starts:
        lifted = lift_diag(model, x0)
        errors = error_profile(lifted, model.limit(lifted), model.step, k_max)
        bounds = c_prod ** (2 * np.arange(k_max + 1)) * np.linalg.norm(lifted)
        traces.append(IterationTrace(start=x0, errors=errors, bounds=bounds))
    return traces
