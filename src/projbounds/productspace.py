"""Product-space reformulation of the simultaneous method.

The family M_1, ..., M_r in R^n lifts into R^(n*r) as two subspaces: the
cartesian product C = M_1 x ... x M_r (block-diagonal basis) and the
diagonal D = {(x, ..., x)}.  Alternating projections between C and D
reproduce the averaged-projector iteration on the base space, and the
angle between C and D encodes the simultaneous convergence rate.  The
central identity checked here is the six-member chain

    || T^k - P_M ||  =  || T - P_M ||^k
                     =  ( (r-1)/r cos(M_1,...,M_r) + 1/r )^k
                     =  cos(C, D)^(2k)
                     =  || P_D P_C P_D - P_CD ||^k
                     =  || (P_D P_C P_D)^k - P_CD ||,

with T the averaged projector and P_CD the projector onto C intersect D.
No n*r x n*r matrix is formed, and neither C nor D keeps a dense basis.
C is its r diagonal blocks C_i, the members' bases: the lifted step
applies P_C block by block, y_i <- C_i (C_i^T y_i), and P_D as the mean
of the r blocks copied back into every block; P_CD acts through the
basis of C intersect D.  For D's orthonormal basis Q_D = (I, ..., I)/sqrt(r),
Q_D^T X is the sum of X's r row blocks over sqrt(r) and Q_D x is
lift(x)/sqrt(r); so Q_D^T Q_C = [C_1 ... C_r]/sqrt(r), and Q_C^T Y stacks
the C_i^T Y_i of Y's row blocks.  The two product-operator members are
norms of n*r x m blocks, m <= sum (dim M_i - dim M) (see
:func:`chain_residual_profile`); on a degenerate family m = 0, and the
chain holds with every member 0, cos(C, D) to rounding.

On the inner product: the averaged form <x, y> = (1/r) sum_i <x_i, y_i>
often put on the product space is a multiple a > 0 of the standard one,
and that scale changes nothing computed here: norms scale by sqrt(a), so
nearest points (the projections) stay put, and sqrt(a) cancels from
operator norms and from the Rayleigh quotients behind the angles.  So
everything uses the standard inner product.  Only a lifted vector's norm,
sqrt(r) ||x|| in the standard metric, depends on the scale, and all
verification compares vectors on one side of the lift.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .angles import friedrichs_gram, optimal_rate
from .errors import InputError
from .methods import IterationTrace, block_traces, exponents, orbit, simultaneous_operator, start_block, sweep
from .numlin import as_points, spectral_norm, symmetric_norm
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
    """The lifted pair (C, D) in R^(n*r) of the base ``family``: C as its
    diagonal blocks ``C_blocks`` (n x dim M_i each, the members' bases), D as
    structure only, and ``CD``, their intersection C intersect D, the diagonal
    lift of M."""

    C_blocks: tuple[np.ndarray, ...]
    family: Family
    CD: Subspace

    def step(self, y: np.ndarray) -> np.ndarray:
        """One lifted alternating step P_D P_C y for a vector or an n*r x s
        block y: P_C block by block, y_i <- C_i (C_i^T y_i), then P_D as the
        mean of the r blocks, copied back into every block."""
        n, r = self.family.ambient_dim, len(self.family)
        C_1, *rest = self.C_blocks
        total = C_1 @ (C_1.T @ y[:n])
        for i, C_i in enumerate(rest, 1):
            total += C_i @ (C_i.T @ y[i * n : (i + 1) * n])
        return np.concatenate([total / r] * r)

    def diag_coords(self, X: np.ndarray) -> np.ndarray:
        """Q_D^T X for D's basis Q_D = (I, ..., I)/sqrt(r): the sum of the r
        row blocks of X (a vector or an n*r x s block) over sqrt(r)."""
        r = len(self.family)
        return X.reshape(r, self.family.ambient_dim, *X.shape[1:]).sum(axis=0) / np.sqrt(r)

    def limit(self, y: np.ndarray) -> np.ndarray:
        """P_CD y, the limit of the lifted iteration from y, through the
        basis of C intersect D."""
        return self.CD.project(y)


def build_product(subspaces) -> ProductSpaceModel:
    """Assemble C (the members' bases as its diagonal blocks) and C intersect D.

    C intersect D, the lift of M, is sized by dim M and found in R^(n*r),
    where Pierra's anchor term tests it: the directions of the thinner of C
    (dim sum_i dim M_i) and D (dim n) nearest the other, from the sines
    Q_C - P_D Q_C or Q_D - P_C Q_D, the latter (I - C_i C_i^T)/sqrt(r) block
    by block.  Only the former forms C's block-diagonal basis, for its SVD.
    """
    fam = Family.of(subspaces, 2)
    n, r = fam.ambient_dim, len(fam)
    blocks = tuple(S.basis for S in fam)
    model = ProductSpaceModel(blocks, fam, Subspace.trivial(n * r))
    if (m := fam.intersection.dim) == 0:
        return model
    cols = np.cumsum([0] + [S.dim for S in fam])
    if cols[-1] <= n:
        thin = np.zeros((n * r, cols[-1]))
        for i, C_i in enumerate(blocks):
            thin[i * n : (i + 1) * n, cols[i] : cols[i + 1]] = C_i
        sines = thin - lift_diag(model, model.diag_coords(thin)) / np.sqrt(r)
    else:
        thin = lift_diag(model, np.eye(n)) / np.sqrt(r)
        sines = thin - np.vstack([C_i @ (C_i.T @ thin[:n]) for C_i in blocks])
    Vt = np.linalg.svd(sines, full_matrices=False)[2]
    return replace(model, CD=Subspace(thin @ Vt[thin.shape[1] - m :].T))


def lift_diag(model: ProductSpaceModel, x) -> np.ndarray:
    """The diagonal lift (x, ..., x) of a base-space vector, or of each block
    column; its norm is sqrt(r) ||x|| (see the module note on the metric)."""
    v = as_points(x, model.family.ambient_dim)
    return np.concatenate([v] * len(model.family))


def cos_CD(model: ProductSpaceModel) -> float:
    """cos(C, D) = ||P_C P_D - P_CD|| (Deutsch 2001, ch. 9) inside R^(n*r): as C
    intersect D lies in both, ||Q_C^T Q_D - (Q_C^T Q_CD)(Q_CD^T Q_D)||, read
    from C's diagonal blocks: Q_D^T Q_C = [C_1 ... C_r]/sqrt(r), and
    Q_C^T Q_CD stacks the C_i^T (Q_CD)_i.  Where C intersect D = {0} (M = {0}),
    P_CD = 0 and the angle is ||Q_C^T Q_D||, with nothing formed to subtract.
    On a degenerate family it is rounding, and 0.0 where every M_i is {0}."""
    n, CD = model.family.ambient_dim, model.CD.basis
    A = np.hstack(model.C_blocks) / np.sqrt(len(model.family))
    if not model.CD.dim:
        return spectral_norm(A.T)
    C_CD = np.vstack([C_i.T @ CD[i * n : (i + 1) * n] for i, C_i in enumerate(model.C_blocks)])
    return spectral_norm(A.T - C_CD @ model.diag_coords(CD).T)


def chain_residual_profile(subspaces, k_values) -> np.ndarray:
    """The six chain members for several exponents at once.

    Row j holds, at the j-th exponent of ``k_values``, ||T^k - P_M||,
    ||T - P_M||^k, the Friedrichs-formula rate q^k, the product-space angle
    cos(C, D)^(2k), ||P_D P_C P_D - P_CD||^k and ||(P_D P_C P_D)^k - P_CD||:
    shape (6,) for one integer k, (len(k_values), 6) for a list, rows in its
    order.  The second and fifth are the k = 1 values of the first's and
    sixth's walks to the k; ``checks.residual`` compares adjacent members.
    Members 1 and 2 walk S = :attr:`Family.reduced_span`, a basis of the
    sum of the M_i' = M_i intersect M-perp, through T applied by the
    members' bases (:meth:`methods.IterOperator.step`): T^k - P_M is
    symmetric and vanishes on M and (M_1 + ... + M_r)-perp, so (up to
    :attr:`Family.defects`) its norm is that of S^T (T^k S - P_M S).
    Members 5 and 6 walk B = Q_D S = lift(S)/sqrt(r), the lift of that sum,
    through the lifted step: A_k = (P_D P_C P_D)^k - P_CD equals A_k P_D and
    vanishes on C intersect D (in D) and on the lift of (M_1 + ... +
    M_r)-perp, so ||A_k|| is the largest singular value of (P_D P_C)^k B -
    P_CD B (the walk starts in D, where P_D P_C is the sandwiched operator).
    Where M = {0}, P_M S and P_CD B are zero blocks, not formed or subtracted:
    members 1 and 6 are the norms of S^T T^k S and (P_D P_C)^k B.  On a
    degenerate family (:attr:`Family.degenerate`) S has no columns, so the
    walked members are the norms of empty blocks, 0.0, as is q; the angle
    cos(C, D) is then rounding.  ``subspaces`` may be a model from
    :func:`build_product`.  ``k_values`` is one integer >= 1 or a nonempty 1-d
    collection of them (:func:`methods.exponents`).
    """
    ks = exponents(k_values)
    walked = np.append(ks, 1)
    model = subspaces if isinstance(subspaces, ProductSpaceModel) else None
    fam = model.family if model else Family.of(subspaces, 2)
    S, m = fam.reduced_span, fam.intersection.dim
    P_M_S, walk = fam.intersection.project(S) if m else None, orbit(simultaneous_operator(fam).step, S)
    base = sweep(walked, lambda TkS: symmetric_norm(S.T @ (TkS - P_M_S if m else TkS)), walk)
    q = optimal_rate(friedrichs_gram(fam), len(fam))
    model = model or build_product(fam)
    c_prod = cos_CD(model)
    start = lift_diag(model, S) / np.sqrt(len(fam))
    anchor, walk = model.limit(start) if m else None, orbit(model.step, start)
    del start  # the walk frees its start block at its first step
    prod = sweep(walked, lambda Z: spectral_norm(Z - anchor if m else Z), walk)
    each_k = ks.reshape(-1).tolist()
    rows = [[base[k], base[1] ** k, q**k, c_prod ** (2 * k), prod[1] ** k, prod[k]] for k in each_k]
    return np.array(rows).reshape(ks.shape + (6,))


def pierra_lift_residual(subspaces, starts, k_values) -> float:
    """Largest lift-consistency residual over the given starts and steps.

    For each start x and step count k, compares (P_D P_C)^k applied to the
    lifted start against the lift of T^k(x), plus the projection of the
    lifted start onto C intersect D against the lift of P_M(x).  Each side
    is applied to all starts as one block, never as an n*r x n*r matrix:
    the lifted side through :meth:`ProductSpaceModel.step` (P_C through C's
    diagonal blocks, P_D as the block mean) and the basis of C intersect D,
    the base side through the members' bases.  ``subspaces`` may be a model
    from :func:`build_product`.  ``k_values`` is one integer >= 0 or a
    nonempty 1-d collection of them (:func:`methods.exponents`); ``starts``
    must not be empty, since a residual over no starts would check nothing.
    """
    ks = exponents(k_values, 0)
    model = subspaces if isinstance(subspaces, ProductSpaceModel) else build_product(subspaces)
    fam = model.family
    if not (X := start_block(starts, fam.ambient_dim)).shape[1]:
        raise InputError("pierra_lift_residual needs at least one start")
    lifted = lift_diag(model, X)
    anchor = model.limit(lifted) - lift_diag(model, fam.intersection.project(X))
    walks = orbit(model.step, lifted), orbit(simultaneous_operator(fam).step, X)
    drift = sweep(ks, lambda Y, Z: np.linalg.norm(Y - lift_diag(model, Z), axis=0), *walks)
    return float(np.max(np.max(list(drift.values()), axis=0) + np.linalg.norm(anchor, axis=0)))


def product_alternating_traces(model: ProductSpaceModel, starts, k_max) -> list[IterationTrace]:
    """The lifted iteration y <- P_D P_C y of :func:`pierra_lift_residual`
    from all starts as one block, against P_CD lift(x0), with bounds
    cos(C, D)^(2k) ||lift(x0)||."""
    X = start_block(starts, model.family.ambient_dim)
    Y, powers = lift_diag(model, X), cos_CD(model) ** (2 * np.arange(k_max + 1))
    return block_traces(X, model.limit(Y), model.step, powers, Y)
