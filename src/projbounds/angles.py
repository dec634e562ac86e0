"""Friedrichs numbers of subspace families, by independent routes.

For two subspaces the quantity is the largest principal-angle cosine
between the parts of each subspace orthogonal to their intersection.  For
r subspaces it generalizes to

    cos(M_1, ..., M_r)
        = sup  (1/(r-1)) * sum_{i != j} <x_i, x_j>  /  sum_i ||x_i||^2

over x_i in M_i intersect M-perp with not all x_i zero, where M is the
common intersection.  Three routes are provided:

* ``gram_block``      - eigenvalue of the block Gram matrix of reduced
                        bases; closest to the defining supremum and the
                        designated reference route.
* ``norm_inversion``  - inverted from ||T - P_M||, T the averaged
                        projector: an eigenvalue of the Gram of the
                        members' bases, not of the reduced ones.
* ``principal_angle`` - two-subspace route via the cross-Gram of reduced
                        bases.

When every reduced part M_i intersect M-perp is trivial, that is when
every M_i equals M (:attr:`Family.degenerate`), the supremum ranges over
an empty set.  By convention the value is then 0 with the
``degenerate`` flag set, on the gram and principal routes alike; the
norm-inversion route returns None, because the inversion formula does
not cover it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numlin import spectral_norm
from .subspaces import Family, Subspace

__all__ = [
    "FriedrichsResult",
    "ROUTE_GRAM",
    "ROUTE_NORM",
    "ROUTE_PRINCIPAL",
    "cos_two",
    "friedrichs_gram",
    "friedrichs_from_norm",
    "optimal_rate",
]

# The report's keys for the three routes.
ROUTE_GRAM = "gram_block"
ROUTE_NORM = "norm_inversion"
ROUTE_PRINCIPAL = "principal_angle"


@dataclass(frozen=True)
class FriedrichsResult:
    """A Friedrichs number in [0, 1] and its degeneracy flag.

    ``value`` is clamped to [0, 1]; ``raw`` keeps the unclamped number so
    strict inequalities (value < 1 on non-degenerate finite-dimensional
    instances) can be checked without the clamp masking them.
    """

    value: float
    degenerate: bool
    raw: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise InputError("Friedrichs value must lie in [0, 1]")
        if self.degenerate and self.value != 0.0:
            raise InputError("degenerate results must carry value 0")


def _clamped(raw: float, degenerate: bool = False) -> FriedrichsResult:
    return FriedrichsResult(value=min(max(raw, 0.0), 1.0), degenerate=degenerate, raw=raw)


def optimal_rate(friedrichs: FriedrichsResult, r: int) -> float:
    """q = (r-1)/r * cos(M_1,...,M_r) + 1/r, the simultaneous method's rate.

    0 on a degenerate family, whose error operator vanishes identically.
    """
    if friedrichs.degenerate:
        return 0.0
    return (r - 1.0) / r * friedrichs.value + 1.0 / r


def cos_two(M1: Subspace | Family, M2: Subspace | None = None) -> FriedrichsResult:
    """Friedrichs-angle cosine of a pair of subspaces.

    Computes M = M1 intersect M2, removes it from both subspaces, and
    returns the largest singular value of the cross-Gram of the reduced
    bases: 0 for a nested pair, one reduced part trivial; degenerate (flag
    set) exactly when both are, as :attr:`Family.degenerate` decides.
    ``M1`` may instead be the pair itself, with ``M2`` omitted; a two-member
    :class:`Family` passed so reuses its intersection.
    """
    pair = Family.of(M1 if M2 is None else (M1, M2), 2)
    if len(pair) != 2:
        raise InputError(f"cos_two takes exactly two subspaces, got {len(pair)}")
    r1, r2 = pair.reduced
    return _clamped(spectral_norm(r1.basis.T @ r2.basis), pair.degenerate)


def friedrichs_gram(subspaces) -> FriedrichsResult:
    """Friedrichs number via the block Gram matrix of reduced bases.

    With Q_i an orthonormal basis of M_i intersect M-perp and B the
    horizontal stack of the Q_i, the supremum equals

        (lambda_max(B^T B) - 1) / (r - 1),

    clamped to [0, 1].  Components with trivial reduced part contribute no
    columns but still count toward r.  Degenerate exactly when the family
    is (:attr:`Family.degenerate`).  The eigenvalue is the family's
    :attr:`Family.reduced_gram_norm`, found once per family.
    """
    fam = Family.of(subspaces, 2)
    if fam.degenerate:
        return _clamped(0.0, True)
    return _clamped((fam.reduced_gram_norm - 1.0) / (len(fam) - 1.0))


def friedrichs_from_norm(subspaces) -> FriedrichsResult | None:
    """Friedrichs number inverted from an operator norm.

    Uses the identity relating the averaged projector to the Friedrichs
    number:

        || (1/r) sum_i P_i  -  P_M ||  =  (r-1)/r * cos(M_1,...,M_r) + 1/r,

    solved for the cosine.  With A = [Q_1 ... Q_r] / sqrt(r), T = A A^T is
    positive semidefinite with eigenvalue 1 exactly on M, so the left side
    is T's (dim M + 1)-th largest eigenvalue, from the smaller of A^T A and
    A A^T.  None on a degenerate family (:attr:`Family.degenerate`, every
    M_i equal to M): the left side is then 0, and the inversion formula does
    not apply (it would report a spurious negative value).
    """
    fam = Family.of(subspaces, 2)
    r = len(fam)
    if fam.degenerate:
        return None
    A = np.hstack([S.basis for S in fam]) / np.sqrt(r)
    gram = A.T @ A if A.shape[0] >= A.shape[1] else A @ A.T
    nu = float(np.linalg.eigvalsh(gram)[-1 - fam.intersection.dim])
    return _clamped((r * nu - 1.0) / (r - 1.0))
