"""Closed linear subspaces of R^n and their orthogonal projectors.

A subspace is represented by an orthonormal basis matrix; the trivial
subspace (zero columns) is a first-class value whose projector is the zero
matrix.  Bases are never canonicalized beyond orthonormality: two bases of
the same subspace may differ by a rotation, so every comparison is made
with a rotation-invariant quantity.  Containment is decided at basis level
by the residual ||Q_o - Q_s (Q_s^T Q_o)||, which equals the projector-level
||P_s P_o - P_o|| without forming n x n matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ContainmentError, InputError
from .numlin import as_matrix, as_points, null_space, orthonormal_basis, spectral_norm
from .numlin import symmetric_norm

__all__ = ["Subspace", "Family", "intersection", "reduced_component", "PROJECTOR_EQ_TOL"]

# Orthonormality required of any basis handed to the constructor.
ORTHONORMALITY_TOL = 1e-12
# The containment test, a projector-level comparison, uses one order more
# slack than the kernel accuracy.
PROJECTOR_EQ_TOL = 1e-10
# The one shared-part decision: subspaces share a direction whose stacked sine is
# at most this.  Half the containment slack, so every intersection passes
# ``contains``; above the 3e-11 rounding sines of two bases of one subspace.
SHARED_SINE_TOL = PROJECTOR_EQ_TOL / 2


@dataclass(frozen=True, eq=False)
class Subspace:
    """A closed linear subspace of R^n, stored as an n x d orthonormal basis.

    ``d`` may be zero (the trivial subspace) or equal ``n`` (the full
    space).  Instances are immutable and safe to share across threads.
    """

    basis: np.ndarray

    def __post_init__(self) -> None:
        Q = as_matrix(self.basis, "basis")
        n, d = Q.shape
        if n < 1:
            raise InputError("ambient dimension must be at least 1")
        if d > n:
            raise InputError(f"basis has {d} columns in ambient dimension {n}")
        if d and symmetric_norm(Q.T @ Q - np.eye(d)) > ORTHONORMALITY_TOL:
            raise InputError("basis columns are not orthonormal")
        Q = Q.copy()
        Q.setflags(write=False)
        object.__setattr__(self, "basis", Q)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def from_spanning(cls, vectors) -> "Subspace":
        """Subspace spanned by the columns of ``vectors`` (n x m, m >= 0).

        Dependent, repeated, or zero columns are harmless; the resulting
        basis has exactly rank-many columns.
        """
        return cls(orthonormal_basis(as_matrix(vectors, "spanning vectors")))

    @classmethod
    def trivial(cls, n: int) -> "Subspace":
        return cls(np.zeros((n, 0)))

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(np.eye(n))

    def projector(self) -> np.ndarray:
        """The orthogonal projector P = Q Q^T onto this subspace.

        Symmetric and idempotent by construction; the trivial subspace
        yields the zero matrix.
        """
        P = self.basis @ self.basis.T
        return (P + P.T) / 2.0

    def project(self, x) -> np.ndarray:
        """Nearest point of the subspace to ``x``, or to each column of an
        (ambient x m) block ``x``."""
        v = as_points(x, self.ambient_dim)
        return self.basis @ (self.basis.T @ v)

    def contains(self, other: "Subspace") -> bool:
        """Whether ``other`` is contained in this subspace.

        Tests ||Q_o - Q_s (Q_s^T Q_o)|| <= PROJECTOR_EQ_TOL, the part of other's basis
        outside this subspace; it equals ||P_s P_o - P_o||.
        """
        if other.ambient_dim != self.ambient_dim:
            raise InputError("ambient dimensions differ")
        Q_s, Q_o = self.basis, other.basis
        return spectral_norm(Q_o - Q_s @ (Q_s.T @ Q_o)) <= PROJECTOR_EQ_TOL


def intersection(subspaces) -> Subspace:
    """Intersection of a nonempty list of subspaces.

    The member of smallest dimension, with basis Q (n x d), is the base:
    the intersection is Q times the null space of the stacked sine matrix
    [Q - Q_i (Q_i^T Q)] over the other members i, since Q y lies in M_i
    exactly when (I - P_i) Q y = 0 (Bjorck & Golub 1973).  One SVD with d
    columns, rather than n, decides the common part, with no error summed
    over pairwise steps: the directions whose stacked sine is at most the
    absolute SHARED_SINE_TOL (coincident members' sines are rounding noise),
    so the result passes each member's ``contains`` test.
    """
    subs = Family.of(subspaces).members
    if len(subs) == 1:
        return subs[0]
    base = min(range(len(subs)), key=lambda i: subs[i].dim)
    Q = subs[base].basis
    stacked = np.vstack(
        [Q - S.basis @ (S.basis.T @ Q) for i, S in enumerate(subs) if i != base]
    )
    return Subspace(Q @ null_space(stacked, cutoff=SHARED_SINE_TOL))


def reduced_component(Mi: Subspace, M: Subspace) -> Subspace:
    """The part of ``Mi`` orthogonal to a contained subspace ``M``.

    Requires M to be contained in Mi; the result R satisfies the orthogonal
    decomposition P_Mi = P_M + P_R, so dim R = dim Mi - dim M exactly.  That
    count, not a rank decision, sizes R: its basis is the leading left
    singular vectors of the residual (I - P_M) Q_i, whose nonzero singular
    values are all 1.  When Mi equals M the residual is rounding noise
    throughout, and a cutoff relative to its own largest value would count
    some of that noise as rank; the count keeps no column, and R is {0}.
    """
    if not Mi.contains(M):
        raise ContainmentError("M is not contained in Mi")
    residual = Mi.basis - M.basis @ (M.basis.T @ Mi.basis)
    return Subspace(np.linalg.svd(residual, full_matrices=False)[0][:, : Mi.dim - M.dim])


@dataclass(frozen=True, eq=False)
class Family:
    """A nonempty family M_1, ..., M_r of subspaces of one R^n, validated once.

    The intersection, the reduced components and what is read from them
    (their span too) are computed on first use and kept.  Iterating a
    family yields its members.
    """

    members: tuple[Subspace, ...]

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise InputError("a family needs at least one subspace")
        if any(S.ambient_dim != members[0].ambient_dim for S in members):
            raise InputError("ambient dimensions differ across subspaces")
        object.__setattr__(self, "members", members)

    @classmethod
    def of(cls, subspaces, minimum: int = 1) -> "Family":
        """``subspaces`` if already a Family, else a new one; InputError
        when it has fewer than ``minimum`` members."""
        if not isinstance(subspaces, Family):
            subspaces = cls(tuple(subspaces))
        if len(subspaces) < minimum:
            raise InputError(f"need at least {minimum} subspaces, got {len(subspaces)}")
        return subspaces

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def ambient_dim(self) -> int:
        return self.members[0].ambient_dim

    @cached_property
    def intersection(self) -> Subspace:
        """M = M_1 intersect ... intersect M_r."""
        return intersection(self)

    @cached_property
    def reduced(self) -> tuple[Subspace, ...]:
        """The reduced components M_i intersect M-perp, in member order."""
        return tuple(reduced_component(S, self.intersection) for S in self)

    @cached_property
    def degenerate(self) -> bool:
        """Whether every member equals the intersection, so that every
        reduced component is trivial and the error operators vanish."""
        return all(S.dim == self.intersection.dim for S in self)

    @cached_property
    def defects(self) -> tuple[float, ...]:
        """||P_i - P_M - P_i'|| = ||(I - P_M - P_i') Q_i|| per member, P_i'
        projecting onto its reduced component: 0 in exact arithmetic, but M
        is decided within tolerances, and a member may miss M + M_i' by those."""
        M = self.intersection.basis
        return tuple(
            spectral_norm(Q - M @ (M.T @ Q) - R @ (R.T @ Q))
            for Q, R in ((S.basis, C.basis) for S, C in zip(self, self.reduced))
        )

    @cached_property
    def reduced_gram_norm(self) -> float:
        """lambda_max(B^T B), B the reduced bases side by side, for
        :func:`angles.friedrichs_gram` on a nondegenerate family."""
        B = np.hstack([R.basis for R in self.reduced])
        return float(np.linalg.eigvalsh(B.T @ B)[-1])

    @cached_property
    def reduced_span(self) -> np.ndarray:
        """Read-only orthonormal n x min(n, sum dim M_i') basis holding M_1' +
        ... + M_r': Q of the stacked reduced bases' QR, no rank decision."""
        Q = np.linalg.qr(np.hstack([R.basis for R in self.reduced]))[0]
        Q.setflags(write=False)
        return Q
