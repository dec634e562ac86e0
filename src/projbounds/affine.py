"""Closed affine subspaces and projection methods with affine targets.

An affine subspace V = v + L is stored as an anchor point plus a direction
subspace L = V - V.  The anchor is canonicalized to the least-norm point
of V (the projection of the origin), which makes the representation unique
and matches the scale factor ||x - P_V(0)|| appearing in the error bounds.

Projection uses the translation formula P_V(x) = v + P_L(x - v), which is
v + P_L x for the canonical anchor (P_L v is rounding of ||v||, even for
an anchor given far along L, as the constructor cleans it twice).  The
iteration routines project in affine form directly, never by pre-
translating to the linear case.  The translation-consistency tests in the
suite are therefore a genuine cross-check rather than a tautology: the
sweeps use each member's own anchor, never the target's common point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InfeasibleError
from .methods import IterationTrace, block_traces, cyclic_bound, optimal_bound_simultaneous
from .methods import start_block
from .numlin import as_points, as_vector
from .subspaces import Family, Subspace

__all__ = [
    "AffineSubspace",
    "AffineFamily",
    "intersection_affine",
    "simultaneous_affine",
    "cyclic_affine",
    "FEASIBILITY_TOL",
]

# Relative residual above which a joint membership system is declared
# inconsistent (empty intersection).
FEASIBILITY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class AffineSubspace:
    """A closed affine subspace, anchor plus direction.

    Any anchor on the set is accepted; the constructor replaces it by the
    least-norm point (anchor orthogonal to direction), which leaves the set
    unchanged.
    """

    anchor: np.ndarray
    direction: Subspace

    def __post_init__(self) -> None:
        v = as_vector(self.anchor, "anchor", self.direction.ambient_dim)
        # Twice: one pass leaves a part in L of size eps * ||given anchor||,
        # the second cuts it to eps * ||v||, so that P_L v is rounding.
        for _ in range(2):
            v = v - self.direction.project(v)
        v.setflags(write=False)
        object.__setattr__(self, "anchor", v)

    @property
    def ambient_dim(self) -> int:
        return self.direction.ambient_dim

    @property
    def dim(self) -> int:
        return self.direction.dim

    @classmethod
    def from_point_span(cls, point, spanning) -> "AffineSubspace":
        """The affine subspace through ``point`` spanned by ``spanning``'s columns."""
        return cls(anchor=point, direction=Subspace.from_spanning(spanning))

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to x, or to each column of an
        (ambient x m) block x: v + P_L x, the anchor v being orthogonal to L."""
        x = as_points(x, self.ambient_dim)
        v = self.anchor if x.ndim == 1 else self.anchor[:, None]
        return v + self.direction.project(x)


@dataclass(frozen=True, eq=False)
class AffineFamily:
    """Affine subspaces V_1, ..., V_r of one R^n, validated through the
    Family of their directions; the target set is computed on first use
    and kept, so that all starts share it and the directions' work."""

    members: tuple[AffineSubspace, ...]
    directions: Family

    @classmethod
    def of(cls, affines) -> "AffineFamily":
        """``affines`` if already an AffineFamily, else a new one."""
        if isinstance(affines, AffineFamily):
            return affines
        members = tuple(affines)
        return cls(members, Family.of([V.direction for V in members]))

    @cached_property
    def target(self) -> AffineSubspace:
        """The intersection of the members; InfeasibleError when empty."""
        return intersection_affine(self)


def intersection_affine(affines) -> AffineSubspace:
    """Intersection of affine subspaces, or InfeasibleError when empty.

    Solves the stacked membership system (I - P_i) x = (I - P_i) v_i = v_i
    (each v_i a canonical anchor) in the least-squares sense; the
    minimum-norm solution is the canonical anchor and the direction is the
    intersection of the direction subspaces.  A relative residual above
    FEASIBILITY_TOL means no common point exists.
    """
    fam = AffineFamily.of(affines)
    eye = np.eye(fam.directions.ambient_dim)
    A = np.vstack([eye - V.direction.projector() for V in fam.members])
    b = np.concatenate([V.anchor for V in fam.members])
    solution, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ solution - b))
    scale = max(1.0, float(np.linalg.norm(b)))
    if residual > FEASIBILITY_TOL * scale:
        raise InfeasibleError(
            f"affine subspaces have empty intersection "
            f"(membership residual {residual:.3e} exceeds "
            f"{FEASIBILITY_TOL:.0e} * {scale:.3e})"
        )
    return AffineSubspace(anchor=solution, direction=fam.directions.intersection)


def _affine_traces(fam: AffineFamily, starts, k_max, sweep, bound) -> list[IterationTrace]:
    target_set = fam.target
    X = start_block(starts, target_set.ambient_dim)
    powers = bound(fam.directions, 1) ** np.arange(k_max + 1)
    return block_traces(X, target_set.project(X), sweep, powers, offset=target_set.anchor)


def simultaneous_affine(affines, starts, k_max: int) -> list[IterationTrace]:
    """Averaged affine projections x <- (1/r) sum_i P_{V_i}(x) from each start.

    The bound attached is :func:`optimal_bound_simultaneous` of the
    directions times ||x0 - P_V(0)||: q^k, q = (r-1)/r cos(L_1, ..., L_r)
    + 1/r (about 0 when every direction equals the common one: the error
    vanishes after one step).  ``affines`` may be an
    :class:`AffineFamily`, whose target set and directions are then reused.
    """
    fam = AffineFamily.of(affines)
    r = len(fam.members)

    def sweep(X: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(X)
        for V in fam.members:
            acc += V.project(X)
        return acc / r

    return _affine_traces(fam, starts, k_max, sweep, optimal_bound_simultaneous)


def cyclic_affine(affines, starts, k_max: int) -> list[IterationTrace]:
    """Cyclic sweeps x <- P_{V_r}(... P_{V_1}(x) ...) from each start.

    The bound attached is :func:`cyclic_bound` of the directions times
    ||x0 - P_V(0)||: ||P_r' ... P_1'||^k, valid but not necessarily
    attained for r > 2.  ``affines`` may be an
    :class:`AffineFamily`.
    """
    fam = AffineFamily.of(affines)

    def sweep(X: np.ndarray) -> np.ndarray:
        for V in fam.members:
            X = V.project(X)
        return X

    return _affine_traces(fam, starts, k_max, sweep, cyclic_bound)
