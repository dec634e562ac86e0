"""Closed affine subspaces and projection methods with affine targets.

An affine subspace V = v + L is stored as an anchor point plus a direction
subspace L = V - V.  The anchor is canonicalized to the least-norm point
of V (the projection of the origin), which makes the representation unique
and matches the scale factor ||x - P_V(0)|| appearing in the error bounds.

Projection uses the translation formula P_V(x) = v + P_L(x - v).  The
iteration routines project in affine form directly, never by pre-
translating to the linear case, so the translation-consistency tests in
the suite are a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angles import friedrichs_gram, optimal_rate
from .errors import InfeasibleError, InputError
from .methods import IterationTrace, cyclic_bound, error_profile
from .numlin import DEFAULT_TOL, RankTolerance, as_vector
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

_ANCHOR_TOL = 1e-10


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
    def from_point_span(
        cls, point, spanning, tol: RankTolerance = DEFAULT_TOL
    ) -> "AffineSubspace":
        """The affine subspace through ``point`` spanned by ``spanning``'s columns."""
        return cls(anchor=point, direction=Subspace.from_spanning(spanning, tol))

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to x, via P_V(x) = v + P_L(x - v)."""
        v = as_vector(x, "vector", self.ambient_dim)
        return self.anchor + self.direction.project(v - self.anchor)

    def contains_point(self, x, tol: float = _ANCHOR_TOL) -> bool:
        v = as_vector(x, "x")
        return bool(np.linalg.norm(v - self.project(v)) <= tol)


@dataclass(frozen=True, eq=False)
class AffineFamily:
    """Affine subspaces V_1, ..., V_r of one R^n, validated through the
    Family of their directions; the target set and the sweep rates are
    computed on first use and kept, so that all starts share them."""

    members: tuple[AffineSubspace, ...]
    directions: Family

    @classmethod
    def of(cls, affines, tol: RankTolerance = DEFAULT_TOL) -> "AffineFamily":
        if isinstance(affines, AffineFamily) and affines.directions.tol == tol:
            return affines
        members = tuple(affines)
        return cls(members, Family.of([V.direction for V in members], tol=tol))

    @cached_property
    def target(self) -> AffineSubspace:
        """The intersection of the members; InfeasibleError when empty."""
        return intersection_affine(self, self.directions.tol)

    @cached_property
    def simultaneous_rate(self) -> float:
        r = len(self.members)
        return 0.0 if r == 1 else optimal_rate(friedrichs_gram(self.directions), r)

    @cached_property
    def cyclic_rate(self) -> float:
        return 0.0 if len(self.members) == 1 else cyclic_bound(self.directions, 1)


def intersection_affine(
    affines, tol: RankTolerance = DEFAULT_TOL, feasibility_tol: float = FEASIBILITY_TOL
) -> AffineSubspace:
    """Intersection of affine subspaces, or InfeasibleError when empty.

    Solves the stacked membership system (I - P_i) x = (I - P_i) v_i in the
    least-squares sense; the minimum-norm solution is the canonical anchor
    and the direction is the intersection of the direction subspaces.  A
    relative residual above ``feasibility_tol`` means no common point
    exists.
    """
    fam = AffineFamily.of(affines, tol)
    eye = np.eye(fam.directions.ambient_dim)
    rows = []
    rhs = []
    for V in fam.members:
        complement = eye - V.direction.projector()
        rows.append(complement)
        rhs.append(complement @ V.anchor)
    A = np.vstack(rows)
    b = np.concatenate(rhs)
    solution, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ solution - b))
    scale = max(1.0, float(np.linalg.norm(b)))
    if residual > feasibility_tol * scale:
        raise InfeasibleError(
            f"affine subspaces have empty intersection "
            f"(membership residual {residual:.3e} exceeds "
            f"{feasibility_tol:.0e} * {scale:.3e})"
        )
    return AffineSubspace(anchor=solution, direction=fam.directions.intersection)


def _affine_trace(fam: AffineFamily, x0, k_max, sweep, rate) -> IterationTrace:
    if k_max < 0:
        raise InputError("k_max must be nonnegative")
    target_set = fam.target
    x = as_vector(x0, "start", target_set.ambient_dim)
    errors = error_profile(x, target_set.project(x), sweep, k_max)
    scale = np.linalg.norm(x - target_set.anchor)
    bounds = rate ** np.arange(k_max + 1) * scale
    return IterationTrace(start=x, errors=errors, bounds=bounds)


def simultaneous_affine(affines, x0, k_max: int) -> IterationTrace:
    """Averaged affine projections x <- (1/r) sum_i P_{V_i}(x).

    The bound attached is q^k ||x0 - P_V(0)|| with
    q = (r-1)/r cos(L_1, ..., L_r) + 1/r over the direction subspaces
    (q = 0 when every direction equals the common direction, since the
    error then vanishes after one step).  ``affines`` may be an
    :class:`AffineFamily`, whose target set and rate are then reused.
    """
    fam = AffineFamily.of(affines)
    r = len(fam.members)

    def sweep(x: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(x)
        for V in fam.members:
            acc += V.project(x)
        return acc / r

    return _affine_trace(fam, x0, k_max, sweep, fam.simultaneous_rate)


def cyclic_affine(affines, x0, k_max: int) -> IterationTrace:
    """Cyclic sweeps x <- P_{V_r}(... P_{V_1}(x) ...).

    The bound attached is the reduced-projector product bound of the
    directions times ||x0 - P_V(0)||; it is valid but not necessarily
    attained for r > 2.  ``affines`` may be an :class:`AffineFamily`.
    """
    fam = AffineFamily.of(affines)

    def sweep(x: np.ndarray) -> np.ndarray:
        for V in fam.members:
            x = V.project(x)
        return x

    return _affine_trace(fam, x0, k_max, sweep, fam.cyclic_rate)
