"""Dense linear-algebra kernel: orthonormalization, null spaces, operator norms.

Everything downstream (subspaces, projectors, angle computations, iteration
operators) reduces to the four operations in this module: orthonormal
bases and null spaces from the SVD, the general spectral norm from the
singular values, and the norm of a symmetric matrix from its extreme
eigenvalues (``eigvalsh``), which is several times cheaper than the SVD and
is used only where symmetry holds by construction.  All routines are pure
functions of float64 arrays; summations run in a fixed index order, so
repeated runs on the same platform are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "RankTolerance",
    "DEFAULT_TOL",
    "orthonormal_basis",
    "null_space",
    "spectral_norm",
    "symmetric_norm",
]


@dataclass(frozen=True)
class RankTolerance:
    """Threshold policy for numerical rank decisions.

    The effective cutoff for a matrix A is

        max(rows, cols) * relative_eps * sigma_max(A)

    floored at ``absolute_floor``.  Singular values at or below the cutoff
    are treated as zero.  The default values are scale-aware and safe for
    the dense, well-separated spectra this package produces.
    """

    relative_eps: float = 1e-12
    absolute_floor: float = 1e-14

    def __post_init__(self) -> None:
        if not (self.relative_eps > 0.0 and self.absolute_floor > 0.0):
            raise InputError("RankTolerance parameters must be strictly positive")

    def cutoff(self, shape: tuple[int, int], sigma_max: float) -> float:
        return max(max(shape) * self.relative_eps * sigma_max, self.absolute_floor)


DEFAULT_TOL = RankTolerance()


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float64 2-d array or raise InputError."""
    M = np.asarray(A, dtype=float)
    if M.ndim != 2:
        raise InputError(f"{name} must be two-dimensional, got ndim={M.ndim}")
    if M.size and not np.isfinite(M).all():
        raise InputError(f"{name} contains non-finite entries")
    return M


def as_vector(x, name: str = "vector", dim: int | None = None) -> np.ndarray:
    """Coerce to a finite float64 1-d array, of length ``dim`` when given,
    or raise InputError."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise InputError(f"{name} must be one-dimensional, got ndim={v.ndim}")
    if v.size and not np.isfinite(v).all():
        raise InputError(f"{name} contains non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise InputError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    return v


def orthonormal_basis(A, tol: RankTolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``A``.

    Parameters
    ----------
    A : array-like, (n, m)
        Input matrix, at least one row.
    tol : RankTolerance
        Rank decision policy.

    Returns
    -------
    Q : ndarray, (n, rank)
        Orthonormal columns spanning the column space of A.  The column
        count equals the numerical rank of A under ``tol``; an all-zero or
        empty input yields a matrix with zero columns.
    """
    M = as_matrix(A)
    if M.shape[0] < 1:
        raise InputError("orthonormal_basis requires at least one row")
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    rank = int(np.count_nonzero(s > tol.cutoff(M.shape, float(s[0]))))
    return U[:, :rank].copy()


def null_space(A, tol: RankTolerance = DEFAULT_TOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the kernel {x : Ax = 0}.

    Parameters
    ----------
    A : array-like, (m, n)
        Input matrix, at least one column.
    tol : RankTolerance
        Rank decision policy (shared with :func:`orthonormal_basis`, so
        rank + nullity = n holds exactly).
    scale : float
        Floor on the magnitude the relative cutoff is measured against,
        which is otherwise the largest singular value of A.  A caller whose
        A may be rounding noise throughout passes the norm A has at full
        strength, so that the noise is not counted as rank.

    Returns
    -------
    N : ndarray, (n, n - rank)
        Orthonormal columns spanning the kernel; zero columns when the
        kernel is trivial.
    """
    M = as_matrix(A)
    if M.shape[1] < 1:
        raise InputError("null_space requires at least one column")
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    # A thin SVD already yields all n right singular vectors when m >= n;
    # only a wide matrix needs the full factorization for its kernel.
    _, s, Vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = int(np.count_nonzero(s > tol.cutoff(M.shape, max(float(s[0]), scale))))
    return Vt[rank:].T.copy()


def spectral_norm(A) -> float:
    """Largest singular value of ``A`` (operator 2-norm).

    For symmetric input this equals the largest absolute eigenvalue.
    """
    M = as_matrix(A)
    if M.shape[0] == 0 or M.shape[1] == 0:
        raise InputError("spectral_norm requires a nonempty matrix")
    return float(np.linalg.svd(M, compute_uv=False)[0])


def symmetric_norm(A) -> float:
    """Operator 2-norm of a symmetric matrix: its largest absolute eigenvalue.

    ``A`` is symmetrised as (A + A^T) / 2 first, so rounding-level asymmetry
    is harmless; callers must guarantee symmetry by construction, since the
    antisymmetric part is discarded, not measured.
    """
    M = as_matrix(A)
    if M.shape[0] == 0 or M.shape[0] != M.shape[1]:
        raise InputError(
            f"symmetric_norm requires a nonempty square matrix, got {M.shape}"
        )
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    return float(max(abs(w[0]), abs(w[-1])))
