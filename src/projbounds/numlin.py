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

import numpy as np

from .errors import InputError

__all__ = [
    "RANK_RELATIVE_EPS",
    "RANK_ABSOLUTE_FLOOR",
    "orthonormal_basis",
    "null_space",
    "spectral_norm",
    "symmetric_norm",
]


# The one rank policy: singular values at or below
#     max(max(rows, cols) * RANK_RELATIVE_EPS * sigma_max(A), RANK_ABSOLUTE_FLOOR)
# count as zero.  Scale-aware and safe for the dense, well-separated spectra
# this package produces; every report echoes both values in its metadata.
RANK_RELATIVE_EPS = 1e-12
RANK_ABSOLUTE_FLOOR = 1e-14


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


def _rank(s: np.ndarray, shape: tuple[int, int], scale: float = 0.0) -> int:
    """Numerical rank from the descending singular values ``s`` of a matrix
    of ``shape``, under the module's rank policy; the relative cutoff is
    measured against max(s[0], scale)."""
    cutoff = max(max(shape) * RANK_RELATIVE_EPS * max(float(s[0]), scale), RANK_ABSOLUTE_FLOOR)
    return int(np.count_nonzero(s > cutoff))


def orthonormal_basis(A) -> np.ndarray:
    """Orthonormal basis of the column space of ``A``.

    Parameters
    ----------
    A : array-like, (n, m)
        Input matrix, at least one row.

    Returns
    -------
    Q : ndarray, (n, rank)
        Orthonormal columns spanning the column space of A.  The column
        count equals the numerical rank of A; an all-zero or empty input
        yields a matrix with zero columns.
    """
    M = as_matrix(A)
    if M.shape[0] < 1:
        raise InputError("orthonormal_basis requires at least one row")
    if M.shape[1] == 0:
        return np.zeros((M.shape[0], 0))
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, :_rank(s, M.shape)].copy()


def null_space(A, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the kernel {x : Ax = 0}.

    Parameters
    ----------
    A : array-like, (m, n)
        Input matrix, at least one column.
    scale : float
        Floor on the magnitude the relative cutoff is measured against,
        which is otherwise the largest singular value of A.  A caller whose
        A may be rounding noise throughout passes the norm A has at full
        strength, so that the noise is not counted as rank.  The rank
        decision is otherwise the one :func:`orthonormal_basis` makes, so
        rank + nullity = n holds exactly.

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
    return Vt[_rank(s, M.shape, scale):].T.copy()


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
