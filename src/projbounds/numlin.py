"""Dense linear-algebra kernel: orthonormalization, null spaces, operator norms.

Everything downstream (subspaces, projectors, angle computations, iteration
operators) reduces to the four operations in this module: orthonormal
bases and null spaces from the SVD, and two norms from eigenvalues
(``eigvalsh``, several times cheaper than the SVD): the spectral norm from
the smaller Gram matrix, and the norm of a matrix symmetric by construction
from its extreme eigenvalues.  All routines are pure functions of float64
arrays; summations run in a fixed index order, so repeated runs on one
platform at one BLAS thread count are bit-reproducible.
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


def as_points(x, dim: int) -> np.ndarray:
    """A vector of length ``dim``, or a block of ``dim`` rows, one point a column."""
    X = as_vector(x, "vector", dim) if np.ndim(x) != 2 else as_matrix(x, "block")
    if X.shape[0] != dim:
        raise InputError(f"block has {X.shape[0]} rows, expected {dim}")
    return X


def _rank(s: np.ndarray, shape: tuple[int, int]) -> int:
    """Numerical rank from the descending singular values ``s`` of a matrix
    of ``shape``, under the module's rank policy; 0 when ``s`` is empty."""
    cutoff = max(max(shape) * RANK_RELATIVE_EPS * float(s.max(initial=0.0)), RANK_ABSOLUTE_FLOOR)
    return int(np.count_nonzero(s > cutoff))


def orthonormal_basis(A) -> np.ndarray:
    """Orthonormal basis of the column space of ``A``.

    Parameters
    ----------
    A : array-like, (n, m)
        Input matrix of any shape with at least one row; m = 0 is allowed.

    Returns
    -------
    Q : ndarray, (n, rank)
        Orthonormal columns spanning the column space of A.  The column
        count equals the numerical rank of A; an all-zero input, or one
        with no columns, yields a matrix with zero columns.
    """
    M = as_matrix(A)
    if M.shape[0] < 1:
        raise InputError("orthonormal_basis requires at least one row")
    U, s, _ = np.linalg.svd(M, full_matrices=False)
    return U[:, :_rank(s, M.shape)].copy()


def null_space(A, cutoff: float | None = None) -> np.ndarray:
    """Orthonormal basis of the kernel {x : Ax = 0}.

    Parameters
    ----------
    A : array-like, (m, n)
        Input matrix of any shape, m = 0 (kernel R^n) or n = 0 included.
    cutoff : float, optional
        Absolute threshold: right singular vectors whose singular value is
        at most ``cutoff`` span the kernel.  A caller that decides by a
        fixed magnitude, not relative to the largest singular value of A,
        passes it.  By default the rank decision is the one
        :func:`orthonormal_basis` makes, so rank + nullity = n holds exactly.

    Returns
    -------
    N : ndarray, (n, n - rank)
        Orthonormal columns spanning the kernel; zero columns when the
        kernel is trivial.
    """
    M = as_matrix(A)
    # A thin SVD already yields all n right singular vectors when m >= n;
    # only a wide matrix needs the full factorization for its kernel.
    _, s, Vt = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    rank = _rank(s, M.shape) if cutoff is None else int(np.count_nonzero(s > cutoff))
    return Vt[rank:].T.copy()


def spectral_norm(A) -> float:
    """Largest singular value of ``A`` (operator 2-norm): s sqrt(lambda_max),
    lambda_max that of the smaller Gram matrix of G = A / s, s = max |A_ij|.
    The scaling keeps blocks near 1e+-200 in range when squared, and makes
    lambda_max >= 1.  An empty or all-zero block returns 0.0, as
    ``np.linalg.norm(A, 2)`` does, before any copy, Gram or eigenvalue."""
    M = as_matrix(A)
    if not M.size or not (s := float(np.max(np.abs(M)))):
        return 0.0
    G = M / s
    gram = G.T @ G if G.shape[0] >= G.shape[1] else G @ G.T
    return s * float(np.sqrt(np.linalg.eigvalsh(gram)[-1]))


def symmetric_norm(A) -> float:
    """Operator 2-norm of a square symmetric matrix: its largest absolute
    eigenvalue, 0.0 for the empty matrix.

    ``A`` is symmetrised as (A + A^T) / 2 first, so rounding-level asymmetry
    is harmless; callers must guarantee symmetry by construction, since the
    antisymmetric part is discarded, not measured.
    """
    M = as_matrix(A)
    if M.shape[0] != M.shape[1]:
        raise InputError(f"symmetric_norm requires a square matrix, got {M.shape}")
    if not M.size:
        return 0.0
    w = np.linalg.eigvalsh((M + M.T) / 2.0)
    return float(max(abs(w[0]), abs(w[-1])))
