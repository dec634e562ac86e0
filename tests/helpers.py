"""Shared builders for the test suite."""

import json
from functools import reduce

import numpy as np

from projbounds import (
    AffineFamily,
    Subspace,
    build_product,
    cos_CD,
    cyclic_bound,
    cyclic_operator,
    error_operator_norm,
    friedrichs_gram,
    kw_bound,
    null_space,
    optimal_bound_simultaneous,
    simultaneous_operator,
    spectral_norm,
    symmetric_norm,
    verify_error_identity,
)
from projbounds.angles import optimal_rate
from projbounds.methods import KIND_SIMULTANEOUS, exponents
from projbounds.subspaces import PROJECTOR_EQ_TOL

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """A seeded random orthogonal matrix with a fixed sign convention."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def random_subspace(rng: np.random.Generator, n: int, d: int) -> Subspace:
    return Subspace.from_spanning(rng.standard_normal((n, d)))


def random_family(rng: np.random.Generator, r: int, n: int, dims=None):
    if dims is None:
        dims = [int(rng.integers(1, n)) for _ in range(r)]
    return [random_subspace(rng, n, d) for d in dims]


def gate_spans(n: int = 6) -> list[np.ndarray]:
    """Spanning sets of the mutation gate's family: three members of R^n,
    each one shared random direction plus 2, 3 and 2 of its own, so dim M = 1."""
    rng = np.random.default_rng(2024)
    common = rng.standard_normal((n, 1))
    return [np.hstack([common, rng.standard_normal((n, d))]) for d in (2, 3, 2)]


def lines_at(theta_deg: float):
    """Two lines through the origin of R^2 meeting at the given angle."""
    t = np.deg2rad(theta_deg)
    M1 = Subspace.from_spanning(np.array([[1.0], [0.0]]))
    M2 = Subspace.from_spanning(np.array([[np.cos(t)], [np.sin(t)]]))
    return M1, M2


def lines_exact_60():
    """Lines whose direction vectors have exactly representable dot 0.5."""
    M1 = Subspace.from_spanning(np.array([[1.0], [0.0]]))
    M2 = Subspace.from_spanning(np.array([[0.5], [SQRT3 / 2.0]]))
    return M1, M2


def triple_at_120(phase_deg: float = 90.0):
    """Three lines in R^2 whose direction vectors sit 120 degrees apart."""
    out = []
    for offset in (0.0, 120.0, 240.0):
        t = np.deg2rad(phase_deg + offset)
        out.append(Subspace.from_spanning(np.array([[np.cos(t)], [np.sin(t)]])))
    return out


def orthogonal_axes():
    """span(e1) and span(e2) in R^2."""
    M1 = Subspace.from_spanning(np.array([[1.0], [0.0]]))
    M2 = Subspace.from_spanning(np.array([[0.0], [1.0]]))
    return M1, M2


def planted_pair(rng: np.random.Generator, theta_deg: float, n: int, shared_dim: int):
    """A rotated pair sharing an exact shared_dim-dimensional intersection
    with reduced parts at the prescribed angle."""
    t = np.deg2rad(theta_deg)
    s = shared_dim
    shared = np.eye(n)[:, :s]
    u1 = np.eye(n)[:, s]
    u2 = np.cos(t) * np.eye(n)[:, s] + np.sin(t) * np.eye(n)[:, s + 1]
    Q = rotation(rng, n)
    M1 = Subspace.from_spanning(Q @ np.column_stack([shared, u1]))
    M2 = Subspace.from_spanning(Q @ np.column_stack([shared, u2]))
    return M1, M2


def near_pair(rng: np.random.Generator, theta: float, n: int, d: int):
    """Two d-dimensional subspaces of R^n whose d principal angles all equal
    ``theta`` radians: the first spanned by d orthonormal columns A, the
    second by cos(theta) A + sin(theta) U, U orthonormal and orthogonal to A."""
    Q = rotation(rng, n)[:, : 2 * d]
    A, U = Q[:, :d], Q[:, d:]
    return Subspace(A), Subspace(np.cos(theta) * A + np.sin(theta) * U)


def shared_and_near_spans(rng: np.random.Generator, theta: float, n: int, shared: int, near: int):
    """Orthonormal spans of two subspaces of R^n that share an exact
    ``shared``-dimensional part E and have ``near`` further principal angles,
    all ``theta`` radians: [E, A] and [E, cos(theta) A + sin(theta) U]."""
    Q = rotation(rng, n)
    E, A = Q[:, :shared], Q[:, shared : shared + near]
    U = Q[:, shared + near : shared + 2 * near]
    return [np.hstack([E, A]), np.hstack([E, np.cos(theta) * A + np.sin(theta) * U])]


def same_subspace(A: Subspace, B: Subspace) -> bool:
    """Test-only equality of two subspaces of one R^n: their projectors
    agree to PROJECTOR_EQ_TOL, whatever their bases."""
    assert A.ambient_dim == B.ambient_dim
    return spectral_norm(A.projector() - B.projector()) <= PROJECTOR_EQ_TOL


def orth_complement(S: Subspace) -> Subspace:
    """Test-only: the orthogonal complement of S, the kernel of its basis
    transpose (the full space when S is trivial)."""
    return Subspace(null_space(S.basis.T) if S.dim else np.eye(S.ambient_dim))


def distance_to(V, x) -> float:
    """Test-only: ||x - V.project(x)||, which is 0 exactly when x lies on V."""
    return float(np.linalg.norm(x - V.project(x)))


def dense_projector(S: Subspace) -> np.ndarray:
    """Test-only: the n x n projector Q Q^T onto S, from its basis Q."""
    return S.basis @ S.basis.T


def dense_operator(T) -> tuple[np.ndarray, np.ndarray]:
    """Test-only oracle: the n x n matrices of the iteration operator ``T``,
    (1/r) sum_i P_i or P_r ... P_1, and of its limit P_M, each P from
    :func:`dense_projector`."""
    P = [dense_projector(S) for S in T.family]
    A = sum(P) / len(P) if T.kind == KIND_SIMULTANEOUS else reduce(lambda A, B: B @ A, P)
    return A, dense_projector(T.family.intersection)


def dense_error_operator(T) -> np.ndarray:
    """Test-only oracle: T - P_M as one n x n matrix (:func:`dense_operator`)."""
    A, P_M = dense_operator(T)
    return A - P_M


def stacked_intersection(subspaces) -> Subspace:
    """Test-only oracle: the intersection as the null space of the stacked
    n-column matrix [(I - P_1); ...; (I - P_r)]."""
    subs = list(subspaces)
    if len(subs) == 1:
        return subs[0]
    eye = np.eye(subs[0].ambient_dim)
    return Subspace(null_space(np.vstack([eye - S.projector() for S in subs])))


def dense_D(model) -> Subspace:
    """Test-only oracle: the diagonal D of ``model`` as a dense Subspace of
    R^(n*r), with orthonormal basis (I, ..., I)/sqrt(r)."""
    r = len(model.family)
    return Subspace(np.vstack([np.eye(model.family.ambient_dim)] * r) / np.sqrt(r))


def dense_C(model) -> Subspace:
    """Test-only oracle: C = M_1 x ... x M_r of ``model`` as a dense Subspace
    of R^(n*r), its basis block diagonal with ``model.C_blocks`` on the
    diagonal."""
    n, blocks = model.family.ambient_dim, model.C_blocks
    basis = np.zeros((n * len(blocks), sum(C_i.shape[1] for C_i in blocks)))
    col = 0
    for i, C_i in enumerate(blocks):
        basis[i * n : (i + 1) * n, col : col + C_i.shape[1]] = C_i
        col += C_i.shape[1]
    return Subspace(basis)


def chain_gaps(profile) -> np.ndarray:
    """The five absolute adjacent gaps of the six chain members in each row
    of ``profile`` (a :func:`chain_residual_profile` result)."""
    return np.abs(np.diff(profile, axis=-1))


def dense_chain_residual_profile(subspaces, k_values) -> np.ndarray:
    """Test-only oracle: the six chain members with members 1 and 2 taken
    from the dense n x n matrices T and P_M, and members 5 and 6 from the
    dense n*r x n*r matrices P_C, P_D, P_CD and P_D P_C P_D; every power
    is np.linalg.matrix_power's, not a walk of the code under test."""
    ks = exponents(k_values)
    model = build_product(subspaces)
    fam = model.family
    fr = friedrichs_gram(fam)
    T, P_M = dense_operator(simultaneous_operator(fam))
    one_step = symmetric_norm(T - P_M)
    q = optimal_rate(fr, len(fam))
    c_prod = cos_CD(model)
    P_CD = model.CD.projector()
    P_D = dense_D(model).projector()
    T_prod = P_D @ dense_C(model).projector() @ P_D
    prod_one_step = symmetric_norm(T_prod - P_CD)
    rows = []
    for k in ks.reshape(-1).tolist():
        norm = symmetric_norm(np.linalg.matrix_power(T, k) - P_M)
        prod = symmetric_norm(np.linalg.matrix_power(T_prod, k) - P_CD)
        members = [norm, one_step**k, q**k, c_prod ** (2 * k), prod_one_step**k, prod]
        rows.append(members)
    return np.array(rows).reshape(ks.shape + (6,))


def perturbed_family(
    rng: np.random.Generator, r: int, n: int, shared_dim: int, eps: float
):
    """r subspaces, each spanning its own eps-perturbation of one shared
    shared_dim-dimensional part plus a few random directions.

    Each member has dimension at most n/2, so no two members are forced to
    meet outside the shared part.  A forced common part lying next to
    directions at angle ~eps is determined only to ~1e-15/eps by any
    formula, which would hide what a comparison is meant to show.
    """
    shared = rng.standard_normal((n, shared_dim))
    return [
        Subspace.from_spanning(
            np.hstack(
                [
                    shared + eps * rng.standard_normal((n, shared_dim)),
                    rng.standard_normal(
                        (n, int(rng.integers(0, n // 2 - shared_dim + 1)))
                    ),
                ]
            )
        )
        for _ in range(r)
    ]


def k_indexed_calls(subs, k):
    """The five functions indexed by the step count, each bound to the
    family ``subs`` (kw_bound to its first two members) and exponent(s) ``k``."""
    subs = list(subs)
    T_sim, T_cyc = simultaneous_operator(subs), cyclic_operator(subs)
    return {
        "error_operator_norm": lambda: error_operator_norm(T_cyc, k),
        "verify_error_identity": lambda: verify_error_identity(T_sim, k),
        "kw_bound": lambda: kw_bound(subs[:2], k),
        "optimal_bound_simultaneous": lambda: optimal_bound_simultaneous(subs, k),
        "cyclic_bound": lambda: cyclic_bound(subs, k),
    }


def dense_walk_errors(step, target, x, k_max) -> np.ndarray:
    """Test-only oracle: ||x_k - target|| for k = 0..k_max, the one start x
    walked alone by ``step``, one matrix-vector product at a time."""
    errors = []
    for _ in range(k_max + 1):
        errors.append(np.linalg.norm(x - target))
        x = step(x)
    return np.array(errors)


def dense_trace_errors(method, family, x, k_max) -> np.ndarray:
    """Test-only oracle: the errors of ``method``'s trace from the start x
    alone, from dense matrices: T and P_M in R^n for the simultaneous and
    cyclic methods, P_D P_C and P_CD in R^(n*r) for product_alternating,
    and y -> v_i + P_i (y - v_i) for the members of an AffineFamily."""
    if isinstance(family, AffineFamily):
        sets = [(V.anchor, V.direction.projector()) for V in family.members]
        t = family.target
        target = t.anchor + t.direction.projector() @ (x - t.anchor)
        if method == "simultaneous":
            step = lambda y: sum(v + P @ (y - v) for v, P in sets) / len(sets)
        else:
            step = lambda y: reduce(lambda z, vP: vP[0] + vP[1] @ (z - vP[0]), sets, y)
        return dense_walk_errors(step, target, x, k_max)
    if method == "product_alternating":
        model = build_product(family)
        A, y = dense_D(model).projector() @ dense_C(model).projector(), np.tile(x, len(family))
        return dense_walk_errors(lambda z: A @ z, model.CD.projector() @ y, y, k_max)
    build = simultaneous_operator if method == "simultaneous" else cyclic_operator
    T, P_M = dense_operator(build(family))
    return dense_walk_errors(lambda z: T @ z, P_M @ x, x, k_max)


def strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)
