"""Iteration operators for projection methods and their exact error bounds.

Two algorithmic operators act on a family M_1, ..., M_r with intersection M:

* simultaneous:  T = (1/r) (P_1 + ... + P_r)
* cyclic:        T = P_r ... P_1            (index 1 applied first)

Both satisfy T P_M = P_M T = P_M, which yields the algebraic identity
T^k - P_M = (T - P_M)^k.  Error-operator norms walk T - P_M (forming T^k
and subtracting would cancel), while :func:`verify_error_identity` forms
both sides independently.  Each walk starts from the n x m basis Q of the
operator's domain, outside which every error operator E vanishes.  T and
P_M act through bases (:meth:`IterOperator.step`), never as n x n matrices.

Each function of the step count k takes either one exponent, returning a
float, or a 1-d integer array of them, returning an array of its shape.
Every walk to k is an :func:`orbit`, its k-th item the k-th iterate, and
:func:`sweep` reads walks at the wanted k.  The rate ||T - P_M|| is found
once per operator, by :attr:`IterOperator.rate` alone; the trace bounds,
:func:`cyclic_bound` and :func:`optimal_bound_simultaneous` raise it to the k.

The optimal starting-point-independent rate of the simultaneous method is

    q = (r-1)/r * cos(M_1, ..., M_r) + 1/r,

and ||T^k - P_M|| = q^k exactly.  For two subspaces the cyclic method
satisfies ||(P_2 P_1)^k - P_M|| = cos(M_1, M_2)^(2k-1); for r > 2 only the
one-sided product bound of :func:`cyclic_bound` is available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .angles import cos_two, friedrichs_gram, optimal_rate
from .errors import InputError
from .numlin import as_vector, spectral_norm
from .subspaces import Family

__all__ = [
    "IterOperator",
    "IterationTrace",
    "KIND_SIMULTANEOUS",
    "KIND_CYCLIC",
    "simultaneous_operator",
    "cyclic_operator",
    "iterate",
    "orbit",
    "error_profile",
    "error_operator_norm",
    "optimal_bound_simultaneous",
    "kw_bound",
    "cyclic_bound",
    "verify_error_identity",
]

KIND_SIMULTANEOUS = "simultaneous"
KIND_CYCLIC = "cyclic"


@dataclass(frozen=True, eq=False)
class IterOperator:
    """The iteration operator of one kind on a family, a read-only view of it.

    :meth:`step` applies T through the members' bases; ``rate`` is
    ||T - P_M||, the one place a base-space trace's rate is found, formed
    from the family on first use and kept.
    """

    family: Family
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SIMULTANEOUS, KIND_CYCLIC):
            raise InputError(f"unknown operator kind {self.kind!r}")
        # Absorption, T P_M = P_M T = P_M, follows from M lying in every M_i,
        # which forming the reduced components tests once per family
        # (Subspace.contains), so no operator re-decides it.
        self.family.reduced

    def step(self, X: np.ndarray) -> np.ndarray:
        """T X for an n x s block X, through the members' bases Q_i:
        X <- Q_i (Q_i^T X) for i = 1..r, or (1/r) sum_i Q_i (Q_i^T X),
        taken as (1/r) A (A^T X) with A = [Q_1 ... Q_r]."""
        for Q in self._factors:
            X = Q @ (Q.T @ X)
        return X / len(self.family) if self.kind == KIND_SIMULTANEOUS else X

    @cached_property
    def _factors(self) -> list[np.ndarray]:
        bases = [S.basis for S in self.family]
        return [np.hstack(bases)] if self.kind == KIND_SIMULTANEOUS else bases

    @property
    def domain(self) -> np.ndarray:
        """Orthonormal Q with E = E Q Q^T for every error operator E, up to
        :attr:`Family.defects`: a basis of M_1' = M_1 intersect M-perp for the
        cyclic kind, else :attr:`Family.reduced_span` (M_1' + ... + M_r')."""
        return self.family.reduced[0].basis if self.kind == KIND_CYCLIC else self.family.reduced_span

    @cached_property
    def rate(self) -> float:
        """||T - P_M|| from the family's bases, no n x n matrix.  Were
        P_i = P_M + P_i' exact (P_i' projects onto M_i intersect M-perp), it
        would be q for the simultaneous kind and ||P_r' ... P_1'|| (a basis
        of M_1 intersect M-perp walked through P_2', ..., P_r') for the
        cyclic one, 0 on a degenerate family.  Members miss that split by
        their :attr:`Family.defects`, whose mean (sum, cyclic) bounds
        ||T - P_M|| on a family judged degenerate; the rate is the larger
        of that and the split rate."""
        fam, simultaneous = self.family, self.kind == KIND_SIMULTANEOUS
        defect = sum(fam.defects) / (len(fam) if simultaneous else 1)
        if fam.degenerate:
            return defect
        if simultaneous:
            return max(optimal_rate(friedrichs_gram(fam), len(fam)), defect)
        Z = fam.reduced[0].basis
        for R in fam.reduced[1:]:
            Z = R.project(Z)
        return max(_block_norm(Z), defect)


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Per-iteration error norms with matching theoretical bound values.

    errors[k] = || x_k - P_M(x_0) || and bounds[k] = rate^k * scale for the
    rate and scale the producing routine attached.
    """

    start: np.ndarray
    errors: np.ndarray
    bounds: np.ndarray

    def __post_init__(self) -> None:
        for name in ("start", "errors", "bounds"):
            A = np.asarray(getattr(self, name), dtype=float).copy()
            A.setflags(write=False)
            object.__setattr__(self, name, A)
        if self.errors.shape != self.bounds.shape:
            raise InputError("errors and bounds must have equal length")

    def max_violation(self) -> float:
        """Largest amount by which an error exceeds its bound."""
        return float(np.max(self.errors - self.bounds))


def simultaneous_operator(subspaces) -> IterOperator:
    """Averaged-projector operator (1/r) sum_i P_i with limit P_M."""
    return IterOperator(Family.of(subspaces), KIND_SIMULTANEOUS)


def cyclic_operator(subspaces) -> IterOperator:
    """Composed-projector operator P_r ... P_1 (index 1 applied first)."""
    return IterOperator(Family.of(subspaces), KIND_CYCLIC)


def iterate(T: IterOperator, starts, k_max: int) -> list[IterationTrace]:
    """Run k_max steps of the method from each of ``starts``, one trace each.

    The starts walk as the columns of one block X, a step being one T.step
    (never a matrix power), so each trace equals its start walked alone, to
    rounding.  The attached bounds are ``T.rate``^k * ||x0|| (q^k ||x0||
    for the simultaneous kind), valid as T^k - P_M = (T - P_M)^k.
    """
    X = start_block(starts, T.family.ambient_dim)
    return block_traces(X, T.family.intersection.project(X), T.step, T.rate ** np.arange(k_max + 1))


def start_block(starts, n: int) -> np.ndarray:
    """The starts, each a vector of length n, as the columns of one n x s block."""
    return np.array([as_vector(x, "start", n) for x in starts]).reshape(-1, n).T


def block_traces(X: np.ndarray, target, step, powers, Y=None, offset=0.0) -> list[IterationTrace]:
    """One trace per column x of the start block X: the :func:`error_profile` of
    x's column y of Y (X by default, or its lift; all walked by ``step`` at
    once) against its ``target`` column, and bounds ``powers`` * ||y - offset||."""
    Y = X if Y is None else Y
    errors = error_profile(Y, target, step, len(powers) - 1)
    return [IterationTrace(x, e, powers * np.linalg.norm(y)) for x, e, y in zip(X.T, errors.T, Y.T - offset)]


def orbit(step, x):
    """x, step(x), step(step(x)), ... without end; a step is taken only
    when the next iterate is asked for."""
    while True:
        yield x
        x = step(x)


def error_profile(X: np.ndarray, target: np.ndarray, step, k_max: int) -> np.ndarray:
    """||X_k - target|| column by column for k = 0..k_max, a (k_max + 1, s)
    array, where X_0 = X, an n x s block, and X_k = step(X_(k-1))."""
    if k_max < 0:
        raise InputError("k_max must be nonnegative")
    errors = sweep(range(k_max + 1), lambda Y: np.linalg.norm(Y - target, axis=0), orbit(step, X))
    return np.array(list(errors.values()))


def exponents(k, least: int = 1) -> np.ndarray:
    """``k`` as a 0-d (one) or 1-d (several, any order, repeats allowed)
    integer array; InputError unless every exponent is an integer >= ``least``."""
    ks = np.asarray(k)
    if ks.ndim > 1 or not ks.size or not np.issubdtype(ks.dtype, np.integer) or ks.min() < least:
        raise InputError(f"exponents must be an integer >= {least} or a nonempty 1-d list of them")
    return ks


def sweep(ks, value, *walks) -> dict:
    """{k: value(x_k, y_k, ...)} for each distinct k of ``ks``, in increasing
    k, where x_k, y_k, ... are the k-th items of ``walks`` (orbits).

    The walks advance one after another, each to max(ks) and no further,
    so no walk keeps more alive than its last item and the one being made;
    ``value`` is called once per wanted k and at no other.
    """
    wanted, out = set(np.ravel(ks).tolist()), {}
    for k in range(max(wanted) + 1):
        items = [next(walk) for walk in walks]
        if k in wanted:
            out[k] = value(*items)
    return out


def _per_k(ks: np.ndarray, value_at):
    """value_at(k) for each k of ``ks``: a float for one exponent, else an
    array of the shape of ``ks``."""
    if ks.ndim == 0:
        return float(value_at(int(ks)))
    return np.array([value_at(k) for k in ks.tolist()], dtype=float)


def _block_norm(Z: np.ndarray) -> float:
    """||Z||, or 0.0 for a block of no columns (a walk of a trivial domain)."""
    return spectral_norm(Z) if Z.shape[1] else 0.0


def _error_step(T: IterOperator):
    """X -> (T - P_M) X, through the bases of the members and of M."""
    M = T.family.intersection.basis
    return lambda X: T.step(X) - M @ (M.T @ X)


def error_operator_norm(T: IterOperator, k):
    """|| T^k - P_M ||, computed as the norm of (T - P_M)^k Q.

    (T - P_M)^k vanishes outside ``T.domain``, whose basis is Q, up to
    :attr:`Family.defects`.  Walking the difference operator keeps full
    relative accuracy even when T^k is near P_M; k = 0 is excluded by contract.
    """
    ks = exponents(k)
    walk = orbit(_error_step(T), T.domain)
    return _per_k(ks, sweep(ks, _block_norm, walk).get)


def optimal_bound_simultaneous(subspaces, k):
    """q^k, q = (r-1)/r * cos(M_1,...,M_r) + 1/r the simultaneous rate.

    This is the smallest constant c such that ||T^k(x) - P_M(x)|| <= c ||x||
    for every x, T being the simultaneous operator: its rate to the k,
    the members' mean defect on a degenerate family (every M_i equal to M).
    """
    T = IterOperator(Family.of(subspaces), KIND_SIMULTANEOUS)
    return _per_k(exponents(k), lambda k: T.rate**k)


def kw_bound(subspaces, k):
    """cos(M1, M2)^(2k-1), the exact two-subspace alternating error norm,
    for the pair ``subspaces`` = (M1, M2) or a two-member Family."""
    ks = exponents(k)
    c = cos_two(subspaces).value
    return _per_k(ks, lambda k: c ** (2 * k - 1))


def cyclic_bound(subspaces, k):
    """Product bound for the cyclic method, || P_r' ... P_1' ||^k, the cyclic
    operator's rate to the k; P_i' projects onto M_i intersect M-perp.

    The base equals the cyclic error norm at k = 1; for larger k the bound
    is one-sided (not necessarily attained), and for r = 2 the exact value
    cos^(2k-1) of :func:`kw_bound` is strictly smaller whenever 0 < cos < 1.
    """
    T = IterOperator(Family.of(subspaces), KIND_CYCLIC)
    return _per_k(exponents(k), lambda k: T.rate**k)


def verify_error_identity(T: IterOperator, k):
    """Residual || (T^k - P_M) - (T - P_M)^k || with independent sides.

    Both sides vanish outside ``T.domain``, so both walk its basis Q: the left
    side through T, minus P_M Q; the right through T - P_M.  Where dim M > 0,
    agreement is evidence for absorption, not a tautology; on M,
    :meth:`Subspace.contains` decides it.  Where M = {0}, P_M = 0 and both
    sides are the one product T^k Q: the residual is 0.0 and nothing is walked.
    """
    ks = exponents(k)
    if not T.family.intersection.dim:
        return _per_k(ks, lambda k: 0.0)
    Q = T.domain
    PQ, walks = T.family.intersection.project(Q), (orbit(T.step, Q), orbit(_error_step(T), Q))
    residuals = sweep(ks, lambda TkQ, EkQ: _block_norm((TkQ - PQ) - EkQ), *walks)
    return _per_k(ks, residuals.get)
