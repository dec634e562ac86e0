"""Error operators walked on their domain equal the same operators on R^n.

Every error-operator walk starts from an orthonormal basis of the
operator's domain, a subspace outside which the operator vanishes:
M_1 for the cyclic kind, the family's span for the simultaneous kind
and, lifted, for chain members 5 and 6.  The families here have
dim M_1 + ... + dim M_r < n, so each domain is a proper subspace and a
wrong one shows against the full-space values.
"""

import numpy as np
import pytest

from projbounds import (
    Family,
    Subspace,
    chain_residual_profile,
    cyclic_operator,
    error_operator_norm,
    simultaneous_operator,
    spectral_norm,
    verify_error_identity,
)
from projbounds.runner import run_scenario
from projbounds.scenario import Scenario
from helpers import dense_chain_residual_profile

KS = np.arange(1, 9)


def small_span_family(seed: int, shared_dim: int):
    """2 to 4 random members of R^n, n in 20..30, each holding a planted
    common part of dimension ``shared_dim`` plus 1 to 3 own directions, so
    that the dimensions sum to less than n."""
    rng = np.random.default_rng([seed, shared_dim])
    n = int(rng.integers(20, 31))
    common = rng.standard_normal((n, shared_dim))
    return [
        Subspace.from_spanning(np.hstack([common, rng.standard_normal((n, int(rng.integers(1, 4))))]))
        for _ in range(int(rng.integers(2, 5)))
    ]


def full_space_norms(T, ks):
    """||(T - P_M)^k|| with the difference formed and powered on R^n."""
    E = T.matrix - T.limit_projector
    return np.array([spectral_norm(np.linalg.matrix_power(E, int(k))) for k in ks])


FAMILIES = [(seed, shared) for seed in range(5) for shared in (0, 2)]


@pytest.mark.parametrize("seed, shared", FAMILIES)
@pytest.mark.parametrize("build", [simultaneous_operator, cyclic_operator])
def test_restricted_error_norms_equal_full_space(seed, shared, build):
    subs = small_span_family(seed, shared)
    assert sum(S.dim for S in subs) < subs[0].ambient_dim
    T = build(subs)
    assert T.domain.shape[1] < T.family.ambient_dim
    assert np.max(np.abs(error_operator_norm(T, KS) - full_space_norms(T, KS))) <= 1e-12
    assert np.max(verify_error_identity(T, KS)) <= 1e-12


@pytest.mark.parametrize("seed, shared", FAMILIES)
def test_restricted_chain_matches_dense_oracle(seed, shared):
    subs = small_span_family(seed, shared)
    gap = chain_residual_profile(subs, KS) - dense_chain_residual_profile(subs, KS)
    assert np.max(np.abs(gap)) <= 1e-12


@pytest.mark.parametrize("seed, shared", FAMILIES)
def test_span_is_orthonormal_and_contains_every_member(seed, shared):
    fam = Family.of(small_span_family(seed, shared))
    Q = fam.span
    assert Q.shape == (fam.ambient_dim, sum(S.dim for S in fam))
    assert spectral_norm(Q.T @ Q - np.eye(Q.shape[1])) <= 1e-12
    assert not Q.flags.writeable
    assert all(Subspace(Q).contains(S) for S in fam)


def test_span_of_a_family_wider_than_its_space_is_the_whole_space():
    rng = np.random.default_rng(7)
    fam = Family.of([Subspace.from_spanning(rng.standard_normal((5, 4))) for _ in range(3)])
    assert fam.span.shape == (5, 5)


TRIVIAL_DOMAINS = {
    "cyclic, trivial first member": (cyclic_operator, [0, 2]),
    "cyclic, all members trivial": (cyclic_operator, [0, 0]),
    "simultaneous, all members trivial": (simultaneous_operator, [0, 0]),
}


@pytest.mark.parametrize("case", TRIVIAL_DOMAINS)
def test_zero_column_domain_gives_zero(case):
    build, dims = TRIVIAL_DOMAINS[case]
    rng = np.random.default_rng(3)
    T = build([Subspace.from_spanning(rng.standard_normal((5, d))) for d in dims])
    assert T.domain.shape == (5, 0)
    assert error_operator_norm(T, 2) == 0.0 and verify_error_identity(T, 2) == 0.0
    assert np.array_equal(error_operator_norm(T, KS), np.zeros(len(KS)))
    assert np.array_equal(verify_error_identity(T, KS), np.zeros(len(KS)))


def test_scenario_with_an_empty_span_member_runs():
    rng = np.random.default_rng(4)
    spans = [np.zeros((5, 0)), rng.standard_normal((5, 2))]
    report = run_scenario(Scenario.generated("empty-first", 5, spans, 0, k_max=4, method="cyclic"))
    assert report.error is None
    assert all(c.passed for c in report.check_outcomes)
