"""Error operators walked on their domain equal the same operators on R^n.

Every error-operator walk starts from an orthonormal basis of the
operator's domain, a subspace outside which the operator vanishes: the
reduced part M_1' = M_1 intersect M-perp for the cyclic kind, the sum
M_1' + ... + M_r' of the reduced parts (``Family.reduced_span``) for the
simultaneous kind and, lifted into the product space, for chain members
5 and 6.  The families here have dim M_1 + ... + dim M_r < n, so each
domain is a proper subspace and a wrong one shows against the full-space
values.  Members miss the split P_i = P_M + P_i' by their
``Family.defects``, which bound what the walks no longer see; near-shared
directions judged shared make those defects, and the gaps, visible.
"""

import numpy as np
import pytest

from projbounds import (
    Family,
    Subspace,
    build_product,
    chain_residual_profile,
    cyclic_operator,
    error_operator_norm,
    generate_two_subspace,
    productspace,
    simultaneous_operator,
    spectral_norm,
    verify_error_identity,
)
from projbounds.runner import run_scenario
from projbounds.scenario import Scenario
from helpers import dense_chain_residual_profile, dense_error_operator, rotation

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
    E = dense_error_operator(T)
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
    # member by member: two members off by the same amount leave the gaps alone
    error = chain_residual_profile(subs, KS) - dense_chain_residual_profile(subs, KS)
    assert np.max(np.abs(error)) <= 1e-12


@pytest.mark.parametrize("seed, shared", FAMILIES)
def test_span_is_orthonormal_and_contains_every_member(seed, shared):
    # The walked span is that of the reduced parts; with M it holds every
    # member, which is what makes the walks exact.
    fam = Family.of(small_span_family(seed, shared))
    Q = fam.reduced_span
    assert Q.shape == (fam.ambient_dim, sum(R.dim for R in fam.reduced))
    assert Q.shape[1] == sum(S.dim for S in fam) - len(fam) * shared
    assert spectral_norm(Q.T @ Q - np.eye(Q.shape[1])) <= 1e-12
    assert not Q.flags.writeable
    assert all(Subspace(Q).contains(R) for R in fam.reduced)
    with_M = Subspace.from_spanning(np.hstack([fam.intersection.basis, Q]))
    assert all(with_M.contains(S) for S in fam)


def test_span_of_a_family_wider_than_its_space_is_the_whole_space():
    rng = np.random.default_rng(7)
    fam = Family.of([Subspace.from_spanning(rng.standard_normal((5, 4))) for _ in range(3)])
    # Three 4-dimensional members of R^5 share a plane, leaving reduced
    # parts of dimension 2 each: 6 columns, more than n.
    assert [R.dim for R in fam.reduced] == [2, 2, 2]
    assert fam.reduced_span.shape == (5, 5)


def test_domains_of_the_affine_pair_shape_are_as_narrow_as_their_reduced_parts(monkeypatch):
    # n = 150, two 31-dimensional members sharing 30 directions: one
    # reduced direction each, so every walk carries at most two columns;
    # the product space is R^(n r) = R^300.
    scenario = generate_two_subspace(50.0, 150, 30, 0)
    fam = Family.of([Subspace.from_spanning(spec.spanning) for spec in scenario.subspaces])
    assert [S.dim for S in fam] == [31, 31] and fam.intersection.dim == 30
    assert simultaneous_operator(fam).domain.shape == (150, 2)
    assert cyclic_operator(fam).domain.shape == (150, 1)
    starts, real = [], productspace.orbit
    monkeypatch.setattr(productspace, "orbit", lambda step, X: starts.append(X.shape) or real(step, X))
    chain_residual_profile(build_product(fam), KS)
    assert starts == [(150, 2), (300, 2)]


def near_shared_pair(theta: float, own_angle_deg: float):
    """Two 9-dimensional subspaces of R^30 sharing an exact plane E, with 5
    principal angles of ``theta`` radians (A against cos A + sin U) and two
    own directions at ``own_angle_deg`` (V against cos V + sin W)."""
    Q = rotation(np.random.default_rng(0), 30)
    E, A, U, V, W = Q[:, :2], Q[:, 2:7], Q[:, 7:12], Q[:, 12:14], Q[:, 14:16]
    phi = np.deg2rad(own_angle_deg)
    return [
        Subspace(np.hstack([E, A, V])),
        Subspace(np.hstack([E, np.cos(theta) * A + np.sin(theta) * U, np.cos(phi) * V + np.sin(phi) * W])),
    ]


@pytest.mark.parametrize("theta, shared_dim", [(1e-12, 7), (1e-11, 7), (3e-11, 7), (1e-9, 2)])
@pytest.mark.parametrize("own_angle_deg", [50.0, 90.0])
@pytest.mark.parametrize("build", [simultaneous_operator, cyclic_operator])
def test_near_shared_directions_miss_the_full_space_norm_by_at_most_the_defects(
    theta, shared_dim, own_angle_deg, build
):
    T = build(near_shared_pair(theta, own_angle_deg))
    assert T.family.intersection.dim == shared_dim
    gap = np.max(np.abs(error_operator_norm(T, KS) - full_space_norms(T, KS)))
    # Orthogonal own directions leave the cyclic walk nothing to see, so its
    # gap is the near-shared sine itself: the defects bound is attained.
    assert gap <= sum(T.family.defects) + 1e-13
    # On M, outside the domain, the lemma's residual is of the size theta;
    # absorption there is decided by Subspace.contains (at PROJECTOR_EQ_TOL)
    # when the reduced components form.
    assert np.max(verify_error_identity(T, KS)) <= 1e-12


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
