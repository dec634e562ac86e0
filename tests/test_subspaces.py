import numpy as np
import pytest

from projbounds import (
    ContainmentError,
    Family,
    InputError,
    Subspace,
    intersection,
    reduced_component,
    spectral_norm,
)
from helpers import (
    orth_complement,
    perturbed_family,
    random_family,
    random_subspace,
    rotation,
    same_subspace,
    stacked_intersection,
)
from projbounds.subspaces import PROJECTOR_EQ_TOL

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestConstruction:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(InputError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_rejects_too_many_columns(self):
        with pytest.raises(InputError):
            Subspace(np.hstack([np.eye(2), np.eye(2)[:, :1]]))

    def test_basis_is_read_only(self):
        S = Subspace.from_spanning(np.eye(3))
        with pytest.raises(ValueError):
            S.basis[0, 0] = 2.0

    def test_from_spanning_collapses_dependent_columns(self):
        S = Subspace.from_spanning(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert S.dim == 1
        assert same_subspace(S, Subspace.from_spanning(np.array([[1.0], [0.0]])))

    def test_from_spanning_zero_columns(self):
        S = Subspace.from_spanning(np.zeros((2, 3)))
        assert S.dim == 0
        assert np.array_equal(S.projector(), np.zeros((2, 2)))

    def test_trivial_and_full(self):
        assert Subspace.trivial(3).dim == 0
        assert Subspace.full(3).dim == 3


class TestProjector:
    def test_axis_line(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        assert np.allclose(S.projector(), [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_trivial_is_zero(self):
        assert np.array_equal(Subspace.trivial(3).projector(), np.zeros((3, 3)))

    def test_diagonal_line_by_hand(self):
        S = Subspace(np.array([[INV_SQRT2], [INV_SQRT2]]))
        assert np.allclose(S.projector(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_normal_equations_oracle(self):
        # independent oracle: P = A (A^T A)^-1 A^T on a full-rank span
        A = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        S = Subspace.from_spanning(A)
        P_oracle = A @ np.linalg.inv(A.T @ A) @ A.T
        assert spectral_norm(S.projector() - P_oracle) <= 1e-12
        assert np.allclose(
            S.project(np.array([1.0, 0.0, 0.0])),
            [2.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0],
            atol=1e-12,
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_invariants_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        S = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        P = S.projector()
        assert spectral_norm(P - P.T) <= 1e-12
        assert spectral_norm(P @ P - P) <= 1e-10
        if S.dim:
            assert spectral_norm(P) <= 1.0 + 1e-12


class TestProject:
    def test_axis(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        assert np.allclose(S.project(np.array([3.0, 4.0])), [3.0, 0.0])

    def test_full_space_is_identity(self):
        S = Subspace.full(2)
        assert np.allclose(S.project(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_diagonal_inner_product_formula(self):
        S = Subspace(np.array([[INV_SQRT2], [INV_SQRT2]]))
        assert np.allclose(S.project(np.array([2.0, 0.0])), [1.0, 1.0], atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            Subspace.full(2).project(np.array([1.0, 2.0, 3.0]))

    def test_block_projects_each_column(self):
        rng = np.random.default_rng(49)
        S = random_subspace(rng, 7, 3)
        X = rng.standard_normal((7, 4))
        assert np.allclose(S.project(X), np.column_stack([S.project(x) for x in X.T]), atol=1e-14)
        assert np.allclose(S.project(np.eye(7)), S.projector(), atol=1e-15)

    @pytest.mark.parametrize("X", [np.zeros((3, 2)), np.full((2, 2), np.nan), np.zeros((2, 2, 1))])
    def test_block_rejected(self, X):
        with pytest.raises(InputError):
            Subspace.full(2).project(X)

    @pytest.mark.parametrize("seed", range(8))
    def test_idempotence_and_optimality_random(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(2, 40))
        S = random_subspace(rng, n, int(rng.integers(1, n + 1)))
        x = rng.standard_normal(n)
        px = S.project(x)
        assert np.linalg.norm(S.project(px) - px) <= 1e-10
        # sampled metric-projection optimality against random members of S
        for _ in range(5):
            y = S.basis @ rng.standard_normal(S.dim)
            assert np.linalg.norm(x - px) <= np.linalg.norm(x - y) + 1e-10


class TestIntersection:
    def test_two_planes_in_r3(self):
        A = Subspace.from_spanning(np.eye(3)[:, :2])
        B = Subspace.from_spanning(np.eye(3)[:, 1:])
        M = intersection([A, B])
        assert same_subspace(M, Subspace.from_spanning(np.eye(3)[:, 1:2]))

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        S = random_subspace(rng, 5, 2)
        assert same_subspace(intersection([S, S]), S)

    def test_orthogonal_lines_meet_trivially(self):
        M = intersection(
            [
                Subspace.from_spanning(np.array([[1.0], [0.0]])),
                Subspace.from_spanning(np.array([[0.0], [1.0]])),
            ]
        )
        assert M.dim == 0

    def test_rejects_empty_list(self):
        with pytest.raises(InputError):
            intersection([])

    def test_rejects_mixed_dims(self):
        with pytest.raises(InputError):
            intersection([Subspace.full(2), Subspace.full(3)])

    @pytest.mark.parametrize("seed", range(8))
    def test_projector_absorption_random(self, seed):
        # P_M P_i = P_i P_M = P_M for the common part M
        rng = np.random.default_rng(500 + seed)
        n = int(rng.integers(3, 25))
        subs = random_family(rng, int(rng.integers(2, 5)), n)
        P_M = intersection(subs).projector()
        for S in subs:
            P = S.projector()
            assert spectral_norm(P_M @ P - P_M) <= 1e-10
            assert spectral_norm(P @ P_M - P_M) <= 1e-10


def assert_matches_oracle(subs):
    M = intersection(subs)
    oracle = stacked_intersection(subs)
    assert M.dim == oracle.dim
    assert spectral_norm(M.projector() - oracle.projector()) <= PROJECTOR_EQ_TOL


class TestIntersectionOracle:
    """The thin intersection against the stacked n-column null space."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_families(self, seed):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(2, 60))
        assert_matches_oracle(random_family(rng, int(rng.integers(2, 6)), n))

    @pytest.mark.parametrize("seed", range(12))
    def test_families_with_planted_common_part(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = int(rng.integers(6, 80))
        r = int(rng.integers(2, 6))
        shared_dim = int(rng.integers(1, n // 3 + 1))
        assert_matches_oracle(perturbed_family(rng, r, n, shared_dim, 0.0))

    @pytest.mark.parametrize("seed", range(12))
    def test_near_coincident_families(self, seed):
        # shared part perturbed by 1e-7: the sines are ~1e-7, far above the
        # rank cutoff, so both formulas find no common part there
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(6, 80))
        r = int(rng.integers(2, 6))
        shared_dim = int(rng.integers(1, n // 3 + 1))
        assert_matches_oracle(perturbed_family(rng, r, n, shared_dim, 1e-7))

    def test_same_object_twice(self):
        S = random_subspace(np.random.default_rng(11), 40, 15)
        assert_matches_oracle([S, S])
        assert intersection([S, S]).dim == 15

    @pytest.mark.parametrize("n,d", [(20, 5), (150, 50), (300, 298)])
    def test_same_span_other_basis(self, n, d):
        # every sine is rounding noise; the cutoff must not count it as rank
        rng = np.random.default_rng(n + d)
        S = random_subspace(rng, n, d)
        rotated = Subspace.from_spanning(3.0 * S.basis @ rotation(rng, d))
        mixed = Subspace.from_spanning(S.basis @ rng.standard_normal((d, d)))
        for subs in ([S, rotated], [rotated, S, mixed]):
            assert_matches_oracle(subs)
            assert intersection(subs).dim == d

    def test_trivial_member(self):
        rng = np.random.default_rng(12)
        subs = [
            random_subspace(rng, 10, 6),
            Subspace.trivial(10),
            random_subspace(rng, 10, 7),
        ]
        assert_matches_oracle(subs)
        assert intersection(subs).dim == 0

    def test_full_space_member(self):
        rng = np.random.default_rng(13)
        S = random_subspace(rng, 12, 5)
        assert_matches_oracle([Subspace.full(12), S])
        assert same_subspace(intersection([Subspace.full(12), S]), S)
        assert intersection([Subspace.full(12), Subspace.full(12)]).dim == 12

    def test_single_member_is_returned(self):
        S = random_subspace(np.random.default_rng(14), 9, 4)
        assert intersection([S]) is S
        assert_matches_oracle([S])


class TestContains:
    def test_nested(self):
        big = Subspace.from_spanning(np.eye(4)[:, :3])
        small = Subspace.from_spanning(np.array([[1.0], [1.0], [0.0], [0.0]]))
        assert big.contains(small)
        assert not small.contains(big)

    def test_trivial_is_contained_everywhere(self):
        assert Subspace.trivial(3).contains(Subspace.trivial(3))
        assert Subspace.from_spanning(np.eye(3)[:, :1]).contains(Subspace.trivial(3))

    def test_rejects_mixed_dims(self):
        with pytest.raises(InputError):
            Subspace.full(2).contains(Subspace.full(3))

    @pytest.mark.parametrize("seed", range(6))
    def test_basis_residual_equals_projector_residual(self, seed):
        # ||Q_o - Q_s Q_s^T Q_o|| = ||P_s P_o - P_o||, whatever the bases
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 40))
        S, O = random_family(rng, 2, n)
        basis_level = spectral_norm(O.basis - S.basis @ (S.basis.T @ O.basis))
        P_o = O.projector()
        assert abs(basis_level - spectral_norm(S.projector() @ P_o - P_o)) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_rotation_invariant_verdict(self, seed):
        rng = np.random.default_rng(1100 + seed)
        n = int(rng.integers(4, 40))
        S = random_subspace(rng, n, int(rng.integers(2, n)))
        inner = Subspace.from_spanning(S.basis @ rng.standard_normal((S.dim, 1)))
        outer = random_subspace(rng, n, 1)
        for T in (S, Subspace.from_spanning(S.basis @ rotation(rng, S.dim))):
            assert T.contains(inner)
            assert T.contains(S)
            assert not T.contains(outer)


class TestOrthComplement:
    def test_axis(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        assert same_subspace(orth_complement(S), Subspace.from_spanning(np.array([[0.0], [1.0]])))

    def test_full_space(self):
        assert orth_complement(Subspace.full(3)).dim == 0

    def test_diagonal_by_hand(self):
        S = Subspace(np.array([[INV_SQRT2], [INV_SQRT2]]))
        expected = Subspace(np.array([[INV_SQRT2], [-INV_SQRT2]]))
        assert same_subspace(orth_complement(S), expected)

    @pytest.mark.parametrize("seed", range(8))
    def test_involution_and_projector_identity(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(1, 30))
        S = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        comp = orth_complement(S)
        assert comp.dim == n - S.dim
        assert spectral_norm(comp.projector() - (np.eye(n) - S.projector())) <= 1e-10
        assert same_subspace(orth_complement(comp), S)


class TestReducedComponent:
    def test_plane_minus_line(self):
        Mi = Subspace.from_spanning(np.eye(3)[:, :2])
        M = Subspace.from_spanning(np.eye(3)[:, 1:2])
        R = reduced_component(Mi, M)
        assert same_subspace(R, Subspace.from_spanning(np.eye(3)[:, :1]))

    def test_equal_subspaces_give_trivial(self):
        S = Subspace.from_spanning(np.eye(3)[:, :2])
        assert reduced_component(S, S).dim == 0

    def test_trivial_common_part(self):
        S = Subspace.full(2)
        assert same_subspace(reduced_component(S, Subspace.trivial(2)), S)

    def test_containment_violation(self):
        M1 = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        M2 = Subspace.from_spanning(np.array([[0.0], [1.0]]))
        with pytest.raises(ContainmentError):
            reduced_component(M1, M2)

    @pytest.mark.parametrize("seed", range(8))
    def test_orthogonal_decomposition_random(self, seed):
        # nested instance: M is a random subspace of Mi
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(3, 30))
        d = int(rng.integers(1, n + 1))
        Mi = random_subspace(rng, n, d)
        inner = int(rng.integers(0, d + 1))
        M = Subspace.from_spanning(Mi.basis @ rng.standard_normal((d, inner)))
        R = reduced_component(Mi, M)
        lhs = Mi.projector() - M.projector() - R.projector()
        assert spectral_norm(lhs) <= 1e-10


class TestFamily:
    def test_of_returns_a_family_unchanged(self):
        fam = Family.of(random_family(np.random.default_rng(0), 3, 6))
        assert Family.of(fam) is fam
        assert Family.of(fam, 2) is fam

    def test_validation(self):
        with pytest.raises(InputError):
            Family.of([])
        with pytest.raises(InputError):
            Family.of([Subspace.full(2), Subspace.full(3)])
        with pytest.raises(InputError, match="at least 2"):
            Family.of([Subspace.full(2)], 2)

    def test_members_iterate_in_order(self):
        subs = random_family(np.random.default_rng(2), 3, 7)
        fam = Family.of(subs)
        assert list(fam) == subs and len(fam) == 3 and fam.ambient_dim == 7

    def test_quantities_match_the_free_functions(self):
        subs = planted_family()
        fam = Family.of(subs)
        assert same_subspace(fam.intersection, intersection(subs))
        for R, S in zip(fam.reduced, subs):
            assert same_subspace(R, reduced_component(S, intersection(subs)))
        averaged = sum(S.projector() for S in subs) / len(subs)
        assert np.array_equal(fam.averaged_projector, averaged)
        assert not fam.averaged_projector.flags.writeable

    def test_intersection_computed_once(self, monkeypatch):
        from projbounds import subspaces

        calls = []
        original = subspaces.intersection

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(subspaces, "intersection", counting)
        fam = Family.of(planted_family())
        assert fam.intersection is fam.intersection
        assert fam.reduced is fam.reduced
        assert len(calls) == 1


def planted_family():
    """Three subspaces of R^6 sharing exactly the first axis."""
    eye = np.eye(6)
    return [Subspace.from_spanning(eye[:, cols]) for cols in ([0, 1, 2], [0, 3], [0, 2, 4])]
