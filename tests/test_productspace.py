import numpy as np
import pytest

from projbounds import (
    DegenerateError,
    InputError,
    Subspace,
    build_product,
    cos_CD,
    friedrichs_gram,
    intersection,
    lift_diag,
    simultaneous_operator,
    spectral_norm,
    verify_norm_chain,
    verify_pierra_lift,
)
from projbounds.productspace import chain_residual_profile, pierra_lift_residual
from helpers import lines_exact_60, orthogonal_axes, random_family, triple_at_120


class TestBuildProduct:
    def test_orthogonal_axes_dimensions(self):
        model = build_product(orthogonal_axes())
        assert model.C.ambient_dim == 4 and model.C.dim == 2
        assert model.D.dim == 2
        assert intersection([model.C, model.D]).dim == 0

    def test_full_factors(self):
        model = build_product([Subspace.full(2), Subspace.full(2)])
        assert model.C.dim == 4
        assert intersection([model.C, model.D]).same_as(model.D)

    def test_trivial_factors(self):
        model = build_product([Subspace.trivial(2), Subspace.trivial(2)])
        assert model.C.dim == 0
        assert intersection([model.C, model.D]).dim == 0

    def test_dim_bookkeeping_random(self):
        rng = np.random.default_rng(5)
        subs = random_family(rng, 3, 7)
        model = build_product(subs)
        assert model.C.dim == sum(S.dim for S in subs)
        assert model.D.dim == 7

    def test_diagonal_intersection_is_lifted_common_part(self):
        rng = np.random.default_rng(11)
        subs = random_family(rng, 3, 6, dims=[4, 5, 4])
        model = build_product(subs)
        common = intersection(subs)
        CD = intersection([model.C, model.D])
        assert CD.dim == common.dim
        if common.dim:
            lifted = np.vstack([common.basis] * 3) / np.sqrt(3.0)
            assert CD.same_as(Subspace(lifted))

    def test_rejects_mixed_dims(self):
        with pytest.raises(InputError):
            build_product([Subspace.full(2), Subspace.full(3)])

    def test_rejects_oversized_product(self):
        with pytest.raises(InputError):
            build_product([Subspace.full(900), Subspace.full(900), Subspace.full(900)])


class TestLiftDiag:
    def test_scalar_base(self):
        model = build_product([Subspace.full(1)] * 3)
        assert np.array_equal(lift_diag(model, np.array([2.0])), [2.0, 2.0, 2.0])

    def test_zero(self):
        model = build_product(orthogonal_axes())
        assert np.array_equal(lift_diag(model, np.zeros(2)), np.zeros(4))

    def test_two_blocks(self):
        model = build_product(orthogonal_axes())
        assert np.array_equal(
            lift_diag(model, np.array([1.0, -1.0])), [1.0, -1.0, 1.0, -1.0]
        )

    def test_dimension_mismatch(self):
        model = build_product(orthogonal_axes())
        with pytest.raises(InputError):
            lift_diag(model, np.zeros(3))


class TestCosCD:
    def test_lines_at_60(self):
        model = build_product(lines_exact_60())
        assert cos_CD(model) == pytest.approx(np.sqrt(0.75), abs=1e-12)

    def test_orthogonal_axes(self):
        model = build_product(orthogonal_axes())
        assert cos_CD(model) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_all_factors_equal_gives_zero(self):
        # the lifted pair has orthogonal reduced parts, so the angle value
        # is 0; the underlying family is the degenerate one
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        model = build_product([S, S])
        assert cos_CD(model) == pytest.approx(0.0, abs=1e-12)
        assert friedrichs_gram([S, S]).degenerate

    @pytest.mark.parametrize("seed", range(8))
    def test_squared_angle_matches_friedrichs_formula(self, seed):
        rng = np.random.default_rng(300 + seed)
        r = int(rng.integers(2, 6))
        subs = random_family(rng, r, int(rng.integers(2, 15)))
        fr = friedrichs_gram(subs)
        if fr.degenerate:
            return
        model = build_product(subs)
        expected = (r - 1.0) / r * fr.value + 1.0 / r
        assert abs(cos_CD(model) ** 2 - expected) <= 1e-9


class TestNormChain:
    def test_lines_at_60_k2(self):
        residuals = verify_norm_chain(lines_exact_60(), 2)
        assert residuals.shape == (5,)
        assert residuals.max() <= 1e-10
        # all six members equal 0.75^2
        T = simultaneous_operator(lines_exact_60())
        value = spectral_norm(np.linalg.matrix_power(T.matrix, 2) - T.limit_projector)
        assert value == pytest.approx(0.5625, abs=1e-12)

    def test_triple_at_120_k3(self):
        residuals = verify_norm_chain(triple_at_120(), 3)
        assert residuals.max() <= 1e-10
        T = simultaneous_operator(triple_at_120())
        value = spectral_norm(np.linalg.matrix_power(T.matrix, 3) - T.limit_projector)
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_orthogonal_axes_k1(self):
        residuals = verify_norm_chain(orthogonal_axes(), 1)
        assert residuals.max() <= 1e-12
        T = simultaneous_operator(orthogonal_axes())
        assert spectral_norm(T.matrix - T.limit_projector) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_degenerate_family_raises(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        with pytest.raises(DegenerateError):
            verify_norm_chain([S, S], 2)

    def test_rejects_k_zero(self):
        with pytest.raises(InputError):
            verify_norm_chain(lines_exact_60(), 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_chain_random(self, seed):
        rng = np.random.default_rng(400 + seed)
        r = int(rng.integers(2, 6))
        subs = random_family(rng, r, int(rng.integers(2, 15)))
        if friedrichs_gram(subs).degenerate:
            return
        profile = chain_residual_profile(subs, range(1, 11))
        for k, residuals in profile.items():
            assert residuals.max() <= 1e-8, f"k={k}"


class TestPierraLift:
    def test_k0_first_term_exact(self):
        res = verify_pierra_lift(lines_exact_60(), np.array([0.3, -0.7]), 0)
        assert res <= 1e-12

    def test_lines_at_60_k3(self):
        res = verify_pierra_lift(lines_exact_60(), np.array([1.0, 0.0]), 3)
        assert res <= 1e-10

    def test_fixed_point(self):
        A = Subspace.from_spanning(np.eye(3)[:, :2])
        B = Subspace.from_spanning(np.eye(3)[:, 1:])
        x = np.array([0.0, 3.0, 0.0])  # in the intersection
        for k in (0, 1, 4):
            assert verify_pierra_lift([A, B], x, k) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            verify_pierra_lift(lines_exact_60(), np.zeros(3), 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_lift_random(self, seed):
        rng = np.random.default_rng(500 + seed)
        r = int(rng.integers(2, 6))
        n = int(rng.integers(2, 15))
        subs = random_family(rng, r, n)
        x = rng.standard_normal(n)
        k = int(rng.integers(0, 11))
        assert verify_pierra_lift(subs, x, k) <= 1e-9


class TestExponentLists:
    @pytest.mark.parametrize("ks", [[], [1.7], [0, 2.5]])
    def test_pierra_rejects(self, ks):
        with pytest.raises(InputError, match="exponents"):
            pierra_lift_residual(lines_exact_60(), [np.array([1.0, 0.0])], ks)

    @pytest.mark.parametrize("ks", [[1.9], [2, 2.5]])
    def test_chain_rejects(self, ks):
        with pytest.raises(InputError, match="exponents"):
            chain_residual_profile(lines_exact_60(), ks)

    def test_numpy_integers_accepted(self):
        subs = lines_exact_60()
        assert sorted(chain_residual_profile(subs, np.arange(1, 4))) == [1, 2, 3]
        assert pierra_lift_residual(subs, [np.array([1.0, 0.0])], np.arange(4)) <= 1e-10


class TestProductOperatorOnDiagonal:
    @pytest.mark.parametrize("seed", range(6))
    def test_sandwiched_operator_reproduces_averaged_step(self, seed):
        rng = np.random.default_rng(600 + seed)
        subs = random_family(rng, int(rng.integers(2, 5)), int(rng.integers(2, 12)))
        model = build_product(subs)
        P_C = model.C.projector()
        P_D = model.D.projector()
        T = simultaneous_operator(subs)
        x = rng.standard_normal(model.base_dim)
        lhs = P_D @ P_C @ P_D @ lift_diag(model, x)
        rhs = lift_diag(model, T.matrix @ x)
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_naive_exponent_is_weaker(self):
        # one alternating step loses a factor cos(C,D) against the optimal
        model = build_product(lines_exact_60())
        c = cos_CD(model)
        assert 0.0 < c < 1.0
        for k in (1, 2, 5):
            assert c ** (2 * k - 1) > c ** (2 * k)

    @pytest.mark.parametrize("seed", range(6))
    def test_not_aligned_scalars_random(self, seed):
        # finite dimensions: the four equivalent scalar conditions hold at once
        rng = np.random.default_rng(700 + seed)
        subs = random_family(rng, int(rng.integers(2, 6)), int(rng.integers(2, 15)))
        fr = friedrichs_gram(subs)
        if fr.degenerate:
            return
        T = simultaneous_operator(subs)
        model = build_product(subs)
        P_CD = intersection([model.C, model.D]).projector()
        alternating = spectral_norm(model.D.projector() @ model.C.projector() - P_CD)
        assert fr.raw < 1.0
        assert spectral_norm(T.matrix - T.limit_projector) < 1.0
        assert alternating < 1.0
        assert cos_CD(model) < 1.0
