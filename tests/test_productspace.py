import tracemalloc

import numpy as np
import pytest

from projbounds import (
    DegenerateError,
    InputError,
    Subspace,
    build_product,
    chain_residual_profile,
    cos_CD,
    friedrichs_gram,
    intersection,
    lift_diag,
    pierra_lift_residual,
    simultaneous_operator,
    spectral_norm,
)
from projbounds.productspace import product_alternating_traces
from helpers import (
    dense_chain_residual_profile,
    lines_exact_60,
    orthogonal_axes,
    random_family,
    same_subspace,
    triple_at_120,
)


class TestBuildProduct:
    def test_orthogonal_axes_dimensions(self):
        model = build_product(orthogonal_axes())
        assert model.C.ambient_dim == 4 and model.C.dim == 2
        assert model.D.dim == 2
        assert intersection([model.C, model.D]).dim == 0

    def test_full_factors(self):
        model = build_product([Subspace.full(2), Subspace.full(2)])
        assert model.C.dim == 4
        assert same_subspace(intersection([model.C, model.D]), model.D)

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
            assert same_subspace(CD, Subspace(lifted))

    def test_rejects_mixed_dims(self):
        with pytest.raises(InputError):
            build_product([Subspace.full(2), Subspace.full(3)])

    def test_runs_above_the_retired_dense_cap(self):
        # no n*r x n*r matrix is formed, so no cap on n*r applies
        rng = np.random.default_rng(8)
        model = build_product(random_family(rng, 3, 700, [2, 2, 2]))
        assert model.C.ambient_dim == 2100
        assert chain_residual_profile(model, 1).max() <= 1e-8


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
        residuals = chain_residual_profile(lines_exact_60(), 2)
        assert residuals.shape == (5,)
        assert residuals.max() <= 1e-10
        # all six members equal 0.75^2
        T = simultaneous_operator(lines_exact_60())
        value = spectral_norm(np.linalg.matrix_power(T.matrix, 2) - T.limit_projector)
        assert value == pytest.approx(0.5625, abs=1e-12)

    def test_triple_at_120_k3(self):
        residuals = chain_residual_profile(triple_at_120(), 3)
        assert residuals.max() <= 1e-10
        T = simultaneous_operator(triple_at_120())
        value = spectral_norm(np.linalg.matrix_power(T.matrix, 3) - T.limit_projector)
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_orthogonal_axes_k1(self):
        residuals = chain_residual_profile(orthogonal_axes(), 1)
        assert residuals.max() <= 1e-12
        T = simultaneous_operator(orthogonal_axes())
        assert spectral_norm(T.matrix - T.limit_projector) == pytest.approx(
            0.5, abs=1e-14
        )

    def test_degenerate_family_raises(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        with pytest.raises(DegenerateError):
            chain_residual_profile([S, S], 2)

    def test_rejects_k_zero(self):
        with pytest.raises(InputError):
            chain_residual_profile(lines_exact_60(), 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_chain_random(self, seed):
        rng = np.random.default_rng(400 + seed)
        r = int(rng.integers(2, 6))
        subs = random_family(rng, r, int(rng.integers(2, 15)))
        if friedrichs_gram(subs).degenerate:
            return
        profile = chain_residual_profile(subs, range(1, 11))
        for k, residuals in zip(range(1, 11), profile):
            assert residuals.max() <= 1e-8, f"k={k}"


def shared_part_family(rng):
    """2 to 5 random members of R^n, n in 4..15, all holding one common
    random part of dimension 0 to 2."""
    n = int(rng.integers(4, 16))
    common = rng.standard_normal((n, int(rng.integers(0, 3))))
    return [
        Subspace.from_spanning(
            np.hstack([common, rng.standard_normal((n, int(rng.integers(1, n - common.shape[1]))))])
        )
        for _ in range(int(rng.integers(2, 6)))
    ]


@pytest.mark.parametrize("seed", range(20))
def test_chain_matches_dense_oracle(seed):
    subs = shared_part_family(np.random.default_rng(800 + seed))
    ks = range(1, 13)
    gap = chain_residual_profile(subs, ks) - dense_chain_residual_profile(subs, ks)
    assert np.max(np.abs(gap)) <= 1e-12


class TestPierraLift:
    def test_k0_first_term_exact(self):
        res = pierra_lift_residual(lines_exact_60(), [np.array([0.3, -0.7])], 0)
        assert res <= 1e-12

    def test_lines_at_60_k3(self):
        res = pierra_lift_residual(lines_exact_60(), [np.array([1.0, 0.0])], 3)
        assert res <= 1e-10

    def test_fixed_point(self):
        A = Subspace.from_spanning(np.eye(3)[:, :2])
        B = Subspace.from_spanning(np.eye(3)[:, 1:])
        x = np.array([0.0, 3.0, 0.0])  # in the intersection
        for k in (0, 1, 4):
            assert pierra_lift_residual([A, B], [x], k) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            pierra_lift_residual(lines_exact_60(), [np.zeros(3)], 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_lift_random(self, seed):
        rng = np.random.default_rng(500 + seed)
        r = int(rng.integers(2, 6))
        n = int(rng.integers(2, 15))
        subs = random_family(rng, r, n)
        x = rng.standard_normal(n)
        k = int(rng.integers(0, 11))
        assert pierra_lift_residual(subs, [x], k) <= 1e-9


class TestExponentLists:
    @pytest.mark.parametrize("ks", [[], [1.7], [0, 2.5]])
    def test_pierra_rejects(self, ks):
        with pytest.raises(InputError, match="exponents"):
            pierra_lift_residual(lines_exact_60(), [np.array([1.0, 0.0])], ks)

    @pytest.mark.parametrize("ks", [[1.9], [2, 2.5]])
    def test_chain_rejects(self, ks):
        with pytest.raises(InputError, match="exponents"):
            chain_residual_profile(lines_exact_60(), ks)

    def test_pierra_rejects_no_starts(self):
        with pytest.raises(InputError, match="start"):
            pierra_lift_residual(lines_exact_60(), [], [0, 1, 2])

    def test_chain_rows_follow_the_exponents(self):
        subs = triple_at_120()
        profile = chain_residual_profile(subs, [3, 1, 3])
        assert profile.shape == (3, 5)
        for row, k in zip(profile, [3, 1, 3]):
            assert np.array_equal(row, chain_residual_profile(subs, k))

    def test_numpy_integers_accepted(self):
        subs = lines_exact_60()
        assert chain_residual_profile(subs, np.arange(1, 4)).shape == (3, 5)
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
        x = rng.standard_normal(model.family.ambient_dim)
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


def test_lifted_paths_form_no_product_projector(monkeypatch):
    # The norm chain, the Pierra check and the product-space traces apply
    # P_C, P_D and P_CD through bases, never as nr x nr projectors.
    rng = np.random.default_rng(1)
    model = build_product(random_family(rng, 3, 8, [3, 5, 4]))
    ambient = []
    real = Subspace.projector

    def projector(self):
        ambient.append(self.ambient_dim)
        return real(self)

    monkeypatch.setattr(Subspace, "projector", projector)
    starts = [rng.standard_normal(8) for _ in range(2)]
    assert pierra_lift_residual(model, starts, range(6)) <= 1e-10
    traces = product_alternating_traces(model, starts, 5)
    assert max(t.max_violation() for t in traces) <= 1e-10
    assert chain_residual_profile(model, range(1, 6)).max() <= 1e-10
    assert ambient and model.C.ambient_dim not in ambient


def test_chain_profile_peak_memory():
    # The chain walks two blocks of the family's span S (n x m; m = n
    # here, since the dimensions sum past n): S itself through T, and its
    # lift, an nr x m block, through the lifted step.  Its peak is a few
    # nr x n blocks (5.3 measured, the start block freed at the first
    # step); one nr x nr matrix would be r = 4 of them.
    rng = np.random.default_rng(0)
    model = build_product(random_family(rng, 4, 150, [50] * 4))
    cos_CD(model)  # C intersect D is cached on the model, outside the count
    nr, n = model.C.ambient_dim, model.family.ambient_dim
    tracemalloc.start()
    try:
        chain_residual_profile(model, range(1, 17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * nr * n * 8
