import tracemalloc

import numpy as np
import pytest

from projbounds import (
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
from projbounds import subspaces
from projbounds.productspace import product_alternating_traces
from helpers import (
    chain_gaps,
    dense_C,
    dense_D,
    dense_chain_residual_profile,
    dense_error_operator,
    dense_operator,
    lines_exact_60,
    orthogonal_axes,
    random_family,
    same_subspace,
    triple_at_120,
)


class TestBuildProduct:
    def test_orthogonal_axes_dimensions(self):
        model = build_product(orthogonal_axes())
        C = dense_C(model)
        assert C.ambient_dim == 4 and C.dim == 2
        assert intersection([C, dense_D(model)]).dim == 0

    def test_full_factors(self):
        model = build_product([Subspace.full(2), Subspace.full(2)])
        C, D = dense_C(model), dense_D(model)
        assert C.dim == 4
        assert same_subspace(intersection([C, D]), D)
        assert same_subspace(model.CD, D)

    def test_trivial_factors(self):
        model = build_product([Subspace.trivial(2), Subspace.trivial(2)])
        assert dense_C(model).dim == 0
        assert intersection([dense_C(model), dense_D(model)]).dim == model.CD.dim == 0

    def test_dim_bookkeeping_random(self):
        rng = np.random.default_rng(5)
        subs = random_family(rng, 3, 7)
        model = build_product(subs)
        assert dense_C(model).dim == sum(S.dim for S in subs)

    # C intersect D comes from the thinner of C and D: C's side when the
    # member dimensions sum to at most n, D's side above it.
    @pytest.mark.parametrize("n, dims", [(15, [4, 5, 4]), (15, [4, 5, 6]), (10, [5, 6, 7])])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_diagonal_intersection_is_lifted_common_part(self, n, dims, m):
        rng = np.random.default_rng(11 + m)
        shared = rng.standard_normal((n, m))
        subs = [Subspace.from_spanning(np.hstack([shared, rng.standard_normal((n, d - m))])) for d in dims]
        model = build_product(subs)
        common, D = intersection(subs), dense_D(model)
        C = dense_C(model)
        CD = intersection([C, D])
        assert CD.dim == common.dim == m
        assert same_subspace(model.CD, CD)
        if m:
            lifted = np.vstack([common.basis] * 3) / np.sqrt(3.0)
            assert same_subspace(CD, Subspace(lifted))
        Q_C, Q_D, Q_CD = C.basis, D.basis, CD.basis
        dense_cos = spectral_norm(Q_C.T @ Q_D - (Q_C.T @ Q_CD) @ (Q_CD.T @ Q_D))
        assert abs(cos_CD(model) - dense_cos) <= 1e-13

    def test_rejects_mixed_dims(self):
        with pytest.raises(InputError):
            build_product([Subspace.full(2), Subspace.full(3)])

    def test_runs_above_the_retired_dense_cap(self):
        # no n*r x n*r matrix is formed, so no cap on n*r applies
        rng = np.random.default_rng(8)
        model = build_product(random_family(rng, 3, 700, [2, 2, 2]))
        assert model.CD.ambient_dim == 2100
        assert chain_gaps(chain_residual_profile(model, 1)).max() <= 1e-8


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

    @pytest.mark.parametrize("S", [Subspace.trivial(2), Subspace.full(2)])
    def test_nested_lifted_pair_gives_zero(self, S):
        # C = {0} lies in D, and D in C = R^4: no angle lies between them.
        # The general path reads rounding, exactly 0.0 where C = {0}.
        value = cos_CD(build_product([S, S]))
        assert value <= 1e-15
        assert S.dim or value == 0.0

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
        members = chain_residual_profile(lines_exact_60(), 2)
        assert members.shape == (6,)
        # all six members equal 0.75^2
        assert np.max(np.abs(members - 0.5625)) <= 1e-10
        T = simultaneous_operator(lines_exact_60())
        A, P_M = dense_operator(T)
        value = spectral_norm(np.linalg.matrix_power(A, 2) - P_M)
        assert value == pytest.approx(0.5625, abs=1e-12)

    def test_triple_at_120_k3(self):
        members = chain_residual_profile(triple_at_120(), 3)
        assert np.max(np.abs(members - 0.125)) <= 1e-10
        T = simultaneous_operator(triple_at_120())
        A, P_M = dense_operator(T)
        value = spectral_norm(np.linalg.matrix_power(A, 3) - P_M)
        assert value == pytest.approx(0.125, abs=1e-12)

    def test_orthogonal_axes_k1(self):
        members = chain_residual_profile(orthogonal_axes(), 1)
        assert np.max(np.abs(members - 0.5)) <= 1e-12
        T = simultaneous_operator(orthogonal_axes())
        assert spectral_norm(dense_error_operator(T)) == pytest.approx(
            0.5, abs=1e-14
        )

    @pytest.mark.parametrize("dims", [(0, 0), (1, 1), (2, 2)])
    def test_degenerate_family_walks_to_zero(self, dims):
        # Every member is M, so the reduced span has no columns: the walked
        # members and q are exactly 0, and the angle cos(C, D) is rounding.
        rng = np.random.default_rng(sum(dims))
        A = rng.standard_normal((4, dims[0]))
        subs = [Subspace.from_spanning(A), Subspace.from_spanning(A @ rng.standard_normal((dims[0],) * 2))]
        members = chain_residual_profile(subs, [1, 2, 5])
        assert members.shape == (3, 6)
        assert (np.delete(members, 3, axis=1) == 0.0).all()
        assert (0.0 <= members[:, 3]).all() and (members[:, 3] <= 1e-28).all()

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
        for k, gaps in zip(range(1, 11), chain_gaps(profile)):
            assert gaps.max() <= 1e-8, f"k={k}"


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
    # member by member: two members off by the same amount leave the gaps alone
    error = chain_residual_profile(subs, ks) - dense_chain_residual_profile(subs, ks)
    assert np.max(np.abs(error)) <= 1e-12


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
        assert profile.shape == (3, 6)
        for row, k in zip(profile, [3, 1, 3]):
            assert np.array_equal(row, chain_residual_profile(subs, k))

    def test_numpy_integers_accepted(self):
        subs = lines_exact_60()
        assert chain_residual_profile(subs, np.arange(1, 4)).shape == (3, 6)
        assert pierra_lift_residual(subs, [np.array([1.0, 0.0])], np.arange(4)) <= 1e-10


class TestProductOperatorOnDiagonal:
    @pytest.mark.parametrize("seed", range(6))
    def test_sandwiched_operator_reproduces_averaged_step(self, seed):
        rng = np.random.default_rng(600 + seed)
        subs = random_family(rng, int(rng.integers(2, 5)), int(rng.integers(2, 12)))
        model = build_product(subs)
        P_C = dense_C(model).projector()
        P_D = dense_D(model).projector()
        T = simultaneous_operator(subs)
        x = rng.standard_normal(model.family.ambient_dim)
        lhs = P_D @ P_C @ P_D @ lift_diag(model, x)
        rhs = lift_diag(model, dense_operator(T)[0] @ x)
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
        C, D = dense_C(model), dense_D(model)
        P_CD = intersection([C, D]).projector()
        alternating = spectral_norm(D.projector() @ C.projector() - P_CD)
        assert fr.raw < 1.0
        assert spectral_norm(dense_error_operator(T)) < 1.0
        assert alternating < 1.0
        assert cos_CD(model) < 1.0


@pytest.mark.parametrize("dims", [[1, 7], [7, 3, 1], [2, 1, 7, 5, 4]])
def test_step_matches_dense_oracle_and_keeps_its_input(dims):
    # Unequal members in R^7, among them a line and all of R^7: P_C through
    # C's diagonal blocks and P_D as the block mean give the dense
    # P_D P_C of the oracles, on a vector and on a block.
    rng = np.random.default_rng(len(dims))
    model = build_product(random_family(rng, len(dims), 7, dims))
    dense = dense_D(model).projector() @ dense_C(model).projector()
    for y in (rng.standard_normal(7 * len(dims)), rng.standard_normal((7 * len(dims), 4))):
        before = y.copy()
        step = model.step(y)
        assert step.shape == y.shape
        assert np.linalg.norm(step - dense @ y) <= 1e-13 * np.linalg.norm(dense @ y)
        assert np.array_equal(y, before)


def test_lifted_walks_skip_the_dense_bases_of_C_and_D(monkeypatch):
    # The lifted step reads C's diagonal blocks and takes P_D as the block
    # mean: neither C nor D has a dense basis to project through, and no
    # walk projects through any subspace of R^(nr) but C intersect D.
    rng = np.random.default_rng(4)
    model = build_product(shared_part_family(rng))  # dims 7, 11, 3 in R^12
    assert model.CD.dim == 2
    n = model.family.ambient_dim
    real = Subspace.project

    def project(self, x):
        if self.ambient_dim != n and self is not model.CD:
            raise AssertionError(f"projected through a {self.dim}-dimensional subspace of R^(nr)")
        return real(self, x)

    monkeypatch.setattr(Subspace, "project", project)
    starts = [rng.standard_normal(n) for _ in range(3)]
    assert chain_gaps(chain_residual_profile(model, range(1, 6))).max() <= 1e-10
    assert pierra_lift_residual(model, starts, range(6)) <= 1e-10
    traces = product_alternating_traces(model, starts, 5)
    assert max(t.max_violation() for t in traces) <= 1e-10


def test_dense_C_is_the_block_diagonal_of_the_members_bases():
    # The test-only dense C is built from the model's blocks, which are the
    # members' bases; a member {0} contributes rows but no columns.
    rng = np.random.default_rng(9)
    subs = random_family(rng, 3, 5, [2, 0, 4])
    Z = [np.zeros((5, d)) for d in (2, 0, 4)]
    expected = np.block([[subs[0].basis, Z[1], Z[2]], [Z[0], subs[1].basis, Z[2]], [Z[0], Z[1], subs[2].basis]])
    assert np.array_equal(dense_C(build_product(subs)).basis, expected)


# Sum of the member dimensions at most n (C is the thinner side of C
# intersect D's SVD) and past it (D is), each with a planted common part.
@pytest.mark.parametrize("n, dims, m", [(12, [4, 3, 3], 1), (8, [6, 6, 6], 2)])
def test_the_only_subspace_of_the_product_space_is_C_intersect_D(monkeypatch, n, dims, m):
    # C is its diagonal blocks: building the model, cos(C, D), the chain,
    # the Pierra check and the lifted traces construct no Subspace of
    # R^(nr) other than C intersect D (and the trivial one it starts from).
    rng = np.random.default_rng(n)
    common = rng.standard_normal((n, m))
    subs = [Subspace.from_spanning(np.hstack([common, rng.standard_normal((n, d - m))])) for d in dims]
    made, real = [], Subspace.__post_init__

    def post_init(self):
        real(self)
        made.append(self.basis.shape)

    monkeypatch.setattr(Subspace, "__post_init__", post_init)
    nr, starts = n * len(dims), [rng.standard_normal(n) for _ in range(2)]
    model = build_product(subs)
    assert model.CD.dim == m and cos_CD(model) < 1.0
    assert chain_gaps(chain_residual_profile(model, range(1, 5))).max() <= 1e-10
    assert pierra_lift_residual(model, starts, range(5)) <= 1e-10
    assert max(t.max_violation() for t in product_alternating_traces(model, starts, 4)) <= 1e-10
    assert {shape for shape in made if shape[0] == nr} == {(nr, 0), (nr, m)}


def test_lifted_paths_form_no_product_projector(monkeypatch):
    # The norm chain, the Pierra check and the product-space traces apply
    # P_C, P_D and P_CD, and T and P_M on the base side, through bases:
    # they form no projector at all, in R^(nr) or in R^n.
    rng = np.random.default_rng(1)
    model = build_product(random_family(rng, 3, 8, [3, 5, 4]))

    def projector(self):
        raise AssertionError(f"formed a projector in R^{self.ambient_dim}")

    monkeypatch.setattr(Subspace, "projector", projector)
    starts = [rng.standard_normal(8) for _ in range(2)]
    assert pierra_lift_residual(model, starts, range(6)) <= 1e-10
    traces = product_alternating_traces(model, starts, 5)
    assert max(t.max_violation() for t in traces) <= 1e-10
    assert chain_gaps(chain_residual_profile(model, range(1, 6))).max() <= 1e-10


def test_product_space_decides_no_shared_part(monkeypatch):
    # C intersect D is sized by dim M, decided once in R^n: no intersection
    # or reduced component is computed in R^(n*r), by cos_two or otherwise.
    ambient = []

    def recorded(real):
        def call(*args):
            ambient.append(args[0].ambient_dim)
            return real(*args)

        return call

    for name in ("intersection", "reduced_component"):
        monkeypatch.setattr(subspaces, name, recorded(getattr(subspaces, name)))
    rng = np.random.default_rng(2)
    model = build_product(random_family(rng, 3, 8, [6, 6, 6]))
    starts = [rng.standard_normal(8)]
    assert pierra_lift_residual(model, starts, range(4)) <= 1e-10
    assert max(t.max_violation() for t in product_alternating_traces(model, starts, 3)) <= 1e-10
    assert chain_gaps(chain_residual_profile(model, range(1, 4))).max() <= 1e-10
    assert model.CD.dim == model.family.intersection.dim == 2
    assert set(ambient) == {8}


def test_chain_profile_peak_memory():
    # The chain walks two blocks of the family's span S (n x m; m = n
    # here, since the dimensions sum past n): S itself through T, and its
    # lift, an nr x m block, through the lifted step.  Its peak is a few
    # nr x n blocks (5.3 measured, the start block freed at the first
    # step); one nr x nr matrix would be r = 4 of them.
    rng = np.random.default_rng(0)
    model = build_product(random_family(rng, 4, 150, [50] * 4))
    nr, n = model.CD.ambient_dim, model.family.ambient_dim
    tracemalloc.start()
    try:
        chain_residual_profile(model, range(1, 17))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * nr * n * 8


def test_product_space_peak_memory_stays_below_a_tenth_of_a_D_basis():
    # D keeps no basis: building the model, cos(C, D), the norm chain, the
    # Pierra check and the lifted traces of nine basis vectors in R^3000
    # together peak below a tenth of the nr x n matrix a basis of D would be.
    rng = np.random.default_rng(0)
    subs = random_family(rng, 3, 3000, [3] * 3)
    starts = [rng.standard_normal(3000) for _ in range(2)]
    tracemalloc.start()
    try:
        model = build_product(subs)
        cos_CD(model)
        chain_residual_profile(model, range(1, 6))
        pierra_lift_residual(model, starts, range(6))
        product_alternating_traces(model, starts, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 3000 * 3000 * 8 / 10


@pytest.mark.parametrize("n, d, limit_mb", [(1000, 50, 10), (2000, 100, 20)], ids=["R1000", "R2000"])
def test_model_and_angle_peak_below_one_dense_C(n, d, limit_mb):
    # C keeps no dense nr x sum(dim M_i) basis: building the model of five
    # d-dimensional members of R^n and reading cos(C, D) from its blocks peak
    # below ``limit_mb``.  In R^1000 that is one such basis (4.5 MB measured,
    # 20 MB with a dense C).  In R^2000 it is half of one, 2.5 n x sum(dim M_i)
    # blocks: as M = {0}, cos(C, D) is the norm of the stacked blocks, which
    # holds them and spectral_norm's scaled copy but no difference array
    # (18.0 MB measured, 26.0 MB with one).  M, found in R^n, is computed
    # before tracing.
    rng = np.random.default_rng(0)
    fam = subspaces.Family.of(random_family(rng, 5, n, [d] * 5), 2)
    assert fam.intersection.dim == 0
    tracemalloc.start()
    try:
        cos_CD(build_product(fam))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 1e6
