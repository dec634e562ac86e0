import numpy as np
import pytest

from projbounds import (
    ContainmentError,
    Family,
    InputError,
    IterOperator,
    Subspace,
    cos_two,
    cyclic_bound,
    cyclic_operator,
    error_operator_norm,
    iterate,
    kw_bound,
    methods,
    optimal_bound_simultaneous,
    simultaneous_operator,
    spectral_norm,
    verify_error_identity,
)
from projbounds.methods import KIND_CYCLIC, KIND_SIMULTANEOUS, orbit, sweep
from helpers import (
    dense_error_operator,
    dense_operator,
    gate_spans,
    k_indexed_calls,
    lines_exact_60,
    near_pair,
    orthogonal_axes,
    perturbed_family,
    random_family,
    triple_at_120,
)

SQRT2 = np.sqrt(2.0)


def matrix_of(T) -> np.ndarray:
    """The n x n matrix of T, read as T.step applied to the identity."""
    return T.step(np.eye(T.family.ambient_dim))


class TestOperators:
    def test_simultaneous_orthogonal_axes(self):
        T = simultaneous_operator(orthogonal_axes())
        assert np.allclose(matrix_of(T), np.diag([0.5, 0.5]), atol=1e-14)
        assert T.family.intersection.dim == 0

    def test_simultaneous_full_spaces(self):
        T = simultaneous_operator([Subspace.full(2), Subspace.full(2)])
        assert np.allclose(matrix_of(T), np.eye(2), atol=1e-14)
        assert np.allclose(T.family.intersection.project(np.eye(2)), np.eye(2), atol=1e-14)

    def test_simultaneous_triple_is_half_identity(self):
        T = simultaneous_operator(triple_at_120())
        assert np.allclose(matrix_of(T), 0.5 * np.eye(2), atol=1e-12)
        assert T.family.intersection.dim == 0

    def test_cyclic_orthogonal_axes_is_zero(self):
        T = cyclic_operator(orthogonal_axes())
        assert np.allclose(matrix_of(T), np.zeros((2, 2)), atol=1e-14)

    def test_cyclic_single_subspace_is_projector(self):
        S = Subspace.from_spanning(np.array([[1.0], [1.0]]))
        T = cyclic_operator([S])
        assert np.allclose(matrix_of(T), [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_cyclic_lines_at_60_norm(self):
        T = cyclic_operator(lines_exact_60())
        assert spectral_norm(matrix_of(T)) == pytest.approx(0.5, abs=1e-12)

    def test_cyclic_application_order(self):
        # index 1 applied first: P2 P1 e2 = 0 but P1 P2 e2 != 0 here
        M1, M2 = lines_exact_60()
        T = cyclic_operator([M1, M2])
        manual = M2.project(M1.project(np.eye(2)))
        assert np.allclose(matrix_of(T), manual, atol=1e-14)
        assert np.allclose(T.step(np.array([0.0, 1.0])), 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("build", [simultaneous_operator, cyclic_operator])
    def test_step_matches_dense_oracle_and_keeps_its_input(self, seed, build):
        rng = np.random.default_rng(30 + seed)
        n = int(rng.integers(3, 20))
        T = build(random_family(rng, int(rng.integers(2, 5)), n))
        X = rng.standard_normal((n, 3))
        X.setflags(write=False)
        before = X.copy()
        assert np.allclose(T.step(X), dense_operator(T)[0] @ X, atol=1e-13)
        assert np.allclose(T.step(X[:, 0]), T.step(X)[:, 0], atol=1e-15)
        assert np.array_equal(X, before)

    def test_empty_list_rejected(self):
        with pytest.raises(InputError):
            simultaneous_operator([])
        with pytest.raises(InputError):
            cyclic_operator([])

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError, match="bogus"):
            IterOperator(Family(orthogonal_axes()), "bogus")

    @pytest.mark.parametrize("kind", [KIND_SIMULTANEOUS, KIND_CYCLIC])
    def test_intersection_outside_a_member_rejected(self, kind):
        # absorption rests on M lying in every M_i; an intersection that
        # does not is refused when the operator is built
        fam = Family(random_family(np.random.default_rng(7), 3, 10))
        fam.__dict__["intersection"] = Subspace.full(10)
        with pytest.raises(ContainmentError):
            IterOperator(fam, kind)

    @pytest.mark.parametrize("seed", range(6))
    def test_absorption_random(self, seed):
        # construction checks none of this: the family's one containment
        # test decides absorption, and the rest holds by how T is formed
        rng = np.random.default_rng(seed)
        fam = Family(random_family(rng, int(rng.integers(2, 5)), int(rng.integers(3, 20))))
        S = simultaneous_operator(fam)
        assert np.allclose(matrix_of(S), matrix_of(S).T, atol=1e-15)
        for T in (S, cyclic_operator(fam)):
            A, P = matrix_of(T), dense_operator(T)[1]
            assert spectral_norm(A @ P - P) <= 1e-10
            assert spectral_norm(P @ A - P) <= 1e-10
            assert spectral_norm(A) <= 1.0 + 1e-12


class TestIterate:
    def test_halving_on_orthogonal_axes(self):
        T = simultaneous_operator(orthogonal_axes())
        [trace] = iterate(T, [np.array([1.0, 1.0])], 4)
        expected = SQRT2 / 2.0 ** np.arange(5)
        assert np.allclose(trace.errors, expected, atol=1e-14)
        assert np.allclose(trace.bounds, expected, atol=1e-12)

    def test_fixed_point_has_zero_errors(self):
        M1, M2 = lines_exact_60()
        # the common part here is trivial, so iterate from the origin
        T = simultaneous_operator([M1, M2])
        [trace] = iterate(T, [np.zeros(2)], 3)
        assert np.allclose(trace.errors, 0.0, atol=1e-14)

    def test_member_of_intersection_is_fixed(self):
        A = Subspace.from_spanning(np.eye(3)[:, :2])
        B = Subspace.from_spanning(np.eye(3)[:, 1:])
        T = simultaneous_operator([A, B])
        [trace] = iterate(T, [np.array([0.0, 2.0, 0.0])], 5)
        assert np.allclose(trace.errors, 0.0, atol=1e-12)

    def test_cyclic_zero_operator_converges_in_one_step(self):
        T = cyclic_operator(orthogonal_axes())
        [trace] = iterate(T, [np.array([1.0, 1.0])], 3)
        assert trace.errors[0] == pytest.approx(SQRT2, abs=1e-14)
        assert np.allclose(trace.errors[1:], 0.0, atol=1e-14)

    def test_dimension_mismatch(self):
        T = simultaneous_operator(orthogonal_axes())
        with pytest.raises(InputError):
            iterate(T, [np.array([1.0, 2.0, 3.0])], 2)

    def test_negative_k_max(self):
        T = simultaneous_operator(orthogonal_axes())
        with pytest.raises(InputError):
            iterate(T, [np.array([1.0, 1.0])], -1)

    @pytest.mark.parametrize("seed", range(6))
    def test_trace_invariants_random(self, seed):
        rng = np.random.default_rng(40 + seed)
        subs = random_family(rng, int(rng.integers(2, 5)), int(rng.integers(3, 20)))
        for T in (simultaneous_operator(subs), cyclic_operator(subs)):
            [trace] = iterate(T, [rng.standard_normal(subs[0].ambient_dim)], 12)
            assert (trace.errors >= 0.0).all()
            assert trace.max_violation() <= 1e-10
            if T.kind == "simultaneous":
                assert (np.diff(trace.errors) <= 1e-12).all()

    def test_rate_computed_once_per_operator(self, monkeypatch):
        calls = []

        def counting(real):
            def wrapped(*args):
                calls.append(1)
                return real(*args)

            return wrapped

        def forbidden(*args):
            raise AssertionError("the rate applied T or formed a projector")

        # The simultaneous rate reads the gram route, the cyclic one a
        # spectral norm; neither reads T or any projector.
        monkeypatch.setattr(methods, "friedrichs_gram", counting(methods.friedrichs_gram))
        monkeypatch.setattr(methods, "spectral_norm", counting(methods.spectral_norm))
        rng = np.random.default_rng(47)
        subs = random_family(rng, 3, 8)
        for T in (simultaneous_operator(subs), cyclic_operator(subs)):
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(Subspace, "projector", forbidden)
                m.setattr(IterOperator, "step", forbidden)
                rate = T.rate
            for _ in range(3):
                x = rng.standard_normal(8)
                [trace] = iterate(T, [x], 5)
                assert np.array_equal(trace.bounds, T.rate ** np.arange(6) * np.linalg.norm(x))
            assert T.rate == rate and len(calls) == 1, T.kind

    @pytest.mark.parametrize("seed", range(10))
    def test_rate_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(140 + seed)
        n = int(rng.integers(4, 20))
        subs = random_family(rng, int(rng.integers(2, 5)), n)
        if seed % 2:
            # A common part, so that M is not {0}.
            common = rng.standard_normal((n, int(rng.integers(1, 3))))
            subs = [Subspace.from_spanning(np.hstack([common, S.basis])) for S in subs]
        for T in (simultaneous_operator(subs), cyclic_operator(subs)):
            oracle = spectral_norm(dense_error_operator(T))
            assert abs(T.rate - oracle) <= 1e-13, T.kind

    def test_rate_is_rounding_on_degenerate_families(self):
        # Every member is M up to rounding, so T = P_M and the rate is the
        # members' rounding-level defect.
        rng = np.random.default_rng(48)
        A = rng.standard_normal((9, 4))
        S, same = Subspace.from_spanning(A), Subspace.from_spanning(A @ rng.standard_normal((4, 4)))
        for subs in ([S], [S, same], [S, same, S]):
            assert Family.of(subs).degenerate
            for T in (simultaneous_operator(subs), cyclic_operator(subs)):
                assert 0.0 <= T.rate <= 1e-14

    @pytest.mark.parametrize("build", [simultaneous_operator, cyclic_operator])
    def test_rate_bounds_a_family_judged_degenerate(self, build):
        # Principal angles of 1e-11 lie below the intersection's cutoff, so
        # the pair is judged one subspace, yet ||T - P_M|| is of the order
        # of the angles; the members' defects bound it.
        T = build(near_pair(np.random.default_rng(49), 1e-11, 30, 10))
        assert T.family.degenerate
        oracle = spectral_norm(dense_error_operator(T))
        assert oracle > 1e-12 and T.rate >= oracle - 1e-15


class TestErrorOperatorNorm:
    def test_simultaneous_k1(self):
        T = simultaneous_operator(lines_exact_60())
        assert error_operator_norm(T, 1) == pytest.approx(0.75, abs=1e-12)

    def test_simultaneous_k3(self):
        T = simultaneous_operator(lines_exact_60())
        assert error_operator_norm(T, 3) == pytest.approx(0.421875, abs=1e-12)

    def test_cyclic_k2(self):
        T = cyclic_operator(lines_exact_60())
        assert error_operator_norm(T, 2) == pytest.approx(0.125, abs=1e-12)

    def test_k_zero_rejected(self):
        T = simultaneous_operator(lines_exact_60())
        with pytest.raises(InputError):
            error_operator_norm(T, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_power_law_for_simultaneous(self, seed):
        # normality: the k-step norm is the one-step norm to the k
        rng = np.random.default_rng(60 + seed)
        subs = random_family(rng, int(rng.integers(2, 6)), int(rng.integers(3, 25)))
        T = simultaneous_operator(subs)
        base = error_operator_norm(T, 1)
        for k in (2, 5, 11, 20):
            assert abs(error_operator_norm(T, k) - base**k) <= 1e-9


class TestBounds:
    def test_optimal_bound_fixtures(self):
        M1, M2 = lines_exact_60()
        assert optimal_bound_simultaneous([M1, M2], 1) == pytest.approx(0.75, abs=1e-12)
        assert optimal_bound_simultaneous(triple_at_120(), 2) == pytest.approx(
            0.25, abs=1e-12
        )
        A1, A2 = orthogonal_axes()
        assert optimal_bound_simultaneous([A1, A2], 3) == pytest.approx(
            0.125, abs=1e-12
        )

    def test_optimal_bound_degenerate_family_is_zero(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        assert optimal_bound_simultaneous([S, S], 4) == 0.0

    def test_kw_fixtures(self):
        M1, M2 = lines_exact_60()
        assert kw_bound([M1, M2], 1) == pytest.approx(0.5, abs=1e-12)
        assert kw_bound([M1, M2], 2) == pytest.approx(0.125, abs=1e-12)
        A1, A2 = orthogonal_axes()
        for k in (1, 2, 5):
            assert kw_bound([A1, A2], k) == pytest.approx(0.0, abs=1e-14)

    def test_kw_bound_needs_a_pair(self):
        with pytest.raises(InputError):
            kw_bound(triple_at_120(), 1)

    def test_cyclic_bound_fixtures(self):
        M1, M2 = lines_exact_60()
        assert cyclic_bound([M1, M2], 1) == pytest.approx(0.5, abs=1e-12)
        A = Subspace.from_spanning(np.eye(3)[:, :2])
        B = Subspace.from_spanning(np.eye(3)[:, 1:])
        assert cyclic_bound([A, B], 2) == pytest.approx(0.0, abs=1e-14)
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        assert cyclic_bound([S, S, S], 3) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_kw_matches_cyclic_error_norm(self, seed):
        rng = np.random.default_rng(70 + seed)
        n = int(rng.integers(2, 30))
        M1, M2 = random_family(rng, 2, n)
        T = cyclic_operator([M1, M2])
        for k in (1, 2, 4, 8):
            assert abs(error_operator_norm(T, k) - kw_bound([M1, M2], k)) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_optimal_bound_matches_simultaneous_error_norm(self, seed):
        rng = np.random.default_rng(80 + seed)
        subs = random_family(rng, int(rng.integers(2, 6)), int(rng.integers(3, 25)))
        T = simultaneous_operator(subs)
        for k in (1, 3, 7):
            assert (
                abs(error_operator_norm(T, k) - optimal_bound_simultaneous(subs, k))
                <= 1e-9
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_cyclic_bound_is_valid_and_tight_at_k1(self, seed):
        rng = np.random.default_rng(90 + seed)
        r = int(rng.integers(3, 6))
        subs = random_family(rng, r, int(rng.integers(3, 25)))
        T = cyclic_operator(subs)
        assert abs(error_operator_norm(T, 1) - cyclic_bound(subs, 1)) <= 1e-9
        for k in (2, 4, 9):
            assert error_operator_norm(T, k) <= cyclic_bound(subs, k) + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_per_trajectory_bound_random(self, seed):
        rng = np.random.default_rng(110 + seed)
        subs = random_family(rng, int(rng.integers(2, 6)), int(rng.integers(3, 25)))
        T = simultaneous_operator(subs)
        x0 = rng.standard_normal(subs[0].ambient_dim)
        x0 /= np.linalg.norm(x0)
        [trace] = iterate(T, [x0], 10)
        for k in range(1, 11):
            assert trace.errors[k] <= optimal_bound_simultaneous(subs, k) + 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_attained_by_top_singular_vector(self, seed):
        rng = np.random.default_rng(120 + seed)
        subs = random_family(rng, int(rng.integers(2, 6)), int(rng.integers(3, 25)))
        T = simultaneous_operator(subs)
        _, _, Vt = np.linalg.svd(dense_error_operator(T))
        star = Vt[0]
        [trace] = iterate(T, [star], 10)
        for k in range(1, 11):
            assert trace.errors[k] >= optimal_bound_simultaneous(subs, k) - 1e-8


class TestVerifyErrorIdentity:
    def test_k1_is_exact(self):
        T = simultaneous_operator(lines_exact_60())
        assert verify_error_identity(T, 1) == 0.0

    def test_simultaneous_k4(self):
        T = simultaneous_operator(lines_exact_60())
        assert verify_error_identity(T, 4) <= 1e-10

    def test_cyclic_orthogonal_axes_k3(self):
        T = cyclic_operator(orthogonal_axes())
        assert verify_error_identity(T, 3) <= 1e-14

    @pytest.mark.parametrize("seed", range(6))
    def test_identity_random(self, seed):
        rng = np.random.default_rng(130 + seed)
        subs = random_family(rng, int(rng.integers(2, 6)), int(rng.integers(3, 25)))
        for T in (simultaneous_operator(subs), cyclic_operator(subs)):
            for k in (1, 2, 6, 13, 20):
                assert verify_error_identity(T, k) <= 1e-9


def trivial_M_family(n, dims):
    subs = random_family(np.random.default_rng(sum(dims)), len(dims), n, dims)
    assert Family.of(subs).intersection.dim == 0
    return subs


# sum(dim M_i) below, at and above n, each family with M = {0}
TRIVIAL_M = {"sum<n": (10, [2, 3, 3]), "sum=n": (10, [3, 3, 4]), "sum>n": (10, [4, 4, 4])}


def both_walks(T, k):
    """The lemma residual at k from both sides' walks, each step through
    T.step: (T^k Q - P_M Q) - (T - P_M)^k Q."""
    Q, M = T.domain, T.family.intersection.basis
    left = right = Q
    for _ in range(k):
        left, right = T.step(left), T.step(right) - M @ (M.T @ right)
    return spectral_norm((left - M @ (M.T @ Q)) - right)


class TestErrorIdentityOnTrivialM:
    """On M = {0}, P_M = 0 and both sides of the lemma are one product, so
    verify_error_identity answers 0.0 without walking; the shortcut must
    not reach a family with dim M > 0, where the sides differ."""

    @pytest.mark.parametrize("kind", [KIND_SIMULTANEOUS, KIND_CYCLIC])
    @pytest.mark.parametrize("shape", TRIVIAL_M)
    def test_exact_zeros_without_a_step(self, monkeypatch, shape, kind):
        T = IterOperator(Family.of(trivial_M_family(*TRIVIAL_M[shape])), kind)

        def step(self, X):
            raise AssertionError("the lemma walked T on M = {0}")

        monkeypatch.setattr(IterOperator, "step", step)
        value = verify_error_identity(T, 5)
        assert value == 0.0 and type(value) is float
        assert verify_error_identity(T, [1, 16, 3]).tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("kind", [KIND_SIMULTANEOUS, KIND_CYCLIC])
    @pytest.mark.parametrize("shape", TRIVIAL_M)
    def test_dense_oracle_agrees(self, shape, kind):
        T = IterOperator(Family.of(trivial_M_family(*TRIVIAL_M[shape])), kind)
        A, P_M = dense_operator(T)
        for k in range(1, 17):
            gap = (np.linalg.matrix_power(A, k) - P_M) - np.linalg.matrix_power(A - P_M, k)
            assert spectral_norm(gap) <= 1e-13

    @pytest.mark.parametrize("kind", [KIND_SIMULTANEOUS, KIND_CYCLIC])
    @pytest.mark.parametrize("family", ["gate", "planted"])
    def test_common_part_still_walks_both_sides(self, monkeypatch, family, kind):
        if family == "gate":
            subs = [Subspace.from_spanning(A) for A in gate_spans()]
        else:
            subs = perturbed_family(np.random.default_rng(7), 3, 12, 2, 0.0)
        T = IterOperator(Family.of(subs), kind)
        assert T.family.intersection.dim == (1 if family == "gate" else 2)
        expected = [both_walks(T, k) for k in (1, 4, 9)]
        steps, real = [], IterOperator.step
        monkeypatch.setattr(IterOperator, "step", lambda self, X: steps.append(1) or real(self, X))
        assert verify_error_identity(T, [1, 4, 9]).tolist() == expected
        assert len(steps) == 2 * 9


class TestCompareMethods:
    def test_fixture_values(self):
        M1, M2 = lines_exact_60()
        assert (kw_bound([M1, M2], 2), optimal_bound_simultaneous([M1, M2], 2)) == pytest.approx(
            (0.125, 0.5625), abs=1e-12)
        assert (kw_bound([M1, M2], 1), optimal_bound_simultaneous([M1, M2], 1)) == pytest.approx(
            (0.5, 0.75), abs=1e-12)
        A1, A2 = orthogonal_axes()
        assert (kw_bound([A1, A2], 2), optimal_bound_simultaneous([A1, A2], 2)) == pytest.approx(
            (0.0, 0.25), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_ordering_random(self, seed):
        rng = np.random.default_rng(140 + seed)
        n = int(rng.integers(2, 30))
        M1, M2 = random_family(rng, 2, n)
        c = cos_two(M1, M2).value
        for k in (1, 2, 5, 9):
            first, second = kw_bound([M1, M2], k), optimal_bound_simultaneous([M1, M2], k)
            assert first <= second + 1e-12
            if c <= 1.0 - 1e-6:
                assert second - first >= 1e-12


class TestExponentArrays:
    """Each k-indexed function takes one exponent or a 1-d integer array."""

    @pytest.mark.parametrize("k", [0, -1, 1.5, [], np.ones((2, 2), dtype=int)],
                             ids=["zero", "negative", "float", "empty", "2-d"])
    def test_bad_exponents_rejected(self, k):
        for call in k_indexed_calls(lines_exact_60(), k).values():
            with pytest.raises(InputError, match="exponents"):
                call()

    def test_array_shape_and_values(self):
        ks = np.array([3, 1, 3])
        T = simultaneous_operator(lines_exact_60())
        norms = error_operator_norm(T, ks)
        assert isinstance(norms, np.ndarray) and norms.shape == (3,)
        assert norms == pytest.approx([0.421875, 0.75, 0.421875], abs=1e-12)
        assert kw_bound(lines_exact_60(), ks) == pytest.approx([0.03125, 0.5, 0.03125], abs=1e-12)
        assert isinstance(error_operator_norm(T, np.int64(3)), float)


def counted_orbit(x, steps):
    """The orbit of v -> v + 1 from x, appending each step's input to ``steps``."""

    def step(v):
        steps.append(v)
        return v + 1

    return orbit(step, x)


class TestSweep:
    """``sweep`` reads each walk at the wanted k and nowhere else."""

    def test_value_called_only_at_wanted_k(self):
        calls = []
        out = sweep(np.array([5, 2, 9]), lambda v: calls.append(v) or 10 * v, counted_orbit(0, []))
        assert calls == [2, 5, 9]
        assert out == {2: 20, 5: 50, 9: 90}

    @pytest.mark.parametrize("ks", [[4], [1, 7, 3], [7, 7]])
    def test_each_walk_advances_exactly_to_max_k(self, ks):
        first, second = [], []
        sweep(np.array(ks), lambda a, b: None, counted_orbit(0, first), counted_orbit(100, second))
        # reading item k takes k steps; item max(ks) is the last one read
        assert first == list(range(max(ks)))
        assert second == list(range(100, 100 + max(ks)))

    def test_unsorted_and_repeated_ks(self):
        calls = []
        out = sweep(np.array([3, 1, 3, 0, 1]), lambda a, b: calls.append(a) or (a, b),
                    counted_orbit(0, []), counted_orbit(10, []))
        assert calls == [0, 1, 3]
        assert out == {0: (0, 10), 1: (1, 11), 3: (3, 13)}

    def test_k_zero_reads_the_start(self):
        steps = []
        start = np.array([1.0, 2.0])
        out = sweep(np.array(0), lambda x: x, counted_orbit(start, steps))
        assert out[0] is start and steps == []

    def test_orbit_of_T_step_walks_its_powers(self):
        rng = np.random.default_rng(3)
        T = simultaneous_operator(random_family(rng, 3, 7))
        A, X = dense_operator(T)[0], rng.standard_normal((7, 4))
        out = sweep(np.array([5, 1, 3, 0, 2]), np.copy, orbit(T.step, X))
        assert list(out) == [0, 1, 2, 3, 5]
        for k, TkX in out.items():
            assert np.allclose(TkX, np.linalg.matrix_power(A, k) @ X, atol=1e-13)
