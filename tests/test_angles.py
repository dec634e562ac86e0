import numpy as np
import pytest

from projbounds import (
    Family,
    InputError,
    Subspace,
    cos_two,
    friedrichs_from_norm,
    friedrichs_gram,
    simultaneous_operator,
    symmetric_norm,
)
from projbounds.runner import run_scenario
from projbounds.scenario import Scenario
from helpers import (
    dense_error_operator,
    lines_at,
    lines_exact_60,
    orthogonal_axes,
    random_family,
    rotation,
    shared_and_near_spans,
    triple_at_120,
)


class TestCosTwo:
    def test_lines_at_60_degrees(self):
        M1, M2 = lines_exact_60()
        res = cos_two(M1, M2)
        assert res.value == pytest.approx(0.5, abs=1e-14)
        assert not res.degenerate

    def test_orthogonal_lines(self):
        M1, M2 = orthogonal_axes()
        assert cos_two(M1, M2).value == pytest.approx(0.0, abs=1e-14)

    def test_equal_lines_are_degenerate(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        res = cos_two(S, S)
        assert res.degenerate
        assert res.value == 0.0

    def test_nested_pair_has_value_zero_and_is_not_degenerate(self):
        # M = M_1, so M_1' is trivial, but M_2' is not: the pair is not
        # degenerate, and the gram route agrees.
        inner = Subspace.from_spanning(np.eye(3)[:, :1])
        outer = Subspace.from_spanning(np.eye(3)[:, :2])
        res = cos_two(inner, outer)
        assert not res.degenerate and res.value == 0.0
        assert res == friedrichs_gram([inner, outer])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cos_two(Subspace.full(2), Subspace.full(3))

    def test_takes_a_pair_family(self):
        M1, M2 = lines_exact_60()
        assert cos_two(Family.of([M1, M2])) == cos_two(M1, M2)
        with pytest.raises(InputError, match="exactly two"):
            cos_two(Family.of(triple_at_120()))

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        M1, M2 = random_family(rng, 2, n)
        assert abs(cos_two(M1, M2).value - cos_two(M2, M1).value) <= 1e-12


class TestFriedrichsGram:
    def test_triple_at_120(self):
        # Gram off-diagonals are -1/2; top eigenvalue 3/2; value (3/2-1)/2
        res = friedrichs_gram(triple_at_120())
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_orthogonal_lines_along_axes(self):
        subs = [Subspace.from_spanning(np.eye(5)[:, i : i + 1]) for i in range(4)]
        assert friedrichs_gram(subs).value == pytest.approx(0.0, abs=1e-12)

    def test_pair_matches_cos_two(self):
        M1, M2 = lines_exact_60()
        assert friedrichs_gram([M1, M2]).value == pytest.approx(0.5, abs=1e-12)

    def test_all_equal_is_degenerate(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        res = friedrichs_gram([S, S, S])
        assert res.degenerate and res.value == 0.0

    def test_requires_two_subspaces(self):
        with pytest.raises(InputError):
            friedrichs_gram([Subspace.full(2)])

    @pytest.mark.parametrize("seed", range(10))
    def test_r2_consistency_with_cos_two(self, seed):
        rng = np.random.default_rng(800 + seed)
        n = int(rng.integers(2, 30))
        M1, M2 = random_family(rng, 2, n)
        assert abs(friedrichs_gram([M1, M2]).value - cos_two(M1, M2).value) <= 1e-9


class TestFriedrichsFromNorm:
    def test_lines_at_60(self):
        # eigenvalues of (P1+P2)/2 are (1 +/- cos)/2; nu = 0.75
        M1, M2 = lines_exact_60()
        res = friedrichs_from_norm([M1, M2])
        assert res.value == pytest.approx(0.5, abs=1e-12)

    def test_triple_at_120(self):
        # sum of the three rank-one projectors is (3/2) I, so nu = 1/2
        res = friedrichs_from_norm(triple_at_120())
        assert res.value == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_input_gives_none(self):
        S = Subspace.from_spanning(np.array([[1.0], [0.0]]))
        assert friedrichs_from_norm([S, S]) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_route_agreement_random(self, seed):
        rng = np.random.default_rng(900 + seed)
        r = int(rng.integers(2, 6))
        n = int(rng.integers(3, 31))
        subs = random_family(rng, r, n)
        a = friedrichs_gram(subs)
        if a.degenerate:
            return
        b = friedrichs_from_norm(subs)
        assert abs(a.value - b.value) <= 1e-9


def dense_norm_route(fam: Family) -> float:
    """The norm route's raw value from the dense n x n matrix T - P_M."""
    r = len(fam)
    return (r * symmetric_norm(dense_error_operator(simultaneous_operator(fam))) - 1.0) / (r - 1.0)


def planted_members(seed: int, n: int, shared: int, own: int, r: int):
    """r members of R^n, each a planted common part of dimension ``shared``
    plus ``own`` random directions."""
    rng = np.random.default_rng([seed, n, shared])
    common = rng.standard_normal((n, shared))
    return [Subspace.from_spanning(np.hstack([common, rng.standard_normal((n, own))])) for _ in range(r)]


class TestNormRouteAgainstDenseOracle:
    # The route reads T's (dim M + 1)-th eigenvalue from the smaller Gram of
    # the members' bases; the oracle forms T - P_M in R^n.

    @pytest.mark.parametrize("shared", [0, 1, 3])
    @pytest.mark.parametrize("n, own", [(30, 3), (12, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_families(self, seed, n, own, shared):
        # (30, 3): sum of dims below n, A^T A is the smaller Gram; (12, 6)
        # with r >= 3: above n, A A^T is.
        fam = Family.of(planted_members(seed, n, shared, own, 3 + seed % 2))
        assert fam.intersection.dim == shared
        assert (sum(S.dim for S in fam) < n) == (n == 30)
        assert abs(friedrichs_from_norm(fam).value - dense_norm_route(fam)) <= 1e-13

    @pytest.mark.parametrize("theta", [1e-12, 1e-11, 3e-11])
    def test_near_shared_directions_judged_shared(self, theta):
        # An exact plane plus three directions at sines theta, below the
        # shared-part cutoff: M has dimension 5, and T's eigenvalues on the
        # near-shared directions are 1 to within theta^2.
        rng = np.random.default_rng(5)
        spans = shared_and_near_spans(rng, theta, 20, 2, 3)
        fam = Family.of([Subspace.from_spanning(np.hstack([A, rng.standard_normal((20, 2))])) for A in spans])
        assert fam.intersection.dim == 5 and not fam.degenerate
        assert abs(friedrichs_from_norm(fam).value - dense_norm_route(fam)) <= 1e-13


class TestDefiningQuotient:
    """The value is the supremum of

        (1/(r-1)) * sum_{i != j} <x_i, x_j>  /  sum_i ||x_i||^2

    over x_i in the reduced parts.  Sampled quotients give certified lower
    bounds; the block-Gram top eigenvector must attain the supremum."""

    @pytest.mark.parametrize("seed", range(6))
    def test_sampled_quotients_bounded_and_attained(self, seed):
        from projbounds import intersection, reduced_component

        rng = np.random.default_rng(1500 + seed)
        r = int(rng.integers(2, 6))
        n = int(rng.integers(3, 20))
        subs = random_family(rng, r, n)
        fr = friedrichs_gram(subs)
        if fr.degenerate:
            return
        common = intersection(subs)
        parts = [reduced_component(S, common) for S in subs]

        def quotient(coeffs):
            xs = [
                p.basis @ c if p.dim else np.zeros(n)
                for p, c in zip(parts, coeffs)
            ]
            denom = sum(float(x @ x) for x in xs)
            total = np.sum(xs, axis=0)
            cross = float(total @ total) - denom
            return cross / ((r - 1) * denom)

        best = -np.inf
        for _ in range(200):
            coeffs = [rng.standard_normal(p.dim) for p in parts]
            q = quotient(coeffs)
            assert q <= fr.value + 1e-9
            best = max(best, q)
        assert best <= fr.value + 1e-9

        # the top eigenvector of the block Gram splits into per-part
        # coefficients that attain the supremum
        B = np.hstack([p.basis for p in parts if p.dim])
        _, vecs = np.linalg.eigh(B.T @ B)
        top = vecs[:, -1]
        coeffs, offset = [], 0
        for p in parts:
            coeffs.append(top[offset : offset + p.dim])
            offset += p.dim
        assert quotient(coeffs) == pytest.approx(fr.value, abs=1e-10)


class TestRangeAndInvariance:
    @pytest.mark.parametrize("seed", range(10))
    def test_value_in_unit_interval_and_strictly_below_one(self, seed):
        rng = np.random.default_rng(1000 + seed)
        subs = random_family(rng, int(rng.integers(2, 6)), int(rng.integers(3, 31)))
        res = friedrichs_gram(subs)
        assert 0.0 <= res.value <= 1.0
        if not res.degenerate:
            # finite dimensions: never aligned (a raw value of 1 or more clamps to 1.0 and fails)
            assert res.value <= 1.0 - 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(1100 + seed)
        r = int(rng.integers(2, 5))
        n = int(rng.integers(3, 20))
        subs = random_family(rng, r, n)
        U = rotation(rng, n)
        rotated = [Subspace(U @ S.basis) for S in subs]
        assert (
            abs(friedrichs_gram(subs).value - friedrichs_gram(rotated).value) <= 1e-9
        )
        if not friedrichs_gram(subs).degenerate:
            assert (
                abs(
                    friedrichs_from_norm(subs).value
                    - friedrichs_from_norm(rotated).value
                )
                <= 1e-9
            )
        if r == 2:
            assert (
                abs(cos_two(subs[0], subs[1]).value - cos_two(rotated[0], rotated[1]).value)
                <= 1e-9
            )

    def test_angle_sweep_matches_cosine(self):
        for theta in range(5, 95, 5):
            M1, M2 = lines_at(theta)
            assert cos_two(M1, M2).value == pytest.approx(
                abs(np.cos(np.deg2rad(theta))), abs=1e-12
            )


def coincident_spans(n: int, d: int):
    """Two spanning sets of one random d-dimensional subspace of R^n."""
    rng = np.random.default_rng([n, d])
    A = rng.standard_normal((n, d))
    return A, A @ rng.standard_normal((d, d))


class TestDegeneracy:
    """One predicate, Family.degenerate, decides whether every member equals
    the intersection; the reduced parts, both Friedrichs routes and the run
    all agree with it."""

    @pytest.mark.parametrize("n, d", [(200, 80), (400, 150)])
    def test_two_bases_of_one_subspace(self, n, d):
        # The residual (I - P_M) Q_i is rounding noise throughout here; a
        # rank decision relative to it counted some of that noise as rank.
        fam = Family.of([Subspace.from_spanning(A) for A in coincident_spans(n, d)])
        assert [R.dim for R in fam.reduced] == [0, 0]
        assert fam.degenerate and friedrichs_gram(fam).degenerate
        assert cos_two(fam).degenerate and friedrichs_from_norm(fam) is None

    @pytest.mark.parametrize("n, d", [(200, 80), (400, 150)])
    def test_two_bases_of_one_subspace_run(self, n, d):
        spans = coincident_spans(n, d)
        report = run_scenario(Scenario.generated("coincident", n, spans, 0, k_max=5, method="cyclic"))
        assert report.q == 0.0
        assert report.check_outcomes and report.all_passed()

    @pytest.mark.parametrize("seed", range(12))
    def test_one_predicate_for_every_reader(self, seed):
        # Every member is a fresh basis of one shared part plus up to two
        # random directions; every third family adds none, so that all of
        # its members equal the shared part.
        rng = np.random.default_rng(1300 + seed)
        r, n = int(rng.integers(2, 5)), int(rng.integers(6, 30))
        shared = rng.standard_normal((n, int(rng.integers(0, n // 3 + 1))))
        extra = [0 if seed % 3 == 0 else int(rng.integers(0, 3)) for _ in range(r)]
        fam = Family.of([
            Subspace.from_spanning(np.hstack([
                shared @ rng.standard_normal((shared.shape[1],) * 2),
                rng.standard_normal((n, e)),
            ]))
            for e in extra
        ])
        assert fam.degenerate == (max(extra) == 0)
        assert fam.degenerate == all(R.dim == 0 for R in fam.reduced)
        assert fam.degenerate == friedrichs_gram(fam).degenerate
        assert fam.degenerate == (friedrichs_from_norm(fam) is None)
        if r == 2:
            assert fam.degenerate == cos_two(fam).degenerate
