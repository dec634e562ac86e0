import numpy as np
import pytest

from projbounds import (
    AffineFamily,
    AffineSubspace,
    InfeasibleError,
    InputError,
    cyclic_affine,
    cyclic_bound,
    intersection_affine,
    iterate,
    kw_bound,
    simultaneous_affine,
    simultaneous_operator,
)
from helpers import dense_error_operator, distance_to, lines_exact_60, random_family, same_subspace

E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])


def horizontal_line(height=1.0):
    return AffineSubspace.from_point_span(np.array([0.0, height]), E1)


def vertical_line(offset=2.0):
    return AffineSubspace.from_point_span(np.array([offset, 0.0]), E2)


def random_affine_family(rng, r, n, with_common_point=True):
    """Directions are random; all sets share a common random point, so the
    intersection is nonempty by construction."""
    directions = random_family(rng, r, n)
    p = rng.standard_normal(n)
    out = []
    for L in directions:
        # any representation point on the set works; choose p shifted inside L
        point = p + L.basis @ rng.standard_normal(L.dim) if L.dim else p
        out.append(AffineSubspace(anchor=point, direction=L))
    return out, p


class TestConstruction:
    def test_anchor_canonicalized_to_least_norm_point(self):
        V = AffineSubspace.from_point_span(np.array([3.0, 1.0]), E1)
        assert np.allclose(V.anchor, [0.0, 1.0], atol=1e-14)

    def test_same_set_from_different_points(self):
        V1 = AffineSubspace.from_point_span(np.array([0.0, 1.0]), E1)
        V2 = AffineSubspace.from_point_span(np.array([3.0, 1.0]), E1)
        assert np.allclose(V1.anchor, V2.anchor)
        assert same_subspace(V1.direction, V2.direction)

    def test_linear_subspace_as_affine(self):
        V = AffineSubspace.from_point_span(np.zeros(2), E1)
        assert np.allclose(V.anchor, 0.0)

    def test_anchor_orthogonal_to_direction(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(0, n + 1))
            V = AffineSubspace.from_point_span(
                rng.standard_normal(n), rng.standard_normal((n, d))
            )
            assert np.linalg.norm(V.direction.project(V.anchor)) <= 1e-10
            assert distance_to(V, V.anchor) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            AffineSubspace.from_point_span(np.zeros(3), E1)


class TestProjection:
    def test_drop_perpendicular(self):
        V = horizontal_line(1.0)
        assert np.allclose(V.project(np.array([3.0, 5.0])), [3.0, 1.0], atol=1e-14)

    def test_member_is_fixed(self):
        V = horizontal_line(1.0)
        x = np.array([-4.0, 1.0])
        assert np.allclose(V.project(x), x, atol=1e-14)

    def test_single_point_set(self):
        V = AffineSubspace.from_point_span(np.array([2.0, -1.0]), np.zeros((2, 0)))
        assert np.allclose(V.project(np.array([9.0, 9.0])), [2.0, -1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_optimality_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 12))
        d = int(rng.integers(1, n + 1))
        V = AffineSubspace.from_point_span(
            rng.standard_normal(n), rng.standard_normal((n, d))
        )
        x = rng.standard_normal(n)
        px = V.project(x)
        for _ in range(5):
            y = V.anchor + V.direction.basis @ rng.standard_normal(V.dim)
            assert np.linalg.norm(x - px) <= np.linalg.norm(x - y) + 1e-10


class TestIntersection:
    def test_perpendicular_lines_meet_at_point(self):
        V = intersection_affine([horizontal_line(1.0), vertical_line(2.0)])
        assert V.dim == 0
        assert np.allclose(V.anchor, [2.0, 1.0], atol=1e-12)

    def test_parallel_lines_infeasible(self):
        with pytest.raises(InfeasibleError):
            intersection_affine([horizontal_line(0.0), horizontal_line(1.0)])

    def test_parallel_lines_just_past_the_threshold_infeasible(self):
        # the least-squares point is halfway between the lines, so the
        # residual is 2e-8 / sqrt(2) = 1.4e-8, above FEASIBILITY_TOL * 1
        # (the scale floor: |b| = 2e-8 is below 1)
        with pytest.raises(InfeasibleError):
            intersection_affine([horizontal_line(0.0), horizontal_line(2e-8)])

    def test_consistent_pair_at_large_scale_feasible(self):
        # anchors and common point of size 1e6 leave a rounding residual far
        # above FEASIBILITY_TOL in absolute terms, but not relative to |b|
        rng = np.random.default_rng(17)
        p = 1e6 * rng.standard_normal(6)
        fam = [
            AffineSubspace(anchor=p + L.basis @ (1e6 * rng.standard_normal(L.dim)), direction=L)
            for L in random_family(rng, 2, 6, [3, 4])
        ]
        V = intersection_affine(fam)
        assert distance_to(V, p) <= 1e-8 * np.linalg.norm(p)

    def test_self_intersection(self):
        V = horizontal_line(1.0)
        W = intersection_affine([V, V])
        assert np.allclose(W.anchor, V.anchor, atol=1e-12)
        assert same_subspace(W.direction, V.direction)

    @pytest.mark.parametrize("seed", range(6))
    def test_common_point_contained_random(self, seed):
        rng = np.random.default_rng(200 + seed)
        fam, p = random_affine_family(rng, int(rng.integers(2, 5)), int(rng.integers(3, 12)))
        V = intersection_affine(fam)
        assert distance_to(V, p) <= 1e-8
        for W in fam:
            assert distance_to(W, V.anchor) <= 1e-8


class TestSimultaneousAffine:
    def test_perpendicular_lines_fixture(self):
        fam = [horizontal_line(1.0), vertical_line(2.0)]
        [trace] = simultaneous_affine(fam, [np.array([0.0, 0.0])], 3)
        # first iterate is the average (1, 0.5); target is (2, 1)
        assert trace.errors[1] == pytest.approx(np.sqrt(1.25), abs=1e-12)
        assert trace.bounds[1] == pytest.approx(0.5 * np.sqrt(5.0), abs=1e-12)
        assert abs(trace.errors[1] - trace.bounds[1]) <= 1e-12

    def test_start_on_intersection(self):
        fam = [horizontal_line(1.0), vertical_line(2.0)]
        [trace] = simultaneous_affine(fam, [np.array([2.0, 1.0])], 4)
        assert np.allclose(trace.errors, 0.0, atol=1e-12)

    def test_identical_sets_converge_in_one_step(self):
        fam = [horizontal_line(1.0), horizontal_line(1.0)]
        [trace] = simultaneous_affine(fam, [np.array([5.0, 7.0])], 3)
        assert trace.errors[0] == pytest.approx(6.0, abs=1e-12)
        assert np.allclose(trace.errors[1:], 0.0, atol=1e-12)

    def test_infeasible_family_raises(self):
        with pytest.raises(InfeasibleError):
            simultaneous_affine(
                [horizontal_line(0.0), horizontal_line(1.0)], [np.zeros(2)], 2
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_translation_consistency_random(self, seed):
        # affine iteration equals the linear iteration of the directions
        # started from x0 - v, v the least-norm common point
        rng = np.random.default_rng(300 + seed)
        fam, _ = random_affine_family(rng, int(rng.integers(2, 5)), int(rng.integers(3, 12)))
        x0 = rng.standard_normal(fam[0].ambient_dim)
        [affine_trace] = simultaneous_affine(fam, [x0], 8)
        v = intersection_affine(fam).anchor
        linear_T = simultaneous_operator([V.direction for V in fam])
        [linear_trace] = iterate(linear_T, [x0 - v], 8)
        assert np.abs(affine_trace.errors - linear_trace.errors).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_bound_validity_and_tightness(self, seed):
        rng = np.random.default_rng(400 + seed)
        fam, _ = random_affine_family(rng, int(rng.integers(2, 5)), int(rng.integers(3, 12)))
        x0 = rng.standard_normal(fam[0].ambient_dim)
        [trace] = simultaneous_affine(fam, [x0], 8)
        assert trace.max_violation() <= 1e-10
        # adversarial start: least-norm point plus top singular vector of
        # the linear error operator
        linear_T = simultaneous_operator([V.direction for V in fam])
        _, _, Vt = np.linalg.svd(dense_error_operator(linear_T))
        v = intersection_affine(fam).anchor
        [star] = simultaneous_affine(fam, [v + Vt[0]], 8)
        assert (star.errors >= star.bounds - 1e-8).all()


class TestCyclicAffine:
    def test_perpendicular_lines_land_in_one_sweep(self):
        fam = [horizontal_line(1.0), vertical_line(2.0)]
        [trace] = cyclic_affine(fam, [np.array([0.0, 0.0])], 2)
        assert trace.errors[0] == pytest.approx(np.sqrt(5.0), abs=1e-12)
        assert np.allclose(trace.errors[1:], 0.0, atol=1e-12)

    def test_start_on_intersection(self):
        fam = [horizontal_line(1.0), vertical_line(2.0)]
        [trace] = cyclic_affine(fam, [np.array([2.0, 1.0])], 3)
        assert np.allclose(trace.errors, 0.0, atol=1e-12)

    def test_linear_case_reduces_to_alternating_bound(self):
        # affine wrapper of lines through the origin: the attached rate is
        # the two-subspace product bound, with kw_bound the exact profile
        M1, M2 = lines_exact_60()
        fam = [
            AffineSubspace(anchor=np.zeros(2), direction=M1),
            AffineSubspace(anchor=np.zeros(2), direction=M2),
        ]
        x0 = np.array([0.8, -0.6])
        [trace] = cyclic_affine(fam, [x0], 6)
        base = cyclic_bound([M1, M2], 1)
        assert base == pytest.approx(0.5, abs=1e-12)
        for k in range(1, 7):
            assert trace.errors[k] <= kw_bound([M1, M2], k) * np.linalg.norm(x0) + 1e-10
            assert trace.bounds[k] == pytest.approx(base**k * np.linalg.norm(x0), abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_translation_consistency_and_bounds(self, seed):
        rng = np.random.default_rng(500 + seed)
        fam, _ = random_affine_family(rng, int(rng.integers(2, 5)), int(rng.integers(3, 12)))
        x0 = rng.standard_normal(fam[0].ambient_dim)
        [trace] = cyclic_affine(fam, [x0], 8)
        assert trace.max_violation() <= 1e-10
        from projbounds import cyclic_operator

        v = intersection_affine(fam).anchor
        [linear_trace] = iterate(cyclic_operator([V.direction for V in fam]), [x0 - v], 8)
        assert np.abs(trace.errors - linear_trace.errors).max() <= 1e-10


class TestAffineFamily:
    def test_sweeps_share_one_target_and_rate(self, monkeypatch):
        from projbounds import affine

        calls = []
        original = affine.intersection_affine

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(affine, "intersection_affine", counting)
        rng = np.random.default_rng(7)
        members, _ = random_affine_family(rng, 3, 6)
        fam = AffineFamily.of(members)
        starts = list(rng.standard_normal((4, 6)))
        for sweep in (simultaneous_affine, cyclic_affine):
            shared = [sweep(fam, [x0], 5)[0] for x0 in starts]
            for x0, trace in zip(starts, shared):
                [fresh] = sweep(members, [x0], 5)
                assert np.array_equal(trace.errors, fresh.errors)
                assert np.array_equal(trace.bounds, fresh.bounds)
            assert len(sweep(fam, starts, 5)) == len(starts)
        assert len(calls) == 1 + 2 * len(starts)  # once for fam, once per fresh call
        assert AffineFamily.of(fam) is fam

    def test_directions_validate_the_family(self):
        with pytest.raises(InputError):
            AffineFamily.of([])
        line_in_r3 = AffineSubspace.from_point_span(np.zeros(3), np.eye(3)[:, :1])
        with pytest.raises(InputError):
            AffineFamily.of([horizontal_line(), line_in_r3])
