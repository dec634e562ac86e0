import numpy as np
import pytest

from projbounds import (
    InputError,
    null_space,
    orthonormal_basis,
    spectral_norm,
    symmetric_norm,
)
from projbounds.numlin import RANK_ABSOLUTE_FLOOR, RANK_RELATIVE_EPS
from projbounds.runner import DEFAULT_TOLERANCES

INV_SQRT2 = 1.0 / np.sqrt(2.0)


class TestOrthonormalBasis:
    def test_scaled_axis(self):
        Q = orthonormal_basis(np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert Q.shape == (2, 1)
        assert np.allclose(np.abs(Q[:, 0]), [1.0, 0.0], atol=1e-14)

    def test_rank_one_duplication(self):
        Q = orthonormal_basis(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert Q.shape == (2, 1)
        assert np.allclose(np.abs(Q[:, 0]), [INV_SQRT2, INV_SQRT2], atol=1e-14)

    def test_identity(self):
        Q = orthonormal_basis(np.eye(3))
        assert Q.shape == (3, 3)
        assert spectral_norm(Q @ Q.T - np.eye(3)) <= 1e-12

    def test_zero_matrix_has_no_columns(self):
        assert orthonormal_basis(np.zeros((4, 3))).shape == (4, 0)

    def test_zero_width_input(self):
        assert orthonormal_basis(np.zeros((4, 0))).shape == (4, 0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            orthonormal_basis(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            orthonormal_basis(np.zeros((0, 2)))

    @pytest.mark.parametrize("seed", range(6))
    def test_orthonormal_columns_random(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 201))
        cols = int(rng.integers(1, 201))
        Q = orthonormal_basis(rng.standard_normal((rows, cols)))
        d = Q.shape[1]
        if d:
            assert spectral_norm(Q.T @ Q - np.eye(d)) <= 1e-12

    def test_orthonormal_columns_200x200(self):
        rng = np.random.default_rng(99)
        Q = orthonormal_basis(rng.standard_normal((200, 200)))
        assert Q.shape == (200, 200)
        assert spectral_norm(Q.T @ Q - np.eye(200)) <= 1e-12


class TestNullSpace:
    def test_axis_kernel(self):
        N = null_space(np.array([[1.0, 0.0]]))
        assert N.shape == (2, 1)
        assert np.allclose(np.abs(N[:, 0]), [0.0, 1.0], atol=1e-14)

    def test_trivial_kernel(self):
        assert null_space(np.eye(2)).shape == (2, 0)

    def test_rank_deficient_kernel(self):
        # hand solve: x + y = 0, normalized
        N = null_space(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert N.shape == (2, 1)
        assert np.allclose(np.abs(N[:, 0]), [INV_SQRT2, INV_SQRT2], atol=1e-14)
        assert abs(N[0, 0] + N[1, 0]) <= 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            null_space(np.array([[np.inf, 0.0]]))

    def test_rejects_no_columns(self):
        with pytest.raises(InputError):
            null_space(np.zeros((2, 0)))

    @pytest.mark.parametrize("seed", range(6))
    def test_kernel_annihilated_and_orthogonal_to_row_space(self, seed):
        rng = np.random.default_rng(100 + seed)
        rows = int(rng.integers(1, 60))
        cols = int(rng.integers(1, 60))
        A = rng.standard_normal((rows, cols))
        if rng.random() < 0.5 and min(rows, cols) > 1:
            A[:, -1] = A[:, 0]  # force rank deficiency
        N = null_space(A)
        if N.shape[1]:
            assert np.abs(A @ N).max() <= 1e-10 * max(1.0, spectral_norm(A))
            row_basis = orthonormal_basis(A.T)
            for j in range(N.shape[1]):
                assert np.abs(row_basis.T @ N[:, j]).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_rank_nullity(self, seed):
        rng = np.random.default_rng(200 + seed)
        rows = int(rng.integers(1, 60))
        cols = int(rng.integers(1, 60))
        A = rng.standard_normal((rows, cols))
        assert orthonormal_basis(A).shape[1] + null_space(A).shape[1] == cols


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-14)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_zero_block_needs_no_eigenvalues(self, monkeypatch):
        # On an M = {0} family both lemma sides are one product, so every
        # lemma block is exactly zero: its norm is read off max |A_ij| alone.
        def forbidden(*args, **kwargs):
            raise AssertionError("spectral_norm decomposed a zero block")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        assert spectral_norm(np.zeros((5, 3))) == 0.0

    def test_nilpotent(self):
        # singular values of [[0,1],[0,0]] are {1, 0}
        assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_empty_is_zero(self):
        assert spectral_norm(np.zeros((0, 0))) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            spectral_norm(np.array([[1.0, np.nan]]))

    @pytest.mark.parametrize("seed", range(8))
    def test_transpose_invariance(self, seed):
        rng = np.random.default_rng(300 + seed)
        A = rng.standard_normal((int(rng.integers(1, 120)), int(rng.integers(1, 120))))
        assert abs(spectral_norm(A) - spectral_norm(A.T)) <= 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_submultiplicative(self, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 60))
        A = rng.standard_normal((n, n))
        B = rng.standard_normal((n, n))
        assert spectral_norm(A @ B) <= spectral_norm(A) * spectral_norm(B) + 1e-10


def _oracle_inputs():
    rng = np.random.default_rng(2025)
    return {
        "tall": rng.standard_normal((600, 150)),
        "wide": rng.standard_normal((40, 300)),
        "square": rng.standard_normal((80, 80)),
        "rank-1": np.outer(rng.standard_normal(50), rng.standard_normal(30)),
        "1x1": np.array([[-3.7]]),
    }


ORACLE_INPUTS = _oracle_inputs()


class TestSpectralNormOracle:
    """The eigenvalue route against the largest singular value from the SVD."""

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200])
    @pytest.mark.parametrize("name", ORACLE_INPUTS)
    def test_matches_svd(self, name, scale):
        A = ORACLE_INPUTS[name] * scale
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        assert np.isfinite(sigma) and sigma > 0.0
        assert abs(spectral_norm(A) - sigma) <= 1e-13 * sigma

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 7), (50, 50)])
    def test_zero_matrix_is_exactly_zero(self, shape):
        assert spectral_norm(np.zeros(shape)) == 0.0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_is_zero_as_in_numpy(self, shape):
        assert spectral_norm(np.zeros(shape)) == np.linalg.norm(np.zeros(shape), 2) == 0.0

    def test_calls_no_svd(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("spectral_norm called the SVD")

        monkeypatch.setattr(np.linalg, "svd", forbidden)
        for A in ORACLE_INPUTS.values():
            spectral_norm(A)


class TestNullSpaceShapes:
    @pytest.mark.parametrize("shape", [(40, 7), (7, 40), (12, 12)])
    def test_kernel_dimension_tall_wide_square(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        rank = min(shape) - 2
        A = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        N = null_space(A)
        assert N.shape == (shape[1], shape[1] - rank)
        assert spectral_norm(N.T @ N - np.eye(N.shape[1])) <= 1e-12
        assert np.abs(A @ N).max() <= 1e-10 * spectral_norm(A)

    def test_cutoff_keeps_noise_out_of_the_rank(self):
        # a matrix of rounding-level entries has numerical rank 0 against
        # an absolute cutoff, but full rank against its own largest value
        A = 1e-13 * np.random.default_rng(7).standard_normal((30, 10))
        assert null_space(A, cutoff=1e-12).shape == (10, 10)
        assert null_space(A).shape == (10, 0)

    def test_cutoff_is_absolute_and_inclusive(self):
        # 1e-11 is rank under the relative policy (cutoff 3 * 1e-12 * 2), but
        # a singular value at most the cutoff spans the kernel
        A = np.diag([2.0, 1e-11, 0.0])
        assert null_space(A, cutoff=1e-11).shape == (3, 2)
        assert null_space(A, cutoff=1e-12).shape == null_space(A).shape == (3, 1)
        assert orthonormal_basis(A).shape[1] + null_space(A).shape[1] == 3


class TestSymmetricNorm:
    def test_negative_dominant_eigenvalue(self):
        assert symmetric_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-14)

    def test_positive_dominant_eigenvalue(self):
        assert symmetric_norm(np.diag([-3.0, 5.0])) == pytest.approx(5.0, abs=1e-14)

    def test_zero(self):
        assert symmetric_norm(np.zeros((3, 3))) == 0.0

    def test_discards_antisymmetric_part(self):
        # callers guarantee symmetry; an antisymmetric matrix reads as zero,
        # which is why symmetry tests use spectral_norm
        assert symmetric_norm(np.array([[0.0, 1.0], [-1.0, 0.0]])) == 0.0

    @pytest.mark.parametrize("shape", [(2, 3), (3, 0), (0, 2), (1, 2)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(InputError):
            symmetric_norm(np.zeros(shape))

    def test_empty_is_zero(self):
        assert symmetric_norm(np.zeros((0, 0))) == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(InputError):
            symmetric_norm(np.array([[1.0, np.nan], [np.nan, 1.0]]))
        with pytest.raises(InputError):
            symmetric_norm(np.array([[np.inf]]))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_spectral_norm_on_symmetric_input(self, seed):
        rng = np.random.default_rng(600 + seed)
        n = int(rng.integers(1, 120))
        A = rng.standard_normal((n, n))
        S = A + A.T
        if seed % 2:
            S = S - 3.0 * abs(np.linalg.eigvalsh(S)).max() * np.eye(n)  # negative definite
        assert abs(symmetric_norm(S) - spectral_norm(S)) <= 1e-12 * spectral_norm(S)


class TestRankTolerance:
    """The one rank policy: cutoff max(2 * 1e-12 * sigma_max, 1e-14) here."""

    def test_defaults(self):
        assert RANK_RELATIVE_EPS == 1e-12
        assert RANK_ABSOLUTE_FLOOR == 1e-14
        # reports echo the policy the kernels use
        assert DEFAULT_TOLERANCES["rank_relative_eps"] == RANK_RELATIVE_EPS
        assert DEFAULT_TOLERANCES["rank_absolute_floor"] == RANK_ABSOLUTE_FLOOR

    def test_tiny_singular_value_below_cutoff(self):
        A = np.diag([1.0, 1e-13])
        assert orthonormal_basis(A).shape[1] == 1
        assert null_space(A).shape[1] == 1

    def test_small_singular_value_above_cutoff(self):
        A = np.diag([1.0, 1e-11])
        assert orthonormal_basis(A).shape[1] == 2
        assert null_space(A).shape[1] == 0

    def test_absolute_floor(self):
        # relative cutoff 1e-27, but the floor makes the matrix rank 0
        A = np.array([[1e-15]])
        assert orthonormal_basis(A).shape[1] == 0
        assert null_space(A).shape[1] == 1
