import numpy as np
import pytest

from subalign import NormalizedProjection, fit_error_sq, optimal_rotation

from conftest import random_orthogonal


def random_normalized(rng, m, n, k) -> NormalizedProjection:
    mat = rng.standard_normal((m, n))
    return NormalizedProjection(np.sqrt(k) * mat / np.linalg.norm(mat), k)


class TestNormalizedProjection:
    def test_wrong_norm_rejected(self):
        for matrix in (np.ones((2, 3)), np.full((2, 3), np.nan)):
            with pytest.raises(ValueError, match="Frobenius"):
                NormalizedProjection(matrix, 1)

    def test_rejects_non_matrix_and_scale_dim_below_one(self):
        with pytest.raises(ValueError, match=r"^matrix must be 2-d, got shape \(3,\)$"):
            NormalizedProjection(np.ones(3), 1)
        with pytest.raises(ValueError, match="^scale_dim must be >= 1, got 0$"):
            NormalizedProjection(np.zeros((2, 3)), 0)

    def test_matrix_readonly(self, rng):
        x = random_normalized(rng, 3, 5, 2)
        with pytest.raises(ValueError):
            x.matrix[0, 0] = 0.0


class TestFitErrorSq:
    def test_perfect_fit(self, rng):
        x = random_normalized(rng, 4, 7, 2)
        assert fit_error_sq(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_orthogonal_row_spaces_hit_max(self, rng):
        # y @ x.T vanishes when every row of y is orthogonal to every row
        # of x; disjoint observation support is the simplest such case.
        k = 2
        left = rng.standard_normal((4, 3))
        x = np.zeros((4, 6))
        x[:, :3] = np.sqrt(k) * left / np.linalg.norm(left)
        right = rng.standard_normal((4, 3))
        y = np.zeros((4, 6))
        y[:, 3:] = np.sqrt(k) * right / np.linalg.norm(right)
        assert np.all(y @ x.T == 0.0)
        value = fit_error_sq(NormalizedProjection(x, k), NormalizedProjection(y, k))
        assert value == pytest.approx(2.0 * k)

    def test_matches_direct_evaluation(self, rng):
        for _ in range(50):
            x = random_normalized(rng, 2, 5, 2)
            y = random_normalized(rng, 2, 5, 2)
            q = optimal_rotation(x, y)
            direct = np.linalg.norm(q @ x.matrix - y.matrix) ** 2
            assert fit_error_sq(x, y) == pytest.approx(direct, abs=1e-9)

    def test_symmetry(self, rng):
        for _ in range(20):
            x = random_normalized(rng, 5, 9, 3)
            y = random_normalized(rng, 5, 9, 3)
            assert fit_error_sq(x, y) == pytest.approx(fit_error_sq(y, x), abs=1e-9)

    def test_left_orthogonal_invariance(self, rng):
        x = random_normalized(rng, 5, 9, 3)
        y = random_normalized(rng, 5, 9, 3)
        r = random_orthogonal(rng, 5)
        rx = NormalizedProjection(r @ x.matrix, 3)
        assert fit_error_sq(rx, y) == pytest.approx(fit_error_sq(x, y), abs=1e-9)

    def test_range(self, rng):
        for _ in range(50):
            x = random_normalized(rng, 4, 6, 2)
            y = random_normalized(rng, 4, 6, 2)
            assert 0.0 <= fit_error_sq(x, y) <= 4.0

    def test_shape_mismatch(self, rng):
        x = random_normalized(rng, 4, 6, 2)
        y = random_normalized(rng, 4, 7, 2)
        with pytest.raises(ValueError, match="shape mismatch"):
            fit_error_sq(x, y)

    def test_scale_dim_mismatch(self, rng):
        x = random_normalized(rng, 4, 6, 2)
        y = random_normalized(rng, 4, 6, 3)
        with pytest.raises(ValueError, match="scale_dim mismatch"):
            fit_error_sq(x, y)


class TestOptimalRotation:
    def test_orthogonality(self, rng):
        x = random_normalized(rng, 5, 8, 2)
        y = random_normalized(rng, 5, 8, 2)
        q = optimal_rotation(x, y)
        assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-9

    def test_identity_on_matched_input(self, rng):
        x = random_normalized(rng, 5, 8, 2)
        q = optimal_rotation(x, x)
        assert np.linalg.norm(q @ x.matrix - x.matrix) < 1e-9

    def test_exact_alignment_recovered(self, rng):
        x = random_normalized(rng, 5, 8, 2)
        r = random_orthogonal(rng, 5)
        y = NormalizedProjection(r @ x.matrix, 2)
        q = optimal_rotation(x, y)
        assert np.linalg.norm(q @ x.matrix - y.matrix) < 1e-9

    def test_beats_random_probes(self, rng):
        x = random_normalized(rng, 4, 7, 2)
        y = random_normalized(rng, 4, 7, 2)
        q = optimal_rotation(x, y)
        best = np.linalg.norm(q @ x.matrix - y.matrix) ** 2
        for _ in range(100):
            probe = random_orthogonal(rng, 4)
            assert best <= np.linalg.norm(probe @ x.matrix - y.matrix) ** 2 + 1e-12
