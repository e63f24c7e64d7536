import warnings

import numpy as np
import pytest

from subalign import (
    CenteredData,
    Subspace,
    center,
    pca_subspace,
    principal_angles,
    projector,
)
from subalign.kernel import center_gram_inplace

from conftest import evaluate_one, random_subspace


class TestCenter:
    def test_single_row(self):
        assert np.allclose(center(np.array([[1.0, 3.0]])).matrix, [[-1.0, 1.0]])

    def test_constant_rows_vanish(self):
        data = np.tile([[2.0], [-7.0]], (1, 5))
        assert np.allclose(center(data).matrix, 0.0)

    def test_idempotent(self, rng):
        data = rng.standard_normal((6, 100))
        once = center(data).matrix
        twice = center(once).matrix
        assert np.max(np.abs(twice - once)) < 1e-12

    def test_row_sums_zero(self, rng):
        c = center(rng.standard_normal((4, 50)) + 3.0)
        assert np.max(np.abs(c.matrix.sum(axis=1))) < 1e-8 * 50

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-12, 1.0, 1e8, 1e12, 1e200, 1e300])
    def test_centering_check_is_relative_to_the_data(self, rng, scale):
        c = center(scale * (rng.standard_normal((6, 10_000)) + 3.0))
        assert np.array_equal(CenteredData(c.matrix).matrix, c.matrix)
        for bad in (scale * np.ones((2, 5)), np.full((2, 5), np.nan)):
            with pytest.raises(ValueError, match="not centered"):
                CenteredData(bad)

    @pytest.mark.parametrize("rows", [
        [[np.inf, 1.0, 2.0], [0.0, 1.0, -1.0]],
        [[-np.inf, 1.0, 2.0], [0.0, 1.0, -1.0]],
        [[np.inf, 1.0, 2.0], [-np.inf, 1.0, -1.0]],
    ], ids=["inf", "-inf", "both"])
    def test_infinite_entry_rejected(self, rows):
        # An infinite row sum passes a centering tolerance that is itself infinite.
        with pytest.raises(ValueError, match="infinite entries"):
            CenteredData(np.array(rows))

    def test_too_few_observations(self):
        with pytest.raises(ValueError, match="at least 2"):
            center(np.ones((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_data_rejected_without_a_warning(self, bad):
        # Subtracting the row means would warn on inf - inf, and the centering check
        # would then report a NaN row sum as "not centered".
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                center(np.array([[1.0, 2.0], [3.0, bad]]))


class TestPcaSubspace:
    def test_single_variance_direction(self):
        data = np.zeros((4, 6))
        data[0] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5]
        sub = pca_subspace(center(data), 1)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.allclose(projector(sub), expected)

    def test_ordered_by_variance(self):
        data = np.array([
            [2.0, -2.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, -1.0],
            [0.0, 0.0, 0.0, 0.0],
        ])
        sub = pca_subspace(center(data), 1)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.allclose(projector(sub), expected)

    def test_recovers_spiked_direction(self):
        gen = np.random.default_rng(5)
        scale = np.full(20, np.sqrt(0.7))
        scale[0] = 1.0
        data = scale[:, None] * gen.standard_normal((20, 100_000))
        sub = pca_subspace(center(data), 1)
        e1 = Subspace(np.eye(20)[:, :1])
        assert principal_angles(sub, e1)[0] < 0.1

    def test_rank_deficient(self, rng):
        v = rng.standard_normal(10)
        data = np.vstack([v, 2.0 * v, -v])
        with pytest.raises(ValueError, match="deficient rank"):
            pca_subspace(center(data), 2)

    def test_k_out_of_range(self, rng):
        c = center(rng.standard_normal((3, 8)))
        with pytest.raises(ValueError, match="1 <= k <= m"):
            pca_subspace(c, 4)
        with pytest.raises(ValueError, match="1 <= k <= m"):
            pca_subspace(c, 0)

    def test_deterministic(self, rng):
        c = center(rng.standard_normal((6, 40)))
        first = pca_subspace(c, 3).basis
        second = pca_subspace(c, 3).basis
        assert first.tobytes() == second.tobytes()

    def test_satisfies_subspace_invariants(self, rng):
        sub = pca_subspace(center(rng.standard_normal((7, 60))), 3)
        assert np.max(np.abs(sub.basis.T @ sub.basis - np.eye(3))) < 1e-10

    def test_maximizes_captured_variance(self, rng):
        c = center(rng.standard_normal((8, 200)))
        sample_cov = c.matrix @ c.matrix.T / (c.n - 1)
        p = projector(pca_subspace(c, 3))
        captured = np.trace(p @ sample_cov @ p)
        for _ in range(100):
            q = projector(random_subspace(rng, 8, 3))
            assert captured >= np.trace(q @ sample_cov @ q) - 1e-9


def test_projected_trace_approaches_topk_spectral_mass():
    # With identity covariance the mean projected variance per direction is
    # 1, so the k = 2 projected trace of the sample covariance settles at 2.
    gen = np.random.default_rng(11)
    data = gen.standard_normal((6, 100_000))
    c = center(data)
    p = projector(pca_subspace(c, 2))
    value = np.trace(p @ c.matrix @ c.matrix.T @ p.T) / (c.n - 1)
    assert value == pytest.approx(2.0, rel=0.02)


class TestTrivialSubspace:
    """The PCA-free baseline span{e_1, ..., e_k}: the kernel's ``method="trivial"``."""

    def test_first_two_coordinates(self, rng):
        # Its eps^2 is the Procrustes error between the first two rows of X and of Y.
        x, y = rng.standard_normal((2, 6, 50))
        out = evaluate_one(center_gram_inplace(np.vstack([x, y])), 2, "trivial", 50)
        cx, cy = center(x[:2]).matrix, center(y[:2]).matrix
        nuclear = np.linalg.svd(cy @ cx.T, compute_uv=False).sum()
        want = 4.0 - 4.0 * nuclear / (np.linalg.norm(cx) * np.linalg.norm(cy))
        assert out.eps_sq == pytest.approx(want, abs=1e-12)

    def test_full_space(self, rng):
        gram = center_gram_inplace(rng.standard_normal((8, 30)))
        trivial, pca = (evaluate_one(gram, 4, method, 30) for method in ("trivial", "pca"))
        assert trivial.eps_sq == pytest.approx(pca.eps_sq, abs=1e-12)

    def test_self_distance_zero(self, rng):
        gram = center_gram_inplace(rng.standard_normal((12, 40)))
        assert evaluate_one(gram, 2, "trivial", 40).d_sq == 0.0

    def test_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(ValueError, match="1 <= k <= m"):
                evaluate_one(np.eye(6), k, "trivial", 10)
