import numpy as np
import pytest

from subalign import (
    JointCovariance,
    identity_pair,
    mvn_grams,
    reversed_pair,
    spiked_diag_pair,
)

from conftest import joint_block


class TestJointCovariance:
    def test_block_assembly(self):
        # The root squares to [[cov_x, cov_xy], [cov_xy^T, cov_y]]: Cov(X, Y) above the diagonal.
        cross = np.array([[0.3, 0.2, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.5]])
        jc = JointCovariance(np.eye(3), 2 * np.eye(3), cross)
        want = np.block([[np.eye(3), cross], [cross.T, 2 * np.eye(3)]])
        np.testing.assert_allclose(jc.root @ jc.root, want, rtol=0, atol=1e-12)

    def test_rejects_asymmetric(self):
        bad = np.eye(3)
        bad[0, 1] = 0.3
        with pytest.raises(ValueError, match="symmetric"):
            JointCovariance(bad, np.eye(3), np.zeros((3, 3)))

    def test_rejects_zero_block(self):
        with pytest.raises(ValueError, match="nonzero"):
            JointCovariance(np.zeros((3, 3)), np.eye(3), np.zeros((3, 3)))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            JointCovariance(np.diag([1.0, -0.5]), np.eye(2), np.zeros((2, 2)))

    def test_rejects_infeasible_cross(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            JointCovariance(np.eye(2), np.eye(2), 1.5 * np.eye(2))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="m x m"):
            JointCovariance(np.eye(3), np.eye(2), np.zeros((3, 3)))

    def test_arrays_are_readonly_copies(self):
        # The instance owns read-only copies; the caller's arrays stay its own and writeable.
        given = [np.eye(3, dtype=np.float32), 2 * np.eye(3), 0.5 * np.eye(3)]
        jc = JointCovariance(*given)
        for mat in (jc.cov_x, jc.cov_y, jc.cov_xy, jc.root):
            assert mat.dtype == np.float64
            assert not mat.flags.writeable and mat.flags.owndata
            assert not any(np.shares_memory(mat, g) for g in given)
        with pytest.raises(ValueError, match="read-only"):
            jc.root[0, 0] = 0.0
        assert all(g.flags.writeable for g in given)
        given[1][0, 0] = 5.0
        assert jc.cov_y[0, 0] == 2.0

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
    def test_accepts_singular_model_at_any_scale(self, scale):
        # Rank 3 of 24, perfectly correlated: round-off in the zero
        # eigenvalues grows with the scale (about -8e-8 at 1e8).
        g = np.random.default_rng(0).standard_normal((12, 3))
        cov = scale * (g @ g.T)
        jc = JointCovariance(cov, cov, cov)
        assert np.allclose(jc.root @ jc.root, joint_block(jc), rtol=0, atol=1e-8 * scale)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
    def test_rejects_infeasible_model_at_any_scale(self, scale):
        asymmetric = np.eye(3)
        asymmetric[0, 1] = 0.3
        cov = spiked_diag_pair(6, 0.7, 0.5).cov_x
        cases = [
            ((asymmetric, np.eye(3), np.zeros((3, 3))), "symmetric"),
            ((np.diag([1.0, -0.5]), np.eye(2), np.zeros((2, 2))), "positive semidefinite"),
            ((cov, cov, 2 * np.eye(6)), "positive semidefinite"),
        ]
        for blocks, match in cases:
            with pytest.raises(ValueError, match=match):
                JointCovariance(*(scale * b for b in blocks))


class TestMvnSample:
    """The Gaussian sampler, through the centered Gram matrices ``mvn_grams`` returns."""

    def test_perfectly_correlated_pair_is_equal(self):
        for s in mvn_grams(identity_pair(6, 1.0), 50, [20240817, 1, 2]):
            scale = np.abs(s).max()
            for block in (s[6:, 6:], s[:6, 6:]):
                np.testing.assert_allclose(block, s[:6, :6], rtol=0, atol=1e-12 * scale)

    def test_independent_pair_uncorrelated(self):
        (s,) = mvn_grams(identity_pair(6, 0.0), 100_000, [5])
        assert np.max(np.abs(s[:6, 6:] / (100_000 - 1))) < 0.05

    def test_cross_covariance_converges(self):
        (s,) = mvn_grams(identity_pair(6, 0.5), 100_000, [6])
        np.testing.assert_allclose(s[:6, 6:] / (100_000 - 1), 0.5 * np.eye(6), atol=0.02)

    def test_seed_reproducibility(self):
        # A seed gives the same matrix again, wherever it stands in a chunk.
        jc = spiked_diag_pair(8, 0.7, 0.4)
        a = mvn_grams(jc, 100, [42, 7])
        b = mvn_grams(jc, 100, [7, 42])
        assert a.tobytes() == b[::-1].tobytes()
        assert not np.array_equal(a[0], a[1])

    def test_requires_positive_n(self):
        with pytest.raises(ValueError, match="2 observations"):
            mvn_grams(identity_pair(3, 0.0), 1, [0])


class TestPresets:
    def test_identity_pair_near_singular(self):
        jc = identity_pair(6, 0.99)
        low = np.linalg.eigvalsh(joint_block(jc)).min()
        assert low == pytest.approx(0.01, abs=1e-10)

    def test_identity_pair_singular_boundary(self):
        jc = identity_pair(6, 1.0)
        assert np.linalg.eigvalsh(joint_block(jc)).min() == pytest.approx(0.0, abs=1e-10)

    def test_identity_pair_infeasible(self):
        with pytest.raises(ValueError, match="beta"):
            identity_pair(6, 1.5)

    def test_spiked_diag_base_case(self):
        jc = spiked_diag_pair(20, 0.7, 0.6)
        expected = np.full(20, 0.7)
        expected[0] = 1.0
        assert np.allclose(np.diag(jc.cov_x), expected)
        assert np.allclose(jc.cov_xy, 0.6 * np.eye(20))

    def test_spiked_diag_sweep_point(self):
        jc = spiked_diag_pair(20, 0.75, 0.6)
        assert jc.cov_x[1, 1] == 0.75

    def test_spiked_diag_zero_cross(self):
        jc = spiked_diag_pair(20, 0.7, 0.0)
        assert np.all(jc.cov_xy == 0.0)

    def test_spiked_diag_infeasible(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            spiked_diag_pair(20, 0.7, 0.9)

    def test_reversed_pair_structure(self):
        jc, w = reversed_pair(20, 0.7, 0.6)
        assert np.allclose(w @ w.T, np.eye(20))
        assert np.allclose(jc.cov_y, w @ jc.cov_x @ w.T)
        assert np.allclose(np.diag(np.fliplr(jc.cov_xy)), 0.6)
        assert jc.cov_y[19, 19] == 1.0

    def test_reversed_pair_general_m(self):
        jc, w = reversed_pair(8, 0.72, 0.5)
        assert jc.m == 8
        assert np.allclose(jc.cov_xy, 0.5 * w)
