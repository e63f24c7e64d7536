import numpy as np
import pytest

from subalign import (
    JointCovariance,
    ScientistParams,
    identity_pair,
    mvn_sample,
    reversed_pair,
    scientists_covariance,
    scientists_sample,
    spiked_diag_pair,
)


def sample_block_cov(pair):
    stacked = np.vstack([pair.x, pair.y])
    centered = stacked - stacked.mean(axis=1, keepdims=True)
    return centered @ centered.T / (stacked.shape[1] - 1)


class TestJointCovariance:
    def test_block_assembly(self):
        jc = identity_pair(3, 0.5)
        block = jc.block()
        assert block.shape == (6, 6)
        assert np.allclose(block[:3, 3:], 0.5 * np.eye(3))
        assert np.allclose(block, block.T)

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

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e8])
    def test_accepts_singular_model_at_any_scale(self, scale):
        # Rank 3 of 24, perfectly correlated: round-off in the zero
        # eigenvalues grows with the scale (about -8e-8 at 1e8).
        g = np.random.default_rng(0).standard_normal((12, 3))
        cov = scale * (g @ g.T)
        jc = JointCovariance(cov, cov, cov)
        assert np.allclose(jc.root @ jc.root, jc.block(), rtol=0, atol=1e-8 * scale)

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


class TestScientistParams:
    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma"):
            ScientistParams(m=4, gamma=1.2)

    def test_alpha_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            ScientistParams(m=4, gamma=0.5, alpha=0.0)

    def test_scenario_names(self):
        with pytest.raises(ValueError, match="scenario"):
            ScientistParams(m=4, gamma=0.5, scenario="other")

    def test_base_names(self):
        with pytest.raises(ValueError, match="base"):
            ScientistParams(m=4, gamma=0.5, base="cauchy")


class TestScientistsSample:
    @pytest.mark.parametrize("scenario", ["mixture", "linear"])
    def test_perfect_accuracy_gives_equal_measurements(self, scenario, rng):
        params = ScientistParams(m=5, gamma=1.0, scenario=scenario)
        pair = scientists_sample(params, 100, rng)
        assert np.array_equal(pair.x, pair.y)

    @pytest.mark.parametrize("scenario", ["mixture", "linear"])
    def test_zero_accuracy_gives_uncorrelated_measurements(self, scenario):
        params = ScientistParams(m=6, gamma=0.0, scenario=scenario)
        pair = scientists_sample(params, 100_000, np.random.default_rng(1))
        cross = sample_block_cov(pair)[:6, 6:]
        assert np.max(np.abs(cross)) < 0.05

    def test_linear_cross_covariance(self):
        params = ScientistParams(m=6, gamma=0.8, scenario="linear")
        pair = scientists_sample(params, 100_000, np.random.default_rng(2))
        cross_diag = np.diag(sample_block_cov(pair)[:6, 6:])
        assert np.allclose(cross_diag, 0.64, atol=0.02)

    @pytest.mark.parametrize("scenario", ["mixture", "linear"])
    @pytest.mark.parametrize("base", ["normal", "uniform"])
    def test_sample_block_matches_analytic(self, scenario, base):
        params = ScientistParams(m=4, gamma=0.6, scenario=scenario, base=base, alpha=1.0)
        pair = scientists_sample(params, 100_000, np.random.default_rng(3))
        observed = sample_block_cov(pair)
        expected = scientists_covariance(params).block()
        assert np.max(np.abs(observed - expected)) < 0.05

    def test_uniform_base_variance_scales_with_alpha(self):
        params = ScientistParams(m=3, gamma=0.5, base="uniform", alpha=2.5)
        pair = scientists_sample(params, 100_000, np.random.default_rng(4))
        assert np.allclose(pair.x.var(axis=1), 2.5, atol=0.1)

    def test_requires_positive_n(self, rng):
        with pytest.raises(ValueError, match="n must be"):
            scientists_sample(ScientistParams(m=3, gamma=0.5), 0, rng)

    def test_induced_covariance(self):
        jc = scientists_covariance(ScientistParams(m=4, gamma=0.8, alpha=2.0))
        assert np.allclose(jc.cov_x, 2.0 * np.eye(4))
        assert np.allclose(jc.cov_xy, 0.64 * 2.0 * np.eye(4))


class TestMvnSample:
    def test_perfectly_correlated_pair_is_equal(self, rng):
        jc = identity_pair(6, 1.0)
        pair = mvn_sample(jc, 50, rng)
        assert np.allclose(pair.x, pair.y, atol=1e-12)

    def test_independent_pair_uncorrelated(self):
        pair = mvn_sample(identity_pair(6, 0.0), 100_000, np.random.default_rng(5))
        cross = sample_block_cov(pair)[:6, 6:]
        assert np.max(np.abs(cross)) < 0.05

    def test_cross_covariance_converges(self):
        pair = mvn_sample(identity_pair(6, 0.5), 100_000, np.random.default_rng(6))
        cross_diag = np.diag(sample_block_cov(pair)[:6, 6:])
        assert np.allclose(cross_diag, 0.5, atol=0.02)

    def test_seed_reproducibility(self):
        jc = spiked_diag_pair(8, 0.7, 0.4)
        a = mvn_sample(jc, 100, np.random.default_rng(42))
        b = mvn_sample(jc, 100, np.random.default_rng(42))
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_requires_positive_n(self, rng):
        with pytest.raises(ValueError, match="n must be"):
            mvn_sample(identity_pair(3, 0.0), 0, rng)


class TestPresets:
    def test_identity_pair_near_singular(self):
        jc = identity_pair(6, 0.99)
        low = np.linalg.eigvalsh(jc.block()).min()
        assert low == pytest.approx(0.01, abs=1e-10)

    def test_identity_pair_singular_boundary(self):
        jc = identity_pair(6, 1.0)
        assert np.linalg.eigvalsh(jc.block()).min() == pytest.approx(0.0, abs=1e-10)

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
