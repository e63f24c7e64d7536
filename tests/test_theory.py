import numpy as np
import pytest

from subalign import (
    JointCovariance,
    Subspace,
    center,
    hausdorff_sq,
    identity_pair,
    plugin_rho,
    predicted_fit_error_sq,
    reversed_pair,
    rho,
    spiked_diag_pair,
    weighted_hausdorff_sq,
)
from subalign.kernel import center_gram_inplace

from conftest import cell_of, random_joint_covariance, random_subspace


class TestRho:
    def test_identity_pair_gives_beta(self):
        for k in range(1, 6):
            assert rho(identity_pair(6, 0.3), k) == pytest.approx(0.3, abs=1e-12)

    def test_spiked_diag_values(self):
        jc = spiked_diag_pair(20, 0.7, 0.6)
        assert rho(jc, 1) == pytest.approx(0.6, abs=1e-9)
        assert rho(jc, 2) == pytest.approx(12.0 / 17.0, abs=1e-9)
        assert rho(jc, 10) == pytest.approx(6.0 / 7.3, abs=1e-9)

    def test_zero_cross_covariance(self):
        assert rho(identity_pair(6, 0.0), 2) == 0.0

    def test_bounds_fuzz(self, rng):
        for _ in range(300):
            m = int(rng.integers(2, 9))
            jc = random_joint_covariance(rng, m)
            k = int(rng.integers(1, m + 1))
            assert 0.0 <= rho(jc, k) <= 1.0

    def test_perfectly_correlated_hits_one(self):
        assert rho(identity_pair(4, 1.0), 2) == pytest.approx(1.0, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="1 <= k <= m"):
            rho(identity_pair(4, 0.5), 5)

    def test_scale_invariance(self):
        jc = spiked_diag_pair(12, 0.7, 0.4)
        scaled = JointCovariance(3.0 * jc.cov_x, 3.0 * jc.cov_y, 3.0 * jc.cov_xy)
        assert rho(scaled, 2) == pytest.approx(rho(jc, 2), abs=1e-12)


class TestPredictedFitErrorSq:
    def test_fully_correlated_returns_distance(self):
        assert predicted_fit_error_sq(1.0, 2, 1.234) == pytest.approx(1.234)

    def test_uncorrelated_returns_max(self):
        assert predicted_fit_error_sq(0.0, 2, 1.234) == pytest.approx(4.0)

    def test_halfway(self):
        assert predicted_fit_error_sq(0.5, 2, 0.0) == pytest.approx(2.0)

    def test_stays_between_distance_and_max(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 6))
            r = float(rng.uniform(0, 1))
            eth = float(rng.uniform(0, 2 * k))
            value = predicted_fit_error_sq(r, k, eth)
            assert eth - 1e-12 <= value <= 2.0 * k + 1e-12

    def test_range_violations_raise(self):
        with pytest.raises(ValueError, match="rho"):
            predicted_fit_error_sq(1.5, 2, 1.0)
        with pytest.raises(ValueError, match="eth_sq"):
            predicted_fit_error_sq(0.5, 2, -0.5)
        with pytest.raises(ValueError, match="eth_sq"):
            predicted_fit_error_sq(0.5, 2, 4.5)

    def test_array_form_is_the_scalar_form_bit_for_bit(self):
        # A grid over rho, k and eth^2, with the clamp edges: rho and eth^2
        # within 1e-9 below 0 or above their maxima, exactly at them, and the
        # smallest subnormal.
        rhos = [-1e-9, -5e-10, -0.0, 0.0, 5e-324, 0.3, 0.5, 12.0 / 17.0, 1.0 - 2**-53, 1.0,
                1.0 + 5e-10, 1.0 + 1e-9]
        grid = []
        for k in (1, 2, 3, 10):
            eths = [-1e-9, -1e-12, 0.0, 5e-324, 0.1, 0.5 * k, 2.0 * k - 1e-12, 2.0 * k,
                    2.0 * k + 1e-9]
            grid += [(r, k, e) for r in rhos for e in eths]
        r, k, e = (np.array(column) for column in zip(*grid))
        got = predicted_fit_error_sq(r, k, e)
        want = np.array([predicted_fit_error_sq(*point) for point in grid])
        assert got.dtype == np.float64 and got.shape == (len(grid),)
        assert got.tobytes() == want.tobytes()

        def python_floats(r, k, e):  # the formula on Python floats, clamped by min and max
            r, e = min(max(r, 0.0), 1.0), min(max(e, 0.0), 2.0 * k)
            return (1.0 - r) * 2.0 * k + r * e

        assert want.tobytes() == np.array([python_floats(*point) for point in grid]).tobytes()
        # A scalar rho and k against an eth^2 column, as the simulator calls it.
        column = np.linspace(0.0, 4.0, 17)
        assert predicted_fit_error_sq(0.3, 2, column).tobytes() == np.array(
            [predicted_fit_error_sq(0.3, 2, float(x)) for x in column]).tobytes()
        assert type(predicted_fit_error_sq(0.3, 2, 1.0)) is float

    @pytest.mark.parametrize("rho_value, k, eth_sq, match", [
        ([0.5, 1.5], 2, [1.0, 1.0], "rho"),
        ([0.5, np.nan], 2, [1.0, 1.0], "rho"),
        (0.5, 2, [1.0, -0.5], "eth_sq"),
        (0.5, [1, 2], [2.5, 2.5], "eth_sq"),
        (0.5, 2, [1.0, np.nan], "eth_sq"),
        (0.5, [2, 0], [1.0, 0.0], "k"),
    ])
    def test_array_range_violations_raise(self, rho_value, k, eth_sq, match):
        with pytest.raises(ValueError, match=match):
            predicted_fit_error_sq(np.array(rho_value), np.array(k), np.array(eth_sq))


class TestIdentityPairRho:
    """A cell of the identity pair at beta has rho = |beta|: devices of accuracy gamma give gamma^2."""

    @pytest.mark.parametrize("beta", [0.0, 0.64, 1.0, -0.64])
    def test_values(self, beta):
        for k in (1, 4):
            assert cell_of(identity_pair(4, beta), k).rho == pytest.approx(abs(beta), abs=1e-15)


def test_weighted_prediction_matches_corrected_distance_prediction(rng):
    # For the coordinate-reversed model, predicting from the weighted
    # distance or from the plain distance to the un-permuted subspace gives
    # the same line, for any pair of subspaces.
    jc, w = reversed_pair(10, 0.7, 0.6)
    for k in (1, 2, 4):
        r = rho(jc, k)
        ratio = 0.6 / np.sort(np.diag(jc.cov_x))[::-1][:k].mean()
        assert r == pytest.approx(ratio, abs=1e-12)
        for _ in range(10):
            a = random_subspace(rng, 10, k)
            b = random_subspace(rng, 10, k)
            via_weighted = predicted_fit_error_sq(r, k, weighted_hausdorff_sq(a, b, jc.cov_xy))
            via_corrected = predicted_fit_error_sq(
                ratio, k, hausdorff_sq(a, Subspace(w @ b.basis))
            )
            assert via_weighted == pytest.approx(via_corrected, abs=1e-9)


class TestPluginRho:
    def test_recovers_true_value(self):
        jc = identity_pair(6, 0.5)
        z = jc.root @ np.random.default_rng(7).standard_normal((12, 20_000))
        estimate = plugin_rho(center_gram_inplace(z), 2)
        assert estimate == pytest.approx(0.5, abs=0.05)
        assert 0.0 <= estimate <= 1.0

    def test_identical_data_gives_one(self, rng):
        data = rng.standard_normal((5, 200))
        assert plugin_rho(center_gram_inplace(np.vstack([data, data])), 2) == pytest.approx(
            1.0, abs=1e-9)

    def test_shape_mismatch(self, rng):
        gram = center_gram_inplace(rng.standard_normal((5, 30)))
        with pytest.raises(ValueError, match="shape mismatch"):
            plugin_rho(gram, 2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_gram_rejected(self, bad):
        # Its SVDs gave rho = NaN for an infinite matrix, and failed to converge on a NaN one.
        with pytest.raises(ValueError, match="non-finite entries"):
            plugin_rho(np.full((4, 4), bad), 1)

    def test_matches_sample_covariance_definition(self, rng):
        # Oracle: rho of the sample covariance blocks, with their 1 / (n - 1).
        x, y = rng.standard_normal((2, 6, 80))
        cx, cy = center(x).matrix, center(y).matrix

        def top3(a, b):
            return np.linalg.svd(a @ b.T / 79, compute_uv=False)[:3].sum()

        want = top3(cx, cy) / np.sqrt(top3(cx, cx) * top3(cy, cy))
        gram = center_gram_inplace(np.vstack([x, y]))
        assert plugin_rho(gram, 3) == pytest.approx(want, abs=1e-12)

    def test_equals_rho_of_the_sample_blocks(self, rng):
        # plugin_rho and rho share one formula: rho of a JointCovariance built
        # from the sample covariance blocks is the plug-in estimate.
        for m, n in ((4, 30), (6, 200), (9, 12)):
            x = rng.standard_normal((m, n))
            y = 0.5 * x + rng.standard_normal((m, n))
            gram = center_gram_inplace(np.vstack([x, y]))
            cov = gram / (n - 1)
            jc = JointCovariance(cov[:m, :m], cov[m:, m:], cov[:m, m:])
            for k in range(1, m + 1):
                assert plugin_rho(gram, k) == pytest.approx(rho(jc, k), abs=1e-12)
