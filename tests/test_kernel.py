import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalign import (
    DegenerateProjectionError,
    RankDeficientError,
    apply_isometry,
    center,
    centered_gram,
    evaluate_gram,
    fit_error_sq,
    hausdorff_sq,
    identity_pair,
    make_cell,
    mvn_gram,
    mvn_sample,
    normalize_projected,
    pca_subspace,
    predicted_fit_error_sq,
    projector,
    residual,
    reversed_pair,
    rho,
    run_replicate,
    spiked_diag_pair,
    trivial_subspace,
    weighted_hausdorff_sq,
)

from conftest import random_joint_covariance

FIELDS = ("d_sq", "eth_sq", "eps_sq", "predicted", "residual", "d_sq_corrected")


def data_path_record(jc, k, n, method, seed, isometry=None) -> dict:
    """The replicate computed from the m x n data: center, subspaces, projectors."""
    pair = mvn_sample(jc, n, np.random.default_rng(seed))
    try:
        cx, cy = center(pair.x), center(pair.y)
        if method == "pca":
            a, b = pca_subspace(cx, k), pca_subspace(cy, k)
        else:
            a = b = trivial_subspace(jc.m, k)
        d_sq = hausdorff_sq(a, b)
        eth_sq = weighted_hausdorff_sq(a, b, jc.cov_xy)
        eps_sq = fit_error_sq(normalize_projected(projector(a), cx.matrix, k),
                              normalize_projected(projector(b), cy.matrix, k))
    except RankDeficientError:
        return {"status": "deficient_rank"}
    except DegenerateProjectionError:
        return {"status": "degenerate_projection"}
    predicted = predicted_fit_error_sq(rho(jc, k), k, eth_sq)
    corrected = hausdorff_sq(a, apply_isometry(isometry, b)) if isometry is not None else None
    return {"status": "ok", "d_sq": d_sq, "eth_sq": eth_sq, "eps_sq": eps_sq,
            "predicted": predicted, "residual": residual(eps_sq, predicted),
            "d_sq_corrected": corrected}


@st.composite
def cells(draw):
    m = draw(st.integers(2, 12))
    k = draw(st.integers(1, m))
    n = draw(st.sampled_from([k, k + 1, 50, 500]).filter(lambda v: v >= 2))
    kind = draw(st.sampled_from(["identity", "spiked", "reversed", "random"]))
    seed = draw(st.integers(0, 2**63 - 1))
    w = None
    if kind == "identity":
        jc = identity_pair(m, draw(st.floats(-1.0, 1.0)))
    elif kind == "spiked":
        lambda2 = draw(st.floats(0.5, 1.0))
        jc = spiked_diag_pair(m, lambda2, draw(st.floats(-0.5, 0.5)))
    elif kind == "reversed":
        jc, w = reversed_pair(m, draw(st.floats(0.5, 1.0)), draw(st.floats(-0.5, 0.5)))
    else:
        jc = random_joint_covariance(np.random.default_rng(seed), m)
    return jc, w, k, n, draw(st.sampled_from(["pca", "trivial"])), seed


class TestDifferential:
    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(cells())
    def test_kernel_matches_data_path(self, cell):
        jc, w, k, n, method, seed = cell
        want = data_path_record(jc, k, n, method, seed, w)
        got = run_replicate(make_cell(jc, k, w), n, seed, method=method)
        assert got.status == want["status"]
        if got.status == "ok":
            for field in FIELDS:
                if want[field] is None:
                    assert getattr(got, field) is None
                else:
                    assert getattr(got, field) == pytest.approx(want[field], abs=1e-10), field

    def test_gram_matches_data_sampler(self):
        jc, _ = reversed_pair(8, 0.7, 0.6)
        pair = mvn_sample(jc, 300, np.random.default_rng(11))
        want = centered_gram(np.vstack([pair.x, pair.y]))
        got = mvn_gram(jc, 300, np.random.default_rng(11))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestRankTolerance:
    @pytest.mark.parametrize("m", [2, 3, 6, 12])
    def test_n_at_most_k_is_deficient(self, m):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, m + 1))
            n = int(rng.integers(2, k + 1))
            jc = random_joint_covariance(rng, m)
            assert run_replicate(make_cell(jc, k), n, seed, method="pca").status == "deficient_rank", (k, n)

    @pytest.mark.parametrize("m", [2, 3, 6, 12])
    def test_n_is_k_plus_one_is_ok(self, m):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, m + 1))
            jc = random_joint_covariance(rng, m)
            assert run_replicate(make_cell(jc, k), k + 1, seed, method="pca").status == "ok"

    def test_exactly_collinear_rows_are_deficient(self):
        # Rank 1 data with many observations: the zero eigenvalues are
        # round-off, far below the lambda_1 * max(m, n) * eps threshold.
        v = np.random.default_rng(3).standard_normal(5000)
        data = np.vstack([v, 2 * v, -v, 0.5 * v])
        gram = centered_gram(np.vstack([data, data]))
        assert evaluate_gram(gram, 1, "pca", 5000).status == "ok"
        assert evaluate_gram(gram, 2, "pca", 5000).status == "deficient_rank"

    def test_threshold_is_on_the_squared_scale(self):
        # sigma_2 / sigma_1 = 1e-5 is resolved (lambda ratio 1e-10); 1e-9 is
        # not (lambda ratio 1e-18, below eigenvalue round-off).
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((400, 2)))
        for ratio, status in ((1e-5, "ok"), (1e-9, "deficient_rank")):
            x = np.diag([1.0, ratio]) @ q.T
            gram = centered_gram(np.vstack([x, x]))
            assert evaluate_gram(gram, 2, "pca", 400).status == status

    def test_trivial_method_has_no_rank_check(self):
        rec = run_replicate(make_cell(identity_pair(6, 0.5), 4), 3, 1, method="trivial")
        assert rec.status == "ok"


def random_data(seed, m, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    return x, 0.6 * x + 0.8 * rng.standard_normal((m, n))


class TestProperties:
    @settings(deadline=None, max_examples=100)
    @given(st.integers(2, 10), st.data(), st.integers(0, 2**32 - 1),
           st.sampled_from(["pca", "trivial"]))
    def test_eps_symmetric_in_x_and_y(self, m, data, seed, method):
        k = data.draw(st.integers(1, m))
        x, y = random_data(seed, m, 40)
        xy = evaluate_gram(centered_gram(np.vstack([x, y])), k, method, 40)
        yx = evaluate_gram(centered_gram(np.vstack([y, x])), k, method, 40)
        assert xy.eps_sq == pytest.approx(yx.eps_sq, abs=1e-10)
        assert xy.d_sq == pytest.approx(yx.d_sq, abs=1e-10)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(2, 10), st.data(), st.integers(0, 2**32 - 1),
           st.floats(1e-6, 1e6), st.sampled_from(["pca", "trivial"]))
    def test_eps_invariant_to_scaling_x(self, m, data, seed, c, method):
        k = data.draw(st.integers(1, m))
        x, y = random_data(seed, m, 40)
        base = evaluate_gram(centered_gram(np.vstack([x, y])), k, method, 40)
        scaled = evaluate_gram(centered_gram(np.vstack([c * x, y])), k, method, 40)
        assert scaled.status == base.status == "ok"
        assert scaled.eps_sq == pytest.approx(base.eps_sq, abs=1e-9)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(2, 10), st.data(), st.integers(0, 2**32 - 1),
           st.floats(0.1, 2.0))
    def test_weighted_distance_absorbs_isometry(self, m, data, seed, beta):
        # eth^2(A, B) = d^2(A, W B) when Cov(X, Y) = beta W, W orthogonal.
        k = data.draw(st.integers(1, m))
        rng = np.random.default_rng(seed)
        w, r = np.linalg.qr(rng.standard_normal((m, m)))
        x, y = random_data(seed, m, 40)
        out = evaluate_gram(centered_gram(np.vstack([x, y])), k, "pca", 40, beta * w,
                            isometry=w)
        assert out.eth_sq == pytest.approx(out.d_sq_corrected, abs=1e-9)
        for value in (out.d_sq, out.eth_sq, out.eps_sq):
            assert 0.0 <= value <= 2.0 * k


class TestEvaluateGram:
    def test_scale_of_gram_does_not_matter(self):
        x, y = random_data(5, 6, 50)
        gram = centered_gram(np.vstack([x, y]))
        a = evaluate_gram(gram, 2, "pca", 50, np.eye(6))
        b = evaluate_gram(gram / 49.0, 2, "pca", 50, np.eye(6))
        for field in ("d_sq", "eth_sq", "eps_sq"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)

    def test_degenerate_projection(self):
        x = np.vstack([np.zeros((2, 30)), np.random.default_rng(1).standard_normal((3, 30))])
        gram = centered_gram(np.vstack([x, x]))
        assert evaluate_gram(gram, 2, "trivial", 30).status == "degenerate_projection"

    def test_without_weight_has_no_eth(self):
        x, y = random_data(6, 4, 30)
        out = evaluate_gram(centered_gram(np.vstack([x, y])), 2, "pca", 30)
        assert out.status == "ok" and out.eth_sq is None and out.d_sq_corrected is None

    def test_input_validation(self):
        gram = np.eye(6)
        with pytest.raises(ValueError, match="2m x 2m"):
            evaluate_gram(np.eye(5), 1, "pca", 10)
        with pytest.raises(ValueError, match="k"):
            evaluate_gram(gram, 4, "pca", 10)
        with pytest.raises(ValueError, match="method"):
            evaluate_gram(gram, 1, "svd", 10)
        with pytest.raises(ValueError, match="2 observations"):
            centered_gram(np.ones((3, 1)))
