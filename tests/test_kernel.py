import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subalign import (
    ExperimentConfig,
    JointCovariance,
    NormalizedProjection,
    Subspace,
    center,
    fit_error_sq,
    hausdorff_sq,
    identity_pair,
    mvn_grams,
    pca_subspace,
    predicted_fit_error_sq,
    projector,
    reversed_pair,
    rho,
    run_experiment,
    run_replicates,
    spiked_diag_pair,
    weighted_hausdorff_sq,
)
from subalign import sim
from subalign.kernel import STATUSES, center_gram_inplace, evaluate_grams

from conftest import (Row, assert_tables_equal, cell_of, evaluate_one, random_joint_covariance,
                      stack_rows)

FIELDS = ("d_sq", "eth_sq", "eps_sq", "predicted", "residual", "d_sq_corrected")


def data_path_record(jc, k, n, method, seed, isometry=None) -> dict:
    """The replicate computed from the m x n data: center, subspaces, projectors."""
    m = jc.m
    z = jc.root @ np.random.default_rng(seed).standard_normal((2 * m, n))
    cx, cy = center(z[:m]), center(z[m:])
    if method == "pca":
        try:
            a, b = pca_subspace(cx, k), pca_subspace(cy, k)
        except ValueError as exc:
            assert "deficient rank" in str(exc)
            return {"status": "deficient_rank"}
    else:
        a = b = Subspace(np.eye(m)[:, :k])
    d_sq = hausdorff_sq(a, b)
    eth_sq = weighted_hausdorff_sq(a, b, jc.cov_xy)
    px, py = projector(a) @ cx.matrix, projector(b) @ cy.matrix
    fx, fy = np.linalg.norm(px), np.linalg.norm(py)
    if min(fx, fy) ** 2 < 1e-300:  # the kernel's degenerate-projection threshold
        return {"status": "degenerate_projection"}
    eps_sq = fit_error_sq(NormalizedProjection(np.sqrt(k) / fx * px, k),
                          NormalizedProjection(np.sqrt(k) / fy * py, k))
    predicted = predicted_fit_error_sq(rho(jc, k), k, eth_sq)
    corrected = None if isometry is None else hausdorff_sq(a, Subspace(isometry @ b.basis))
    return {"status": "ok", "d_sq": d_sq, "eth_sq": eth_sq, "eps_sq": eps_sq,
            "predicted": predicted, "residual": eps_sq - predicted,
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
        got = run_replicates(cell_of(jc, k, w), n, [seed], method=method)
        assert STATUSES[got.status[0]] == want["status"]
        if want["status"] == "ok":
            for field in FIELDS:
                value = getattr(got, field)[0]
                if want[field] is None:
                    assert np.isnan(value), field
                else:
                    assert value == pytest.approx(want[field], abs=1e-10), field

    def test_gram_matches_data_sampler(self):
        jc, _ = reversed_pair(8, 0.7, 0.6)
        want = center_gram_inplace(jc.root @ np.random.default_rng(11).standard_normal((16, 300)))
        got = mvn_grams(jc, 300, [11])[0]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestRankTolerance:
    @pytest.mark.parametrize("m", [2, 3, 6, 12])
    def test_n_at_most_k_is_deficient(self, m):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(2, m + 1))
            n = int(rng.integers(2, k + 1))
            jc = random_joint_covariance(rng, m)
            out = run_replicates(cell_of(jc, k), n, [seed], method="pca")
            assert STATUSES[out.status[0]] == "deficient_rank", (k, n)

    @pytest.mark.parametrize("m", [2, 3, 6, 12])
    def test_n_is_k_plus_one_is_ok(self, m):
        for seed in range(40):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(1, m + 1))
            jc = random_joint_covariance(rng, m)
            assert run_replicates(cell_of(jc, k), k + 1, [seed], method="pca").status[0] == 0

    def test_exactly_collinear_rows_are_deficient(self):
        # Rank 1 data with many observations: the zero eigenvalues are
        # round-off, far below the lambda_1 * max(m, n) * eps threshold.
        v = np.random.default_rng(3).standard_normal(5000)
        data = np.vstack([v, 2 * v, -v, 0.5 * v])
        gram = center_gram_inplace(np.vstack([data, data]))
        assert evaluate_one(gram, 1, "pca", 5000).status == "ok"
        assert evaluate_one(gram, 2, "pca", 5000).status == "deficient_rank"

    def test_threshold_is_on_the_squared_scale(self):
        # sigma_2 / sigma_1 = 1e-5 is resolved (lambda ratio 1e-10); 1e-9 is
        # not (lambda ratio 1e-18, below eigenvalue round-off).
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((400, 2)))
        for ratio, status in ((1e-5, "ok"), (1e-9, "deficient_rank")):
            x = np.diag([1.0, ratio]) @ q.T
            gram = center_gram_inplace(np.vstack([x, x]))
            assert evaluate_one(gram, 2, "pca", 400).status == status

    def test_trivial_method_has_no_rank_check(self):
        out = run_replicates(cell_of(identity_pair(6, 0.5), 4), 3, [1], method="trivial")
        assert STATUSES[out.status[0]] == "ok"


def random_data(seed, m, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n))
    return x, 0.6 * x + 0.8 * rng.standard_normal((m, n))


class TestProperties:
    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.integers(2, 10), st.data(), st.integers(0, 2**32 - 1),
           st.sampled_from(["pca", "trivial"]))
    def test_eps_symmetric_in_x_and_y(self, m, data, seed, method):
        k = data.draw(st.integers(1, m))
        x, y = random_data(seed, m, 40)
        xy = evaluate_one(center_gram_inplace(np.vstack([x, y])), k, method, 40)
        yx = evaluate_one(center_gram_inplace(np.vstack([y, x])), k, method, 40)
        assert xy.eps_sq == pytest.approx(yx.eps_sq, abs=1e-10)
        assert xy.d_sq == pytest.approx(yx.d_sq, abs=1e-10)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.integers(2, 10), st.data(), st.integers(0, 2**32 - 1),
           st.floats(1e-6, 1e6), st.sampled_from(["pca", "trivial"]))
    def test_eps_invariant_to_scaling_x(self, m, data, seed, c, method):
        k = data.draw(st.integers(1, m))
        x, y = random_data(seed, m, 40)
        base = evaluate_one(center_gram_inplace(np.vstack([x, y])), k, method, 40)
        scaled = evaluate_one(center_gram_inplace(np.vstack([c * x, y])), k, method, 40)
        assert scaled.status == base.status == "ok"
        assert scaled.eps_sq == pytest.approx(base.eps_sq, abs=1e-9)

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(st.integers(2, 10), st.data(), st.integers(0, 2**32 - 1),
           st.floats(0.1, 2.0))
    def test_weighted_distance_absorbs_isometry(self, m, data, seed, beta):
        # eth^2(A, B) = d^2(A, W B) when Cov(X, Y) = beta W, W orthogonal.
        k = data.draw(st.integers(1, m))
        rng = np.random.default_rng(seed)
        w, r = np.linalg.qr(rng.standard_normal((m, m)))
        x, y = random_data(seed, m, 40)
        out = evaluate_one(center_gram_inplace(np.vstack([x, y])), k, "pca", 40,
                           beta * w, isometry=w)
        assert out.eth_sq == pytest.approx(out.d_sq_corrected, abs=1e-9)
        for value in (out.d_sq, out.eth_sq, out.eps_sq):
            assert 0.0 <= value <= 2.0 * k


class TestEvaluateGram:
    def test_scale_of_gram_does_not_matter(self):
        x, y = random_data(5, 6, 50)
        gram = center_gram_inplace(np.vstack([x, y]))
        a = evaluate_one(gram, 2, "pca", 50, np.eye(6))
        b = evaluate_one(gram / 49.0, 2, "pca", 50, np.eye(6))
        for field in ("d_sq", "eth_sq", "eps_sq"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), abs=1e-12)
        # A power of two is removed exactly, down to 1e-271 and up to 1e271.
        for e in (-900, -600, 600, 900):
            assert evaluate_one(np.ldexp(gram, e), 2, "pca", 50, np.eye(6)) == a, e

    def test_degenerate_projection(self):
        x = np.vstack([np.zeros((2, 30)), np.random.default_rng(1).standard_normal((3, 30))])
        gram = center_gram_inplace(np.vstack([x, x]))
        assert evaluate_one(gram, 2, "trivial", 30).status == "degenerate_projection"

    def test_without_weight_has_no_eth(self):
        x, y = random_data(6, 4, 30)
        out = evaluate_one(center_gram_inplace(np.vstack([x, y])), 2, "pca", 30)
        assert out.status == "ok" and out.eth_sq is None and out.d_sq_corrected is None

    def test_input_validation(self):
        gram = np.eye(6)
        with pytest.raises(ValueError, match="2m x 2m"):
            evaluate_one(np.eye(5), 1, "pca", 10)
        with pytest.raises(ValueError, match="k"):
            evaluate_one(gram, 4, "pca", 10)
        with pytest.raises(ValueError, match="method"):
            evaluate_one(gram, 1, "svd", 10)
        with pytest.raises(ValueError, match="2 observations"):
            center_gram_inplace(np.ones((3, 1)))
        with pytest.raises(ValueError, match=r"^data must be 2-d, got shape \(3,\)$"):
            center_gram_inplace(np.ones(3))


@pytest.mark.parametrize("shape", [(12, 10000), (40, 10000), (40, 10), (2, 3)])
def test_gram_product_is_the_matmul_of_the_centered_data(shape):
    # center_gram_inplace forms Zc Zc^T by np.dot, which releases the interpreter lock;
    # the records depend on it giving the bits of the matmul operator.
    z = np.random.default_rng(shape[0] * shape[1]).standard_normal(shape)
    zc = z - z.mean(axis=1, keepdims=True)
    assert np.array_equal(center_gram_inplace(z), zc @ zc.T)
    assert np.array_equal(z, zc)


def gram_alone(s, k, method, n, cross_cov=None, isometry=None) -> Row:
    """The kernel as it was before stacks (0.10.0): one Gram matrix, in 2-d numpy calls.

    The weight ``cross_cov`` is prepared here for k as ``grassmann.weight`` did up to 0.27.0.
    """
    s = np.array(s, dtype=float)
    m = s.shape[0] // 2
    np.ldexp(s, -np.frexp(np.max(np.abs(s)))[1], out=s)
    sxx, syy, sxy = s[:m, :m], s[m:, m:], s[:m, m:]
    if method == "pca":
        tops = []
        for block in (sxx, syy):
            if n - 1 < k:
                return Row("deficient_rank")
            w, v = np.linalg.eigh(block)
            if not w[-k] > w[-1] * max(m, n) * np.finfo(float).eps:
                return Row("deficient_rank")
            tops.append((v[:, -k:], float(w[-k:].sum())))
        (a, var_x), (b, var_y) = tops
    else:
        a = b = np.eye(m)[:, :k]
        var_x, var_y = float(np.trace(sxx[:k, :k])), float(np.trace(syy[:k, :k]))
    if var_x < 1e-300 or var_y < 1e-300:
        return Row("degenerate_projection")

    def chordal(inner):
        cosines = np.clip(np.linalg.svd(inner, compute_uv=False), 0.0, 1.0)
        return float(2.0 * np.sum(1.0 - cosines))

    nuclear = np.linalg.svd(a.T @ sxy @ b, compute_uv=False).sum()
    eps_sq = 2.0 * k - 2.0 * k * nuclear / (np.sqrt(var_x) * np.sqrt(var_y))
    eth_sq = None
    if cross_cov is not None and not np.any(cross_cov):
        eth_sq = chordal(a.T @ b)
    elif cross_cov is not None:
        c = np.ldexp(cross_cov, -np.frexp(np.max(np.abs(cross_cov)))[1])
        mass = np.linalg.svd(c, compute_uv=False)[:k].sum() / k
        sigma = np.linalg.svd(a.T @ c @ b, compute_uv=False)
        eth_sq = min(max(float(2.0 * np.sum(1.0 - sigma / mass)), 0.0), 2.0 * k)
    corrected = None if isometry is None else chordal(a.T @ isometry @ b)
    return Row("ok", chordal(a.T @ b), eth_sq, min(max(float(eps_sq), 0.0), 2.0 * k), corrected)


class TestStack:
    """``evaluate_grams`` against each matrix evaluated alone, bit for bit."""

    @staticmethod
    def mixed_stack(k):
        # PCA: ok, deficient_rank (X of rank k - 1), degenerate_projection (X at
        # 1e-160 of Y: its variance underflows once S is at unit scale), ok.
        x, y = random_data(8, 4, 50)
        v = np.random.default_rng(9).standard_normal(50)
        deficient = np.zeros((4, 50)) if k == 1 else np.vstack([v, 2 * v, -v, 0.5 * v])
        pairs = ((x, y), (deficient, y), (1e-160 * x, y), (y, x))
        return np.stack([center_gram_inplace(np.vstack(pair)) for pair in pairs])

    @pytest.mark.parametrize("method, statuses", [
        ("pca", ["ok", "deficient_rank", "degenerate_projection", "ok"]),
        ("trivial", ["ok", "degenerate_projection", "degenerate_projection", "ok"]),
    ])
    @pytest.mark.parametrize("cross", [None, "zero", "reversal"])
    @pytest.mark.parametrize("with_isometry", [False, True])
    @pytest.mark.parametrize("k", [1, 2])
    def test_members_match_their_own_evaluation(self, method, statuses, cross, with_isometry, k):
        grams = self.mixed_stack(k)
        if method == "trivial" and k == 2:  # the rank-1 X still spans the first two axes
            statuses = ["ok", "ok", "degenerate_projection", "ok"]
        reversal = np.fliplr(np.eye(4))
        w = {None: None, "zero": np.zeros((4, 4)), "reversal": 0.6 * reversal}[cross]
        isometry = reversal if with_isometry else None
        # The whole stack, and its ok members alone, which take the path without failures.
        for members in (grams, grams[[0, 3]]):
            rows = stack_rows(evaluate_grams(members.copy(), k, method, 50, w, isometry))
            for gram, row in zip(members, rows):
                want = gram_alone(gram, k, method, 50, w, isometry)
                assert row == want
                assert evaluate_one(gram, k, method, 50, w, isometry) == want
        assert [row.status for row in stack_rows(evaluate_grams(
            grams.copy(), k, method, 50, w, isometry))] == statuses

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(cells())
    def test_stack_of_draws_matches_each_draw_alone(self, cell):
        jc, w, k, n, method, seed = cell
        cell = cell_of(jc, k, w)
        grams = cell.draw(n, [seed, seed + 1, seed + 2])
        rows = stack_rows(evaluate_grams(grams.copy(), k, method, n, cell.cross_cov,
                                         cell.isometry))
        assert rows == [gram_alone(g, k, method, n, cell.cross_cov, cell.isometry)
                        for g in grams]

    def test_every_member_fails_together(self):
        reversal = np.fliplr(np.eye(4))
        # n - 1 < k: every matrix is deficient, whatever its eigenvalues.
        cases = [(self.mixed_stack(2), "pca", 3, "deficient_rank")]
        # Every X zero: the trivial projection of X is degenerate (PCA finds it
        # deficient first), and eps^2 divides 0 by 0 on every row, with no warning.
        # X at 1e-160 of Y passes PCA's rank test and is degenerate there too.
        def stack(scale):
            return np.stack([center_gram_inplace(np.vstack([scale * x, y]))
                             for x, y in (random_data(seed, 4, 50) for seed in range(3))])
        cases += [(stack(0.0), "trivial", 50, "degenerate_projection"),
                  (stack(0.0), "pca", 50, "deficient_rank"),
                  (stack(1e-160), "pca", 50, "degenerate_projection")]
        for grams, method, n, status in cases:
            out = evaluate_grams(grams.copy(), 3, method, n, 0.6 * reversal, reversal)
            assert [STATUSES[s] for s in out.status] == [status] * len(grams)
            for column in (out.d_sq, out.eth_sq, out.eps_sq, out.d_sq_corrected):
                assert np.isnan(column).all()

    def test_rejects_a_stack_it_cannot_scale_in_place(self):
        for bad in (np.eye(4), np.ones((2, 4, 4), dtype=np.float32), [np.eye(4)]):
            with pytest.raises(ValueError, match="float64 stack"):
                evaluate_grams(bad, 1, "pca", 10)

    @pytest.mark.parametrize("method", ["pca", "trivial"])
    def test_rejects_a_weight_of_another_size_before_any_lapack_call(self, monkeypatch,
                                                                     method):
        # The kernel and grassmann look eigh and svd up on np.linalg at each call.
        w, calls = np.eye(3), []
        for name in ("eigh", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), calls))
        with pytest.raises(ValueError) as raised:
            evaluate_grams(np.eye(8)[None], 2, method, 100, w)
        assert str(raised.value) == "cross_cov must be 4 x 4, got shape (3, 3)"
        assert calls == []

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_entry(self, bad):
        grams = self.mixed_stack(2)
        grams[3, 1, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_grams(grams, 2, "pca", 50)

    @pytest.mark.parametrize("method", ["pca", "trivial"])
    def test_rejects_an_overflowed_draw(self, method):
        # A model at 1e305 overflows its Gram matrix at n = 1e5.  Unchecked, the
        # pca replicates were recorded as deficient_rank and trivial raised LinAlgError.
        jc = JointCovariance(1e305 * np.eye(6), 1e305 * np.eye(6), 0.5e305 * np.eye(6))
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            run_replicates(cell_of(jc, 2), 100_000, [1, 2], method=method)


def gram_of_seed(jc, n, seed):
    """The draw's definition for one seed: a fresh (2m, n) normal block ``G`` from
    ``default_rng(seed)``, centered into ``Gc``, as ``L (Gc Gc^T) L^T``."""
    g = np.random.default_rng(seed).standard_normal((2 * jc.m, n))
    gc = g - g.mean(axis=1, keepdims=True)
    return jc.root @ (gc @ gc.T) @ jc.root.T


def grams_of_seeds(jc, n, seeds):
    """``mvn_grams`` by its definition: each seed's matrix alone, stacked."""
    return np.stack([gram_of_seed(jc, n, seed) for seed in seeds])


def counted(fn, calls):
    """``fn``, appending its arguments to ``calls`` on every call."""
    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return wrapper


class TestMvnGrams:
    """``mvn_grams``, which refills one (2m, n) block for every seed of a chunk, against
    each seed's matrix drawn alone: bit for bit, across chunk lengths, shapes, calls and
    threads."""

    def test_matches_fresh_draw_across_shape_changes(self):
        for m in (6, 20):
            jc = spiked_diag_pair(m, 0.7, 0.6)
            for n in (10, 10000, 10):
                for length in (1, 3, 20):
                    seeds = [sim.replicate_seed(m, n, r) for r in range(length)]
                    got = mvn_grams(jc, n, seeds)
                    assert got.shape == (length, 2 * m, 2 * m)
                    assert np.array_equal(got, grams_of_seeds(jc, n, seeds)), (m, n, length)

    def test_returned_gram_survives_later_calls(self):
        jc = identity_pair(6, 0.5)
        first = mvn_grams(jc, 50, [2, 3])
        kept = first.copy()
        for n in (50, 50, 80):
            mvn_grams(jc, n, [4, 5, 6])
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("ns", [(40, 300, 120, 500), (300,) * 4], ids=["different", "same"])
    def test_concurrent_threads_match_fresh_draws(self, ns):
        # Four threads: more than the cores of a 2-core machine.
        models = [identity_pair(6, 0.5), spiked_diag_pair(6, 0.7, 0.6)] * 2
        start = Barrier(len(ns))

        def chunks(i):
            start.wait(timeout=30)
            return [mvn_grams(models[i], ns[i], [100 * i + c, 100 * i + c + 50, c])
                    for c in range(20)]

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as finely as possible
        try:
            with ThreadPoolExecutor(max_workers=len(ns)) as pool:
                results = list(pool.map(chunks, range(len(ns)), timeout=60))
        finally:
            sys.setswitchinterval(switch)
        for i, stacks in enumerate(results):
            assert len(stacks) == 20
            for c, got in enumerate(stacks):
                want = grams_of_seeds(models[i], ns[i], [100 * i + c, 100 * i + c + 50, c])
                assert np.array_equal(got, want), (i, c)

    def test_single_observation_is_rejected(self):
        with pytest.raises(ValueError, match="2 observations"):
            mvn_grams(identity_pair(3, 0.5), 1, [0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_experiment_records_match_fresh_draws(self, monkeypatch, workers):
        # A cell binds its draw when it is built, and a config keeps its cells,
        # so each side builds its own config.
        def config():
            models = tuple((lam, spiked_diag_pair(20, lam, 0.6), None) for lam in (0.7, 0.75))
            return ExperimentConfig(models, (1, 2), (50, 2000), 3, base_seed=5)

        draws, kernels = [], []
        with monkeypatch.context() as patch:
            patch.setattr(sim, "mvn_grams", counted(grams_of_seeds, draws))
            patch.setattr(sim, "evaluate_grams", counted(evaluate_grams, kernels))
            want = run_experiment(config())
        got = run_experiment(config(), workers=workers)
        # Serially each (cell, n) is one chunk: one draw and one kernel call per chunk.
        assert len(draws) == len(kernels) == 8
        assert [len(seeds) for _, _, seeds in draws] == [3] * 8
        assert len(got) == len(want) == 24
        assert_tables_equal(got, want)
