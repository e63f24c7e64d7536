import concurrent.futures
import gc
import sys
import threading
import time
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from subalign import (
    CenteredData,
    ExperimentConfig,
    JointCovariance,
    NormalizedProjection,
    Records,
    Subspace,
    identity_pair,
    mvn_grams,
    replicate_seed,
    reversed_pair,
    rho,
    run_experiment,
    run_replicates,
    spiked_diag_pair,
    summarize,
)
from subalign import sim, theory
from subalign.grassmann import weighted_sq
from subalign.kernel import STATUSES

from conftest import assert_tables_equal, cell_of, near_orthonormal


def identity_models(m, *betas):
    """illus1's models: the identity pair at each beta, without an isometry."""
    return tuple((b, identity_pair(m, b), None) for b in betas)


def reference_splitmix_mix(x):
    # Independent transcription of the splitmix64 finalizer.
    mask = (1 << 64) - 1
    x &= mask
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & mask
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & mask
    x ^= x >> 31
    return x


class TestReplicateSeed:
    def test_matches_documented_mix(self):
        base, p, r = 42, 3, 17
        assert replicate_seed(base, p, r) == reference_splitmix_mix(base ^ ((p << 32) | r))

    def test_distinct_across_cells(self):
        seeds = {replicate_seed(42, p, r) for p in range(20) for r in range(50)}
        assert len(seeds) == 20 * 50

    def test_fits_in_64_bits(self):
        assert 0 <= replicate_seed(2**64 - 1, 2**32 - 1, 2**32 - 1) < 2**64

    def test_index_range_checks(self):
        with pytest.raises(ValueError):
            replicate_seed(0, 2**32, 0)
        with pytest.raises(ValueError):
            replicate_seed(0, 0, -1)

    @pytest.mark.parametrize("base_seed", [-1, 2**64])
    def test_base_seed_outside_64_bits_raises(self, base_seed):
        # Masked to 64 bits, -1 gave the seeds of 2**64 - 1, and 2**64 those of 0.
        with pytest.raises(ValueError, match=r"base_seed must lie in \[0, 2\*\*64\)"):
            replicate_seed(base_seed, 0, 0)

    @pytest.mark.parametrize("kind, args", [
        (np.int64, (5, 3, 4)), (np.uint64, (5, 3, 4)),
        (np.uint64, (2**64 - 1, 2**32 - 1, 2**32 - 1)),
    ], ids=["int64", "uint64", "uint64_max"])
    def test_numpy_integers_give_the_same_python_int(self, kind, args):
        # An int64 overflowed in _mix64's mask, and a uint64 warned in its multiplies.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = replicate_seed(*map(kind, args))
        assert type(got) is int and got == replicate_seed(*args)


def run_one(cell, n, seed, method):
    """The chunk of one replicate, as a table of one row."""
    return run_replicates(cell, n, [seed], method=method)


class TestRunReplicates:
    """``run_replicates`` on chunks of one and more replicates."""

    def test_trivial_method_zero_distance(self):
        out = run_one(cell_of(identity_pair(6, 0.5), 2), 500, 1, "trivial")
        assert out.d_sq[0] == 0.0
        assert STATUSES[out.status[0]] == "ok"

    def test_identity_model_weighted_equals_unweighted(self):
        out = run_one(cell_of(identity_pair(6, 0.5), 2), 500, 2, "pca")
        assert abs(out.eth_sq[0] - out.d_sq[0]) < 1e-12

    def test_reversed_model_correction_is_exact(self):
        jc, w = reversed_pair(20, 0.7, 0.6)
        out = run_one(cell_of(jc, 2, w), 500, 3, "pca")
        assert abs(out.eth_sq[0] - out.d_sq_corrected[0]) < 1e-9

    def test_record_ranges_and_residual_identity(self):
        for seed in range(5):
            cell = cell_of(spiked_diag_pair(20, 0.7, 0.6), 2)
            out = run_one(cell, 300, seed, "pca")
            for value in (out.d_sq[0], out.eth_sq[0], out.eps_sq[0]):
                assert 0.0 <= value <= 4.0
            assert out.residual[0] == out.eps_sq[0] - out.predicted[0]

    def test_identical_pair_leaves_nothing_to_fit(self):
        # identity_pair at beta = 1: X equals Y, so nothing is left to fit.
        out = run_one(cell_of(identity_pair(6, 1.0), 2), 400, 9, "trivial")
        assert out.eps_sq[0] == pytest.approx(0.0, abs=1e-9)
        assert out.predicted[0] == pytest.approx(0.0, abs=1e-9)

    def test_rank_deficiency_marks_failure(self):
        out = run_one(cell_of(identity_pair(6, 0.5), 5), 4, 1, "pca")
        assert STATUSES[out.status[0]] == "deficient_rank"
        for column in (out.d_sq, out.eth_sq, out.eps_sq, out.predicted, out.residual):
            assert np.isnan(column[0])

    def test_degenerate_projection_marks_failure(self):
        diag = np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        jc = JointCovariance(diag, diag, np.zeros((6, 6)))
        out = run_one(cell_of(jc, 2), 50, 99, "trivial")
        assert STATUSES[out.status[0]] == "degenerate_projection"

    @pytest.mark.parametrize("scale", [1e-170, 1e-250])
    def test_trivial_method_with_tiny_leading_coordinates(self, scale):
        # The trivial subspace's variances are about `scale` each: their product
        # underflows, but eps^2 does not depend on the scale of the first k coordinates.
        def eps_sq(s):
            d = np.diag([s, s, 1.0, 1.0])
            out = run_one(cell_of(JointCovariance(d, d, 0.5 * d), 2), 200, 1, "trivial")
            assert STATUSES[out.status[0]] == "ok"
            return out.eps_sq[0]

        assert eps_sq(scale) == pytest.approx(eps_sq(1.0), abs=1e-9)

    def test_chunk_columns_and_axes(self):
        # A chunk of replicates 5..7: its axes echo the cell, n and the replicate
        # indices, and the model without an isometry has NaN corrected distances.
        cell = cell_of(identity_pair(6, 0.5), 2, sweep_param=0.5)
        out = run_replicates(cell, 300, [11, 12, 13], 5, method="pca")
        assert (out.method, out.m, len(out)) == ("pca", 6, 3)
        assert out.k.tolist() == [2] * 3 and out.n.tolist() == [300] * 3
        assert out.sweep_param.tolist() == [0.5] * 3
        assert out.replicate.tolist() == [5, 6, 7]
        assert out.status.dtype == np.int8 and out.status.tolist() == [0] * 3
        assert np.isnan(out.d_sq_corrected).all()
        assert np.array_equal(out.residual, out.eps_sq - out.predicted)

    def test_prediction_is_one_call_per_chunk(self, monkeypatch):
        # One call per chunk, on the ok rows: all four at n = 400, none at n = 2
        # (centered data of 2 observations cannot resolve k = 2), which keep NaN.
        calls = []

        def counted(rho_value, k, eth_sq):
            calls.append(len(eth_sq))
            return theory.predicted_fit_error_sq(rho_value, k, eth_sq)

        monkeypatch.setattr(sim, "predicted_fit_error_sq", counted)
        cell = cell_of(identity_pair(6, 0.5), 2)
        out = run_replicates(cell, 400, [1, 2, 3, 4], method="pca")
        assert calls == [4]
        assert out.predicted.tolist() == [
            theory.predicted_fit_error_sq(cell.rho, 2, eth) for eth in out.eth_sq.tolist()]
        calls.clear()
        out = run_replicates(cell, 2, [1, 2], method="pca")
        assert calls == [0]
        assert out.status.tolist() == [1, 1] and np.isnan(out.predicted).all()


class TestExperimentConfig:
    def test_rejects_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(identity_models(6, 0.5), (2,), (100,), 3, method="svd")

    def test_rejects_k_above_m(self):
        # rho, the first to read k when the cells are built, refuses it.
        with pytest.raises(ValueError, match=r"^need 1 <= k <= m, got k=7, m=6$"):
            ExperimentConfig(identity_models(6, 0.5), (7,), (100,), 3)

    @pytest.mark.parametrize("n_values", [(1,), (100, 0), ()])
    def test_rejects_n_below_2(self, n_values):
        # Centering needs two observations, and an empty list would run nothing.
        with pytest.raises(ValueError, match=r"^n values must be >= 2: \("):
            ExperimentConfig(identity_models(6, 0.5), (2,), n_values, 3)

    def test_rejects_empty_k_values(self):
        with pytest.raises(ValueError, match="^k_values must be nonempty$"):
            ExperimentConfig(identity_models(6, 0.5), (), (100,), 3)

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentConfig(identity_models(6, 0.5), (2,), (100,), 0)

    def test_rejects_replicates_beyond_the_seed_range(self):
        # Replicate indices are 32-bit in the seeding contract.  Only built, never run.
        models = identity_models(6, 0.5)
        assert ExperimentConfig(models, (2,), (100,), 2**32).replicates == 2**32
        with pytest.raises(ValueError, match="replicates"):
            ExperimentConfig(models, (2,), (100,), 2**32 + 1)

    def test_rejects_base_seeds_outside_64_bits(self):
        # The seeding contract reads 64 bits: -1 would alias 2**64 - 1, and 2**64 + 42 seed 42.
        models = identity_models(6, 0.5)
        cfg = ExperimentConfig(models, (2,), (100,), 2, base_seed=2**64 - 1)
        assert cfg.base_seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"base_seed must lie in \[0, 2\*\*64\)"):
                ExperimentConfig(models, (2,), (100,), 2, base_seed=seed)

    @pytest.mark.parametrize("field, value", [
        ("k_values", (2.9,)), ("n_values", (100.7,)), ("replicates", 2.5), ("base_seed", 1.5),
    ])
    def test_rejects_non_integral_sizes_and_seed(self, field, value):
        # int() used to run k = 2.9 as 2 and n = 100.7 as 100; a float replicate
        # count or seed passed here and then failed inside the run with a TypeError.
        fields = dict(models=identity_models(6, 0.5), k_values=(2,),
                      n_values=(100,), replicates=3)
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            ExperimentConfig(**(fields | {field: value}))

    def test_accepts_numpy_integers(self):
        i = np.int64
        cfg = ExperimentConfig(identity_models(i(6), 0.5), (i(2),), (i(100),), i(2),
                               base_seed=i(7))
        assert (cfg.m, cfg.k_values, cfg.n_values, cfg.replicates, cfg.base_seed) == (
            6, (2,), (100,), 2, 7)
        assert_tables_equal(run_experiment(cfg), run_experiment(
            ExperimentConfig(identity_models(6, 0.5), (2,), (100,), 2, base_seed=7)))

    def test_rejects_infeasible_sweep_before_work(self):
        # The model is built before the config, so an infeasible one never reaches a run.
        with pytest.raises(ValueError, match="beta"):
            ExperimentConfig(identity_models(6, 1.5), (2,), (100,), 3)

    def test_custom_requires_models(self):
        with pytest.raises(ValueError, match="models"):
            ExperimentConfig((), (2,), (100,), 3)

    def test_custom_model_dimension_must_match_m(self):
        # m is the models' one dimension: records would otherwise mix m = 6 and m = 8.
        models = ((0.5, identity_pair(6, 0.5), None), (0.6, identity_pair(8, 0.6), None))
        with pytest.raises(ValueError, match=r"one dimension, got \[6, 8\]"):
            ExperimentConfig(models, (2,), (100,), 3)

    @pytest.mark.parametrize("sweep_param", [np.nan, np.inf])
    def test_custom_sweep_param_must_be_finite(self, sweep_param):
        # The summary would echo a non-finite sweep value as null.
        with pytest.raises(ValueError, match="sweep_param must be finite"):
            ExperimentConfig(((sweep_param, identity_pair(6, 0.5), None),), (2,), (100,), 3)

    def test_cells_are_built_at_construction(self):
        # The cells are a tuple made once, so a caller cannot empty the run.
        cfg = ExperimentConfig(identity_models(6, 0.2, 0.5), (1, 2), (100,), 2)
        assert type(cfg.cells) is tuple
        assert [(cell.sweep_param, cell.k) for cell in cfg.cells] == [
            (0.2, 1), (0.2, 2), (0.5, 1), (0.5, 2)]
        with pytest.raises(AttributeError):
            cfg.cells.clear()

    def test_custom_sweep_param_must_be_distinct(self):
        # Both models would be summarized as one group, its mean between theirs.
        models = ((0.5, identity_pair(6, 0.0), None), (0.5, identity_pair(6, 0.99), None))
        with pytest.raises(ValueError, match="sweep_param repeats a value"):
            ExperimentConfig(models, (2,), (1000,), 20)


class TestMakeCell:
    """The cells a config builds, one per (model, k)."""

    def test_per_cell_values(self):
        jc, w = reversed_pair(8, 0.7, 0.5)
        cell = cell_of(jc, 2, w, sweep_param=0.5)
        assert (cell.sweep_param, cell.k) == (0.5, 2)
        assert np.array_equal(cell.draw(50, [3, 4]), mvn_grams(jc, 50, [3, 4]))
        # The cell holds the config's read-only float64 copy of the isometry.
        assert np.array_equal(cell.isometry, w) and not np.shares_memory(cell.isometry, w)
        assert cell.isometry.dtype == np.float64 and not cell.isometry.flags.writeable
        assert cell.rho == rho(jc, 2)
        # The weight is Cov(X, Y) = 0.5 w, so eth^2(A, B) = d^2(A, w B): 0 at B = w A,
        # whose span is orthogonal to A's (d^2 = 4).
        basis = np.eye(8)[:, :2]
        assert weighted_sq(basis, w @ basis, cell.cross_cov) == pytest.approx(0.0, abs=1e-12)

    def test_the_cells_of_a_model_share_its_cross_covariance(self):
        # The weight is the model's own read-only cov_xy, for every k: no cell copies it.
        jc, w = reversed_pair(20, 0.7, 0.5)
        cfg = ExperimentConfig(((0.5, jc, w), (0.6, identity_pair(20, 0.6), None)),
                               (1, 2, 10), (2,), 1)
        models = [model for _, model, _ in cfg.models]
        assert [cfg.cells[i].cross_cov is models[i // 3].cov_xy for i in range(6)] == [True] * 6
        assert not jc.cov_xy.flags.writeable

    def test_changing_the_isometry_after_the_cells_changes_no_record(self):
        jc, w = reversed_pair(8, 0.7, 0.5)
        cfg = ExperimentConfig(((0.5, jc, w),), (1, 2), (300,), 3, base_seed=2)
        want = run_experiment(cfg)
        w *= 0.5
        assert_tables_equal(run_experiment(cfg), want)
        # The config reports the read-only copy its cells use, not the caller's array,
        # and checked it once: every cell of the model holds that one copy.
        kept = cfg.models[0][2]
        assert not kept.flags.writeable and np.array_equal(kept, 2 * w)
        assert [cell.isometry is kept for cell in cfg.cells] == [True, True]

    def test_rejects_non_orthogonal_isometry(self):
        for isometry in (2 * np.eye(3), np.full((3, 3), np.nan)):
            with pytest.raises(ValueError, match="basis columns not orthonormal"):
                cell_of(identity_pair(3, 0.5), 1, isometry=isometry)


class TestRunExperiment:
    def small_cfg(self, betas=(0.2, 0.5), **overrides):
        base = dict(
            models=identity_models(6, *betas), k_values=(2,),
            n_values=(200,), replicates=3, base_seed=7, method="pca",
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_record_count_and_order(self):
        records = run_experiment(self.small_cfg())
        assert len(records) == 6
        assert records.sweep_param.tolist() == [0.2, 0.2, 0.2, 0.5, 0.5, 0.5]
        assert records.replicate.tolist() == [0, 1, 2, 0, 1, 2]

    def test_rerun_is_bit_identical(self):
        cfg = self.small_cfg()
        assert_tables_equal(run_experiment(cfg), run_experiment(cfg))

    def test_worker_count_does_not_change_results(self):
        cfg = self.small_cfg(replicates=4)
        assert_tables_equal(run_experiment(cfg, workers=1), run_experiment(cfg, workers=2))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_workers_below_one(self, monkeypatch, workers):
        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran before workers was checked")

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started before workers was checked")

        monkeypatch.setattr(sim, "run_replicates", no_chunk)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(self.small_cfg(), workers=workers)

    @pytest.mark.parametrize("scale", [1e-300, 1e160, 1e300])
    def test_model_scale_does_not_matter(self, scale):
        # The Gram matrix scales with the model; the kernel removes that scale.
        base = identity_pair(6, 0.5)
        scaled = JointCovariance(scale * base.cov_x, scale * base.cov_y, scale * base.cov_xy)

        def records(jc):
            return run_experiment(ExperimentConfig(
                ((0.5, jc, None),), (1, 2), (1000,), 3, base_seed=1))

        want, got = records(base), records(scaled)
        assert got.status.tolist() == [0] * 6
        for field in ("d_sq", "eth_sq", "eps_sq", "predicted", "residual"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-9)

    def test_custom_models(self):
        jc, w = reversed_pair(8, 0.7, 0.5)
        cfg = ExperimentConfig(
            models=((0.5, jc, w),), k_values=(1, 2), n_values=(300,),
            replicates=2, base_seed=11,
        )
        records = run_experiment(cfg)
        assert len(records) == 4
        assert not np.isnan(records.d_sq_corrected).any()
        assert (np.abs(records.eth_sq - records.d_sq_corrected) < 1e-9).all()

    @pytest.mark.parametrize("bad, match", [
        (lambda w: 2 * w, "basis columns not orthonormal"),
        (lambda w: np.eye(6), "isometry must be 8 x 8"),
    ], ids=["non_orthogonal", "wrong_shape"])
    def test_bad_isometry_fails_before_any_replicate(self, monkeypatch, bad, match):
        jc, w = reversed_pair(8, 0.7, 0.5)
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(((0.5, jc, bad(w)),), (2,), (100,), 3)
        # Every isometry is checked before the first cell is built: the first model
        # has none, so a check made cell by cell would build its cell first.
        calls = []
        monkeypatch.setattr(sim, "rho", lambda model, k: calls.append(k) or rho(model, k))
        models = ((0.4, identity_pair(8, 0.5), None), (0.5, jc, bad(w)))
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(models, (2,), (100,), 3)
        assert calls == []

    def test_isometry_at_the_orthonormality_tolerance_runs(self):
        # max |W^T W - I| = 9e-11 passes the config's check; the trivial bases read
        # the cosines of W's leading 10 x 10 block, which reach 1 + 4e-10.  A second
        # cosine check in the kernel stopped this run after it had started.
        w = near_orthonormal(20, 9e-11)
        cfg = ExperimentConfig(((0.7, spiked_diag_pair(20, 0.7, 0.6), w),), (10,), (1000,), 3,
                               method="trivial")
        records = run_experiment(cfg)
        assert records.status.tolist() == [0, 0, 0]
        assert np.all((0.0 <= records.d_sq_corrected) & (records.d_sq_corrected <= 1e-8))

    def test_cells_survive_the_pool(self, monkeypatch):
        # The pool threads share the cells read-only: the draws of two models,
        # one with an isometry and one without, and the weights.  Two n values put
        # chunks of different n on one thread; four threads on a short switch
        # interval interleave the draws of different threads.
        jc, w = reversed_pair(8, 0.7, 0.5)
        cfg = ExperimentConfig(
            models=((0.8, identity_pair(8, 0.64), None), (0.5, jc, w)),
            k_values=(1, 2), n_values=(100, 2000), replicates=3, base_seed=5,
        )
        serial = run_experiment(cfg, workers=1)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        assert_tables_equal(run_experiment(cfg, workers=2), serial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_tables_equal(run_experiment(cfg, workers=4), serial)
        finally:
            sys.setswitchinterval(interval)
        assert np.isnan(serial.d_sq_corrected).tolist() == [True] * 12 + [False] * 12

    def test_pool_runs_bounded_chunks(self, monkeypatch):
        # About workers * 8 pool tasks, never one per replicate: a chunk holds
        # consecutive replicates of one (cell, n), so each of the 2 x 2 (cell, n)
        # groups adds at most one chunk to the 2 * 8.
        submitted = []

        class CountingExecutor(concurrent.futures.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingExecutor)
        cfg = self.small_cfg((0.2, 0.5), n_values=(20, 30), replicates=501, method="trivial")
        assert_tables_equal(run_experiment(cfg, workers=2), run_experiment(cfg, workers=1))
        assert 4 <= len(submitted) <= 2 * 8 + 4
        groups = {}
        for _, cell, n, seeds, first in submitted:
            assert 1 <= len(seeds) <= sim._MAX_CHUNK
            groups.setdefault((cell.sweep_param, n), []).append((first, len(seeds)))
        for chunks in groups.values():  # each group's chunks tile its replicates in order
            ends = [first + size for first, size in chunks]
            assert [first for first, _ in chunks] == [0] + ends[:-1] and ends[-1] == 501

    def test_failure_cancels_the_chunks_not_started(self, monkeypatch):
        # A raising chunk propagates, and after it at most one chunk per
        # thread starts (2048 replicates make 16 chunks of 128).  The chunk
        # before the failing one outlasts it, so a pool that read the results
        # in order would go on starting chunks while it waited.
        cfg = self.small_cfg((0.5,), n_values=(2000,), replicates=2048, method="trivial")
        failed = threading.Event()
        after = []
        sim_run_replicates = sim.run_replicates

        def run_chunk(cell, n, seeds, first, **kwargs):
            assert len(seeds) == 128
            if failed.is_set():
                after.append(first)
            if first == 4 * 128:
                failed.set()
                raise RuntimeError("chunk failed")
            if first == 3 * 128:
                failed.wait(timeout=10)
                time.sleep(0.2)
            return sim_run_replicates(cell, n, seeds, first, **kwargs)

        monkeypatch.setattr(sim, "run_replicates", run_chunk)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk failed"):
            run_experiment(cfg, workers=2)
        assert failed.is_set()
        assert len(after) <= 2
        assert threading.active_count() == threads

    def test_failed_replicates_recorded_not_raised(self):
        cfg = self.small_cfg((0.5,), k_values=(5,), n_values=(4,))
        records = run_experiment(cfg)
        assert len(records) == 3
        assert [STATUSES[code] for code in records.status] == ["deficient_rank"] * 3

    @pytest.mark.parametrize("cfg, statuses", [
        (ExperimentConfig(((0.7, spiked_diag_pair(8, 0.7, 0.6), None),), (1, 2),
                          (2, 60, 400), 7, base_seed=3), {"ok", "deficient_rank"}),
        (ExperimentConfig(((0.6, *reversed_pair(8, 0.7, 0.6)),), (1, 3), (200,), 7,
                          base_seed=4), {"ok"}),
        (ExperimentConfig(identity_models(4, 0.0, 0.9), (1, 2), (2, 500), 7,
                          base_seed=5, method="trivial"), {"ok"}),
    ], ids=["illus2", "illus3", "illus1_trivial"])
    def test_records_do_not_depend_on_workers_or_chunk_length(self, monkeypatch, cfg, statuses):
        # The kernel evaluates each matrix of a stack as it would alone, so a
        # replicate's row is the same in a chunk of 1, 3 or 7 (the whole cell).
        want = sim._concatenate([
            run_replicates(cell, n, [replicate_seed(cfg.base_seed, p, r)], r,
                           method=cfg.method)
            for p, (cell, n) in enumerate(product(cfg.cells, cfg.n_values))
            for r in range(cfg.replicates)])
        assert {STATUSES[code] for code in want.status} == statuses
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        for cap in (1, 3, 256):
            monkeypatch.setattr(sim, "_MAX_CHUNK", cap)
            for workers in (1, 2, 4):
                assert_tables_equal(run_experiment(cfg, workers=workers), want)

    def test_chunk_stack_stays_within_its_memory_cap(self):
        # At m = 100 a replicate's Gram stack and eigenvectors take 480 kB, so
        # the 32 MiB cap splits 300 replicates into chunks of 69; 256 at once
        # would take 123 MB.
        cfg = ExperimentConfig(identity_models(100, 0.5), (2,), (50,), 300)
        assert sim._chunk_size(cfg.m) == 69
        draw = 2 * cfg.m * 50 * 8
        tracemalloc.start()
        try:
            records = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert records.status.tolist() == [0] * 300
        assert peak < sim._MAX_CHUNK_BYTES + draw + 4 * 2**20

    def test_run_keeps_no_draw_memory(self):
        # The draw of this cell is a 61 MiB (2m, n) array; none of it may outlive the run.
        cfg = ExperimentConfig(((0.7, spiked_diag_pair(20, 0.7, 0.6), None),), (2,),
                               (200_000,), 1)
        tracemalloc.start()
        try:
            run_experiment(cfg)
            gc.collect()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 8 * 2**20


class TestSummarize:
    @staticmethod
    def table(eps, status=None, k=None):
        """Rows of one cell at n = 100: d^2 = eth^2 = 0 and predicted 2 where ok, NaN elsewhere."""
        rows = len(eps)
        codes = np.array([STATUSES.index(s) for s in status or ["ok"] * rows], dtype=np.int8)
        ok = codes == 0
        eps = np.where(ok, np.array(eps, dtype=float), np.nan)
        zero, two = np.where(ok, 0.0, np.nan), np.where(ok, 2.0, np.nan)
        return Records("pca", 6, np.array(k or [2] * rows, dtype=np.int64),
                       np.full(rows, 100), np.full(rows, 0.5), np.arange(rows), codes,
                       zero, zero, eps, two, eps - two, np.full(rows, np.nan))

    def test_mean_and_sample_stdev(self):
        stats = summarize(self.table([1.0, 3.0]))
        assert len(stats) == 1
        s = stats[0]
        assert s["count"] == 2
        assert s["mean_eps_sq"] == pytest.approx(2.0)
        assert s["stdev_eps_sq"] == pytest.approx(np.sqrt(2.0))
        assert s["mean_eps_sq_over_2k"] == pytest.approx(0.5)
        assert s["mean_residual"] == pytest.approx(0.0)

    def test_keys_in_summary_order(self):
        [s] = summarize(self.table([1.0, 3.0]))
        assert list(s) == ["method", "m", "k", "n", "sweep_param", "count", "failed",
                           "mean_eps_sq", "stdev_eps_sq", "mean_eps_sq_over_2k",
                           "stdev_eps_sq_over_2k", "mean_residual", "stdev_residual",
                           "single_sample"]
        assert (s["method"], s["m"], s["k"], s["n"], s["sweep_param"]) == ("pca", 6, 2, 100, 0.5)
        assert all(type(s[key]) is int for key in ("m", "k", "n", "count", "failed"))

    def test_all_equal_values(self):
        stats = summarize(self.table([1.5] * 4))
        assert stats[0]["stdev_eps_sq"] == pytest.approx(0.0)

    def test_single_sample_flag(self):
        s = summarize(self.table([1.5]))[0]
        assert s["single_sample"]
        assert s["stdev_eps_sq"] == 0.0

    def test_failed_records_excluded_and_counted(self):
        stats = summarize(self.table([1.0, 3.0, 0.0], status=["ok", "ok", "deficient_rank"]))
        s = stats[0]
        assert s["count"] == 2
        assert s["failed"] == 1
        assert s["mean_eps_sq"] == pytest.approx(2.0)

    def test_group_without_ok_rows(self):
        [s] = summarize(self.table([0.0, 0.0], status=["deficient_rank", "degenerate_projection"]))
        assert (s["count"], s["failed"], s["single_sample"]) == (0, 2, False)
        assert all(np.isnan(s[key]) for key in ("mean_eps_sq", "stdev_residual"))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            summarize(self.table([]))

    def test_grouping_splits_on_k(self):
        stats = summarize(self.table([1.0, 3.0], k=[1, 2]))
        assert len(stats) == 2

    def test_groups_are_runs_of_rows(self):
        stats = summarize(self.table([1.0, 3.0, 0.5, 0.7, 0.9], k=[1, 1, 2, 2, 2]))
        assert [(s["k"], s["count"]) for s in stats] == [(1, 2), (2, 3)]
        assert stats[1]["mean_eps_sq"] == pytest.approx(0.7)


def test_reversed_weighted_matches_unpermuted_distance_distribution():
    # The weighted distance under the reversed model plays the role the
    # plain distance plays in the unpermuted model: replicate-by-replicate
    # the two experiments produce statistically matching values, while the
    # reversed model's raw distance is inflated.
    common = dict(k_values=(1,), n_values=(2000,), replicates=8, base_seed=21)
    plain = run_experiment(ExperimentConfig(
        models=((0.7, spiked_diag_pair(12, 0.7, 0.6), None),), **common))
    reversed_ = run_experiment(ExperimentConfig(
        models=((0.6, *reversed_pair(12, 0.7, 0.6)),), **common))
    mean_d_plain = np.mean(plain.d_sq)
    mean_eth_rev = np.mean(reversed_.eth_sq)
    mean_d_rev = np.mean(reversed_.d_sq)
    assert abs(mean_eth_rev - mean_d_plain) < 0.05
    assert mean_d_rev > mean_eth_rev + 0.5


def test_trivial_identity_prediction_is_flat_line():
    # With the trivial subspaces the distance is identically zero, so the
    # predicted value is the intercept (1 - rho) * 2k for every replicate.
    cfg = ExperimentConfig(
        models=identity_models(6, 0.5), k_values=(2,), n_values=(300,),
        replicates=4, base_seed=3, method="trivial",
    )
    records = run_experiment(cfg)
    assert records.predicted == pytest.approx(np.full(4, (1.0 - 0.5) * 4.0), abs=1e-12)
    assert records.eth_sq == pytest.approx(np.zeros(4), abs=1e-12)


class TestPoolSize:
    @pytest.mark.parametrize("workers, cpus, tasks, expected", [
        (1, 8, 100, 1),
        (4, 8, 100, 4),
        (64, 2, 100, 2),
        (64, 8, 3, 3),
        (2, 2, 1, 1),
    ])
    def test_capped_by_cpus_and_tasks(self, monkeypatch, workers, cpus, tasks, expected):
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert sim._pool_size(workers, tasks) == expected

    def test_single_worker_runs_serially(self, monkeypatch):
        # With one usable CPU no pool is started, whatever --threads asks for.
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        cfg = ExperimentConfig(identity_models(6, 0.5), (2,), (200,), 3, base_seed=7)
        assert_tables_equal(run_experiment(cfg, workers=8), run_experiment(cfg, workers=1))


@pytest.mark.parametrize("make", [
    lambda: identity_pair(4, 0.5),
    lambda: Subspace(np.eye(4)[:, :2]),
    lambda: CenteredData(np.array([[1.0, -1.0], [2.0, -2.0]])),
    lambda: NormalizedProjection(np.eye(2), 2),
    lambda: run_experiment(ExperimentConfig(identity_models(4, 0.5), (1,), (20,), 2)),
    lambda: ExperimentConfig(((0.5, *reversed_pair(4, 0.7, 0.5)),), (1,), (20,), 2),
], ids=["JointCovariance", "Subspace", "CenteredData", "NormalizedProjection", "Records",
        "ExperimentConfig"])
def test_instances_compare_and_hash_by_identity(make):
    # A field-wise == over arrays has no truth value, and an array has no hash.
    x, y = make(), make()
    assert x == x and x != y and not x == y
    assert len({x, x, y}) == 2
