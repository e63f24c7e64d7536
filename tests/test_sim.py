import concurrent.futures
import gc
import sys
import threading
import time
import tracemalloc
from itertools import product

import numpy as np
import pytest

from subalign import (
    ExperimentConfig,
    JointCovariance,
    ReplicateRecord,
    ScientistParams,
    identity_pair,
    make_cell,
    mvn_gram,
    replicate_seed,
    reversed_pair,
    rho,
    run_experiment,
    run_replicates,
    scientists_sample,
    spiked_diag_pair,
    summarize,
)
from subalign import sim
from subalign.grassmann import weighted_sq
from subalign.kernel import center_gram_inplace


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


class TestRunReplicate:
    def test_trivial_method_zero_distance(self):
        rec = run_replicates(make_cell(identity_pair(6, 0.5), 2), 500, [1], method="trivial")[0]
        assert rec.d_sq == 0.0
        assert rec.status == "ok"

    def test_identity_model_weighted_equals_unweighted(self):
        rec = run_replicates(make_cell(identity_pair(6, 0.5), 2), 500, [2], method="pca")[0]
        assert abs(rec.eth_sq - rec.d_sq) < 1e-12

    def test_reversed_model_correction_is_exact(self):
        jc, w = reversed_pair(20, 0.7, 0.6)
        rec = run_replicates(make_cell(jc, 2, w), 500, [3], method="pca")[0]
        assert abs(rec.eth_sq - rec.d_sq_corrected) < 1e-9

    def test_record_ranges_and_residual_identity(self):
        for seed in range(5):
            cell = make_cell(spiked_diag_pair(20, 0.7, 0.6), 2)
            rec = run_replicates(cell, 300, [seed], method="pca")[0]
            for value in (rec.d_sq, rec.eth_sq, rec.eps_sq):
                assert 0.0 <= value <= 4.0
            assert rec.residual == rec.eps_sq - rec.predicted

    def test_scientist_model(self):
        params = ScientistParams(m=6, gamma=1.0)
        rec = run_replicates(make_cell(params, 2), 400, [9], method="trivial")[0]
        assert rec.eps_sq == pytest.approx(0.0, abs=1e-9)
        assert rec.predicted == pytest.approx(0.0, abs=1e-9)

    def test_rank_deficiency_marks_failure(self):
        rec = run_replicates(make_cell(identity_pair(6, 0.5), 5), 4, [1], method="pca")[0]
        assert rec.status == "deficient_rank"
        assert rec.d_sq is None and rec.eps_sq is None

    def test_degenerate_projection_marks_failure(self):
        diag = np.diag([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        jc = JointCovariance(diag, diag, np.zeros((6, 6)))
        rec = run_replicates(make_cell(jc, 2), 50, [99], method="trivial")[0]
        assert rec.status == "degenerate_projection"

    @pytest.mark.parametrize("scale", [1e-170, 1e-250])
    def test_trivial_method_with_tiny_leading_coordinates(self, scale):
        # The trivial subspace's variances are about `scale` each: their product
        # underflows, but eps^2 does not depend on the scale of the first k coordinates.
        def eps_sq(s):
            d = np.diag([s, s, 1.0, 1.0])
            rec = run_replicates(make_cell(JointCovariance(d, d, 0.5 * d), 2), 200, [1],
                                 method="trivial")[0]
            assert rec.status == "ok"
            return rec.eps_sq

        assert eps_sq(scale) == pytest.approx(eps_sq(1.0), abs=1e-9)


class TestExperimentConfig:
    def test_rejects_bad_method(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig("illus1", 6, (2,), (100,), (0.5,), 3, method="svd")

    def test_rejects_k_above_m(self):
        with pytest.raises(ValueError, match="k values"):
            ExperimentConfig("illus1", 6, (7,), (100,), (0.5,), 3)

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentConfig("illus1", 6, (2,), (100,), (0.5,), 0)

    def test_rejects_replicates_beyond_the_seed_range(self):
        # Replicate indices are 32-bit in the seeding contract.  Only built, never run.
        assert ExperimentConfig("illus1", 6, (2,), (100,), (0.5,), 2**32).replicates == 2**32
        with pytest.raises(ValueError, match="replicates"):
            ExperimentConfig("illus1", 6, (2,), (100,), (0.5,), 2**32 + 1)

    @pytest.mark.parametrize("field, value", [
        ("k_values", (2.9,)), ("n_values", (100.7,)), ("replicates", 2.5), ("m", 6.0),
        ("base_seed", 1.5),
    ])
    def test_rejects_non_integral_sizes_and_seed(self, field, value):
        # int() used to run k = 2.9 as 2 and n = 100.7 as 100; a float m, replicate
        # count or seed passed here and then failed inside the run with a TypeError.
        fields = dict(experiment="illus1", m=6, k_values=(2,), n_values=(100,), sweep=(0.5,),
                      replicates=3)
        with pytest.raises(ValueError, match=f"{field} must be integers"):
            ExperimentConfig(**(fields | {field: value}))

    def test_accepts_numpy_integers(self):
        i = np.int64
        cfg = ExperimentConfig("illus1", i(6), (i(2),), (i(100),), (0.5,), i(2), base_seed=i(7))
        assert (cfg.m, cfg.k_values, cfg.n_values, cfg.replicates, cfg.base_seed) == (
            6, (2,), (100,), 2, 7)
        assert run_experiment(cfg) == run_experiment(
            ExperimentConfig("illus1", 6, (2,), (100,), (0.5,), 2, base_seed=7))

    def test_rejects_infeasible_sweep_before_work(self):
        cfg = ExperimentConfig("illus1", 6, (2,), (100,), (1.5,), 3)
        with pytest.raises(ValueError, match="beta"):
            cfg.cells

    def test_custom_requires_models(self):
        with pytest.raises(ValueError, match="models"):
            ExperimentConfig("custom", 6, (2,), (100,), (), 3)

    def test_custom_model_dimension_must_match_m(self):
        # Records would otherwise say m = 8 while the config and summary say 6.
        cfg = ExperimentConfig("custom", 6, (2,), (100,), (), 3,
                               models=((0.5, identity_pair(8, 0.5), None),))
        with pytest.raises(ValueError, match="model dimension 8 differs from m = 6"):
            cfg.cells

    @pytest.mark.parametrize("sweep_param", [np.nan, np.inf])
    def test_custom_sweep_param_must_be_finite(self, sweep_param):
        # NaN keys never compare equal, so a pooled run summarized into one
        # group per record.
        cfg = ExperimentConfig("custom", 6, (2,), (100,), (), 3,
                               models=((sweep_param, identity_pair(6, 0.5), None),))
        with pytest.raises(ValueError, match="sweep_param must be finite"):
            cfg.cells


    def test_custom_sweep_param_must_be_distinct(self):
        # Both models would be summarized as one group, its mean between theirs.
        models = ((0.5, identity_pair(6, 0.0), None), (0.5, identity_pair(6, 0.99), None))
        cfg = ExperimentConfig("custom", 6, (2,), (1000,), (), 20, models=models)
        with pytest.raises(ValueError, match="repeat a sweep_param"):
            cfg.cells


class TestMakeCell:
    def test_per_cell_values(self):
        jc, w = reversed_pair(8, 0.7, 0.5)
        cell = make_cell(jc, 2, w, sweep_param=0.5)
        assert (cell.sweep_param, cell.k) == (0.5, 2)
        assert np.array_equal(cell.draw(50, np.random.default_rng(3)),
                              mvn_gram(jc, 50, np.random.default_rng(3)))
        assert cell.isometry is w
        assert cell.rho == rho(jc, 2)
        # The weight is Cov(X, Y) = 0.5 w, so eth^2(A, B) = d^2(A, w B): 0 at B = w A,
        # whose span is orthogonal to A's (d^2 = 4).
        basis = np.eye(8)[:, :2]
        assert weighted_sq(basis, w @ basis, cell.weight) == pytest.approx(0.0, abs=1e-12)

    def test_scientists_model_resolves_to_its_covariance(self):
        # The two-device model is the identity pair at beta = gamma^2, drawn as data.
        for gamma in (0.4, 0.8, 1.0):
            params = ScientistParams(m=6, gamma=gamma, scenario="mixture")
            cell = make_cell(params, 2)
            twin = make_cell(identity_pair(6, gamma**2), 2)
            want = center_gram_inplace(scientists_sample(params, 50, np.random.default_rng(4)))
            assert np.array_equal(cell.draw(50, np.random.default_rng(4)), want)
            assert cell.rho == pytest.approx(gamma**2, abs=1e-15)
            assert cell.weight.mass == twin.weight.mass
            assert np.array_equal(cell.weight.scaled, twin.weight.scaled)
            assert cell.isometry is None and np.isnan(cell.sweep_param)

    def test_rejects_non_orthogonal_isometry(self):
        with pytest.raises(ValueError, match="not orthogonal"):
            make_cell(identity_pair(3, 0.5), 1, isometry=2 * np.eye(3))


class TestRunExperiment:
    def small_cfg(self, **overrides):
        base = dict(
            experiment="illus1", m=6, k_values=(2,), n_values=(200,),
            sweep=(0.2, 0.5), replicates=3, base_seed=7, method="pca",
        )
        base.update(overrides)
        return ExperimentConfig(**base)

    def test_record_count_and_order(self):
        records = run_experiment(self.small_cfg())
        assert len(records) == 6
        assert [r.sweep_param for r in records] == [0.2, 0.2, 0.2, 0.5, 0.5, 0.5]
        assert [r.replicate for r in records] == [0, 1, 2, 0, 1, 2]

    def test_rerun_is_bit_identical(self):
        cfg = self.small_cfg()
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_worker_count_does_not_change_results(self):
        cfg = self.small_cfg(replicates=4)
        assert run_experiment(cfg, workers=1) == run_experiment(cfg, workers=2)

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
                "custom", 6, (1, 2), (1000,), (), 3, base_seed=1, models=((0.5, jc, None),)))

        want, got = records(base), records(scaled)
        assert [r.status for r in got] == ["ok"] * 6
        for g, w in zip(got, want):
            for field in ("d_sq", "eth_sq", "eps_sq", "predicted", "residual"):
                assert getattr(g, field) == pytest.approx(getattr(w, field), abs=1e-9)

    def test_custom_models(self):
        jc, w = reversed_pair(8, 0.7, 0.5)
        cfg = ExperimentConfig(
            experiment="custom", m=8, k_values=(1, 2), n_values=(300,), sweep=(),
            replicates=2, base_seed=11, models=((0.5, jc, w),),
        )
        records = run_experiment(cfg)
        assert len(records) == 4
        assert all(r.d_sq_corrected is not None for r in records)
        assert all(abs(r.eth_sq - r.d_sq_corrected) < 1e-9 for r in records)

    @pytest.mark.parametrize("bad, match", [
        (lambda w: 2 * w, "not orthogonal"),
        (lambda w: np.eye(6), "isometry must be 8 x 8"),
    ], ids=["non_orthogonal", "wrong_shape"])
    def test_bad_isometry_fails_before_any_replicate(self, monkeypatch, bad, match):
        jc, w = reversed_pair(8, 0.7, 0.5)

        def custom_cfg():
            return ExperimentConfig("custom", 8, (2,), (100,), (), 3,
                                    models=((0.5, jc, bad(w)),))

        with pytest.raises(ValueError, match=match):
            custom_cfg().cells

        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool started before the cells were checked")

        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        with pytest.raises(ValueError, match=match):
            run_experiment(custom_cfg(), workers=2)

    def test_cells_survive_the_pool(self, monkeypatch):
        # The pool threads share the cells read-only: a scientists model's draw,
        # a Gaussian model's draw, an isometry and the weights.  Two n values put
        # chunks of different n on one thread; four threads on a short switch
        # interval interleave the draws of different threads.
        jc, w = reversed_pair(8, 0.7, 0.5)
        cfg = ExperimentConfig(
            experiment="custom", m=8, k_values=(1, 2), n_values=(100, 2000), sweep=(),
            replicates=3, base_seed=5,
            models=((0.8, ScientistParams(m=8, gamma=0.8), None), (0.5, jc, w)),
        )
        serial = run_experiment(cfg, workers=1)
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        assert run_experiment(cfg, workers=2) == serial
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert run_experiment(cfg, workers=4) == serial
        finally:
            sys.setswitchinterval(interval)
        assert [r.d_sq_corrected is None for r in serial] == [True] * 12 + [False] * 12

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
        cfg = self.small_cfg(n_values=(20, 30), sweep=(0.2, 0.5), replicates=501,
                             method="trivial")
        assert run_experiment(cfg, workers=2) == run_experiment(cfg, workers=1)
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
        cfg = self.small_cfg(n_values=(2000,), sweep=(0.5,), replicates=2048, method="trivial")
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
        cfg = self.small_cfg(k_values=(5,), n_values=(4,), sweep=(0.5,))
        records = run_experiment(cfg)
        assert len(records) == 3
        assert all(r.status == "deficient_rank" for r in records)

    @pytest.mark.parametrize("cfg, statuses", [
        (ExperimentConfig("illus2", 8, (1, 2), (2, 60, 400), (0.7,), 7, base_seed=3),
         {"ok", "deficient_rank"}),
        (ExperimentConfig("illus3", 8, (1, 3), (200,), (0.6,), 7, base_seed=4), {"ok"}),
        (ExperimentConfig("illus1", 4, (1, 2), (2, 500), (0.0, 0.9), 7, base_seed=5,
                          method="trivial"), {"ok"}),
    ], ids=["illus2", "illus3", "illus1_trivial"])
    def test_records_do_not_depend_on_workers_or_chunk_length(self, monkeypatch, cfg, statuses):
        # The kernel evaluates each matrix of a stack as it would alone, so a
        # replicate's record is the same in a chunk of 1, 3 or 7 (the whole cell).
        want = [run_replicates(cell, n, [replicate_seed(cfg.base_seed, p, r)], r,
                               method=cfg.method, experiment=cfg.experiment)[0]
                for p, (cell, n) in enumerate(product(cfg.cells, cfg.n_values))
                for r in range(cfg.replicates)]
        assert {r.status for r in want} == statuses
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: set(range(4)),
                            raising=False)
        for cap in (1, 3, 256):
            monkeypatch.setattr(sim, "_MAX_CHUNK", cap)
            for workers in (1, 2, 4):
                assert run_experiment(cfg, workers=workers) == want, (cap, workers)

    def test_chunk_stack_stays_within_its_memory_cap(self):
        # At m = 100 a replicate's Gram stack and eigenvectors take 480 kB, so
        # the 32 MiB cap splits 300 replicates into chunks of 69; 256 at once
        # would take 123 MB.
        cfg = ExperimentConfig("illus1", 100, (2,), (50,), (0.5,), 300)
        assert sim._chunk_size(cfg.m) == 69
        draw = 2 * cfg.m * 50 * 8
        tracemalloc.start()
        try:
            records = run_experiment(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [r.status for r in records] == ["ok"] * 300
        assert peak < sim._MAX_CHUNK_BYTES + draw + 4 * 2**20

    def test_run_keeps_no_draw_memory(self):
        # The draw of this cell is a 61 MiB (2m, n) array; none of it may outlive the run.
        cfg = ExperimentConfig("illus2", 20, (2,), (200_000,), (0.7,), 1)
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
    def record(eps, rep, status="ok", k=2):
        ok = status == "ok"
        return ReplicateRecord(
            experiment="custom", method="pca", m=6, k=k, n=100, sweep_param=0.5,
            replicate=rep,
            d_sq=0.0 if ok else None, eth_sq=0.0 if ok else None,
            eps_sq=eps if ok else None, predicted=2.0 if ok else None,
            residual=(eps - 2.0) if ok else None, status=status,
        )

    def test_mean_and_sample_stdev(self):
        stats = summarize([self.record(1.0, 0), self.record(3.0, 1)])
        assert len(stats) == 1
        s = stats[0]
        assert s.count == 2
        assert s.mean_eps_sq == pytest.approx(2.0)
        assert s.stdev_eps_sq == pytest.approx(np.sqrt(2.0))
        assert s.mean_eps_sq_over_2k == pytest.approx(0.5)
        assert s.mean_residual == pytest.approx(0.0)

    def test_all_equal_values(self):
        stats = summarize([self.record(1.5, i) for i in range(4)])
        assert stats[0].stdev_eps_sq == pytest.approx(0.0)

    def test_single_sample_flag(self):
        s = summarize([self.record(1.5, 0)])[0]
        assert s.single_sample
        assert s.stdev_eps_sq == 0.0

    def test_failed_records_excluded_and_counted(self):
        stats = summarize([
            self.record(1.0, 0), self.record(3.0, 1),
            self.record(0.0, 2, status="deficient_rank"),
        ])
        s = stats[0]
        assert s.count == 2
        assert s.failed == 1
        assert s.mean_eps_sq == pytest.approx(2.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            summarize([])

    def test_grouping_splits_on_k(self):
        stats = summarize([self.record(1.0, 0, k=1), self.record(3.0, 0, k=2)])
        assert len(stats) == 2


def test_reversed_weighted_matches_unpermuted_distance_distribution():
    # The weighted distance under the reversed model plays the role the
    # plain distance plays in the unpermuted model: replicate-by-replicate
    # the two experiments produce statistically matching values, while the
    # reversed model's raw distance is inflated.
    common = dict(m=12, k_values=(1,), n_values=(2000,), replicates=8, base_seed=21)
    plain = run_experiment(ExperimentConfig(
        experiment="illus2", sweep=(0.7,), beta=0.6, **common))
    reversed_ = run_experiment(ExperimentConfig(
        experiment="illus3", sweep=(0.6,), lambda2=0.7, **common))
    mean_d_plain = np.mean([r.d_sq for r in plain])
    mean_eth_rev = np.mean([r.eth_sq for r in reversed_])
    mean_d_rev = np.mean([r.d_sq for r in reversed_])
    assert abs(mean_eth_rev - mean_d_plain) < 0.05
    assert mean_d_rev > mean_eth_rev + 0.5


def test_trivial_identity_prediction_is_flat_line():
    # With the trivial subspaces the distance is identically zero, so the
    # predicted value is the intercept (1 - rho) * 2k for every replicate.
    cfg = ExperimentConfig(
        experiment="illus1", m=6, k_values=(2,), n_values=(300,), sweep=(0.5,),
        replicates=4, base_seed=3, method="trivial",
    )
    for rec in run_experiment(cfg):
        assert rec.predicted == pytest.approx((1.0 - 0.5) * 4.0, abs=1e-12)
        assert rec.eth_sq == pytest.approx(0.0, abs=1e-12)


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
        cfg = ExperimentConfig("illus1", 6, (2,), (200,), (0.5,), 3, base_seed=7)
        assert run_experiment(cfg, workers=8) == run_experiment(cfg, workers=1)
