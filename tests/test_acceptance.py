"""Acceptance suite: one test per criterion, at the pinned tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside pytest's own report.  The Monte Carlo criteria
use 200 replicates and a fixed base seed; expected values come from the
full-scale reference tables, with tolerances sized for 200 replicates.
"""

import numpy as np

from subalign import (
    ExperimentConfig,
    NormalizedProjection,
    center,
    fit_error_sq,
    hausdorff_sq,
    identity_pair,
    optimal_rotation,
    pca_subspace,
    principal_angles,
    projector,
    reversed_pair,
    rho,
    run_experiment,
    spiked_diag_pair,
    summarize,
    weighted_hausdorff_sq,
)

from conftest import random_joint_covariance, random_subspace

SEED = 42


def check(num, ok, description):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def stats_by(records, *fields):
    return {tuple(s[f] for f in fields): s for s in summarize(records)}


def test_criterion_01_rho_exactness():
    jc = spiked_diag_pair(20, 0.7, 0.6)
    got = [rho(jc, k) for k in (1, 2, 10)]
    expected = [0.6, 12.0 / 17.0, 6.0 / 7.3]
    worst = max(abs(g - e) for g, e in zip(got, expected))
    check(1, worst <= 1e-9, f"rho(k=1,2,10) = {got}, max error {worst:.2e} <= 1e-9")


def _illus1_table(method):
    betas = (0.0, 0.5, 0.9, 0.99)
    cfg = ExperimentConfig(
        models=tuple((b, identity_pair(6, b), None) for b in betas),
        k_values=(2,), n_values=(10_000,), replicates=200, base_seed=SEED, method=method,
    )
    stats = stats_by(run_experiment(cfg), "sweep_param")
    return {beta: stats[(beta,)]["mean_eps_sq"] for beta in betas}


def test_criterion_02_trivial_reference_means():
    means = _illus1_table("trivial")
    expected = {0.0: 3.9534, 0.5: 1.9999, 0.9: 0.4001, 0.99: 0.0400}
    errors = {b: abs(means[b] - v) for b, v in expected.items()}
    ok = all(e <= 0.015 for e in errors.values())
    check(2, ok, f"trivial mean eps^2 errors {errors} all <= 0.015")


def test_criterion_03_pca_reference_means():
    means = _illus1_table("pca")
    expected = {0.0: (3.9546, 0.02), 0.5: (2.7918, 0.07),
                0.9: (0.9232, 0.10), 0.99: (0.1352, 0.05)}
    errors = {b: (abs(means[b] - v), tol) for b, (v, tol) in expected.items()}
    ok = all(err <= tol for err, tol in errors.values())
    check(3, ok, f"pca mean eps^2 (error, tol) per beta: {errors}")


def test_criterion_04_normalized_means_show_phenomenon():
    cfg = ExperimentConfig(
        models=((0.7, spiked_diag_pair(20, 0.7, 0.6), None),),
        k_values=(1, 2, 10), n_values=(10_000,), replicates=200, base_seed=SEED, method="pca",
    )
    stats = stats_by(run_experiment(cfg), "k")
    means = {k: stats[(k,)]["mean_eps_sq_over_2k"] for k in (1, 2, 10)}
    expected = {1: (0.4017, 0.005), 2: (0.4323, 0.025), 10: (0.2797, 0.007)}
    errors = {k: (abs(means[k] - v), tol) for k, (v, tol) in expected.items()}
    within = all(err <= tol for err, tol in errors.values())
    inverted = means[2] > means[1]
    check(4, within and inverted,
          f"normalized means {means}, (error, tol) {errors}, k=2 exceeds k=1: {inverted}")


def test_criterion_05_small_gap_keeps_high_variance():
    cfg = ExperimentConfig(
        models=((0.75, spiked_diag_pair(20, 0.75, 0.6), None),),
        k_values=(1, 2), n_values=(10_000,), replicates=200, base_seed=SEED, method="pca",
    )
    stats = stats_by(run_experiment(cfg), "k")
    mean1, sd1 = stats[(1,)]["mean_eps_sq_over_2k"], stats[(1,)]["stdev_eps_sq_over_2k"]
    mean2, sd2 = stats[(2,)]["mean_eps_sq_over_2k"], stats[(2,)]["stdev_eps_sq_over_2k"]
    ok = (mean2 < mean1) and (sd2 > 5.0 * sd1)
    check(5, ok, f"lambda2=0.75: means k2={mean2:.4f} < k1={mean1:.4f}, "
                 f"stdev ratio {sd2 / sd1:.1f} > 5")


def test_criterion_06_isometry_correction_exact():
    cfg = ExperimentConfig(
        models=((0.6, *reversed_pair(20, 0.7, 0.6)),),
        k_values=(2,), n_values=(2_000,), replicates=200, base_seed=SEED, method="pca",
    )
    records = run_experiment(cfg)
    worst = np.max(np.abs(records.eth_sq - records.d_sq_corrected))
    check(6, worst < 1e-9,
          f"max |weighted - corrected| over {len(records)} replicates = {worst:.2e} < 1e-9")


def test_criterion_07_residuals_shrink_with_n():
    cfg = ExperimentConfig(
        models=((0.5, identity_pair(6, 0.5), None),),
        k_values=(2,), n_values=(100, 10_000), replicates=200, base_seed=SEED, method="pca",
    )
    records = run_experiment(cfg)
    mean_abs = {n: float(np.mean(np.abs(records.residual[records.n == n])))
                for n in (100, 10_000)}
    ok = mean_abs[10_000] < 0.03 and mean_abs[10_000] < mean_abs[100]
    check(7, ok, f"mean |residual|: n=1e4 {mean_abs[10_000]:.4f} < 0.03 "
                 f"and < n=1e2 {mean_abs[100]:.4f}")


def test_criterion_08_procrustes_oracle_and_probes():
    gen = np.random.default_rng(SEED)
    m, n, k = 6, 50, 2
    worst_gap = 0.0
    probes_beaten = True
    for _ in range(500):
        mats = gen.standard_normal((2, m, n))
        x = NormalizedProjection(np.sqrt(k) * mats[0] / np.linalg.norm(mats[0]), k)
        y = NormalizedProjection(np.sqrt(k) * mats[1] / np.linalg.norm(mats[1]), k)
        value = fit_error_sq(x, y)
        q = optimal_rotation(x, y)
        direct = float(np.linalg.norm(q @ x.matrix - y.matrix) ** 2)
        worst_gap = max(worst_gap, abs(value - direct))
        probes, _ = np.linalg.qr(gen.standard_normal((1000, m, m)))
        objectives = ((probes @ x.matrix - y.matrix) ** 2).sum(axis=(1, 2))
        probes_beaten &= bool(value <= objectives.min() + 1e-12)
    ok = worst_gap < 1e-8 and probes_beaten
    check(8, ok, f"max |closed form - direct| = {worst_gap:.2e} < 1e-8; "
                 f"optimum beats 1000 probes on all 500 instances: {probes_beaten}")


def test_criterion_09_bounds_fuzz():
    gen = np.random.default_rng(SEED)
    failures = 0
    for _ in range(10_000):
        m = int(gen.integers(2, 21))
        k = int(gen.integers(1, min(m, 10) + 1))
        a = random_subspace(gen, m, k)
        b = random_subspace(gen, m, k)
        jc = random_joint_covariance(gen, m)
        d2 = hausdorff_sq(a, b)
        eth2 = weighted_hausdorff_sq(a, b, jc.cov_xy)
        r = rho(jc, k)
        cosines = np.cos(principal_angles(a, b))
        ok = (
            0.0 <= d2 <= 2.0 * k
            and 0.0 <= eth2 <= 2.0 * k
            and 0.0 <= r <= 1.0
            and bool(np.all((cosines >= 0.0) & (cosines <= 1.0)))
        )
        failures += 0 if ok else 1
    check(9, failures == 0, f"{failures} bound violations over 10000 random draws")


def test_criterion_10_projected_trace_limit():
    gen = np.random.default_rng(SEED)
    data = gen.standard_normal((6, 100_000))
    c = center(data)
    p = projector(pca_subspace(c, 2))
    value = float(np.trace(p @ c.matrix @ c.matrix.T @ p.T) / (c.n - 1))
    check(10, abs(value - 2.0) <= 0.04,
          f"projected trace {value:.4f} within 2% of 2")
