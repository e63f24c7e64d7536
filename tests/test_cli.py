import csv
import json
import os
import stat
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from subalign import JointCovariance, cli, identity_pair, reversed_pair, sim, theory
from subalign.cli import CSV_COLUMNS, ILLUS1_BETAS, build_parser, main
from subalign.kernel import STATUSES
from subalign.sim import summarize

GOLDEN = Path(__file__).resolve().parent / "data"


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full, a device that is always full")


def run_illus1(tmp_path, *extra):
    out = tmp_path / "records.csv"
    summary = tmp_path / "summary.json"
    argv = [
        "illus1", "--m", "6", "--k", "2", "--n", "300", "--beta", "0.5",
        "--reps", "3", "--seed", "7", "--out", str(out), "--summary", str(summary),
        *extra,
    ]
    code = main(argv)
    return code, out, summary


def read_rows(path):
    """The records CSV as one dict per row, keyed by column name."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_illus1_writes_records_and_summary(tmp_path):
    code, out, summary = run_illus1(tmp_path)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3
    payload = json.loads(summary.read_text())
    assert payload["seed"] == 7
    assert payload["failed_replicates"] == 0
    assert payload["failed_by_reason"] == {}
    assert len(payload["summary"]) == 1
    line = payload["reference_lines"][0]
    assert line["rho"] == pytest.approx(0.5)
    assert line["intercept"] == pytest.approx((1 - 0.5) * 4.0)
    assert line["slope"] == pytest.approx(0.5)


def test_records_roundtrip_reproduces_summary(tmp_path):
    code, out, summary = run_illus1(tmp_path)
    assert code == 0
    rows = read_rows(out)

    def column(name, dtype=float):
        return np.array([r[name] or "nan" for r in rows], dtype=dtype)

    absent = np.full(len(rows), np.nan)
    records = sim.Records(
        rows[0]["method"], int(rows[0]["m"]), column("k", int), column("n", int),
        column("sweep_param"), column("replicate", int),
        np.array([STATUSES.index(r["status"]) for r in rows], dtype=np.int8),
        absent, absent, column("eps2"), absent, column("residual"), absent,
    )
    keys = ("method", "m", "k", "n", "sweep_param")
    regrouped = {tuple(s[f] for f in keys): s for s in summarize(records)}
    payload = json.loads(summary.read_text())
    for entry in payload["summary"]:
        stats = regrouped[tuple(entry[f] for f in keys)]
        for field in ("mean_eps_sq", "stdev_eps_sq", "mean_eps_sq_over_2k",
                      "stdev_eps_sq_over_2k", "mean_residual", "stdev_residual"):
            assert stats[field] == pytest.approx(entry[field], abs=1e-9)


@pytest.mark.parametrize("name, argv, code", [
    ("illus1_trivial",
     ["illus1", "--method", "trivial", "--n", "2000", "--reps", "4", "--threads", "2"], 0),
    ("illus2",
     ["illus2", "--k", "1", "2", "--n", "2", "500", "--reps", "3", "--lambda2", "0.7", "0.75"],
     1),
    ("illus3", ["illus3", "--k", "1", "2", "--n", "500", "--reps", "3"], 0),
    ("illus1_pca", ["illus1", "--n", "200", "--reps", "2"], 0),
    ("illus2_nsweep", ["illus2", "--n-sweep", "--m", "8", "--reps", "3"], 0),
])
def test_outputs_match_the_golden_files(tmp_path, name, argv, code):
    # tests/data holds the records CSV and summary JSON these argv wrote: at
    # 0.13.0, the trivial path, the PCA path with deficient_rank rows (n = 2),
    # and the isometry path with its corrected distance and correction gap; at
    # 0.14.0, illus1's default betas by PCA and the illus2 n sweep.
    out, summary = tmp_path / "records.csv", tmp_path / "summary.json"
    assert main([*argv, "--out", str(out), "--summary", str(summary)]) == code
    assert out.read_bytes() == (GOLDEN / f"{name}_records.csv").read_bytes()
    assert summary.read_bytes() == (GOLDEN / f"{name}_summary.json").read_bytes()


def test_records_csv_streams_in_bounded_memory(tmp_path):
    # 200k rows, a third failed and none with a corrected distance: the writer takes
    # its rows one at a time (a .tolist() of one float column alone is 6.1 MiB).
    rows = 200_000
    rng = np.random.default_rng(5)
    status = np.where(np.arange(rows) % 3 == 0, 1, 0).astype(np.int8)
    eps = np.where(status == 0, rng.uniform(0, 4, rows), np.nan)
    absent = np.full(rows, np.nan)
    records = sim.Records("pca", 20, np.full(rows, 2), np.full(rows, 10_000),
                          np.full(rows, 0.7), np.arange(rows), status,
                          eps, eps, eps, eps, eps - eps, absent)
    out = tmp_path / "r.csv"
    tracemalloc.start()
    try:
        cli.write_records_csv(records, str(out), "custom")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    lines = out.read_text().splitlines()
    assert len(lines) == rows + 1
    assert lines[1] == "custom,pca,20,2,10000,0.7,0,,,,,,,deficient_rank,"
    for i in (1, rows - 1):
        values = ",".join([f"{eps[i]:.12g}"] * 4)
        assert lines[i + 1] == f"custom,pca,20,2,10000,0.7,{i},{values},0,,ok,"


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_isometry_run_writes_corrected_columns_only_where_defined(tmp_path, workers):
    # A custom run of a model without an isometry, then one with: the first
    # model's rows have empty d2_corrected and correction_gap, the second's have both.
    jc, w = reversed_pair(8, 0.7, 0.5)
    models = ((0.8, identity_pair(8, 0.8), None), (0.5, jc, w))
    cfg = sim.ExperimentConfig(models, (1, 2), (300,), 3, base_seed=2)
    cli.write_records_csv(sim.run_experiment(cfg, workers=workers), str(tmp_path / "r.csv"),
                          "custom")
    rows = read_rows(tmp_path / "r.csv")
    assert [(r["sweep_param"], r["k"]) for r in rows] == (
        [("0.8", "1")] * 3 + [("0.8", "2")] * 3 + [("0.5", "1")] * 3 + [("0.5", "2")] * 3)
    for r in rows:
        assert r["status"] == "ok"
        assert "" not in [r[c] for c in ("d2", "eth2", "eps2", "predicted", "residual")]
    assert {(r["d2_corrected"], r["correction_gap"]) for r in rows[:6]} == {("", "")}
    for r in rows[6:]:
        assert float(r["correction_gap"]) < 1e-9
        assert float(r["d2_corrected"]) == pytest.approx(float(r["eth2"]), abs=1e-9)


def test_trivial_method_zeroes_distance_column(tmp_path):
    code, out, _ = run_illus1(tmp_path, "--method", "trivial")
    assert code == 0
    assert all(float(r["d2"]) == 0.0 for r in read_rows(out))


def test_illus3_emits_corrected_distance(tmp_path):
    # The weighted distance absorbs the reversal at any beta != 0, however small.
    out = tmp_path / "r.csv"
    summary = tmp_path / "s.json"
    for beta in ("0.6", "1e-15"):
        code = main([
            "illus3", "--k", "1", "2", "--n", "2000", "--reps", "3", "--seed", "5",
            "--beta", beta, "--out", str(out), "--summary", str(summary),
        ])
        assert code == 0
        for r in read_rows(out):
            assert float(r["correction_gap"]) < 1e-9, beta
            assert r["d2_corrected"] != ""
            # The raw distance ignores the coordinate reversal and is inflated.
            assert float(r["d2"]) > float(r["eth2"]) + 0.5


def test_failed_replicates_exit_code(tmp_path):
    out = tmp_path / "r.csv"
    summary = tmp_path / "s.json"
    code = main([
        "illus1", "--m", "6", "--k", "5", "--n", "4", "--beta", "0.5",
        "--reps", "2", "--out", str(out), "--summary", str(summary),
    ])
    assert code == 1
    payload = json.loads(summary.read_text())
    assert payload["failed_replicates"] == 2


def test_unwritable_output_path(tmp_path):
    code, *_ = run_illus1(tmp_path, "--out", str(tmp_path / "missing_dir" / "r.csv"))
    assert code == 2


@pytest.mark.parametrize("flag", ["--out", "--summary"])
def test_unwritable_output_fails_before_any_replicate(tmp_path, monkeypatch, capsys, flag):
    def no_run(*args, **kwargs):
        raise AssertionError("replicates ran before the output paths were checked")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    code, *_ = run_illus1(tmp_path, flag, str(tmp_path / "missing_dir" / "f"))
    assert code == 2
    assert "cannot write output" in capsys.readouterr().err


def test_models_and_rho_are_computed_once_per_cell(tmp_path, monkeypatch):
    built, rho_calls = [], []

    def counted(fn, log):
        def wrapper(*args, **kwargs):
            log.append(args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "spiked_diag_pair", counted(cli.spiked_diag_pair, built))
    # Counted wherever rho is bound, so a second computation in the CLI would show.
    for module in (sim, cli):
        monkeypatch.setattr(module, "rho", counted(theory.rho, rho_calls), raising=False)
    code = main([
        "illus2", "--m", "6", "--k", "1", "2", "--n", "40", "--lambda2", "0.7", "0.72", "0.74",
        "--reps", "2", "--out", str(tmp_path / "r.csv"), "--summary", str(tmp_path / "s.json"),
    ])
    assert code == 0
    assert sorted(args[1] for args in built) == [0.7, 0.72, 0.74]
    assert len(rho_calls) == 3 * 2


def test_invalid_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["illus1", "--bogus"])
    assert exc.value.code == 2


def test_illus1_default_record_count_formula():
    args = build_parser().parse_args(["illus1"])
    n_count = len(args.n or [1000, 10000])
    betas = args.beta if args.beta is not None else ILLUS1_BETAS
    assert n_count * len(betas) * args.reps == 2 * 11 * 200
    assert args.m == 6 and args.seed == 42 and args.method == "pca"


# Each experiment's own flags, at small n; the shared flags are added by the tests below.
MAPPING_CASES = {
    "illus1": (["illus1", "--k", "2", "--n", "60", "--beta", "0.3", "0.5"], 2),
    "illus2": (["illus2", "--k", "1", "2", "--n", "60", "--lambda2", "0.71", "0.73"], 4),
    "illus2_n_sweep": (["illus2", "--n-sweep", "--n", "50", "100"], 2),
    "illus3": (["illus3", "--k", "1", "2", "--n", "60"], 2),
}


@pytest.mark.parametrize("case", sorted(MAPPING_CASES))
def test_shared_flags_reach_the_run(tmp_path, monkeypatch, case):
    argv, cells = MAPPING_CASES[case]
    configs = []

    def recorded(cfg, **kwargs):
        configs.append(cfg)
        return sim.run_experiment(cfg, **kwargs)

    monkeypatch.setattr(cli, "run_experiment", recorded)
    out, summary = tmp_path / "r.csv", tmp_path / "s.json"
    code = main([*argv, "--m", "8", "--reps", "3", "--seed", "11", "--method", "trivial",
                 "--out", str(out), "--summary", str(summary)])
    assert code == 0
    [cfg] = configs
    assert (cfg.m, cfg.replicates, cfg.base_seed, cfg.method) == (8, 3, 11, "trivial")
    rows = read_rows(out)
    per_cell = Counter((r["sweep_param"], r["k"], r["n"]) for r in rows)
    assert len(per_cell) == cells and set(per_cell.values()) == {3}
    assert {(r["experiment"], r["m"], r["method"]) for r in rows} == {(argv[0], "8", "trivial")}
    payload = json.loads(summary.read_text())
    assert (payload["seed"], payload["config"]["replicates"]) == (11, 3)


@pytest.mark.parametrize("argv, beta, lambda2", [
    (["illus1", "--n", "60", "--beta", "0.5"], None, None),
    (["illus2", "--n", "60", "--lambda2", "0.71", "0.73", "--beta", "0.5"], 0.5, None),
    (["illus2", "--n-sweep", "--n", "50", "100"], 0.6, None),
    (["illus3", "--n", "60", "--beta", "0.5", "--lambda2", "0.72"], 0.5, 0.72),
], ids=["illus1", "illus2", "illus2_n_sweep", "illus3"])
def test_summary_reports_only_the_parameters_the_run_reads(tmp_path, argv, beta, lambda2):
    # illus1 sweeps beta and fixes no lambda2; illus2 sweeps lambda2.
    summary = tmp_path / "s.json"
    code = main([*argv, "--m", "6", "--k", "2", "--reps", "1", "--out", str(tmp_path / "r.csv"),
                 "--summary", str(summary)])
    assert code == 0
    config = json.loads(summary.read_text())["config"]
    assert (config["beta"], config["lambda2"]) == (beta, lambda2)


def test_illus2_prints_theoretical_rho_and_n_sweep_groups(tmp_path, capsys):
    out = tmp_path / "r.csv"
    summary = tmp_path / "s.json"
    code = main([
        "illus2", "--n-sweep", "--reps", "1", "--seed", "3",
        "--out", str(out), "--summary", str(summary),
    ])
    assert code == 0
    assert "rho(sweep_param=0.7, k=2) = 0.705882352941" in capsys.readouterr().out
    payload = json.loads(summary.read_text())
    assert sorted(entry["n"] for entry in payload["summary"]) == [10, 100, 1000, 10000]


def test_rho_lines_tell_close_sweep_values_apart(tmp_path, capsys):
    # Sweep values equal to 6 significant digits print apart, to the summary's 12.
    code = main(["illus2", "--lambda2", "0.7000001", "0.7000002", "--k", "1", "--n", "50",
                 "--reps", "1", "--out", str(tmp_path / "r.csv"),
                 "--summary", str(tmp_path / "s.json")])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("rho(")]
    assert [line.split(",")[0] for line in lines] == [
        "rho(sweep_param=0.7000001", "rho(sweep_param=0.7000002"]


def write_matrix(path, mat):
    np.savetxt(path, mat, delimiter=",")


class TestCompute:
    def test_identical_files(self, tmp_path, rng, capsys):
        data = rng.standard_normal((4, 60))
        x_path = tmp_path / "x.csv"
        write_matrix(x_path, data)
        code = main(["compute", str(x_path), str(x_path), "--k", "2"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["eps_sq"] == pytest.approx(0.0, abs=1e-9)
        assert result["d_sq"] == pytest.approx(0.0, abs=1e-9)
        assert result["rho_hat"] == pytest.approx(1.0, abs=1e-9)

    def test_trivial_method(self, tmp_path, rng, capsys):
        data = rng.standard_normal((4, 60))
        x_path = tmp_path / "x.csv"
        write_matrix(x_path, data)
        code = main(["compute", str(x_path), str(x_path), "--k", "2",
                     "--method", "trivial"])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["d_sq"] == 0.0
        assert result["eps_sq"] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("method", ["pca", "trivial"])
    def test_without_cross_covariance_prints_no_eth(self, tmp_path, rng, capsys, method):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix(x_path, rng.standard_normal((4, 60)))
        write_matrix(y_path, rng.standard_normal((4, 60)))
        assert main(["compute", str(x_path), str(y_path), "--k", "2", "--method", method]) == 0
        out = capsys.readouterr().out
        assert "null" not in out
        assert list(json.loads(out)) == ["m", "n", "k", "method", "eps_sq", "d_sq", "rho_hat"]

    def test_input_too_large_for_memory_exits_2(self, tmp_path, rng, monkeypatch, capsys):
        # A stand-in for a Gram matrix numpy cannot allocate: a real one is refused
        # only where the operating system does not overcommit memory.
        def refuse(z):
            raise MemoryError("Unable to allocate 29.1 TiB")

        monkeypatch.setattr(cli, "center_gram_inplace", refuse)
        x_path = tmp_path / "x.csv"
        write_matrix(x_path, rng.standard_normal((4, 30)))
        assert main(["compute", str(x_path), str(x_path), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: not enough memory") and captured.err.count("\n") == 1

    def test_cross_covariance_enables_weighted_distance(self, tmp_path, rng, capsys):
        x = rng.standard_normal((4, 60))
        y = rng.standard_normal((4, 60))
        x_path, y_path, c_path = (tmp_path / f"{s}.csv" for s in "xyc")
        write_matrix(x_path, x)
        write_matrix(y_path, y)
        write_matrix(c_path, 0.5 * np.eye(4))
        code = main(["compute", str(x_path), str(y_path), "--k", "2",
                     "--cross-cov", str(c_path)])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["eth_sq"] == pytest.approx(result["d_sq"], abs=1e-9)

    def test_sample_cross_covariance_makes_the_law_exact(self, tmp_path, rng, capsys):
        # With the sample Cov(X, Y) as the weight, the PCA eps^2 is the plug-in law's
        # (1 - rho_hat) 2k + rho_hat eth^2 on the data itself.
        x = rng.standard_normal((5, 80))
        y = 0.6 * x + rng.standard_normal((5, 80))
        x_path, y_path, c_path = (tmp_path / f"{s}.csv" for s in "xyc")
        write_matrix(x_path, x)
        write_matrix(y_path, y)
        centered = [v - v.mean(axis=1, keepdims=True) for v in (x, y)]
        np.savetxt(c_path, centered[0] @ centered[1].T / 79, delimiter=",", fmt="%.17g")
        assert main(["compute", str(x_path), str(y_path), "--k", "2",
                     "--cross-cov", str(c_path)]) == 0
        result = json.loads(capsys.readouterr().out)
        r = result["rho_hat"]
        assert abs(result["eps_sq"] - ((1 - r) * 4 + r * result["eth_sq"])) <= 1e-10

    def test_shape_mismatch_exits_2(self, tmp_path, rng, capsys):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        write_matrix(x_path, rng.standard_normal((4, 30)))
        write_matrix(y_path, rng.standard_normal((5, 30)))
        assert main(["compute", str(x_path), str(y_path), "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: shape mismatch: (4, 30) vs (5, 30)\n"

    def test_k_out_of_range_exits_2(self, tmp_path, rng, capsys):
        x_path = tmp_path / "x.csv"
        write_matrix(x_path, rng.standard_normal((4, 30)))
        assert main(["compute", str(x_path), str(x_path), "--k", "9"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need 1 <= k <= m, got k=9, m=4\n"

    @pytest.mark.parametrize("k, cross, message", [
        (0, None, "need 1 <= k <= m, got k=0, m=4"),
        (0, np.eye(4), "need 1 <= k <= m, got k=0, m=4"),
        (5, None, "need 1 <= k <= m, got k=5, m=4"),
        (5, np.eye(4), "need 1 <= k <= m, got k=5, m=4"),
        (2, np.ones((4, 3)), "cross_cov must be 4 x 4, got shape (4, 3)"),
        (2, np.eye(3), "cross_cov must be 4 x 4, got shape (3, 3)"),
        (4, np.eye(3), "cross_cov must be 4 x 4, got shape (3, 3)"),
        (2, np.where(np.eye(4) > 0, np.nan, 0.5), "cross_cov has non-finite entries"),
    ], ids=["k0", "k0_cross", "k_above_m", "k_above_m_cross", "cross_not_square",
            "cross_wrong_size", "cross_smaller_than_k", "cross_nan"])
    @pytest.mark.parametrize("method", ["pca", "trivial"])
    def test_rejected_by_the_owner_exits_2_with_one_line(self, tmp_path, rng, capsys, method,
                                                         k, cross, message):
        # compute checks only that X and Y share a shape and are finite; evaluate_grams
        # checks k, then the cross covariance against the data's m (grassmann.check_weight).
        x = rng.standard_normal((4, 30))
        x_path, y_path, c_path = (tmp_path / f"{s}.csv" for s in "xyc")
        write_matrix(x_path, x)
        write_matrix(y_path, 0.6 * x + rng.standard_normal((4, 30)))
        argv = ["compute", str(x_path), str(y_path), "--k", str(k), "--method", method]
        if cross is not None:
            write_matrix(c_path, cross)
            argv += ["--cross-cov", str(c_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_deficient_rank_exits_3(self, tmp_path, rng, capsys):
        v = rng.standard_normal(12)
        x_path = tmp_path / "x.csv"
        write_matrix(x_path, np.vstack([v, 2 * v, -v]))
        code = main(["compute", str(x_path), str(x_path), "--k", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "deficient rank" in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("bad", ["x", "y", "cross"])
    def test_non_finite_input_exits_2(self, tmp_path, rng, capsys, bad):
        paths = {}
        for name, shape in (("x", (4, 30)), ("y", (4, 30)), ("cross", (4, 4))):
            mat = rng.standard_normal(shape)
            if name == bad:
                mat[1, 2] = np.nan
            paths[name] = tmp_path / f"{name}.csv"
            write_matrix(paths[name], mat)
        code = main(["compute", str(paths["x"]), str(paths["y"]), "--k", "2",
                     "--cross-cov", str(paths["cross"])])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_degenerate_projection_exits_3(self, tmp_path, rng, capsys):
        data = rng.standard_normal((4, 30))
        data[:2] = 1.0  # constant rows: the first two coordinates carry no variance
        x_path = tmp_path / "x.csv"
        write_matrix(x_path, data)
        code = main(["compute", str(x_path), str(x_path), "--k", "2", "--method", "trivial"])
        assert code == 3
        assert "degenerate projection" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["compute", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                     "--k", "1"]) == 2

    @pytest.mark.parametrize("content", ["", "# a comment, no rows\n"], ids=["empty", "comment"])
    @pytest.mark.parametrize("empty", ["x", "y", "cross"])
    def test_empty_input_exits_2_with_one_line(self, tmp_path, rng, capsys, empty, content):
        paths = {}
        for name, shape in (("x", (4, 30)), ("y", (4, 30)), ("cross", (4, 4))):
            paths[name] = tmp_path / f"{name}.csv"
            write_matrix(paths[name], rng.standard_normal(shape))
        paths[empty].write_text(content)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compute", str(paths["x"]), str(paths["y"]), "--k", "2",
                         "--cross-cov", str(paths["cross"])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot read matrix: {paths[empty]} contains no data\n"

    @pytest.mark.parametrize("content", [
        b"1,2,3\n4,5\n", b"1;2;3\n4;5;6\n", b"1,2,3,\n4,5,6,\n", b"1,2,3\n4,5,\xff\xfe\n", None,
    ], ids=["ragged", "semicolons", "trailing_comma", "not_utf8", "directory"])
    def test_malformed_input_exits_2_with_one_line(self, tmp_path, capsys, content):
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        if content is None:
            x.mkdir()
        else:
            x.write_bytes(content)
        y.write_text("1,2,3\n4,5,7\n")
        assert main(["compute", str(x), str(y), "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read matrix: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_byte_order_mark_is_skipped(self, tmp_path, rng, capsys):
        # Some spreadsheet exports begin a UTF-8 file with the byte-order mark EF BB BF.
        x = rng.standard_normal((4, 40))
        x_path, bom_path, y_path = (tmp_path / f"{s}.csv" for s in ("x", "bom", "y"))
        write_matrix(x_path, x)
        write_matrix(y_path, 0.6 * x + rng.standard_normal((4, 40)))
        bom_path.write_bytes(b"\xef\xbb\xbf" + x_path.read_bytes())
        outputs = []
        for path in (x_path, bom_path):
            assert main(["compute", str(path), str(y_path), "--k", "2"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("method", ["pca", "trivial"])
    def test_swapping_x_and_y_transposes_the_cross_covariance(self, tmp_path, rng, capsys,
                                                             method):
        # eps^2, d^2, eth^2 and rho_hat are symmetric in X and Y once C becomes C^T.
        x = rng.standard_normal((6, 80))
        mats = {"x": x, "y": 0.6 * x + 0.8 * rng.standard_normal((6, 80)),
                "c": rng.standard_normal((6, 6))}
        mats["ct"] = mats["c"].T
        for name, mat in mats.items():
            write_matrix(tmp_path / f"{name}.csv", mat)
        results = []
        for first, second, cross in (("x", "y", "c"), ("y", "x", "ct")):
            code = main(["compute", str(tmp_path / f"{first}.csv"),
                         str(tmp_path / f"{second}.csv"), "--k", "2", "--method", method,
                         "--cross-cov", str(tmp_path / f"{cross}.csv")])
            assert code == 0
            results.append(json.loads(capsys.readouterr().out, parse_constant=_reject_constant))
        forward, swapped = results
        for key in ("eps_sq", "d_sq", "eth_sq", "rho_hat"):
            assert swapped[key] == pytest.approx(forward[key], rel=0, abs=1e-12)

    def test_one_observation_exits_2_with_one_line(self, tmp_path, capsys):
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        x_path.write_text("1\n2\n3\n")
        y_path.write_text("4\n5\n7\n")
        assert main(["compute", str(x_path), str(y_path), "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "2 observations" in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("scaled, weight, scale", [
        pytest.param("x", None, 1e200, id="1e+200"),
        pytest.param("x", None, 1e-200, id="1e-200"),
        pytest.param("c", np.ones((4, 4)), 1e308, id="cross_ones-1e+308"),
        pytest.param("c", np.fliplr(np.eye(4)), 0.5e-15, id="cross_reversal-5e-16"),
    ])
    def test_extreme_scale_matches_unit_scale(self, tmp_path, rng, capsys, scaled, weight,
                                              scale):
        # Every output is scale-free, but the Gram matrix squares the scale of X
        # (1e200 would overflow it, 1e-200 underflow it to a deficient rank), the
        # weight's SVD would overflow at 1e308, and a weight of 5e-16 must not
        # count as zero (eth^2 would come out as d^2).
        x = rng.standard_normal((4, 50))
        mats = {"x": x, "y": 0.6 * x + rng.standard_normal((4, 50)),
                "c": rng.standard_normal((4, 4)) if weight is None else weight}
        results = []
        for factor in (1.0, scale):
            for name, mat in mats.items():
                write_matrix(tmp_path / f"{name}.csv", factor * mat if name == scaled else mat)
            code = main(["compute", *(str(tmp_path / f"{name}.csv") for name in "xy"),
                         "--k", "2", "--cross-cov", str(tmp_path / "c.csv")])
            assert code == 0
            results.append(json.loads(capsys.readouterr().out))
        unit, scaled_result = results
        for key in ("eps_sq", "d_sq", "eth_sq", "rho_hat"):
            assert scaled_result[key] == pytest.approx(unit[key], abs=1e-9)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


class TestUsageErrors:
    def test_zero_reps_exits_2(self, tmp_path, capsys):
        code, out, summary = run_illus1(tmp_path, "--reps", "0")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() and not summary.exists()

    def test_infeasible_model_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["illus2", "--beta", "0.9", "--reps", "1", "--out", str(out),
                     "--summary", str(tmp_path / "s.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive semidefinite" in err
        assert not out.exists()

    def test_replicates_beyond_the_seed_range_exit_2(self, tmp_path, monkeypatch, capsys):
        # Replicate indices are 32-bit; a run this large would exhaust memory
        # building its task list, so it must be refused before it starts.
        def no_run(*args, **kwargs):
            raise AssertionError("run started")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        code, out, _ = run_illus1(tmp_path, "--reps", str(2**32 + 1))
        assert code == 2
        assert "replicates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads_exits_2(self, tmp_path, capsys, threads):
        code, out, _ = run_illus1(tmp_path, "--threads", threads)
        assert code == 2
        assert "--threads" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--beta", "0.5"), ("--k", "1"), ("--n", "100")])
    def test_repeated_value_exits_2(self, tmp_path, capsys, flag, value):
        # A repeated sweep, k or n value would merge its cells into one summary group.
        code, out, _ = run_illus1(tmp_path, flag, value, value)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "repeats" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, k, m", [(["illus1", "--k", "2", "7"], 7, 6),
                                            (["illus2", "--k", "0"], 0, 20),
                                            (["illus3", "--k", "21"], 21, 20)],
                             ids=["illus1", "illus2", "illus3"])
    def test_k_outside_1_to_m_exits_2(self, tmp_path, monkeypatch, capsys, argv, k, m):
        # rho refuses it as the cells are built, in the text `compute --k` prints.
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--n", "50", "--reps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: need 1 <= k <= m, got k={k}, m={m}\n"
        assert list(tmp_path.iterdir()) == []

    def test_n_below_2_exits_2(self, tmp_path, monkeypatch, capsys):
        # The config refuses it before any file is made: centering needs two observations.
        monkeypatch.chdir(tmp_path)
        assert main(["illus1", "--n", "1", "--reps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n values must be >= 2: (1,)\n"
        assert list(tmp_path.iterdir()) == []

    def test_sweep_values_that_print_alike_exit_2(self, tmp_path, monkeypatch, capsys):
        # Every output prints sweep values at 12 significant digits, so both cells would
        # read as 0.1: in the rho lines, the records' keys and the summary groups.
        monkeypatch.chdir(tmp_path)
        assert main(["illus1", "--beta", "0.1", "0.1000000000001", "--n", "50",
                     "--reps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: sweep values 0.1 and 0.1000000000001 both print as 0.1 at 12 significant "
            "digits\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        [cmd, flag, value] for cmd, flag in (("illus1", "--beta"), ("illus2", "--beta"),
                                             ("illus3", "--beta"), ("illus2", "--lambda2"),
                                             ("illus3", "--lambda2"))
        for value in ("nan", "inf")])
    def test_non_finite_model_flag_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        # The model constructors reject the value before any replicate runs.
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--reps", "1", "--n", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_nan_beta_names_the_flag_value(self, tmp_path, monkeypatch, capsys):
        # identity_pair's range check fails on NaN, as illus2's and illus3's checks do.
        monkeypatch.chdir(tmp_path)
        assert main(["illus1", "--beta", "nan", "--reps", "1", "--n", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: |beta| <= 1 required for positive semidefiniteness, got nan\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("summary", ["same.out", "link.out"])
    def test_out_and_summary_on_one_file_exits_2(self, tmp_path, capsys, summary):
        # The summary would overwrite the records; a symlink to the records is the same file.
        (tmp_path / "link.out").symlink_to(tmp_path / "same.out")
        code = main(["illus1", "--n", "200", "--reps", "2", "--beta", "0.5",
                     "--out", str(tmp_path / "same.out"), "--summary", str(tmp_path / summary)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "same file" in err
        assert not (tmp_path / "same.out").exists()

    def test_out_and_summary_on_one_device_exit_0(self, capsys):
        # Only a regular file would be overwritten: a device takes both outputs.
        assert main(["illus1", "--n", "200", "--reps", "2", "--beta", "0.5",
                     "--out", os.devnull, "--summary", os.devnull]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("size", [("--m", "100000000", "--n", "10"),
                                      ("--n", "10000000000000")], ids=["m", "n"])
    def test_run_too_large_for_memory_exits_2(self, tmp_path, capsys, size):
        # np.eye(m) would take 71 PiB and the (2m, n) draw 873 TiB: both exceed the
        # address space, so numpy refuses them outright under any overcommit policy.
        code, out, summary = run_illus1(tmp_path, "--reps", "1", *size)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "memory" in err
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("argv", [["illus2", "--lambda2", "1e308"],
                                      ["illus3", "--lambda2", "1e307"]], ids=["illus2", "illus3"])
    def test_overflowed_draw_exits_2(self, tmp_path, monkeypatch, capsys, argv, threads):
        # The model is feasible, but its Gram matrix overflows float64 in the draw: the
        # kernel's non-finite check is the one report, not numpy's overflow warning.
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--reps", "2", "--n", "100", "--k", "2", "--threads", threads]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "non-finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing, out, summary, extra", [
        ({}, "rec.csv", "nodir/s.json", []),
        ({"rec.csv": b"kept,1\n"}, "rec.csv", "nodir/s.json", []),
        # The probe opens /dev/full; the final write fails with ENOSPC.
        pytest.param({}, "/dev/full", "s.json", [], marks=NEEDS_DEV_FULL),
        pytest.param({}, "rec.csv", "/dev/full", [], marks=NEEDS_DEV_FULL),
        # A base seed outside [0, 2**64) would alias one inside it.
        ({"rec.csv": b"kept,1\n"}, "rec.csv", "s.json", ["--seed", "-1"]),
        # The records are written before the summary: an existing file keeps its bytes
        # whichever of the two writes fails.
        pytest.param({"rec.csv": b"kept,1\n"}, "rec.csv", "/dev/full", [], marks=NEEDS_DEV_FULL),
        pytest.param({"s.json": b"{}\n"}, "/dev/full", "s.json", [], marks=NEEDS_DEV_FULL),
    ], ids=["unwritable_summary", "existing_records", "full_records", "full_summary",
            "negative_seed", "full_summary_existing_records", "full_records_existing_summary"])
    def test_rejected_run_leaves_the_files_as_they_were(self, tmp_path, monkeypatch, capsys,
                                                        existing, out, summary, extra):
        # The output probe creates the files it opens; a rejection, or a failed final
        # write, removes only those.
        monkeypatch.chdir(tmp_path)
        for name, data in existing.items():
            (tmp_path / name).write_bytes(data)
        code = main(["illus1", "--reps", "1", "--n", "50", "--out", out, "--summary", summary,
                     *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == existing  # no temporary

    @pytest.mark.parametrize("existing", [{}, {"rec.csv": b"kept,1\n"}], ids=["new", "existing"])
    def test_interrupted_run_removes_the_files_it_created(self, tmp_path, monkeypatch, existing):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_experiment", interrupt)
        monkeypatch.chdir(tmp_path)
        for name, data in existing.items():
            (tmp_path / name).write_bytes(data)
        with pytest.raises(KeyboardInterrupt):
            main(["illus1", "--reps", "1", "--n", "50", "--out", "rec.csv", "--summary", "s.json"])
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == existing


@pytest.mark.parametrize("writable_dir", [True, False], ids=["replaced", "in_place"])
def test_outputs_keep_their_links_and_modes(tmp_path, monkeypatch, writable_dir):
    # A symlinked --out updates its target and stays a link; an existing file keeps its
    # permission bits, and a new one gets those open(path, "w") gives.  A regular file is
    # replaced by a temporary written beside it, or written in place where its directory
    # is not writable; either way no temporary is left.
    if not writable_dir:
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rec.csv").write_text("kept,1\n")
    (tmp_path / "rec.csv").chmod(0o640)
    (tmp_path / "link.csv").symlink_to("rec.csv")
    umask = os.umask(0o022)
    os.umask(umask)
    assert main(["illus1", "--reps", "1", "--n", "50", "--beta", "0.5", "--out", "link.csv",
                 "--summary", "s.json"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "rec.csv", "s.json"]
    assert os.readlink(tmp_path / "link.csv") == "rec.csv"
    assert read_rows(tmp_path / "rec.csv")[0]["experiment"] == "illus1"
    assert stat.S_IMODE((tmp_path / "rec.csv").stat().st_mode) == 0o640
    assert stat.S_IMODE((tmp_path / "s.json").stat().st_mode) == 0o666 & ~umask
    assert json.loads((tmp_path / "s.json").read_text())["experiment"] == "illus1"


def test_summary_json_is_strict_when_replicates_fail(tmp_path):
    out = tmp_path / "r.csv"
    summary = tmp_path / "s.json"
    code = main(["illus1", "--n", "2", "--k", "2", "--reps", "3", "--out", str(out),
                 "--summary", str(summary)])
    assert code == 1
    payload = json.loads(summary.read_text(), parse_constant=_reject_constant)
    assert payload["failed_replicates"] == 3 * len(ILLUS1_BETAS)
    assert payload["failed_by_reason"] == {"deficient_rank": 3 * len(ILLUS1_BETAS)}
    assert all(group["mean_eps_sq"] is None for group in payload["summary"])


def test_summary_counts_failures_by_reason():
    # A trivial cell whose first two coordinates are constant fails every
    # replicate as degenerate; at k = 1 a second cell fails none.
    diag = np.diag([0.0, 0.0, 1.0, 1.0])
    models = ((0.0, JointCovariance(diag, diag, 0.5 * diag), None),
              (1.0, identity_pair(4, 0.5), None))
    cfg = sim.ExperimentConfig(models, (1, 2), (30,), 5, method="trivial")
    records = sim.run_experiment(cfg)
    payload = cli._summary_payload("custom", cfg, records, cli._reference_lines(cfg.cells), 1,
                                   {})
    assert payload["failed_by_reason"] == {"degenerate_projection": 10}
    assert payload["failed_replicates"] == 10
    json.dumps(payload, allow_nan=False)


@pytest.mark.parametrize("argv, err", [
    (["illus1", "--method", "trivial", "--n", "2000", "--reps", "4"], ""),
    (["illus2", "--k", "1", "2", "--n", "500", "--reps", "6"], ""),
    (["illus3", "--n", "500", "--reps", "6"], ""),
    (["illus2", "--n-sweep", "--reps", "6"], ""),
    (["illus1", "--n", "2", "--k", "2", "--reps", "2", "--beta", "0.5"],
     "warning: 2 replicates failed\n"),
], ids=["illus1_trivial", "illus2", "illus3", "illus2_nsweep", "illus1_failed"])
def test_outputs_do_not_depend_on_threads(tmp_path, capsys, argv, err):
    # --threads 1 runs serially and 2 on the pool: the records CSV is the same bytes, and
    # the summaries differ only in the config.threads they echo.
    outputs = []
    for threads in (1, 2):
        out, summary = tmp_path / f"r{threads}.csv", tmp_path / f"s{threads}.json"
        code = main([*argv, "--threads", str(threads), "--out", str(out),
                     "--summary", str(summary)])
        assert (code, capsys.readouterr().err) == (1 if err else 0, err)
        payload = json.loads(summary.read_text(), parse_constant=_reject_constant)
        assert payload["config"].pop("threads") == threads
        outputs.append((out.read_bytes(), payload))
    assert outputs[0] == outputs[1]


def run_module(argv, cwd, **kwargs):
    """``python -m subalign *argv`` in ``cwd`` on this checkout's package, with a numpy
    RuntimeWarning made an error, so that it cannot pass as a line of stderr."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = os.environ | {"PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
    return subprocess.run([sys.executable, "-m", "subalign", *argv], cwd=cwd, env=env,
                          text=True, timeout=300, **kwargs)


@pytest.mark.parametrize("argv, code", [
    (["illus3", "--k", "2", "--n", "200", "--reps", "3"], 0),
    (["illus1", "--n", "2", "--k", "2", "--reps", "2", "--beta", "0.5"], 1),
    (["compute", "empty.csv", "empty.csv", "--k", "1"], 2),
    (["compute", "constant.csv", "constant.csv", "--k", "2", "--method", "trivial"], 3),
], ids=["exit0", "exit1", "exit2", "exit3"])
def test_installed_entry_path_exit_codes(tmp_path, argv, code):
    # python -m subalign runs cli.entry, which turns main's return value into the exit code.
    (tmp_path / "empty.csv").write_text("")
    constant = np.random.default_rng(3).standard_normal((4, 30))
    constant[:2] = 1.0
    write_matrix(tmp_path / "constant.csv", constant)
    proc = run_module(argv, tmp_path, capture_output=True)
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:
        assert proc.stderr.startswith("warning: " if code == 1 else "error: ")
        assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    if code >= 2:
        assert proc.stdout == ""
    else:
        summary = (tmp_path / f"{argv[0]}_summary.json").read_text()
        json.loads(summary, parse_constant=_reject_constant)


def test_records_to_stdout_and_summary_to_stderr_on_one_pipe(tmp_path):
    # With stderr merged into stdout, /dev/stdout and /dev/stderr are one pipe; only a
    # regular file would have the summary overwrite the records.
    proc = run_module(["illus1", "--n", "200", "--reps", "2", "--beta", "0.5",
                       "--out", "/dev/stdout", "--summary", "/dev/stderr"], tmp_path,
                      stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert proc.returncode == 0, proc.stdout
    assert ",".join(CSV_COLUMNS) in proc.stdout.splitlines()
    summary, _ = json.JSONDecoder().raw_decode(proc.stdout, proc.stdout.index('{\n  "experiment"'))
    assert summary["experiment"] == "illus1" and summary["failed_replicates"] == 0
    assert list(tmp_path.iterdir()) == []
