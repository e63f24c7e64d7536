"""Tests of the benchmark itself: inputs, correctness gate, and span wrappers.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import spans
from conftest import BENCH, ROOT
from workloads import REFERENCE_SEED, WORKLOADS, Experiment, cli_seed

EXPERIMENTS = [w for w in WORKLOADS.values() if isinstance(w.spec, Experiment)]
COMPUTE = WORKLOADS["compute_csv"].spec


def _reference_rows(workload):
    return gate.read_records(os.path.join(BENCH, "reference", f"{workload.name}.csv"))


def test_inputs_are_deterministic_in_the_seed(tmp_path):
    for a, b in zip(COMPUTE.draw(7, 3), COMPUTE.draw(7, 3)):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(COMPUTE.draw(7, 3)[0], COMPUTE.draw(8, 3)[0])
    COMPUTE.write_inputs(7, str(tmp_path / "a"), sets=2)
    COMPUTE.write_inputs(7, str(tmp_path / "b"), sets=2)
    for name in sorted(os.listdir(tmp_path / "a" / "inputs")):
        assert (tmp_path / "a" / "inputs" / name).read_bytes() == (
            tmp_path / "b" / "inputs" / name).read_bytes()
    x = np.loadtxt(COMPUTE.paths(str(tmp_path / "a"), 1)[0], delimiter=",")
    np.testing.assert_array_equal(x, COMPUTE.draw(7, 1)[0])  # exact round trip
    spec = EXPERIMENTS[0].spec
    argv = spec.argv(cli_seed(7, 2), "r.csv", "s.json")
    assert argv == spec.argv(cli_seed(7, 2), "r.csv", "s.json")
    assert argv[argv.index("--seed") + 1] == str(cli_seed(7, 2))
    assert len({cli_seed(s, i) for s in (1, 2) for i in range(1000)}) == 2000


@pytest.mark.parametrize("workload", EXPERIMENTS, ids=lambda w: w.name)
def test_oracle_reproduces_committed_reference(workload):
    rows = _reference_rows(workload)
    failed = gate.check_records(rows, workload.spec, REFERENCE_SEED,
                                reps=workload.reference_reps, oracle=True)
    assert failed == 0


def test_oracle_reproduces_committed_compute_reference():
    with open(os.path.join(BENCH, "reference", "compute_csv.json")) as handle:
        result = gate.strict_json(handle.read())
    want = gate.oracle_compute(COMPUTE, *COMPUTE.draw(REFERENCE_SEED, 0))
    gate.check_compute(result, COMPUTE, want)


@pytest.mark.parametrize("key,delta,oracle", [
    ("eps2", 1e-6, True),      # only the oracle can see a small value change
    ("residual", 1e-6, False),  # breaks residual = eps2 - predicted
    ("predicted", 1e-3, False),  # breaks the (1 - rho) 2k + rho eth2 line
    ("d2", 100.0, False),       # leaves [0, 2k]
])
def test_gate_rejects_a_perturbed_record(key, delta, oracle):
    workload = WORKLOADS["illus2_gap"]
    rows = _reference_rows(workload)
    rows[3][key] = repr(float(rows[3][key]) + delta)
    with pytest.raises(gate.GateError):
        gate.check_records(rows, workload.spec, REFERENCE_SEED,
                           reps=workload.reference_reps, oracle=oracle)
    with pytest.raises(gate.GateError):
        gate.records_match(rows, _reference_rows(workload))


def test_gate_rejects_reordered_or_missing_records():
    workload = WORKLOADS["nsweep_small_n"]
    rows = _reference_rows(workload)
    with pytest.raises(gate.GateError):
        gate.check_records(rows[:-1], workload.spec, REFERENCE_SEED, reps=workload.reference_reps)
    rows[0], rows[1] = rows[1], rows[0]
    with pytest.raises(gate.GateError):
        gate.check_records(rows, workload.spec, REFERENCE_SEED, reps=workload.reference_reps)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_gate_rejects_bare_non_finite_json_tokens(token):
    assert gate.strict_json('{"mean_eps_sq": null}') == {"mean_eps_sq": None}
    with pytest.raises(gate.GateError):
        gate.strict_json('{"mean_eps_sq": %s}' % token)


def test_gate_rejects_a_perturbed_compute_result():
    want = gate.oracle_compute(COMPUTE, *COMPUTE.draw(REFERENCE_SEED, 0))
    result = {"m": COMPUTE.m, "n": COMPUTE.n, "k": COMPUTE.k, "method": "pca", **want}
    gate.check_compute(result, COMPUTE, want)
    result["eps_sq"] += 1e-6
    with pytest.raises(gate.GateError):
        gate.check_compute(result, COMPUTE, want)


def test_summary_check_matches_records():
    rows = _reference_rows(WORKLOADS["illus2_gap"])
    groups = [{"k": int(r["k"]), "n": int(r["n"]), "sweep_param": float(r["sweep_param"]),
               "count": 1, "mean_eps_sq": float(r["eps2"])} for r in rows]
    gate.check_summary({"failed_replicates": 0, "summary": groups}, rows)
    groups[0]["mean_eps_sq"] += 1e-6
    with pytest.raises(gate.GateError):
        gate.check_summary({"failed_replicates": 0, "summary": groups}, rows)


def _bindings(modules):
    return [dict(vars(m)) for m in modules]


def _assert_same_bindings(before, after):
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(b[key] is a[key] for key in b)


def test_wrappers_restore_bindings_and_record_spans(tmp_path):
    import subalign.cli
    import subalign.sim

    modules = (subalign.sim, subalign.cli)
    before = _bindings(modules)
    recorder = spans.Recorder()
    argv = ["illus1", "--m", "4", "--k", "1", "--n", "50", "--beta", "0.5", "--reps", "3",
            "--out", str(tmp_path / "r.csv"), "--summary", str(tmp_path / "s.json")]
    with spans.installed(recorder, modules):
        assert subalign.sim.run_replicate is not before[0]["run_replicate"]
        assert subalign.cli.main(argv) == 0
    _assert_same_bindings(before, _bindings(modules))

    path = str(tmp_path / "spans.tsv")
    recorder.write(path)
    stats = spans.aggregate(spans.read_spans(path))
    assert stats["sim.run_replicate"].calls == 3
    assert stats["model.mvn_sample"].bytes_out == 3 * 2 * 4 * 50 * 8
    assert stats["cli.write_records_csv"].bytes_out == os.path.getsize(tmp_path / "r.csv")
    main = stats["cli.main"]
    assert main.calls == 1 and 0 < main.self_ns < main.busy_ns

    with pytest.raises(RuntimeError):
        with spans.installed(spans.Recorder(), modules):
            raise RuntimeError("boom")
    _assert_same_bindings(before, _bindings(modules))


def test_self_time_subtracts_children_and_silent_spans_read_zero():
    rows = [  # trace, span, parent, name, start, end, bytes_in, bytes_out
        (0, 0, -1, "cli.main", 0, 100, 0, 0),
        (0, 1, 0, "sim.run_replicate", 10, 60, 0, 0),
        (0, 2, 1, "pca.pca_subspace", 20, 50, 640, 0),
        (0, 3, 0, "theory.rho", 70, 80, 0, 0),
    ]
    stats = spans.aggregate(rows)
    assert stats["cli.main"].self_ns == 100 - 50 - 10
    assert stats["sim.run_replicate"].self_ns == 20
    metrics = spans.layer_metrics(stats, invocations=2, replicates=1)
    assert metrics["layer.pca.self_s"] == (15e-9, "s/inv")  # per traced invocation
    assert metrics["sim.run_replicate.calls"] == (0.5, "calls/inv")
    assert metrics["trace.replicate_covered_frac"] == (30 / 50, "ratio")
    assert metrics["model.mvn_sample.calls"] == (0, "calls/inv")  # never fired
    assert metrics["theory.plugin_rho.busy_s"] == (0.0, "s/inv")


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compute_csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_short_run_answers_probe_requests_and_passes_the_gate():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compute_csv", "--seed", "3",
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert 0 < result["metrics"]["setup_s"]["value"] < 60
    with open(os.path.join(ROOT, ".perfbench", "results", "compute_csv-seed3-trace0.json")) as f:
        assert json.load(f)["samples"]["setup_probes"] >= 2  # one per second of the loop
