"""Benchmark entry point: run one workload of the subalign CLI and print its metrics.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts ``worker.py`` in a fresh
interpreter with ``PYTHONPATH=src`` and ``OPENBLAS_NUM_THREADS=1`` (a closed
loop of one client over ``subalign.cli.main``), times the ``setup_s``
import probes the worker asks for between invocations, samples the resident
memory of the worker and its pool children, and passes every output through
the correctness gate.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics and ``--trace 1`` the per-layer ones.  The full
result, with the run manifest, is also written to
``.perfbench/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gate
import spans
from workloads import COMPUTE_INPUT_SETS, REFERENCE_SEED, WORKLOADS, Compute

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Every run must end well inside the 180 s a run may take.
RUN_BUDGET_S = 170.0
RSS_POLL_S = 0.1

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import subalign, subalign.cli; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(RuntimeError):
    """The run could not produce a result (as opposed to an incorrect one)."""


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def import_time(root: str, env: dict) -> float:
    """Time to import ``subalign`` + ``subalign.cli`` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=root,
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"cannot import subalign: {proc.stderr.strip()}")
    return float(proc.stdout)


def tree_rss_kib(pid: int) -> int:
    """Resident memory of ``pid`` and all its descendants, in KiB."""
    total, todo, seen = 0, [pid], set()
    while todo:
        p = todo.pop()
        if p in seen:
            continue
        seen.add(p)
        try:
            with open(f"/proc/{p}/status") as handle:
                for line in handle:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
                        break
            for path in glob.glob(f"/proc/{p}/task/*/children"):
                with open(path) as handle:
                    todo.extend(int(c) for c in handle.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def run_worker(root: str, env: dict, args, workdir: str,
               deadline: float) -> tuple[dict, int, list[float]]:
    """Run the worker, sampling its memory and answering its probe requests.

    Returns (worker.json, peak KiB, set-up probe times).
    """
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    peak, probes = 0, []
    with open(os.path.join(workdir, "worker.stderr"), "w") as err:
        proc = subprocess.Popen(cmd, env=env, cwd=root, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(proc.stdout, selectors.EVENT_READ)
                while proc.poll() is None:
                    if time.monotonic() > deadline:
                        raise BenchError(f"worker exceeded the {RUN_BUDGET_S:.0f} s run budget")
                    peak = max(peak, tree_rss_kib(proc.pid))
                    # The worker writes one request and waits for the answer, so
                    # it is idle, and its memory unchanged, while the probe runs.
                    if selector.select(RSS_POLL_S) and proc.stdout.readline() == "probe\n":
                        probes.append(import_time(root, env))
                        proc.stdin.write("done\n")
                        proc.stdin.flush()
        finally:
            try:  # the session also holds any pool children left behind
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
    if proc.returncode != 0:
        with open(os.path.join(workdir, "worker.stderr")) as handle:
            raise BenchError(f"worker exited {proc.returncode}: {handle.read()[-2000:]}")
    with open(os.path.join(workdir, "worker.json")) as handle:
        return json.load(handle), peak, probes


def _load_reference(name: str):
    if name == "compute_csv":
        with open(os.path.join(REFERENCE_DIR, "compute_csv.json")) as handle:
            return gate.strict_json(handle.read())
    return gate.read_records(os.path.join(REFERENCE_DIR, f"{name}.csv"))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _git_sha(root: str):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256(root: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "subalign", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _seeds(workload, bench_seed: int, worker: dict) -> dict:
    """The workload seeds: the benchmark seed and what it expanded to."""
    seeds = {"bench_seed": bench_seed, "reference_seed": REFERENCE_SEED}
    if isinstance(workload.spec, Compute):
        seeds["input_sets"] = COMPUTE_INPUT_SETS
    else:
        used = [inv["seed"] for key in ("measured", "untraced", "traced")
                for inv in worker.get(key, [])]
        seeds["cli_seed_range"] = [min(used), max(used)]
    return seeds


def run_workload(root: str, args) -> dict:
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = os.path.join(root, ".perfbench", f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        env = pinned_env(root)
        spec = workload.spec
        compute_expected = None
        if isinstance(spec, Compute):
            spec.write_inputs(args.seed, workdir)
            spec.write_inputs(REFERENCE_SEED, os.path.join(workdir, "reference"), sets=1)
            compute_expected = {i: gate.oracle_compute(spec, *spec.draw(args.seed, i))
                                for i in range(COMPUTE_INPUT_SETS)}
        import_time(root, env)  # untimed: the first import may write bytecode caches
        worker, peak_kib, setup = run_worker(root, env, args, workdir, deadline)
        check = gate.RunCheck(workload, compute_expected)
        check.invocation(worker["reference"], oracle=True, reference=_load_reference(workload.name))
        notes = []
        if not args.trace:
            metrics, samples = _end_to_end(worker["measured"], check, setup, peak_kib)
        else:
            metrics, samples = _per_layer(worker, check, workload, workdir, notes)
        correct = not check.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
        "samples": samples,
        "problems": check.problems[:20],
        "notes": notes,
        "manifest": dict(
            worker["manifest"],
            git_sha=_git_sha(root),
            src_sha256=_src_sha256(root),
            seeds=_seeds(workload, args.seed, worker),
            run_seconds=args.seconds,
        ),
    }


def _end_to_end(measured: list[dict], check: gate.RunCheck, setup: list[float], peak_kib: int):
    ok = check.phase(measured)
    walls = [inv["wall_s"] for inv in measured]
    ms = [w * 1e3 for w in walls]
    metrics = {
        "replicates_per_s": _metric(sum(ok) / sum(walls), "1/s"),
        "invocation_ms_p50": _metric(statistics.median(ms), "ms"),
        "invocation_ms_p90": _metric(spans.percentile(ms, 90), "ms"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MiB"),
        "ok_frac": _metric(1.0 - check.failed / check.attempted, "ratio"),
    }
    samples = {"invocations": len(walls), "setup_probes": len(setup),
               "replicates_ok": sum(ok), "measured_s": sum(walls),
               "invocation_s": walls, "setup_probe_s": setup}
    return metrics, samples


def _paired_ratio(num: list[dict], den: list[dict]) -> float:
    """Median over cycles of num[i] / den[i] wall times."""
    return statistics.median(a["wall_s"] / b["wall_s"] for a, b in zip(num, den))


def _same_output(a: dict, b: dict) -> bool:
    if "records" not in a:
        return a["stdout"] == b["stdout"]
    with open(a["records"], "rb") as fa, open(b["records"], "rb") as fb:
        return fa.read() == fb.read()


def _per_layer(worker: dict, check: gate.RunCheck, workload, workdir: str, notes: list[str]):
    if not worker["bindings_restored"]:
        check.problems.append("traced run left subalign.sim / subalign.cli bindings changed")
    check.phase(worker["untraced"])
    attempted_before, failed_before = check.attempted, check.failed
    ok = check.phase(worker["traced"])
    traced_attempted = check.attempted - attempted_before
    traced_failed = check.failed - failed_before
    # Tracing and the worker count must not change a single output byte.
    others = [("traced", worker["traced"])]
    speedup = 1.0
    if workload.pool:
        check.phase(worker["serial"])
        others.append(("--threads 1", worker["serial"]))
        speedup = _paired_ratio(worker["serial"], worker["untraced"])
        notes.append("pool workload: spans are recorded in the parent process only; "
                     "run_replicate and its children run in pool workers and read 0")
    for label, invocations in others:
        for base, other in zip(worker["untraced"], invocations):
            if not _same_output(base, other):
                check.problems.append(f"invocation {base['index']}: {label} output differs")
    stats = spans.aggregate(spans.read_spans(os.path.join(workdir, "spans.tsv")))
    traced = len(worker["traced"])
    metrics = {name: _metric(value, unit) for name, (value, unit) in
               spans.layer_metrics(stats, invocations=traced,
                                   replicates=traced_attempted).items()}
    metrics["sim.ok_ratio"] = _metric(
        (traced_attempted - traced_failed) / traced_attempted, "ratio")
    metrics["sim.pool.speedup_vs_serial"] = _metric(speedup, "x")
    metrics["trace.overhead_frac"] = _metric(
        _paired_ratio(worker["traced"], worker["untraced"]) - 1.0, "ratio")
    notes.append("bytes_in / bytes_out are computed from array shapes "
                 "(cli.write_records_csv.bytes_out is the size of the written file)")
    samples = {"traced_invocations": traced, "replicates_ok": sum(ok),
               "wrapped": worker["wrapped"]}
    return metrics, samples


def _print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"correct={result['correct']}  attempted={result['attempted']}  "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    scalars = {k: v for k, v in result["samples"].items() if not isinstance(v, list)}
    print(f"  samples: {json.dumps(scalars)}")
    for note in result["notes"]:
        print(f"  note: {note}")
    for problem in result["problems"]:
        print(f"  FAIL: {problem}")
    print(f"  manifest: {json.dumps(result['manifest'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "subalign", "__init__.py")):
        print("error: run from the root of a subalign checkout (src/subalign is missing)",
              file=sys.stderr)
        return 2
    if args.workload == "all":  # the workloads BENCHMARK.json declares
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            names = [w["name"] for w in json.load(handle)["workloads"]]
    else:
        names = [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(root, argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        _print_result(result)
        os.makedirs(os.path.join(root, ".perfbench", "results"), exist_ok=True)
        path = os.path.join(root, ".perfbench", "results",
                            f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as handle:
            json.dump(result, handle, indent=2)
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
