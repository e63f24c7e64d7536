"""One benchmark run inside a fresh interpreter: a closed loop over ``subalign.cli.main``.

Started by ``run.py`` with ``PYTHONPATH=src`` and the BLAS thread variables
pinned; writes ``worker.json`` (and, when traced, ``spans.tsv``) into its
work directory.  Its standard output and input carry only the set-up probe
requests of the measured loop and run.py's answers.  One client: each
invocation starts after the previous one returned.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from workloads import REFERENCE_SEED, WORKLOADS, Experiment, cli_seed

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The measured loop asks for one set-up probe per this many seconds, between
# invocations, so set-up time samples the machine over the whole run.
PROBE_EVERY_S = 1.0


def request_probe() -> None:
    """Have run.py time one import in a fresh interpreter, and wait until it has.

    run.py starts the probe itself, so it never joins this process tree and
    never counts toward the tree's resident memory.
    """
    print("probe", flush=True)
    if sys.stdin.readline() != "done\n":
        raise RuntimeError("run.py did not answer the probe request")


def _invoke(cli, argv: list[str]) -> dict:
    """Call ``cli.main`` as the console script would; exit code as a process would see it."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error exits 1 from the console script
        rc = 1
        err.write(traceback.format_exc())
    wall = perf_counter() - start
    return {"wall_s": wall, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


class Runner:
    def __init__(self, cli, workload, seed: int, workdir: str):
        self.cli, self.workload, self.seed, self.workdir = cli, workload, seed, workdir

    def invoke(self, phase: str, index: int, *, reference: bool = False, threads=None) -> dict:
        spec = self.workload.spec
        base = os.path.join(self.workdir, phase, f"inv{index}")
        if isinstance(spec, Experiment):
            seed = REFERENCE_SEED if reference else cli_seed(self.seed, index)
            reps = self.workload.reference_reps if reference else None
            argv = spec.argv(seed, base + ".csv", base + ".json", reps=reps, threads=threads)
            files = {"records": base + ".csv", "summary": base + ".json"}
        else:
            argv = spec.argv(spec.paths(os.path.join(self.workdir, "reference") if reference
                                        else self.workdir, index))
            seed, files = None, {}
        result = _invoke(self.cli, argv)
        result.update(files, phase=phase, index=index, seed=seed)
        if isinstance(spec, Experiment):
            result["stdout"] = ""  # the rho lines; the gate reads the files
        return result

    def timed_loop(self, phase: str, seconds: float) -> list[dict]:
        """Invocations 0, 1, 2, ... until ``seconds`` have passed.

        After each invocation, set-up probes catch up to one per
        ``PROBE_EVERY_S`` of elapsed time.
        """
        results, probes = [], 0
        start = perf_counter()
        while perf_counter() < start + seconds or not results:
            results.append(self.invoke(phase, len(results)))
            while probes < (perf_counter() - start) / PROBE_EVERY_S:
                request_probe()
                probes += 1
        return results


def manifest(subalign, numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration", "n/a"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "subalign": subalign.__version__,
    }


def _bindings(modules) -> list[dict]:
    return [dict(vars(m)) for m in modules]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    import numpy
    import subalign
    import subalign.cli

    expected = os.path.realpath(os.path.join("src", "subalign"))
    if os.path.dirname(os.path.realpath(subalign.__file__)) != expected:
        print(f"subalign imported from {subalign.__file__}, not {expected}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    runner = Runner(subalign.cli, workload, args.seed, args.workdir)
    for phase in ("reference", "measured", "untraced", "serial", "traced"):
        os.makedirs(os.path.join(args.workdir, phase), exist_ok=True)
    out = {
        "manifest": manifest(subalign, numpy),
        # Untimed: checks against the committed records and warms caches.
        "reference": runner.invoke("reference", 0, reference=True),
    }
    if not args.trace:
        out["measured"] = runner.timed_loop("measured", args.seconds)
    else:
        from spans import Recorder, installed

        # Each cycle runs invocation i untraced, at --threads 1 on the pool
        # workload, and traced, back to back: the pairs see the same machine
        # state, so overhead and pool speedup are paired ratios.
        modules = (subalign.sim, subalign.cli)
        before = _bindings(modules)
        recorder = Recorder()
        out.update(untraced=[], serial=[], traced=[])
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or not out["traced"]:
            i = len(out["traced"])
            out["untraced"].append(runner.invoke("untraced", i))
            if workload.pool:
                out["serial"].append(runner.invoke("serial", i, threads=1))
            recorder.trace_id = i
            with installed(recorder, modules):
                out["traced"].append(runner.invoke("traced", i))
        after = _bindings(modules)
        out["bindings_restored"] = all(
            b.keys() == a.keys() and all(b[key] is a[key] for key in b)
            for b, a in zip(before, after)
        )
        out["wrapped"] = sorted(set(recorder.names))
        recorder.write(os.path.join(args.workdir, "spans.tsv"))
    with open(os.path.join(args.workdir, "worker.json"), "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
