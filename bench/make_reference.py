"""Regenerate the committed reference outputs in reference/ from the current program.

    python3 bench/make_reference.py

Run from the root of a checkout whose results are known to be right; the
benchmark then requires every later program to reproduce these outputs
within float round-off.  Runs the console entry point in a fresh
interpreter with the same pinned environment as the benchmark.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

from run import REFERENCE_DIR, pinned_env
from workloads import REFERENCE_SEED, WORKLOADS, Experiment


def main() -> int:
    root = os.getcwd()
    env = pinned_env(root)
    workdir = os.path.join(root, ".perfbench", "make-reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in WORKLOADS.values():
        spec = workload.spec
        if isinstance(spec, Experiment):
            out = os.path.join(REFERENCE_DIR, f"{workload.name}.csv")
            argv = spec.argv(REFERENCE_SEED, out, os.path.join(workdir, "summary.json"),
                             reps=workload.reference_reps)
        else:
            spec.write_inputs(REFERENCE_SEED, workdir, sets=1)
            argv = spec.argv(spec.paths(workdir, 0))
        os.makedirs(workdir, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "subalign", *argv], env=env, cwd=root,
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{workload.name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        if not isinstance(spec, Experiment):
            with open(os.path.join(REFERENCE_DIR, f"{workload.name}.json"), "w") as handle:
                handle.write(proc.stdout)
        print(f"wrote reference for {workload.name}")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
