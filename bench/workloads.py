"""The four benchmark workloads: what each CLI invocation runs, and its inputs.

Every workload drives ``subalign.cli.main`` with an argv built here.  The
benchmark seed fixes the inputs: invocation ``i`` of a run with benchmark
seed ``s`` passes ``--seed`` :func:`cli_seed` ``(s, i)`` (experiments) or
reads input set ``i mod COMPUTE_INPUT_SETS`` generated from ``s``
(``compute_csv``).  The same seed gives the same inputs; no import of
``subalign`` happens here, so the module is usable outside the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# CLI seed of the reference invocation whose records are committed under
# reference/; independent of the benchmark seed so the file stays valid.
REFERENCE_SEED = 1954

# compute_csv cycles through this many generated input sets.
COMPUTE_INPUT_SETS = 8

ILLUS1_BETAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)


def cli_seed(bench_seed: int, index: int) -> int:
    """The ``--seed`` of invocation ``index`` in a run with ``bench_seed``."""
    return (bench_seed * 100_000 + index) % 2**63


@dataclass(frozen=True)
class Experiment:
    """One ``illus1``/``illus2`` invocation, with every model flag explicit.

    ``sweep`` holds beta values for illus1 and lambda2 values for illus2;
    ``beta`` is the fixed cross-covariance scale of illus2.
    """

    command: str
    m: int
    k: tuple[int, ...]
    n: tuple[int, ...]
    sweep: tuple[float, ...]
    method: str
    reps: int
    threads: int
    beta: float = 0.6
    n_sweep: bool = False

    def argv(self, seed: int, out: str, summary: str, *, reps: Optional[int] = None,
             threads: Optional[int] = None) -> list[str]:
        argv = [self.command]
        if self.n_sweep:
            argv.append("--n-sweep")
        argv += ["--m", str(self.m), "--k", *map(str, self.k), "--n", *map(str, self.n)]
        if self.command == "illus1":
            argv += ["--beta", *map(repr, self.sweep)]
        else:
            argv += ["--lambda2", *map(repr, self.sweep), "--beta", repr(self.beta)]
        argv += [
            "--method", self.method,
            "--reps", str(self.reps if reps is None else reps),
            "--threads", str(self.threads if threads is None else threads),
            "--seed", str(seed), "--out", out, "--summary", summary,
        ]
        return argv

    def cells(self):
        """(param_index, sweep value, k, n) in the CLI's documented order."""
        index = 0
        for value in self.sweep:
            for k in self.k:
                for n in self.n:
                    yield index, value, k, n
                    index += 1

    def records_per_invocation(self, reps: Optional[int] = None) -> int:
        return len(self.sweep) * len(self.k) * len(self.n) * (reps or self.reps)

    def covariance(self, value: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Cov X, Cov Y, Cov(X, Y)) of the model at one sweep value."""
        eye = np.eye(self.m)
        if self.command == "illus1":
            return eye, eye, value * eye
        diag = np.full(self.m, 0.7)
        diag[0], diag[1] = 1.0, value
        return np.diag(diag), np.diag(diag), self.beta * eye


@dataclass(frozen=True)
class Compute:
    """``subalign compute X.csv Y.csv --k K --cross-cov C.csv`` on generated files.

    X and Y are n draws of the spiked-diagonal Gaussian pair
    (diag(1, lambda2, .7, ...), cross-covariance beta I); C is that true
    cross-covariance.
    """

    m: int
    n: int
    k: int
    lambda2: float
    beta: float
    method: str = "pca"

    def paths(self, workdir: str, index: int) -> tuple[str, str, str]:
        base = os.path.join(workdir, "inputs", f"set{index % COMPUTE_INPUT_SETS}")
        return base + "_x.csv", base + "_y.csv", base + "_c.csv"

    def argv(self, paths: tuple[str, str, str]) -> list[str]:
        x, y, c = paths
        return ["compute", x, y, "--k", str(self.k), "--cross-cov", c, "--method", self.method]

    def draw(self, seed: int, index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Input set ``index`` for benchmark seed ``seed``: (X, Y, C)."""
        rng = np.random.default_rng([seed, index])
        diag = np.full(self.m, 0.7)
        diag[0], diag[1] = 1.0, self.lambda2
        cross = self.beta * np.eye(self.m)
        block = np.block([[np.diag(diag), cross], [cross, np.diag(diag)]])
        root = np.linalg.cholesky(block)
        data = root @ rng.standard_normal((2 * self.m, self.n))
        return data[: self.m], data[self.m:], cross

    def write_inputs(self, seed: int, workdir: str, sets: int = COMPUTE_INPUT_SETS) -> None:
        os.makedirs(os.path.join(workdir, "inputs"), exist_ok=True)
        for index in range(sets):
            for path, mat in zip(self.paths(workdir, index), self.draw(seed, index)):
                # 17 significant digits round-trip float64 exactly, so the
                # program reads the very matrices the gate recomputes from.
                np.savetxt(path, mat, delimiter=",", fmt="%.17g")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: Union[Experiment, Compute]
    # --reps of the reference invocation (experiments only).
    reference_reps: int = 0

    @property
    def pool(self) -> bool:
        return isinstance(self.spec, Experiment) and self.spec.threads > 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "illus2_gap",
            "canonical illus2 cells from no gap to gap at n=1e4; "
            "sampling and the m x n PCA dominate",
            Experiment("illus2", m=20, k=(1, 2, 10), n=(10000,), sweep=(0.70, 0.72, 0.75),
                       method="pca", reps=1, threads=1),
            reference_reps=1,
        ),
        Workload(
            "nsweep_small_n",
            "n sweep at n=10,100: ~1 ms replicates, "
            "so per-replicate fixed costs and CSV rows dominate",
            Experiment("illus2", m=20, k=(2,), n=(10, 100), sweep=(0.70,), method="pca",
                       reps=250, threads=1, n_sweep=True),
            reference_reps=10,
        ),
        Workload(
            "illus1_trivial_pool",
            "trivial baseline bypasses PCA; the only workload that runs the 2-process pool",
            Experiment("illus1", m=6, k=(2,), n=(10000,), sweep=ILLUS1_BETAS, method="trivial",
                       reps=12, threads=2),
            reference_reps=2,
        ),
        Workload(
            "compute_csv",
            "one-shot compute on m=20, n=2000 CSV files; "
            "CSV parsing (~84%) dominates; the only path to plugin_rho",
            Compute(m=20, n=2000, k=2, lambda2=0.72, beta=0.6),
        ),
    )
}
