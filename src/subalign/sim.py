"""Monte Carlo harness: replicate runs, deterministic seeding, summaries.

A replicate draws the 2m x 2m Gram matrix of one stacked centered data
pair from its cell, derives the two projection subspaces from it (PCA or
the trivial first-k-coordinates baseline), and records the square subspace
distance, its weighted form (using the model's true cross-covariance
block), the square Procrustes fitting-error, the predicted limiting value,
and the residual (see :mod:`subalign.kernel`).  Replicates run in chunks:
a chunk is up to ``_MAX_CHUNK`` consecutive replicates of one (cell, n),
fewer where the kernel's stacks would pass ``_MAX_CHUNK_BYTES``.  A chunk
is one :func:`run_replicates` call: it draws its Gram matrices into one
stack, evaluates them with one :func:`subalign.kernel.evaluate_grams` call
and builds its records from the returned columns.
A run is a list of cells, one per (model, k), each built and validated
once by :func:`make_cell` when a config's cells are first read
(:attr:`ExperimentConfig.cells`): the draw is picked, rho computed, the
weight prepared and the isometry checked there, and every replicate of
the cell reads them.  The CLI's reference lines read the same cells.

Seeding contract
----------------
Replicate r of parameter tuple p (tuples enumerate the Cartesian product
sweep x k_values x n_values, in that nesting order) uses the 64-bit seed

    splitmix64_mix(base_seed XOR (p * 2**32 + r))

where splitmix64_mix is the standard splitmix64 finalizer (see
:func:`replicate_seed`).  The seed feeds ``numpy.random.default_rng``
(PCG64).  Replicates are therefore independent of execution order and of
the number of workers; runs with equal configs are bit-identical.

Execution
---------
:func:`run_experiment` runs the chunks serially, or on a pool of threads in
this process; the normal draw, its centering and the kernel's stacked
LAPACK calls release the interpreter lock, so the threads overlap there.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import product
from math import isfinite, nan
from operator import index
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .grassmann import Weight, check_isometry, weight
from .kernel import STATUSES, center_gram_inplace, evaluate_grams
from .model import JointCovariance, ScientistParams, mvn_gram, scientists_sample
from .model import identity_pair, reversed_pair, spiked_diag_pair
from .theory import predicted_fit_error_sq, rho

__all__ = [
    "EXPERIMENTS",
    "METHODS",
    "ExperimentConfig",
    "ReplicateRecord",
    "Cell",
    "SummaryStats",
    "replicate_seed",
    "make_cell",
    "run_replicates",
    "run_experiment",
    "summarize",
]

EXPERIMENTS = ("illus1", "illus2", "illus3", "custom")
METHODS = ("pca", "trivial")

Model = Union[JointCovariance, ScientistParams]

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer (Steele/Lea/Flood avalanche constants).
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replicate_seed(base_seed: int, param_index: int, replicate_index: int) -> int:
    """The documented per-replicate seed; see the module docstring."""
    if not 0 <= param_index < 2**32:
        raise ValueError(f"param_index must fit in 32 bits, got {param_index}")
    if not 0 <= replicate_index < 2**32:
        raise ValueError(f"replicate_index must fit in 32 bits, got {replicate_index}")
    return _mix64((base_seed & _MASK64) ^ ((param_index << 32) | replicate_index))


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo sweep.

    ``sweep`` holds beta values for illus1, lambda2 values for illus2 and a
    single beta for illus3.  ``beta`` is the fixed cross-covariance scale
    where the sweep varies something else (illus2); ``lambda2`` is the fixed
    second diagonal for illus3.  ``experiment="custom"`` runs caller-built
    models: ``models`` must then be a tuple of (sweep_param, model,
    isometry-or-None) triples and ``sweep`` is ignored.
    """

    experiment: str
    m: int
    k_values: tuple[int, ...]
    n_values: tuple[int, ...]
    sweep: tuple[float, ...]
    replicates: int
    base_seed: int = 42
    method: str = "pca"
    beta: float = 0.6
    lambda2: float = 0.7
    models: Optional[tuple[tuple[float, Model, Optional[np.ndarray]], ...]] = None

    def __post_init__(self):
        for name in ("m", "k_values", "n_values", "replicates", "base_seed"):
            value = getattr(self, name)
            try:  # integers only: int() would truncate 2.9 to 2 without a word
                value = tuple(map(index, value)) if name.endswith("_values") else index(value)
            except TypeError:
                raise ValueError(f"{name} must be integers, got {value!r}") from None
            object.__setattr__(self, name, value)
        object.__setattr__(self, "sweep", tuple(float(v) for v in self.sweep))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 1 <= self.replicates <= 2**32:
            raise ValueError(f"replicates must lie in [1, 2**32], got {self.replicates}")
        if not self.k_values or any(not 1 <= k <= self.m for k in self.k_values):
            raise ValueError(f"k values must satisfy 1 <= k <= m = {self.m}: {self.k_values}")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError(f"n values must be >= 2: {self.n_values}")
        if not all(map(isfinite, (*self.sweep, self.beta, self.lambda2))):
            raise ValueError("sweep, beta and lambda2 must be finite")
        for name in ("sweep", "k_values", "n_values"):  # a repeat would merge summary groups
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        if self.experiment == "custom":
            if not self.models:
                raise ValueError("custom experiment requires models")
        elif not self.sweep:
            raise ValueError("sweep must be nonempty")

    @cached_property
    def cells(self) -> list[Cell]:
        """The (sweep value, k) cells in parameter order (see :func:`make_cell`).

        Built on first use, which checks that the models are feasible and of
        dimension ``m``, that their isometries are orthogonal and that their
        sweep values are finite and distinct, before any work; and kept: the
        config is immutable, so a run builds each cell once.
        """
        if self.experiment == "illus1":
            models = [(b, identity_pair(self.m, b), None) for b in self.sweep]
        elif self.experiment == "illus2":
            models = [(lam, spiked_diag_pair(self.m, lam, self.beta), None) for lam in self.sweep]
        elif self.experiment == "illus3":
            models = [(b, *reversed_pair(self.m, self.lambda2, b)) for b in self.sweep]
        else:
            models = self.models
            if len({sweep_param for sweep_param, _, _ in models}) != len(models):
                raise ValueError("custom models repeat a sweep_param")
        cells = []
        for sweep_param, model, w in models:
            if model.m != self.m:
                raise ValueError(f"model dimension {model.m} differs from m = {self.m}")
            if not isfinite(sweep_param):
                raise ValueError(f"sweep_param must be finite, got {sweep_param}")
            cells += [make_cell(model, k, w, sweep_param) for k in self.k_values]
        return cells


@dataclass(frozen=True)
class ReplicateRecord:
    """One replicate's outputs, with the config axes echoed.

    ``status`` is "ok", or a reason code ("deficient_rank",
    "degenerate_projection") for replicates whose numeric fields are None.
    ``d_sq_corrected`` is the square distance after undoing the model's
    isometry (illus3 only), None elsewhere.  Every field but the config axes,
    ``predicted`` and ``residual`` is read from the row of the kernel's
    :class:`subalign.kernel.GramColumns`.
    """

    experiment: str
    method: str
    m: int
    k: int
    n: int
    sweep_param: float
    replicate: int
    d_sq: Optional[float] = None
    eth_sq: Optional[float] = None
    eps_sq: Optional[float] = None
    predicted: Optional[float] = None
    residual: Optional[float] = None
    d_sq_corrected: Optional[float] = None
    status: str = "ok"


class Cell(NamedTuple):
    """One (sweep value, k) cell of a sweep, as built by :func:`make_cell`.

    Holds what every replicate of the cell shares: ``draw(n, rng)``, the
    centered 2m x 2m Gram matrix of n fresh pairs from the model (it keeps
    no state), the checked isometry (or None), the model's rho and the eth^2
    weight, its cross-covariance block prepared by :func:`subalign.grassmann.weight`.
    """

    sweep_param: float
    draw: Callable[[int, np.random.Generator], np.ndarray]
    isometry: Optional[np.ndarray]
    k: int
    rho: float
    weight: Weight


def make_cell(model: Model, k: int, isometry: Optional[np.ndarray] = None,
              sweep_param: float = nan) -> Cell:
    """Build a cell: pick the draw, compute rho, prepare the weight and check the isometry, once.

    The one place that maps a model to its covariance and its draw (the
    two-device model is the identity pair at ``beta = gamma^2``, drawn as data).
    """
    if isinstance(model, ScientistParams):
        jc = identity_pair(model.m, model.gamma**2)

        def draw(n, rng):
            return center_gram_inplace(scientists_sample(model, n, rng))
    else:
        jc, draw = model, partial(mvn_gram, model)
    if isometry is not None:
        isometry = check_isometry(isometry, jc.m)
    return Cell(sweep_param, draw, isometry, k, rho(jc, k), weight(jc.cov_xy, k))


def _pool_size(workers: int, tasks: int) -> int:
    """Threads worth starting: no more than requested, usable CPUs, or tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus, tasks))


# Most consecutive replicates of one (cell, n) in a chunk, one kernel call.  A
# failure or an interrupt waits for the chunks already running, at most one per
# thread, so this bounds that wait (256 replicates of an illus2 cell at n = 1e4
# take ~3 s).
_MAX_CHUNK = 256
# Most bytes of a chunk's Gram stack and the two eigenvector stacks the kernel
# makes from it, 48 m^2 bytes per replicate: chunks at m > 52 are shorter.  A
# chunk with failed replicates takes up to half as much again, for the copies
# of its ok members.
_MAX_CHUNK_BYTES = 32 * 2**20


def _chunk_size(m: int) -> int:
    """Replicates per chunk at dimension m: ``_MAX_CHUNK`` or fewer, within ``_MAX_CHUNK_BYTES``."""
    return max(1, min(_MAX_CHUNK, _MAX_CHUNK_BYTES // (48 * m * m)))


def run_replicates(cell: Cell, n: int, seeds: list[int], first: int = 0, *, method: str,
                   experiment: str = "custom") -> list[ReplicateRecord]:
    """Replicates ``first, first + 1, ...`` of (cell, n), one per seed, with one kernel call.

    A rank-deficient PCA (certain at n <= k) or a degenerate (zero) projection
    gives a failed record with a reason code rather than raising.
    """
    m, k = cell.weight.m, cell.k
    stack = np.empty((len(seeds), 2 * m, 2 * m))
    for gram, seed in zip(stack, seeds):
        gram[...] = cell.draw(n, np.random.default_rng(seed))
    out = evaluate_grams(stack, k, method, n, cell.weight, cell.isometry)
    records = []
    rows = zip(out.status.tolist(), out.d_sq.tolist(), out.eth_sq.tolist(), out.eps_sq.tolist(),
               [None] * len(seeds) if out.d_sq_corrected is None else out.d_sq_corrected.tolist())
    for replicate, (code, d_sq, eth_sq, eps_sq, corrected) in enumerate(rows, first):
        if code:
            records.append(ReplicateRecord(experiment, method, m, k, n, cell.sweep_param,
                                           replicate, status=STATUSES[code]))
            continue
        predicted = predicted_fit_error_sq(cell.rho, k, eth_sq)
        records.append(ReplicateRecord(experiment, method, m, k, n, cell.sweep_param, replicate,
                                       d_sq, eth_sq, eps_sq, predicted, eps_sq - predicted,
                                       corrected))
    return records


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[ReplicateRecord]:
    """Run the full sweep; records are ordered by (parameter tuple, replicate).

    The replicates run in chunks, each of consecutive replicates of one
    (cell, n) and run by one :func:`run_replicates` call (see the module
    docstring).  Serially, a chunk is as long as the caps allow.
    ``workers > 1`` runs the chunks on a pool of at most
    ``min(workers, usable CPUs, replicates)`` threads in this process, with
    chunks short enough for about ``workers * 8`` of them, plus at most one
    more per (cell, n).  The cells are shared read-only and their draws keep
    no state, so a run holds no draw memory once it returns.  The normal
    draw, the in-place centering and the stacked LAPACK calls release the
    interpreter lock and run in parallel; the Python around them, such as
    building the records, does not.  When a chunk raises, or the run is
    interrupted, chunks not yet started are cancelled and the exception
    propagates once the running ones finish.  Because every replicate is a
    pure function of its derived seed, and the kernel evaluates each matrix
    of a stack as it would alone, the output is identical at any worker
    count and chunk length.  ``workers < 1`` raises ValueError.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    groups = list(product(cfg.cells, cfg.n_values))
    total = len(groups) * cfg.replicates
    workers = _pool_size(workers, total)
    size = _chunk_size(cfg.m)
    if workers > 1:
        size = min(size, -(-total // (workers * 8)))
    tasks = [
        (cell, n, [replicate_seed(cfg.base_seed, param_index, rep)
                   for rep in range(first, min(first + size, cfg.replicates))], first)
        for param_index, (cell, n) in enumerate(groups)
        for first in range(0, cfg.replicates, size)
    ]
    chunk = partial(run_replicates, method=cfg.method, experiment=cfg.experiment)
    if workers == 1:
        return [record for task in tasks for record in chunk(*task)]
    # Imported here: the pool machinery costs every serial run 10-14 ms of start-up.
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(chunk, *task) for task in tasks]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # Chunks are cancelled only after every earlier one started, so the first
    # failure in order is a chunk's own exception, never a cancellation.
    return [record for future in futures for record in future.result()]


@dataclass(frozen=True)
class SummaryStats:
    """Per-group sample statistics over the ok replicates.

    ``group`` pairs each group-by field with its value.  Standard
    deviations use the n - 1 denominator; a single-member group reports 0
    with ``single_sample`` set.  Failed replicates are excluded and counted
    in ``failed``.
    """

    group: tuple[tuple[str, object], ...]
    count: int
    failed: int
    mean_eps_sq: float
    stdev_eps_sq: float
    mean_eps_sq_over_2k: float
    stdev_eps_sq_over_2k: float
    mean_residual: float
    stdev_residual: float
    single_sample: bool = False


_GROUP_BY = ("method", "m", "k", "n", "sweep_param")


def _mean_stdev(values: np.ndarray) -> tuple[float, float]:
    if values.size == 1:
        return float(values[0]), 0.0
    return float(values.mean()), float(values.std(ddof=1))


def summarize(records: list[ReplicateRecord]) -> list[SummaryStats]:
    """Mean/stdev of eps^2, eps^2 / 2k and residuals per (method, m, k, n, sweep_param)."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple, list[ReplicateRecord]] = {}
    for rec in records:
        key = tuple((f, getattr(rec, f)) for f in _GROUP_BY)
        groups.setdefault(key, []).append(rec)
    out = []
    for key, recs in groups.items():
        ok = [r for r in recs if r.status == "ok"]
        failed = len(recs) - len(ok)
        if not ok:
            out.append(SummaryStats(key, 0, failed, nan, nan, nan, nan, nan, nan))
            continue
        eps = np.array([r.eps_sq for r in ok])
        ratio = np.array([r.eps_sq / (2.0 * r.k) for r in ok])
        resid = np.array([r.residual for r in ok])
        mean_e, sd_e = _mean_stdev(eps)
        mean_r, sd_r = _mean_stdev(ratio)
        mean_res, sd_res = _mean_stdev(resid)
        out.append(SummaryStats(key, len(ok), failed, mean_e, sd_e, mean_r, sd_r,
                                mean_res, sd_res, single_sample=len(ok) == 1))
    return out
