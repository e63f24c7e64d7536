"""Monte Carlo harness: replicate runs, deterministic seeding, summaries.

A replicate draws the 2m x 2m Gram matrix of one stacked centered data
pair from its cell, derives the two projection subspaces from it (PCA or
the trivial first-k-coordinates baseline), and records the square subspace
distance, its weighted form (using the model's true cross-covariance
block), the square Procrustes fitting-error, the predicted limiting value,
and the residual (see :mod:`subalign.kernel`).  Replicates run in chunks:
a chunk is up to ``_MAX_CHUNK`` consecutive replicates of one (cell, n),
fewer where the kernel's stacks would pass ``_MAX_CHUNK_BYTES``.  A chunk
is one :func:`run_replicates` call, which has no per-replicate loop: one
call of its cell's draw turns the chunk's seeds into its stack of Gram
matrices, one :func:`subalign.kernel.evaluate_grams` call evaluates the
stack, and the kernel's columns are returned with the predicted value and
the residual added, computed once for the chunk.  The run is one
:class:`Records` table, the chunks' columns in order; the summary and the
CLI's records CSV read it, and the CLI labels them with its subcommand, the
one name a run has.
A config's sweep is its models, (sweep_param, model, isometry-or-None)
triples that the caller builds (the CLI, for illus1/2/3).  A run is a tuple
of cells, one per (model, k), each built once when its config is
constructed (:attr:`ExperimentConfig.cells`): the draw,
``partial(mvn_grams, model)``, is bound and rho computed there, beside the
isometry the config checked once per model and the model's cross
covariance, and every replicate of the cell reads them.  The CLI's
reference lines read the same cells.

Seeding contract
----------------
Replicate r of parameter tuple p (tuples enumerate the Cartesian product
models x k_values x n_values, in that nesting order) uses the 64-bit seed

    splitmix64_mix(base_seed XOR (p * 2**32 + r))

where 0 <= base_seed < 2**64 and splitmix64_mix is the standard splitmix64
finalizer (see :func:`replicate_seed`).  The draw,
:func:`subalign.model.mvn_grams`, feeds each seed to numpy's
``default_rng`` (PCG64), so replicates are independent of execution order
and of the number of workers; runs with equal configs are bit-identical.

Execution
---------
:func:`run_experiment` runs the chunks serially, or on a pool of threads in
this process; the normal draw, its centering, the Gram product and the
kernel's stacked LAPACK calls release the interpreter lock, so the threads
overlap there.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import product
from math import isfinite, nan
from operator import index
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grassmann import check_isometry
from .kernel import evaluate_grams
from .model import JointCovariance, mvn_grams
from .theory import predicted_fit_error_sq, rho

__all__ = [
    "METHODS",
    "ExperimentConfig",
    "Records",
    "Cell",
    "replicate_seed",
    "run_replicates",
    "run_experiment",
    "summarize",
]

METHODS = ("pca", "trivial")

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    # splitmix64 finalizer (Steele/Lea/Flood avalanche constants).
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replicate_seed(base_seed: int, param_index: int, replicate_index: int) -> int:
    """The documented per-replicate seed; see the module docstring."""
    # Python ints, as in ExperimentConfig: a numpy integer overflows in _mix64.
    base_seed, param_index, replicate_index = map(index, (base_seed, param_index, replicate_index))
    if not 0 <= base_seed < 2**64:  # as in ExperimentConfig: no two seeds alias
        raise ValueError(f"base_seed must lie in [0, 2**64), got {base_seed}")
    if not 0 <= param_index < 2**32:
        raise ValueError(f"param_index must fit in 32 bits, got {param_index}")
    if not 0 <= replicate_index < 2**32:
        raise ValueError(f"replicate_index must fit in 32 bits, got {replicate_index}")
    return _mix64(base_seed ^ ((param_index << 32) | replicate_index))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Declarative description of one Monte Carlo sweep.

    ``models`` holds the sweep as (sweep_param, model, isometry-or-None)
    triples, in sweep order: their sweep params must be finite and distinct,
    and the models share one dimension, :attr:`m`.  The run has no name
    here: the CLI labels its outputs with its subcommand.  Construction
    checks them, keeps each isometry as its checked read-only copy, and
    builds :attr:`cells`, the (model, k) cells in parameter order that a run
    reads: the one place a model is bound to its draw, and where rho refuses
    a k outside ``1 <= k <= m``.
    """

    models: tuple[tuple[float, JointCovariance, Optional[np.ndarray]], ...]
    k_values: tuple[int, ...]
    n_values: tuple[int, ...]
    replicates: int
    base_seed: int = 42
    method: str = "pca"
    cells: tuple[Cell, ...] = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("k_values", "n_values", "replicates", "base_seed"):
            value = getattr(self, name)
            try:  # integers only: int() would truncate 2.9 to 2 without a word
                value = tuple(map(index, value)) if name.endswith("_values") else index(value)
            except TypeError:
                raise ValueError(f"{name} must be integers, got {value!r}") from None
            object.__setattr__(self, name, value)
        models = tuple((float(p), model, w) for p, model, w in self.models)
        object.__setattr__(self, "models", models)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if len(dims := {model.m for _, model, _ in models}) != 1:
            raise ValueError(f"models must be nonempty and of one dimension, got {sorted(dims)}")
        if not 1 <= self.replicates <= 2**32:
            raise ValueError(f"replicates must lie in [1, 2**32], got {self.replicates}")
        if not 0 <= self.base_seed < 2**64:  # the contract reads 64 bits: no two seeds alias
            raise ValueError(f"base_seed must lie in [0, 2**64), got {self.base_seed}")
        if not self.k_values:
            raise ValueError("k_values must be nonempty")
        if not self.n_values or any(n < 2 for n in self.n_values):
            raise ValueError(f"n values must be >= 2: {self.n_values}")
        sweep = tuple(p for p, _, _ in models)
        if not all(map(isfinite, sweep)):
            raise ValueError(f"sweep_param must be finite, got {sweep}")
        for name, values in (("sweep_param", sweep), ("k_values", self.k_values),
                             ("n_values", self.n_values)):  # a repeat would merge summary groups
            if len(set(values)) != len(values):
                raise ValueError(f"{name} repeats a value: {values}")
        models = tuple((p, model, None if w is None else check_isometry(w, self.m))
                       for p, model, w in models)
        object.__setattr__(self, "models", models)
        cells = tuple(Cell(p, partial(mvn_grams, model), w, k, rho(model, k), model.cov_xy)
                      for p, model, w in models for k in self.k_values)
        object.__setattr__(self, "cells", cells)

    @property
    def m(self) -> int:
        """The models' common dimension."""
        return self.models[0][1].m


@dataclass(frozen=True, eq=False)
class Records:
    """A run's replicates as one table: the config's scalars and one column per field.

    Row i is replicate ``replicate[i]`` of cell ``(sweep_param[i], k[i])`` at
    ``n[i]``.  ``status`` holds int8 indices into :data:`subalign.kernel.STATUSES`
    (0 is "ok").  The float columns are the kernel's
    (:class:`subalign.kernel.GramColumns`, under the same names) plus
    ``predicted`` and ``residual = eps_sq - predicted``; they are NaN where the
    status is not ok, and ``d_sq_corrected`` also for models without an isometry.
    """

    method: str
    m: int
    k: np.ndarray
    n: np.ndarray
    sweep_param: np.ndarray
    replicate: np.ndarray
    status: np.ndarray
    d_sq: np.ndarray
    eth_sq: np.ndarray
    eps_sq: np.ndarray
    predicted: np.ndarray
    residual: np.ndarray
    d_sq_corrected: np.ndarray

    def __len__(self) -> int:
        return len(self.status)


_COLUMNS = tuple(f.name for f in fields(Records))[2:]  # the per-row fields


class Cell(NamedTuple):
    """One (sweep value, k) cell of a sweep, as :class:`ExperimentConfig` builds it.

    Holds what every replicate of the cell shares: ``draw(n, seeds)``, the
    (R, 2m, 2m) stack of centered Gram matrices of n fresh pairs from the
    model, one per seed (it keeps no state), the config's checked isometry
    (or None), the model's rho and the eth^2 weight ``cross_cov``, the model's
    read-only ``cov_xy``, which every k-cell of the model shares.
    """

    sweep_param: float
    draw: Callable[[int, list[int]], np.ndarray]
    isometry: Optional[np.ndarray]
    k: int
    rho: float
    cross_cov: np.ndarray


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
# makes from it, 48 m^2 bytes per replicate: chunks at m > 52 are shorter.
_MAX_CHUNK_BYTES = 32 * 2**20


def _chunk_size(m: int) -> int:
    """Replicates per chunk at dimension m: ``_MAX_CHUNK`` or fewer, within ``_MAX_CHUNK_BYTES``."""
    return max(1, min(_MAX_CHUNK, _MAX_CHUNK_BYTES // (48 * m * m)))


def run_replicates(cell: Cell, n: int, seeds: list[int], first: int = 0, *,
                   method: str) -> Records:
    """Replicates ``first, first + 1, ...`` of (cell, n), one per seed: one draw, one kernel call.

    A rank-deficient PCA (certain at n <= k) or a degenerate (zero) projection
    gives a failed row with a reason code rather than raising.
    """
    m, k, r = len(cell.cross_cov), cell.k, len(seeds)
    out = evaluate_grams(cell.draw(n, seeds), k, method, n, cell.cross_cov, cell.isometry)
    ok = out.status == 0
    predicted = np.full(r, nan)
    predicted[ok] = predicted_fit_error_sq(cell.rho, k, out.eth_sq[ok])
    return Records(method=method, m=m, k=np.full(r, k), n=np.full(r, n),
                   sweep_param=np.full(r, cell.sweep_param), replicate=np.arange(first, first + r),
                   predicted=predicted, residual=out.eps_sq - predicted, **out._asdict())


def _concatenate(chunks: list[Records]) -> Records:
    """The chunks' rows in order, as one table."""
    head = chunks[0]
    columns = {name: np.concatenate([getattr(chunk, name) for chunk in chunks])
               for name in _COLUMNS}
    return Records(head.method, head.m, **columns)


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> Records:
    """Run the full sweep; rows are ordered by (parameter tuple, replicate).

    The replicates run in chunks, each of consecutive replicates of one
    (cell, n) and run by one :func:`run_replicates` call (see the module
    docstring).  Serially, a chunk is as long as the caps allow.
    ``workers > 1`` runs the chunks on a pool of at most
    ``min(workers, usable CPUs, replicates)`` threads in this process, with
    chunks short enough for about ``workers * 8`` of them, plus at most one
    more per (cell, n).  The cells are shared read-only and their draws keep
    no state, so a run holds no draw memory once it returns.  The normal
    draw, the in-place centering, the Gram product and the stacked LAPACK
    calls release the interpreter lock and run in parallel; the Python
    around them does not.
    When a chunk raises, or the run is interrupted, chunks not yet started
    are cancelled and the exception propagates once the running ones finish.
    Because every replicate is a pure function of its derived seed, and the
    kernel evaluates each matrix of a stack as it would alone, the output is
    identical at any worker count and chunk length.  ``workers < 1`` raises
    ValueError.
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
    chunk = partial(run_replicates, method=cfg.method)
    if workers == 1:
        return _concatenate([chunk(*task) for task in tasks])
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
    return _concatenate([future.result() for future in futures])


def _mean_stdev(values: np.ndarray) -> tuple[float, float]:
    if values.size <= 1:
        return (float(values[0]), 0.0) if values.size else (nan, nan)
    return float(values.mean()), float(values.std(ddof=1))


def summarize(records: Records) -> list[dict]:
    """Mean/stdev of eps^2, eps^2 / 2k and residuals over the ok rows, one dict per group.

    A group is a run of rows with equal ``(k, n, sweep_param)``: one per
    (cell, n), since a config rejects repeated values.  Standard deviations
    use the n - 1 denominator; a group of one ok row reports 0 with
    ``single_sample`` set, and a group without one reports NaN.
    """
    if not len(records):
        raise ValueError("no records to summarize")
    axes = (records.k, records.n, records.sweep_param)
    starts = np.flatnonzero(np.any([a[1:] != a[:-1] for a in axes], axis=0)) + 1
    bounds = [0, *starts.tolist(), len(records)]
    ratio = records.eps_sq / (2.0 * records.k)
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        ok = records.status[lo:hi] == 0
        count = int(ok.sum())
        (mean_e, sd_e), (mean_r, sd_r), (mean_res, sd_res) = (
            _mean_stdev(column[lo:hi][ok]) for column in (records.eps_sq, ratio, records.residual))
        out.append(dict(
            method=records.method, m=records.m, k=records.k[lo].item(), n=records.n[lo].item(),
            sweep_param=records.sweep_param[lo].item(), count=count, failed=hi - lo - count,
            mean_eps_sq=mean_e, stdev_eps_sq=sd_e, mean_eps_sq_over_2k=mean_r,
            stdev_eps_sq_over_2k=sd_r, mean_residual=mean_res, stdev_residual=sd_res,
            single_sample=count == 1,
        ))
    return out
