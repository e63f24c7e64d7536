"""Correctness gate: strict JSON, record invariants, and an independent oracle.

The oracle recomputes replicate records from the seeding contract the
program documents (splitmix64-mixed seed -> ``numpy.random.default_rng``
-> one ``(2m, n)`` standard-normal block -> symmetric PSD root of the block
covariance), then evaluates every quantity through k x k matrices instead
of the program's m x m projectors.  It shares no code with ``subalign``,
so it can tell a faster program from a different one.  Agreement is
required within ``TOL`` (absolute, scaled by max(1, |value|)): the
program prints 12 significant digits, and the two routes differ only by
float round-off.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Iterable

import numpy as np

from workloads import COMPUTE_INPUT_SETS, Compute, Experiment

TOL = 1e-9

_MASK64 = (1 << 64) - 1
_ZERO_WEIGHT_TOL = 1e-14

COMPUTE_VALUES = ("eps_sq", "d_sq", "eth_sq", "rho_hat")


class GateError(ValueError):
    """An output the benchmark cannot accept."""


def _reject_constant(token: str):
    raise GateError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse RFC 8259 JSON; bare NaN / Infinity / -Infinity are rejected."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise GateError(f"invalid JSON: {exc}") from None


def replicate_seed(base_seed: int, param_index: int, replicate: int) -> int:
    x = (base_seed & _MASK64) ^ ((param_index << 32) | replicate)
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _psd_root(block: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(block)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def _topk(mat: np.ndarray, k: int) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[:k].sum())


def _top_basis(centered: np.ndarray, k: int):
    """Top-k left singular vectors, or None when the numerical rank is below k."""
    u, s, _ = np.linalg.svd(centered, full_matrices=False)
    tol = s[0] * max(centered.shape) * np.finfo(float).eps
    if np.count_nonzero(s > tol) < k:
        return None
    return u[:, :k]


def rho(cov_x, cov_y, cov_xy, k: int) -> float:
    value = _topk(cov_xy, k) / math.sqrt(_topk(cov_x, k) * _topk(cov_y, k))
    return min(value, 1.0)


def _distances(a: np.ndarray, b: np.ndarray, cross: np.ndarray, k: int) -> tuple[float, float]:
    """(d^2, eth^2) from k x k products; sigma(P_a C P_b) = sigma(A^T C B)."""
    cos = np.clip(np.linalg.svd(a.T @ b, compute_uv=False), 0.0, 1.0)
    d2 = float(2.0 * np.sum(1.0 - cos))
    if np.max(np.abs(cross)) < _ZERO_WEIGHT_TOL:
        return d2, d2
    mean_topk = _topk(cross, k) / k
    sigma = np.linalg.svd(a.T @ cross @ b, compute_uv=False)[:k]
    return d2, min(max(float(2.0 * np.sum(1.0 - sigma / mean_topk)), 0.0), 2.0 * k)


def _fit_error_sq(a, b, xc, yc, k: int) -> float:
    """2k - 2 ||Y~ X~^T||_* with X~ = sqrt(k) P_a Xc / ||P_a Xc||_F (same for Y)."""
    xa, yb = a.T @ xc, b.T @ yc
    nuclear = np.linalg.svd(yb @ xa.T, compute_uv=False).sum()
    value = 2.0 * k - 2.0 * k * nuclear / (np.linalg.norm(xa) * np.linalg.norm(yb))
    return min(max(float(value), 0.0), 2.0 * k)


def oracle_records(exp: Experiment, seed: int, reps: int | None = None) -> list[dict]:
    """Expected records of one invocation, in the CLI's order."""
    reps = reps or exp.reps
    out = []
    for index, value, k, n in exp.cells():
        cov_x, cov_y, cov_xy = exp.covariance(value)
        root = _psd_root(np.block([[cov_x, cov_xy], [cov_xy.T, cov_y]]))
        for rep in range(reps):
            rng = np.random.default_rng(replicate_seed(seed, index, rep))
            data = root @ rng.standard_normal((2 * exp.m, n))
            xc = data[: exp.m] - data[: exp.m].mean(axis=1, keepdims=True)
            yc = data[exp.m:] - data[exp.m:].mean(axis=1, keepdims=True)
            if exp.method == "pca":
                a, b = _top_basis(xc, k), _top_basis(yc, k)
            else:
                a = b = np.eye(exp.m)[:, :k]
            if a is None or b is None:
                out.append({"status": "deficient_rank"})
                continue
            d2, eth2 = _distances(a, b, cov_xy, k)
            out.append({"status": "ok", "d2": d2, "eth2": eth2,
                        "eps2": _fit_error_sq(a, b, xc, yc, k)})
    return out


def oracle_compute(spec: Compute, x: np.ndarray, y: np.ndarray, cross: np.ndarray) -> dict:
    """Expected ``compute`` output for one input set."""
    k, n = spec.k, x.shape[1]
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    if spec.method == "pca":
        a, b = _top_basis(xc, k), _top_basis(yc, k)
    else:
        a = b = np.eye(spec.m)[:, :k]
    d2, eth2 = _distances(a, b, cross, k)
    s = 1.0 / (n - 1)
    rho_hat = rho(s * xc @ xc.T, s * yc @ yc.T, s * xc @ yc.T, k)
    return {"eps_sq": _fit_error_sq(a, b, xc, yc, k), "d_sq": d2, "eth_sq": eth2,
            "rho_hat": rho_hat}


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def read_records(path: str) -> list[dict]:
    """Records CSV rows by header name, so appended columns are tolerated."""
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_records(rows: list[dict], exp: Experiment, seed: int, *, reps: int | None = None,
                  oracle: bool = False) -> int:
    """Validate one invocation's records; returns the count of non-ok records.

    Always: the expected (sweep, k, n, replicate) grid in order, and on ok
    records ``eps2, eth2, d2`` in [0, 2k], ``predicted = (1 - rho) 2k +
    rho eth2`` with the model's rho, and ``residual = eps2 - predicted``.
    With ``oracle``: every value matches :func:`oracle_records`.
    """
    reps = reps or exp.reps
    if len(rows) != exp.records_per_invocation(reps):
        raise GateError(f"expected {exp.records_per_invocation(reps)} records, got {len(rows)}")
    expected = oracle_records(exp, seed, reps) if oracle else None
    grid = ((v, k, n, rep) for _, v, k, n in exp.cells() for rep in range(reps))
    rhos = {}
    failed = 0
    for i, (row, (value, k, n, rep)) in enumerate(zip(rows, grid)):
        where = f"record {i}"
        if (row["experiment"], row["method"], int(row["m"])) != (exp.command, exp.method, exp.m):
            raise GateError(f"{where}: wrong experiment/method/m {row}")
        if (int(row["k"]), int(row["n"]), int(row["replicate"])) != (k, n, rep) or not _close(
                float(row["sweep_param"]), value):
            raise GateError(f"{where}: out of order, expected k={k} n={n} rep={rep} {value}")
        if expected is not None and row["status"] != expected[i]["status"]:
            raise GateError(f"{where}: status {row['status']} != oracle {expected[i]['status']}")
        if row["status"] != "ok":
            failed += 1
            continue
        vals = {key: float(row[key]) for key in ("d2", "eth2", "eps2", "predicted", "residual")}
        if not all(map(math.isfinite, vals.values())):
            raise GateError(f"{where}: non-finite value {vals}")
        for key in ("d2", "eth2", "eps2"):
            if not 0.0 <= vals[key] <= 2.0 * k:
                raise GateError(f"{where}: {key}={vals[key]} outside [0, {2 * k}]")
        if (value, k) not in rhos:
            rhos[value, k] = rho(*exp.covariance(value), k)
        r = rhos[value, k]
        if not _close(vals["predicted"], (1.0 - r) * 2.0 * k + r * vals["eth2"]):
            raise GateError(f"{where}: predicted {vals['predicted']} != (1-rho)2k + rho eth2")
        if not _close(vals["residual"], vals["eps2"] - vals["predicted"]):
            raise GateError(f"{where}: residual {vals['residual']} != eps2 - predicted")
        if expected is not None:
            for key in ("d2", "eth2", "eps2"):
                if not _close(vals[key], expected[i][key]):
                    raise GateError(f"{where}: {key}={vals[key]!r} != oracle {expected[i][key]!r}")
    return failed


def check_summary(summary: dict, rows: list[dict]) -> None:
    """The summary's failure count (when present) and per-group means agree with the records."""
    failed = sum(row["status"] != "ok" for row in rows)
    if summary.get("failed_replicates", failed) != failed:
        raise GateError(f"summary failed_replicates={summary.get('failed_replicates')} != {failed}")
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        if row["status"] == "ok":
            key = (int(row["k"]), int(row["n"]), float(row["sweep_param"]))
            groups.setdefault(key, []).append(float(row["eps2"]))
    for group in summary["summary"]:
        eps = groups.pop((group["k"], group["n"], float(group["sweep_param"])), [])
        if group["count"] != len(eps):
            raise GateError(f"summary group {group} count != {len(eps)} ok records")
        if eps and not _close(group["mean_eps_sq"], sum(eps) / len(eps)):
            raise GateError(f"summary group {group} mean_eps_sq != record mean")
    if groups:
        raise GateError(f"records without a summary group: {sorted(groups)}")


def check_compute(result: dict, spec: Compute, want: dict) -> None:
    """Validate one ``compute`` JSON against the expected values ``want``."""
    shape = (result.get("m"), result.get("n"), result.get("k"), result.get("method"))
    expected = (spec.m, spec.n, spec.k, spec.method)
    if shape != expected:
        raise GateError(f"compute echoes {shape}, expected {expected}")
    for key in ("eps_sq", "d_sq", "eth_sq"):
        if not 0.0 <= result[key] <= 2.0 * spec.k:
            raise GateError(f"compute {key}={result[key]} outside [0, {2 * spec.k}]")
    if not 0.0 <= result["rho_hat"] <= 1.0:
        raise GateError(f"compute rho_hat={result['rho_hat']} outside [0, 1]")
    for key in COMPUTE_VALUES:
        if not _close(result[key], want[key]):
            raise GateError(f"compute {key}={result[key]!r} != expected {want[key]!r}")


def records_match(rows: Iterable[dict], reference: Iterable[dict]) -> None:
    """Records equal committed reference records within ``TOL``."""
    rows, reference = list(rows), list(reference)
    if len(rows) != len(reference):
        raise GateError(f"{len(rows)} records, reference has {len(reference)}")
    for i, (row, ref) in enumerate(zip(rows, reference)):
        for key, want in ref.items():
            got = row.get(key)
            try:
                same = _close(float(got), float(want))
            except (TypeError, ValueError):
                same = got == want
            if not same:
                raise GateError(f"record {i}: {key}={got!r} != reference {want!r}")


class RunCheck:
    """Applies the correctness checks to every invocation; counts attempts and failures."""

    def __init__(self, workload, compute_expected=None):
        self.workload = workload
        self.compute_expected = compute_expected or {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def invocation(self, inv: dict, *, oracle: bool, reference=None) -> int:
        """Check one invocation; returns its count of ok replicates."""
        spec = self.workload.spec
        reps = self.workload.reference_reps if reference is not None else None
        expected = spec.records_per_invocation(reps) if isinstance(spec, Experiment) else 1
        self.attempted += expected
        try:
            if inv["rc"] != 0:
                raise GateError(f"exit code {inv['rc']}: {inv['stderr'].strip()[-500:]}")
            if isinstance(spec, Experiment):
                rows = read_records(inv["records"])
                failed = check_records(rows, spec, inv["seed"], reps=reps, oracle=oracle)
                with open(inv["summary"]) as handle:
                    check_summary(strict_json(handle.read()), rows)
                if reference is not None:
                    records_match(rows, reference)
            else:
                result = strict_json(inv["stdout"])
                want = reference if reference is not None else self.compute_expected[
                    inv["index"] % COMPUTE_INPUT_SETS]
                check_compute(result, spec, want)
                failed = 0
        except (GateError, OSError, KeyError, TypeError, ValueError) as exc:
            self.problems.append(f"{inv['phase']} invocation {inv['index']}: {exc}")
            self.failed += expected
            return 0
        self.failed += failed
        return expected - failed

    def phase(self, invocations: list[dict]) -> list[int]:
        """Oracle-check the first and last invocation of a phase, invariants on all."""
        last = len(invocations) - 1
        return [self.invocation(inv, oracle=i in (0, last)) for i, inv in enumerate(invocations)]
