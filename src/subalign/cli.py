"""Command-line interface: canned experiments and ad-hoc computation.

Subcommands
-----------
illus1   identity covariance pair, beta sweep (m=6, k=2 defaults)
illus2   spiked-diagonal pair, lambda2 sweep or n sweep (m=20 defaults)
illus3   coordinate-reversed pair; adds the isometry-corrected distance
compute  eps^2 / d^2 / plug-in rho for user-supplied CSV matrices

Outputs: a records CSV (fixed column order, floats at 12 significant
digits) and a summary JSON (strict RFC 8259: non-finite values are
written as null).  Exit codes: 0 all replicates completed, 1 some
replicates failed, 2 usage or I/O error (including infeasible models,
non-finite input and runs too large for memory), 3 deficient rank or
degenerate projection in ``compute``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import warnings
from collections import Counter

import numpy as np

from .grassmann import unit_scale_inplace, weight
from .kernel import STATUSES, center_gram_inplace, evaluate_grams
from .sim import METHODS, ExperimentConfig, ReplicateRecord, run_experiment, summarize
from .theory import plugin_rho

__all__ = ["main", "entry", "CSV_COLUMNS", "write_records_csv"]

CSV_COLUMNS = [
    "experiment", "method", "m", "k", "n", "sweep_param", "replicate",
    "d2", "eth2", "eps2", "predicted", "residual", "d2_corrected", "status",
    "correction_gap",
]

ILLUS1_BETAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
ILLUS2_LAMBDAS = (0.70, 0.71, 0.72, 0.73, 0.74, 0.75)
ILLUS2_NSWEEP_NS = (10, 100, 1000, 10000)


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def _round12(value: float):
    """12 significant digits; None (JSON null) for NaN and infinities."""
    return float(f"{value:.12g}") if math.isfinite(value) else None


def write_records_csv(records: list[ReplicateRecord], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            gap = None
            if r.eth_sq is not None and r.d_sq_corrected is not None:
                gap = abs(r.eth_sq - r.d_sq_corrected)
            writer.writerow([
                r.experiment, r.method, r.m, r.k, r.n, _fmt(r.sweep_param), r.replicate,
                _fmt(r.d_sq), _fmt(r.eth_sq), _fmt(r.eps_sq), _fmt(r.predicted),
                _fmt(r.residual), _fmt(r.d_sq_corrected), r.status, _fmt(gap),
            ])


def _reference_lines(cells) -> list[dict]:
    """Limit lines eps^2 = intercept + slope * distance, per (sweep value, k) cell."""
    lines = []
    for cell in cells:
        r = cell.rho
        lines.append({
            "sweep_param": _round12(cell.sweep_param), "k": cell.k, "rho": _round12(r),
            "intercept": _round12((1.0 - r) * 2.0 * cell.k), "slope": _round12(r),
        })
    return lines


def _summary_payload(cfg: ExperimentConfig, records, lines, threads: int,
                     full_scale: bool) -> dict:
    stats = summarize(records)
    failed = Counter(r.status for r in records if r.status != "ok")
    groups = []
    for s in stats:
        entry = dict(s.group) | {f.name: getattr(s, f.name) for f in dataclasses.fields(s)[1:]}
        groups.append({key: _round12(value) if isinstance(value, float) else value
                       for key, value in entry.items()})
    return {
        "experiment": cfg.experiment,
        "method": cfg.method,
        "m": cfg.m,
        "seed": cfg.base_seed,
        "config": {
            "k_values": list(cfg.k_values),
            "n_values": list(cfg.n_values),
            "sweep": [_round12(v) for v in cfg.sweep],
            "replicates": cfg.replicates,
            "beta": _round12(cfg.beta),
            "lambda2": _round12(cfg.lambda2),
            "threads": threads,
            "full_scale": full_scale,
        },
        "failed_replicates": sum(failed.values()),  # kept while bench/gate.py reads it
        "failed_by_reason": dict(sorted(failed.items())),
        "reference_lines": lines,
        "summary": groups,
    }


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_and_write(args, **config) -> int:
    """Validate the run (config, models, --threads, output paths), then run it and write."""
    if args.threads < 1:
        return _usage_error(f"--threads must be >= 1, got {args.threads}")
    try:
        cfg = ExperimentConfig(**config)
        lines = _reference_lines(cfg.cells)
    except ValueError as exc:
        return _usage_error(exc)
    except MemoryError as exc:
        return _usage_error(f"not enough memory for this run: {exc}")
    out_path = args.out or f"{cfg.experiment}_records.csv"
    summary_path = args.summary or f"{cfg.experiment}_summary.json"
    created, error = [], None  # a rejected or failed run removes the files its probe created
    try:
        for path in (out_path, summary_path):
            if not os.path.exists(path):
                created.append(os.path.realpath(path))  # through a dangling link: its target
            with open(path, "a"):  # an unwritable path fails here, before any replicate runs
                pass
        if os.path.samefile(out_path, summary_path):  # the summary would overwrite the records
            error = f"--out and --summary name the same file: {out_path}"
    except OSError as exc:
        error = f"cannot write output: {exc}"
    if not error:
        for line in lines:
            print(f"rho(sweep_param={line['sweep_param']:g}, k={line['k']}) = {line['rho']:.12g}")
        try:
            records = run_experiment(cfg, workers=args.threads)
            payload = _summary_payload(cfg, records, lines, args.threads, args.full_scale)
            write_records_csv(records, out_path)
            with open(summary_path, "w") as handle:
                json.dump(payload, handle, indent=2, allow_nan=False)
                handle.write("\n")
        except MemoryError as exc:
            error = f"not enough memory for this run: {exc}"
        except OSError as exc:
            error = f"cannot write output: {exc}"
    if error:
        for path in created:
            if os.path.exists(path):
                os.remove(path)
        return _usage_error(error)
    failed = payload["failed_replicates"]
    print(f"wrote {len(records)} records to {out_path}; summary to {summary_path}")
    if failed:
        print(f"warning: {failed} replicates failed", file=sys.stderr)
        return 1
    return 0


def _add_run_flags(sp, *, m, reps):
    sp.add_argument("--m", type=int, default=m, help=f"ambient dimension (default {m})")
    sp.add_argument("--k", type=int, nargs="+", default=None, help="projection dimensions")
    sp.add_argument("--n", type=int, nargs="+", default=None, help="observation counts")
    sp.add_argument("--reps", type=int, default=reps, help=f"replicates per cell (default {reps})")
    sp.add_argument("--seed", type=int, default=42, help="base seed (default 42)")
    sp.add_argument("--method", choices=METHODS, default="pca")
    sp.add_argument("--out", help="records CSV path (default <experiment>_records.csv)")
    sp.add_argument("--summary", help="summary JSON path (default <experiment>_summary.json)")
    sp.add_argument("--threads", type=int, default=1, help="parallel workers (default 1)")
    sp.add_argument("--full-scale", action="store_true",
                    help="restore full-scale replicate counts (slow)")


def cmd_illus1(args) -> int:
    return _run_and_write(
        args, experiment="illus1", m=args.m,
        k_values=args.k or [2],
        n_values=args.n or [1000, 10000],
        sweep=args.beta if args.beta is not None else ILLUS1_BETAS,
        replicates=1000 if args.full_scale else args.reps,
        base_seed=args.seed, method=args.method,
    )


def cmd_illus2(args) -> int:
    if args.n_sweep:
        k_values = args.k or [2]
        n_values = args.n or list(ILLUS2_NSWEEP_NS)
        sweep = args.lambda2 if args.lambda2 is not None else [0.7]
        full = 2000
    else:
        k_values = args.k or [1, 2, 10]
        n_values = args.n or [10000]
        sweep = args.lambda2 if args.lambda2 is not None else ILLUS2_LAMBDAS
        full = 10000
    return _run_and_write(
        args, experiment="illus2", m=args.m, k_values=k_values, n_values=n_values,
        sweep=sweep, replicates=full if args.full_scale else args.reps,
        base_seed=args.seed, method=args.method, beta=args.beta,
    )


def cmd_illus3(args) -> int:
    return _run_and_write(
        args, experiment="illus3", m=args.m,
        k_values=args.k or [1, 2, 10],
        n_values=args.n or [10000],
        sweep=[args.beta],
        replicates=10000 if args.full_scale else args.reps,
        base_seed=args.seed, method=args.method,
        beta=args.beta, lambda2=args.lambda2,
    )


def _load_matrix(path: str) -> np.ndarray:
    # Headerless CSV, rows = features, columns = observations.  An empty or
    # comment-only file is a usage error here, not a numpy warning.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        mat = np.loadtxt(path, delimiter=",", ndmin=2)
    if mat.size == 0:
        raise ValueError(f"{path} contains no data")
    return mat


def cmd_compute(args) -> int:
    try:
        x, y = _load_matrix(args.x), _load_matrix(args.y)
        cross = _load_matrix(args.cross_cov) if args.cross_cov else None
    except (OSError, ValueError) as exc:
        return _usage_error(f"cannot read matrix: {exc}")
    if x.shape != y.shape:
        return _usage_error(f"shape mismatch: {x.shape} vs {y.shape}")
    m, n = x.shape
    if not 1 <= args.k <= m:
        return _usage_error(f"k must satisfy 1 <= k <= m = {m}, got {args.k}")
    if n < 2:
        return _usage_error("need at least 2 observations")
    if cross is not None and cross.shape != (m, m):
        return _usage_error(f"cross covariance must be {m} x {m}, got {cross.shape}")
    for name, mat in (("X", x), ("Y", y), ("cross covariance", cross)):
        if mat is not None and not np.all(np.isfinite(mat)):
            return _usage_error(f"{name} has non-finite entries (nan or inf)")
    # Every output is invariant to the scale of X and of Y, but the Gram matrix squares
    # it: removing each one's scale exactly keeps it in range (weight() removes C's).
    stack = np.vstack([x, y])
    for half in (stack[:m], stack[m:]):
        unit_scale_inplace(half)
    gram = center_gram_inplace(stack)
    # A stack of one, on a copy: the kernel rescales its stack in place, and plugin_rho
    # reads the unscaled matrix (an odd power of two does not pass exactly through sqrt).
    out = evaluate_grams(gram[None].copy(), args.k, args.method, n,
                         None if cross is None else weight(cross, args.k))
    if out.status[0]:
        reason = STATUSES[out.status[0]].replace("_", " ")
        print(f"error: {reason} for requested dimension k = {args.k}", file=sys.stderr)
        return 3
    result = {
        "m": m, "n": n, "k": args.k, "method": args.method,
        "eps_sq": _round12(out.eps_sq[0]),
        "d_sq": _round12(out.d_sq[0]),
        "rho_hat": _round12(plugin_rho(gram, args.k)),
    }
    if cross is not None:
        result["eth_sq"] = _round12(out.eth_sq[0])
    print(json.dumps(result, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subalign",
        description="Monte Carlo experiments on Procrustes fitting-error vs. subspace distance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("illus1", help="identity covariance pair, beta sweep")
    _add_run_flags(p1, m=6, reps=200)
    p1.add_argument("--beta", type=float, nargs="+", default=None,
                    help=f"beta sweep values (default {' '.join(str(b) for b in ILLUS1_BETAS)})")
    p1.set_defaults(func=cmd_illus1)

    p2 = sub.add_parser("illus2", help="spiked-diagonal pair, lambda2 sweep")
    _add_run_flags(p2, m=20, reps=200)
    p2.add_argument("--beta", type=float, default=0.6, help="cross-covariance scale (default 0.6)")
    p2.add_argument("--lambda2", type=float, nargs="+", default=None,
                    help="second-diagonal sweep values (default 0.7 .. 0.75)")
    p2.add_argument("--n-sweep", action="store_true",
                    help="sweep n in {10, 100, 1000, 10000} at k=2, lambda2=0.7")
    p2.set_defaults(func=cmd_illus2)

    p3 = sub.add_parser("illus3", help="coordinate-reversed pair with corrected distance")
    _add_run_flags(p3, m=20, reps=200)
    p3.add_argument("--beta", type=float, default=0.6, help="cross-covariance scale (default 0.6)")
    p3.add_argument("--lambda2", type=float, default=0.7, help="second diagonal (default 0.7)")
    p3.set_defaults(func=cmd_illus3)

    pc = sub.add_parser("compute", help="diagnostics for user-supplied matrices")
    pc.add_argument("x", help="CSV for X (rows = features, columns = observations)")
    pc.add_argument("y", help="CSV for Y, same shape")
    pc.add_argument("--k", type=int, required=True, help="projection dimension")
    pc.add_argument("--cross-cov", help="optional m x m cross-covariance CSV (enables eth_sq)")
    pc.add_argument("--method", choices=METHODS, default="pca")
    pc.set_defaults(func=cmd_compute)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())
