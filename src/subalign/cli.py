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
non-finite input, overflowed draws and runs too large for memory), 3
deficient rank or degenerate projection in ``compute``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import stat
import sys
import tempfile
import warnings
from itertools import repeat

import numpy as np

from .grassmann import unit_scale_inplace
from .kernel import STATUSES, center_gram_inplace, evaluate_grams
from .model import identity_pair, reversed_pair, spiked_diag_pair
from .sim import METHODS, ExperimentConfig, Records, run_experiment, summarize
from .theory import plugin_rho, predicted_fit_error_sq

__all__ = ["main", "entry", "CSV_COLUMNS", "write_records_csv"]

CSV_COLUMNS = [
    "experiment", "method", "m", "k", "n", "sweep_param", "replicate",
    "d2", "eth2", "eps2", "predicted", "residual", "d2_corrected", "status",
    "correction_gap",
]

ILLUS1_BETAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)
ILLUS2_LAMBDAS = (0.70, 0.71, 0.72, 0.73, 0.74, 0.75)
ILLUS2_NSWEEP_NS = (10, 100, 1000, 10000)


def _float_fields(column: np.ndarray):
    """The column's CSV fields, one at a time: 12 significant digits, and the empty field
    for NaN (an absent or failed value).  A memoryview yields Python floats, which format
    faster than the numpy scalars an ndarray yields."""
    return ("" if math.isnan(value) else f"{value:.12g}" for value in memoryview(column))


def _round12(value: float):
    """12 significant digits; None (JSON null) for NaN and infinities."""
    return float(f"{value:.12g}") if math.isfinite(value) else None


def write_records_csv(records: Records, path: str, experiment: str) -> None:
    """Write ``records`` to ``path`` as a CSV: a :data:`CSV_COLUMNS` header, one row per replicate.

    ``experiment`` fills the first column.  Floats have 12 significant digits, and NaN
    (a failed replicate's value, or an absent one such as ``d2_corrected`` without an
    isometry) is the empty field; ``status`` is the name in ``kernel.STATUSES`` and
    ``correction_gap`` is ``|eth2 - d2_corrected|``.  ``path`` is opened with mode
    ``"w"``, replacing what was there; for a regular-file output the CLI passes a
    temporary file beside it and moves it into place once both outputs are written.
    Each row is made from the columns as it is written, so the writer's memory does not
    grow with Python objects per replicate.
    """
    gap = np.abs(records.eth_sq - records.d_sq_corrected)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(
            repeat(experiment), repeat(records.method), repeat(records.m),
            memoryview(records.k), memoryview(records.n), _float_fields(records.sweep_param),
            memoryview(records.replicate),
            _float_fields(records.d_sq), _float_fields(records.eth_sq),
            _float_fields(records.eps_sq), _float_fields(records.predicted),
            _float_fields(records.residual), _float_fields(records.d_sq_corrected),
            map(STATUSES.__getitem__, memoryview(records.status)), _float_fields(gap),
        ))


def _reference_lines(cells) -> list[dict]:
    """Limit lines eps^2 = intercept + slope * distance, per (sweep value, k) cell."""
    lines = []
    for cell in cells:
        r = cell.rho
        lines.append({
            "sweep_param": _round12(cell.sweep_param), "k": cell.k, "rho": _round12(r),
            "intercept": _round12(predicted_fit_error_sq(r, cell.k, 0.0)), "slope": _round12(r),
        })
    return lines


def _summary_payload(experiment: str, cfg: ExperimentConfig, records: Records, lines,
                     threads: int, params) -> dict:
    groups = [{key: _round12(value) if isinstance(value, float) else value
               for key, value in group.items()} for group in summarize(records)]
    counts = np.bincount(records.status, minlength=len(STATUSES)).tolist()
    failed = {reason: count for reason, count in zip(STATUSES[1:], counts[1:]) if count}
    return {
        "experiment": experiment,
        "method": cfg.method,
        "m": cfg.m,
        "seed": cfg.base_seed,
        "config": {
            "k_values": list(cfg.k_values),
            "n_values": list(cfg.n_values),
            "sweep": [_round12(sweep_param) for sweep_param, _, _ in cfg.models],
            "replicates": cfg.replicates,
            # null where the experiment does not fix it
            "beta": _round12(params.get("beta", math.nan)),
            "lambda2": _round12(params.get("lambda2", math.nan)),
            "threads": threads,
        },
        "failed_replicates": sum(failed.values()),  # kept while bench/gate.py reads it
        "failed_by_reason": dict(sorted(failed.items())),
        "reference_lines": lines,
        "summary": groups,
    }


def _run_and_write(args, models, k_values, n_values, **params) -> int:
    """Build the run from the shared flags, the experiment's k and n values and ``models``,
    a lazy iterable of (sweep_param, model, isometry) triples consumed before any file is
    made; refuse sweep values that print alike; open each output once and refuse a regular
    file that an output shares with another of the four writers (--out, --summary, stdout,
    stderr); print and flush the rho lines, run, and write.  ``params`` is the fixed beta
    or lambda2 to echo.  A rejected, failed or interrupted run removes the files its probe
    created.  An output that is a regular file (through any symlinks) is written to a
    temporary file beside it, and both temporaries replace their targets only once both
    outputs are written, so a failed write leaves an existing file as it was.  The probe's
    handles stay open until then, so the reader of a FIFO, written directly, gets it all."""
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    for flag, path in (("--out", args.out), ("--summary", args.summary)):
        if path == "":  # no file: not the default name, and realpath("") is the working directory
            raise ValueError(f"{flag} must name a file, got an empty path")
    cfg = ExperimentConfig(models, k_values, n_values, args.reps, base_seed=args.seed,
                           method=args.method)
    printed = {}
    for sweep_param, _, _ in cfg.models:  # the outputs would merge what prints alike
        label = f"{sweep_param:.12g}"
        if label in printed:
            raise ValueError(f"sweep values {printed[label]!r} and {sweep_param!r} both print "
                             f"as {label} at 12 significant digits")
        printed[label] = sweep_param
    lines = _reference_lines(cfg.cells)
    out_path = args.out or f"{args.command}_records.csv"
    summary_path = args.summary or f"{args.command}_summary.json"
    # made: the files this run made; writers: (name, path, stat) of the outputs, then of the
    # streams, which are looked at first, since a probe may take a closed one's descriptor.
    made, probes, writers = [], [], []
    for stream, descriptor in (("stdout", 1), ("stderr", 2)):
        try:
            writers.append((stream, None, os.fstat(descriptor)))
        except OSError:  # a closed descriptor is no file
            pass
    try:
        for index, (flag, path) in enumerate((("--out", out_path), ("--summary", summary_path))):
            if not os.path.exists(path):
                made.append(os.path.realpath(path))  # through a dangling link: its target
            probes.append(open(path, "a"))  # an unwritable path fails here, before any replicate
            writers.insert(index, (flag, path, os.fstat(probes[-1].fileno())))
        # A regular file behind two writers loses what the first wrote: the summary would
        # overwrite the records, and a replaced output what the shell's stream had written.
        # A device such as /dev/null, or one terminal behind all four, takes them all.
        for index, (flag, path, status) in enumerate(writers[:2]):
            for other, _, other_status in writers[index + 1:]:
                if stat.S_ISREG(status.st_mode) and os.path.samestat(status, other_status):
                    raise ValueError(f"{flag} and {other} name the same file: {path}")
        for line in lines:
            print(f"rho(sweep_param={line['sweep_param']:.12g}, k={line['k']}) = {line['rho']:.12g}")
        print(end="", flush=True)  # a stdout that cannot be written fails here, before the run
        records = run_experiment(cfg, workers=args.threads)
        payload = _summary_payload(args.command, cfg, records, lines, args.threads, params)
        targets = [os.path.realpath(path) for path in (out_path, summary_path)]
        staged = []  # per output: a temporary beside its regular-file target, or None
        for target, (_, _, status) in zip(targets, writers):
            directory, temporary = os.path.dirname(target), None
            if stat.S_ISREG(status.st_mode) and os.access(directory, os.W_OK):
                handle, temporary = tempfile.mkstemp(prefix=f".{os.path.basename(target)}.",
                                                     dir=directory)
                made.append(temporary)
                os.close(handle)
                os.chmod(temporary, stat.S_IMODE(status.st_mode))
            staged.append(temporary)
        write_records_csv(records, staged[0] or out_path, args.command)
        with open(staged[1] or summary_path, "w") as handle:
            json.dump(payload, handle, indent=2, allow_nan=False)
            handle.write("\n")
        for temporary, target in zip(staged, targets):
            if temporary:
                os.replace(temporary, target)
    except BaseException:
        for path in made:
            if os.path.exists(path):
                os.remove(path)
        raise
    finally:
        for probe in probes:
            probe.close()
    failed = payload["failed_replicates"]
    print(f"wrote {len(records)} records to {out_path}; summary to {summary_path}")
    if failed:
        print(f"warning: {failed} replicates failed", file=sys.stderr)
        return 1
    return 0


def _add_run_flags(sp, *, m):
    sp.add_argument("--m", type=int, default=m, help=f"ambient dimension (default {m})")
    sp.add_argument("--k", type=int, nargs="+", default=None, help="projection dimensions")
    sp.add_argument("--n", type=int, nargs="+", default=None, help="observation counts")
    sp.add_argument("--reps", type=int, default=200,
                    help="replicates per cell (default 200; the paper's counts are 1000 for "
                         "illus1, 10000 for illus2 and illus3, 2000 for the n sweep)")
    sp.add_argument("--seed", type=int, default=42, help="base seed in [0, 2**64) (default 42)")
    sp.add_argument("--method", choices=METHODS, default="pca")
    sp.add_argument("--out", help="records CSV path (default <experiment>_records.csv)")
    sp.add_argument("--summary", help="summary JSON path (default <experiment>_summary.json)")
    sp.add_argument("--threads", type=int, default=1, help="parallel workers (default 1)")


def cmd_illus1(args) -> int:
    models = ((beta, identity_pair(args.m, beta), None) for beta in args.beta or ILLUS1_BETAS)
    return _run_and_write(args, models, args.k or [2], args.n or [1000, 10000])


def cmd_illus2(args) -> int:
    if args.n_sweep:
        k_values, n_values, lambdas = args.k or [2], args.n or ILLUS2_NSWEEP_NS, [0.7]
    else:
        k_values, n_values, lambdas = args.k or [1, 2, 10], args.n or [10000], ILLUS2_LAMBDAS
    models = ((lam, spiked_diag_pair(args.m, lam, args.beta), None)
              for lam in args.lambda2 or lambdas)
    return _run_and_write(args, models, k_values, n_values, beta=args.beta)


def cmd_illus3(args) -> int:
    models = ((beta, *reversed_pair(args.m, args.lambda2, beta)) for beta in [args.beta])
    return _run_and_write(args, models, args.k or [1, 2, 10], args.n or [10000],
                          beta=args.beta, lambda2=args.lambda2)


def _load_matrix(role: str, path: str) -> np.ndarray:
    # Headerless UTF-8 CSV, rows = features, columns = observations; a leading byte-order
    # mark is skipped.  An empty or comment-only file is a usage error here, not a numpy
    # warning.  Every read error names the input by its role and quotes its path.
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            mat = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8-sig")
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {role} {path!r}: {exc}") from exc
    if mat.size == 0:
        raise ValueError(f"cannot read {role} {path!r}: contains no data")
    return mat


def cmd_compute(args) -> int:
    inputs = (("X", args.x), ("Y", args.y), ("--cross-cov", args.cross_cov))
    for role, path in inputs:
        if path == "":  # names no file: refused before any input is read
            raise ValueError(f"{role} must name a file, got an empty path")
    x, y, cross = (None if path is None else _load_matrix(role, path) for role, path in inputs)
    # The two checks no callee makes: np.vstack would take a Y of another m, and the
    # centering would warn on inf - inf before the kernel rejects it.  The callees own the
    # rest: evaluate_grams() checks k, then C against the data's m (through
    # grassmann.check_weight), and center_gram_inplace() the 2 observations.
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    m, n = x.shape
    for name, mat in (("X", x), ("Y", y)):
        if not np.isfinite(mat).all():
            raise ValueError(f"{name} has non-finite entries (nan or inf)")
    # Every output is invariant to the scale of X and of Y, but the Gram matrix squares
    # it: removing each one's scale exactly keeps it in range (weighted_sq() removes C's).
    # The (2, m, n) view gives X and Y each their own power of two.
    stack = np.vstack([x, y])
    unit_scale_inplace(stack.reshape(2, m, n))
    gram = center_gram_inplace(stack)
    # A stack of one, on a copy: the kernel rescales its stack in place, and plugin_rho
    # reads the unscaled matrix (an odd power of two does not pass exactly through sqrt).
    out = evaluate_grams(gram[None].copy(), args.k, args.method, n, cross)
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


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are ValueErrors, so that :func:`main` reports them as
    one ``error:`` line; the subcommands' parsers are made with this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subalign",
        description="Monte Carlo experiments on Procrustes fitting-error vs. subspace distance",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("illus1", help="identity covariance pair, beta sweep")
    _add_run_flags(p1, m=6)
    p1.add_argument("--beta", type=float, nargs="+", default=None,
                    help=f"beta sweep values (default {' '.join(str(b) for b in ILLUS1_BETAS)})")
    p1.set_defaults(func=cmd_illus1)

    p2 = sub.add_parser("illus2", help="spiked-diagonal pair, lambda2 sweep")
    _add_run_flags(p2, m=20)
    p2.add_argument("--beta", type=float, default=0.6, help="cross-covariance scale (default 0.6)")
    p2.add_argument("--lambda2", type=float, nargs="+", default=None,
                    help="second-diagonal sweep values (default 0.7 .. 0.75)")
    p2.add_argument("--n-sweep", action="store_true",
                    help="sweep n in {10, 100, 1000, 10000} at k=2, lambda2=0.7")
    p2.set_defaults(func=cmd_illus2)

    p3 = sub.add_parser("illus3", help="coordinate-reversed pair with corrected distance")
    _add_run_flags(p3, m=20)
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
    """Parse ``argv``, run its subcommand, flush stdout and return the exit code; the one
    place an error becomes exit 2 (a usage error, ValueError, MemoryError or OSError, a
    stdout that cannot be written included, as one ``error:`` line).  ``-h`` prints help
    and exits 0 through SystemExit; interrupts propagate."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        print(end="", flush=True)  # sys.stdout.flush(), where sys.stdout may be None (>&-)
        return code
    except ValueError as exc:
        message = exc
    except MemoryError as exc:
        message = f"not enough memory for this run: {exc}"
    except OSError as exc:
        message = f"cannot write output: {exc}"
    print(f"error: {message}", file=sys.stderr)
    return 2


def entry() -> None:
    code = main()
    try:
        print(end="", flush=True)
    except OSError:  # main reported it: the output left unwritten goes nowhere, not into exit 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    sys.exit(code)
