"""Span recording around the public functions bound in ``subalign.sim`` / ``subalign.cli``.

The benchmark does not instrument the program: it rebinds module
attributes to thin wrappers for the traced phase and restores the exact
original objects afterwards.  Calls that resolve through those bindings
(``run_replicate`` calling ``pca_subspace``, ``cli.main`` calling
``run_experiment``) produce spans; calls a module makes to its own
functions (``weighted_hausdorff_sq`` calling ``projector`` inside
``grassmann``) stay inside their caller's span.

Spans are kept in memory as tuples and written once, at the end.  Only the
process that installed the wrappers records: forked pool workers inherit
the wrappers but pass straight through, so pool workloads trace the parent
only.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# The CLI's dispatch helpers: their time is argument parsing and file I/O,
# which the benchmark reports as ``cli.main`` self time.
_NOT_WRAPPED = {"entry", "build_parser"}

# Spans whose bytes_out is the size of the file named by this argument.
_FILE_OUTPUT_ARG = {"cli.write_records_csv": 1}

LAYERS = ("cli", "sim", "model", "pca", "grassmann", "procrustes", "theory")

HEADER = "trace_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\tbytes_in\tbytes_out\n"


def array_bytes(obj) -> int:
    """Bytes of an array argument or result, computed from array shapes.

    Counts an ndarray, or the ndarray fields of a dataclass instance
    (``DataPair``, ``CenteredData``, ``Subspace``, ...); anything else is 0.
    """
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(type(obj), "__dataclass_fields__"):
        return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))
    return 0


def public_functions(module) -> dict:
    """Public functions defined in ``subalign`` and bound in ``module``."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and not name.startswith("_")
        and not name.startswith("cmd_")
        and name not in _NOT_WRAPPED
        and obj.__module__.startswith("subalign.")
    }


class Recorder:
    """In-memory spans: (trace_id, parent_id, name_id, start_ns, end_ns, bytes_in, bytes_out)."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []
        self.spans: list = []
        self.trace_id = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        file_arg = _FILE_OUTPUT_ARG.get(name)

        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            bytes_in = sum(map(array_bytes, args))
            if kwargs:
                bytes_in += sum(map(array_bytes, kwargs.values()))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[span_id] = (self.trace_id, parent, name_id, start, perf_counter_ns(),
                                  bytes_in, 0)
                stack.pop()
                raise
            end = perf_counter_ns()
            stack.pop()
            if file_arg is not None and len(args) > file_arg:
                bytes_out = os.path.getsize(args[file_arg])
            else:
                bytes_out = array_bytes(result)
            spans[span_id] = (self.trace_id, parent, name_id, start, end, bytes_in, bytes_out)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(HEADER)
            for span_id, (trace_id, parent, name_id, start, end, b_in, b_out) in enumerate(
                    self.spans):
                handle.write(f"{trace_id}\t{span_id}\t{parent}\t{self.names[name_id]}\t"
                             f"{start}\t{end}\t{b_in}\t{b_out}\n")


@contextmanager
def installed(recorder: Recorder, modules):
    """Wrap the public functions bound in ``modules``; restore them on exit."""
    saved = []
    try:
        for module in modules:
            for attr, fn in public_functions(module).items():
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                saved.append((module, attr, fn))
                setattr(module, attr, recorder.wrap(fn, name))
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def read_spans(path: str) -> list[tuple]:
    """(trace_id, span_id, parent_id, name, start_ns, end_ns, bytes_in, bytes_out) rows."""
    rows = []
    with open(path) as handle:
        if handle.readline() != HEADER:
            raise ValueError(f"{path}: not a span file")
        for line in handle:
            t, s, p, name, start, end, b_in, b_out = line.rstrip("\n").split("\t")
            rows.append((int(t), int(s), int(p), name, int(start), int(end), int(b_in),
                         int(b_out)))
    return rows


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    durations_ns: list = dataclasses.field(default_factory=list)


def aggregate(rows: list[tuple]) -> dict[str, SpanStats]:
    """Per span name: calls, busy time, self time (busy minus child spans), bytes."""
    child_ns = [0] * len(rows)
    for _, _, parent, _, start, end, _, _ in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, SpanStats] = {}
    for _, span_id, _, name, start, end, b_in, b_out in rows:
        s = stats.setdefault(name, SpanStats())
        s.calls += 1
        s.busy_ns += end - start
        s.self_ns += end - start - child_ns[span_id]
        s.bytes_in += b_in
        s.bytes_out += b_out
        s.durations_ns.append(end - start)
    return stats


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` inclusive method); 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(stats: dict[str, SpanStats], *, invocations: int,
                  replicates: int) -> dict[str, tuple]:
    """Per-layer metrics named in BENCHMARK.json; spans that never fired read 0.

    Busy and self times, calls, bytes and span counts are per traced
    invocation: every invocation of a workload does the same work, so
    counts repeat exactly however many invocations a run traced.
    """
    def get(name):
        return stats.get(name, SpanStats())

    per = 1.0 / invocations
    out: dict[str, tuple] = {}
    for name, fields in (
        ("model.mvn_sample", ("busy_s", "calls", "bytes_out")),
        ("pca.pca_subspace", ("busy_s", "calls", "bytes_in")),
        ("pca.center", ("busy_s", "bytes_in")),
        ("procrustes.normalize_projected", ("busy_s", "bytes_in")),
        ("procrustes.fit_error_sq", ("busy_s",)),
        ("grassmann.hausdorff_sq", ("busy_s",)),
        ("grassmann.weighted_hausdorff_sq", ("busy_s",)),
        ("grassmann.projector", ("calls",)),
        ("theory.rho", ("busy_s",)),
        ("theory.predicted_fit_error_sq", ("busy_s",)),
        ("theory.plugin_rho", ("busy_s",)),
        ("sim.run_replicate", ("calls", "self_s")),
        ("sim.run_experiment", ("busy_s",)),
        ("sim.summarize", ("busy_s",)),
        ("cli.main", ("busy_s", "self_s")),
        ("cli.write_records_csv", ("busy_s", "bytes_out")),
    ):
        s = get(name)
        values = {"busy_s": (s.busy_ns / 1e9, "s/inv"), "self_s": (s.self_ns / 1e9, "s/inv"),
                  "calls": (s.calls, "calls/inv"), "bytes_in": (s.bytes_in, "bytes/inv"),
                  "bytes_out": (s.bytes_out, "bytes/inv")}
        for field in fields:
            value, unit = values[field]
            out[f"{name}.{field}"] = (value * per, unit)
    rep = get("sim.run_replicate")
    ms = [d / 1e6 for d in rep.durations_ns]
    out["sim.run_replicate.ms_p50"] = (percentile(ms, 50), "ms")
    out["sim.run_replicate.ms_p90"] = (percentile(ms, 90), "ms")
    out["theory.rho.calls_per_replicate"] = (get("theory.rho").calls / max(replicates, 1),
                                             "calls/rep")
    child_ns = rep.busy_ns - rep.self_ns
    out["trace.replicate_covered_frac"] = (child_ns / rep.busy_ns if rep.busy_ns else 0.0,
                                           "ratio")
    for layer in LAYERS:
        self_ns = sum(s.self_ns for n, s in stats.items() if n.split(".", 1)[0] == layer)
        out[f"layer.{layer}.self_s"] = (self_ns / 1e9 * per, "s/inv")
    out["trace.spans"] = (sum(s.calls for s in stats.values()) * per, "spans/inv")
    return out
