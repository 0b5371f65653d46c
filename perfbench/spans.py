"""Spans around the public functions of each ``pdd`` module, recorded from outside.

The package binds functions across modules with ``from .x import y``, so a
wrapper must replace the function in every module namespace that holds it,
not only in the module that defines it (``pdd.inference.estimate_sharp``,
``pdd.cli.load_csv`` and so on). Nothing in ``src/pdd`` is edited.

A span is ``[name, start_ns, end_ns, parent, op, extra]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``op`` the operation id, and
``extra`` a small dict of counts taken from the call's arguments or result.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import tracemalloc
from typing import Any, Callable

#: The layers, one per module of ``src/pdd``.
LAYERS = ("kernels", "local_fit", "estimator", "inference", "simulate", "io", "cli")


def _sided_weights_counts(args, kwargs, result) -> dict[str, int]:
    rows = int(result.weights.shape[0])
    # computed, not measured: the float64 running variable read and the
    # float64 weight vector written, per row
    return {"rows_in": rows, "n_positive": int(result.n_positive), "bytes": 16 * rows}


def _load_counts(args, kwargs, result) -> dict[str, int]:
    return {"rows": int(result.n + result.dropped_rows)}


def _write_counts(args, kwargs, result) -> dict[str, int]:
    sample = args[0] if args else kwargs["sample"]
    return {"rows": int(sample.n)}


def _mc_counts(args, kwargs, result) -> dict[str, int]:
    return {"reps": int(result.reps), "reps_failed": int(result.n_failed)}


#: Counts recorded at a layer boundary, keyed by span name.
COUNTS: dict[str, Callable[[tuple, dict, Any], dict[str, int]]] = {
    "kernels.sided_weights": _sided_weights_counts,
    "io.load_csv": _load_counts,
    "io.write_csv": _write_counts,
    "simulate.monte_carlo": _mc_counts,
}


class Tracer:
    """Records one span per outermost call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op = -1
        self._stack: list[int] = []
        self._open: set[str] = set()

    def wrap(self, name: str, fn: Callable) -> Callable:
        counts = COUNTS.get(name)

        def traced(*args, **kwargs):
            if name in self._open:  # a recursive call belongs to its outermost span
                return fn(*args, **kwargs)
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._open.add(name)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._open.discard(name)
                self._stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        return traced


class PeakTracker:
    """Records the tracemalloc peak of each wrapped call.

    tracemalloc runs only inside the call, so the peak counts what the call
    itself allocated and the rest of the run pays no tracing cost.
    """

    def __init__(self) -> None:
        self.peaks: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        def tracked(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return tracked


def install(make_wrapper: Callable[[str, Callable], Callable], only=None) -> Callable[[], None]:
    """Wrap the public functions of every layer module; returns the undo.

    ``make_wrapper(name, fn)`` builds the wrapper of ``fn``, named
    ``<module>.<function>``. ``only`` restricts wrapping to those names.
    """
    wrappers: dict[Callable, Callable] = {}
    for layer in LAYERS:
        module = importlib.import_module(f"pdd.{layer}")
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and (only is None or name in only)
            ):
                wrappers[value] = make_wrapper(name, value)
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "pdd" and not mod_name.startswith("pdd."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                patched.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore


def totals(span_lists: list[list[list[Any]]], ops=None) -> dict[str, dict[str, float]]:
    """Calls, self time and summed counts per span name.

    Each list holds the spans of one recorder; ``parent`` indexes into the
    same list. Self time is a span's duration minus that of its direct
    children, which on one thread cover disjoint parts of it. ``ops``
    restricts the totals to those operation ids.
    """
    out: dict[str, dict[str, float]] = {}
    for spans in span_lists:
        child_ns = [0] * len(spans)
        for name, start, end, parent, _op, _extra in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _parent, op, extra) in enumerate(spans):
            if ops is not None and op not in ops:
                continue
            entry = out.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            for key, value in (extra or {}).items():
                entry[key] = entry.get(key, 0) + value
    return out


def per_layer_metrics(
    span_totals: dict[str, dict[str, float]],
    n_ops: int,
    import_ms: float,
    peak_bytes: int,
    overhead_pct: float,
) -> dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json`` from the span totals.

    A layer the workload never reaches reads 0.
    """

    def get(name: str, key: str) -> float:
        return float(span_totals.get(name, {}).get(key, 0))

    def calls(name: str) -> float:
        return get(name, "calls") / n_ops

    def self_ms(name: str) -> float:
        return get(name, "self_ns") / 1e6 / n_ops

    def us_per_row(name: str) -> float:
        rows = get(name, "rows")
        return get(name, "self_ns") / 1e3 / rows if rows else 0.0

    weighted = get("kernels.sided_weights", "rows_in")
    metrics = {
        "import.pdd_ms": import_ms,
        "cli.main.self_ms_per_op": self_ms("cli.main"),
        "cli.dumps.self_ms_per_op": self_ms("cli.dumps"),
        "io.load_csv.self_ms_per_op": self_ms("io.load_csv"),
        "io.load_csv.us_per_row": us_per_row("io.load_csv"),
        "io.write_csv.self_ms_per_op": self_ms("io.write_csv"),
        "io.write_csv.us_per_row": us_per_row("io.write_csv"),
        "kernels.sided_weights.rows_in_per_op": weighted / n_ops,
        "kernels.sided_weights.bytes_computed_per_op": (
            get("kernels.sided_weights", "bytes") / n_ops
        ),
        "kernels.useful_row_ratio": (
            get("kernels.sided_weights", "n_positive") / weighted if weighted else 0.0
        ),
        "inference.correction_matrix.self_ms_per_op": self_ms("inference.correction_matrix"),
        "inference.robust_variance.self_ms_per_op": self_ms("inference.robust_variance"),
        "inference.bias_corrected_estimate.self_ms_per_op": self_ms(
            "inference.bias_corrected_estimate"
        ),
        "inference.bias_corrected_estimate.peak_mb": peak_bytes / 2**20,
        "estimator.estimate_fuzzy.calls_per_op": calls("estimator.estimate_fuzzy"),
        "simulate.monte_carlo.self_ms_per_op": self_ms("simulate.monte_carlo"),
        "simulate.monte_carlo.reps_failed": get("simulate.monte_carlo", "reps_failed") / n_ops,
        "trace.overhead_pct": overhead_pct,
    }
    for name in (
        "kernels.sided_weights",
        "kernels.scaled_basis",
        "local_fit.local_poly_fit",
        "local_fit.local_iv_fit",
        "estimator.estimate_sharp",
        "inference.side_correction",
        "simulate.simulate",
    ):
        metrics[f"{name}.calls_per_op"] = calls(name)
        metrics[f"{name}.self_ms_per_op"] = self_ms(name)
    return metrics
