"""Benchmark of pdd: one workload per run, every output checked.

    python3 perfbench/run.py --workload {cli-200k,fit-1m,mc-5k} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout that holds ``src/pdd``; the working tree's package is
used through ``PYTHONPATH``, never an installed one. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the run's details go to
``perfbench/out/<workload>-seed<N>-trace<T>/result.json``.

Exit codes: 0 with a result, 1 when the inputs could not be made, 2 for bad
arguments or missing package sources.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import spans

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Fresh interpreters timed for ``import.pdd_ms``.
IMPORT_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "rows_per_s": "rows/s", "op_ms_p50": "ms", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "import.pdd_ms": "ms",
    "kernels.sided_weights.rows_in_per_op": "rows/op",
    "kernels.sided_weights.bytes_computed_per_op": "B/op",
    "kernels.useful_row_ratio": "ratio",
    "io.load_csv.us_per_row": "us/row",
    "io.write_csv.us_per_row": "us/row",
    "inference.bias_corrected_estimate.peak_mb": "MB",
    "simulate.monte_carlo.reps_failed": "reps/op",
    "trace.overhead_pct": "%",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "calls/op" if name.endswith(".calls_per_op") else "ms/op"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cli-200k", "fit-1m", "mc-5k"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seed >= 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def check_all(workload, ops: list[harness.Op]) -> None:
    """Check every operation that returned; a check that raises is a failed check."""
    try:
        workload.prepare_checks(ops)
    except Exception as exc:  # no reference means no operation can pass
        for op in ops:
            op.problem = f"references could not be built: {type(exc).__name__}: {exc}"
        return
    for op in ops:
        if op.error:
            continue
        try:
            op.problem = workload.check(op) or ""
        except Exception as exc:
            op.problem = f"check raised {type(exc).__name__}: {exc}"


def op_ms_p50(ops: list[harness.Op], cycle: tuple[str, ...]) -> float:
    """Median over the run's cycles of the mean operation time within a cycle.

    A median pooled over operations of very different cost would sit on the
    boundary between two kinds and jump with either; a cycle holds one
    operation of each kind, so its mean weighs every kind alike.
    """
    k = len(cycle)
    return statistics.median(
        statistics.fmean(op.wall_s for op in ops[i : i + k]) for i in range(0, len(ops), k)
    ) * 1e3


def untraced_run(workload, seconds: float) -> tuple[list[harness.Op], dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    ops = harness.closed_loop(workload.cycle, seconds, workload.run)
    peak_rss_mb = workload.peak_rss_mb(ops)
    checked = workload.warmups + ops
    check_all(workload, checked)
    wall = sum(op.wall_s for op in ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "rows_per_s": sum(op.rows for op in ops) / wall,
        "op_ms_p50": op_ms_p50(ops, workload.cycle),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "setup_s_each": setups,
        "timed_ops": len(ops),
        "timed_wall_s": wall,
        "op_ms_p50_by_kind": _by_kind(ops),
        "op_ms_each": [round(op.wall_s * 1e3, 3) for op in ops],
    }
    if hasattr(workload, "reps"):
        extra["reps_per_s"] = len(ops) * workload.reps / wall
    return checked, metrics, extra


def traced_run(workload, seconds: float) -> tuple[list[harness.Op], dict, dict]:
    workload.setup()
    plain = harness.closed_loop(workload.cycle, seconds / 2.0, workload.run)
    traced, span_lists = workload.traced_phase(seconds / 2.0)
    memory_ops, peaks = workload.memory_pass()
    import_ms = statistics.median(_import_ms() for _ in range(IMPORT_REPEATS))
    checked = workload.warmups + plain + traced + memory_ops
    check_all(workload, checked)
    untraced_ms = op_ms_p50(plain, workload.cycle)
    traced_ms = op_ms_p50(traced, workload.cycle)
    (workload.out_dir / "spans.json").write_text(json.dumps(span_lists))
    totals = spans.totals(span_lists)
    metrics = spans.per_layer_metrics(
        totals, len(traced), import_ms, max(peaks, default=0), (traced_ms / untraced_ms - 1) * 100
    )
    extra = {
        "untraced_ops": len(plain),
        "traced_ops": len(traced),
        "op_ms_p50_untraced": untraced_ms,
        "op_ms_p50_traced": traced_ms,
        "op_ms_p50_by_kind_traced": _by_kind(traced),
        "span_totals": totals,
        "calls_per_op_by_kind": _calls_by_kind(span_lists, traced),
    }
    return checked, metrics, extra


def _import_ms() -> float:
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "child.py"), "--import"],
        env=harness.child_env(),
        capture_output=True,
        text=True,
        timeout=harness.CHILD_TIMEOUT_S,
        check=True,
    )
    return float(result.stdout)


def _calls_by_kind(span_lists, ops: list[harness.Op]) -> dict[str, dict[str, float]]:
    """Calls per operation of each kind; the seed-code call counts show here."""
    out = {}
    for kind in dict.fromkeys(op.kind for op in ops):
        ids = {i for i, op in enumerate(ops) if op.kind == kind}
        kind_totals = spans.totals(span_lists, ids)
        out[kind] = {name: t["calls"] / len(ids) for name, t in sorted(kind_totals.items())}
    return out


def _by_kind(ops: list[harness.Op]) -> dict[str, float]:
    """Median milliseconds of each kind of operation."""
    kinds = dict.fromkeys(op.kind for op in ops)
    return {k: statistics.median(op.wall_s for op in ops if op.kind == k) * 1e3 for k in kinds}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (harness.SRC / "pdd" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {harness.SRC / 'pdd'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.SRC))
    import workloads

    if Path(workloads.pdd.__file__).resolve().parent != (harness.SRC / "pdd").resolve():
        print(f"perfbench: imported pdd from {workloads.pdd.__file__}, not src/", file=sys.stderr)
        return 2

    out_dir = harness.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    try:
        ops, values, extra = (traced_run if args.trace else untraced_run)(workload, args.seconds)
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    unit = per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in values.items()}
    failed = sum(op.failed for op in ops)
    problems = [f"{op.kind}: {op.error or op.problem}" for op in ops if op.failed]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": harness.environment(),
        "sizes": workload.sizes(),
        "metrics": metrics,
        **extra,
        "attempted": len(ops),
        "failed": failed,
        "fail_ratio": failed / len(ops),
        "problems": problems,
    }
    (out_dir / "result.json").write_text(json.dumps(details, indent=1, default=str) + "\n")

    for name, metric in metrics.items():
        print(f"{name:<48} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'fail_ratio':<48} {failed / len(ops):>16.6g} ({failed} of {len(ops)} operations)")
    if "reps_per_s" in extra:
        print(f"{'reps_per_s':<48} {extra['reps_per_s']:>16.6g} reps/s")
    for problem in problems[:5]:
        print(f"FAILED {problem}")
    print(json.dumps({"environment": details["environment"], "sizes": details["sizes"]}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
