"""Command-line surface: estimate, rdd, simulate, and mc subcommands.

The CLI is a thin shell over the library: every number in the JSON output is
the library value serialised with 17 significant digits, enough to round-trip
a double exactly. Exit codes: 0 when a result document was produced, 2 for
estimation failures, 3 for I/O failures, 64 for bad flags or bad flag values.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields, replace
from typing import IO, Any

import numpy as np

from .errors import (
    EmptyAfterFiltering,
    MissingColumn,
    NonFiniteResult,
    ParseError,
    PddError,
)
from .estimator import estimate_fuzzy
from .inference import (
    bias_corrected_estimate,
    rdd_robust_estimate,
    rule_of_thumb_bandwidth,
)
from .io import (
    DESIGNS,
    VARIANCE_MODES,
    ColumnBindings,
    RunConfig,
    Sample,
    load_csv,
    parse_config_file,
    write_csv,
)
from .kernels import KERNEL_KINDS, KernelSpec
from .simulate import DGP_DESIGNS, FIELD_CASTERS, DgpSpec, monte_carlo, simulate

#: Schur-complement reciprocal condition below this draws a warning (the hard
#: failure threshold is two orders of magnitude lower).
WEAK_INSTRUMENT_WARN = 1e-6

#: Effective per-side sample size below which a warning is emitted.
SMALL_SIDE_WARN = 30


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _Usage(message)


def format_number(value: Any) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not math.isfinite(v):
        raise NonFiniteResult("non-finite number in JSON output")
    return format(v, ".17g")


def dumps(obj: Any) -> str:
    """Serialise to JSON with floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return format_number(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def run_estimate(config: RunConfig, sample: Sample) -> dict[str, Any]:
    """Run a placebo-adjusted estimation and assemble the result document."""
    if sample.q < 1:
        raise ValueError(
            "placebo outcome and treatment columns are required; "
            "use the 'rdd' subcommand for a plain discontinuity"
        )
    sample.require_sides(config.cutoff)
    warnings: list[str] = []
    kernel = KernelSpec(config.kernel)
    h = config.h
    if h is None:
        h = rule_of_thumb_bandwidth(sample.d)
        warnings.append(f"no bandwidth given; using rule of thumb h={h:.6g}")
    b = config.b if config.b is not None else h

    if config.design == "fuzzy":
        if sample.a is None:
            raise ValueError("fuzzy design requires a treatment column binding")
        point = estimate_fuzzy(sample, config.cutoff, h, kernel)
    else:
        point = None

    robust = bias_corrected_estimate(
        sample, config.cutoff, h, b, kernel, config.alpha, config.variance_mode
    )
    sharp_point = robust.point
    if point is None:
        point = sharp_point

    for side, rcond, n_side in (
        ("left", point.schur_rcond_left, point.n_left),
        ("right", point.schur_rcond_right, point.n_right),
    ):
        if rcond < WEAK_INSTRUMENT_WARN:
            warnings.append(
                f"weak placebo proxy on the {side} side (Schur rcond={rcond:.3e})"
            )
        if n_side < SMALL_SIDE_WARN:
            warnings.append(f"only {n_side} effective observations on the {side} side")

    doc: dict[str, Any] = {}
    if config.design == "fuzzy":
        doc["estimate"] = point.fuzzy_estimate
        doc["estimate_bc"] = robust.tau_pdd_bc / point.tau_rdd_a
        doc["se"] = None
        doc["ci_lower"] = None
        doc["ci_upper"] = None
        warnings.append(
            "no variance is available for the fuzzy ratio; se and interval are null"
        )
    else:
        doc["estimate"] = robust.tau_pdd
        doc["estimate_bc"] = robust.tau_pdd_bc
        doc["se"] = robust.se
        doc["ci_lower"] = robust.ci_lower
        doc["ci_upper"] = robust.ci_upper
        if robust.degenerate_ci:
            warnings.append("zero estimated variance; the interval is degenerate")
    doc["alpha"] = config.alpha
    doc["tau_rdd_y"] = point.tau_rdd_y
    doc["tau_rdd_w"] = list(point.tau_rdd_w)
    doc["gamma_minus"] = list(point.gamma_minus)
    doc["gamma_plus"] = list(point.gamma_plus)
    doc["h"] = h
    doc["b"] = b
    doc["kernel"] = config.kernel
    doc["n_left"] = point.n_left
    doc["n_right"] = point.n_right
    doc["design"] = config.design
    if config.design == "fuzzy":
        doc["first_stage"] = point.tau_rdd_a
    doc["warnings"] = warnings
    doc["dropped_rows"] = sample.dropped_rows
    return doc


def run_rdd(config: RunConfig, sample: Sample) -> dict[str, Any]:
    """Plain local linear discontinuity with robust bias correction."""
    sample.require_sides(config.cutoff)
    warnings: list[str] = []
    kernel = KernelSpec(config.kernel)
    h = config.h
    if h is None:
        h = rule_of_thumb_bandwidth(sample.d)
        warnings.append(f"no bandwidth given; using rule of thumb h={h:.6g}")
    b = config.b if config.b is not None else h
    robust = rdd_robust_estimate(
        sample.d, sample.y, config.cutoff, h, b, kernel, config.alpha, config.variance_mode
    )
    for side, n_side in (("left", robust.n_left), ("right", robust.n_right)):
        if n_side < SMALL_SIDE_WARN:
            warnings.append(f"only {n_side} effective observations on the {side} side")
    if robust.degenerate_ci:
        warnings.append("zero estimated variance; the interval is degenerate")
    return {
        "estimate": robust.tau_pdd,
        "estimate_bc": robust.tau_pdd_bc,
        "se": robust.se,
        "ci_lower": robust.ci_lower,
        "ci_upper": robust.ci_upper,
        "alpha": config.alpha,
        "tau_rdd_y": robust.tau_pdd,
        "h": h,
        "b": b,
        "kernel": config.kernel,
        "n_left": robust.n_left,
        "n_right": robust.n_right,
        "design": "rdd",
        "warnings": warnings,
        "dropped_rows": sample.dropped_rows,
    }


_ESTIMATE_DEFAULTS: dict[str, Any] = {
    "cutoff": None,
    "running": "d",
    "outcome": "y",
    "treatment": None,
    "placebo_outcomes": None,
    "placebo_treatments": None,
    "kernel": "triangle",
    "bandwidth": None,
    "bias_bandwidth": None,
    "alpha": 0.05,
    "design": "sharp",
    "variance_mode": "paper",
    "data": None,
    "out": None,
}

#: Every scenario field not given falls through to ``DgpSpec``'s default.
_SIM_DEFAULTS: dict[str, Any] = {
    **{f.name: None for f in fields(DgpSpec)},
    "n": 1000,
    "seed": 0,
    "out": None,
}

_MC_DEFAULTS: dict[str, Any] = {
    **_SIM_DEFAULTS,
    **{
        key: _ESTIMATE_DEFAULTS[key]
        for key in ("kernel", "bandwidth", "bias_bandwidth", "alpha", "variance_mode")
    },
    "reps": None,
}


def _merged(args: argparse.Namespace, defaults: dict[str, Any]) -> dict[str, Any]:
    """Resolve option values: explicit flag, then config file, then default."""
    from_file: dict[str, str] = {}
    if getattr(args, "config", None):
        from_file = parse_config_file(args.config)
    out: dict[str, Any] = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            out[key] = flag_value
        elif key in from_file:
            out[key] = from_file[key]
        else:
            out[key] = default
    unknown = set(from_file) - set(defaults)
    if unknown:
        raise _Usage(f"unknown config keys: {sorted(unknown)}")
    return out


def _split_names(raw: Any) -> tuple[str, ...]:
    if raw is None:
        return ()
    if isinstance(raw, (list, tuple)):
        return tuple(raw)
    return tuple(name.strip() for name in str(raw).split(",") if name.strip())


def _build_run_config(values: dict[str, Any], need_placebo: bool) -> RunConfig:
    if values["cutoff"] is None:
        raise _Usage("--cutoff is required")
    placebo_w = _split_names(values["placebo_outcomes"])
    placebo_z = _split_names(values["placebo_treatments"])
    if need_placebo and (not placebo_w or not placebo_z):
        raise _Usage("--placebo-outcomes and --placebo-treatments are required")
    if len(placebo_w) != len(placebo_z):
        raise _Usage("placebo outcome and treatment lists must have equal length")
    bindings = ColumnBindings(
        running=str(values["running"]),
        outcome=str(values["outcome"]),
        treatment=str(values["treatment"]) if values["treatment"] else None,
        placebo_outcomes=placebo_w,
        placebo_treatments=placebo_z,
    )
    return RunConfig(
        cutoff=float(values["cutoff"]),
        kernel=str(values["kernel"]),
        h=float(values["bandwidth"]) if values["bandwidth"] is not None else None,
        b=float(values["bias_bandwidth"]) if values["bias_bandwidth"] is not None else None,
        alpha=float(values["alpha"]),
        design=str(values["design"]),
        variance_mode=str(values["variance_mode"]),
        bindings=bindings,
    )


def _build_dgp_spec(values: dict[str, Any]) -> DgpSpec:
    names = (f.name for f in fields(DgpSpec))
    return DgpSpec.from_mapping({k: values[k] for k in names if values.get(k) is not None})


def _open_out(path: str | None) -> tuple[IO[str], bool]:
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _load_sample(values: dict[str, Any], bindings: ColumnBindings) -> Sample:
    data = values["data"]
    if data is None:
        raise _Usage("--data is required")
    if data == "-":
        return load_csv(sys.stdin, bindings)
    return load_csv(str(data), bindings)


def _add_estimate_flags(sub: argparse.ArgumentParser, with_placebo: bool) -> None:
    sub.add_argument("--data", help="input CSV ('-' for stdin)")
    sub.add_argument("--cutoff", type=float, help="cutoff of the running variable")
    sub.add_argument("--running", help="running-variable column (default d)")
    sub.add_argument("--outcome", help="outcome column (default y)")
    sub.add_argument("--treatment", help="treatment column (fuzzy designs)")
    if with_placebo:
        sub.add_argument(
            "--placebo-outcomes", dest="placebo_outcomes", help="comma list of columns"
        )
        sub.add_argument(
            "--placebo-treatments", dest="placebo_treatments", help="comma list of columns"
        )
    _add_fit_flags(sub)
    sub.add_argument("--config", help="flat key=value file; flags override it")
    sub.add_argument("--out", help="write the result here instead of stdout")


def _add_fit_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kernel", choices=KERNEL_KINDS)
    sub.add_argument("--bandwidth", type=float, help="main bandwidth h")
    sub.add_argument("--bias-bandwidth", dest="bias_bandwidth", type=float, help="bias bandwidth b")
    sub.add_argument("--alpha", type=float, help="interval level (default 0.05)")
    sub.add_argument("--variance-mode", dest="variance_mode", choices=VARIANCE_MODES)


def _add_dgp_flags(sub: argparse.ArgumentParser) -> None:
    for f in fields(DgpSpec):
        flag = "--" + f.name.replace("_", "-")
        choices = DGP_DESIGNS if f.name == "design" else None
        sub.add_argument(flag, dest=f.name, type=FIELD_CASTERS[f.type], choices=choices)
    sub.add_argument("--config", help="flat key=value file; flags override it")
    sub.add_argument("--out", help="write the output here instead of stdout")


def _make_parser() -> _Parser:
    parser = _Parser(prog="pdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="placebo-adjusted discontinuity estimate")
    _add_estimate_flags(est, with_placebo=True)
    est.add_argument("--design", choices=DESIGNS)

    rdd = sub.add_parser("rdd", help="plain local linear discontinuity")
    _add_estimate_flags(rdd, with_placebo=False)

    sim = sub.add_parser("simulate", help="emit a simulated CSV sample")
    _add_dgp_flags(sim)

    mc = sub.add_parser("mc", help="Monte Carlo report for a simulated scenario")
    _add_dgp_flags(mc)
    mc.add_argument("--reps", type=int, help="number of replications")
    _add_fit_flags(mc)
    return parser


def _emit(text: str, out_path: str | None) -> None:
    out, close = _open_out(out_path)
    try:
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")
    finally:
        if close:
            out.close()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "estimate":
        values = _merged(args, _ESTIMATE_DEFAULTS)
        config = _build_run_config(values, need_placebo=True)
        if config.design == "fuzzy" and config.bindings.treatment is None:
            config = replace(config, bindings=replace(config.bindings, treatment="a"))
        sample = _load_sample(values, config.bindings)
        _emit(dumps(run_estimate(config, sample)), values["out"])
        return 0
    if args.command == "rdd":
        values = _merged(args, _ESTIMATE_DEFAULTS)
        values["placebo_outcomes"] = values["placebo_treatments"] = None
        values["design"] = "sharp"
        config = _build_run_config(values, need_placebo=False)
        sample = _load_sample(values, config.bindings)
        _emit(dumps(run_rdd(config, sample)), values["out"])
        return 0
    if args.command == "simulate":
        values = _merged(args, _SIM_DEFAULTS)
        spec = _build_dgp_spec(values)
        sample = simulate(spec)
        out, close = _open_out(values["out"])
        try:
            write_csv(sample, out)
        finally:
            if close:
                out.close()
        return 0
    if args.command == "mc":
        values = _merged(args, _MC_DEFAULTS)
        if values["reps"] is None:
            raise _Usage("--reps is required")
        spec = _build_dgp_spec(values)
        report = monte_carlo(
            spec,
            reps=int(values["reps"]),
            base_seed=spec.seed,
            kernel=KernelSpec(str(values["kernel"])),
            h=float(values["bandwidth"]) if values["bandwidth"] is not None else None,
            b=float(values["bias_bandwidth"]) if values["bias_bandwidth"] is not None else None,
            alpha=float(values["alpha"]),
            variance_mode=str(values["variance_mode"]),
        )
        _emit(dumps(report.to_mapping()), values["out"])
        return 0
    raise _Usage(f"unknown command {args.command!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.

    If stdout is closed early (``pdd simulate | head``), the run stops with
    exit code 3 and writes nothing more: stdout is pointed at the null
    device so that the interpreter's final flush cannot fail again.
    """
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


def _run(argv: list[str] | None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print(f"pdd: {exc}", file=sys.stderr)
        return 64
    try:
        # every non-finite result already fails closed with exit 2 and one
        # JSON document, so numpy's floating-point warnings add nothing
        with np.errstate(all="ignore"):
            return _dispatch(args)
    except _Usage as exc:
        print(f"pdd: {exc}", file=sys.stderr)
        return 64
    except (MissingColumn, ParseError, EmptyAfterFiltering) as exc:
        print(dumps({"error": _error_code(exc), "detail": str(exc)}))
        return 3
    except OSError as exc:
        print(dumps({"error": "io_error", "detail": str(exc)}))
        return 3
    except PddError as exc:
        print(dumps({"error": _error_code(exc), "detail": str(exc)}))
        return 2
    except ValueError as exc:
        print(f"pdd: {exc}", file=sys.stderr)
        return 64


def _error_code(exc: Exception) -> str:
    name = type(exc).__name__
    out = [name[0].lower()]
    for ch in name[1:]:
        if ch.isupper():
            out.append("_")
            out.append(ch.lower())
        else:
            out.append(ch)
    return "".join(out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
