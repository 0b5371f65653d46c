"""Command-line surface: estimate, rdd, simulate, and mc subcommands.

The CLI is a thin shell over the library: every number in the JSON output is
the library value serialised with 17 significant digits, enough to round-trip
a double exactly. ``rdd`` runs the ``estimate`` path on a sample without
placebo columns. Exit codes: 0 when a result document was produced, 2 for
estimation failures, 3 for I/O failures and for running out of memory, 64
for bad flags or bad flag values, and for a scenario whose finite fields
overflow a drawn column: ``simulate`` then writes no file, and ``mc`` says
so where every replication failed.
A bad level, bandwidth or variance mode exits 64 before the data are read,
except a bias bandwidth below a tenth of the rule-of-thumb h, which needs
the data.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from dataclasses import fields
from typing import IO, Any, NoReturn

import numpy as np

from .errors import (
    EmptyAfterFiltering,
    MissingColumn,
    NonFiniteResult,
    ParseError,
    PddError,
)
from .estimator import estimate_fuzzy
from .inference import bias_corrected_estimate, rule_of_thumb_bandwidth
from .io import (
    DESIGNS,
    ColumnBindings,
    RunConfig,
    Sample,
    load_csv,
    parse_config_file,
    write_csv,
)
from .kernels import KERNEL_KINDS, KernelSpec
from .simulate import DGP_DESIGNS, FIELD_CASTERS, DgpSpec, monte_carlo, simulate
from .simulate import _require_finite_draw

#: Schur-complement reciprocal condition below this draws a warning (the hard
#: failure threshold is two orders of magnitude lower).
WEAK_INSTRUMENT_WARN = 1e-6

#: Kish effective sample size ``(sum w)^2 / sum w^2`` of a side's kernel
#: weights at h below which a warning is emitted.
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


def _bandwidths(config: RunConfig, sample: Sample, warnings: list[str]) -> tuple[float, float]:
    """The run's ``(h, b)``: ``h`` falls back to the rule of thumb, with a
    warning, and ``b`` to ``h``.
    """
    h = config.h
    if h is None:
        h = rule_of_thumb_bandwidth(sample.d)
        warnings.append(f"no bandwidth given; using rule of thumb h={h:.6g}")
    return h, config.b if config.b is not None else h


def run_estimate(config: RunConfig, sample: Sample) -> dict[str, Any]:
    """Run an estimation and assemble the result document.

    A sample without placebo columns, which ``rdd`` loads, gives the plain
    robust discontinuity of the outcome: design ``rdd``, no ``tau_rdd_w``,
    ``gamma_minus`` or ``gamma_plus``, and no weak-proxy warnings.

    A sample short of running-variable values on a side fails with
    ``Sample.require_sides``'s error before any other. The check runs only
    once the run has failed: a run that returns has passed each side's
    quadratic support test at ``b``, 3 distinct values on ``d < cutoff`` and
    on ``d >= cutoff``, so at least 2 strictly on each side.
    """
    try:
        return _estimate_document(config, sample)
    except Exception:
        sample.require_sides(config.cutoff)
        raise


def _estimate_document(config: RunConfig, sample: Sample) -> dict[str, Any]:
    warnings: list[str] = []
    kernel = KernelSpec(config.kernel)
    h, b = _bandwidths(config, sample, warnings)
    fuzzy = config.design == "fuzzy"
    if fuzzy and sample.a is None:
        raise ValueError("fuzzy design requires a treatment column binding")

    # the robust fit runs first: it rejects a b below a tenth of the
    # rule-of-thumb h before any fit
    robust = bias_corrected_estimate(sample, config.cutoff, h, b, kernel, config.alpha)
    point = estimate_fuzzy(sample, config.cutoff, h, kernel) if fuzzy else robust.point

    for side, rcond, kish in (
        ("left", None if point is None else point.schur_rcond_left, robust.kish_left),
        ("right", None if point is None else point.schur_rcond_right, robust.kish_right),
    ):
        if rcond is not None and rcond < WEAK_INSTRUMENT_WARN:
            warnings.append(
                f"weak placebo proxy on the {side} side (Schur rcond={rcond:.3e})"
            )
        if kish < SMALL_SIDE_WARN:
            warnings.append(f"only {kish:.1f} effective observations on the {side} side")

    doc: dict[str, Any] = {}
    if fuzzy:
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
    if point is None:
        doc["tau_rdd_y"] = robust.tau_pdd
    else:
        doc["tau_rdd_y"] = point.tau_rdd_y
        doc["tau_rdd_w"] = list(point.tau_rdd_w)
        doc["gamma_minus"] = list(point.gamma_minus)
        doc["gamma_plus"] = list(point.gamma_plus)
    doc["h"] = h
    doc["b"] = b
    doc["kernel"] = config.kernel
    doc["n_left"] = robust.n_left
    doc["n_right"] = robust.n_right
    doc["design"] = "rdd" if point is None else config.design
    if fuzzy:
        doc["first_stage"] = point.tau_rdd_a
    doc["warnings"] = warnings
    doc["dropped_rows"] = sample.dropped_rows
    return doc


def _given(**values: Any) -> dict[str, Any]:
    """The options somebody set; the rest fall through to library defaults."""
    return {key: value for key, value in values.items() if value is not None}


def _split_names(raw: str | None) -> tuple[str, ...]:
    return tuple(name.strip() for name in (raw or "").split(",") if name.strip())


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The settings of an ``estimate`` or ``rdd`` run. ``rdd`` has no
    treatment, placebo or design flags, so it binds only ``d`` and ``y``.
    """
    if args.cutoff is None:
        raise _Usage("--cutoff is required")
    placebo_w = _split_names(getattr(args, "placebo_outcomes", None))
    placebo_z = _split_names(getattr(args, "placebo_treatments", None))
    if args.command == "estimate" and (not placebo_w or not placebo_z):
        raise _Usage("--placebo-outcomes and --placebo-treatments are required")
    if len(placebo_w) != len(placebo_z):
        raise _Usage("placebo outcome and treatment lists must have equal length")
    design = getattr(args, "design", None)
    bindings = ColumnBindings(
        **_given(running=args.running, outcome=args.outcome),
        # only the fuzzy design reads the treatment column
        treatment=(args.treatment or "a") if design == "fuzzy" else None,
        placebo_outcomes=placebo_w,
        placebo_treatments=placebo_z,
    )
    return RunConfig(
        cutoff=args.cutoff,
        h=args.bandwidth,
        b=args.bias_bandwidth,
        bindings=bindings,
        **_given(kernel=args.kernel, alpha=args.alpha, design=design),
    )


def _dgp_spec(args: argparse.Namespace) -> DgpSpec:
    return DgpSpec(**_given(**{f.name: getattr(args, f.name) for f in fields(DgpSpec)}))


def _open_out(path: str | None) -> tuple[IO[str], bool]:
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _load_sample(data: str | None, bindings: ColumnBindings) -> Sample:
    if data is None:
        raise _Usage("--data is required")
    if data == "-":
        return load_csv(sys.stdin, bindings)
    return load_csv(data, bindings)


def _add_estimate_flags(sub: argparse.ArgumentParser, placebo_adjusted: bool) -> None:
    sub.add_argument("--data", help="input CSV ('-' for stdin)")
    sub.add_argument("--cutoff", type=float, help="cutoff of the running variable")
    sub.add_argument("--running", help="running-variable column (default d)")
    sub.add_argument("--outcome", help="outcome column (default y)")
    if placebo_adjusted:
        sub.add_argument("--treatment", help="treatment column (fuzzy designs)")
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
    # the one variance there is: the residual about each side's
    # bias-corrected intercept (inference.robust_variance)
    sub.add_argument("--variance-mode", dest="variance_mode", choices=("paper",))


def _add_dgp_flags(sub: argparse.ArgumentParser) -> None:
    for f in fields(DgpSpec):
        flag = "--" + f.name.replace("_", "-")
        choices = DGP_DESIGNS if f.name == "design" else None
        sub.add_argument(flag, dest=f.name, type=FIELD_CASTERS[f.type], choices=choices)
    sub.add_argument("--config", help="flat key=value file; flags override it")
    sub.add_argument("--out", help="write the output here instead of stdout")
    sub.set_defaults(n=1000, seed=0)


def _make_parser() -> _Parser:
    parser = _Parser(prog="pdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="placebo-adjusted discontinuity estimate")
    _add_estimate_flags(est, placebo_adjusted=True)
    est.add_argument("--design", choices=DESIGNS)

    rdd = sub.add_parser("rdd", help="plain local linear discontinuity")
    _add_estimate_flags(rdd, placebo_adjusted=False)

    sim = sub.add_parser("simulate", help="emit a simulated CSV sample")
    _add_dgp_flags(sim)

    mc = sub.add_parser("mc", help="Monte Carlo report for a simulated scenario")
    _add_dgp_flags(mc)
    mc.add_argument("--reps", type=int, help="number of replications")
    _add_fit_flags(mc)
    return parser


def _parse(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    """Parse ``argv``, reading each ``key = value`` line of a ``--config``
    file as the flag ``--key=value`` placed before the command line's own
    flags: file values get the same types, choices and errors as flags, and
    a flag given on the command line wins. A key must be the dest of one of
    the subcommand's own flags, spelt out in full.
    """
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    from_file = parse_config_file(args.config)
    unknown = set(from_file) - (set(vars(args)) - {"command", "config"})
    if unknown:
        raise _Usage(f"unknown config keys: {sorted(unknown)}")
    # the top-level parser has no option that takes a value, so the first
    # occurrence of the command's name is the command
    at = argv.index(args.command) + 1
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in from_file.items()]
    return parser.parse_args(argv[:at] + flags + argv[at:])


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
    if args.command in ("estimate", "rdd"):
        config = _run_config(args)
        sample = _load_sample(args.data, config.bindings)
        _emit(dumps(run_estimate(config, sample)), args.out)
        return 0
    if args.command == "simulate":
        sample = simulate(_dgp_spec(args))
        _require_finite_draw(sample)
        out, close = _open_out(args.out)
        try:
            write_csv(sample, out)
        finally:
            if close:
                out.close()
        return 0
    if args.command == "mc":
        if args.reps is None:
            raise _Usage("--reps is required")
        spec = _dgp_spec(args)
        report = monte_carlo(
            spec,
            reps=args.reps,
            base_seed=spec.seed,
            kernel=KernelSpec(args.kernel) if args.kernel else None,
            h=args.bandwidth,
            b=args.bias_bandwidth,
            **_given(alpha=args.alpha),
        )
        _emit(dumps(report.to_mapping()), args.out)
        return 0
    raise _Usage(f"unknown command {args.command!r}")  # pragma: no cover


def entry() -> NoReturn:
    """The ``pdd`` command, as ``python -m pdd`` and the console script run
    it: ``main()``, then exit with its code.

    By then every file the run opened is closed and every worker process
    reaped, so ``gc.freeze`` moves all objects left, mostly the imports',
    out of the collector's reach, and the interpreter exits without its
    final collection over them (about 10 ms on 2 vCPUs). ``main`` does not
    freeze: in-process callers keep collecting.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(_make_parser(), argv)
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
    except (OSError, MemoryError) as exc:
        code = "memory_error" if isinstance(exc, MemoryError) else "io_error"
        print(dumps({"error": code, "detail": str(exc)}))
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
    entry()
