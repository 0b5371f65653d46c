"""The workloads. Each makes its inputs from the seed during setup, runs its
operations in a closed loop, and checks every output afterwards, outside the
timed region.

* ``cli-200k``: ``python -m pdd`` processes on one 200k-row CSV; the only
  workload that reaches ``import pdd``, ``cli`` and ``io``.
* ``fit-1m``: library calls on one 1M-row sample; nearly all time in
  ``kernels``, ``local_fit``, ``estimator`` and ``inference``.
* ``mc-5k``: Monte Carlo studies of 5k-row samples; thousands of small
  problems, so per-call overhead dominates.
"""

from __future__ import annotations

import json
import math
import resource
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any

import numpy as np

import harness
import oracle
import pdd
import spans
from harness import Op, SetupError

CHILD = Path(__file__).resolve().parent / "child.py"

#: Every workload is the manipulated scenario of the paper's simulations.
KAPPA = 4.0

TRIANGLE = pdd.KernelSpec("triangle")


class Workload:
    """Setup, operations and checks of one workload; in-process by default."""

    name: str
    cycle: tuple[str, ...]

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.warmups: list[Op] = []

    def setup(self) -> None:
        """Make the inputs, fill the bytecode cache and run one warm-up operation."""
        raise NotImplementedError

    def run(self, kind: str) -> Op:
        raise NotImplementedError

    def prepare_checks(self, ops: list[Op]) -> None:
        """Build the references the checks compare against."""

    def check(self, op: Op) -> str | None:
        raise NotImplementedError

    def sizes(self) -> dict[str, Any]:
        raise NotImplementedError

    def peak_rss_mb(self, ops: list[Op]) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def traced_phase(self, seconds: float) -> tuple[list[Op], list[list[list[Any]]]]:
        tracer = spans.Tracer()

        def run(kind: str) -> Op:
            tracer.op += 1
            return self.run(kind)

        restore = spans.install(tracer.wrap)
        try:
            ops = harness.closed_loop(self.cycle, seconds, run)
        finally:
            restore()
        return ops, [tracer.spans]

    def memory_pass(self) -> tuple[list[Op], list[int]]:
        """One operation of each kind with the peak of ``bias_corrected_estimate`` tracked."""
        tracker = spans.PeakTracker()
        restore = spans.install(tracker.wrap, only={"inference.bias_corrected_estimate"})
        try:
            ops = [self.run(kind) for kind in dict.fromkeys(self.cycle)]
        finally:
            restore()
        return ops, tracker.peaks


def _interval(robust) -> dict[str, float]:
    return {
        "estimate": robust.tau_pdd,
        "estimate_bc": robust.tau_pdd_bc,
        "se": robust.se,
        "ci_lower": robust.ci_lower,
        "ci_upper": robust.ci_upper,
    }


def cli_references(sample: pdd.Sample) -> dict[str, dict[str, Any]]:
    """What each CLI command must print, from the library run in process."""
    h = pdd.rule_of_thumb_bandwidth(sample.d)
    robust = pdd.bias_corrected_estimate(sample, 0.0, h, h, TRIANGLE)
    point = robust.point
    fuzzy = pdd.estimate_fuzzy(sample, 0.0, h, TRIANGLE)
    plain = pdd.rdd_robust_estimate(sample.d, sample.y, 0.0, h, h, TRIANGLE)
    shared = {
        "tau_rdd_y": point.tau_rdd_y,
        "tau_rdd_w": point.tau_rdd_w.tolist(),
        "gamma_minus": point.gamma_minus.tolist(),
        "gamma_plus": point.gamma_plus.tolist(),
        "h": h,
        "b": h,
        "n_left": int(point.n_left),
        "n_right": int(point.n_right),
    }
    return {
        "estimate": {**_interval(robust), **shared, "design": "sharp"},
        "fuzzy": {
            **shared,
            "estimate": fuzzy.fuzzy_estimate,
            "estimate_bc": robust.tau_pdd_bc / fuzzy.tau_rdd_a,
            "first_stage": fuzzy.tau_rdd_a,
            "design": "fuzzy",
        },
        "rdd": {
            **_interval(plain),
            "tau_rdd_y": plain.tau_pdd,
            "h": h,
            "b": h,
            "n_left": int(plain.n_left),
            "n_right": int(plain.n_right),
            "design": "rdd",
        },
    }


class CliWorkload(Workload):
    """Sequential ``python -m pdd`` processes over one fuzzy-design CSV."""

    name = "cli-200k"
    n = 200_000
    cycle = ("estimate", "fuzzy", "rdd", "simulate")

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.csv = out_dir / "input.csv"
        self.simulated = out_dir / "simulated.csv"
        self.spec = pdd.DgpSpec(n=self.n, seed=seed, kappa=KAPPA, design="fuzzy_homogeneous")
        scenario = [
            "--n", str(self.n), "--seed", str(seed), "--kappa", str(KAPPA),
            "--design", "fuzzy_homogeneous",
        ]  # fmt: skip
        data = ["--data", str(self.csv), "--cutoff", "0"]
        placebo = ["--placebo-outcomes", "w1", "--placebo-treatments", "z1"]
        self.make_input = ["simulate", *scenario, "--out", str(self.csv)]
        self.args = {
            "estimate": ["estimate", *data, *placebo],
            "fuzzy": ["estimate", *data, *placebo, "--design", "fuzzy"],
            "rdd": ["rdd", *data],
            "simulate": ["simulate", *scenario, "--out", str(self.simulated)],
        }

    def setup(self) -> None:
        harness.compile_package(self.out_dir / "compileall.err")
        made = harness.run_child(
            [sys.executable, "-m", "pdd", *self.make_input], self.out_dir / "input.err"
        )
        if made.returncode != 0:
            raise SetupError(f"pdd simulate could not write the input CSV (exit {made.returncode})")
        self.warmups.append(self.run("rdd"))  # the cheapest command that reads the CSV

    def run(self, kind: str) -> Op:
        return self._child(kind, [sys.executable, "-m", "pdd"])

    def _child(self, kind: str, prefix: list[str]) -> Op:
        err = self.out_dir / "child.err"
        try:
            result = harness.run_child([*prefix, *self.args[kind]], err)
        except TimeoutError as exc:
            return Op(kind, harness.CHILD_TIMEOUT_S, self.n, error=str(exc))
        digest = None
        if kind == "simulate" and result.returncode == 0:
            digest = harness.file_digest(self.simulated)
            self.simulated.unlink()
        op = Op(kind, result.wall_s, self.n, (result.stdout, digest))
        op.peak_rss_mb = result.peak_rss_mb
        if result.returncode != 0:
            op.error = f"exit code {result.returncode}: {harness.stderr_tail(err)}"
        return op

    def traced_phase(self, seconds: float) -> tuple[list[Op], list[list[list[Any]]]]:
        path = self.out_dir / "child-spans.json"
        span_lists: list[list[list[Any]]] = []
        ops_run = 0

        def run(kind: str) -> Op:
            nonlocal ops_run
            op = self._child(kind, [sys.executable, str(CHILD), "--spans", str(path), "--"])
            if not op.error:
                child_spans = json.loads(path.read_text())
                for span in child_spans:
                    span[4] = ops_run
                span_lists.append(child_spans)
            ops_run += 1
            return op

        return harness.closed_loop(self.cycle, seconds, run), span_lists

    def memory_pass(self) -> tuple[list[Op], list[int]]:
        path = self.out_dir / "peaks.json"
        ops, peaks = [], []
        for kind in ("estimate", "fuzzy"):
            op = self._child(kind, [sys.executable, str(CHILD), "--peak", str(path), "--"])
            if not op.error:
                peaks.extend(json.loads(path.read_text()))
            ops.append(op)
        return ops, peaks

    def prepare_checks(self, ops: list[Op]) -> None:
        bindings = pdd.ColumnBindings(
            treatment="a", placebo_outcomes=("w1",), placebo_treatments=("z1",)
        )
        sample = pdd.load_csv(str(self.csv), bindings)
        drawn = pdd.simulate(self.spec)
        self.round_trip = None
        for column in ("d", "y", "W", "Z", "a"):
            if not np.array_equal(getattr(sample, column), getattr(drawn, column)):
                self.round_trip = f"the written CSV does not reproduce column {column}"
        self.input_digest = harness.file_digest(self.csv)
        self.expected = cli_references(sample)
        self.first_stdout: dict[str, bytes] = {}

    def check(self, op: Op) -> str | None:
        stdout, digest = op.output
        if op.kind == "simulate":
            if stdout.strip():
                return "simulate --out printed to stdout"
            if digest != self.input_digest:
                return "the simulated CSV differs from an earlier run of the same command"
            return self.round_trip
        text = stdout.decode("utf-8", errors="replace")
        try:
            doc, end = json.JSONDecoder().raw_decode(text)
        except ValueError:
            return "stdout is not a JSON document"
        if text[end:].strip():
            return "stdout holds more than one JSON document"
        if stdout != self.first_stdout.setdefault(op.kind, stdout):
            return "stdout differs from an earlier run of the same command"
        return harness.mismatches(doc, self.expected[op.kind])

    def peak_rss_mb(self, ops: list[Op]) -> float:
        """The largest child."""
        return max(op.peak_rss_mb or 0.0 for op in ops)

    def sizes(self) -> dict[str, Any]:
        return {"rows": self.n, "csv_bytes": self.csv.stat().st_size, "columns": "d,y,w1,z1,a"}


class FitWorkload(Workload):
    """Robust estimates on one 1M-row sample at the rule-of-thumb bandwidth."""

    name = "fit-1m"
    n = 1_000_000
    cycle = ("bc-triangle", "bc-triangle-half-h", "rdd-triangle", "bc-gaussian")

    def setup(self) -> None:
        harness.compile_package(self.out_dir / "compileall.err")
        self.sample = None  # drop the previous setup's sample before drawing
        self.sample = pdd.simulate(pdd.DgpSpec(n=self.n, seed=self.seed, kappa=KAPPA))
        self.h_rot = pdd.rule_of_thumb_bandwidth(self.sample.d)
        self.warmups.append(self.run(self.cycle[0]))

    def _bandwidths(self, kind: str) -> tuple[float, float, str]:
        h = self.h_rot
        return {
            "bc-triangle": (h, h, "triangle"),
            "bc-triangle-half-h": (h / 2.0, h, "triangle"),
            "rdd-triangle": (h, h, "triangle"),
            "bc-gaussian": (h, h, "gaussian"),
        }[kind]

    def run(self, kind: str) -> Op:
        h, b, kernel = self._bandwidths(kind)
        s, spec = self.sample, pdd.KernelSpec(kernel)
        if kind == "rdd-triangle":
            return harness.timed_call(
                kind, self.n, lambda: pdd.rdd_robust_estimate(s.d, s.y, 0.0, h, b, spec)
            )
        return harness.timed_call(
            kind, self.n, lambda: pdd.bias_corrected_estimate(s, 0.0, h, b, spec)
        )

    def prepare_checks(self, ops: list[Op]) -> None:
        s = self.sample
        self.expected = {}
        for kind in self.cycle:
            h, b, kernel = self._bandwidths(kind)
            plain = kind == "rdd-triangle"
            ref = oracle.reference(
                s.d, s.y, None if plain else s.W, None if plain else s.Z, 0.0, h, b, kernel
            )
            want: dict[str, Any] = {
                "tau_pdd": ref.tau_pdd,
                "tau_pdd_bc": ref.tau_pdd_bc,
                "se": ref.se,
                "n_left": ref.n_left,
                "n_right": ref.n_right,
            }
            if not plain:
                want["tau_rdd_y"] = ref.tau_rdd_y
                want["gamma_minus"] = ref.gamma_minus.tolist()
            self.expected[kind] = want

    def check(self, op: Op) -> str | None:
        r = op.output
        got = {
            "tau_pdd": r.tau_pdd,
            "tau_pdd_bc": r.tau_pdd_bc,
            "se": r.se,
            "n_left": int(r.n_left),
            "n_right": int(r.n_right),
        }
        if r.point is not None:
            got["tau_rdd_y"] = r.point.tau_rdd_y
            got["gamma_minus"] = r.point.gamma_minus.tolist()
        return harness.mismatches(got, self.expected[op.kind])

    def sizes(self) -> dict[str, Any]:
        s = self.sample
        nbytes = s.d.nbytes + s.y.nbytes + s.W.nbytes + s.Z.nbytes
        return {
            "rows": self.n,
            "sample_bytes": nbytes,
            # the sample fits in L3, so bytes are reported as computed and no
            # bandwidth figure is claimed
            "sample_fits_in_l3": nbytes < (harness.l3_bytes() or 0),
            "rows_within_h": int(np.count_nonzero(np.abs(s.d) <= self.h_rot)),
            "h_rot": self.h_rot,
        }


#: Aggregates of an McReport that the recomputation reproduces.
_MC_FIELDS = (
    "mean_estimate", "bias", "rmse", "sd", "naive_mean", "naive_bias", "naive_rmse",
    "naive_sd", "mean_estimate_bc", "bias_bc", "rmse_bc", "sd_bc", "mean_se",
    "coverage", "mean_h", "mean_b", "n_failed", "reps",
)  # fmt: skip


def _summary(values: list[float], tau0: float) -> tuple[float, float, float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, mean - tau0, float(np.sqrt(np.mean((arr - tau0) ** 2))), sd


class McWorkload(Workload):
    """Monte Carlo studies, each from a fresh base seed."""

    name = "mc-5k"
    n = 5000
    reps = 100
    # a cycle of four studies lasts about as long as a fit-1m cycle, so the
    # median over cycles is not thrown by a few seconds of a busy machine
    cycle = ("study",) * 4

    def __init__(self, seed: int, out_dir: Path) -> None:
        super().__init__(seed, out_dir)
        self.spec = pdd.DgpSpec(n=self.n, seed=seed, kappa=KAPPA)
        self.studies = 0

    def setup(self) -> None:
        harness.compile_package(self.out_dir / "compileall.err")
        self.warmups.append(self.run(self.cycle[0]))

    def run(self, kind: str) -> Op:
        # disjoint replication seeds for every study of the run
        base = self.seed * 1_000_000 + self.studies * self.reps
        self.studies += 1
        return harness.timed_call(
            kind,
            self.n * self.reps,
            lambda: (base, pdd.monte_carlo(self.spec, reps=self.reps, base_seed=base)),
        )

    def recompute(self, base: int) -> dict[str, Any]:
        """A study's aggregates from ``simulate`` + ``bias_corrected_estimate`` per replication."""
        est, est_bc, ses, covered, naive, hs = [], [], [], [], [], []
        failed = 0
        tau0 = self.spec.tau0
        for r in range(self.reps):
            sample = pdd.simulate(replace(self.spec, seed=base + r))
            try:
                h = pdd.rule_of_thumb_bandwidth(sample.d)
                robust = pdd.bias_corrected_estimate(sample, self.spec.cutoff, h, h, TRIANGLE)
            except pdd.PddError:
                failed += 1
                continue
            est.append(robust.tau_pdd)
            est_bc.append(robust.tau_pdd_bc)
            ses.append(robust.se)
            covered.append(robust.ci_lower <= tau0 <= robust.ci_upper)
            naive.append(robust.point.tau_rdd_y)
            hs.append(h)
        out: dict[str, Any] = {"n_failed": failed, "reps": self.reps}
        for names, values in (
            (("mean_estimate", "bias", "rmse", "sd"), est),
            (("mean_estimate_bc", "bias_bc", "rmse_bc", "sd_bc"), est_bc),
            (("naive_mean", "naive_bias", "naive_rmse", "naive_sd"), naive),
        ):
            out.update(zip(names, _summary(values, tau0)))
        out.update(
            mean_se=float(np.mean(ses)),
            coverage=float(np.mean(covered)),
            mean_h=float(np.mean(hs)),
            mean_b=float(np.mean(hs)),
        )
        return out

    def prepare_checks(self, ops: list[Op]) -> None:
        done = [op for op in ops if not op.error]
        self.recomputed = {}
        if done:
            base = done[self.seed % len(done)].output[0]
            self.recomputed[base] = self.recompute(base)

    def check(self, op: Op) -> str | None:
        base, report = op.output
        if report.reps != self.reps:
            return f"report covers {report.reps} replications, not {self.reps}"
        kept = report.reps - report.n_failed
        tau0 = self.spec.tau0
        for mean, bias, rmse, sd in (
            (report.mean_estimate, report.bias, report.rmse, report.sd),
            (report.mean_estimate_bc, report.bias_bc, report.rmse_bc, report.sd_bc),
            (report.naive_mean, report.naive_bias, report.naive_rmse, report.naive_sd),
        ):
            problem = harness.mismatch("bias", bias, mean - tau0) or harness.mismatch(
                "rmse^2", rmse**2, bias**2 + sd**2 * (kept - 1) / kept
            )
            if problem:
                return problem
        if not 0.0 <= report.coverage <= 1.0 or not math.isfinite(report.mean_se):
            return f"coverage {report.coverage!r} or mean se {report.mean_se!r} out of range"
        if base in self.recomputed:
            got = {name: getattr(report, name) for name in _MC_FIELDS}
            return harness.mismatches(got, self.recomputed[base])
        return None

    def sizes(self) -> dict[str, Any]:
        return {"rows_per_rep": self.n, "reps_per_study": self.reps}


WORKLOADS = {w.name: w for w in (CliWorkload, FitWorkload, McWorkload)}
