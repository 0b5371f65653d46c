"""Tests of the benchmark itself: checks catch wrong outputs, spans count right.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import harness

sys.path.insert(0, str(harness.SRC))

import pdd  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PERTURB = 1.0 + 1e-6


def _ops(workload, cycles: int = 1) -> list[harness.Op]:
    workload.setup()
    ops = workload.warmups + [workload.run(kind) for _ in range(cycles) for kind in workload.cycle]
    assert not any(op.error for op in ops), [op.error for op in ops]
    return ops


def _failed_after(workload, ops, perturb=None) -> list[str]:
    """Check ``ops``; ``perturb(workload)`` may alter the references first."""
    if perturb is not None:
        prepare = workload.prepare_checks

        def prepare_then_perturb(ops):
            prepare(ops)
            perturb(workload)

        workload.prepare_checks = prepare_then_perturb
    try:
        for op in ops:
            op.problem = ""
        run.check_all(workload, ops)
    finally:
        vars(workload).pop("prepare_checks", None)
    return [op.kind for op in ops if op.failed]


class SmallFit(workloads.FitWorkload):
    n = 20_000


class SmallCli(workloads.CliWorkload):
    n = 3_000


class SmallMc(workloads.McWorkload):
    n = 2_000
    reps = 4


def test_fit_checks_pass_and_catch_a_reference_off_by_1e_6(tmp_path):
    workload = SmallFit(3, tmp_path)
    ops = _ops(workload)
    assert _failed_after(workload, ops) == []

    def perturb(w):
        w.expected["bc-gaussian"]["tau_pdd_bc"] *= PERTURB

    assert _failed_after(workload, ops, perturb) == ["bc-gaussian"]

    def perturb_gamma(w):
        w.expected["bc-triangle-half-h"]["gamma_minus"][0] *= PERTURB

    assert _failed_after(workload, ops, perturb_gamma) == ["bc-triangle-half-h"]


def test_oracle_matches_other_kernels_and_bandwidth_pairs():
    s = pdd.simulate(pdd.DgpSpec(n=20_000, seed=5, kappa=4.0))
    h = pdd.rule_of_thumb_bandwidth(s.d)
    for kind, hh, b in (("window", h, 1.5 * h), ("triangle", h, 0.5 * h)):
        got = pdd.bias_corrected_estimate(s, 0.0, hh, b, pdd.KernelSpec(kind))
        ref = workloads.oracle.reference(s.d, s.y, s.W, s.Z, 0.0, hh, b, kind)
        assert harness.mismatch("bc", got.tau_pdd_bc, ref.tau_pdd_bc) is None
        assert harness.mismatch("se", got.se, ref.se) is None
        assert harness.mismatch("se", got.se * PERTURB, ref.se) is not None


def test_cli_checks_pass_and_catch_wrong_outputs(tmp_path):
    workload = SmallCli(4, tmp_path)
    ops = _ops(workload)
    assert _failed_after(workload, ops) == []

    def perturb(w):
        w.expected["fuzzy"]["first_stage"] *= PERTURB

    assert _failed_after(workload, ops, perturb) == ["fuzzy"]

    rdd = next(op for op in ops if op.kind == "rdd")
    stdout, digest = rdd.output
    rdd.output = (stdout + stdout, digest)
    assert _failed_after(workload, ops) == ["rdd"]
    rdd.output = (stdout, digest)
    assert _failed_after(workload, ops) == []
    rdd.output = (stdout.replace(b", ", b",  ", 1), digest)
    assert "differs from an earlier run" in (workload.check(rdd) or "")
    rdd.output = (stdout, digest)

    sim = next(op for op in ops if op.kind == "simulate")
    sim.output = (b"", "0" * 64)
    assert _failed_after(workload, ops) == ["simulate"]


def test_cli_nonzero_exit_is_a_failed_operation(tmp_path):
    workload = SmallCli(4, tmp_path)
    workload.args["rdd"] = ["rdd", "--data", str(tmp_path / "missing.csv"), "--cutoff", "0"]
    op = workload.run("rdd")
    assert op.failed and op.error.startswith("exit code 3")


def test_mc_recomputation_catches_a_perturbed_aggregate(tmp_path):
    workload = SmallMc(6, tmp_path)
    ops = _ops(workload, cycles=2)
    assert _failed_after(workload, ops) == []
    recomputed = ops[6 % len(ops)]

    def perturb(w):
        (aggregates,) = w.recomputed.values()
        aggregates["mean_se"] *= PERTURB

    _failed_after(workload, ops, perturb)
    assert [op.failed for op in ops] == [op is recomputed for op in ops]


def test_sharp_estimate_call_counts_match_the_seed_code():
    sample = pdd.simulate(pdd.DgpSpec(n=4_000, seed=1, kappa=4.0))
    h = pdd.rule_of_thumb_bandwidth(sample.d)
    tracer = spans.Tracer()
    restore = spans.install(tracer.wrap)
    try:
        tracer.op = 0
        pdd.bias_corrected_estimate(sample, 0.0, h, h, pdd.KernelSpec("triangle"))
    finally:
        restore()
    calls = {name: t["calls"] for name, t in spans.totals([tracer.spans]).items()}
    seed_counts = {
        "kernels.sided_weights": 6, "kernels.scaled_basis": 5, "local_fit.local_poly_fit": 4,
        "local_fit.local_iv_fit": 2, "inference.side_correction": 2,
        "estimator.estimate_sharp": 1,
    }  # fmt: skip
    assert {name: calls[name] for name in seed_counts} == seed_counts
    assert pdd.inference.estimate_sharp is pdd.estimator.estimate_sharp


def test_fuzzy_cli_calls_estimate_sharp_twice_and_dumps_once(tmp_path):
    import pdd.cli

    csv = tmp_path / "fuzzy.csv"
    with open(csv, "w", newline="") as fh:
        spec = pdd.DgpSpec(n=3_000, seed=2, kappa=4.0, design="fuzzy_homogeneous")
        pdd.write_csv(pdd.simulate(spec), fh)
    tracer = spans.Tracer()
    restore = spans.install(tracer.wrap)
    out = io.StringIO()
    try:
        tracer.op = 0
        with contextlib.redirect_stdout(out):
            code = pdd.cli.main(
                ["estimate", "--data", str(csv), "--cutoff", "0", "--placebo-outcomes", "w1",
                 "--placebo-treatments", "z1", "--design", "fuzzy"]
            )  # fmt: skip
    finally:
        restore()
    assert code == 0 and json.loads(out.getvalue())["design"] == "fuzzy"
    totals = spans.totals([tracer.spans])
    assert totals["estimator.estimate_sharp"]["calls"] == 2
    assert totals["cli.dumps"]["calls"] == 1
    assert totals["io.load_csv"]["rows"] == 3_000
    top = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in top] == ["cli.main"]


def test_self_time_subtracts_direct_children_only():
    spans_ = [
        ["a", 0, 100, -1, 0, None],
        ["b", 10, 50, 0, 0, {"rows": 3}],
        ["c", 20, 30, 1, 0, None],
        ["b", 60, 70, 0, 0, {"rows": 4}],
    ]
    totals = spans.totals([spans_])
    assert totals["a"] == {"calls": 1, "self_ns": 50}
    assert totals["b"] == {"calls": 2, "self_ns": 40, "rows": 7}
    assert totals["c"] == {"calls": 1, "self_ns": 10}


def test_closed_loop_runs_whole_cycles():
    seen = []

    def op(kind):
        seen.append(kind)
        return harness.Op(kind, 0.4, 1)

    harness.closed_loop(("a", "b", "c"), 1.0, op)
    assert seen == ["a", "b", "c"]
    seen.clear()
    harness.closed_loop(("a", "b"), 1.0, op)
    assert seen == ["a", "b", "a", "b"]


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    names = spans.per_layer_metrics({}, 1, 1.0, 1, 1.0)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == {
        name: run.per_layer_unit(name) for name in names
    }
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(
        harness.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out")
    )
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-5k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert result.returncode != 0 and result.stdout == ""


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--workload", "mc-5k", "--seed", "-1",
                                   "--seconds", "1", "--trace", "0"]])  # fmt: skip
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code == 2
