import contextlib
import gc
import importlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdd
from pdd.cli import _make_parser, dumps, main
from conftest import SCHUR_ROUNDING_CSV, assert_no_children, draw_stage_dying_at, random_dataset

SHARP_KEYS = [
    "estimate",
    "estimate_bc",
    "se",
    "ci_lower",
    "ci_upper",
    "alpha",
    "tau_rdd_y",
    "tau_rdd_w",
    "gamma_minus",
    "gamma_plus",
    "h",
    "b",
    "kernel",
    "n_left",
    "n_right",
    "design",
    "warnings",
    "dropped_rows",
]


def run_cli(*args: str, data: str | None = None):
    return subprocess.run(
        [sys.executable, "-m", "pdd", *args],
        input=data,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def sim_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sim.csv"
    proc = run_cli("simulate", "--n", "4000", "--seed", "42", "--kappa", "4", "--out", str(path))
    assert proc.returncode == 0, proc.stderr
    return path


def estimate_args(path, *extra):
    return (
        "estimate",
        "--data",
        str(path),
        "--cutoff",
        "0",
        "--placebo-outcomes",
        "w1",
        "--placebo-treatments",
        "z1",
        *extra,
    )


def test_estimate_key_set_and_order(sim_csv):
    proc = run_cli(*estimate_args(sim_csv))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert list(doc.keys()) == SHARP_KEYS


def test_numbers_match_library_exactly(sim_csv):
    proc = run_cli(*estimate_args(sim_csv, "--bandwidth", "0.5", "--alpha", "0.1"))
    doc = json.loads(proc.stdout)
    sample = pdd.load_csv(
        str(sim_csv),
        pdd.ColumnBindings(placebo_outcomes=("w1",), placebo_treatments=("z1",)),
    )
    robust = pdd.bias_corrected_estimate(
        sample, 0.0, 0.5, 0.5, pdd.KernelSpec("triangle"), alpha=0.1
    )
    assert doc["estimate"] == robust.tau_pdd
    assert doc["estimate_bc"] == robust.tau_pdd_bc
    assert doc["se"] == robust.se
    assert doc["ci_lower"] == robust.ci_lower
    assert doc["ci_upper"] == robust.ci_upper
    assert doc["tau_rdd_y"] == robust.point.tau_rdd_y
    assert doc["gamma_minus"] == list(robust.point.gamma_minus)
    assert doc["n_left"] == robust.point.n_left
    assert doc["n_right"] == robust.point.n_right


def test_estimate_close_to_naive_without_confounding(tmp_path):
    path = tmp_path / "clean.csv"
    assert run_cli(
        "simulate", "--n", "20000", "--seed", "9", "--kappa", "0", "--out", str(path)
    ).returncode == 0
    proc = run_cli(*estimate_args(path))
    doc = json.loads(proc.stdout)
    assert abs(doc["estimate"] - doc["tau_rdd_y"]) < 3.0 * doc["se"]


def test_golden_determinism(tmp_path):
    # simulate -> estimate, twice, byte-identical artifacts
    outputs = []
    for trial in range(2):
        csv_path = tmp_path / f"run{trial}.csv"
        proc = run_cli(
            "simulate", "--n", "3000", "--seed", "31", "--kappa", "4", "--out", str(csv_path)
        )
        assert proc.returncode == 0
        est = run_cli(*estimate_args(csv_path))
        assert est.returncode == 0
        outputs.append((csv_path.read_bytes(), est.stdout))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


def test_pipe_stdin(sim_csv):
    est = run_cli(*estimate_args("-"), data=sim_csv.read_text())
    assert est.returncode == 0, est.stderr
    file_est = run_cli(*estimate_args(sim_csv))
    assert est.stdout == file_est.stdout


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_csv_opened_by_a_byte_order_mark_reads_as_without_one(tmp_path, sim_csv, source):
    # spreadsheet programs save UTF-8 CSV with a leading byte-order mark
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + sim_csv.read_bytes())
    proc = subprocess.run(
        [sys.executable, "-m", "pdd", *estimate_args(path if source == "file" else "-")],
        input=path.read_bytes() if source == "stdin" else None,
        capture_output=True,
    )
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.decode() == run_cli(*estimate_args(sim_csv)).stdout


def test_a_config_file_opened_by_a_byte_order_mark_reads_as_without_one(tmp_path, sim_csv):
    config = tmp_path / "bom.conf"
    config.write_bytes(b"\xef\xbb\xbfkernel = window\n")
    proc = run_cli(*estimate_args(sim_csv, "--config", str(config)))
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["kernel"] == "window"


def test_seventeen_digit_serialisation_roundtrips():
    values = [0.1, 1.0 / 3.0, 1e-17, 123456.789012345678, 2.0]
    text = dumps({"values": values})
    assert json.loads(text)["values"] == values
    with pytest.raises(pdd.NonFiniteResult):
        dumps({"values": [1.0, math.inf]})


def test_q_zero_rejected_for_estimate(sim_csv):
    proc = run_cli("estimate", "--data", str(sim_csv), "--cutoff", "0")
    assert proc.returncode == 64
    assert "placebo" in proc.stderr


def test_rdd_subcommand(sim_csv):
    proc = run_cli("rdd", "--data", str(sim_csv), "--cutoff", "0", "--bandwidth", "0.6")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["design"] == "rdd"
    assert doc["estimate"] == doc["tau_rdd_y"]
    sample = pdd.load_csv(str(sim_csv), pdd.ColumnBindings())
    robust = pdd.rdd_robust_estimate(
        sample.d, sample.y, 0.0, 0.6, 0.6, pdd.KernelSpec("triangle")
    )
    assert doc["estimate_bc"] == robust.tau_pdd_bc


def test_fuzzy_design_output(tmp_path):
    path = tmp_path / "fuzzy.csv"
    assert run_cli(
        "simulate",
        "--n",
        "20000",
        "--seed",
        "5",
        "--kappa",
        "4",
        "--design",
        "fuzzy_homogeneous",
        "--out",
        str(path),
    ).returncode == 0
    proc = run_cli(
        *estimate_args(path, "--design", "fuzzy", "--treatment", "a")
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert "first_stage" in doc
    assert abs(doc["first_stage"] - 0.6) < 0.1
    assert doc["se"] is None and doc["ci_lower"] is None and doc["ci_upper"] is None
    assert any("fuzzy" in w for w in doc["warnings"])
    assert list(doc.keys()) == SHARP_KEYS[:-2] + ["first_stage", "warnings", "dropped_rows"]


def test_sharp_estimate_does_not_bind_the_treatment_column(tmp_path):
    # only the fuzzy design reads the treatment column, so a sharp run keeps
    # the rows where it is blank
    spec = pdd.DgpSpec(n=4000, seed=5, kappa=4.0, design="fuzzy_homogeneous")
    text = io.StringIO()
    pdd.write_csv(pdd.simulate(spec), text)
    header, *rows = text.getvalue().splitlines()
    assert header.endswith(",a")
    blank = np.random.default_rng(0).random(len(rows)) < 0.3
    rows = [row.rsplit(",", 1)[0] + "," if cut else row for row, cut in zip(rows, blank)]
    path = tmp_path / "blank_a.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    base = run_cli(*estimate_args(path, "--bandwidth", "0.5"))
    assert base.returncode == 0, base.stderr
    assert json.loads(base.stdout)["dropped_rows"] == 0
    bound = run_cli(*estimate_args(path, "--bandwidth", "0.5", "--treatment", "a"))
    assert (bound.returncode, bound.stdout) == (0, base.stdout)


def test_exit_code_2_on_estimation_failure(sim_csv):
    proc = run_cli(*estimate_args(sim_csv, "--bandwidth", "1e-9"))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["error"] == "singular_support"
    assert "detail" in doc


def _extreme_outcome_csv(path, y_of):
    # 200 rows on both sides of the cutoff with a healthy placebo pair
    rng = np.random.default_rng(5)
    d = rng.uniform(-1.0, 1.0, 200)
    w = rng.standard_normal((200, 1))
    sample = pdd.Sample(d=d, y=y_of(rng), W=w, Z=w + 0.3 * rng.standard_normal((200, 1)))
    with path.open("w", newline="") as fh:
        pdd.write_csv(sample, fh)
    return path


@pytest.mark.parametrize(
    "y_of,error",
    [
        # the estimates themselves overflow to NaN: an equivalence check fails closed
        (lambda rng: np.where(rng.random(200) < 0.5, 1e308, -1e308), "equivalence_breach"),
        # the estimates are finite, only the variance overflows
        (lambda rng: rng.standard_normal(200) * 1e160, "non_finite_result"),
    ],
    ids=["estimates_overflow", "variance_overflows"],
)
@pytest.mark.parametrize("command", ["rdd", "estimate"])
def test_non_finite_result_exits_2_with_one_document(tmp_path, y_of, error, command):
    path = _extreme_outcome_csv(tmp_path / "extreme.csv", y_of)
    argv = ["--data", str(path), "--cutoff", "0", "--bandwidth", "0.5"]
    if command == "estimate":
        argv += ["--placebo-outcomes", "w1", "--placebo-treatments", "z1"]
    proc = run_cli(command, *argv)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == error
    assert proc.stderr == ""  # no numpy floating-point warnings


@pytest.fixture(scope="module")
def kappa4_lines(tmp_path_factory):
    """The lines of ``pdd simulate --n 2000 --seed 1 --kappa 4``."""
    path = tmp_path_factory.mktemp("data") / "kappa4.csv"
    assert main(["simulate", "--n", "2000", "--seed", "1", "--kappa", "4", "--out", str(path)]) == 0
    return path.read_text().splitlines()


@pytest.mark.parametrize(
    "row, column, commands, error",
    [
        # w1 at d = 0.0179: the right side's Schur complement is not finite
        (8, "w1", [estimate_args], "weak_instrument"),
        # d: the gaussian design of the right side is not finite
        (1, "d", [estimate_args, lambda path, *extra: ("rdd", "--data", str(path),
         "--cutoff", "0", *extra)], "singular_support"),
    ],
)  # fmt: skip
def test_a_non_finite_design_exits_2_with_one_document(
    tmp_path, kappa4_lines, row, column, commands, error
):
    header, *rows = kappa4_lines
    cells = rows[row - 1].split(",")
    cells[header.split(",").index(column)] = "1e308"
    rows[row - 1] = ",".join(cells)
    path = tmp_path / "broken.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    extra = () if column == "w1" else ("--kernel", "gaussian", "--bandwidth", "0.5")
    for command in commands:
        code, out, err, _ = _run_in_process(list(command(path, *extra)), tmp_path / "none")
        assert (code, err) == (2, ""), err
        assert json.loads(out)["error"] == error  # one document: trailing data would raise


def test_a_complement_zero_but_for_rounding_exits_2_as_a_weak_instrument(tmp_path):
    # it read rcond 1, and the joint solve then raised numpy's "Singular
    # matrix", which exited 64 on valid flags
    path = tmp_path / "schur.csv"
    path.write_bytes(SCHUR_ROUNDING_CSV)
    code, out, err, _ = _run_in_process(list(estimate_args(path)), tmp_path / "none")
    assert (code, err) == (2, ""), err
    assert json.loads(out)["error"] == "weak_instrument"  # one document


def test_any_data_scale_keeps_the_exit_code_contract(tmp_path, rng):
    # one 400-row file with d scaled by 10^k, k = -300, -280, ..., 300, fitted
    # by rdd at the rule-of-thumb bandwidth and by rdd and estimate at half
    # the scale. The flags are valid, so every run exits 0 or 2 with one
    # document, also where the moments, whose weights are K(u) / h, or h^2
    # leave the normal range
    sample = random_dataset(rng, 400, 1)
    path = tmp_path / "scaled.csv"
    runs = 0
    for k in range(-300, 301, 20):
        scale = float(f"1e{k}")
        with path.open("w", newline="") as fh:
            pdd.write_csv(replace(sample, d=sample.d * scale), fh)
        bandwidth = ["--bandwidth", repr(0.5 * scale)]
        rdd = ["rdd", "--data", str(path), "--cutoff", "0"]
        for argv in (rdd, rdd + bandwidth, list(estimate_args(path, *bandwidth))):
            code, out, err, _ = _run_in_process(argv, tmp_path / "none")
            assert code in (0, 2) and err == "", (k, argv, err)
            doc = json.loads(out)  # exactly one document: trailing data would raise
            assert ("error" in doc) == (code != 0), (k, argv, doc)
            runs += 1
    assert runs == 93


def test_exit_code_3_on_non_utf8_config(tmp_path, sim_csv):
    config = tmp_path / "latin1.conf"
    config.write_bytes(b"cutoff = 0\n# caf\xe9\n")
    proc = run_cli(*estimate_args(sim_csv, "--config", str(config)))
    assert proc.returncode == 3, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "parse_error" and "UTF-8" in doc["detail"]


def test_exit_code_3_on_io_failure():
    proc = run_cli(*estimate_args("/no/such/file.csv"))
    assert proc.returncode == 3
    doc = json.loads(proc.stdout)
    assert doc["error"] == "io_error"


def test_exit_code_3_on_missing_column(tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("d,y\n0.1,1\n-0.2,0\n")
    proc = run_cli(*estimate_args(path))
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"] == "missing_column"


def test_exit_code_64_on_bad_flags(sim_csv):
    missing = sim_csv.parent / "missing.csv"
    assert run_cli("estimate", "--data", str(sim_csv)).returncode == 64  # no cutoff
    assert run_cli("estimate", "--nonsense").returncode == 64
    assert run_cli("bogus-command").returncode == 64
    assert (
        run_cli(*estimate_args(sim_csv, "--alpha", "7")).returncode == 64
    )  # invalid value
    # a bias bandwidth below h/10, with h from the rule of thumb (about 0.45
    # here) or so small that every fit would fail, and a level outside (0, 1)
    # in mc, which builds no RunConfig, for the sharp and the fuzzy design
    tiny = ("--bandwidth", "1e-9", "--bias-bandwidth", "1e-11")
    fuzzy_mc = ("mc", "--n", "2000", "--seed", "1", "--kappa", "4", "--reps", "3",
                "--design", "fuzzy_homogeneous")  # fmt: skip
    for argv in (
        estimate_args(sim_csv, "--bias-bandwidth", "0.02"),
        estimate_args(sim_csv, *tiny),
        estimate_args(sim_csv, *tiny, "--design", "fuzzy", "--treatment", "w1"),
        ("rdd", "--data", str(sim_csv), "--cutoff", "0", "--bias-bandwidth", "0.02"),
        ("mc", "--n", "2000", "--seed", "1", "--kappa", "4", "--reps", "5", "--alpha", "1.5"),
        ("mc", "--n", "2000", "--seed", "1", "--reps", "2", "--bias-bandwidth", "0.02"),
        (*fuzzy_mc, "--alpha", "1.5"),
        (*fuzzy_mc, "--bandwidth", "0.5", "--bias-bandwidth", "0.02"),
        # rdd fits only d and y, so it has no treatment flag to bind a column
        ("rdd", "--data", str(sim_csv), "--cutoff", "0", "--treatment", "a"),
        # non-finite values, and a level whose 1 - alpha/2 rounds to 1
        estimate_args(sim_csv, "--cutoff", "nan"),
        estimate_args(sim_csv, "--bandwidth", "inf"),
        estimate_args(sim_csv, "--alpha", "1e-17"),
        ("simulate", "--n", "50", "--cutoff", "nan"),
        ("simulate", "--n", "50", "--noise-y", "nan"),
        ("mc", "--n", "600", "--seed", "1", "--reps", "2", "--tau0", "nan"),
        ("mc", "--n", "600", "--seed", "1", "--reps", "2", "--bandwidth", "inf"),
        # rejected before the CSV is read, so a missing file is never opened
        estimate_args(missing, "--alpha", "1e-17"),
        estimate_args(missing, "--bandwidth", "1", "--bias-bandwidth", "0.05"),
    ):
        proc = run_cli(*argv)
        assert (proc.returncode, proc.stdout) == (64, ""), argv


@pytest.mark.parametrize(
    "fields, column",
    [
        (["--tau0", "1.7e308", "--curvature", "1.7e308", "--noise-y", "1e308"], "y"),
        (["--instrument-strength", "1e308", "--noise-z", "1e308"], "d"),
    ],
)
def test_a_simulated_draw_that_overflows_exits_64_and_writes_nothing(tmp_path, fields, column):
    # every field is finite, but the drawn column is not
    argv = ["simulate", "--n", "8", "--seed", "0", *fields]
    message = f"pdd: the drawn column {column} is not finite: the scenario overflows\n"
    out = tmp_path / "sim.csv"
    assert _run_in_process(argv, out) == (64, "", message, None)
    assert _run_in_process([*argv, "--out", str(out)], out) == (64, "", message, None)


def test_a_negative_seed_exits_64_naming_the_field_and_writes_nothing(tmp_path):
    out = tmp_path / "sim.csv"
    message = "pdd: seed must be nonnegative\n"
    for argv in (
        ["simulate", "--seed", "-1"],
        ["simulate", "--seed", "-1", "--out", str(out)],
        ["mc", "--seed", "-2", "--reps", "3"],
    ):
        assert _run_in_process(argv, out) == (64, "", message, None), argv


def test_a_study_whose_draws_overflow_exits_64_and_names_the_column(tmp_path):
    # every replication fails on the same overflow, which the error names
    proc = run_cli(
        "mc", "--n", "2000", "--seed", "0", "--reps", "3",
        "--tau0", "1.7e308", "--curvature", "1.7e308", "--noise-y", "1e308",
    )  # fmt: skip
    message = "pdd: the drawn column y is not finite: the scenario overflows\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (64, "", message)
    # a study whose every replication fails for a finite reason still exits
    # 2, also where a side's row count times the bias bandwidth overflows
    for bandwidth in (["--bandwidth", "1e-9"], ["--bias-bandwidth", "1e308"]):
        argv = ["mc", "--n", "200", "--seed", "0", "--reps", "3", *bandwidth]
        code, out, err, _ = _run_in_process(argv, tmp_path / "none")
        assert (code, err) == (2, ""), bandwidth
        assert json.loads(out) == {"error": "pdd_error", "detail": "all 3 replications failed"}


def test_config_file_merging(tmp_path, sim_csv):
    config = tmp_path / "run.conf"
    config.write_text(
        "cutoff = 0\nbandwidth = 0.5\nkernel = window\n"
        "placebo-outcomes = w1\nplacebo-treatments = z1\n"
    )
    base = run_cli("estimate", "--data", str(sim_csv), "--config", str(config))
    assert base.returncode == 0, base.stderr
    doc = json.loads(base.stdout)
    assert doc["kernel"] == "window" and doc["h"] == 0.5
    # flags override the file
    override = run_cli(
        "estimate", "--data", str(sim_csv), "--config", str(config), "--kernel", "triangle"
    )
    doc2 = json.loads(override.stdout)
    assert doc2["kernel"] == "triangle"
    bad = tmp_path / "bad.conf"
    bad.write_text("cutoff = 0\nwat = 1\n")
    assert run_cli("estimate", "--data", str(sim_csv), "--config", str(bad)).returncode == 64


def test_reps_in_a_config_file_is_known_only_to_mc(tmp_path, sim_csv):
    config = tmp_path / "reps.conf"
    config.write_text("cutoff = 0\nreps = 5\n")
    for argv in (
        estimate_args(sim_csv, "--config", str(config)),
        ("rdd", "--data", str(sim_csv), "--config", str(config)),
        ("simulate", "--n", "50", "--seed", "1", "--config", str(config)),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 64, argv
        assert "unknown config keys: ['reps']" in proc.stderr
    mc_config = tmp_path / "mc.conf"
    mc_config.write_text("n = 600\nseed = 3\nreps = 3\n")
    proc = run_cli("mc", "--config", str(mc_config))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["reps"] == 3


def _flag_cases():
    """``(command, dest, flag, choices)`` of every option of every subcommand
    but ``--config``."""
    (commands,) = [a.choices for a in _make_parser()._actions if a.dest == "command"]
    return [
        pytest.param(
            command, action.dest, action.option_strings[0], action.choices,
            id=f"{command}-{action.dest}",
        )  # fmt: skip
        for command, sub in commands.items()
        for action in sub._actions
        if action.option_strings and action.dest not in ("help", "config")
    ]


#: Two valid values of each option without choices: the first is the one a
#: run uses, the second one that an explicit flag overrides.
OPTION_VALUES = {
    "cutoff": ("0.05", "0.1"),
    "running": ("d", "z1"),
    "outcome": ("y", "w1"),
    "treatment": ("a", "w1"),
    "placebo_outcomes": ("w1", "z1"),
    "placebo_treatments": ("z1", "w1"),
    "bandwidth": ("0.6", "0.4"),
    "bias_bandwidth": ("0.7", "0.5"),
    "alpha": ("0.1", "0.2"),
    "reps": ("3", "2"),
    "n": ("300", "400"),
    "seed": ("5", "6"),
    "tau0": ("2", "0.5"),
    "kappa": ("2", "1"),
    "window": ("0.3", "0.4"),
    "proxy_loading": ("2", "0.5"),
    "instrument_strength": ("0.8", "1.2"),
    "noise_z": ("0.5", "0.1"),
    "noise_d": ("0.6", "0.9"),
    "noise_w": ("0.7", "0.2"),
    "noise_y": ("0.9", "0.3"),
    "compliance": ("0.8", "0.5"),
    "curvature": ("0.5", "2"),
}

#: The options each subcommand needs to run.
REQUIRED = {
    "estimate": ("data", "cutoff", "placebo_outcomes", "placebo_treatments"),
    "rdd": ("data", "cutoff"),
    "simulate": ("n",),
    "mc": ("n", "reps"),
}


@pytest.fixture(scope="module")
def fuzzy_csvs(tmp_path_factory):
    paths = []
    for seed in (3, 4):
        path = tmp_path_factory.mktemp("config") / "fuzzy.csv"
        spec = pdd.DgpSpec(n=2000, seed=seed, kappa=4.0, design="fuzzy_homogeneous")
        with path.open("w", newline="") as fh:
            pdd.write_csv(pdd.simulate(spec), fh)
        paths.append(str(path))
    return paths


def _run_in_process(argv, out_path):
    """``(exit code, stdout, stderr, bytes written to out_path)`` of one run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    written = out_path.read_bytes() if out_path.exists() else None
    if written is not None:
        out_path.unlink()
    return code, out.getvalue(), err.getvalue(), written


def test_running_out_of_memory_exits_3_with_one_json_document(monkeypatch, tmp_path, sim_csv):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.24 GiB for an array with shape (300000000,)")

    for name in ("simulate", "load_csv", "monte_carlo"):
        monkeypatch.setattr(pdd.cli, name, no_memory)
    runs = (
        ["simulate", "--n", "300000000"],
        ["mc", "--n", "300000000", "--reps", "2"],
        list(estimate_args(sim_csv)),
    )
    for argv in runs:
        code, out, err, _ = _run_in_process(argv, tmp_path / "none")
        assert (code, err) == (3, ""), argv
        assert json.loads(out) == {
            "error": "memory_error",
            "detail": "Unable to allocate 2.24 GiB for an array with shape (300000000,)",
        }
        assert out.count("\n") == 1


@pytest.mark.parametrize("command,dest,flag,choices", _flag_cases())
def test_a_config_value_acts_as_its_flag(tmp_path, fuzzy_csvs, command, dest, flag, choices):
    out_path = tmp_path / "out.txt"
    values = {
        **OPTION_VALUES,
        "data": tuple(fuzzy_csvs),
        "out": (str(out_path), str(tmp_path / "other.txt")),
    }
    value, other = (choices[-1], choices[0]) if choices else values[dest]
    base = [arg for name in REQUIRED[command] if name != dest
            for arg in ("--" + name.replace("_", "-"), values[name][0])]  # fmt: skip
    config = tmp_path / "run.conf"

    def run(*argv, line=None):
        if line is not None:
            config.write_text(line + "\n")
            argv = ("--config", str(config), *argv)
        code, out, _, written = _run_in_process([command, *base, *argv], out_path)
        return code, out, written

    by_flag = run(flag, value)
    assert by_flag[0] == 0
    assert run(line=f"{dest} = {value}") == by_flag
    assert run(flag, value, line=f"{dest} = {other}") == by_flag


def test_config_lines_without_a_valid_flag_exit_64(tmp_path, fuzzy_csvs):
    data = ["--data", fuzzy_csvs[0], "--cutoff", "0"]
    placebo = ["--placebo-outcomes", "w1", "--placebo-treatments", "z1"]
    config = tmp_path / "bad.conf"
    for argv, line, message in (
        (["estimate", *data, *placebo], "config = other.conf", "unknown config keys: ['config']"),
        (["estimate", *data, *placebo], "band = 0.5", "unknown config keys: ['band']"),
        (["mc", "--reps", "2"], "band = 0.5", "unknown config keys: ['band']"),
        (["rdd", *data], "placebo-outcomes = w1", "unknown config keys: ['placebo_outcomes']"),
        (["rdd", *data], "placebo_treatments = z1", "unknown config keys: ['placebo_treatments']"),
        (["rdd", *data], "design = fuzzy", "unknown config keys: ['design']"),
        (["rdd", *data], "treatment = a", "unknown config keys: ['treatment']"),
        # values are checked as flags are, also where a flag overrides them
        (["estimate", *data, *placebo], "kernel = epanechnikov", "invalid choice"),
        (["estimate", *data, *placebo, "--alpha", "0.1"], "alpha = x", "invalid float"),
        (["simulate"], "n = 1.5", "invalid int"),
        (["simulate"], "noise_y = nan", "noise_y must be finite"),
    ):
        config.write_text(line + "\n")
        code, out, err, _ = _run_in_process([*argv, "--config", str(config)], tmp_path / "none")
        assert (code, out) == (64, ""), (argv, line)
        assert message in err, (line, err)


def test_variance_mode_flag(tmp_path, sim_csv, monkeypatch):
    # paper, the one variance mode, is the default: naming it moves no byte
    rdd = ("rdd", "--data", str(sim_csv), "--cutoff", "0")
    mc = ("mc", "--n", "2000", "--seed", "4", "--kappa", "4", "--reps", "5")
    config = tmp_path / "mode.conf"
    config.write_text("variance_mode = paper\n")
    for argv in (estimate_args(sim_csv), rdd, mc):
        plain = run_cli(*argv)
        assert plain.returncode == 0, plain.stderr
        for extra in (("--variance-mode", "paper"), ("--config", str(config))):
            named = run_cli(*argv, *extra)
            assert (named.returncode, named.stdout) == (0, plain.stdout), extra

    # any other mode, fitted among them, is a bad flag value, from the
    # command line or a config file, rejected before the data are read
    def no_read(*args):
        raise AssertionError("the data were read")

    monkeypatch.setattr(pdd.cli, "load_csv", no_read)
    for mode in ("fitted", "hc3"):
        config.write_text(f"variance_mode = {mode}\n")
        for argv in (estimate_args(sim_csv), rdd, mc):
            for extra in (("--variance-mode", mode), ("--config", str(config))):
                code, out, err, _ = _run_in_process([*argv, *extra], tmp_path / "none")
                assert (code, out) == (64, ""), (argv, extra)
                assert f"invalid choice: '{mode}'" in err


def test_mc_subcommand_runs():
    proc = run_cli("mc", "--n", "800", "--seed", "4", "--kappa", "2", "--reps", "6")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["reps"] == 6
    assert "coverage" in doc
    assert doc["coverage_se"] == math.sqrt(0.05 * 0.95 / (6 - doc["n_failed"]))
    assert doc["spec"]["kappa"] == 2


@pytest.mark.parametrize("design", ["sharp", "fuzzy_homogeneous"])
def test_mc_stdout_is_identical_at_one_and_two_workers(tmp_path, workers, design):
    argv = ["mc", "--n", "2000", "--seed", "3", "--kappa", "4", "--reps", "9", "--design", design]
    runs = []
    for count in (1, 2):
        workers(count)
        runs.append(_run_in_process(argv, tmp_path / "none"))
    assert runs[0][0] == 0 and runs[1] == runs[0]


def test_mc_prints_the_one_worker_report_when_a_worker_dies(tmp_path, monkeypatch, workers):
    argv = ["mc", "--n", "2000", "--reps", "6"]
    workers(1)
    want = _run_in_process(argv, tmp_path / "none")
    assert want[0] == 0 and json.loads(want[1])["reps"] == 6
    workers(2)
    monkeypatch.setattr(sys.modules["pdd.simulate"], "_draw_stage", draw_stage_dying_at(4))
    assert _run_in_process(argv, tmp_path / "none") == want
    assert_no_children()


def test_output_buffered_before_a_split_study_is_written_once():
    # a child forked with "before" still in the stdout buffer must not flush
    # it, so stdout is block-buffered here, as it is into a pipe by default
    script = (
        "import sys, pdd.cli\n"
        "sys.modules['pdd._forked'].workers = lambda tasks: 2\n"
        "print('before')\n"
        "sys.exit(pdd.cli.main(['mc', '--n', '2000', '--seed', '3', '--reps', '6']))\n"
    )
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    before, report = proc.stdout.splitlines()
    assert before == "before" and json.loads(report)["reps"] == 6


def _thread_runs():
    """Runs whose stdout must not depend on the BLAS thread count, by id:
    ``(data, argv)``, where ``data`` is the ``(rows, design)`` of a
    ``simulate --seed 7 --kappa 4`` sample passed as ``--data``, or None.

    Each size is the smallest tried on which the run's stdout differed
    between one and two threads while the single fit's moments were BLAS
    products; the ``mc-solo`` runs fit cuts of more than 16384 rows, with
    sides longer than ``local_fit.CHUNK_ROWS`` that a block sums in chunks.
    The ids ``triangle`` and ``gaussian`` are Monte Carlo runs of short
    cuts.
    """
    bandwidths = ["--bandwidth", "0.4", "--bias-bandwidth", "0.6"]
    runs = {}
    for kernel, mc_rows in (("triangle", 150_000), ("gaussian", 30_000)):
        mc = ["mc", "--seed", "7", "--kappa", "4", "--kernel", kernel]
        runs[kernel] = (None, [*mc, "--n", "5000", "--reps", "20"])
        runs[f"mc-solo-{kernel}"] = (None, [*mc, "--n", str(mc_rows), "--reps", "3", *bandwidths])
    sizes = {"window": (60_000, 100_000), "triangle": (60_000, 80_000), "gaussian": (20_000, 70_000)}
    for kernel, (estimate_rows, rdd_rows) in sizes.items():
        flags = ["--cutoff", "0", "--kernel", kernel, *bandwidths]
        placebo = ["--placebo-outcomes", "w1", "--placebo-treatments", "z1"]
        runs[f"estimate-{kernel}"] = ((estimate_rows, "sharp"), ["estimate", *flags, *placebo])
        runs[f"fuzzy-{kernel}"] = (
            (estimate_rows, "fuzzy_homogeneous"),
            ["estimate", *flags, *placebo, "--design", "fuzzy"],
        )
        runs[f"rdd-{kernel}"] = ((rdd_rows, "sharp"), ["rdd", *flags])
    return runs


THREAD_RUNS = _thread_runs()

#: Runs each JSON-given argv through ``main`` in one process and prints
#: ``{id: [exit code, stdout]}``.
_RUN_ALL = """
import contextlib, io, json, sys
from pdd.cli import main
out = {}
for name, argv in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out[name] = [code, buf.getvalue()]
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def stdout_by_thread_count(tmp_path_factory):
    """Each run of ``THREAD_RUNS``, at one and at two BLAS threads."""
    folder = tmp_path_factory.mktemp("threads")
    argvs = {}
    for name, (data, argv) in THREAD_RUNS.items():
        if data is not None:
            path = folder / f"{data[1]}-{data[0]}.csv"
            if not path.exists():
                spec = pdd.DgpSpec(n=data[0], seed=7, kappa=4.0, design=data[1])
                with path.open("w", newline="") as fh:
                    pdd.write_csv(pdd.simulate(spec), fh)
            argv = [*argv, "--data", str(path)]
        argvs[name] = argv
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_ALL, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    return outputs


@pytest.mark.parametrize("run", list(THREAD_RUNS))
def test_mc_stdout_does_not_depend_on_the_blas_thread_count(stdout_by_thread_count, run):
    # every moment is a fixed-order segment sum, not a BLAS product, so no
    # thread count can change its rounding
    one, two = (outputs[run] for outputs in stdout_by_thread_count)
    assert one[0] == 0, one
    assert one == two


def test_main_callable_directly(tmp_path, capsys):
    # keep one in-process invocation for coverage of the entry point
    path = tmp_path / "t.csv"
    spec = pdd.DgpSpec(n=500, seed=1, kappa=2.0)
    with open(path, "w", newline="") as fh:
        pdd.write_csv(pdd.simulate(spec), fh)
    code = main(
        [
            "estimate",
            "--data",
            str(path),
            "--cutoff",
            "0",
            "--placebo-outcomes",
            "w1",
            "--placebo-treatments",
            "z1",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc.keys()) == SHARP_KEYS


def _entry_cases():
    """``(id, argv)`` of runs through both entry points: a clean run of each
    command and one failing with each exit code it has (``simulate`` has no
    estimation to fail with 2). ``{data}`` is a fuzzy-design sample with
    column ``a``, ``{out}`` an output path and ``{missing}`` a path in a
    directory that does not exist.
    """
    est = ["estimate", "--data", "{data}", "--cutoff", "0"]
    est += ["--placebo-outcomes", "w1", "--placebo-treatments", "z1"]
    fuzzy = [*est, "--design", "fuzzy", "--treatment", "a"]
    rdd = ["rdd", "--data", "{data}", "--cutoff", "0"]
    sim = ["simulate", "--n", "300", "--seed", "5", "--kappa", "4"]
    mc = ["mc", "--n", "2000", "--seed", "3", "--kappa", "4", "--reps", "6"]
    tiny = ["--bandwidth", "1e-9"]
    return [
        ("estimate", est),
        ("estimate-2", [*est, *tiny]),
        ("estimate-3", [*est, "--data", "{missing}"]),
        ("estimate-64", [*est, "--alpha", "7"]),
        ("fuzzy", fuzzy),
        ("fuzzy-2", [*fuzzy, *tiny]),
        ("fuzzy-3", [*fuzzy, "--treatment", "nosuch"]),
        ("fuzzy-64", [*fuzzy, "--design", "bogus"]),
        ("rdd", rdd),
        ("rdd-2", [*rdd, *tiny]),
        # every row lies left of the cutoff: the side check fails the run
        ("rdd-3", [*rdd, "--cutoff", "5"]),
        ("rdd-64", [*rdd, "--kernel", "bogus"]),
        ("simulate", [*sim, "--out", "{out}"]),
        ("simulate-3", [*sim, "--out", "{missing}"]),
        ("simulate-64", [*sim, "--n", "0"]),
        ("mc", mc),
        ("mc-2", [*mc, *tiny]),
        ("mc-3", [*mc, "--out", "{missing}"]),
        ("mc-64", [*mc, "--reps", "0"]),
    ]


@pytest.mark.parametrize("argv", [pytest.param(argv, id=name) for name, argv in _entry_cases()])
def test_python_m_pdd_matches_main_in_process(tmp_path, fuzzy_csvs, argv):
    def filled(out):
        names = {"data": fuzzy_csvs[0], "out": str(out), "missing": str(tmp_path / "no" / "x")}
        return [arg.format(**names) for arg in argv]

    code, out, err, written = _run_in_process(filled(tmp_path / "in.out"), tmp_path / "in.out")
    sub_out = tmp_path / "sub.out"
    proc = subprocess.run([sys.executable, "-m", "pdd", *filled(sub_out)], capture_output=True)
    sub_written = sub_out.read_bytes() if sub_out.exists() else None
    assert (proc.returncode, proc.stdout, proc.stderr.decode(), sub_written) == (
        code, out.encode(), err, written,
    )  # fmt: skip
    assert (written is not None) == ("{out}" in argv)


def test_python_m_pdd_and_the_console_script_run_one_entry_function(monkeypatch):
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    target = dict(line.split(" = ", 1) for line in scripts.strip().splitlines())["pdd"]
    module, name = target.strip('"').split(":")
    runs = []
    monkeypatch.setattr(pdd.cli, "entry", lambda: runs.append("entry"))
    runpy.run_module("pdd", run_name="__main__")  # python -m pdd
    getattr(importlib.import_module(module), name)()  # the console script
    assert runs == ["entry", "entry"]


def test_entry_freezes_the_collector_only_before_it_exits(monkeypatch, tmp_path):
    events = []
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(sys, "argv", ["pdd", "simulate", "--n", "0"])
    with pytest.raises(SystemExit) as exit_:
        pdd.cli.entry()
    assert (exit_.value.code, events) == (64, ["freeze"])
    # in-process callers of main keep collecting
    assert main(["simulate", "--n", "5", "--out", str(tmp_path / "s.csv")]) == 0
    assert events == ["freeze"]


def _sides_csv(path, left, at_cutoff, right, seed):
    """A fuzzy-design CSV whose running variable takes the values ``left``,
    then 0.0 ``at_cutoff`` times, then ``right``.
    """
    d = np.array([*left, *[0.0] * at_cutoff, *right], dtype=float)
    rng = np.random.default_rng(seed)
    n = d.size
    sample = pdd.Sample(
        d=d, y=rng.standard_normal(n), W=rng.standard_normal((n, 1)),
        Z=rng.standard_normal((n, 1)), a=rng.integers(0, 2, n).astype(float),
    )  # fmt: skip
    with path.open("w", newline="") as fh:
        pdd.write_csv(sample, fh)


LEFT_VALUES = st.lists(st.sampled_from([-0.9, -0.5, -0.2, -0.05]), max_size=8)
RIGHT_VALUES = st.lists(st.sampled_from([0.05, 0.2, 0.5, 0.9]), max_size=8)


@settings(max_examples=60, deadline=None)
@given(
    left=LEFT_VALUES,
    at_cutoff=st.integers(0, 3),
    right=RIGHT_VALUES,
    command=st.sampled_from(["estimate", "fuzzy", "rdd"]),
    bandwidth=st.sampled_from([None, "0.3", "1"]),
    seed=st.integers(0, 3),
)
@example(left=[], at_cutoff=0, right=[0.2, 0.5, 0.9] * 3, command="estimate",
         bandwidth=None, seed=0)  # an empty side; one-sided data
@example(left=[-0.5] * 6, at_cutoff=0, right=[0.05, 0.2, 0.5, 0.9] * 2, command="rdd",
         bandwidth="1", seed=1)  # one distinct value on a side
@example(left=[], at_cutoff=0, right=[0.5] * 9, command="rdd", bandwidth=None, seed=2)  # all d equal
@example(left=[-0.9, -0.5, -0.2] * 2, at_cutoff=2, right=[0.5], command="estimate",
         bandwidth="1", seed=3)  # a value at the cutoff and one strictly right of it
@example(left=[], at_cutoff=0, right=[0.5], command="estimate", bandwidth="1", seed=0)  # n = 1
@example(left=[-0.9, -0.5, -0.2] * 3, at_cutoff=0, right=[0.05, 0.2, 0.5] * 3,
         command="fuzzy", bandwidth="1", seed=1)  # both sides healthy
def test_the_deferred_side_check_matches_checking_first(
    tmp_path_factory, left, at_cutoff, right, command, bandwidth, seed
):  # fmt: skip
    path = tmp_path_factory.mktemp("sides") / "s.csv"
    _sides_csv(path, left, at_cutoff, right, seed)
    if command == "rdd":
        argv = ["rdd", "--data", str(path), "--cutoff", "0"]
    else:
        argv = list(estimate_args(path))
        if command == "fuzzy":
            argv += ["--design", "fuzzy", "--treatment", "a"]
    if bandwidth is not None:
        argv += ["--bandwidth", bandwidth]
    deferred = _run_in_process(argv, path.with_suffix(".none"))
    real = pdd.cli.run_estimate

    def checked_first(config, sample):
        sample.require_sides(config.cutoff)
        return real(config, sample)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pdd.cli, "run_estimate", checked_first)
        reference = _run_in_process(argv, path.with_suffix(".none"))
    assert deferred == reference
    code, out = reference[:2]
    if code in (2, 3):
        assert set(json.loads(out)) == {"error", "detail"}


def test_a_run_that_returns_never_checks_the_sides(monkeypatch, tmp_path, fuzzy_csvs):
    checked = []
    real = pdd.Sample.require_sides
    monkeypatch.setattr(
        pdd.Sample, "require_sides", lambda self, cutoff: checked.append(real(self, cutoff))
    )
    fuzzy = ["--design", "fuzzy", "--treatment", "a"]
    rdd = ["rdd", "--data", fuzzy_csvs[0], "--cutoff", "0"]
    for argv in (estimate_args(fuzzy_csvs[0]), estimate_args(fuzzy_csvs[0], *fuzzy), rdd):
        assert _run_in_process(list(argv), tmp_path / "none")[0] == 0
    assert checked == []
    # a failed run checks them once
    assert _run_in_process(["rdd", "--data", fuzzy_csvs[0], "--cutoff", "0",
                            "--bandwidth", "1e-9"], tmp_path / "none")[0] == 2  # fmt: skip
    assert checked == [None]


@pytest.mark.parametrize(
    "kernel, n_sides, warned",
    [
        ("window", (10, 26), {"left": "10.0", "right": "26.0"}),
        ("triangle", (10, 26), {"left": "8.1", "right": "19.0"}),
        # every row has positive gaussian weight, but few carry much of it
        ("gaussian", (168, 232), {"left": "17.8"}),
    ],
)
def test_small_side_warning_reads_the_kish_size(tmp_path, capsys, kernel, n_sides, warned):
    path = tmp_path / "s.csv"
    sample = pdd.simulate(pdd.DgpSpec(n=400, seed=3, kappa=4.0))
    with open(path, "w", newline="") as fh:
        pdd.write_csv(sample, fh)
    h = 0.15
    for side, rows in (("left", sample.d < 0.0), ("right", sample.d >= 0.0)):
        u = np.abs(sample.d[rows]) / h
        w = {"window": u <= 1.0, "triangle": np.maximum(1.0 - u, 0.0)}.get(kernel)
        w = np.exp(-u * u / 2) if w is None else w
        kish = w.sum() ** 2 / (w * w).sum()  # (sum w)^2 / sum w^2, any weight scale
        assert (kish < 30.0) == (side in warned)
        assert f"{kish:.1f}" == warned.get(side, f"{kish:.1f}")
    assert main([*estimate_args(path, "--kernel", kernel, "--bandwidth", str(h))]) == 0
    doc = json.loads(capsys.readouterr().out)
    # the counts of positive weights are unchanged
    assert (doc["n_left"], doc["n_right"]) == n_sides
    assert doc["warnings"] == [
        f"only {size} effective observations on the {side} side" for side, size in warned.items()
    ]


def test_simulate_warns_nothing_and_is_loadable(tmp_path):
    path = tmp_path / "s.csv"
    proc = run_cli("simulate", "--n", "50", "--seed", "2", "--out", str(path))
    assert proc.returncode == 0
    sample = pdd.load_csv(
        str(path), pdd.ColumnBindings(placebo_outcomes=("w1",), placebo_treatments=("z1",))
    )
    assert sample.n == 50


def test_exit_code_3_on_oversized_field(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("d,y,w1,z1\n0.1,1,2,3\n0.2," + "9" * 200_000 + ",2,3\n")
    proc = run_cli(*estimate_args(path))
    assert proc.returncode == 3, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "parse_error" and "row 2" in doc["detail"]
    assert proc.stderr == ""


def test_exit_code_3_on_non_utf8_input(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"d,y,w1,z1\n0.1,1,2,3\n0.2,caf\xe9,2,3\n")
    proc = run_cli(*estimate_args(path))
    assert proc.returncode == 3, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "parse_error" and "UTF-8" in doc["detail"]


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_closed_stdout_exits_3_without_traceback(sim_csv, command):
    # simulate fails while writing; estimate's small document fails at the final
    # flush, and would fail again at exit, if stdout is buffered as it is by default
    args = ("simulate", "--n", "20000") if command == "simulate" else estimate_args(sim_csv)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pdd", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(10 if command == "simulate" else 0)
    proc.stdout.close()
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert head == (b"d,y,w1,z1\n" if command == "simulate" else b"")
    assert code == 3 and err == b""


def _csv_body(rnd, n_rows, odd_rows):
    rows = [
        ",".join(repr(rnd.uniform(-2.0, 2.0)) for _ in range(4)) for _ in range(n_rows)
    ]
    for pos, row in odd_rows:
        rows.insert(pos, row)
    return "\n".join(rows)


ODD_CELL = st.sampled_from(["", "0", "1", "-1", "nan", "inf", "1e308", "5e-324", "x", '"'])
CSV_TEXT = st.one_of(
    st.text(alphabet="0123456789.-e,\n \"x", max_size=400),
    st.builds(
        _csv_body,
        st.randoms(use_true_random=False),
        st.integers(0, 80),
        st.lists(st.tuples(st.integers(0, 80), st.lists(ODD_CELL, max_size=5).map(",".join))),
    ),
).map(lambda body: "d,y,w1,z1\n" + body)


@settings(max_examples=150, deadline=None)
@given(
    data=st.one_of(st.binary(max_size=300), CSV_TEXT.map(str.encode)),
    command=st.sampled_from(["estimate", "rdd", "fuzzy"]),
    bandwidth=st.sampled_from([None, "0.5", "2"]),
)
# a placebo treatment of 1e308 at the cutoff: the right side's Schur
# complement is not finite, which its conditioning test rejects
@example(
    data=b"d,y,w1,z1\n0,0,0,1e308\n"
    + "".join(f"{d},0,0,0\n" for d in ["0"] * 5 + ["1", "0.25"] + ["0"] * 5 + ["-0.125", "-0.25"])
    .encode(),
    command="estimate",
    bandwidth=None,
)  # fmt: skip
# a Schur complement zero but for rounding, where Z'KW is exactly 0
@example(data=SCHUR_ROUNDING_CSV, command="estimate", bandwidth=None)
def test_any_input_bytes_keep_the_exit_code_contract(tmp_path_factory, data, command, bandwidth):
    path = tmp_path_factory.mktemp("fuzz") / "in.csv"
    path.write_bytes(data)
    if command == "rdd":
        argv = ["rdd", "--data", str(path), "--cutoff", "0"]
    else:
        argv = list(estimate_args(path))
        if command == "fuzzy":
            argv += ["--design", "fuzzy", "--treatment", "w1"]
    if bandwidth is not None:
        argv += ["--bandwidth", bandwidth]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # the flags are always valid, so 64 (bad flags) is never right
    assert code in (0, 2, 3), err.getvalue()
    doc = json.loads(out.getvalue())  # exactly one document: trailing data would raise
    assert ("error" in doc) == (code != 0)
