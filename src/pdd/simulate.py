"""Structural data-generating processes with a known true effect.

The generative recipe, in draw order (one seeded PCG64 stream per sample):

    u      ~ N(0, 1)                                confounder
    z      = u + noise_z * N(0, 1)                  placebo treatment
    d_raw  = cutoff + instrument_strength * z + noise_d * N(0, 1)
    d      = d_raw, except that draws landing in (cutoff - window, cutoff)
             are reflected to cutoff + (cutoff - d_raw) with probability
             logistic(kappa * u)  (strategic sorting, increasing in u;
             skipped entirely when kappa == 0)
    a      = 1{d >= cutoff}                          sharp design
           | Bernoulli((1 - pi)/2 + pi * 1{d >= cutoff})   fuzzy design
    w      = proxy_loading * u + noise_w * N(0, 1)   placebo outcome
    y      = tau0 * a + curvature * (d - cutoff)^2 + (d - cutoff)
             + u + noise_y * N(0, 1)

Reflection moves probability mass from just below the cutoff to just above it
at a rate increasing in the confounder, so the conditional mean of u given d
jumps upward at the cutoff while total mass is preserved and both sides keep
positive density. With kappa == 0 nothing is moved and the design is a valid
standard discontinuity. The adjustment weights' population value is
1 / proxy_loading.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Any

import numpy as np

from .errors import PddError
from .estimator import _strong_first_stage
from .inference import fit_block, rule_of_thumb_bandwidth
from .io import Sample, _require_valid_alpha_and_b
from .kernels import KernelSpec, support_rows

#: Seed offset separating the oracle stream from replication streams, which
#: use base_seed + replication index.
TRUTH_SEED_OFFSET = 1_000_003

#: Rows of cut samples ``monte_carlo`` gathers before it fits them together.
#: A block holds its input columns, 32 bytes a row with one placebo pair
#: (40 with a fuzzy design's treatment), and its fit holds a few windows of
#: tables (``local_fit._windows``), so this budget bounds a block's memory
#: whatever ``reps`` and ``n``.
BLOCK_ROWS = 1 << 16

#: Drawn rows (``reps * n``) each worker process of ``monte_carlo`` must
#: get before a study is split: below about this many, forking a worker and
#: reading back its results costs more than the rows it takes off this
#: process.
WORKER_ROWS = 1 << 17

#: Scenario designs ``DgpSpec`` accepts.
DGP_DESIGNS = ("sharp", "fuzzy_homogeneous")

#: Converter of each ``DgpSpec`` field type, keyed by its annotation.
FIELD_CASTERS = {"int": int, "float": float, "str": str}


@dataclass(frozen=True)
class DgpSpec:
    """Configuration of one structural scenario.

    Defaults give the calibration scenario used across the test suite except
    that manipulation is off (``kappa = 0``); noise scales are calibration
    choices, not structural requirements.
    """

    n: int
    seed: int
    tau0: float = 1.0
    cutoff: float = 0.0
    kappa: float = 0.0
    window: float = 0.5
    proxy_loading: float = 1.0
    instrument_strength: float = 1.0
    noise_z: float = 0.25
    noise_d: float = 0.8
    noise_w: float = 1.0
    noise_y: float = 1.0
    design: str = "sharp"
    compliance: float = 0.6
    curvature: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("sample size must be at least 1")
        if self.kappa < 0:
            raise ValueError("manipulation strength must be nonnegative")
        if not self.window > 0:
            raise ValueError("manipulation window must be positive")
        if self.proxy_loading == 0:
            raise ValueError("proxy loading must be nonzero")
        if self.design not in DGP_DESIGNS:
            raise ValueError("design must be 'sharp' or 'fuzzy_homogeneous'")
        if not 0.0 < self.compliance <= 1.0:
            raise ValueError("compliance jump must lie in (0, 1]")
        for name in ("noise_z", "noise_d", "noise_w", "noise_y"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")

    def to_mapping(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _draw(spec: DgpSpec) -> dict[str, np.ndarray]:
    """The columns of one sample, drawn in the recipe's order.

    Each column is built in place, with one scratch row for the draws and
    terms that no column keeps. IEEE sums and products commute, so
    ``z = N; z *= noise_z; z += u`` is ``u + noise_z * N`` bit for bit, and
    every column equals the recipe's expression evaluated left to right;
    the draws come in the recipe's order.
    """
    rng = np.random.default_rng(spec.seed)
    n, cutoff = spec.n, spec.cutoff
    scratch = np.empty(n)
    u = rng.standard_normal(n)
    z = rng.standard_normal(n)
    z *= spec.noise_z
    z += u
    d = np.multiply(z, spec.instrument_strength)
    d += cutoff
    d += _scaled_normal(rng, spec.noise_d, scratch)
    if spec.kappa > 0:
        in_window = (d > cutoff - spec.window) & (d < cutoff)
        sort_prob = np.multiply(u, -spec.kappa, out=scratch)
        np.exp(sort_prob, out=sort_prob)
        sort_prob += 1.0
        np.divide(1.0, sort_prob, out=sort_prob)
        flip = in_window & (rng.random(n) < sort_prob)
        d[flip] = 2.0 * cutoff - d[flip]
    above = d >= cutoff
    if spec.design == "sharp":
        a = above.astype(float)
    else:
        prob = np.multiply(above, spec.compliance, out=scratch)
        prob += (1.0 - spec.compliance) / 2.0
        a = (rng.random(n) < prob).astype(float)
    # the terms of y that take no draw are summed first, with w's row as
    # scratch, so that no third row is needed
    w = np.empty(n)
    rel = np.subtract(d, cutoff, out=scratch)
    y = np.square(rel)
    y *= spec.curvature
    y += np.multiply(a, spec.tau0, out=w)
    y += rel
    y += u
    w = _scaled_normal(rng, spec.noise_w, w)
    w += np.multiply(u, spec.proxy_loading, out=scratch)
    y += _scaled_normal(rng, spec.noise_y, scratch)
    return {"u": u, "z": z, "d": d, "a": a, "w": w, "y": y}


def _scaled_normal(rng: np.random.Generator, scale: float, out: np.ndarray) -> np.ndarray:
    """``scale`` times standard normal draws, written into ``out``."""
    rng.standard_normal(out.size, out=out)
    out *= scale
    return out


def simulate(spec: DgpSpec) -> Sample:
    """Draw one sample; bit-identical for identical spec and seed."""
    cols = _draw(spec)
    return Sample(
        d=cols["d"],
        y=cols["y"],
        W=cols["w"][:, None],
        Z=cols["z"][:, None],
        a=cols["a"] if spec.design != "sharp" else None,
    )


@dataclass(frozen=True)
class DgpTruth:
    """Ground truth of a scenario.

    ``confounding_jump`` is the discontinuity of E[u | d] at the cutoff,
    measured on a large oracle draw with two bins per side and linear
    extrapolation of the bin means to the cutoff (a single bin would absorb
    slope bias of order the bin width). It is the bias a plain discontinuity
    estimate of the outcome absorbs.
    """

    tau0: float
    gamma_minus_true: float
    confounding_jump: float


def dgp_truth(
    spec: DgpSpec,
    oracle_n: int = 1_000_000,
    bin_width: float | None = None,
    seed: int | None = None,
) -> DgpTruth:
    """Measure the scenario's confounding jump by large-sample binning."""
    if bin_width is None:
        bin_width = spec.window / 10.0
    if seed is None:
        seed = spec.seed + TRUTH_SEED_OFFSET
    big = replace(spec, n=oracle_n, seed=seed)
    cols = _draw(big)
    d, u = cols["d"], cols["u"]

    def boundary_mean(side: int) -> float:
        # bin means at distances (0, w) and (w, 2w) from the cutoff,
        # linearly extrapolated from the bin centers to the boundary
        rel = side * (d - spec.cutoff)
        near = (rel >= 0.0) & (rel < bin_width) if side > 0 else (rel > 0.0) & (rel <= bin_width)
        far = (rel >= bin_width) & (rel < 2.0 * bin_width)
        if not near.any() or not far.any():
            raise ValueError("oracle draw left a cutoff bin empty; widen the bin")
        return float(1.5 * u[near].mean() - 0.5 * u[far].mean())

    jump = boundary_mean(+1) - boundary_mean(-1)
    return DgpTruth(
        tau0=spec.tau0,
        gamma_minus_true=1.0 / spec.proxy_loading,
        confounding_jump=jump,
    )


@dataclass(frozen=True)
class McReport:
    """Aggregate of a Monte Carlo run.

    Point-estimate rows cover the placebo-adjusted estimate, its
    bias-corrected version, and the naive unadjusted discontinuity of the
    outcome. ``coverage`` is the fraction of intervals containing tau0;
    fuzzy runs report first-stage and ratio statistics instead of interval
    columns.
    """

    design: str
    reps: int
    n_failed: int
    tau0: float
    base_seed: int
    mean_h: float
    mean_b: float
    alpha: float
    mean_estimate: float
    bias: float
    rmse: float
    sd: float
    naive_mean: float
    naive_bias: float
    naive_rmse: float
    naive_sd: float
    mean_estimate_bc: float | None = None
    bias_bc: float | None = None
    rmse_bc: float | None = None
    sd_bc: float | None = None
    mean_se: float | None = None
    coverage: float | None = None
    mean_first_stage: float | None = None
    spec: dict[str, Any] = field(default_factory=dict)

    def to_mapping(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "design": self.design,
            "reps": self.reps,
            "n_failed": self.n_failed,
            "tau0": self.tau0,
            "base_seed": self.base_seed,
            "mean_h": self.mean_h,
            "mean_b": self.mean_b,
            "alpha": self.alpha,
            "estimate": {
                "mean": self.mean_estimate,
                "bias": self.bias,
                "rmse": self.rmse,
                "sd": self.sd,
            },
            "naive_rdd_y": {
                "mean": self.naive_mean,
                "bias": self.naive_bias,
                "rmse": self.naive_rmse,
                "sd": self.naive_sd,
            },
        }
        if self.mean_estimate_bc is not None:
            out["estimate_bc"] = {
                "mean": self.mean_estimate_bc,
                "bias": self.bias_bc,
                "rmse": self.rmse_bc,
                "sd": self.sd_bc,
            }
            out["mean_se"] = self.mean_se
            out["coverage"] = self.coverage
        if self.mean_first_stage is not None:
            out["mean_first_stage"] = self.mean_first_stage
        out["spec"] = dict(self.spec)
        return out


def _summary(values: np.ndarray, tau0: float) -> tuple[float, float, float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    bias = mean - tau0
    rmse = float(np.sqrt(np.mean((arr - tau0) ** 2)))
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, bias, rmse, sd


def monte_carlo(
    spec: DgpSpec,
    reps: int,
    base_seed: int,
    kernel: KernelSpec | None = None,
    h: float | None = None,
    b: float | None = None,
    alpha: float = 0.05,
) -> McReport:
    """Replicate simulate-and-estimate ``reps`` times and aggregate.

    Replication r draws with seed ``base_seed + r``. Estimator failures are
    counted, not fatal. An ``alpha`` outside (0, 1) or a given bias
    bandwidth below a tenth of ``h`` raises ValueError before the first
    draw, whatever the design; a bias bandwidth below a tenth of a
    rule-of-thumb ``h`` raises before that replication's fit.
    Aggregation runs in replication order, so the report is deterministic
    given the base seed.

    Each replication draws its sample, takes its bandwidths and gathers the
    sample's rows within ``max(h, b)`` of the cutoff, left side first,
    straight into the columns of a block. Once those hold ``BLOCK_ROWS``
    rows, their replications are fitted in one pass
    (``inference.fit_block``), which sums each side as its single fit does,
    however long, and takes each outcome's residual about its side's
    bias-corrected intercept, as ``inference.robust_variance`` does. A
    replication that fails a check in the block is counted as failed, as is
    a cut with no rows on a side: each fails where its single fit
    (``bias_corrected_estimate``) would. The fuzzy design's treatment ``a``
    is one more fitted row of the block: its jump is the first stage, and
    the estimate and naive discontinuity are divided by it. A fuzzy
    replication fails where ``pdd estimate --design fuzzy`` would:
    ``bias_corrected_estimate``, then ``estimate_fuzzy``, which also fails a
    first stage within ``FIRST_STAGE_MIN`` of zero.

    The replications are split into contiguous ranges, one per worker
    process: this process runs the first range and a child forked with
    ``os.fork`` runs each other one, sending its results back pickled
    through a pipe. There is one worker per available CPU, on Linux only,
    and only while each draws at least ``WORKER_ROWS`` (131072) rows
    (``reps * n``), so a small study, a process running other threads and
    any other platform run in this process alone. Replication r draws from
    its own seed and each fit in a block is its own, so the report is the
    same, bit for bit, at any worker count. An error a worker raises is
    raised here with its type and message; where several ranges fail, the
    lowest range's error wins, the one a single process would meet first.
    A worker that ends without a result raises OSError. No child outlives
    the call, whether it returns or raises.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    _require_valid_alpha_and_b(alpha, h, b)
    replicate = partial(
        _replicate, spec=spec, base_seed=base_seed, kernel=kernel or KernelSpec(), h=h, b=b,
        alpha=alpha,
    )  # fmt: skip
    results = _in_workers(replicate, reps, _workers(reps, spec.n))
    if not results:
        raise PddError(f"all {reps} replications failed")

    columns = zip(*(results[r] for r in sorted(results)))
    estimates, naive, hs, bs, *rest = (np.array(column, dtype=float) for column in columns)
    mean, bias, rmse, sd = _summary(estimates, spec.tau0)
    naive_mean, naive_bias, naive_rmse, naive_sd = _summary(naive, spec.tau0)
    report = McReport(
        design=spec.design,
        reps=reps,
        n_failed=reps - len(results),
        tau0=spec.tau0,
        base_seed=base_seed,
        mean_h=float(np.mean(hs)),
        mean_b=float(np.mean(bs)),
        alpha=alpha,
        mean_estimate=mean,
        bias=bias,
        rmse=rmse,
        sd=sd,
        naive_mean=naive_mean,
        naive_bias=naive_bias,
        naive_rmse=naive_rmse,
        naive_sd=naive_sd,
        spec=spec.to_mapping(),
    )
    if spec.design == "fuzzy_homogeneous":
        (first_stage,) = rest
        return replace(report, mean_first_stage=float(np.mean(first_stage)))
    estimates_bc, ses, covered = rest
    mean_bc, bias_bc, rmse_bc, sd_bc = _summary(estimates_bc, spec.tau0)
    return replace(
        report,
        mean_estimate_bc=mean_bc,
        bias_bc=bias_bc,
        rmse_bc=rmse_bc,
        sd_bc=sd_bc,
        mean_se=float(np.mean(ses)),
        coverage=float(np.mean(covered)),
    )


def _replicate(
    lo: int,
    hi: int,
    spec: DgpSpec,
    base_seed: int,
    kernel: KernelSpec,
    h: float | None,
    b: float | None,
    alpha: float,
) -> dict[int, tuple[float, ...]]:
    """Draw and fit replications ``lo`` to ``hi - 1``; returns, for each one
    that did not fail, its estimate, naive estimate, ``h``, ``b``, then the
    first stage (fuzzy) or the bias-corrected estimate, se and coverage
    (sharp).
    """
    results: dict[int, tuple[float, ...]] = {}
    # d, y, w, the fuzzy design's a and z of the gathered cuts, one row each,
    # so that the outcome rows S = [y, w, a] and Z are views of the block; a
    # block is fitted once it reaches the budget, so it holds fewer than
    # BLOCK_ROWS + n rows
    block_rows_max = min((hi - lo) * spec.n, BLOCK_ROWS + spec.n - 1)
    block_columns = np.empty((4 + (spec.design != "sharp"), block_rows_max))
    block: list[tuple[int, int, int, float, float]] = []  # (r, k, rows, h, b)
    block_rows = 0
    fit = partial(_fit_replications, spec=spec, kernel=kernel, alpha=alpha)
    for r in range(lo, hi):
        sample = simulate(replace(spec, seed=base_seed + r))
        try:
            h_r = h if h is not None else rule_of_thumb_bandwidth(sample.d)
            b_r = b if b is not None else h_r
            _require_valid_alpha_and_b(alpha, h_r, b_r)
        except PddError:
            continue
        rows, k = support_rows(sample.d, spec.cutoff, max(h_r, b_r), kernel)
        if not 0 < k < rows.size:  # a side without rows fails the support test
            continue
        gathered = block_columns[:, block_rows : block_rows + rows.size]
        columns = (sample.d, sample.y, sample.W[:, 0], sample.a, sample.Z[:, 0])
        for out, column in zip(gathered, [c for c in columns if c is not None]):
            np.take(column, rows, out=out, mode="clip")  # in range; "clip" writes to out directly
        block.append((r, k, rows.size, h_r, b_r))
        block_rows += rows.size
        if block_rows >= BLOCK_ROWS:
            results.update(fit(block, block_columns[:, :block_rows]))
            block, block_rows = [], 0
    if block:
        results.update(fit(block, block_columns[:, :block_rows]))
    return results


def _workers(reps: int, n: int) -> int:
    """Processes to run ``reps`` replications of ``n`` rows in: one per
    available CPU on Linux, as long as each draws at least ``WORKER_ROWS``
    rows, else one. A process running other threads is not forked, since a
    lock one of them holds would stay locked in the child.
    """
    if not sys.platform.startswith("linux") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), reps, reps * n // WORKER_ROWS))


def _in_workers(
    replicate: Callable[[int, int], dict[int, tuple[float, ...]]], reps: int, workers: int
) -> dict[int, tuple[float, ...]]:
    """``replicate(0, reps)``, split into ``workers`` contiguous ranges.

    This process runs the first range and a forked child each other one.
    The results are merged in range order, and the first range to fail
    raises its error, as one run over every replication would first meet
    it. No child outlives the call, whether it returns or raises.
    """
    bounds = [reps * i // workers for i in range(workers + 1)]
    children: list[tuple[int, int, int, int]] = []  # (pid, read end, lo, hi), not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            children.append((*_fork(replicate, lo, hi), lo, hi))
        results = replicate(bounds[0], bounds[1])
        while children:
            results.update(_collect(*children.pop(0)))
        return results
    finally:
        for pid, read_end, _, _ in children:  # this process raised: their results go unread
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork(replicate: Callable, lo: int, hi: int) -> tuple[int, int]:
    """Fork a child that pickles ``replicate(lo, hi)``, or the exception it
    raised, into a pipe; returns the child's pid and the pipe's read end.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    # the child leaves through os._exit, so that neither the caller's frames
    # nor its buffered output, exit hooks and finally clauses run twice
    code = 1
    try:
        os.close(read_end)
        try:
            outcome = (True, replicate(lo, hi))
        except Exception as exc:
            outcome = (False, exc)
        with open(write_end, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


def _collect(pid: int, read_end: int, lo: int, hi: int) -> dict[int, tuple[float, ...]]:
    """Read and reap the child forked for replications ``lo`` to ``hi - 1``;
    returns its results or raises its error. A child that ended without a
    result raises OSError.
    """
    try:
        with open(read_end, "rb") as pipe:
            payload = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0:
        raise OSError(
            f"the worker process for replications {lo} to {hi - 1} ended without a result "
            f"(exit status {os.waitstatus_to_exitcode(status)})"
        )
    succeeded, value = pickle.loads(payload)
    if not succeeded:
        raise value
    return value


def _fit_replications(
    block: list[tuple[int, int, int, float, float]],
    columns: np.ndarray,
    spec: DgpSpec,
    kernel: KernelSpec,
    alpha: float,
) -> dict[int, tuple[float, ...]]:
    """Fit a block of replications ``(r, k, cut rows, h, b)`` whose cut
    samples fill ``columns`` (``d``, ``y``, ``w``, the fuzzy design's ``a``,
    ``z``) one after another, each with its ``k`` left rows first, in one
    ``fit_block`` call. A replication the block flags fails, as its single
    fit would, and so does a fuzzy one whose first stage, the jump of ``a``,
    is too weak to divide by. Returns, for each replication that did not
    fail, its estimate, naive discontinuity, ``h``, ``b``, then the first
    stage (fuzzy, which divides the two estimates) or the bias-corrected
    estimate, standard error and whether the interval covers ``tau0``
    (sharp).
    """
    counts = np.array([c for _, k, size, _, _ in block for c in (k, size - k)])
    _, _, _, hs, bs = zip(*block)
    ok, tau, jumps, tau_bc, se, lower, upper = fit_block(
        columns[0], columns[1:-1], columns[-1:], counts, spec.cutoff, np.array(hs),
        np.array(bs), kernel, spec.n, alpha,
    )  # fmt: skip
    naive = jumps[:, 0]
    if spec.design == "sharp":
        rest = (tau_bc, se, (lower <= spec.tau0) & (spec.tau0 <= upper))
    else:
        first = jumps[:, -1]
        ok &= _strong_first_stage(first)
        with np.errstate(all="ignore"):  # a failed replication's ratios mean nothing
            tau, naive = tau / first, naive / first
        rest = (first,)
    return {
        r: (tau[i], naive[i], h_r, b_r, *(x[i] for x in rest))
        for i, (r, _, _, h_r, b_r) in enumerate(block)
        if ok[i]
    }
