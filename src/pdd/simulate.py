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

A sample is made in two stages. The draw stage (``_draw_stage``) makes every
draw above, each over all n rows and in this order, and builds u, z and d.
The outcome stage (``_outcomes``) computes a, w and y from those draws on a
given set of rows: ``simulate`` runs it on every row and ``monte_carlo`` on
each replication's cut rows only. A row's a, w and y do not depend on which
other rows are computed, so every column is the same, bit for bit, either
way. ``dgp_truth`` reads only u and d, so it makes only the draw stage's
first draws, those of u, z and d (``_running_variable``), and no outcome.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Any

import numpy as np

from . import _forked
from .errors import PddError
from .estimator import _strong_first_stage
from .inference import _views, fit_block, rule_of_thumb_bandwidth
from .io import Sample, _require_valid_alpha_and_b
from .kernels import CHUNK_ROWS, KernelSpec, _cut_rows

#: Seed offset separating the oracle stream from replication streams, which
#: use base_seed + replication index.
TRUTH_SEED_OFFSET = 1_000_003

#: Rows of cut samples ``monte_carlo`` gathers before it fits them together.
#: A block holds its input columns, 32 bytes a row with one placebo pair
#: (40 with a fuzzy design's treatment), and its fit holds a few windows of
#: tables (``local_fit._windows``), so this budget bounds a block's memory
#: whatever ``reps`` and ``n``.
BLOCK_ROWS = 1 << 16

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
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
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
    """The columns of one sample: the draw stage, then the outcome stage on
    every row, a chunk of ``kernels.CHUNK_ROWS`` rows at a time.

    Each chunk's outcomes are written over the noise they are made from, and
    the sharp design's ``a`` takes one new row, so the draw holds no more
    full-length rows than the recipe's columns.
    """
    draws = _draw_stage(spec, spec.seed)
    a = draws["a"] if spec.design != "sharp" else np.empty(spec.n)
    y, w = draws["y"], draws["w"]
    for start in range(0, spec.n, CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        _outcomes(spec, draws, rows, y[rows], w[rows], a[rows])
    return {"u": draws["u"], "z": draws["z"], "d": draws["d"], "a": a, "w": w, "y": y}


def _draw_stage(spec: DgpSpec, seed: int) -> dict[str, np.ndarray]:
    """Every draw of the sample of ``spec`` at ``seed``, each whole-length
    and in the recipe's order: ``u``, ``z`` and the running variable ``d``
    with its flips (``_running_variable``), then the fuzzy design's uniform
    draw of ``a`` (key ``"a"``) and the standard normal noise of ``w`` and
    ``y`` (keys ``"w"`` and ``"y"``), unscaled; ``_outcomes`` makes those
    three columns. ``w``'s noise is drawn into the row that held ``d``'s.
    """
    rng = np.random.default_rng(seed)
    u, z, d, w = _running_variable(spec, rng)
    draws = {"u": u, "z": z, "d": d}
    if spec.design != "sharp":
        draws["a"] = rng.random(spec.n)
    draws["w"] = rng.standard_normal(spec.n, out=w)
    draws["y"] = rng.standard_normal(spec.n)
    return draws


def _running_variable(spec: DgpSpec, rng: np.random.Generator):
    """The first draws of a sample from ``rng``: ``(u, z, d, noise)``, with
    ``d`` the running variable after its flips and ``noise`` the row that
    held ``d``'s noise, free for reuse. ``dgp_truth`` makes no other draw.

    Each column is built in place. IEEE sums and products commute, so ``z
    = N; z *= noise_z; z += u`` is ``u + noise_z * N`` bit for bit, and
    every column equals the recipe's expression evaluated left to right.
    The sorting probability is computed on the rows in the window only; the
    uniform draw it is compared with is still made for every row.
    """
    n, cutoff = spec.n, spec.cutoff
    u = rng.standard_normal(n)
    z = rng.standard_normal(n)
    z *= spec.noise_z
    z += u
    d = np.multiply(z, spec.instrument_strength)
    d += cutoff
    noise = rng.standard_normal(n)
    noise *= spec.noise_d
    d += noise
    if spec.kappa > 0:
        window = np.flatnonzero((d > cutoff - spec.window) & (d < cutoff))
        sort_prob = np.multiply(u[window], -spec.kappa)
        np.exp(sort_prob, out=sort_prob)
        sort_prob += 1.0
        np.divide(1.0, sort_prob, out=sort_prob)
        flip = window[rng.random(n)[window] < sort_prob]
        d[flip] = 2.0 * cutoff - d[flip]
    return u, z, d, noise


def _outcomes(
    spec: DgpSpec,
    draws: dict[str, np.ndarray],
    rows: slice | np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    a: np.ndarray | None = None,
) -> None:
    """Write the outcome ``y``, the placebo outcome ``w`` and, where given,
    the treatment ``a`` of the rows ``rows`` (a slice or an index array) of
    ``_draw_stage``'s ``draws`` into ``y``, ``w`` and ``a``.

    Every draw is read before it is written over, so the outputs may be the
    draws' own rows. The sharp treatment enters ``y`` as the mask ``d >=
    cutoff``: ``tau0`` times a bool is ``tau0`` times its 0.0 or 1.0.
    """
    d, u = draws["d"][rows], draws["u"][rows]
    treated = np.greater_equal(d, spec.cutoff)
    if spec.design == "sharp":
        if a is not None:
            a[...] = treated
    else:
        prob = np.multiply(treated, spec.compliance)
        prob += (1.0 - spec.compliance) / 2.0
        treated = np.less(draws["a"][rows], prob, out=a)
    y_noise = np.multiply(draws["y"][rows], spec.noise_y)
    rel = np.subtract(d, spec.cutoff)
    np.square(rel, out=y)
    y *= spec.curvature
    y += np.multiply(treated, spec.tau0)
    y += rel
    y += u
    y += y_noise
    np.multiply(draws["w"][rows], spec.noise_w, out=w)
    w += np.multiply(u, spec.proxy_loading)


def _require_finite_draw(sample: Sample) -> None:
    """Raise ValueError naming the first drawn column of ``sample`` that is
    not finite: scenario fields that are each finite can still overflow the
    draw.
    """
    for name, column in zip(("d", "y", "w1", "z1"), (sample.d, sample.y, sample.W, sample.Z)):
        if not np.isfinite(column).all():
            raise ValueError(f"the drawn column {name} is not finite: the scenario overflows")


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
    """Measure the scenario's confounding jump by large-sample binning; a
    negative ``seed`` raises ValueError before the draw.
    """
    if bin_width is None:
        bin_width = spec.window / 10.0
    seed = spec.seed + TRUTH_SEED_OFFSET if seed is None else seed
    oracle = replace(spec, n=oracle_n, seed=seed)  # checks the seed before the draw
    u, _, d, _ = _running_variable(oracle, np.random.default_rng(seed))

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
    outcome. ``coverage`` is the fraction of intervals containing tau0,
    and ``coverage_se`` its Monte Carlo standard error at the nominal level,
    ``sqrt(alpha (1 - alpha) / kept)`` over the ``kept`` replications that
    did not fail: unlike the plug-in form at the observed coverage, it is
    not 0 where every interval covers. Fuzzy runs report first-stage and
    ratio statistics instead of interval columns.
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
    coverage_se: float | None = None
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
            out["coverage_se"] = self.coverage_se
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
    counted, not fatal; where every replication fails, PddError says so.
    Before it, replication 0's sample is drawn again and checked: where its
    finite scenario fields overflow a drawn column, ValueError names that
    column, as ``pdd simulate`` does. A study with a replication that
    succeeds draws nothing again. A negative ``base_seed``, an ``alpha``
    outside (0, 1) or a given bias bandwidth below a tenth of ``h`` raises
    ValueError before the first draw, whatever the design; a bias bandwidth
    below a tenth of a rule-of-thumb ``h`` raises before that replication's
    fit.
    Aggregation runs in replication order, so the report is deterministic
    given the base seed.

    Each replication makes its sample's draws (``_draw_stage``), takes its
    bandwidths from ``d`` and cuts the rows within ``max(h, b)`` of the
    cutoff, left side first, by the single fit's own cut decision
    (``kernels._cut_rows``), so its cut rows are the ones that fit reads,
    in the same order. It gathers those rows' ``d`` and ``z`` and computes
    their outcomes (``_outcomes``) straight into the columns of a block, so
    a row outside the cut gets no ``a``, ``y`` or ``w``. Once the columns
    hold ``BLOCK_ROWS`` rows, their replications are fitted in one pass
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
    and only while each draws at least ``_forked.WORKER_ROWS`` (131072) rows
    (``reps * n``), so a small study, a process running other Python
    threads and any other platform run in this process alone. Replication
    r draws from its own seed and each fit in a block is its own, so the
    report is the same, bit for bit, at any worker count. Where a worker cannot be made
    (``os.fork`` or ``os.pipe`` fails), dies, raises or sends nothing, this
    process runs its range itself, so the report, or the error of the
    lowest failing range, is the one a single process gives. No child
    outlives the call, whether it returns or raises.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    if base_seed < 0:
        raise ValueError("base_seed must be nonnegative")
    _require_valid_alpha_and_b(alpha, h, b)
    replicate = partial(
        _replicate, spec=spec, base_seed=base_seed, kernel=kernel or KernelSpec(), h=h, b=b,
        alpha=alpha,
    )  # fmt: skip
    workers = _forked.workers(min(reps, reps * spec.n // _forked.WORKER_ROWS))
    results = _in_workers(replicate, reps, workers)
    if not results:
        # a draw that overflows fails every replication: name its column
        _require_finite_draw(simulate(replace(spec, seed=base_seed)))
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
        coverage_se=math.sqrt(alpha * (1.0 - alpha) / covered.size),
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

    Replication r's draws are made at seed ``base_seed + r`` of ``spec``;
    only its cut rows get outcomes, each written into the block.
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
        draws = _draw_stage(spec, base_seed + r)
        d = draws["d"]
        try:
            h_r = h if h is not None else rule_of_thumb_bandwidth(d)
            b_r = b if b is not None else h_r
            _require_valid_alpha_and_b(alpha, h_r, b_r)
        except PddError:
            continue
        rows, k = _cut_rows(d, spec.cutoff, max(h_r, b_r), kernel)
        rows = np.arange(d.size) if rows is None else rows
        if not 0 < k < rows.size:  # a side without rows fails the support test
            continue
        gathered = block_columns[:, block_rows : block_rows + rows.size]
        # in range; "clip" writes to out directly
        np.take(d, rows, out=gathered[0], mode="clip")
        np.take(draws["z"], rows, out=gathered[-1], mode="clip")
        _outcomes(spec, draws, rows, *gathered[1:-1])
        block.append((r, k, rows.size, h_r, b_r))
        block_rows += rows.size
        if block_rows >= BLOCK_ROWS:
            results.update(fit(block, block_columns[:, :block_rows]))
            block, block_rows = [], 0
    if block:
        results.update(fit(block, block_columns[:, :block_rows]))
    return results


def _in_workers(
    replicate: Callable[[int, int], dict[int, tuple[float, ...]]], reps: int, workers: int
) -> dict[int, tuple[float, ...]]:
    """``replicate(0, reps)``, split into ``workers`` contiguous ranges.

    The ranges are tasks dealt in turn to this process, which runs the
    first, and to a forked child each (``_forked.fork_each``), which sends
    its range's results as one item. They are taken and merged in range
    order (``_forked.take``): this process runs the range of a child that
    could not be made, died, raised or sent nothing, so the first range to
    fail raises the error one run over every replication would first meet.
    No child outlives the call, whether it returns or raises.
    """
    bounds = [reps * i // workers for i in range(workers + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    children: list[_forked.Worker | None] = []
    try:
        _forked.fork_each(children, (partial(map, replicate, [lo], [hi]) for lo, hi in ranges[1:]))
        results: dict[int, tuple[float, ...]] = {}
        for index, (lo, hi) in enumerate(ranges):
            results.update(_forked.take(children, index, partial(replicate, lo, hi)))
        return results
    finally:
        _forked.stop(children)


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
    ``fit_block`` call, whose result holds one entry per replication in
    each field. A replication the block flags fails, as its single fit
    would, and so does a fuzzy one whose first stage, the point estimate's
    ``tau_rdd_a``, is too weak to divide by. The naive discontinuity is the
    point estimate's ``tau_rdd_y``. Returns, for each replication that did
    not fail, its estimate, naive discontinuity, ``h``, ``b``, then the first
    stage (fuzzy, which divides the two estimates) or the bias-corrected
    estimate, standard error and whether the interval covers ``tau0``
    (sharp).
    """
    counts = np.array([c for _, k, size, _, _ in block for c in (k, size - k)])
    _, _, _, hs, bs = zip(*block)
    ok, fit = fit_block(
        _views(columns[0], columns[1:-1], columns[-1:]), counts, spec.cutoff, np.array(hs),
        np.array(bs), kernel, spec.n, alpha,
    )  # fmt: skip
    tau, naive = fit.tau_pdd, fit.point.tau_rdd_y
    if spec.design == "sharp":
        covered = (fit.ci_lower <= spec.tau0) & (spec.tau0 <= fit.ci_upper)
        rest = (fit.tau_pdd_bc, fit.se, covered)
    else:
        first = fit.point.tau_rdd_a
        ok = ok & _strong_first_stage(first)
        with np.errstate(all="ignore"):  # a failed replication's ratios mean nothing
            tau, naive = tau / first, naive / first
        rest = (first,)
    return {
        r: (tau[i], naive[i], h_r, b_r, *(x[i] for x in rest))
        for i, (r, _, _, h_r, b_r) in enumerate(block)
        if ok[i]
    }
