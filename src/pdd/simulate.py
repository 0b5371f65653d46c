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
from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from .errors import PddError
from .estimator import estimate_fuzzy
from .inference import _fit_block, bias_corrected_estimate, rule_of_thumb_bandwidth
from .io import Sample, _require_valid_alpha_and_b, _require_valid_variance_mode
from .kernels import KernelSpec, support_rows

#: Seed offset separating the oracle stream from replication streams, which
#: use base_seed + replication index.
TRUTH_SEED_OFFSET = 1_000_003

#: Rows of cut samples ``monte_carlo`` gathers before it fits them together:
#: a fixed budget bounds a block's memory whatever ``reps`` and ``n``, and
#: larger blocks gained no speed at n = 5000.
BLOCK_ROWS = 4096

#: Most cut rows of a replication that joins a block; a larger cut is fitted
#: alone, as a block of one such cut was no faster (gaussian kernel,
#: n = 20000) and its memory grows with the cut.
SOLO_ROWS = 4 * BLOCK_ROWS

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
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    u = rng.standard_normal(n)
    z = u + spec.noise_z * rng.standard_normal(n)
    d_raw = spec.cutoff + spec.instrument_strength * z + spec.noise_d * rng.standard_normal(n)
    d = d_raw.copy()
    if spec.kappa > 0:
        in_window = (d_raw > spec.cutoff - spec.window) & (d_raw < spec.cutoff)
        sort_prob = 1.0 / (1.0 + np.exp(-spec.kappa * u))
        flip = in_window & (rng.random(n) < sort_prob)
        d[flip] = 2.0 * spec.cutoff - d_raw[flip]
    if spec.design == "sharp":
        a = (d >= spec.cutoff).astype(float)
    else:
        base = (1.0 - spec.compliance) / 2.0
        prob = base + spec.compliance * (d >= spec.cutoff)
        a = (rng.random(n) < prob).astype(float)
    w = spec.proxy_loading * u + spec.noise_w * rng.standard_normal(n)
    rel = d - spec.cutoff
    y = (
        spec.tau0 * a
        + spec.curvature * rel**2
        + rel
        + u
        + spec.noise_y * rng.standard_normal(n)
    )
    return {"u": u, "z": z, "d": d, "a": a, "w": w, "y": y}


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
    variance_mode: str = "paper",
) -> McReport:
    """Replicate simulate-and-estimate ``reps`` times and aggregate.

    Replication r draws with seed ``base_seed + r``. Estimator failures are
    counted, not fatal. An unknown ``variance_mode``, an ``alpha`` outside
    (0, 1) or a given bias bandwidth below a tenth of ``h`` raises ValueError
    before the first draw, whatever the design; a bias bandwidth below a
    tenth of a rule-of-thumb ``h`` raises before that replication's fit.
    Aggregation runs in replication order, so the report is deterministic
    given the base seed.

    Each replication of the sharp design draws its sample, takes its
    bandwidths and cuts the sample to the rows within ``max(h, b)`` of the
    cutoff. Once the cuts hold ``BLOCK_ROWS`` rows, their replications are
    fitted in one moment pass (``inference._fit_block``); a cut of more than
    ``SOLO_ROWS`` rows, and a replication that fails a check in the block,
    is fitted alone by ``bias_corrected_estimate``, which decides whether it
    fails. The fuzzy design is fitted one replication at a time.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    _require_valid_variance_mode(variance_mode)
    _require_valid_alpha_and_b(alpha, h, b)
    kernel = kernel or KernelSpec()
    fuzzy = spec.design == "fuzzy_homogeneous"
    # per kept replication: estimate, naive estimate, h, b, then the first
    # stage (fuzzy) or the bias-corrected estimate, se and coverage (sharp)
    results: dict[int, tuple[float, ...]] = {}
    block: list[tuple[int, Sample, int, float, float]] = []
    block_rows = 0
    for r in range(reps):
        sample = simulate(replace(spec, seed=base_seed + r))
        try:
            h_r = h if h is not None else rule_of_thumb_bandwidth(sample.d)
            b_r = b if b is not None else h_r
            _require_valid_alpha_and_b(alpha, h_r, b_r)
            point = estimate_fuzzy(sample, spec.cutoff, h_r, kernel) if fuzzy else None
        except PddError:
            continue
        if point is not None:
            naive = point.tau_rdd_y / point.tau_rdd_a
            results[r] = (point.fuzzy_estimate, naive, h_r, b_r, point.tau_rdd_a)
            continue
        rows, k = support_rows(sample.d, spec.cutoff, max(h_r, b_r), kernel)
        block.append((r, sample.take(rows), k, h_r, b_r))
        block_rows += rows.size
        if block_rows >= BLOCK_ROWS:
            results.update(_fit_replications(block, spec, kernel, alpha, variance_mode))
            block, block_rows = [], 0
    if block:
        results.update(_fit_replications(block, spec, kernel, alpha, variance_mode))
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
    if fuzzy:
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


def _fit_replications(
    block: list[tuple[int, Sample, int, float, float]],
    spec: DgpSpec,
    kernel: KernelSpec,
    alpha: float,
    variance_mode: str,
) -> dict[int, tuple[float, ...]]:
    """Fit a block of sharp replications ``(r, cut sample, k, h, b)``.

    Returns, for each replication that did not fail, its estimate, naive
    discontinuity, ``h``, ``b``, bias-corrected estimate, standard error and
    whether the interval covers ``tau0``. Cuts with rows on both sides and
    at most ``SOLO_ROWS`` rows are fitted together by ``_fit_block``.
    """
    batched = [(r, cut, k, h, b) for r, cut, k, h, b in block if 0 < k < cut.n <= SOLO_ROWS]
    fitted = {}
    if batched:
        reps, cuts, ks, hs, bs = zip(*batched)
        ok, *values = _fit_block(
            list(zip(cuts, ks)),
            spec.cutoff,
            np.array(hs),
            np.array(bs),
            kernel,
            spec.n,
            alpha,
            variance_mode,
        )
        for i in np.flatnonzero(ok):
            fitted[reps[i]] = tuple(column[i] for column in values)
    out = {}
    for r, cut, _, h_r, b_r in block:
        if r not in fitted:
            try:
                robust = bias_corrected_estimate(
                    cut, spec.cutoff, h_r, b_r, kernel, alpha, variance_mode
                )
            except PddError:
                continue
            fitted[r] = (
                robust.tau_pdd,
                robust.point.tau_rdd_y,
                robust.tau_pdd_bc,
                robust.se,
                robust.ci_lower,
                robust.ci_upper,
            )  # in the order _fit_block returns them
        tau, naive, tau_bc, se, lower, upper = fitted[r]
        out[r] = (tau, naive, h_r, b_r, tau_bc, se, lower <= spec.tau0 <= upper)
    return out
