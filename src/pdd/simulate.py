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

from dataclasses import dataclass, field, fields, replace
from typing import Any

import numpy as np

from .errors import PddError
from .estimator import estimate_fuzzy
from .inference import bias_corrected_estimate, rule_of_thumb_bandwidth
from .io import Sample
from .kernels import KernelSpec

#: Seed offset separating the oracle stream from replication streams, which
#: use base_seed + replication index.
TRUTH_SEED_OFFSET = 1_000_003

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

    def to_mapping(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_mapping(cls, mapping: dict[str, str | float | int]) -> "DgpSpec":
        unknown = set(mapping) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
        if "n" not in mapping or "seed" not in mapping:
            raise ValueError("a scenario needs at least 'n' and 'seed'")
        cast = {f.name: FIELD_CASTERS[f.type] for f in fields(cls)}
        return cls(**{key: cast[key](value) for key, value in mapping.items()})


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
    oracle_n: int
    bin_width: float


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
        oracle_n=oracle_n,
        bin_width=bin_width,
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


def _summary(values: list[float], tau0: float) -> tuple[float, float, float, float]:
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
    counted, not fatal. Aggregation runs in replication order, so the report
    is deterministic given the base seed.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    kernel = kernel or KernelSpec()
    estimates: list[float] = []
    estimates_bc: list[float] = []
    ses: list[float] = []
    covered: list[bool] = []
    naive: list[float] = []
    first_stage: list[float] = []
    hs: list[float] = []
    bs: list[float] = []
    n_failed = 0
    fuzzy = spec.design == "fuzzy_homogeneous"
    for r in range(reps):
        rep_spec = replace(spec, seed=base_seed + r)
        sample = simulate(rep_spec)
        try:
            h_r = h if h is not None else rule_of_thumb_bandwidth(sample.d)
            b_r = b if b is not None else h_r
            if fuzzy:
                point = estimate_fuzzy(sample, spec.cutoff, h_r, kernel)
                estimates.append(point.fuzzy_estimate)
                first_stage.append(point.tau_rdd_a)
                naive.append(point.tau_rdd_y / point.tau_rdd_a)
            else:
                robust = bias_corrected_estimate(
                    sample, spec.cutoff, h_r, b_r, kernel, alpha, variance_mode
                )
                estimates.append(robust.tau_pdd)
                estimates_bc.append(robust.tau_pdd_bc)
                ses.append(robust.se)
                covered.append(robust.ci_lower <= spec.tau0 <= robust.ci_upper)
                naive.append(robust.point.tau_rdd_y)
            hs.append(h_r)
            bs.append(b_r)
        except PddError:
            n_failed += 1
    if not estimates:
        raise PddError(f"all {reps} replications failed")

    mean, bias, rmse, sd = _summary(estimates, spec.tau0)
    naive_mean, naive_bias, naive_rmse, naive_sd = _summary(naive, spec.tau0)
    report = McReport(
        design=spec.design,
        reps=reps,
        n_failed=n_failed,
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
        return replace(report, mean_first_stage=float(np.mean(first_stage)))
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
