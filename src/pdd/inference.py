"""Robust bias correction, variance estimation, and Wald confidence intervals.

Per side of the cutoff, the local linear intercept of every outcome column is
debiased by an estimated curvature term: a local quadratic fit at the bias
bandwidth ``b`` estimates the second derivative of the conditional mean at the
cutoff, and half of ``h^2`` times that curvature (propagated through the local
linear moment matrices) is subtracted from the intercept. The variance of the
combined, bias-corrected statistic uses the full correction weights, so Wald
intervals stay valid at bandwidths that would leave a plain local linear fit
with first-order bias.

Two implementation paths produce the bias-corrected estimate: a componentwise
one (explicit curvature and bias scalars per outcome) and the stacked matrix
form, which applies the intercept row of each side's literal (2, n) correction
matrix, built with explicit inverses of the normalised moment matrices, to the
outcome columns. They are algebraically identical and are compared on every
run; disagreement raises EquivalenceBreach.

``bias_corrected_estimate`` and ``rdd_robust_estimate`` first cut the sample
to the rows within ``max(h, b)`` of the cutoff (``kernels.support_rows``), so
with the window and triangle kernels their cost grows with those rows, not
with the sample size; the reported ``n`` and ``v_bc`` still refer to the
whole sample. The gaussian kernel keeps every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteResult
from .estimator import DiscontinuityEstimate, _require_equivalent, estimate_sharp
from .io import Sample
from .kernels import KernelSpec, scaled_basis, sided_weights, support_rows
from .local_fit import _weighted_design, local_poly_fit

#: Constant of the fallback bandwidth rule ``h = 1.84 * sd(d) * n^(-1/5)``.
RULE_OF_THUMB_CONSTANT = 1.84


def normal_quantile(p: float) -> float:
    """Standard normal quantile via a rational approximation.

    Initial value from the Acklam lower/central/upper rational fits, then one
    Halley refinement against the exact cdf (``math.erfc``); absolute accuracy
    is far below the documented 1e-8 requirement.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must lie strictly between 0 and 1")
    a = (
        -3.969683028665376e01,
        2.209460984245205e02,
        -2.759285104469687e02,
        1.383577518672690e02,
        -3.066479806614716e01,
        2.506628277459239e00,
    )
    b = (
        -5.447609879822406e01,
        1.615858368580409e02,
        -1.556989798598866e02,
        6.680131188771972e01,
        -1.328068155288572e01,
    )
    c = (
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e00,
        -2.549732539343734e00,
        4.374664141464968e00,
        2.938163982698783e00,
    )
    d = (
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e00,
        3.754408661907416e00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        x = (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if abs(x) < 37.0:  # beyond this the cdf underflows; the raw fit suffices
        err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
        u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
        x -= u / (1.0 + x * u / 2.0)
    return x


def rule_of_thumb_bandwidth(d: np.ndarray) -> float:
    """Fallback bandwidth ``1.84 * sd(d) * n^(-1/5)``.

    A dispersion-scaled rule, not an optimality claim; pass an explicit
    bandwidth to override it. Raises NonFiniteResult when ``sd(d)``
    overflows or underflows to zero, as it can with values at the ends of
    the floating-point range.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    if n < 2:
        raise ValueError("need at least two observations for the bandwidth rule")
    h = RULE_OF_THUMB_CONSTANT * float(np.std(d, ddof=1)) * n ** (-0.2)
    if not 0.0 < h < math.inf:
        raise NonFiniteResult(f"rule-of-thumb bandwidth {h!r} is not positive and finite")
    return h


def second_derivative(s, weights, basis) -> float:
    """Second derivative of the conditional mean at the cutoff.

    Local quadratic fit at the basis bandwidth; returns twice the scaled
    quadratic coefficient divided by the bandwidth squared. Exact on
    quadratic data through the weighted support.
    """
    if basis.degree != 2:
        raise ValueError("curvature estimation needs a degree-2 basis")
    fit = local_poly_fit(s, weights, basis)
    return 2.0 * float(fit.coef_scaled[2]) / basis.bandwidth**2


@dataclass(frozen=True)
class SideCorrection:
    """Per-side bias-correction ingredients for a stack of outcome columns.

    ``weight_row`` maps any outcome column to its bias-corrected intercept:
    ``weight_row @ s`` equals the local linear intercept minus the estimated
    curvature bias. ``matrix_row`` is row 0 of the literal correction matrix
    (``correction_matrix``), the same map times ``n * h`` built along an
    independent path; the stacked equivalence check applies it. ``intercepts``,
    ``curvatures``, ``bias`` and ``intercepts_bc`` are aligned with the
    outcome stack's columns.
    """

    side: str
    n: int
    n_effective: int
    bandwidth: float
    bias_bandwidth: float
    intercepts: np.ndarray
    curvatures: np.ndarray
    bias: np.ndarray
    intercepts_bc: np.ndarray
    weight_row: np.ndarray
    matrix_row: np.ndarray
    curvature_load: float
    fitted_linear: np.ndarray


def side_correction(
    d: np.ndarray,
    S: np.ndarray,
    cutoff: float,
    h: float,
    b: float,
    kernel: KernelSpec,
    side: str,
) -> SideCorrection:
    """Build the bias-correction ingredients for one side.

    ``S`` stacks the outcome columns, target first, shape (n, 1 + q).
    """
    d = np.asarray(d, dtype=float)
    w_h = sided_weights(d, cutoff, h, side, kernel, min_positive=2)
    basis1 = scaled_basis(d, cutoff, h, 1)
    w_b = sided_weights(d, cutoff, b, side, kernel, min_positive=3)
    basis2 = scaled_basis(d, cutoff, b, 2)
    return side_correction_from_weights(S, w_h, basis1, w_b, basis2)


def side_correction_from_weights(
    S: np.ndarray,
    weights_main,
    basis_main,
    weights_bias,
    basis_bias,
) -> SideCorrection:
    """Bias-correction ingredients from prebuilt weights and bases.

    ``weights_main``/``basis_main`` are at the estimation bandwidth (degree
    1), ``weights_bias``/``basis_bias`` at the bias bandwidth (degree 2); all
    four must share side and cutoff.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim == 1:
        S = S[:, None]
    if basis_main.degree != 1 or basis_bias.degree != 2:
        raise ValueError("need a degree-1 main basis and a degree-2 bias basis")
    if weights_main.side != weights_bias.side:
        raise ValueError("weights were built for different sides")
    n = S.shape[0]
    h = weights_main.bandwidth
    b = weights_bias.bandwidth

    krows1, gram1_raw, _ = _weighted_design(weights_main, basis_main)
    coef = np.linalg.solve(gram1_raw, krows1.T @ S)  # (2, q+1) scaled coefficients
    e0_row = np.linalg.solve(gram1_raw, np.array([1.0, 0.0]))
    weight_row_linear = krows1 @ e0_row
    u = basis_main.rows[:, 1]
    u2_raw = krows1.T @ (u * u)
    curvature_load = float(e0_row @ u2_raw)

    krows2, gram2_raw, _ = _weighted_design(weights_bias, basis_bias)
    e2_row = np.linalg.solve(gram2_raw, np.array([0.0, 0.0, 1.0]))
    quad_row = krows2 @ e2_row  # maps s -> scaled quadratic coefficient b^2 m2
    curvatures = 2.0 * (S.T @ quad_row) / b**2
    bias = 0.5 * h**2 * curvature_load * curvatures
    intercepts = coef[0].copy()

    return SideCorrection(
        side=weights_main.side,
        n=n,
        n_effective=weights_main.n_positive,
        bandwidth=float(h),
        bias_bandwidth=float(b),
        intercepts=intercepts,
        curvatures=curvatures,
        bias=bias,
        intercepts_bc=intercepts - bias,
        weight_row=weight_row_linear - (h**2 / b**2) * curvature_load * quad_row,
        matrix_row=correction_matrix(
            krows1, gram1_raw / (n * h), u2_raw / (n * h), krows2, gram2_raw / (n * b), (h / b) ** 3
        ),
        curvature_load=curvature_load,
        fitted_linear=basis_main.rows @ coef,
    )


def correction_matrix(
    krows_linear: np.ndarray,
    gram_linear: np.ndarray,
    u2_moment: np.ndarray,
    krows_quadratic: np.ndarray,
    gram_quadratic: np.ndarray,
    ratio: float,
) -> np.ndarray:
    """Row 0 of the literal (2, n) per-side correction matrix.

    Applied to an outcome column and divided by ``n * h`` it gives the
    bias-corrected intercept. Assembled from the normalised moment matrices
    (``gram_*`` and ``u2_moment``, divided by ``n`` times their bandwidth)
    with explicit inverses and ``ratio = (h / b)^3``, deliberately not
    sharing arithmetic with ``SideCorrection.weight_row``. Row 1, the slope
    row, enters no estimate and is not formed.
    """
    g1_inv = np.linalg.inv(gram_linear)
    g2_inv = np.linalg.inv(gram_quadratic)
    load = float(g1_inv[0] @ u2_moment)
    return g1_inv[0] @ krows_linear.T - ratio * load * (g2_inv[2] @ krows_quadratic.T)


def robust_variance(
    S: np.ndarray,
    corr_plus: SideCorrection,
    corr_minus: SideCorrection,
    combo: np.ndarray,
    variance_mode: str = "paper",
    n: int | None = None,
) -> float:
    """Variance of the combined bias-corrected statistic, scaled by ``n * h``.

    ``n`` is the size of the sample the rows of ``S`` were cut from; it
    defaults to the rows of ``S``. Rows outside every kernel support add
    nothing to the sum, so cutting them leaves the variance unchanged.

    Sum of one quadratic form per side; cross-side terms vanish exactly
    because the two weight supports are disjoint. Each side uses a diagonal
    residual matrix: in ``paper`` mode the residual of observation i for
    outcome s is that outcome minus the side's bias-corrected cutoff
    intercept; in ``fitted`` mode it is the outcome minus the side's local
    linear fitted value at d_i (a sensitivity-analysis alternative).
    Cross-covariances between outcome columns are omitted by construction.
    """
    total = 0.0
    for corr in (corr_plus, corr_minus):
        if variance_mode == "paper":
            resid = S - corr.intercepts_bc[None, :]
        elif variance_mode == "fitted":
            resid = S - corr.fitted_linear
        else:
            raise ValueError(f"unknown variance mode {variance_mode!r}")
        per_outcome = (corr.weight_row**2) @ (resid**2)
        total += float((combo**2) @ per_outcome)
    if n is None:
        n = S.shape[0]
    return n * corr_plus.bandwidth * total


@dataclass(frozen=True)
class RobustEstimate:
    """Bias-corrected point estimate with variance and Wald interval.

    ``se`` is ``sqrt(v_bc / (n h))``. ``tau_pdd_bc`` is the componentwise
    result, checked against the stacked matrix form: the combination weights
    ``(1, -gamma_1, ..., -gamma_q)`` applied to the difference of the two
    sides' ``SideCorrection.matrix_row`` times the outcome columns.
    ``degenerate_ci`` flags a zero-variance interval.
    """

    tau_pdd: float
    tau_pdd_bc: float
    v_bc: float
    se: float
    ci_lower: float
    ci_upper: float
    alpha: float
    h: float
    b: float
    n: int
    n_left: int
    n_right: int
    degenerate_ci: bool
    variance_mode: str
    bias_plus: np.ndarray
    bias_minus: np.ndarray
    curvature_plus: np.ndarray
    curvature_minus: np.ndarray
    point: DiscontinuityEstimate | None = None


def confidence_interval(est: RobustEstimate, alpha: float) -> tuple[float, float]:
    """Wald interval around the bias-corrected estimate at level ``1 - alpha``."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    z = normal_quantile(1.0 - alpha / 2.0)
    return est.tau_pdd_bc - z * est.se, est.tau_pdd_bc + z * est.se


def _finish(
    d: np.ndarray,
    S: np.ndarray,
    combo: np.ndarray,
    cutoff: float,
    h: float,
    b: float,
    kernel: KernelSpec,
    alpha: float,
    variance_mode: str,
    point: DiscontinuityEstimate | None,
    n: int,
) -> RobustEstimate:
    """Bias-correct both sides of the window-cut rows ``d``/``S``, check the
    componentwise result against the stacked matrix form, and attach the
    variance and interval; raise NonFiniteResult if the variance is not finite.
    Without a point estimate, ``tau_pdd`` is the plain jump of ``S[:, 0]``.
    """
    corr_plus = side_correction(d, S, cutoff, h, b, kernel, "right")
    corr_minus = side_correction(d, S, cutoff, h, b, kernel, "left")
    jump = float(corr_plus.intercepts[0] - corr_minus.intercepts[0])
    tau = jump if point is None else point.tau_pdd
    tau_bc = float(combo @ (corr_plus.intercepts_bc - corr_minus.intercepts_bc))
    stacked = (corr_plus.matrix_row - corr_minus.matrix_row) @ S
    _require_equivalent(
        tau_bc,
        float(combo @ stacked) / (S.shape[0] * corr_plus.bandwidth),
        "componentwise bias correction",
        "stacked matrix form",
    )
    v_bc = robust_variance(S, corr_plus, corr_minus, combo, variance_mode, n)
    if not math.isfinite(v_bc):
        raise NonFiniteResult(f"the variance {v_bc!r} is not finite")
    se = math.sqrt(v_bc / (n * corr_plus.bandwidth))
    z = normal_quantile(1.0 - alpha / 2.0)
    return RobustEstimate(
        tau_pdd=tau,
        tau_pdd_bc=tau_bc,
        v_bc=v_bc,
        se=se,
        ci_lower=tau_bc - z * se,
        ci_upper=tau_bc + z * se,
        alpha=alpha,
        h=corr_plus.bandwidth,
        b=corr_plus.bias_bandwidth,
        n=n,
        n_left=corr_minus.n_effective,
        n_right=corr_plus.n_effective,
        degenerate_ci=not v_bc > 0.0,
        variance_mode=variance_mode,
        bias_plus=corr_plus.bias,
        bias_minus=corr_minus.bias,
        curvature_plus=corr_plus.curvatures,
        curvature_minus=corr_minus.curvatures,
        point=point,
    )


def bias_corrected_estimate(
    sample: Sample,
    cutoff: float,
    h: float,
    b: float,
    kernel: KernelSpec,
    alpha: float = 0.05,
    variance_mode: str = "paper",
) -> RobustEstimate:
    """Placebo-adjusted estimate with robust bias correction and variance.

    Bias-corrects the target and placebo discontinuities componentwise per
    side, combines them with the left-side instrumented weights, and verifies
    the result against the stacked matrix expression.
    """
    n = sample.n
    sample = sample.take(support_rows(sample.d, cutoff, max(h, b), kernel))
    point = estimate_sharp(sample, cutoff, h, kernel)
    S = np.column_stack([sample.y, sample.W])
    combo = np.concatenate([[1.0], -point.gamma_minus])
    return _finish(
        sample.d, S, combo, cutoff, h, b, kernel, alpha, variance_mode, point, n
    )


def rdd_robust_estimate(
    d: np.ndarray,
    y: np.ndarray,
    cutoff: float,
    h: float,
    b: float,
    kernel: KernelSpec,
    alpha: float = 0.05,
    variance_mode: str = "paper",
) -> RobustEstimate:
    """Plain local linear discontinuity with robust bias correction.

    The no-placebo degenerate case: the combination weights select the target
    outcome alone, and the variance reduces to the standard robust variance of
    the bias-corrected discontinuity.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    rows = support_rows(d, cutoff, max(h, b), kernel)
    S = np.asarray(y, dtype=float)[rows][:, None]
    combo = np.array([1.0])
    return _finish(d[rows], S, combo, cutoff, h, b, kernel, alpha, variance_mode, None, n)
