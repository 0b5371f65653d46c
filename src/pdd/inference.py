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

``bias_corrected_estimate`` is the one robust path. It first cuts the sample
to the rows within ``max(h, b)`` of the cutoff, left side first
(``kernels.support_rows``), and each side's correction, stacked check and
variance term read only that side's rows. With the window and triangle
kernels the cost grows with the rows near the cutoff, not with the sample
size; the gaussian kernel keeps every row, so each side costs about n/2 rows.
The reported ``n`` and ``v_bc`` still refer to the whole sample. A sample
without placebo columns leaves nothing to adjust for, and the result is the
robust bias-corrected discontinuity of Calonico, Cattaneo & Titiunik (2014);
``rdd_robust_estimate`` is that case for bare ``d`` and ``y`` columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NonFiniteResult
from .estimator import DiscontinuityEstimate, _cut, _require_equivalent, estimate_sharp
from .io import Sample, _require_valid_alpha_and_b
from .kernels import KernelSpec, scaled_basis, sided_weights
from .local_fit import _weighted_design

#: Constant of the fallback bandwidth rule ``h = 1.84 * sd(d) * n^(-1/5)``.
RULE_OF_THUMB_CONSTANT = 1.84


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


@dataclass(frozen=True)
class SideCorrection:
    """Per-side bias-correction ingredients for a stack of outcome columns.

    ``weight_row`` maps any outcome column to its bias-corrected intercept:
    ``weight_row @ s`` equals the local linear intercept minus the estimated
    curvature bias. ``matrix_row`` is row 0 of the literal correction matrix
    (``correction_matrix``), the same map times ``n * h`` built along an
    independent path; the stacked equivalence check applies it. ``intercepts``,
    ``curvatures``, ``bias`` and ``intercepts_bc`` are aligned with the
    outcome stack's columns. ``basis_rows @ coef`` gives each outcome's local
    linear fitted values on the side's rows, which only the ``fitted``
    variance mode reads, so they are not formed here.
    """

    n: int
    n_effective: int
    bandwidth: float
    intercepts: np.ndarray
    curvatures: np.ndarray
    bias: np.ndarray
    intercepts_bc: np.ndarray
    weight_row: np.ndarray
    matrix_row: np.ndarray
    curvature_load: float
    coef: np.ndarray
    basis_rows: np.ndarray


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
    w_h = sided_weights(d, cutoff, h, side, kernel)
    basis1 = scaled_basis(d, cutoff, h, 1)
    w_b = sided_weights(d, cutoff, b, side, kernel)
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
        n=n,
        n_effective=weights_main.n_positive,
        bandwidth=float(h),
        intercepts=intercepts,
        curvatures=curvatures,
        bias=bias,
        intercepts_bc=intercepts - bias,
        weight_row=weight_row_linear - (h**2 / b**2) * curvature_load * quad_row,
        matrix_row=correction_matrix(
            krows1, gram1_raw / (n * h), u2_raw / (n * h), krows2, gram2_raw / (n * b), (h / b) ** 3
        ),
        curvature_load=curvature_load,
        coef=coef,
        basis_rows=basis_main.rows,
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
    S_plus: np.ndarray,
    S_minus: np.ndarray,
    corr_plus: SideCorrection,
    corr_minus: SideCorrection,
    combo: np.ndarray,
    n: int,
    variance_mode: str = "paper",
) -> float:
    """Variance of the combined bias-corrected statistic, scaled by ``n * h``.

    ``S_plus`` and ``S_minus`` are the outcome rows each side's correction
    was built from, and ``n`` is the size of the sample they were cut from.
    Rows outside every kernel support add nothing to the sum, so cutting
    them leaves the variance unchanged.

    Sum of one quadratic form per side over that side's rows; cross-side
    terms vanish exactly because the two weight supports are disjoint (a
    correction built on the whole sample weighs the other side's rows by
    exactly 0, so the whole ``S`` may be passed for both sides). Each side
    uses a diagonal residual matrix: in ``paper`` mode the residual of
    observation i for outcome s is that outcome minus the side's
    bias-corrected cutoff intercept; in ``fitted`` mode it is the outcome
    minus the side's local linear fitted value at d_i (a sensitivity-analysis
    alternative).
    Cross-covariances between outcome columns are omitted by construction.
    """
    total = 0.0
    for S, corr in ((S_plus, corr_plus), (S_minus, corr_minus)):
        if variance_mode == "paper":
            resid = S - corr.intercepts_bc[None, :]
        elif variance_mode == "fitted":
            resid = S - corr.basis_rows @ corr.coef
        else:
            raise ValueError(f"unknown variance mode {variance_mode!r}")
        per_outcome = (corr.weight_row**2) @ (resid**2)
        total += float((combo**2) @ per_outcome)
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
    n: int
    n_left: int
    n_right: int
    degenerate_ci: bool
    point: DiscontinuityEstimate | None = None


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

    Cuts the sample to the rows within ``max(h, b)`` of the cutoff, left side
    first, bias-corrects the target and placebo discontinuities componentwise
    per side (each side reading only its own rows), combines them with the
    left-side instrumented weights, verifies the result against the stacked
    matrix expression and attaches the variance and interval; raises
    NonFiniteResult if the variance is not finite.

    A sample without placebo columns (``q == 0``) has nothing to adjust for:
    the result is the plain local linear jump of ``y`` with the same bias
    correction, variance and check, and ``point`` is None.
    """
    _require_valid_alpha_and_b(alpha, h, b)
    n = sample.n
    sample, k = _cut(sample, cutoff, max(h, b), kernel)
    point = estimate_sharp(sample, cutoff, h, kernel) if sample.q else None
    S = np.empty((sample.n, 1 + sample.q), order="F")  # column-major, as the basis
    S[:, 0] = sample.y
    S[:, 1:] = sample.W
    gamma = np.empty(0) if point is None else point.gamma_minus
    combo = np.concatenate([[1.0], -gamma])

    plus, minus = slice(k, None), slice(None, k)
    corr_plus = side_correction(sample.d[plus], S[plus], cutoff, h, b, kernel, "right")
    corr_minus = side_correction(sample.d[minus], S[minus], cutoff, h, b, kernel, "left")
    jump = float(corr_plus.intercepts[0] - corr_minus.intercepts[0])
    tau_bc = float(combo @ (corr_plus.intercepts_bc - corr_minus.intercepts_bc))
    # a side's matrix row is n * h times its weight row, n its own row count
    right = (corr_plus.matrix_row @ S[plus]) / corr_plus.n
    left = (corr_minus.matrix_row @ S[minus]) / corr_minus.n
    _require_equivalent(
        tau_bc,
        float(combo @ (right - left)) / h,
        "componentwise bias correction",
        "stacked matrix form",
    )
    v_bc = robust_variance(S[plus], S[minus], corr_plus, corr_minus, combo, n, variance_mode)
    if not math.isfinite(v_bc):
        raise NonFiniteResult(f"the variance {v_bc!r} is not finite")
    se = math.sqrt(v_bc / (n * corr_plus.bandwidth))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return RobustEstimate(
        tau_pdd=jump if point is None else point.tau_pdd,
        tau_pdd_bc=tau_bc,
        v_bc=v_bc,
        se=se,
        ci_lower=tau_bc - z * se,
        ci_upper=tau_bc + z * se,
        n=n,
        n_left=corr_minus.n_effective,
        n_right=corr_plus.n_effective,
        degenerate_ci=not v_bc > 0.0,
        point=point,
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
    """Plain local linear discontinuity with robust bias correction:
    ``bias_corrected_estimate`` on ``d`` and ``y`` with no placebo columns.
    """
    d = np.asarray(d, dtype=float)
    none = np.empty((d.shape[0], 0))
    sample = Sample(d, np.asarray(y, dtype=float), W=none, Z=none)
    return bias_corrected_estimate(sample, cutoff, h, b, kernel, alpha, variance_mode)
