"""Robust bias correction, variance estimation, and Wald confidence intervals.

Per side of the cutoff, the local linear intercept of every outcome column is
debiased by an estimated curvature term: a local quadratic fit at the bias
bandwidth ``b`` estimates the second derivative of the conditional mean at
the cutoff, and half of ``h^2`` times that curvature (propagated through the
local linear moment matrices) is subtracted from the intercept. The variance
of the combined statistic uses the full correction weights, so Wald intervals
stay valid at bandwidths that would leave a plain local linear fit with
first-order bias. Without placebo columns the result is the robust
bias-corrected discontinuity of Calonico, Cattaneo & Titiunik (2014).

Two paths give the bias-corrected estimate and are compared on every run
(EquivalenceBreach): the componentwise one solves the moment systems
(``_linear_side``, ``_quadratic_row``, ``_curvature_bias``), and the stacked
one applies row 0 of each side's literal correction matrix, built from
explicit inverses (``correction_matrix``, the one place an inverse is taken).
``_interval`` holds the standard error and the Wald interval, and
``estimator._point_forms`` the two forms of the point estimate.

Each formula from the moments on is written once, for one side or a stack of
sides ``(..., k, k)``, and serves two callers. ``bias_corrected_estimate``
cuts the sample to the rows within ``max(h, b)`` of the cutoff, left side
first (``kernels.support_rows``), and builds each side's moments with BLAS
products over that side's rows; ``n`` and ``v_bc`` still refer to the whole
sample. ``_fit_block``, which ``simulate.monte_carlo`` calls, builds the
moments of many replications' cut samples as segment sums over their
concatenated rows and passes the stacks to the same helpers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NonFiniteResult
from .estimator import (
    DiscontinuityEstimate,
    _agree,
    _cut,
    _point_forms,
    _require_equivalent,
    estimate_sharp,
)
from .io import Sample, _require_valid_alpha_and_b, _require_valid_variance_mode
from .kernels import KernelSpec, _offsets, _weights_at, scaled_basis, sided_weights
from .local_fit import (
    GRAM_RCOND_MIN,
    SCHUR_RCOND_MIN,
    _distinct_support,
    _joint_solve,
    _schur_complement,
    _schur_rcond,
    _weighted_design,
    reciprocal_condition,
)

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
    linear fitted values, which only the ``fitted`` variance mode forms.
    ``n_effective`` counts the positive weights at ``h`` and ``kish_size``
    is their Kish effective sample size ``(sum w)^2 / sum w^2``.
    """

    n: int
    n_effective: int
    kish_size: float
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
    u = basis_main.rows[:, 1]
    u2_raw = krows1.T @ (u * u)
    coef, e0_row, curvature_load = _linear_side(gram1_raw, krows1.T @ S, u2_raw)
    krows2, gram2_raw, _ = _weighted_design(weights_bias, basis_bias)
    quad_row = krows2 @ _quadratic_row(gram2_raw)  # maps s -> scaled quadratic coefficient b^2 m2
    curvatures, bias = _curvature_bias(S.T @ quad_row, h, b, curvature_load)
    intercepts = coef[0].copy()
    nh, nb = n * h, n * b
    stacked = correction_matrix(gram1_raw / nh, u2_raw / nh, gram2_raw / nb, (h / b) ** 3)

    return SideCorrection(
        n=n,
        n_effective=weights_main.n_positive,
        kish_size=_kish_size(weights_main),
        bandwidth=float(h),
        intercepts=intercepts,
        curvatures=curvatures,
        bias=bias,
        intercepts_bc=intercepts - bias,
        weight_row=krows1 @ e0_row - (h**2 / b**2) * curvature_load * quad_row,
        matrix_row=krows1 @ stacked[:2] - krows2 @ stacked[2:],
        curvature_load=float(curvature_load),
        coef=coef,
        basis_rows=basis_main.rows,
    )


def _kish_size(weights) -> float:
    """Kish size ``(sum w)^2 / sum w^2``, exactly the count for equal weights (window)."""
    w, n = weights.weights, weights.n_positive
    return float(n if np.count_nonzero(w == w.max()) == n else w.sum() ** 2 / (w @ w))


def _linear_side(
    gram: np.ndarray, rks: np.ndarray, rku2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """From ``R'KR``, ``R'KS`` and ``R'K u^2`` at ``h``: the outcomes' scaled
    coefficients, the intercept row ``e0' (R'KR)^{-1}`` and the curvature
    load ``e0' (R'KR)^{-1} R'K u^2``. The row has a solve of its own, as
    LAPACK rounds a one-column solve unlike a column of a wider one.
    """
    coef = np.linalg.solve(gram, rks)
    e0_row = np.linalg.solve(gram, [[1.0], [0.0]])[..., 0]
    return coef, e0_row, np.vecdot(e0_row, rku2)


def _quadratic_row(gram: np.ndarray) -> np.ndarray:
    """The row ``e2' (R'KR)^{-1}`` at ``b``: applied to ``R'K s`` it gives
    the scaled quadratic coefficient ``b^2 m2`` of an outcome ``s``.
    """
    return np.linalg.solve(gram, [[0.0], [0.0], [1.0]])[..., 0]


def _curvature_bias(scaled_m2, h, b, load) -> tuple[np.ndarray, np.ndarray]:
    """Each outcome's curvature ``2 m2`` from its ``b^2 m2`` and its bias
    ``h^2 / 2 * load * curvature``; ``h``, ``b`` and ``load`` broadcast
    against the outcomes.
    """
    curvatures = 2.0 * scaled_m2 / b**2
    return curvatures, 0.5 * h**2 * load * curvatures


def correction_matrix(
    gram_linear: np.ndarray,
    u2_moment: np.ndarray,
    gram_quadratic: np.ndarray,
    ratio,
) -> np.ndarray:
    """Row 0 of the literal (2, n) per-side correction matrix as ``(..., 5)``
    coefficients: the first two applied to the side's ``K R`` rows at ``h``
    minus the last three applied to its ``K R`` rows at ``b``.

    Applied to an outcome column and divided by ``n * h`` the row gives the
    bias-corrected intercept. It is built from the normalised moments
    (``gram_*`` and ``u2_moment`` over ``n`` times their bandwidth) with
    explicit inverses and ``ratio = (h / b)^3``, sharing no arithmetic with
    the componentwise path. Row 1, the slope row, enters no estimate.
    """
    g1_inv = np.linalg.inv(gram_linear)[..., 0, :]
    g2_inv = np.linalg.inv(gram_quadratic)[..., 2, :]
    load = np.vecdot(g1_inv, u2_moment)
    return np.concatenate([g1_inv, (ratio * load)[..., None] * g2_inv], axis=-1)


def _interval(tau_bc, v_bc, n, h, alpha: float):
    """``se = sqrt(v_bc / (n h))`` and the Wald interval at ``1 - alpha``."""
    se = np.sqrt(v_bc / (n * h))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    return se, tau_bc - z * se, tau_bc + z * se


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
    was built from, and ``n`` is the size of the sample they were cut from;
    rows outside every kernel support add nothing. It is a sum of one
    quadratic form per side, with a diagonal residual matrix: in ``paper``
    mode the residual of an outcome is its value minus the side's
    bias-corrected intercept, in ``fitted`` mode minus the side's local
    linear fitted value at ``d_i`` (a sensitivity analysis). Cross-side
    terms vanish, as the weight supports are disjoint, and cross-covariances
    between outcome columns are omitted by construction.
    """
    _require_valid_variance_mode(variance_mode)
    total = 0.0
    for S, corr in ((S_plus, corr_plus), (S_minus, corr_minus)):
        if variance_mode == "paper":
            resid = S - corr.intercepts_bc[None, :]
        else:
            resid = S - corr.basis_rows @ corr.coef
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
    ``degenerate_ci`` flags a zero-variance interval. ``n_left`` and
    ``n_right`` count each side's positive weights at ``h`` and
    ``kish_left`` and ``kish_right`` are their Kish effective sample sizes
    ``(sum w)^2 / sum w^2``, far below the count for the gaussian kernel.
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
    kish_left: float
    kish_right: float
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
    _require_valid_variance_mode(variance_mode)
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
    se, lower, upper = map(float, _interval(tau_bc, v_bc, n, corr_plus.bandwidth, alpha))
    return RobustEstimate(
        tau_pdd=jump if point is None else point.tau_pdd,
        tau_pdd_bc=tau_bc,
        v_bc=v_bc,
        se=se,
        ci_lower=lower,
        ci_upper=upper,
        n=n,
        n_left=corr_minus.n_effective,
        n_right=corr_plus.n_effective,
        kish_left=corr_minus.kish_size,
        kish_right=corr_plus.kish_size,
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


@np.errstate(all="ignore")  # a sample that fails a check is refitted anyway
def _fit_block(
    cuts: list[tuple[Sample, int]],
    cutoff: float,
    h: np.ndarray,
    b: np.ndarray,
    kernel: KernelSpec,
    n: int,
    alpha: float,
    variance_mode: str,
) -> tuple[np.ndarray, ...]:
    """``bias_corrected_estimate`` of a block of samples in one moment pass.

    ``cuts`` holds ``(sample, k)`` pairs, each cut to the rows within
    ``max(h, b)`` of the cutoff with its ``k`` left rows first; each has a
    placebo pair and rows on both sides. ``h`` and ``b`` hold each sample's
    bandwidths and ``n`` the size of the samples they were cut from.

    Only what belongs to a block is here: each side of each sample is one
    segment of the concatenated rows, every per-row product is one row of a
    table, every moment is a segment sum (``np.add.reduceat``, in an order
    no BLAS thread count changes), and a side that fails a check gets the
    identity in place of its systems (``_identity_unless``). The formulas
    and checks are the single fit's, applied to the stack of sides.

    Returns ``(ok, tau_pdd, tau_rdd_y, tau_pdd_bc, se, ci_lower, ci_upper)``
    over the samples. ``ok`` is False where any check of the single fit
    fails; the caller refits those samples with ``bias_corrected_estimate``,
    which decides whether and how they fail.
    """
    q = cuts[0][0].q
    counts = np.array([c for sample, k in cuts for c in (k, sample.n - k)])
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    m = int(counts.sum())
    left, right = slice(0, None, 2), slice(1, None, 2)
    h_seg, b_seg = np.repeat(h, 2), np.repeat(b, 2)
    # the outcome columns y, W and the placebo treatments Z, one row each
    S = np.empty((1 + q, m))
    S[0] = np.concatenate([sample.y for sample, _ in cuts])
    S[1:] = np.concatenate([sample.W for sample, _ in cuts]).T
    Z = np.ascontiguousarray(np.concatenate([sample.Z for sample, _ in cuts]).T)
    d = np.concatenate([sample.d for sample, _ in cuts])

    def weights_and_basis(bandwidths):
        per_row = np.repeat(bandwidths, counts)
        u = _offsets(d, cutoff, per_row)
        return _weights_at(kernel, u.copy(), per_row), u

    wh, u = weights_and_basis(h_seg)
    wb, v = (wh, u) if np.array_equal(h, b) else weights_and_basis(b_seg)

    # one row per moment: K u^k (k <= 3), K u^k s and K u^k z (k <= 1), K z s,
    # the bias bandwidth's K v^k (k <= 4) and K v^k s (k <= 2), and 1{K > 0}
    sizes = (4, 2 * (1 + q), 2 * q, q * (1 + q), 5, 3 * (1 + q), 1)
    bounds = np.cumsum((0,) + sizes)
    P = np.empty((int(bounds[-1]), m))
    Ku, KuS, KuZ, KZS, Kv, KvS, positive = (P[i:j] for i, j in zip(bounds[:-1], bounds[1:]))
    for powers, w, x in ((Ku, wh, u), (Kv, wb, v)):
        powers[0] = w
        for k in range(1, powers.shape[0]):
            np.multiply(powers[k - 1], x, out=powers[k])
    np.multiply(Ku[:2, None], S, out=KuS.reshape(2, 1 + q, m))
    np.multiply(Ku[:2, None], Z, out=KuZ.reshape(2, q, m))
    np.multiply(KuZ[:q, None], S, out=KZS.reshape(q, 1 + q, m))
    np.multiply(Kv[:3, None], S, out=KvS.reshape(3, 1 + q, m))
    np.greater(wh, 0.0, out=positive[0])
    M = np.add.reduceat(P, starts, axis=1)
    mu, muS, muZ, mZS, mv, mvS, n_positive = (M[i:j] for i, j in zip(bounds[:-1], bounds[1:]))

    A = mu[[[0, 1], [1, 2]]].transpose(2, 0, 1)  # R'KR at h
    G = mv[[[0, 1, 2], [1, 2, 3], [2, 3, 4]]].transpose(2, 0, 1)  # R'KR at b
    RKS = muS.reshape(2, 1 + q, -1).transpose(2, 0, 1)
    ZKR = muZ.reshape(2, q, -1).transpose(2, 1, 0)
    ZKS = mZS.reshape(q, 1 + q, -1).transpose(2, 0, 1)  # [Z'Ky  Z'KW]
    GS = mvS.reshape(3, 1 + q, -1).transpose(2, 0, 1)
    RKu2 = mu[2:4].T

    ok = n_positive[0] >= 2 + q
    ok &= _distinct_support(u, wh, starts, counts, 2) >= 2
    ok &= _distinct_support(v, wb, starts, counts, 3) >= 3
    A, ok = _identity_unless(ok, A)
    G, ok = _identity_unless(ok, G)
    ok &= (reciprocal_condition(A) >= GRAM_RCOND_MIN) & (reciprocal_condition(G) >= GRAM_RCOND_MIN)
    A, ok = _identity_unless(ok, A)
    G, ok = _identity_unless(ok, G)

    coef, e0_row, load = _linear_side(A, RKS, RKu2)
    e2_row = _quadratic_row(G)
    _, bias = _curvature_bias(
        np.vecdot(e2_row[:, :, None], GS, axis=1), h_seg[:, None], b_seg[:, None], load[:, None]
    )
    intercepts_bc = coef[:, 0, :] - bias

    # the instrumented solve of each side; a side that is not ok solves the
    # identity, its cross-moment blocks zeroed
    RKW, ZKW = RKS[:, :, 1:], ZKS[:, :, 1:]
    schur, ok = _identity_unless(ok, _schur_complement(A, RKW, ZKR, ZKW))
    ZKW, ok = _identity_unless(ok, ZKW)
    ok &= _schur_rcond(schur, ZKW) >= SCHUR_RCOND_MIN
    ZKW, ok = _identity_unless(ok, ZKW)
    RKW, ZKR = (np.where(ok[:, None, None], x, 0.0) for x in (RKW, ZKR))
    alpha0, gamma = _joint_solve(A, RKW, ZKR, ZKW, RKS[:, :, 0], ZKS[:, :, 0])

    tau_rdd, tau_pdd, tau_iv = _point_forms(
        coef[right, 0], coef[left, 0], alpha0[right], alpha0[left], gamma[right], gamma[left]
    )
    combo = np.concatenate([np.ones((len(cuts), 1)), -gamma[left]], axis=1)
    tau_bc = np.vecdot(combo, intercepts_bc[right] - intercepts_bc[left])

    # per-row coefficients: the stacked form's row (correction_matrix), the
    # variance's weight row (as SideCorrection.weight_row) and each
    # outcome's residual centre
    nh, nb = (counts * h_seg)[:, None], (counts * b_seg)[:, None]
    stacked_row = correction_matrix(
        A / nh[:, :, None], RKu2 / nh, G / nb[:, :, None], (h_seg / b_seg) ** 3
    )
    weight_quad = ((h_seg**2 / b_seg**2) * load)[:, None] * e2_row
    centre = [intercepts_bc] if variance_mode == "paper" else [coef[:, 0, :], coef[:, 1, :]]
    per_seg = np.concatenate([stacked_row, e0_row, weight_quad, *centre], axis=1)
    c = np.repeat(np.ascontiguousarray(per_seg.T), counts, axis=1)
    matrix_row = c[0] * wh + c[1] * Ku[1] - (c[2] * wb + c[3] * Kv[1] + c[4] * Kv[2])
    weight_row = c[5] * wh + c[6] * Ku[1] - (c[7] * wb + c[8] * Kv[1] + c[9] * Kv[2])
    fitted = c[10:] if variance_mode == "paper" else c[10 : 11 + q] + c[11 + q :] * u
    Q = np.empty((2, 1 + q, m))
    np.multiply(matrix_row, S, out=Q[0])
    np.subtract(S, fitted, out=Q[1])
    Q[1] *= Q[1]
    Q[1] *= weight_row**2
    sums = np.add.reduceat(Q.reshape(2 * (1 + q), m), starts, axis=1)
    stacked, per_outcome = sums[: 1 + q].T / counts[:, None], sums[1 + q :].T
    tau_stacked = np.vecdot(combo, stacked[right] - stacked[left]) / h
    v_bc = n * h * sum(np.vecdot(combo**2, per_outcome[side]) for side in (right, left))
    se, lower, upper = _interval(tau_bc, v_bc, n, h, alpha)
    ok = ok[left] & ok[right] & _agree(tau_pdd, tau_iv) & _agree(tau_bc, tau_stacked)
    ok &= np.isfinite(v_bc)
    return ok, tau_pdd, tau_rdd[:, 0], tau_bc, se, lower, upper


def _identity_unless(ok: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``stack`` with the identity in place of each matrix that is not
    ``ok`` or not finite, and ``ok`` narrowed to the finite ones, so that a
    batched SVD or solve never fails on a sample that is refitted anyway.
    """
    ok = ok & np.isfinite(stack).all(axis=(1, 2))
    return np.where(ok[:, None, None], stack, np.eye(stack.shape[-1])), ok
