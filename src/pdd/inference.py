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

``monte_carlo`` fits the sharp design in blocks. Each replication still
costs its draw, its bandwidth and its cut; the cut rows of several
replications are then fitted together by ``_fit_block``, which forms every
moment of ``estimate_sharp``, ``side_correction`` and ``robust_variance`` as
a segment sum over the concatenated rows and solves all the replications'
small systems as one stack, so the fits cost once per block rather than
once per replication. A block holds about ``simulate.BLOCK_ROWS`` rows, a
fixed budget that bounds its memory whatever the number of replications
and the sample size; a replication whose cut holds more than
``simulate.SOLO_ROWS`` rows is fitted alone. Both equivalence checks and
every support and conditioning check run there too, vectorised, and a
replication that fails any of them is refitted by
``bias_corrected_estimate``, which decides whether it fails. The fuzzy
design is still fitted one replication at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import NonFiniteResult
from .estimator import DiscontinuityEstimate, _agree, _cut, _require_equivalent, estimate_sharp
from .io import Sample, _require_valid_alpha_and_b, _require_valid_variance_mode
from .kernels import KernelSpec, kernel_value, scaled_basis, sided_weights
from .local_fit import (
    GRAM_RCOND_MIN,
    SCHUR_RCOND_MIN,
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

    ``cuts`` holds ``(sample, k)`` pairs, each sample already cut to the rows
    within ``max(h, b)`` of the cutoff with its ``k`` left rows first, as
    ``kernels.support_rows`` orders them; every sample has at least one
    placebo pair and at least one row on each side. ``h`` and ``b`` hold each
    sample's bandwidths and ``n`` the size of the samples they were cut from.

    The samples' rows are concatenated, so each side of each sample is one
    contiguous segment, left then right. Weights, basis powers and every
    per-row product are formed once for the whole block, every moment is a
    segment sum (``np.add.reduceat``, in a fixed order that no BLAS thread
    count changes), and each sample's 2x2, 3x3 and (2+q)x(2+q) systems are
    solved as one stack. The componentwise and stacked bias corrections, the
    point estimate's two forms and the variance follow the single-fit
    formulas, and the stacked form again applies explicit inverses of the
    normalised moment matrices row by row, sharing no solve with the
    componentwise one.

    Returns ``(ok, tau_pdd, tau_rdd_y, tau_pdd_bc, se, ci_lower, ci_upper)``,
    arrays over the samples. ``ok`` is False for a sample that fails any
    check of the single fit here: distinct support, a Gram or Schur
    reciprocal condition, the count of positive weights, either equivalence
    check or a finite variance. Its other values are then meaningless; the
    caller refits it with ``bias_corrected_estimate``, which decides whether
    and how it fails, so each check keeps its one definition there.
    """
    q = cuts[0][0].q
    counts = np.array([c for sample, k in cuts for c in (k, sample.n - k)])
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    m = int(counts.sum())
    nseg = counts.size
    left, right = slice(0, None, 2), slice(1, None, 2)
    h_seg, b_seg = np.repeat(h, 2), np.repeat(b, 2)
    # the outcome columns y, W and the placebo treatments Z, one row each
    S = np.empty((1 + q, m))
    S[0] = np.concatenate([sample.y for sample, _ in cuts])
    S[1:] = np.concatenate([sample.W for sample, _ in cuts]).T
    Z = np.ascontiguousarray(np.concatenate([sample.Z for sample, _ in cuts]).T)
    rel = np.concatenate([sample.d for sample, _ in cuts]) - cutoff

    def weights_and_basis(bandwidths):
        # as sided_weights and scaled_basis form them, so each row's values match
        per_row = np.repeat(bandwidths, counts)
        w = kernel_value(kernel, np.abs(rel) / per_row)
        w /= per_row
        return w, rel / per_row

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
    RKS = muS.reshape(2, 1 + q, nseg).transpose(2, 0, 1)
    ZKR = muZ.reshape(2, q, nseg).transpose(2, 1, 0)
    ZKS = mZS.reshape(q, 1 + q, nseg).transpose(2, 0, 1)  # [Z'Ky  Z'KW]
    GS = mvS.reshape(3, 1 + q, nseg).transpose(2, 0, 1)

    ok = (n_positive[0] >= 2 + q) & _distinct_support(u, wh, starts, counts, 2)
    ok &= _distinct_support(v, wb, starts, counts, 3)
    A, ok = _identity_unless(ok, A)
    G, ok = _identity_unless(ok, G)
    ok &= (reciprocal_condition(A) >= GRAM_RCOND_MIN) & (reciprocal_condition(G) >= GRAM_RCOND_MIN)
    A, ok = _identity_unless(ok, A)
    G, ok = _identity_unless(ok, G)

    # componentwise: local linear coefficients, intercept row, curvature
    e0 = np.broadcast_to(np.array([[1.0], [0.0]]), (nseg, 2, 1))
    X = np.linalg.solve(A, np.concatenate([RKS, e0], axis=2))
    coef, e0_row = X[:, :, : 1 + q], X[:, :, -1]
    e2 = np.broadcast_to(np.array([[0.0], [0.0], [1.0]]), (nseg, 3, 1))
    e2_row = np.linalg.solve(G, e2)[:, :, 0]
    load = e0_row[:, 0] * mu[2] + e0_row[:, 1] * mu[3]  # e0_row @ R'K u^2
    curvatures = 2.0 * np.einsum("si,sij->sj", e2_row, GS) / b_seg[:, None] ** 2
    intercepts = coef[:, 0, :]
    intercepts_bc = intercepts - 0.5 * h_seg[:, None] ** 2 * load[:, None] * curvatures

    # the instrumented solve of each side
    D = ZKS[:, :, 1:]
    schur, ok = _identity_unless(ok, D - ZKR @ coef[:, :, 1:])
    D, ok = _identity_unless(ok, D)
    ok &= _schur_rcond(schur, D) >= SCHUR_RCOND_MIN
    joint = np.concatenate(
        [np.concatenate([A, RKS[:, :, 1:]], axis=2), np.concatenate([ZKR, D], axis=2)], axis=1
    )
    joint, ok = _identity_unless(ok, joint)
    rhs = np.concatenate([RKS[:, :, 0], ZKS[:, :, 0]], axis=1)[:, :, None]
    nu = np.linalg.solve(joint, rhs)[:, :, 0]
    alpha0, gamma = nu[:, 0], nu[:, 2:]

    tau_rdd = intercepts[right] - intercepts[left]
    gamma_minus, gamma_plus, beta_plus = gamma[left], gamma[right], intercepts[right, 1:]
    tau_pdd = tau_rdd[:, 0] - (tau_rdd[:, 1:] * gamma_minus).sum(axis=1)
    tau_iv = (
        alpha0[right]
        + (beta_plus * gamma_plus).sum(axis=1)
        - alpha0[left]
        - (beta_plus * gamma_minus).sum(axis=1)
    )
    combo = np.concatenate([np.ones((len(cuts), 1)), -gamma_minus], axis=1)
    tau_bc = (combo * (intercepts_bc[right] - intercepts_bc[left])).sum(axis=1)

    # per-row coefficients: the stacked form's row of explicit inverses of the
    # normalised moments (as correction_matrix), the variance's weight row
    # (as SideCorrection.weight_row) and each outcome's residual centre
    nh, nb = (counts * h_seg)[:, None], (counts * b_seg)[:, None]
    stacked_rows = _correction_rows(
        A / nh[:, :, None], mu[2:4].T / nh, G / nb[:, :, None], (h_seg / b_seg) ** 3
    )
    weight_quad = ((h_seg**2 / b_seg**2) * load)[:, None] * e2_row
    centre = [intercepts_bc] if variance_mode == "paper" else [coef[:, 0, :], coef[:, 1, :]]
    per_seg = np.concatenate([*stacked_rows, e0_row, weight_quad, *centre], axis=1)
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
    tau_stacked = (combo * (stacked[right] - stacked[left])).sum(axis=1) / h
    total = (combo**2 * per_outcome[right]).sum(axis=1) + (combo**2 * per_outcome[left]).sum(
        axis=1
    )
    v_bc = n * h * total
    se = np.sqrt(v_bc / (n * h))
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    ok = ok[left] & ok[right] & _agree(tau_pdd, tau_iv) & _agree(tau_bc, tau_stacked)
    ok &= np.isfinite(v_bc)
    return ok, tau_pdd, tau_rdd[:, 0], tau_bc, se, tau_bc - z * se, tau_bc + z * se


def _correction_rows(
    gram_linear: np.ndarray, u2_moment: np.ndarray, gram_quadratic: np.ndarray, ratio: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``correction_matrix`` for a stack of sides, as coefficients: row 0 of
    each side's literal correction matrix is ``linear`` applied to the rows
    of its ``K R`` at ``h`` minus ``quadratic`` applied to those of its
    ``K R`` at ``b``. The arguments are stacks of that function's, and the
    same explicit inverses are taken.
    """
    g1_inv = np.linalg.inv(gram_linear)[:, 0, :]
    g2_inv = np.linalg.inv(gram_quadratic)[:, 2, :]
    load = (g1_inv * u2_moment).sum(axis=1)
    return g1_inv, (ratio * load)[:, None] * g2_inv


def _distinct_support(
    x: np.ndarray, w: np.ndarray, starts: np.ndarray, counts: np.ndarray, need: int
) -> np.ndarray:
    """Whether each segment has at least ``need`` (2 or 3) distinct values
    of ``x`` with positive weight ``w``; the segmented form of
    ``local_fit._require_distinct_support``.
    """
    positive = w > 0.0
    lo = np.minimum.reduceat(np.where(positive, x, np.inf), starts)
    hi = np.maximum.reduceat(np.where(positive, x, -np.inf), starts)
    enough = lo < hi
    if need == 3:
        inside = positive & (x > np.repeat(lo, counts)) & (x < np.repeat(hi, counts))
        enough &= np.logical_or.reduceat(inside, starts)
    return enough


def _identity_unless(ok: np.ndarray, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``stack`` with the identity in place of each matrix that is not
    ``ok`` or not finite, and ``ok`` narrowed to the finite ones, so that a
    batched SVD or solve never fails on a sample that is refitted anyway.
    """
    ok = ok & np.isfinite(stack).all(axis=(1, 2))
    return np.where(ok[:, None, None], stack, np.eye(stack.shape[-1])), ok
