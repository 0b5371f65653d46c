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
(``_side_terms``), and the stacked one applies row 0 of each side's literal
correction matrix, built from explicit inverses (``correction_matrix``, the
one place an inverse is taken).
``_interval`` holds the standard error and the Wald interval, and
``estimator._point_forms`` the two forms of the point estimate.

Each formula is written once, for one side or a stack of sides ``(..., k,
k)``, and serves two callers. Every sum over rows is a fixed-order segment
sum of per-row products (``local_fit._sums``), so no BLAS thread count
changes a result. ``bias_corrected_estimate`` cuts the sample to the rows
within ``max(h, b)`` of the cutoff, left side first, by the one gather of
rows (``estimator._cut``, which copies each column once, the outcomes into
the stack ``S`` that the cut sample views, and leaves a sample already in
that form as it is), and sums each side's moments as one segment of that
side's rows; at ``b = h`` a side's linear and quadratic fits share one
moment pass. ``n`` and ``v_bc`` still refer to the whole sample. The point
estimate (``estimate_sharp``) and the two sides' corrections read nothing
of each other until they are combined, so where the cut holds at least
``_forked.WORKER_ROWS`` rows and a second CPU is free (``_forked.workers``)
a forked child fits the point estimate while this process corrects both
sides. The child runs the same code on the same memory, so every output is
the same bit for bit; where it cannot be made, dies, raises or sends
nothing (``_forked.take``), this process fits the point estimate on the
whole sample, whose cut at ``h`` is the child's, and its error, met first
by one process, is raised before a side's. ``fit_block``, which
``simulate.monte_carlo`` calls for both designs, sums the moments of many
replications' cut samples with one segment per side, a window of rows at a
time, and passes the stacks to the same helpers. A side summed alone and in
a block then rounds alike. Its outcome stack may hold rows after ``[y, W]``,
such as a fuzzy design's treatment, whose jumps it fits and returns and
which enter nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from . import _forked
from .errors import NonFiniteResult
from .estimator import (
    DiscontinuityEstimate,
    _agree,
    _cut,
    _point_forms,
    _require_equivalent,
    estimate_sharp,
)
from .io import Sample, _require_valid_alpha_and_b
from .kernels import (
    KernelSpec,
    _offsets,
    _weights_at,
    scaled_basis,
    sided_weights,
)
from .local_fit import (
    GRAM_RCOND_MIN,
    SCHUR_RCOND_MIN,
    _chunks,
    _design,
    _design_rows,
    _distinct,
    _extreme_rows,
    _hankel,
    _inside_rows,
    _instrument_rows,
    _joint_solve,
    _nested_designs,
    _product_sums,
    _reduce,
    _repeated,
    _rows_of,
    _schur_complement,
    _schur_rcond,
    _sums,
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
    the sum of ``weight_row * s`` is the local linear intercept minus the
    estimated curvature bias. ``matrix_row`` is row 0 of the literal correction matrix
    (``correction_matrix``), the same map times ``n * h`` built along an
    independent path; the stacked equivalence check applies it. ``intercepts``,
    ``curvatures``, ``bias`` and ``intercepts_bc`` are aligned with the
    outcome stack's columns.
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
    return _side_correction(S, w_h, basis1, w_b, basis2, h == b)


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
    four must share side and cutoff. Each fit's moments are summed apart.
    """
    return _side_correction(S, weights_main, basis_main, weights_bias, basis_bias, False)


def _side_correction(S, weights_main, basis_main, weights_bias, basis_bias, same: bool):
    """``side_correction_from_weights``, told whether the two fits are one
    (``same``), as they are at ``b = h``: then their moments are summed
    once, the linear fit's power sums and ``R'KS`` read off the first rows
    of the quadratic fit's, the same products summed alike, so bit for bit
    the separate sums.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim == 1:
        S = S[:, None]
    if basis_main.degree != 1 or basis_bias.degree != 2:
        raise ValueError("need a degree-1 main basis and a degree-2 bias basis")
    if weights_main.side != weights_bias.side:
        raise ValueError("weights were built for different sides")
    n, h, b = S.shape[0], weights_main.bandwidth, weights_bias.bandwidth
    design2 = _design(weights_bias, basis_bias)
    if same:
        (gram1, powers1, _), (gram2, _, _) = _nested_designs(weights_main, basis_main, basis_bias)
        design1 = design2
        gs = _product_sums(design2, S.T, [0], n)[0]
        rks = gs[:2]
    else:
        gram1, powers1, _ = _weighted_design(weights_main, basis_main)
        gram2 = _weighted_design(weights_bias, basis_bias)[0]
        design1 = _design(weights_main, basis_main)
        rks, gs = (_product_sums(design, S.T, [0], n)[0] for design in (design1, design2))
    coef, curves, bias, load, stacked, weight = _side_terms(gram1, powers1, rks, gram2, gs, n, h, b)
    intercepts = coef[0]
    weight_row, matrix_row = _row_forms((weight, stacked), design1, design2, n)
    return SideCorrection(
        n=n,
        n_effective=weights_main.n_positive,
        kish_size=_kish_size(weights_main),
        bandwidth=float(h),
        intercepts=intercepts,
        curvatures=curves,
        bias=bias,
        intercepts_bc=intercepts - bias,
        weight_row=weight_row,
        matrix_row=matrix_row,
        curvature_load=float(load),
    )


def _kish_size(weights) -> float:
    """Kish size ``(sum w)^2 / sum w^2``, exactly the count for equal weights (window)."""
    w, n = weights.weights, weights.n_positive
    if np.count_nonzero(w == w.max()) == n:
        return float(n)
    total, squares = _sums(lambda rows: np.stack([w[rows], w[rows] * w[rows]]), w.size, [0])[0]
    return float(total**2 / squares)


def _side_terms(gram1, powers1, rks, gram2, gs, n, h, b):
    """From the moments of a side of ``n`` rows, or of a stack of sides, at
    ``h`` (``R'KR``, the power sums ``K u^k`` and ``R'KS``) and at ``b``
    (``R'KR`` and ``R'KS``): the outcomes' scaled linear coefficients, their
    curvatures ``2 m2`` and biases ``h^2 / 2 * load * curvature``, the
    curvature load ``e0' (R'KR)^{-1} R'K u^2``, and the coefficients
    ``(..., 5)`` of two per-row maps (``_row_forms``). One is the stacked
    form's row (``correction_matrix``); the other is the variance's weight
    row, the intercept row ``e0' (R'KR)^{-1}`` at ``h`` minus ``(h / b)^2``
    times the load times the row ``e2' (R'KR)^{-1}`` at ``b``, which applied
    to ``R'KS`` at ``b`` gives each outcome's ``b^2 m2``.

    Each outcome column and each row has a solve of its own, as in
    ``local_poly_fit``: LAPACK rounds a one-column solve unlike a column of
    a wider one. ``n``, ``h`` and ``b`` are scalars or one per side, and
    powers are products, so a side rounds alike alone and in a stack.
    """
    rku2 = powers1[..., 2:4]
    coef = np.linalg.solve(gram1[..., None, :, :], np.swapaxes(rks, -1, -2)[..., None])
    coef = np.ascontiguousarray(np.swapaxes(coef[..., 0], -1, -2))
    e0_row = np.linalg.solve(gram1, [[1.0], [0.0]])[..., 0]
    e2_row = np.linalg.solve(gram2, [[0.0], [0.0], [1.0]])[..., 0]
    load = np.vecdot(e0_row, rku2)
    hh, bb, ll, nh, nb = (np.asarray(x)[..., None] for x in (h, b, load, n * h, n * b))
    curvatures = 2.0 * np.vecdot(e2_row[..., :, None], gs, axis=-2) / (bb * bb)
    r = h / b
    stacked = correction_matrix(gram1 / nh[..., None], rku2 / nh, gram2 / nb[..., None], r * r * r)
    weight = np.concatenate([e0_row, hh * hh / (bb * bb) * ll * e2_row], axis=-1)
    return coef, curvatures, 0.5 * (hh * hh) * ll * curvatures, load, stacked, weight


def _row_forms(cs, design1, design2, m: int) -> np.ndarray:
    """The per-row maps ``c[0] K + c[1] K u`` at ``h`` minus ``c[2] K + c[3] K v
    + c[4] K v^2`` at ``b`` over ``m`` rows, one row of the result for each
    ``c`` in ``cs``, from the design rows of both fits
    (``local_fit._rows_of``); each ``c`` holds five coefficients, or five
    rows of one coefficient per row. They are formed a chunk of rows at a
    time, so their temporaries stay in cache, and each chunk's design rows
    are formed once for all of them; where both fits are one
    (``design1 is design2``) they are formed once for both.
    """
    out = np.empty((len(cs), m))
    cs = [np.reshape(c, (5, -1)) for c in cs]
    for rows in _chunks(m):
        k2 = _rows_of(design2, rows)
        k1 = k2 if design1 is design2 else _rows_of(design1, rows)
        for line, c in zip(out, cs):
            cr = c[:, rows] if c.shape[1] > 1 else c
            at_b = cr[2] * k2[0] + cr[3] * k2[1] + cr[4] * k2[2]
            line[rows] = cr[0] * k1[0] + cr[1] * k1[1] - at_b
    return out


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


def _squared_residuals(weight_row, S, centre) -> np.ndarray:
    """Each outcome's ``(weight_row * (s - centre))^2`` on rows of outcome
    rows ``S``: the per-row terms of a side's variance.
    """
    return np.square((S - centre) * weight_row)


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
) -> float:
    """Variance of the combined bias-corrected statistic, scaled by ``n * h``.

    ``S_plus`` and ``S_minus`` are the outcome rows each side's correction
    was built from, and ``n`` is the size of the sample they were cut from;
    rows outside every kernel support add nothing. It is a sum of one
    quadratic form per side, with a diagonal residual matrix: the residual
    of an outcome is its value minus the side's bias-corrected intercept,
    as in the robust bias correction of Calonico, Cattaneo & Titiunik
    (2014). Cross-side terms vanish, as the weight supports are disjoint,
    and cross-covariances between outcome columns are omitted by
    construction.
    """
    total = 0.0
    for S, corr in ((S_plus, corr_plus), (S_minus, corr_minus)):
        S, centre = np.asarray(S).T, corr.intercepts_bc[:, None]

        def squares(rows):
            return _squared_residuals(corr.weight_row[rows], S[:, rows], centre)

        total += float(np.vecdot(combo**2, _sums(squares, S.shape[-1], [0])[0]))
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

    A cut of at least ``_forked.WORKER_ROWS`` rows with placebo columns has
    its point estimate fitted in a forked child while this process corrects
    both sides, on Linux with more than one available CPU and no other
    Python thread. Where the child fails, this process fits the point
    estimate on the whole sample without its treatment column, which
    ``estimate_sharp`` cuts at ``h`` to the child's rows. The results, and
    the error raised where both raise (the point estimate's), are those of
    one process; no child outlives the call.
    """
    _require_valid_alpha_and_b(alpha, h, b)
    n = sample.n
    plain = replace(sample, a=None)  # its point estimate fits no first stage
    cut, k, S = _cut(plain, cutoff, max(h, b), kernel)
    if S is None:
        S = np.vstack([cut.y, cut.W.T])
    d, point = cut.d, None
    workers: list[_forked.Worker | None] = []
    try:
        if sample.q and d.size >= _forked.WORKER_ROWS and _forked.workers(2) > 1:
            # a child fits the point estimate while this process corrects both sides
            _forked.fork_each(workers, [lambda: (estimate_sharp(cut, cutoff, h, kernel),)])
        elif sample.q:
            point = estimate_sharp(cut, cutoff, h, kernel)
        del cut  # only the point estimate reads the cut placebo treatments
        plus, minus = slice(k, None), slice(None, k)
        try:
            corr_plus = side_correction(d[plus], S[:, plus].T, cutoff, h, b, kernel, "right")
            corr_minus = side_correction(d[minus], S[:, minus].T, cutoff, h, b, kernel, "left")
        finally:
            # taken even where a side raised: one process would meet the
            # point estimate's error first. Where the child failed, this
            # process fits the whole sample, whose cut at h is the child's
            if workers:
                point = _forked.take(workers, 1, lambda: estimate_sharp(plain, cutoff, h, kernel))
    finally:
        _forked.stop(workers)
    combo = np.concatenate([[1.0], [] if point is None else -point.gamma_minus])
    jump = float(corr_plus.intercepts[0] - corr_minus.intercepts[0])
    tau_bc = float(np.vecdot(combo, corr_plus.intercepts_bc - corr_minus.intercepts_bc))
    # a side's matrix row is n * h times its weight row, n its own row count
    right, left = (
        _product_sums(corr.matrix_row[None], S[:, rows], [0], corr.n)[0, 0] / corr.n
        for corr, rows in ((corr_plus, plus), (corr_minus, minus))
    )
    _require_equivalent(
        tau_bc,
        float(np.vecdot(combo, right - left)) / h,
        "componentwise bias correction",
        "stacked matrix form",
    )
    sides = S[:, plus].T, S[:, minus].T
    v_bc = robust_variance(*sides, corr_plus, corr_minus, combo, n)
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
) -> RobustEstimate:
    """Plain local linear discontinuity with robust bias correction:
    ``bias_corrected_estimate`` on ``d`` and ``y`` with no placebo columns.
    """
    d = np.asarray(d, dtype=float)
    none = np.empty((d.shape[0], 0))
    sample = Sample(d, np.asarray(y, dtype=float), W=none, Z=none)
    return bias_corrected_estimate(sample, cutoff, h, b, kernel, alpha)


@np.errstate(all="ignore")  # a sample that fails a check is counted as failed
def fit_block(
    d: np.ndarray,
    S: np.ndarray,
    Z: np.ndarray,
    counts: np.ndarray,
    cutoff: float,
    h: np.ndarray,
    b: np.ndarray,
    kernel: KernelSpec,
    n: int,
    alpha: float,
) -> tuple[np.ndarray, ...]:
    """``bias_corrected_estimate`` of a block of samples in two passes over
    their rows.

    ``d``, the outcome rows ``S = [y, W, ...]`` and the placebo treatment
    rows ``Z`` ``(q, rows)`` hold the samples one after another,
    each cut to the rows within ``max(h, b)`` of the cutoff with its left
    rows first, and ``counts`` the row counts of their sides, left then
    right, each at least 1. ``h`` and ``b`` hold each sample's bandwidths
    and ``n`` the size of the samples they were cut from. Each row of ``S``
    after the first ``1 + q``, such as a fuzzy design's treatment ``a``, is
    fitted like ``y`` but enters neither the instrumented solves, nor the
    combination, nor the checks, nor the variance.

    Each side of each sample is one segment of the rows, and every per-row
    table (coordinates, weights, design rows, products, each side's
    coefficients repeated over its rows, row forms and residual squares) is
    formed one window of rows at a time by the single fit's row functions
    and summed by ``local_fit._reduce``, which sums each segment as the
    single fit sums that side; only the input columns and the per-side
    stacks span the block. The first pass sums the moments and the support
    extremes, the second, after the solves, the stacked form, the variance
    terms (each outcome's residual about its side's bias-corrected
    intercept, as in ``robust_variance``) and the support test's inner
    values. A side that fails a check gets the identity in place of its
    systems (``_identity_unless``); where ``b <= h`` a sample's single fit
    sums the same rows, so the two agree exactly.

    Returns ``(ok, tau_pdd, tau_rdd, tau_pdd_bc, se, ci_lower, ci_upper)``
    over the samples, ``tau_rdd`` ``(samples, rows of S)`` holding the local
    linear jump of every row of ``S``. ``ok`` is False exactly where the
    single fit raises (``test_block_fit_agrees_with_the_single_fit`` checks
    both ways), so a sample that is not ok has failed and its other values
    mean nothing.
    """
    q, m = Z.shape
    samples = len(h)
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    left, right = slice(0, None, 2), slice(1, None, 2)
    h_seg, b_seg = np.repeat(h, 2), np.repeat(b, 2)
    at_h, at_b = _repeated(h_seg, starts, m), _repeated(b_seg, starts, m)
    # at b = h both fits share their weights and moments, as in the single
    # fit: the linear fit's sums are the first rows of the quadratic fit's
    shared = np.array_equal(h, b)

    def fit_rows(rows):
        """``(u, weights at h, v, weights at b)`` of a range of rows."""
        fits = []
        for bandwidth in (at_b,) if shared else (at_h, at_b):
            per_row = bandwidth(rows)
            u = _offsets(d[rows], cutoff, per_row)
            fits += [u, _weights_at(kernel, u.copy(), per_row)]
        return fits * 2 if shared else fits

    def moment_rows(rows):  # each table is summed before the next is formed
        u, wh, v, wb = fit_rows(rows)
        s = S[:, rows]
        kv = _design_rows(wb, v, 4)  # the power rows at b; K R at b is kv[:3]
        ku = kv if shared else _design_rows(wh, u, 3)
        yield kv
        yield from _instrument_rows(ku[:2], s, Z[:, rows])
        yield (kv[2:3] if shared else kv[:3])[:, None] * s[None]  # the rest of R'KS at b
        yield wh > 0.0
        yield from _extreme_rows(v, wb)
        if not shared:
            yield ku
            yield from _extreme_rows(u, wh)

    extremes = (np.minimum, np.maximum)
    ufuncs = (*(np.add,) * 6, *extremes)
    mv, RKS, ZKS, ZKR, gs, positives, lo_b, hi_b, *linear = _reduce(
        moment_rows, m, starts, ufuncs if shared else (*ufuncs, np.add, *extremes)
    )
    mu, lo_h, hi_h = linear or (mv[:, :4], lo_b, hi_b)
    GS = np.concatenate([RKS, gs], axis=1) if shared else gs  # R'KS at b

    # the support test's third value at b is looked for in the second pass
    ok = (positives >= 2 + q) & (_distinct(lo_b, hi_b) >= 2) & (_distinct(lo_h, hi_h) >= 2)
    A, G = _hankel(mu, 1), _hankel(mv, 2)  # R'KR at h and at b
    ok &= (reciprocal_condition(A) >= GRAM_RCOND_MIN) & (reciprocal_condition(G) >= GRAM_RCOND_MIN)
    A, G = _identity_unless(ok, A), _identity_unless(ok, G)
    coef, _, bias, _, *row_coefs = _side_terms(A, mu, RKS, G, GS, counts, h_seg, b_seg)
    beta = coef[:, 0, : 1 + q]  # the intercepts of y and W; later rows are only fitted
    intercepts_bc = beta - bias[:, : 1 + q]

    # the instrumented solve of each side; a side that is not ok solves the
    # identity, its cross-moment blocks zeroed
    RKW, ZKW = RKS[:, :, 1 : 1 + q], ZKS[:, :, 1 : 1 + q]
    ok &= _schur_rcond(_schur_complement(A, RKW, ZKR, ZKW), ZKW) >= SCHUR_RCOND_MIN
    ZKW = _identity_unless(ok, ZKW)
    RKW, ZKR = (np.where(ok[:, None, None], x, 0.0) for x in (RKW, ZKR))
    alpha0, gamma = _joint_solve(A, RKW, ZKR, ZKW, RKS[:, :, 0], ZKS[:, :, 0])

    _, tau_pdd, tau_iv = _point_forms(
        beta[right], beta[left], alpha0[right], alpha0[left], gamma[right], gamma[left]
    )
    combo = np.concatenate([np.ones((samples, 1)), -gamma[left]], axis=1)
    tau_bc = np.vecdot(combo, intercepts_bc[right] - intercepts_bc[left])

    # each side's coefficients, repeated over its rows: the stacked form's
    # and the weight row's, each outcome's residual centre (its bias-corrected
    # intercept), and the extremes of v between which the support test looks
    # for a third value
    stacked_at, weight_at, centre_at, bounds_at = (
        _repeated(np.ascontiguousarray(x.T), starts, m)
        for x in (*row_coefs, intercepts_bc, np.stack([lo_b, hi_b], axis=1))
    )

    def variance_rows(rows):  # each table is summed before the next is formed
        u, wh, v, wb = fit_rows(rows)
        kv = _design_rows(wb, v, 2)
        ku = kv[:2] if shared else _design_rows(wh, u, 1)
        s = S[: 1 + q, rows]
        yield _row_forms((stacked_at(rows),), ku, kv, kv.shape[-1])[0] * s
        weight_row = _row_forms((weight_at(rows),), ku, kv, kv.shape[-1])[0]
        yield _squared_residuals(weight_row, s, centre_at(rows))
        yield _inside_rows(v, wb, *bounds_at(rows))

    stacked, per_outcome, inside = _reduce(
        variance_rows, m, starts, (np.add, np.add, np.logical_or)
    )
    ok &= _distinct(lo_b, hi_b, inside) >= 3
    stacked /= counts[:, None]
    tau_stacked = np.vecdot(combo, stacked[right] - stacked[left]) / h
    v_bc = n * h * sum(np.vecdot(combo**2, per_outcome[side]) for side in (right, left))
    se, lower, upper = _interval(tau_bc, v_bc, n, h, alpha)
    ok = ok[left] & ok[right] & _agree(tau_pdd, tau_iv) & _agree(tau_bc, tau_stacked)
    ok &= np.isfinite(v_bc)
    return ok, tau_pdd, coef[right, 0] - coef[left, 0], tau_bc, se, lower, upper


def _identity_unless(ok: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``stack`` with the identity in place of each matrix that is not
    ``ok``, so that a batched solve never fails on a side counted as failed.
    A side is ok only after its conditioning tests, which give 0 for a
    non-finite matrix (``local_fit._singular_values``).
    """
    return np.where(ok[:, None, None], stack, np.eye(stack.shape[-1]))
