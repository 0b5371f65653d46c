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
correction matrix, built from the same raw moments with explicit inverses
(``correction_matrix``, the one place an inverse is taken). Both rows are
at the fit's own scale, one map computed two ways, so each side's stacked
sum is its bias-corrected intercept.
``_interval`` holds the standard error and the Wald interval, and
``estimator._point_forms`` the two forms of the point estimate.

Each formula is written once, for one side or a stack of sides ``(..., k,
k)``, and serves two callers. Every sum over rows is a fixed-order segment
sum of per-row products (``local_fit._reduce``), so no BLAS thread count
changes a result. Two table functions make every pass over a side's rows,
in a single fit and in a block alike: ``_moment_rows`` sums the moments at
``h`` and at ``b`` and the support extremes, and after the solves
``_variance_rows`` sums the stacked form and the variance terms, forming
the side's two row maps (``_row_form``) a window of rows at a time. At ``b
= h`` one pair of coordinates and weights serves both fits. A single side
runs both passes within ``side_correction``, which keeps their sums and no
row (``SideCorrection``), so each side's coordinates and weights are freed
before the next side's are formed. Both passes read their rows through
one reader (``_views``, ``_in_place``), which gives a window's running
variable, outcome rows and placebo treatment rows.
``bias_corrected_estimate`` cuts the sample to the rows within ``max(h,
b)`` of the cutoff, left side first, deciding the rows once
(``kernels._cut_rows``), and each side's passes read one segment of that
side's rows. Where the engine below fits a cut that keeps every row, as
the gaussian kernel's does, it reads the sample's own columns in place, a
run of windows at a time, so nothing is copied whole. Every other cut, and
each cut of the per-fit path, is read from its one gather of rows
(``estimator._cut``, which copies each column once, the outcomes into the
stack ``S`` that the cut sample views, and leaves a sample already in that
form as it is). ``n`` and ``v_bc`` still refer to the whole sample.
``fit_block``, which ``simulate.monte_carlo`` calls for both designs, runs
the same two tables over many replications' cut samples with one segment
per side, a window of rows at a time, and passes the stacks to the same
helpers, which give the point estimate too. A side summed alone and in a
block then rounds alike. It returns the single fit's own result types,
``RobustEstimate`` and its point estimate, with one entry per sample in
each field. Its outcome stack may hold rows after ``[y, W]``, such as a
fuzzy design's treatment, whose jumps it fits and returns as the point
estimate's ``tau_rdd_a`` and which enter nothing else. A cut of at least
``ENGINE_ROWS`` rows with placebo columns is fitted by ``fit_block`` as a
block of one sample, in this process: its two passes per side replace the
point estimate's and both corrections' passes, and the result, the
block's sample 0 (``_sample``), is the per-fit path's
(``bias_corrected_estimate`` says where bit for bit). Where the engine
flags the sample, the per-fit path runs on the same cut to raise its
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass, replace
from functools import partial
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
from .io import Sample, _require_valid_alpha_and_b
from .kernels import (
    CHUNK_ROWS,
    KernelSpec,
    _cut_rows,
    _offsets,
    _weights_at,
    scaled_basis,
    sided_weights,
)
from .local_fit import (
    GRAM_RCOND_MIN,
    SCHUR_RCOND_MIN,
    _checked_gram,
    _design_rows,
    _distinct,
    _extreme_rows,
    _hankel,
    _inside_rows,
    _instrument_rows,
    _joint_solve,
    _reduce,
    _repeated,
    _require_aligned,
    _require_some_weight,
    _require_support,
    _schur_rcond,
    _support,
    reciprocal_condition,
)

#: Cut rows from which ``bias_corrected_estimate`` with placebo columns fits
#: its sample as a block of one (``fit_block``); a smaller cut takes the
#: per-fit path of ``estimate_sharp`` and two ``side_correction`` calls.
ENGINE_ROWS = 1 << 17

#: Rows an in-place read (``_in_place``) takes at once: a run of a few
#: windows, so each column is gathered a long stretch at a time into one
#: reused buffer, of about 2 MB with one placebo column.
RUN_ROWS = 4 * CHUNK_ROWS

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

    ``intercepts``, ``curvatures``, ``bias``, ``intercepts_bc``, ``stacked``
    and ``squares`` are aligned with the outcome stack's columns.
    ``n_effective`` counts the positive weights at ``h`` and ``kish_size``
    is their Kish effective sample size ``(sum w)^2 / sum w^2``.

    ``weight_map`` and ``matrix_map`` are the five coefficients
    (``_row_form``) of two per-row maps. The weight row maps any outcome
    column to its bias-corrected intercept: the sum of the row times the
    column is the local linear intercept minus the estimated curvature
    bias. The matrix row is row 0 of the literal correction matrix
    (``correction_matrix``), the same map built along an independent path.
    The side's second pass (``_variance_rows``) forms both rows a window at
    a time and keeps only their sums: ``stacked``, each outcome's sum of
    products with the matrix row, which the stacked equivalence check
    applies, and ``squares``, each outcome's sum of squared residuals about
    ``intercepts_bc`` under the weight row, which enter the variance. A
    correction holds no per-row array.
    """

    n: int
    n_effective: int
    kish_size: float
    bandwidth: float
    intercepts: np.ndarray
    curvatures: np.ndarray
    bias: np.ndarray
    intercepts_bc: np.ndarray
    curvature_load: float
    weight_map: np.ndarray
    matrix_map: np.ndarray
    stacked: np.ndarray
    squares: np.ndarray


def _views(d, S, Z=None):
    """The reader of rows stored in cut order: ``read(rows)`` gives the
    views ``(d, S, Z)`` of a range of rows of the running variable, the
    outcome rows and the placebo treatment rows, each None where not given.
    A Monte Carlo block, a gathered cut and a single side read their rows so.
    """

    def read(rows):
        return tuple(None if x is None else x[..., rows] for x in (d, S, Z))

    return read


def _in_place(sample: Sample, order: np.ndarray | None):
    """The reader, as ``_views`` gives one, of ``sample``'s rows in cut
    order, ``order`` (``kernels._cut_rows``, None where the sample is
    already in it), for a cut that keeps every row: nothing is copied whole.

    ``(d, S, Z)`` with ``S = [y, W]`` are views of one buffer, into which
    each column's ``RUN_ROWS`` rows from the start of a range are gathered
    at once, where the buffer does not hold the range. A pass reads its
    ranges in order, so each run of windows costs one take per column. The
    views are laid out as a gathered cut's, so every table is formed, and
    summed, alike; they hold until the next run is gathered, and a table
    function reads them only while it forms its window's tables.
    """
    columns, split = (sample.d, sample.y, *sample.W.T, *sample.Z.T), 2 + sample.q
    buffer = np.empty((len(columns), min(RUN_ROWS, sample.n)))
    held = [0, 0]  # the cut rows the buffer holds

    def read(rows):
        if not held[0] <= rows.start <= rows.stop <= held[1]:
            held[:] = rows.start, min(rows.start + RUN_ROWS, sample.n)
            for out, column in zip(buffer[:, : held[1] - held[0]], columns):
                if order is None:
                    out[:] = column[held[0] : held[1]]
                else:  # in range; "clip" writes to out directly
                    np.take(column, order[held[0] : held[1]], out=out, mode="clip")
        window = buffer[:, rows.start - held[0] : rows.stop - held[0]]
        return window[0], window[1:split], window[split:]

    return read


def _fits(coordinates, rows) -> list[np.ndarray]:
    """``(u, weights at h, v, weights at b)`` of a range of rows of one
    side's coordinates. Where one pair serves both fits (``b = h``), both
    places hold the same two arrays, as the table functions test.
    """
    return [x[rows] for x in coordinates] * (4 // len(coordinates))


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


def _side_correction(S, weights_main, basis_main, weights_bias, basis_bias, shared: bool):
    """``side_correction_from_weights``, told whether the two fits are one
    (``shared``), as they are at ``b = h``: then one pair of coordinates
    and weights serves both, and the linear fit's power sums and ``R'KS``
    are the first rows of the quadratic fit's, the same products summed
    alike, so bit for bit the separate sums.

    One pass (``_moments``) sums the side's moments at ``h`` and at ``b``,
    the support test's extremes and the Kish size's sums. The quadratic
    fit's third support value is looked for in a short pass of its own
    (``local_fit._support``) after the linear fit's checks, so the checks
    raise in the fits' order: support at ``h``, Gram at ``h``, support at
    ``b``, Gram at ``b``. After the solves one more pass
    (``_variance_rows``) sums the stacked form and the variance terms, so
    the side's coordinates and weights are freed when it returns.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float).T)  # one row per outcome column
    if basis_main.degree != 1 or basis_bias.degree != 2:
        raise ValueError("need a degree-1 main basis and a degree-2 bias basis")
    if weights_main.side != weights_bias.side:
        raise ValueError("weights were built for different sides")
    _require_aligned(weights_main, basis_main)
    _require_aligned(weights_bias, basis_bias)
    _require_some_weight(weights_main, 2)
    n, h, b = S.shape[1], weights_main.bandwidth, weights_bias.bandwidth
    u, w_h, v, w_b = basis_main.u, weights_main.weights, basis_bias.u, weights_bias.weights
    coordinates = (v, w_b) if shared else (u, w_h, v, w_b)
    fits, read = partial(_fits, coordinates), _views(None, S)
    mu, mv, rks, gs, lo_h, hi_h, lo_b, hi_b, w2, w_lo, w_hi = _moments(fits, read, n, [0])
    _require_support(weights_main, _support(u, w_h, lo_h, hi_h, 2), 2)
    gram1 = _checked_gram(weights_main, mu[0], 1)[0]
    _require_support(weights_bias, _support(v, w_b, lo_b, hi_b, 3), 3)
    gram2 = _checked_gram(weights_bias, mv[0], 2)[0]
    terms = _side_terms(gram1, mu[0], rks[0], gram2, gs[0], h, b)
    coef, curves, bias, load, stacked, weight = terms
    count = weights_main.n_positive
    kish = float(_kish(count, mu[:, 0], w2, w_lo, w_hi)[0])
    centre = coef[0] - bias  # the bias-corrected intercepts
    at = (_repeated(x[:, None], [0], n) for x in (stacked, weight, centre))
    (products,), (squares,) = _reduce(partial(_variance_rows, fits, read, *at, None), n, [0])
    return SideCorrection(
        n=n,
        n_effective=count,
        kish_size=kish,
        bandwidth=float(h),
        intercepts=coef[0],
        curvatures=curves,
        bias=bias,
        intercepts_bc=centre,
        curvature_load=float(load),
        weight_map=weight,
        matrix_map=stacked,
        stacked=products,
        squares=squares,
    )


def _moments(fits, read, m: int, starts, instrument: bool = False):
    """One pass of ``_moment_rows`` over the segments of ``m`` rows, read by
    ``read`` (``_views``), which gives placebo treatment rows exactly where
    ``instrument`` holds:
    ``(mu, mv, R'KS at h, R'KS at b, lo_h, hi_h, lo_b, hi_b, sum w^2,
    w_lo, w_hi, *instrument)``, each with a leading axis of segments.
    ``mu`` and ``mv`` are the power sums at ``h`` and at ``b``, ``lo``/``hi``
    the extremes of the positively weighted coordinates, ``sum w^2``,
    ``w_lo`` and ``w_hi`` the Kish size's sums of the weights at ``h``
    (``_kish``), and ``instrument``, with placebo treatment rows only,
    ``(Z'KS, Z'KR, positive weight count)``. Where one pair serves both
    fits, the linear fit's sums are the first rows of the quadratic fit's.
    """
    tables = _reduce(partial(_moment_rows, fits, read), m, starts)
    (mv, RKS, gs, lo_b, hi_b, *kish), tail = tables[:8], tables[8:]
    instrument, apart = (tail[:3], tail[3:]) if instrument else ((), tail)
    mu, lo_h, hi_h = apart or (mv[:, :4], lo_b, hi_b)
    GS = gs if apart else np.concatenate([RKS, gs], axis=1)
    return mu, mv, RKS, GS, lo_h, hi_h, lo_b, hi_b, *kish, *instrument


def _moment_rows(fits, read, rows):
    """The first pass's tables on a range of rows, one after another (each
    summed before the next is formed), from ``fits(rows)`` (``_fits``) and
    the outcome rows ``S`` and placebo treatment rows ``Z`` of
    ``read(rows)`` (``_views``):
    - the power rows ``K v^k``, k <= 4, at ``b``, whose sums are ``R'KR``
      at ``b``; ``K R x S`` at ``h`` and the rest of it at ``b``; the
      extremes of ``v`` (``_extreme_rows``); the squared weights and the
      extremes of the positive weights at ``h``;
    - with placebo treatment rows ``Z``, the instrumented solve's tables
      (``_instrument_rows``) and the positive weights at ``h``;
    - unless one pair serves both fits, the power rows ``K u^k``, k <= 3,
      and the extremes of ``u`` at ``h``.
    """
    u, w_h, v, w_b = fits(rows)
    _, s, Z = read(rows)
    kv = _design_rows(w_b, v, 4)  # K R at b is kv[:3]
    ku = kv if u is v else _design_rows(w_h, u, 3)
    yield np.add, kv
    yield np.add, ku[:2, None] * s[None]
    yield np.add, (kv[2:3] if u is v else kv[:3])[:, None] * s[None]  # the rest of R'KS at b
    yield from _extreme_rows(v, w_b)
    yield np.add, w_h * w_h
    yield from _extreme_rows(w_h, w_h)
    if Z is not None:
        yield from _instrument_rows(ku[:2], s, Z)
        yield np.add, w_h > 0.0
    if u is not v:
        yield np.add, ku
        yield from _extreme_rows(u, w_h)


def _variance_rows(fits, read, stacked, weight, centre, bounds, rows):
    """The second pass's tables on a range of rows, one after another, from
    ``fits(rows)`` (``_fits``) and the outcome rows of ``read(rows)``
    (``_views``) that ``centre`` covers: each such outcome times the stacked
    form's row, and its squared residual about ``centre`` under the weight
    row, the two row maps formed from their coefficients
    ``stacked`` and ``weight`` over these rows only (``_row_form``); then,
    where ``bounds`` are given, whether each ``v`` lies strictly between
    them (``_inside_rows``). ``stacked``, ``weight``, ``centre`` and
    ``bounds`` are functions of the row range (``local_fit._repeated``).
    """
    u, w_h, v, w_b = fits(rows)
    kv = _design_rows(w_b, v, 2)
    ku = kv[:2] if u is v else _design_rows(w_h, u, 1)
    centres = centre(rows)
    s = read(rows)[1][: len(centres)]
    yield np.add, _row_form(stacked(rows), ku, kv) * s
    yield np.add, np.square((s - centres) * _row_form(weight(rows), ku, kv))
    if bounds is not None:
        yield np.logical_or, _inside_rows(v, w_b, *bounds(rows))


def _kish(count, total, squares, lo, hi):
    """The Kish effective sample size ``(sum w)^2 / sum w^2`` of one side or
    a stack of sides from their positive weight count, ``sum w``, ``sum
    w^2`` and the extremes of the positive weights: exactly the count where
    every positive weight is equal. ``float_power`` squares with the C
    library's ``pow`` elementwise, as a numpy scalar's ``**`` does.
    """
    with np.errstate(all="ignore"):  # the ratio is read only where the weights differ
        ratio = np.float_power(total, 2) / squares
    return np.where(lo == hi, count, ratio)


def _variance(combo, squares, n, h):
    """``n * h`` times the sum over sides of each outcome's squared residual
    sum in ``squares`` weighted by ``combo^2``, for one sample or a stack.
    """
    return n * h * sum(np.vecdot(combo**2, side) for side in squares)


def _side_terms(gram1, powers1, rks, gram2, gs, h, b):
    """From the moments of a side, or of a stack of sides, at
    ``h`` (``R'KR``, the power sums ``K u^k`` and ``R'KS``) and at ``b``
    (``R'KR`` and ``R'KS``): the outcomes' scaled linear coefficients, their
    curvatures ``2 m2`` and biases ``h^2 / 2 * load * curvature``, the
    curvature load ``e0' (R'KR)^{-1} R'K u^2``, and the coefficients
    ``(..., 5)`` of two per-row maps (``_row_form``). One is the stacked
    form's row (``correction_matrix``); the other is the variance's weight
    row, the intercept row ``e0' (R'KR)^{-1}`` at ``h`` minus ``(h / b)^2``
    times the load times the row ``e2' (R'KR)^{-1}`` at ``b``, which applied
    to ``R'KS`` at ``b`` gives each outcome's ``b^2 m2``.

    Each outcome column and each row has a solve of its own, as in
    ``local_poly_fit``: LAPACK rounds a one-column solve unlike a column of
    a wider one. ``h`` and ``b`` are scalars or one per side, and powers
    are products, so a side rounds alike alone and in a stack.
    """
    rku2 = powers1[..., 2:4]
    coef = np.linalg.solve(gram1[..., None, :, :], np.swapaxes(rks, -1, -2)[..., None])
    coef = np.ascontiguousarray(np.swapaxes(coef[..., 0], -1, -2))
    e0_row = np.linalg.solve(gram1, [[1.0], [0.0]])[..., 0]
    e2_row = np.linalg.solve(gram2, [[0.0], [0.0], [1.0]])[..., 0]
    load = np.vecdot(e0_row, rku2)
    hh, bb, ll = (np.asarray(x)[..., None] for x in (h, b, load))
    curvatures = 2.0 * np.vecdot(e2_row[..., :, None], gs, axis=-2) / (bb * bb)
    r = h / b
    stacked = correction_matrix(gram1, rku2, gram2, r * r)
    weight = np.concatenate([e0_row, hh * hh / (bb * bb) * ll * e2_row], axis=-1)
    return coef, curvatures, 0.5 * (hh * hh) * ll * curvatures, load, stacked, weight


def _row_form(c, k1, k2) -> np.ndarray:
    """The per-row map ``c[0] K + c[1] K u`` at ``h`` minus ``c[2] K + c[3] K v
    + c[4] K v^2`` at ``b``, from the design rows ``k1`` and ``k2`` of both
    fits over the same rows (``local_fit._design_rows``); ``c`` holds five
    coefficients, or five rows of one coefficient per row.
    """
    c = np.reshape(c, (5, -1))
    return c[0] * k1[0] + c[1] * k1[1] - (c[2] * k2[0] + c[3] * k2[1] + c[4] * k2[2])


def correction_matrix(
    gram_linear: np.ndarray,
    u2_moment: np.ndarray,
    gram_quadratic: np.ndarray,
    ratio,
) -> np.ndarray:
    """Row 0 of the literal (2, n) per-side correction matrix as ``(..., 5)``
    coefficients: the first two applied to the side's ``K R`` rows at ``h``
    minus the last three applied to its ``K R`` rows at ``b``.

    Applied to an outcome column the row gives the side's bias-corrected
    intercept, as the weight row of ``_side_terms`` does. It is built from
    the raw moments, ``R'KR`` at ``h`` (``gram_linear``), ``R'K u^2``
    (``u2_moment``) and ``R'KR`` at ``b`` (``gram_quadratic``), with
    explicit inverses and ``ratio = (h / b)^2``, sharing no solve with the
    componentwise path. Row 1, the slope row, enters no estimate.
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
    construction. The squared residuals are those each correction summed
    from its own rows (``SideCorrection.squares``), so no row is read
    again; raises ValueError where ``S_plus`` or ``S_minus`` has a row count
    other than its correction's ``n``.
    """
    for S, corr in ((S_plus, corr_plus), (S_minus, corr_minus)):
        if np.shape(S)[0] != corr.n:
            raise ValueError(f"{np.shape(S)[0]} outcome rows for a correction of {corr.n} rows")
    return float(_variance(combo, (corr_plus.squares, corr_minus.squares), n, corr_plus.bandwidth))


@dataclass(frozen=True)
class RobustEstimate:
    """Bias-corrected point estimate with variance and Wald interval.

    ``se`` is ``sqrt(v_bc / (n h))``. ``tau_pdd_bc`` is the componentwise
    result, checked against the stacked matrix form: the combination weights
    ``(1, -gamma_1, ..., -gamma_q)`` applied to the difference of the two
    sides' matrix rows times the outcome columns (``SideCorrection.stacked``).
    ``degenerate_ci`` flags a zero-variance interval. ``n_left`` and
    ``n_right`` count each side's positive weights at ``h`` and
    ``kish_left`` and ``kish_right`` are their Kish effective sample sizes
    ``(sum w)^2 / sum w^2``, far below the count for the gaussian kernel.
    ``fit_block`` fills every field, ``point``'s too, with one entry or row
    per sample of its block.
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


@np.errstate(all="ignore")  # every non-finite value fails a check with the package's error
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

    A cut of at least ``ENGINE_ROWS`` rows with placebo columns and rows on
    both sides is fitted by ``fit_block`` as a block of one sample: two
    passes over each side's rows give the point estimate, the corrections
    and the variance. The engine reads a cut that keeps every row, the
    gaussian kernel's or one whose reach covers every row, from the
    sample's own columns in place (``_in_place``), and a subset of the rows
    from its gathered copy (``estimator._cut``). Where ``b <= h``, or with the gaussian kernel, whose
    cut is every row, its results are the per-fit path's bit for bit; where
    a compact kernel's ``b > h``, the point estimate sums the zero-weight
    rows out to ``b`` too, and the two agree up to rounding. Where the
    engine flags the sample, the per-fit path runs on the same cut and
    raises its error; so does a cut with a side without rows.
    """
    _require_valid_alpha_and_b(alpha, h, b)
    n = sample.n
    sample = replace(sample, a=None)  # the point estimate fits no first stage
    rows, k = _cut_rows(sample.d, cutoff, max(h, b), kernel)
    m = n if rows is None else rows.size
    cut = None  # each gather frees the index of the rows it took
    if sample.q and m >= ENGINE_ROWS and 0 < k < m:
        if m == n:  # the cut keeps every row: the engine reads the sample in place
            read = _in_place(sample, rows)
        else:
            (cut, S), rows = _cut(sample, rows), None
            read = _views(cut.d, S, cut.Z.T)
        counts, hs, bs = np.array([k, m - k]), np.array([h]), np.array([b])
        ok, fit = fit_block(read, counts, cutoff, hs, bs, kernel, n, alpha)
        if ok[0]:
            return _sample(fit, 0)
    if cut is None:
        (cut, S), rows = _cut(sample, rows), None
    if S is None:
        S = np.vstack([cut.y, cut.W.T])
    d = cut.d
    point = estimate_sharp(cut, cutoff, h, kernel) if sample.q else None
    del cut  # only the point estimate reads the cut placebo treatments
    corr_plus = side_correction(d[k:], S[:, k:].T, cutoff, h, b, kernel, "right")
    corr_minus = side_correction(d[:k], S[:, :k].T, cutoff, h, b, kernel, "left")
    combo = np.concatenate([[1.0], [] if point is None else -point.gamma_minus])
    jump = float(corr_plus.intercepts[0] - corr_minus.intercepts[0])
    tau_bc = float(np.vecdot(combo, corr_plus.intercepts_bc - corr_minus.intercepts_bc))
    _require_equivalent(
        tau_bc,
        float(np.vecdot(combo, corr_plus.stacked - corr_minus.stacked)),
        "componentwise bias correction",
        "stacked matrix form",
    )
    v_bc = float(_variance(combo, (corr_plus.squares, corr_minus.squares), n, h))
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


def _sample(stack, i: int):
    """Sample ``i`` of a stack of results, one entry or row per sample
    (``fit_block``): a number as a Python scalar, a vector as a row view, a
    nested result taken alike and None as None.
    """

    def take(x):
        if x is None:
            return None
        if is_dataclass(x):
            return _sample(x, i)
        return x[i] if x.ndim > 1 else x[i].item()

    return replace(stack, **{f.name: take(getattr(stack, f.name)) for f in fields(stack)})


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
    read,
    counts: np.ndarray,
    cutoff: float,
    h: np.ndarray,
    b: np.ndarray,
    kernel: KernelSpec,
    n: int,
    alpha: float,
) -> tuple[np.ndarray, RobustEstimate]:
    """``bias_corrected_estimate`` of a block of samples in two passes over
    their rows: a Monte Carlo study's replications, or one large sample.

    ``read`` gives a range of the block's rows (``_views``, or ``_in_place``
    for one sample whose cut keeps every row): ``(d, S, Z)``, the running
    variable, the outcome rows ``S = [y, W, ...]`` and the placebo treatment
    rows ``Z`` ``(q, rows)`` of the samples one after another, each cut to
    the rows within ``max(h, b)`` of the cutoff with its left rows first.
    ``counts`` holds the row counts of their sides, left then right, each at
    least 1. ``h`` and ``b`` hold each sample's bandwidths and ``n`` the
    size of the samples they were cut from. Each row of ``S`` after the
    first ``1 + q``, such as a fuzzy design's treatment ``a``, is fitted
    like ``y`` but enters neither the instrumented solves, nor the
    combination, nor the checks, nor the variance.

    Returns ``(ok, fit)``: ``fit`` is the single fit's ``RobustEstimate``
    with one entry, or one row, per sample in every field, its point
    estimate likewise (``_sample`` takes one sample of it). The point
    estimate's ``tau_rdd_a`` holds the jump of the row of ``S`` after ``[y,
    W]``, the fuzzy first stage, or is None where ``S`` has no such row.
    ``ok`` is False exactly where the single fit raises
    (``test_block_fit_agrees_with_the_single_fit`` checks both ways), so a
    sample that is not ok has failed and its values mean nothing.

    Each side of each sample is one segment of the rows, and every per-row
    table (coordinates, weights, design rows, products, each side's
    coefficients repeated over its rows, row forms and residual squares) is
    formed one window of rows at a time by the single fit's table functions
    and summed by ``local_fit._reduce``, which sums each segment as the
    single fit sums that side; only the input columns and the per-side
    stacks span the block, and a sample read in place has no cut columns.
    The first pass
    (``_moment_rows``) sums the moments, the instrumented solve's
    cross-moments, the support extremes and the Kish size's sums, the second
    (``_variance_rows``), after the solves, the stacked form, the variance
    terms (each outcome's squared residual about its side's bias-corrected
    intercept, as a correction sums them in ``SideCorrection.squares``) and
    the support test's inner values. A side that fails a check gets the
    identity in place of its systems (``_identity_unless``), solved at its
    own ``h`` and ``b``. Where ``b <= h`` a sample's single fit sums the
    same rows, so the two agree exactly; so they do with the gaussian
    kernel, whose cut is every row.
    """
    m, samples = int(np.sum(counts)), len(h)
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    left, right = slice(0, None, 2), slice(1, None, 2)
    h_seg, b_seg = np.repeat(h, 2), np.repeat(b, 2)
    at_h, at_b = _repeated(h_seg, starts, m), _repeated(b_seg, starts, m)
    # at b = h both fits share their weights and moments, as in the single
    # fit: the linear fit's sums are the first rows of the quadratic fit's
    shared = np.array_equal(h, b)

    def fits(rows):
        """``(u, weights at h, v, weights at b)`` of a range of rows, as
        ``_fits`` gives them.
        """
        out, d = [], read(rows)[0]
        for bandwidth in (at_b,) if shared else (at_h, at_b):
            per_row = bandwidth(rows)
            u = _offsets(d, cutoff, per_row)
            out += [u, _weights_at(kernel, u.copy(), per_row)]
        return out * 2 if shared else out

    mu, mv, RKS, GS, lo_h, hi_h, lo_b, hi_b, *kish, ZKS, ZKR, positives = _moments(
        fits, read, m, starts, instrument=True
    )
    q = ZKR.shape[1]

    # the support test's third value at b is looked for in the second pass
    ok = (positives >= 2 + q) & (_distinct(lo_b, hi_b) >= 2) & (_distinct(lo_h, hi_h) >= 2)
    A, G = _hankel(mu, 1), _hankel(mv, 2)  # R'KR at h and at b
    ok &= (reciprocal_condition(A) >= GRAM_RCOND_MIN) & (reciprocal_condition(G) >= GRAM_RCOND_MIN)
    A, G = _identity_unless(ok, A), _identity_unless(ok, G)
    coef, _, bias, _, *row_coefs = _side_terms(A, mu, RKS, G, GS, h_seg, b_seg)
    beta = coef[:, 0, : 1 + q]  # the intercepts of y and W; later rows are only fitted
    intercepts_bc = beta - bias[:, : 1 + q]

    # the instrumented solve of each side; a side that is not ok solves the
    # identity, its cross-moment blocks zeroed
    RKW, ZKW = RKS[:, :, 1 : 1 + q], ZKS[:, :, 1 : 1 + q]
    schur_rcond = _schur_rcond(A, RKW, ZKR, ZKW)
    ok &= schur_rcond >= SCHUR_RCOND_MIN
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

    tables = partial(_variance_rows, fits, read, stacked_at, weight_at, centre_at, bounds_at)
    stacked, per_outcome, inside = _reduce(tables, m, starts)
    ok &= _distinct(lo_b, hi_b, inside) >= 3
    tau_stacked = np.vecdot(combo, stacked[right] - stacked[left])
    v_bc = _variance(combo, (per_outcome[right], per_outcome[left]), n, h)
    se, lower, upper = _interval(tau_bc, v_bc, n, h, alpha)
    ok = ok[left] & ok[right] & _agree(tau_pdd, tau_iv) & _agree(tau_bc, tau_stacked)
    ok &= np.isfinite(v_bc)

    jumps = coef[right, 0] - coef[left, 0]
    kish_size = _kish(positives, mu[:, 0], *kish)
    point = DiscontinuityEstimate(
        tau_rdd_y=jumps[:, 0],
        tau_rdd_w=jumps[:, 1 : 1 + q],
        gamma_minus=gamma[left],
        gamma_plus=gamma[right],
        tau_pdd=tau_pdd,
        tau_pdd_iv_form=tau_iv,
        alpha_plus_0=alpha0[right],
        alpha_minus_0=alpha0[left],
        n_left=positives[left],
        n_right=positives[right],
        schur_rcond_left=schur_rcond[left],
        schur_rcond_right=schur_rcond[right],
        tau_rdd_a=jumps[:, 1 + q] if jumps.shape[1] > 1 + q else None,
    )
    return ok, RobustEstimate(
        tau_pdd=tau_pdd,
        tau_pdd_bc=tau_bc,
        v_bc=v_bc,
        se=se,
        ci_lower=lower,
        ci_upper=upper,
        n=np.full(samples, n),
        n_left=positives[left],
        n_right=positives[right],
        kish_left=kish_size[left],
        kish_right=kish_size[right],
        degenerate_ci=~(v_bc > 0.0),
        point=point,
    )


def _identity_unless(ok: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``stack`` with the identity in place of each matrix that is not
    ``ok``, so that a batched solve never fails on a side counted as failed.
    A side is ok only after its conditioning tests, which give 0 for a
    non-finite matrix (``local_fit._singular_values``).
    """
    return np.where(ok[:, None, None], stack, np.eye(stack.shape[-1]))
