"""Placebo-adjusted discontinuity estimators (sharp and fuzzy).

The point estimate is assembled two ways and the results are compared:

* decomposition form: the plain local linear discontinuity of the outcome
  minus the placebo-outcome discontinuity weighted by the left-side
  instrumented coefficients,
  ``tau_pdd = tau_rdd_y - tau_rdd_w @ gamma_minus``;
* instrumented form: difference of the right-limit intercept and the adjusted
  left-limit counterfactual, both anchored on the right-limit placebo mean,
  ``tau_pdd = alpha_plus_0 + beta_plus_w0 @ gamma_plus
  - alpha_minus_0 - beta_plus_w0 @ gamma_minus``.

The two are algebraically identical; disagreement beyond tolerance raises
EquivalenceBreach and means a numerical problem, not a data property.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EquivalenceBreach, WeakFirstStage
from .io import Sample
from .kernels import (
    KernelSpec,
    ScaledBasis,
    SidedWeights,
    _cut_rows,
    scaled_basis,
    sided_weights,
)
from .local_fit import local_iv_fit, local_poly_fit

#: Relative tolerance (with a unit floor) for the two computation paths of the
#: point estimate here and of the bias-corrected estimate in ``inference``.
EQUIVALENCE_RTOL = 1e-8

#: Smallest treatment discontinuity accepted as a fuzzy-design denominator.
FIRST_STAGE_MIN = 1e-6


@dataclass(frozen=True)
class DiscontinuityEstimate:
    """Point estimates and per-side ingredients of one run.

    ``tau_pdd`` is the placebo-adjusted discontinuity; ``tau_pdd_iv_form`` is
    the same number computed through the instrumented form and is retained as
    a diagnostic. ``tau_rdd_a``, the treatment's discontinuity (the fuzzy
    first stage), is set wherever the sample carries a treatment column;
    ``fuzzy_estimate`` is set by fuzzy runs only. ``inference.fit_block``
    fills the fields with one entry or row per sample of its block.
    """

    tau_rdd_y: float
    tau_rdd_w: np.ndarray
    gamma_minus: np.ndarray
    gamma_plus: np.ndarray
    tau_pdd: float
    tau_pdd_iv_form: float
    alpha_plus_0: float
    alpha_minus_0: float
    n_left: int
    n_right: int
    schur_rcond_left: float
    schur_rcond_right: float
    tau_rdd_a: float | None = None
    fuzzy_estimate: float | None = None


def _cut(
    sample: Sample, cutoff: float, reach: float, kernel: KernelSpec
) -> tuple[Sample, int, np.ndarray | None]:
    """``(cut, k, S)``: ``sample`` cut to the rows within ``reach`` of the
    cutoff, left side first (``kernels._cut_rows``), the number ``k`` of its
    left rows, and its outcome stack ``S = [y, W, a]``, one row per column
    (``a`` only where the sample has one), the row layout
    ``inference.fit_block`` reads. Each column is gathered once: ``cut.y``,
    ``cut.W`` and ``cut.a`` are views of ``S``, and ``cut.Z`` is
    column-major. A sample already in that form is returned as it is,
    without a copy, and ``S`` is None.
    """
    rows, k = _cut_rows(sample.d, cutoff, reach, kernel)
    if rows is None:
        return sample, k, None
    q, treatment = sample.q, () if sample.a is None else (sample.a,)
    S, Z = np.empty((1 + q + len(treatment), rows.size)), np.empty((q, rows.size))
    for out, column in zip((*S, *Z), (sample.y, *sample.W.T, *treatment, *sample.Z.T)):
        np.take(column, rows, out=out, mode="clip")  # in range; "clip" writes to out directly
    a = S[1 + q] if treatment else None
    cut = Sample(np.take(sample.d, rows), S[0], S[1 : 1 + q].T, Z.T, a, sample.dropped_rows)
    return cut, k, S


def _sides(
    d: np.ndarray, k: int, cutoff: float, h: float, kernel: KernelSpec
) -> tuple[tuple[SidedWeights, ScaledBasis], tuple[SidedWeights, ScaledBasis]]:
    """Weights and basis of each side of rows ``d`` whose first ``k`` are the
    left side: ``((left weights, left basis), (right weights, right basis))``.
    One basis is built and each side's basis is a view of its own rows of
    the scaled coordinate.
    """
    basis = scaled_basis(d, cutoff, h, degree=1)
    left, right = slice(None, k), slice(k, None)
    w_minus = sided_weights(d[left], cutoff, h, "left", kernel)
    w_plus = sided_weights(d[right], cutoff, h, "right", kernel)
    return (
        (w_minus, replace(basis, u=basis.u[left])),
        (w_plus, replace(basis, u=basis.u[right])),
    )


def _agree(a, b):
    """Whether two computation paths agree, elementwise:
    ``|a - b| <= EQUIVALENCE_RTOL * max(1, |a|, |b|)`` with a finite gap, so
    that a NaN or infinite value never agrees.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is a NaN gap, which fails
        gap = np.abs(np.subtract(a, b))
    bound = EQUIVALENCE_RTOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return np.isfinite(gap) & (gap <= bound)


def _require_equivalent(a: float, b: float, first: str, second: str) -> None:
    """Raise EquivalenceBreach unless paths ``first`` and ``second`` agree
    (``_agree``).
    """
    if not _agree(a, b):
        raise EquivalenceBreach(
            f"{first} {a!r} and {second} {b!r} disagree beyond {EQUIVALENCE_RTOL:g}"
        )


def estimate_sharp(
    sample: Sample, cutoff: float, h: float, kernel: KernelSpec
) -> DiscontinuityEstimate:
    """Placebo-adjusted discontinuity for a sharp design.

    Runs the per-outcome local linear fits and the per-side instrumented
    solves, assembles ``tau_pdd`` through both the decomposition form and the
    instrumented form, and verifies that they agree. Only rows the kernel can
    weight at ``h`` enter the fits, and each side's fits read only its own
    rows. A sample already cut at ``h`` by ``_cut`` is not copied again.

    A treatment column ``a``, where the sample has one, is fitted as one more
    outcome on the same cut, weights and basis: its discontinuity is
    ``tau_rdd_a``. Neither form of ``tau_pdd`` nor the check reads it.
    """
    if sample.q < 1:
        raise ValueError("placebo outcome and treatment columns are required")
    sample, k, _ = _cut(sample, cutoff, h, kernel)
    (w_minus, basis_minus), (w_plus, basis_plus) = _sides(sample.d, k, cutoff, h, kernel)
    sides = (slice(k, None), w_plus, basis_plus), (slice(None, k), w_minus, basis_minus)

    # the intercepts of y, of each placebo outcome column and of a treatment
    outcomes = (sample.y, *sample.W.T, *([] if sample.a is None else [sample.a]))
    beta_plus, beta_minus = (
        np.array([local_poly_fit(s[rows], w, basis).intercept for s in outcomes])
        for rows, w, basis in sides
    )
    iv_plus, iv_minus = (
        local_iv_fit(sample.y[rows], sample.W[rows], sample.Z[rows], w, basis)
        for rows, w, basis in sides
    )

    tau_rdd, tau_dec, tau_iv = _point_forms(
        beta_plus, beta_minus, iv_plus.alpha0, iv_minus.alpha0, iv_plus.gamma, iv_minus.gamma
    )
    tau_dec, tau_iv = float(tau_dec), float(tau_iv)
    _require_equivalent(tau_dec, tau_iv, "decomposition form", "instrumented form")

    return DiscontinuityEstimate(
        tau_rdd_y=float(tau_rdd[0]),
        tau_rdd_w=tau_rdd[1 : 1 + sample.q],
        gamma_minus=iv_minus.gamma,
        gamma_plus=iv_plus.gamma,
        tau_pdd=tau_dec,
        tau_pdd_iv_form=tau_iv,
        alpha_plus_0=iv_plus.alpha0,
        alpha_minus_0=iv_minus.alpha0,
        n_left=w_minus.n_positive,
        n_right=w_plus.n_positive,
        schur_rcond_left=iv_minus.schur_rcond,
        schur_rcond_right=iv_plus.schur_rcond,
        tau_rdd_a=None if sample.a is None else float(tau_rdd[-1]),
    )


def _point_forms(beta_plus, beta_minus, alpha0_plus, alpha0_minus, gamma_plus, gamma_minus):
    """``(tau_rdd, tau_dec, tau_iv)`` of one sample or a stack of samples:
    the per-outcome discontinuities and the decomposition and instrumented
    forms of ``tau_pdd``. ``beta_*`` hold each side's intercepts of ``y``
    and the q placebo outcomes, then of any further outcome (such as a
    treatment), which neither form reads; ``alpha0_*`` and ``gamma_*``
    are the sides' instrumented solves.
    """
    w = slice(1, 1 + np.shape(gamma_minus)[-1])  # the placebo outcomes
    tau_rdd = beta_plus - beta_minus
    tau_dec = tau_rdd[..., 0] - np.vecdot(tau_rdd[..., w], gamma_minus)
    tau_iv = alpha0_plus + np.vecdot(beta_plus[..., w], gamma_plus) - alpha0_minus
    tau_iv -= np.vecdot(beta_plus[..., w], gamma_minus)
    return tau_rdd, tau_dec, tau_iv


def _strong_first_stage(tau_a):
    """Whether treatment discontinuities are far enough from zero to divide
    by, elementwise: not within ``FIRST_STAGE_MIN`` of it, which a NaN is
    not.
    """
    return ~(np.abs(tau_a) <= FIRST_STAGE_MIN)


def estimate_fuzzy(
    sample: Sample, cutoff: float, h: float, kernel: KernelSpec
) -> DiscontinuityEstimate:
    """Fuzzy-design estimate: the sharp numerator over the treatment jump,
    ``tau_rdd_a``, which ``estimate_sharp`` fits on the numerator's own cut,
    weights and basis. Raises WeakFirstStage where that jump is within
    ``FIRST_STAGE_MIN`` of zero.
    """
    if sample.a is None:
        raise ValueError("fuzzy estimation requires a treatment column")
    point = estimate_sharp(sample, cutoff, h, kernel)
    tau_a = point.tau_rdd_a
    if not _strong_first_stage(tau_a):
        raise WeakFirstStage(
            f"treatment discontinuity {tau_a:.3e} is too small to divide by"
        )
    return replace(point, fuzzy_estimate=point.tau_pdd / tau_a)
