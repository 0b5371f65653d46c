"""Weighted local polynomial least squares and the local instrumented solve.

Both operations share the same ingredients: one-sided kernel weights and the
bandwidth-scaled polynomial basis. Linear systems are small and dense
((p+1) or (2+q) dimensional) and are solved by a pivoted direct factorisation;
singularity is detected through the reciprocal condition number of the moment
matrices rather than through solver failure.

There is one checked weighted design ``(K R, R'KR, rcond)`` per pair of
weights and basis: ``_weighted_design`` keeps it on the weights, keyed by the
basis object, once the support and conditioning checks pass. The outcome
fits and the instrumented solve of one side share it, so ``K R``, the
support check and the SVD are computed once per side, not once per fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSupport, WeakInstrument
from .kernels import ScaledBasis, SidedWeights

#: Reciprocal condition number below which the weighted Gram matrix is
#: treated as singular.
GRAM_RCOND_MIN = 1e-12

#: Reciprocal condition number below which the instrumented cross-moment
#: (the Schur complement of the joint system) signals a weak placebo proxy.
SCHUR_RCOND_MIN = 1e-10


def reciprocal_condition(m: np.ndarray):
    """Reciprocal 2-norm condition number of a small dense matrix, or an
    array of them for a stack of matrices ``(..., k, k)``.
    """
    s = np.linalg.svd(np.asarray(m, dtype=float), compute_uv=False)
    return _smallest_over(s, s[..., 0])


def _schur_rcond(schur: np.ndarray, cross_raw: np.ndarray):
    """Scale-aware reciprocal condition of the instrumented cross-moment, or
    an array of them for stacks of matrices.

    The smallest singular value of the Schur complement is measured against
    the larger of its own top singular value and that of the unresidualised
    cross-moment, so a uniformly collapsed complement (including the 1x1
    case, whose plain condition number is always 1) is still detected.
    """
    s = np.linalg.svd(np.asarray(schur, dtype=float), compute_uv=False)
    raw = np.linalg.svd(np.asarray(cross_raw, dtype=float), compute_uv=False)
    return _smallest_over(s, np.maximum(s[..., 0], raw[..., 0]))


def _smallest_over(s: np.ndarray, scale: np.ndarray):
    """The smallest singular value ``s[..., -1]`` over ``scale``, 0 where the
    scale is not positive; a float for one matrix.
    """
    out = np.divide(s[..., -1], scale, out=np.zeros(np.shape(scale)), where=scale > 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LocalFit:
    """One-sided weighted polynomial fit in the scaled basis.

    ``coef_scaled`` holds ``(intercept, h * slope, ..., h^p * p-th coefficient)``:
    entry 0 is the fitted value at the cutoff and entry j is the j-th
    raw-coordinate coefficient multiplied by ``h^j``. ``gram_rcond`` is the
    reciprocal condition number of the fit's moment matrix ``R' K R``.
    """

    coef_scaled: np.ndarray
    gram_rcond: float

    @property
    def intercept(self) -> float:
        return float(self.coef_scaled[0])


@dataclass(frozen=True)
class IvFit:
    """One-sided local instrumented solve.

    ``alpha0`` is the running-variable-only intercept at the cutoff and
    ``gamma`` the coefficients on the placebo outcome columns.
    """

    side: str
    alpha0: float
    gamma: np.ndarray
    schur_rcond: float


def _require_distinct_support(weights: SidedWeights, basis: ScaledBasis) -> None:
    """Raise SingularSupport unless ``degree + 1`` distinct running-variable
    values carry positive weight.

    The degree is 1 or 2, so distinct values are counted only up to three,
    in linear time, without a sort and without gathering the positively
    weighted rows: equal extremes give one, and a value strictly between
    them a third.
    """
    u = basis.rows[:, 1]
    positive = weights.positive
    distinct = 0
    if weights.n_positive:
        lo = np.min(u, where=positive, initial=np.inf)
        hi = np.max(u, where=positive, initial=-np.inf)
        distinct = 1 if lo == hi else 3 if np.any((u > lo) & (u < hi) & positive) else 2
    if distinct <= basis.degree:
        raise SingularSupport(
            f"{distinct} distinct running-variable values with positive weight on "
            f"the {weights.side} side; need at least {basis.degree + 1}, so "
            f"bandwidth {weights.bandwidth} is too small"
        )


def _weighted_design(
    weights: SidedWeights, basis: ScaledBasis
) -> tuple[np.ndarray, np.ndarray, float]:
    """The checked weighted design of one side: ``(K R, R'KR, rcond)``.

    Raises ValueError if weights and basis come from different samples,
    bandwidths or cutoffs, and SingularSupport if the support is too thin or
    ``R'KR`` has reciprocal condition below ``GRAM_RCOND_MIN``. A design that
    passes is kept on ``weights`` and returned again for the same basis
    object; the entry holds the basis, so its id is not reused meanwhile.
    """
    entry = weights._designs.get(id(basis))
    if entry is not None:
        return entry[1]
    if weights.weights.shape[0] != basis.rows.shape[0]:
        raise ValueError("weights and basis were built from different samples")
    if weights.bandwidth != basis.bandwidth or weights.cutoff != basis.cutoff:
        raise ValueError("weights and basis use different bandwidth or cutoff")
    # a helper of its own, so its masks are freed before K R is built
    _require_distinct_support(weights, basis)
    krows = basis.rows * weights.weights[:, None]
    gram_raw = krows.T @ basis.rows
    rcond = reciprocal_condition(gram_raw)
    if rcond < GRAM_RCOND_MIN:
        shape = "linear" if basis.degree == 1 else "quadratic"
        raise SingularSupport(
            f"singular local {shape} design on the {weights.side} side (rcond={rcond:.3e})"
        )
    design = (krows, gram_raw, rcond)
    weights._designs[id(basis)] = (basis, design)
    return design


def local_poly_fit(s: np.ndarray, weights: SidedWeights, basis: ScaledBasis) -> LocalFit:
    """Weighted least squares of ``s`` on the scaled polynomial basis.

    Solves ``(R' K R) c = R' K s`` for the scaled coefficient vector ``c``,
    where ``K`` is the diagonal of one-sided kernel weights. The fit
    reproduces any polynomial of degree <= basis.degree exactly through the
    positively weighted points.

    Raises
    ------
    SingularSupport
        If fewer than ``degree + 1`` distinct running-variable values carry
        positive weight, or if the Gram matrix is numerically singular
        (reciprocal condition below ``GRAM_RCOND_MIN``).
    """
    krows, gram_raw, rcond = _weighted_design(weights, basis)
    coef = np.linalg.solve(gram_raw, krows.T @ np.asarray(s, dtype=float))
    return LocalFit(coef_scaled=coef, gram_rcond=rcond)


def local_iv_fit(
    y: np.ndarray,
    W: np.ndarray,
    Z: np.ndarray,
    weights: SidedWeights,
    basis: ScaledBasis,
) -> IvFit:
    """Solve the one-sided instrumented moment condition.

    Stacks the scaled linear basis with the placebo treatments as instruments
    for the placebo outcomes and solves the exactly identified system

        [R'KR  R'KW] [alpha_scaled]   [R'Ky]
        [Z'KR  Z'KW] [gamma       ] = [Z'Ky].

    Requires ``dim(Z) == dim(W)`` (the exactly identified case) and a degree-1
    basis.

    Raises
    ------
    SingularSupport
        If the running-variable block is singular or the side has fewer
        positively weighted points than unknowns.
    WeakInstrument
        If the Schur complement ``Z'K(I - R(R'KR)^{-1}R'K)W`` has scale-aware
        reciprocal condition below ``SCHUR_RCOND_MIN``; the placebo treatment
        is then too weak a proxy to support the adjustment.
    """
    if basis.degree != 1:
        raise ValueError("the instrumented solve uses a degree-1 basis")
    y = np.asarray(y, dtype=float)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if W.shape[0] != y.shape[0]:
        W = W.T
    if Z.shape[0] != y.shape[0]:
        Z = Z.T
    q = W.shape[1]
    if q < 1:
        raise ValueError("at least one placebo outcome column is required")
    if Z.shape != W.shape:
        raise ValueError("placebo treatments and outcomes must have matching shape")
    if weights.n_positive < 2 + q:
        raise SingularSupport(
            f"{weights.n_positive} observations with positive weight on the "
            f"{weights.side} side; the instrumented solve needs at least {2 + q}"
        )
    rw, a, _ = _weighted_design(weights, basis)  # K R and R'KR, 2x2
    zw = Z * weights.weights[:, None]
    b = rw.T @ W  # R'KW, 2xq
    c = zw.T @ basis.rows  # Z'KR, qx2
    dm = zw.T @ W  # Z'KW, qxq
    schur = dm - c @ np.linalg.solve(a, b)
    schur_rcond = _schur_rcond(schur, dm)
    if schur_rcond < SCHUR_RCOND_MIN:
        raise WeakInstrument(
            f"weak placebo proxy on the {weights.side} side "
            f"(Schur complement rcond={schur_rcond:.3e})"
        )
    rhs = np.concatenate([rw.T @ y, zw.T @ y])
    nu = np.linalg.solve(np.block([[a, b], [c, dm]]), rhs)
    return IvFit(
        side=weights.side,
        alpha0=float(nu[0]),
        gamma=nu[2:].copy(),
        schur_rcond=schur_rcond,
    )
