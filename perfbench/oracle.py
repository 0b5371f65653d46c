"""An independent reference for the estimator, built on weighted least squares.

Nothing here calls ``pdd``. Each side of the cutoff is fitted with
``np.linalg.lstsq`` on the square-root-weighted rows that carry positive
weight; the instrumented solve is two-stage least squares, which equals the
exactly identified instrumental-variable solve. The bias correction is an
explicit local quadratic fit at ``b``, and the variance is the paper-mode
formula written out from the smoother weights (``np.linalg.pinv``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def kernel_weights(d: np.ndarray, cutoff: float, h: float, side: str, kind: str) -> np.ndarray:
    """One-sided weights ``K(|d - c| / h) / h``; the cutoff belongs to the right side."""
    u = np.abs(d - cutoff) / h
    if kind == "triangle":
        k = np.clip(1.0 - u, 0.0, None)
    elif kind == "window":
        k = (u <= 1.0).astype(float)
    elif kind == "gaussian":
        k = np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi)
    else:
        raise ValueError(f"unknown kernel {kind!r}")
    on_side = d >= cutoff if side == "right" else d < cutoff
    return np.where(on_side, k / h, 0.0)


def _wls(X: np.ndarray, S: np.ndarray, w: np.ndarray) -> np.ndarray:
    root = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(X * root[:, None], S * root[:, None], rcond=None)
    return coef


def _smoother_row(X: np.ndarray, w: np.ndarray, j: int) -> np.ndarray:
    """Weights ``l`` with ``l @ s`` equal to coefficient ``j`` of the weighted fit of ``s``."""
    root = np.sqrt(w)
    return np.linalg.pinv(X * root[:, None])[j] * root


@dataclass(frozen=True)
class Side:
    intercepts: np.ndarray  # local linear intercepts at h, one per column of S
    intercepts_bc: np.ndarray
    variance_terms: np.ndarray  # sum_i l_i^2 resid_i^2 per column of S
    n_positive: int
    gamma: np.ndarray | None  # instrumented coefficients (left side only)


def _side(d, S, Z, cutoff, h, b, kind, side, want_gamma) -> Side:
    w_h = kernel_weights(d, cutoff, h, side, kind)
    w_b = kernel_weights(d, cutoff, b, side, kind)
    rows = (w_h > 0) | (w_b > 0)
    rel, S_s, w_h, w_b = d[rows] - cutoff, S[rows], w_h[rows], w_b[rows]
    in_h, in_b = w_h > 0, w_b > 0

    u = rel[in_h] / h
    X1 = np.column_stack([np.ones_like(u), u])
    intercepts = _wls(X1, S_s[in_h], w_h[in_h])[0]
    linear = np.zeros(rel.shape[0])
    linear[in_h] = _smoother_row(X1, w_h[in_h], 0)
    load = float(linear[in_h] @ (u * u))  # local linear intercept of u^2

    v = rel[in_b] / b
    X2 = np.column_stack([np.ones_like(v), v, v * v])
    quad_coef = _wls(X2, S_s[in_b], w_b[in_b])[2]  # b^2 * m2 / 2
    quad = np.zeros(rel.shape[0])
    quad[in_b] = _smoother_row(X2, w_b[in_b], 2)

    curvature = 2.0 * quad_coef / b**2
    intercepts_bc = intercepts - 0.5 * h**2 * load * curvature
    smoother = linear - (h**2 / b**2) * load * quad
    resid = S_s - intercepts_bc[None, :]
    variance_terms = (smoother**2) @ (resid**2)

    gamma = None
    if want_gamma:
        # two-stage least squares: the placebo outcomes on [1, u, Z], then the
        # outcome on [1, u, fitted placebo outcomes]
        Z_h = Z[rows][in_h]
        first = np.column_stack([X1, Z_h])
        fitted = first @ _wls(first, S_s[in_h, 1:], w_h[in_h])
        gamma = _wls(np.column_stack([X1, fitted]), S_s[in_h, :1], w_h[in_h])[2:, 0]
    return Side(intercepts, intercepts_bc, variance_terms, int(in_h.sum()), gamma)


@dataclass(frozen=True)
class Reference:
    tau_rdd_y: float
    tau_rdd_w: np.ndarray
    gamma_minus: np.ndarray
    tau_pdd: float
    tau_pdd_bc: float
    se: float
    n_left: int
    n_right: int


def reference(d, y, W, Z, cutoff: float, h: float, b: float, kind: str) -> Reference:
    """Placebo-adjusted estimate, bias-corrected estimate and paper-mode SE.

    Pass ``W = Z = None`` for the plain discontinuity (no placebo columns).
    """
    d = np.asarray(d, dtype=float)
    S = np.column_stack([y] if W is None else [y, W])
    plus = _side(d, S, Z, cutoff, h, b, kind, "right", False)
    minus = _side(d, S, Z, cutoff, h, b, kind, "left", W is not None)
    jumps = plus.intercepts - minus.intercepts
    gamma = minus.gamma if W is not None else np.zeros(0)
    combo = np.concatenate([[1.0], -gamma])
    return Reference(
        tau_rdd_y=float(jumps[0]),
        tau_rdd_w=jumps[1:],
        gamma_minus=gamma,
        tau_pdd=float(combo @ jumps),
        tau_pdd_bc=float(combo @ (plus.intercepts_bc - minus.intercepts_bc)),
        se=float(np.sqrt(combo**2 @ (plus.variance_terms + minus.variance_terms))),
        n_left=minus.n_positive,
        n_right=plus.n_positive,
    )
