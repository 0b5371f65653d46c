"""Kernel functions, one-sided locality weights, and the scaled polynomial basis.

Weights keep the literal 1/h factor and are never renormalised; every
estimator output is invariant to rescaling all weights by a positive
constant. The cutoff point belongs to the right side: right-side weights use
``d >= cutoff`` and left-side weights ``d < cutoff``. ``_offsets`` (the
scaled coordinate) and ``_weights_at`` (the weights) are the one formula
behind ``scaled_basis``, ``sided_weights`` and ``inference.fit_block``.

Every estimator entry point first cuts its sample with ``support_rows`` to
the rows a kernel can weight, left side first, and each side's pass then
reads only its own contiguous rows: with the window and triangle kernels the
cost grows with the rows within ``max(h, b)`` of the cutoff, not with the
sample size; the gaussian kernel partitions every row. ``left_count_if_cut``
recognises a sample already in that form, so it is not cut again.

``scaled_basis`` stores its rows column by column (Fortran order), so the
scaled coordinate is one contiguous run of memory, as is each row of the
fits' moment tables (``local_fit._sums``), which hold one kind of per-row
product per row in the same ``(p, rows)`` layout. A single fit forms each
table, its design rows ``K u^k`` included (``local_fit._design_rows``), for
one chunk of rows at a time, so no table outlives its chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KERNEL_KINDS = ("window", "triangle", "gaussian")


@dataclass(frozen=True)
class KernelSpec:
    """A kernel selected by name, one of ``KERNEL_KINDS``.

    Every kernel has unit width; the bandwidth alone sets how far a weight
    reaches.
    """

    kind: str = "triangle"

    def __post_init__(self) -> None:
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel {self.kind!r}; choose from {KERNEL_KINDS}")


def kernel_value(kernel: KernelSpec, u):
    """Evaluate the kernel at nonnegative argument ``u`` (scalar or array).

    window:   1 on [0, 1], 0 beyond.
    triangle: 1 - u on [0, 1], 0 beyond.
    gaussian: exp(-u^2 / 2) / sqrt(2*pi), the standard normal density,
              positive everywhere.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ValueError("kernel argument must be nonnegative")
    if kernel.kind == "window":
        out = (arr <= 1.0).astype(float)
    elif kernel.kind == "triangle":
        out = np.where(arr <= 1.0, 1.0 - arr, 0.0)
    else:
        out = np.multiply(arr, arr, out=np.empty_like(arr))  # the rest runs in place
        out *= -0.5
        np.exp(out, out=out)
        out /= np.sqrt(2.0 * np.pi)
    return float(out) if out.ndim == 0 else out


def support_rows(d: np.ndarray, cutoff: float, reach: float, kernel: KernelSpec):
    """The rows a one-sided weight at any bandwidth up to ``reach`` can make
    positive, partitioned by side: ``(rows, k)``.

    ``rows`` indexes the left rows (``d < cutoff``) first and then the right
    rows, each side in its original order, and ``k`` counts the left rows, so
    ``rows[:k]`` and ``rows[k:]`` are the two sides. The compact kernels keep
    the rows passing their own support test, ``|d - cutoff| / reach <= 1``.
    Correctly rounded division is monotone in the divisor, so every row inside
    the support at a bandwidth ``h <= reach`` is kept, and a fit on the kept
    rows equals the fit on all of them up to summation order. The gaussian
    kernel keeps every row. The partition is the identity exactly when
    ``rows.size == len(d)`` and either ``k == 0`` or ``rows[k - 1] == k - 1``.
    """
    _require_positive(reach)
    d = np.asarray(d, dtype=float)
    if kernel.kind == "gaussian":
        left = d < cutoff
        sides = (np.flatnonzero(left), np.flatnonzero(~left))
    else:
        near = np.flatnonzero(_within_reach(d, cutoff, reach))
        left = d[near] < cutoff
        sides = (near[left], near[~left])
    return np.concatenate(sides), sides[0].size


def left_count_if_cut(d: np.ndarray, cutoff: float, reach: float, kernel: KernelSpec):
    """``k`` when ``support_rows(d, cutoff, reach, kernel)`` is the identity
    partition ``(arange(len(d)), k)``, and None otherwise.

    One ``d < cutoff`` pass tells whether the left rows come first; only if
    they do are the compact kernels' support tests run, on every row. That
    costs a fraction of building the partition and finding it unchanged.
    """
    _require_positive(reach)
    d = np.asarray(d, dtype=float)
    left = d < cutoff
    k = int(np.count_nonzero(left))
    if not left[:k].all():
        return None
    if kernel.kind != "gaussian" and not _within_reach(d, cutoff, reach).all():
        return None
    return k


def _within_reach(d: np.ndarray, cutoff: float, reach: float) -> np.ndarray:
    """The compact kernels' support test, ``|d - cutoff| / reach <= 1``."""
    return np.abs(d - cutoff) / reach <= 1.0


def _require_positive(h: float) -> None:
    if not h > 0:
        raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class SidedWeights:
    """Kernel weights restricted to one side of the cutoff.

    ``weights[i] = (1/h) * 1{side condition} * K(|d_i - cutoff| / h)``;
    ``n_positive`` counts the strictly positive ones. ``_designs`` holds the
    checked weighted designs built from these weights, one per basis object
    (``local_fit._weighted_design``); it is neither compared nor printed, and
    ``dataclasses.replace`` starts a copy with none.
    """

    side: str
    cutoff: float
    bandwidth: float
    weights: np.ndarray
    n_positive: int
    _designs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def positive(self) -> np.ndarray:
        return self.weights > 0.0


def sided_weights(
    d: np.ndarray, cutoff: float, h: float, side: str, kernel: KernelSpec
) -> SidedWeights:
    """Build one-sided kernel weights at bandwidth ``h``.

    A side with too few positively weighted observations for a fit, such as
    an empty ``d`` from a sample cut to an empty window, is rejected by the
    fit's support test (``local_fit._distinct_support``).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _require_positive(h)
    d = np.asarray(d, dtype=float)
    on_side = d >= cutoff if side == "right" else d < cutoff
    w = _weights_at(kernel, _offsets(d, cutoff, h), h)
    w[~on_side] = 0.0  # a no-op on the one side's rows the estimators pass
    return SidedWeights(
        side=side,
        cutoff=float(cutoff),
        bandwidth=float(h),
        weights=w,
        n_positive=int(np.count_nonzero(w > 0.0)),
    )


@dataclass(frozen=True)
class ScaledBasis:
    """Polynomial design rows in the bandwidth-scaled coordinate.

    Row i is ``(1, u_i, ..., u_i^degree)`` with ``u_i = (d_i - cutoff) / h``,
    so coefficient j of a fit on these rows is ``h^j`` times the
    raw-coordinate coefficient. ``rows`` is stored column by column, so each
    column, and each column of a view of some rows, has unit stride: the
    per-row products of a fit then run down whole columns.
    """

    degree: int
    cutoff: float
    bandwidth: float
    rows: np.ndarray


def scaled_basis(d: np.ndarray, cutoff: float, h: float, degree: int) -> ScaledBasis:
    """Build the scaled polynomial basis of the given degree (1 or 2)."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    _require_positive(h)
    d = np.asarray(d, dtype=float)
    rows = np.empty((d.shape[0], degree + 1), order="F")
    rows[:, 0] = 1.0
    u = _offsets(d, cutoff, h, out=rows[:, 1])
    if degree == 2:
        np.multiply(u, u, out=rows[:, 2])
    return ScaledBasis(degree=degree, cutoff=float(cutoff), bandwidth=float(h), rows=rows)


def _offsets(d: np.ndarray, cutoff: float, h, out: np.ndarray | None = None) -> np.ndarray:
    """The scaled coordinate ``(d - cutoff) / h``; ``h`` is one or one per row."""
    u = np.subtract(d, cutoff, out=out)
    u /= h
    return u


def _weights_at(kernel: KernelSpec, u: np.ndarray, h) -> np.ndarray:
    """The weights ``K(|u|) / h`` at scaled coordinates ``u`` (``_offsets``),
    which it overwrites with ``|u|``, so a fit holds no second copy of them.
    """
    w = kernel_value(kernel, np.abs(u, out=u))
    w /= h
    return w
