"""Kernel functions, one-sided locality weights, and the scaled coordinate.

Weights keep the literal 1/h factor and are never renormalised; every
estimator output is invariant to rescaling all weights by a positive
constant. The cutoff point belongs to the right side: right-side weights use
``d >= cutoff`` and left-side weights ``d < cutoff``. ``_offsets`` (the
scaled coordinate) and ``_weights_at`` (the weights) are the one formula
behind ``scaled_basis``, ``sided_weights`` and ``inference.fit_block``.

Every estimator entry point first cuts its sample to the rows a kernel can
weight, left side first, and each side's pass then reads only its own
contiguous rows: with the window and triangle kernels the cost grows with
the rows within ``max(h, b)`` of the cutoff, not with the sample size; the
gaussian kernel partitions every row. One decision, ``_cut_rows``, makes
that cut for every caller: for the compact kernels it takes one support
pass over ``d`` and splits only the kept rows by side, and it tells from
them both whether a sample is already in that form and, if not, its
partition.

A basis is its scaled coordinate ``u``: a fit forms the powers ``K u^k`` it
sums one chunk of rows at a time (``local_fit._design_rows``), so no per-row
table outlives its chunk, and ``ScaledBasis.rows`` forms the whole
column-major ``(1, u[, u^2])`` only on request, for tests and oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

KERNEL_KINDS = ("window", "triangle", "gaussian")

#: Rows a per-row temporary spans at once: the compact kernels' support
#: test (``_cut_rows``) measures this many rows at a time, and a fit sums
#: a longer segment, a side of a single fit or of a large Monte Carlo
#: sample, this many rows at a time and the chunks' sums pairwise
#: (``local_fit._windows``), and ``simulate`` computes a sample's outcomes
#: this many rows at a time. So a temporary stays in cache, and a fit over
#: a million rows holds a few chunks of products.
CHUNK_ROWS = 1 << 14


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
    out = _kernel_at(kernel, arr)
    return float(out) if out.ndim == 0 else out


def _kernel_at(kernel: KernelSpec, arr: np.ndarray) -> np.ndarray:
    """``kernel_value`` of a float array known to be nonnegative."""
    if kernel.kind == "window":
        return (arr <= 1.0).astype(float)
    if kernel.kind == "triangle":
        return np.where(arr <= 1.0, 1.0 - arr, 0.0)
    out = np.multiply(arr, arr, out=np.empty_like(arr))  # the rest runs in place
    out *= -0.5
    np.exp(out, out=out)
    out /= np.sqrt(2.0 * np.pi)
    return out


def _cut_rows(d: np.ndarray, cutoff: float, reach: float, kernel: KernelSpec):
    """The rows a one-sided weight at any bandwidth up to ``reach`` can make
    positive, partitioned by side: ``(rows, k)``, with ``rows`` None when the
    partition is the identity, so that the sample is already cut.

    ``rows`` indexes the left rows (``d < cutoff``) first and then the right
    rows, each side in its original order, and ``k`` counts the left rows, so
    ``rows[:k]`` and ``rows[k:]`` are the two sides. The gaussian kernel
    keeps every row. The compact kernels keep the rows passing their own
    support test at ``reach``, ``|d - cutoff| / reach <= 1``. Correctly
    rounded division is monotone in the divisor, so every row inside the
    support at a bandwidth ``h <= reach`` is kept, and a fit on the kept
    rows equals the fit on all of them up to summation order.

    The compact kernels test ``|d - cutoff| <= reach`` instead, in the one
    pass over every row: the subtraction and ``abs`` run in place in one
    buffer of ``CHUNK_ROWS`` rows, a chunk at a time, so they stay in cache.
    For any ``d`` and a positive finite ``reach`` it keeps exactly the rows
    the division keeps. Take ``a = |d - cutoff|``, as both compute it. If
    ``a <= reach``, then ``a / reach <= 1`` before rounding, and rounding
    keeps it. If ``a > reach``, then ``a / reach > 1 + 2**-53``, because no
    double lies in ``(reach, reach * (1 + 2**-53)]``, and a quotient past
    the midpoint of 1 and the next double rounds above 1. A NaN ``a`` fails
    both. The side split, its count and the identity check then read the
    kept rows only, and each side's indices are written straight into one
    index array.
    """
    _require_positive(reach)
    d = np.asarray(d, dtype=float)
    kept = slice(None)
    if kernel.kind != "gaussian":
        near = np.empty(d.shape, dtype=bool)
        buffer = np.empty(min(d.size, CHUNK_ROWS))
        for start in range(0, d.size, CHUNK_ROWS):
            chunk = d[start : start + CHUNK_ROWS]
            gap = np.subtract(chunk, cutoff, out=buffer[: chunk.size])
            np.less_equal(np.abs(gap, out=gap), reach, out=near[start : start + chunk.size])
        kept = np.flatnonzero(near)
    left = d[kept] < cutoff
    k = int(np.count_nonzero(left))
    if left.size == d.size and left[:k].all():
        return None, k
    rows = np.empty(left.size, dtype=np.intp)
    if kernel.kind == "gaussian":
        rows[:k] = np.flatnonzero(left)
        rows[k:] = np.flatnonzero(np.logical_not(left, out=left))
    else:
        np.compress(left, kept, out=rows[:k])
        np.compress(np.logical_not(left, out=left), kept, out=rows[k:])
    return rows, k


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


def sided_weights(
    d: np.ndarray, cutoff: float, h: float, side: str, kernel: KernelSpec
) -> SidedWeights:
    """Build one-sided kernel weights at bandwidth ``h``.

    A side with too few positively weighted observations for a fit, such as
    an empty ``d`` from a sample cut to an empty window, is rejected by the
    fit's support test (``local_fit._support``).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    _require_positive(h)
    d = np.asarray(d, dtype=float)
    on_side = d >= cutoff if side == "right" else d < cutoff
    w = _weights_at(kernel, _offsets(d, cutoff, h), h)
    if not on_side.all():  # the estimators pass one side's rows only
        w[~on_side] = 0.0
    return SidedWeights(
        side=side,
        cutoff=float(cutoff),
        bandwidth=float(h),
        weights=w,
        n_positive=int(np.count_nonzero(w > 0.0)),
    )


@dataclass(frozen=True)
class ScaledBasis:
    """The polynomial basis of the given degree in the bandwidth-scaled
    coordinate ``u_i = (d_i - cutoff) / h``.

    Row i of the basis is ``(1, u_i, ..., u_i^degree)``, so coefficient j of
    a fit on it is ``h^j`` times the raw-coordinate coefficient. Only ``u``
    is stored: a fit forms the powers it needs from it a chunk of rows at a
    time, and a side's basis is a view of its rows of ``u``.
    """

    degree: int
    cutoff: float
    bandwidth: float
    u: np.ndarray

    @property
    def rows(self) -> np.ndarray:
        """The basis rows ``(n, degree + 1)``, formed on each call and stored
        column by column (Fortran order).
        """
        rows = np.empty((self.u.shape[0], self.degree + 1), order="F")
        rows[:, 0] = 1.0
        rows[:, 1] = self.u
        if self.degree == 2:
            np.multiply(self.u, self.u, out=rows[:, 2])
        return rows


def scaled_basis(d: np.ndarray, cutoff: float, h: float, degree: int) -> ScaledBasis:
    """Build the scaled polynomial basis of the given degree (1 or 2)."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    _require_positive(h)
    u = _offsets(np.asarray(d, dtype=float), cutoff, h)
    return ScaledBasis(degree=degree, cutoff=float(cutoff), bandwidth=float(h), u=u)


def _offsets(d: np.ndarray, cutoff: float, h) -> np.ndarray:
    """The scaled coordinate ``(d - cutoff) / h``; ``h`` is one or one per row."""
    u = np.subtract(d, cutoff)
    u /= h
    return u


def _weights_at(kernel: KernelSpec, u: np.ndarray, h) -> np.ndarray:
    """The weights ``K(|u|) / h`` at scaled coordinates ``u`` (``_offsets``),
    which it overwrites with ``|u|``, so a fit holds no second copy of them.
    """
    w = _kernel_at(kernel, np.abs(u, out=u))
    w /= h
    return w
