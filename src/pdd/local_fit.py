"""Weighted local polynomial least squares and the local instrumented solve.

Both use one-sided kernel weights and the bandwidth-scaled polynomial basis.
Every moment is a sum over rows of per-row products, and every such sum is
taken by ``_sums``: products are rows of a ``(p, n)`` table, and each
row is summed over each segment of rows by numpy's fixed-order pairwise sum.
No BLAS product runs over rows, so no thread count changes a moment, and a
segment rounds the same whether it is summed alone or in a table with
others. A single fit sums one segment per side; ``inference.fit_block``
sums one segment per side of each sample of a Monte Carlo block, through the
same helpers (``_power_moments``, ``_product_sums`` and
``_instrument_moments``).

The design rows ``K R`` (``K u^k``) are formed by ``_design_rows`` from
the weights and the basis's scaled coordinate ``u`` for the rows a table
needs: a single fit forms them one chunk of rows at a time inside each
table, so no per-row array of a fit outlives its chunk, and a block forms
them once over its rows. A row formed over a chunk equals the same row
formed over the whole side, bit for bit, and a row of products sums the
same in a taller table: where a linear and a quadratic fit share weights
and ``u`` (a bias bandwidth equal to the main one), the linear fit's sums
are read off the quadratic fit's (``_nested_designs``).

The systems are small and dense and solved by a pivoted factorisation;
singularity is detected through reciprocal condition numbers, not through
solver failure. ``_weighted_design`` keeps one checked design ``(R'KR, power
sums, rcond)`` per pair of weights and basis, so a side's fits share the
support test and the SVD; it holds no per-row array. The support test takes
a single segment's extremes a chunk of rows at a time.

Each check and each step of the instrumented solve is written once, for one
side or a stack of sides, and ``inference.fit_block`` calls the same
helpers: the support test ``_distinct_support``, the conditioning tests
``reciprocal_condition`` and ``_schur_rcond``, the Schur complement
``_schur_complement`` and the joint system ``_joint_solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import SingularSupport, WeakInstrument
from .kernels import ScaledBasis, SidedWeights

#: Reciprocal condition number below which the weighted Gram matrix is
#: treated as singular.
GRAM_RCOND_MIN = 1e-12

#: Reciprocal condition number below which the instrumented cross-moment
#: (the Schur complement of the joint system) signals a weak placebo proxy.
SCHUR_RCOND_MIN = 1e-10

#: Rows a moment table is built over at once. A longer segment, which only a
#: single fit has (a Monte Carlo block's segments hold at most
#: ``simulate.SOLO_ROWS`` rows), is summed this many rows at a time and the
#: chunks' sums are summed pairwise, so its table stays in cache and a fit
#: over a million rows holds a few chunks of products.
CHUNK_ROWS = 1 << 14


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


def _distinct_support(x: np.ndarray, w: np.ndarray, starts, counts, need: int) -> np.ndarray:
    """Distinct values of ``x`` with positive weight ``w`` in each segment of
    ``counts[i]`` rows from ``starts[i]``, counted up to ``need`` (2 or 3).

    The one support test of every fit: in linear time, without a sort and
    without gathering the positively weighted rows, equal extremes give one
    value and a value strictly between them a third. A segment with no
    positive weight counts 0; every segment holds at least one row.
    """
    positive = w > 0.0
    if len(starts) == 1:  # one segment: no full-length temporaries of floats
        lo, hi = np.array([np.inf]), np.array([-np.inf])
        for rows in _chunks(x.size):
            lo = np.minimum(lo, np.where(positive[rows], x[rows], np.inf).min())
            hi = np.maximum(hi, np.where(positive[rows], x[rows], -np.inf).max())
        lo_rows, hi_rows = lo, hi
    else:
        lo = np.minimum.reduceat(np.where(positive, x, np.inf), starts)
        hi = np.maximum.reduceat(np.where(positive, x, -np.inf), starts)
        lo_rows, hi_rows = np.repeat(lo, counts), np.repeat(hi, counts)
    distinct = (lo <= hi).astype(int) + (lo < hi)
    if need == 3:
        inside = positive & (x > lo_rows) & (x < hi_rows)
        distinct += (lo < hi) & np.logical_or.reduceat(inside, starts)
    return distinct


def _weighted_design(
    weights: SidedWeights, basis: ScaledBasis
) -> tuple[np.ndarray, np.ndarray, float]:
    """The checked weighted design of one side: ``(R'KR, powers, rcond)``.

    ``powers`` holds the sums of ``K u^k`` for k <= degree + 2
    (``_power_moments``). Raises ValueError if weights and basis come from
    different samples, bandwidths or cutoffs, and SingularSupport if the
    support is too thin or ``R'KR`` has reciprocal condition below
    ``GRAM_RCOND_MIN``. A design that passes is kept on ``weights`` and
    returned again for the same basis object; the entry holds the basis, so
    its id is not reused meanwhile. The design rows themselves are formed
    where they are summed (``_design``).
    """
    entry = weights._designs.get(id(basis))
    if entry is not None:
        return entry[1]
    _require_aligned(weights, basis)
    need = basis.degree + 1
    _require_support(weights, _support_count(weights, basis.u, need), need)
    powers = _power_moments(weights.weights, basis.u, [0], basis.degree)[0]
    design = _checked_gram(weights, powers, basis.degree)
    weights._designs[id(basis)] = (basis, design)
    return design


def _nested_designs(weights: SidedWeights, linear: ScaledBasis, quadratic: ScaledBasis):
    """``_weighted_design`` of a linear and a quadratic basis of the same
    scaled coordinate on the same weights, from one support test and one
    pass of power sums: the linear design's sums are the first four of the
    quadratic's, the same products summed alike. The checks raise the same
    errors, in the same order, as the two ``_weighted_design`` calls.
    """
    _require_aligned(weights, linear)
    distinct = _support_count(weights, quadratic.u, 3)  # a count below 3 is exact
    _require_support(weights, distinct, 2)
    powers = _power_moments(weights.weights, quadratic.u, [0], 2)[0]
    design = _checked_gram(weights, powers[:4], 1)
    _require_support(weights, distinct, 3)
    return design, _checked_gram(weights, powers, 2)


def _require_aligned(weights: SidedWeights, basis: ScaledBasis) -> None:
    if weights.weights.shape[0] != basis.u.shape[0]:
        raise ValueError("weights and basis were built from different samples")
    if weights.bandwidth != basis.bandwidth or weights.cutoff != basis.cutoff:
        raise ValueError("weights and basis use different bandwidth or cutoff")


def _support_count(weights: SidedWeights, u: np.ndarray, need: int) -> int:
    """``_distinct_support`` of one side's positively weighted ``u``."""
    w = weights.weights
    return int(_distinct_support(u, w, [0], [w.size], need)[0]) if weights.n_positive else 0


def _require_support(weights: SidedWeights, distinct: int, need: int) -> None:
    if distinct < need:
        raise SingularSupport(
            f"{distinct} distinct running-variable values with positive weight on "
            f"the {weights.side} side; need at least {need}, so "
            f"bandwidth {weights.bandwidth} is too small"
        )


def _checked_gram(weights: SidedWeights, powers: np.ndarray, degree: int):
    """``(R'KR, powers, rcond)`` from the power sums of a side's fit of the
    given degree; raises SingularSupport below ``GRAM_RCOND_MIN``.
    """
    gram = _hankel(powers, degree)
    rcond = reciprocal_condition(gram)
    if rcond < GRAM_RCOND_MIN:
        shape = "linear" if degree == 1 else "quadratic"
        raise SingularSupport(
            f"singular local {shape} design on the {weights.side} side (rcond={rcond:.3e})"
        )
    return gram, powers, rcond


def _design_rows(w: np.ndarray, u: np.ndarray, degree: int, rows=slice(None)) -> np.ndarray:
    """The design rows ``K u^k``, k <= ``degree``, of rows ``rows`` of weights
    ``w`` and scaled coordinates ``u``, ``(degree + 1, rows)``. Each power
    row is the one below times ``u``, so a row formed over a chunk equals
    the same row formed over all rows.
    """
    w, u = w[rows], u[rows]
    out = np.empty((degree + 1, w.size))
    out[0] = w
    for k in range(degree):
        np.multiply(out[k], u, out=out[k + 1])
    return out


def _design(weights: SidedWeights, basis: ScaledBasis):
    """The design rows of one side as a function of a row range, which the
    moment tables call for each chunk (``_rows_of``).
    """
    return partial(_design_rows, weights.weights, basis.u, basis.degree)


def _rows_of(table, rows) -> np.ndarray:
    """Rows ``rows`` of a per-row table ``(p, n)``, given as an array or as a
    function of a row range that forms them (``_design``).
    """
    return table(rows) if callable(table) else table[..., rows]


def _chunks(m: int) -> list[slice]:
    """The ranges of at most ``CHUNK_ROWS`` rows that cover ``m`` rows."""
    return [slice(i, i + CHUNK_ROWS) for i in range(0, m, CHUNK_ROWS)]


def _sums(table, m: int, starts) -> np.ndarray:
    """The one sum over rows of every fit: the sums over each segment of
    ``m`` rows of the per-row products ``table(rows)``, ``(..., rows)``, as
    ``(segments, ...)``. Segment i runs from row ``starts[i]`` to the next
    start and holds at least one row.

    Each row of products is summed over a segment by numpy's pairwise sum,
    in an order fixed by the segment's length alone, so neither the BLAS
    thread count nor the other rows and segments of the table change it. A
    single segment longer than ``CHUNK_ROWS`` is built and summed a chunk at
    a time, and the chunks' sums are summed pairwise.
    """
    ranges = _chunks(m) if len(starts) == 1 else [slice(None)]
    parts = [np.add.reduceat(table(rows), starts, axis=-1) for rows in ranges]
    sums = parts[0] if len(parts) == 1 else np.add.reduce(np.stack(parts, axis=-1), axis=-1)
    return np.ascontiguousarray(sums.transpose(sums.ndim - 1, *range(sums.ndim - 1)))


def _power_moments(w: np.ndarray, u: np.ndarray, starts, degree: int) -> np.ndarray:
    """The sums of ``K u^k`` for k <= degree + 2 over each segment,
    ``(segments, degree + 3)``: the Gram matrix's entries (``_hankel``) and,
    at degree 1, ``R'K u^2``.
    """
    return _sums(partial(_design_rows, w, u, degree + 2), w.size, starts)


def _hankel(powers: np.ndarray, degree: int) -> np.ndarray:
    """The Gram matrices ``R'KR`` from power sums ``(..., >= 2 degree + 1)``:
    entry (i, j) is the sum of ``K u^(i + j)``.
    """
    return powers[..., np.add.outer(range(degree + 1), range(degree + 1))]


def _product_sums(a, b, starts, m: int) -> np.ndarray:
    """The sums of every product ``a[i] * b[j]`` of two per-row tables of
    ``m`` rows over each segment, ``(segments, len(a), len(b))``. Each table
    is an array or a function of a row range (``_rows_of``).
    """

    def products(rows):
        return _rows_of(a, rows)[:, None] * _rows_of(b, rows)[None]

    return _sums(products, m, starts)


def _instrument_moments(design, S, Z: np.ndarray, starts):
    """``(Z'KR, Z'KS)`` over each segment, from the design rows ``K R`` and
    the outcome rows ``S = [y, W]`` (each an array or a function of a row
    range, ``_rows_of``) and the placebo treatment rows ``Z``.
    """

    def kz(rows):
        return _rows_of(design, rows)[0] * Z[:, rows]

    return tuple(_product_sums(a, b, starts, Z.shape[-1]) for a, b in ((Z, design), (kz, S)))


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
    gram, _, rcond = _weighted_design(weights, basis)
    s = np.asarray(s, dtype=float)[None]
    rks = _product_sums(_design(weights, basis), s, [0], s.shape[-1])[0]
    return LocalFit(coef_scaled=np.linalg.solve(gram, rks)[:, 0], gram_rcond=rcond)


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
    gram = _weighted_design(weights, basis)[0]

    def outcomes(rows):  # the rows of S = [y, W], stacked a chunk at a time
        return np.vstack([y[rows], W[rows].T])

    design = _design(weights, basis)
    rks = _product_sums(design, outcomes, [0], y.size)[0]
    zkr, zks = (m[0] for m in _instrument_moments(design, outcomes, Z.T, [0]))
    schur_rcond = _schur_rcond(_schur_complement(gram, rks[:, 1:], zkr, zks[:, 1:]), zks[:, 1:])
    if schur_rcond < SCHUR_RCOND_MIN:
        raise WeakInstrument(
            f"weak placebo proxy on the {weights.side} side "
            f"(Schur complement rcond={schur_rcond:.3e})"
        )
    alpha0, gamma = _joint_solve(gram, rks[:, 1:], zkr, zks[:, 1:], rks[:, 0], zks[:, 0])
    return IvFit(
        side=weights.side,
        alpha0=float(alpha0),
        gamma=gamma,
        schur_rcond=schur_rcond,
    )


def _schur_complement(gram, rkw, zkr, zkw) -> np.ndarray:
    """The Schur complement ``Z'KW - Z'KR (R'KR)^{-1} R'KW`` of the joint
    system, for one side or a stack of sides; ``_schur_rcond`` measures it.
    """
    return zkw - zkr @ np.linalg.solve(gram, rkw)


def _joint_solve(gram, rkw, zkr, zkw, rky, zky) -> tuple[np.ndarray, np.ndarray]:
    """``(alpha0, gamma)`` of the joint system of ``local_iv_fit``, for one
    side or a stack of sides.
    """
    joint = np.concatenate(
        [np.concatenate([gram, rkw], axis=-1), np.concatenate([zkr, zkw], axis=-1)], axis=-2
    )
    nu = np.linalg.solve(joint, np.concatenate([rky, zky], axis=-1)[..., None])[..., 0]
    return nu[..., 0], nu[..., 2:]
