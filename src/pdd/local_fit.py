"""Weighted local polynomial least squares and the local instrumented solve.

Both use one-sided kernel weights and the bandwidth-scaled polynomial basis.
Every moment is a sum over rows of per-row products, and every such sum is
taken by ``_reduce`` (``_sums`` for a single table): products are rows of
``(p, n)`` tables, and each row is summed over each segment of rows by
numpy's fixed-order pairwise sum. No BLAS product runs over rows, so no
thread count changes a moment. A single fit sums one segment per side;
``inference.fit_block`` sums one segment per side of each sample of a Monte
Carlo block, through the same helpers (``_power_moments``,
``_product_sums``, ``_instrument_rows`` and the support test's rows).

Every table is formed and reduced one window of rows at a time
(``_windows``), for one segment or many: a window packs whole segments, up
to ``WINDOW_ROWS`` rows of them, and a segment longer than ``CHUNK_ROWS`` is
cut at its own ``CHUNK_ROWS`` offsets and its pieces' sums summed pairwise.
A segment therefore sums the same, bit for bit, alone or among others, in a
single fit or in a block of any size, and no per-row array outlives its
window. A table function may form several tables from the same rows (each
one summed before the next is formed), so the design rows ``K R``
(``K u^k``, ``_design_rows``) and the outcome rows of a window are formed
once for all of its products. A row formed over a window equals the same
row formed over the whole side, and a row of products sums the same in a
taller table: where a linear and a quadratic fit share weights and ``u`` (a
bias bandwidth equal to the main one), the linear fit's sums are read off
the quadratic fit's (``_nested_designs``).

The systems are small and dense and solved by a pivoted factorisation;
singularity is detected through reciprocal condition numbers, not through
solver failure. ``_weighted_design`` keeps one checked design ``(R'KR, power
sums, rcond)`` per pair of weights and basis, so a side's fits share the
support test and the SVD; it holds no per-row array.

Each check and each step of the instrumented solve is written once, for one
side or a stack of sides, and ``inference.fit_block`` calls the same
helpers: the support test's rows and count (``_extreme_rows``,
``_inside_rows`` and ``_distinct``, which ``_distinct_support`` combines),
the conditioning tests ``reciprocal_condition`` and ``_schur_rcond``, the
Schur complement ``_schur_complement`` and the joint system
``_joint_solve``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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

#: Rows of one segment a moment table is built over at once. A longer
#: segment, a side of a single fit or of a large Monte Carlo sample, is
#: summed this many rows at a time and the chunks' sums are summed
#: pairwise, so its table stays in cache and a fit over a million rows holds
#: a few chunks of products.
CHUNK_ROWS = 1 << 14

#: Rows of whole segments a moment table packs at once (``_windows``), so a
#: Monte Carlo block of many short segments holds a window's tables, about
#: as large as those of a single short fit, however many rows it has.
WINDOW_ROWS = 1 << 12


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


def _distinct_support(x: np.ndarray, w: np.ndarray, starts, need: int) -> np.ndarray:
    """Distinct values of ``x`` with positive weight ``w`` in each segment of
    rows from ``starts[i]`` to the next start, counted up to ``need`` (2 or
    3).

    The one support test of every fit: in linear time, without a sort and
    without gathering the positively weighted rows, equal extremes give one
    value and a value strictly between them a third (``_distinct``). A
    segment with no positive weight counts 0; every segment holds at least
    one row.
    """
    m = x.size
    ufuncs = (np.minimum, np.maximum)
    lo, hi = _reduce(lambda rows: _extreme_rows(x[rows], w[rows]), m, starts, ufuncs)
    if need == 2:
        return _distinct(lo, hi)
    bounds = _repeated(np.stack([lo, hi]), starts, m)

    def inside(rows):
        return (_inside_rows(x[rows], w[rows], *bounds(rows)),)

    return _distinct(lo, hi, _reduce(inside, m, starts, (np.logical_or,))[0])


def _extreme_rows(x: np.ndarray, w: np.ndarray):
    """``x`` where the weight ``w`` is positive, and ``inf``, then ``-inf``,
    elsewhere: their minima and maxima over a segment (``_reduce``) are the
    extremes of its positively weighted ``x``, ``lo > hi`` where none is.
    """
    positive = w > 0.0
    yield np.where(positive, x, np.inf)
    yield np.where(positive, x, -np.inf)


def _inside_rows(x: np.ndarray, w: np.ndarray, lo, hi) -> np.ndarray:
    """Whether each row's ``x`` has positive weight and lies strictly between
    its segment's extremes ``lo`` and ``hi``.
    """
    return (w > 0.0) & (x > lo) & (x < hi)


def _distinct(lo: np.ndarray, hi: np.ndarray, inside=None) -> np.ndarray:
    """The support test's count from each segment's extremes and, to count
    a third value, whether any row is ``_inside_rows``.
    """
    distinct = (lo <= hi).astype(int) + (lo < hi)
    return distinct if inside is None else distinct + ((lo < hi) & inside)


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
    return int(_distinct_support(u, w, [0], need)[0]) if weights.n_positive else 0


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


def _windows(starts, m: int):
    """The row ranges the tables of ``_reduce`` are built over:
    ``(windows, first, split)``.

    Each segment is cut at its own ``CHUNK_ROWS`` offsets into pieces, the
    first of them piece ``first[i]`` of all, and ``split`` lists each
    segment of more than one piece as ``(segment, first piece, end piece)``.
    A window is ``(rows, the starts of its pieces within it)``: it holds
    whole pieces, ``WINDOW_ROWS`` rows of them at most, or one piece that is
    longer.
    """
    starts = np.asarray(starts).tolist()
    bounds, first, split = [], [], []
    for i, (start, end) in enumerate(zip(starts, [*starts[1:], m])):
        first.append(len(bounds))
        bounds.extend(range(start, end, CHUNK_ROWS))
        if len(bounds) - first[-1] > 1:
            split.append((i, first[-1], len(bounds)))
    bounds.append(m)
    windows, i = [], 0
    while i < len(bounds) - 1:
        j = max(bisect_right(bounds, bounds[i] + WINDOW_ROWS) - 1, i + 1)
        windows.append((slice(bounds[i], bounds[j]), [b - bounds[i] for b in bounds[i:j]]))
        i = j
    return windows, first, split


def _reduce(tables, m: int, starts, ufuncs) -> list[np.ndarray]:
    """The one reduction over rows of every fit: for each segment of ``m``
    rows, the reduction by ``ufuncs[t]`` of each row of table t, where
    ``tables(rows)`` forms the tables' columns for a range of rows, each
    ``(..., rows)``, one after another. Returns one ``(segments, ...)``
    array per table. Segment i runs from row ``starts[i]`` to the next start
    and holds at least one row.

    The tables are built one window at a time (``_windows``), so no table
    outlives its window. Each row of a table is reduced over each piece of
    a segment by ``ufunc.reduceat``, whose order is fixed by the piece's
    length alone, so neither the BLAS thread count nor the other rows,
    segments and windows change it; numpy's sum is pairwise. A segment of
    more than ``CHUNK_ROWS`` rows is reduced a piece at a time and its
    pieces' results are reduced in order, the same way in a single fit and
    in a Monte Carlo block.
    """
    windows, first, split = _windows(starts, m)
    parts = []
    for rows, local in windows:
        formed = iter(tables(rows))  # each table is freed once reduced
        parts.append([f.reduceat(next(formed), local, axis=-1) for f in ufuncs])
    out = []
    for f, part in zip(ufuncs, zip(*parts)):
        result = part[0] if len(part) == 1 else np.concatenate(part, axis=-1)
        if split:
            joined, result = result, result[..., first]
            for i, a, b in split:
                result[..., i] = f.reduce(joined[..., a:b], axis=-1)
        out.append(np.ascontiguousarray(result.transpose(-1, *range(result.ndim - 1))))
    return out


def _sums(table, m: int, starts) -> np.ndarray:
    """The sums over each segment of the per-row products ``table(rows)``,
    ``(..., rows)``, as ``(segments, ...)``: ``_reduce`` of one table by
    numpy's pairwise sum.
    """
    return _reduce(lambda rows: (table(rows),), m, starts, (np.add,))[0]


def _repeated(per_segment: np.ndarray, starts, m: int):
    """Per-segment values ``(..., segments)`` repeated over the rows of their
    segments, as a function of a row range (``_rows_of``). A range within
    one segment gets that segment's column alone, which broadcasts.
    """
    starts = np.asarray(starts).tolist()
    ends = [*starts[1:], m]

    def over(rows):
        i, j = bisect_right(starts, rows.start) - 1, bisect_left(starts, rows.stop)
        if j - i == 1:
            return per_segment[..., i:j]
        lengths = [min(e, rows.stop) - max(s, rows.start) for s, e in zip(starts[i:j], ends[i:j])]
        return np.repeat(per_segment[..., i:j], lengths, axis=-1)

    return over


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


def _instrument_rows(kr: np.ndarray, S: np.ndarray, Z: np.ndarray):
    """The product tables of the instrumented solve on a range of rows, one
    after another: ``K R x S``, ``K Z x S`` and ``Z x K R``, from its
    degree-1 design rows ``K R``, outcome rows ``S = [y, W]`` and placebo
    treatment rows ``Z``, each formed once. Their sums (``_reduce``) are
    ``R'KS``, ``Z'KS`` and ``Z'KR``; each table is summed before the next is
    formed, so a chunk holds one of them at a time.
    """
    yield kr[:, None] * S[None]
    yield (kr[0] * Z)[:, None] * S[None]
    yield Z[:, None] * kr[None]


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

    def products(rows):
        return _instrument_rows(design(rows), outcomes(rows), Z.T[:, rows])

    rks, zks, zkr = (m[0] for m in _reduce(products, y.size, [0], (np.add,) * 3))
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
