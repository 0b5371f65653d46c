import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdd import (
    KernelSpec,
    SingularSupport,
    WeakInstrument,
    local_iv_fit,
    local_poly_fit,
    scaled_basis,
    side_correction_from_weights,
    sided_weights,
)
from pdd.local_fit import CHUNK_ROWS, _distinct_support, _sums
from conftest import SCHUR_ROUNDING_CSV, residualize

TRIANGLE = KernelSpec("triangle")
WINDOW = KernelSpec("window")


def _setup(d, cutoff, h, side, kernel=WINDOW, degree=1):
    d = np.asarray(d, dtype=float)
    return (
        sided_weights(d, cutoff, h, side, kernel),
        scaled_basis(d, cutoff, h, degree),
    )


def test_degree_one_exactness():
    d = np.array([0.05, 0.2, 0.33, 0.41, 0.6])
    h = 0.8
    s = 2.0 + 3.0 * d  # cutoff at 0, so s = 2 + 3(d - cutoff)
    w, basis = _setup(d, 0.0, h, "right", TRIANGLE)
    fit = local_poly_fit(s, w, basis)
    assert_allclose(fit.intercept, 2.0, rtol=1e-12)
    assert_allclose(fit.coef_scaled[1], 3.0 * h, rtol=1e-12)


def test_constant_fit():
    d = np.array([0.1, 0.3, 0.5, 0.9])
    for kernel in (WINDOW, TRIANGLE, KernelSpec("gaussian")):
        w, basis = _setup(d, 0.0, 1.0, "right", kernel)
        fit = local_poly_fit(np.full(4, 5.0), w, basis)
        assert_allclose(fit.coef_scaled, [5.0, 0.0], atol=1e-12)


def test_five_point_oracle():
    # Window kernel, h=1, right side: weights are all 1, so the fit solves the
    # plain normal equations. Expected values computed from the explicit
    # 2x2 solve (exact rationals): intercept -1/10, scaled slope 9.
    d = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    s = np.array([1.0, 2.0, 2.0, 3.0, 5.0])
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW)
    fit = local_poly_fit(s, w, basis)
    assert_allclose(fit.coef_scaled, [-0.1, 9.0], rtol=1e-12, atol=1e-12)
    # independent oracle, recomputed here from raw normal equations
    R = np.column_stack([np.ones(5), d])
    oracle = np.linalg.inv(R.T @ R) @ (R.T @ s)
    assert_allclose(fit.coef_scaled, oracle, rtol=1e-12)


def test_five_point_residuals_oracle():
    d = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    s = np.array([1.0, 2.0, 2.0, 3.0, 5.0])
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW)
    resid = residualize(s, w.weights, basis.rows)
    assert_allclose(resid, [0.2, 0.3, -0.6, -0.5, 0.6], rtol=1e-12, atol=1e-12)


def test_residualize_linear_and_constant_are_zero():
    d = np.linspace(0.01, 0.9, 15)
    w, basis = _setup(d, 0.0, 1.0, "right", TRIANGLE)
    assert_allclose(residualize(1.5 - 2.0 * d, w.weights, basis.rows), 0.0, atol=1e-12)
    assert_allclose(residualize(np.full(15, 3.3), w.weights, basis.rows), 0.0, atol=1e-12)


def test_residualize_zero_weight_entries_flagged_zero():
    d = np.array([-0.5, -0.2, 0.1, 0.2, 0.3])
    s = np.array([10.0, -3.0, 1.0, 4.0, 2.0])
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW)
    resid = residualize(s, w.weights, basis.rows)
    assert resid[0] == 0.0 and resid[1] == 0.0
    assert not w.weights[0] > 0.0 and not w.weights[1] > 0.0


def test_weighted_residual_orthogonality(rng):
    for trial in range(20):
        d = rng.uniform(-1.0, 1.0, 80)
        s = rng.standard_normal(80)
        side = "left" if trial % 2 else "right"
        kernel = (WINDOW, TRIANGLE, KernelSpec("gaussian"))[trial % 3]
        w, basis = _setup(d, 0.0, rng.uniform(0.3, 1.0), side, kernel)
        resid = residualize(s, w.weights, basis.rows)
        moments = (basis.rows * w.weights[:, None]).T @ resid
        scale = max(1.0, float(np.abs(s).max()))
        assert np.all(np.abs(moments) < 1e-10 * scale)


def test_gram_is_spd_and_reported():
    d = np.linspace(0.05, 1.0, 12)
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW)
    fit = local_poly_fit(d * 2.0, w, basis)
    gram = (basis.rows * w.weights[:, None]).T @ basis.rows
    assert np.all(np.linalg.eigvalsh(gram) > 0.0)
    assert_allclose(fit.gram_rcond, 1.0 / np.linalg.cond(gram), rtol=1e-12)
    assert 0.0 < fit.gram_rcond <= 1.0


def test_singular_support_too_few_points():
    d = np.array([0.2, 0.2, 0.2, -0.4])
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW)
    with pytest.raises(SingularSupport):
        local_poly_fit(np.ones(4), w, basis)


def test_singular_support_quadratic_needs_three():
    d = np.array([0.4, 0.1, 0.4, 0.1])
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW, degree=2)
    with pytest.raises(SingularSupport, match="^2 distinct"):
        local_poly_fit(np.ones(4), w, basis)
    # a third value strictly between the extremes is enough
    d = np.append(d, 0.25)
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW, degree=2)
    fit = local_poly_fit(1.0 + d + d * d, w, basis)
    assert_allclose(fit.coef_scaled, [1.0, 1.0, 1.0], rtol=1e-10)


def test_distinct_support_counts_each_segment_up_to_need():
    # segments: 2 positive values with a zero-weight row between them; 3
    # values, one strictly inside; no positive weight; one repeated value;
    # 2 positive values with a zero-weight row beyond them
    segments = [
        ([0.1, 0.3, 0.5, 0.1], [1.0, 0.0, 2.0, 1.0]),
        ([0.4, 0.0, 0.2], [1.0, 1.0, 0.5]),
        ([0.2, 0.6], [0.0, 0.0]),
        ([0.7, 0.7, 0.7], [1.0, 3.0, 1.0]),
        ([-0.5, -0.1, -0.9], [1.0, 1.0, 0.0]),
    ]
    x = np.concatenate([xs for xs, _ in segments])
    w = np.concatenate([ws for _, ws in segments])
    counts = np.array([len(xs) for xs, _ in segments])
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    assert _distinct_support(x, w, starts, 3).tolist() == [2, 3, 0, 1, 2]
    assert _distinct_support(x, w, starts, 2).tolist() == [2, 2, 0, 1, 2]
    # one segment at a time gives the same counts
    for (xs, ws), want in zip(segments, [2, 3, 0, 1, 2]):
        assert _distinct_support(np.array(xs), np.array(ws), [0], 3).tolist() == [want]


def test_a_segment_sums_alike_alone_and_among_others(rng):
    # a Monte Carlo block sums each side as its single fit does: a segment
    # longer than CHUNK_ROWS in chunks at its own offsets, the chunks' sums
    # then summed pairwise, whatever segments share its table
    lengths = [1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 1234, 5, 700, 2]
    m = sum(lengths)
    # values over 16 orders of magnitude, so any change of order rounds apart
    table = rng.standard_normal((3, m)) * 10.0 ** rng.uniform(-8, 8, (3, m))
    starts = np.cumsum([0, *lengths[:-1]])
    together = _sums(lambda rows: table[:, rows], m, starts)
    order = rng.permutation(len(lengths))  # the same segments, shuffled
    shuffled = np.hstack([table[:, starts[i] : starts[i] + lengths[i]] for i in order])
    shuffled_starts = np.cumsum([0, *np.take(lengths, order)[:-1]])
    reordered = _sums(lambda rows: shuffled[:, rows], m, shuffled_starts)
    for i, (start, length) in enumerate(zip(starts, lengths)):
        alone = table[:, start : start + length]
        chunks = [
            np.add.reduceat(alone[:, i : i + CHUNK_ROWS], [0], axis=-1)
            for i in range(0, length, CHUNK_ROWS)
        ]
        expected = np.add.reduce(np.stack(chunks, axis=-1), axis=-1)[:, 0]
        assert np.array_equal(_sums(lambda rows: alone[:, rows], length, [0])[0], expected)
        assert np.array_equal(together[i], expected)
        assert np.array_equal(reordered[list(order).index(i)], expected)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize(
    "caller", ["local_poly_fit", "local_iv_fit", "correction_linear", "correction_quadratic"]
)
def test_near_singular_gram_names_side_and_degree(rng, caller, side):
    if caller == "correction_quadratic":
        # the linear design at h sees spread rows; the quadratic one at b only
        # three values 1e-6 apart
        u = np.concatenate([0.01 + 1e-6 * np.arange(3), np.linspace(0.1, 0.9, 9)])
        h, b, degree = 1.0, 0.02, "quadratic"
    else:
        # two values 1e-9 apart pass the distinct-support count, but leave
        # R'KR singular to rounding
        u = 0.5 + 1e-9 * np.tile([0.0, 1.0], 3)
        h, b, degree = 1.0, 1.0, "linear"
    d = u if side == "right" else -u
    w_h, basis1 = _setup(d, 0.0, h, side)
    S = rng.standard_normal((d.size, 2))
    with pytest.raises(SingularSupport, match=rf"{degree} design on the {side} side \(rcond="):
        if caller == "local_poly_fit":
            local_poly_fit(S[:, 0], w_h, basis1)
        elif caller == "local_iv_fit":
            local_iv_fit(S[:, 0], S[:, 1], S[:, 1] + 0.5, w_h, basis1)
        else:
            w_b, basis2 = _setup(d, 0.0, b, side, degree=2)
            side_correction_from_weights(S, w_h, basis1, w_b, basis2)


def test_iv_equals_joint_ols_when_instrument_is_regressor(rng):
    n = 60
    d = rng.uniform(0.0, 1.0, n)
    W = rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    w, basis = _setup(d, 0.0, 1.0, "right", TRIANGLE)
    fit = local_iv_fit(y, W, W, w, basis)
    X = np.column_stack([basis.rows, W])
    Xw = X * w.weights[:, None]
    ols = np.linalg.solve(Xw.T @ X, Xw.T @ y)
    assert_allclose(fit.alpha0, ols[0], rtol=1e-10)
    assert_allclose(fit.gamma, ols[2:], rtol=1e-10)


def test_iv_exact_on_noiseless_partially_linear_data(rng):
    n = 50
    d = rng.uniform(0.0, 1.0, n)
    h = 0.9
    W = rng.standard_normal(n)
    Z = W + 0.3 * rng.standard_normal(n)  # correlated instrument
    y = 1.0 + 2.0 * d + 3.0 * W
    w, basis = _setup(d, 0.0, h, "right", TRIANGLE)
    fit = local_iv_fit(y, W[:, None], Z[:, None], w, basis)
    assert_allclose(fit.alpha0, 1.0, rtol=1e-9)
    assert_allclose(fit.gamma, [3.0], rtol=1e-9)


def test_six_point_iv_oracle():
    # Window kernel, h=1: the 3x3 stacked system solved exactly (rationals
    # 530834/701945 for alpha0 and 145890/140389 for gamma).
    d = np.array([0.05, 0.15, 0.3, 0.45, 0.6, 0.8])
    y = np.array([1.2, 0.7, 1.9, 2.4, 1.1, 3.0])
    W = np.array([0.5, -0.2, 0.9, 1.4, 0.1, 1.8])[:, None]
    Z = np.array([0.4, -0.1, 1.1, 1.2, 0.3, 1.5])[:, None]
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW)
    fit = local_iv_fit(y, W, Z, w, basis)
    assert_allclose(fit.alpha0, 0.7562330382009986, rtol=1e-12)
    assert_allclose(fit.gamma, [1.039183981650984], rtol=1e-12)


def test_iv_solves_first_order_condition(rng):
    n = 80
    d = rng.uniform(-1.0, 1.0, n)
    W = rng.standard_normal((n, 2))
    Z = W + 0.5 * rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    w, basis = _setup(d, 0.0, 0.8, "left", TRIANGLE)
    fit = local_iv_fit(y, W, Z, w, basis)
    # the intercept moment fixes the slope; the slope and instrument moments
    # then hold only if alpha0 and gamma solve the system
    u = basis.rows[:, 1]
    partial = y - fit.alpha0 - W @ fit.gamma
    slope = (w.weights @ partial) / (w.weights @ u)
    moments = (np.column_stack([u, Z]) * w.weights[:, None]).T @ (partial - slope * u)
    assert np.all(np.abs(moments) < 1e-9)


def test_gamma_block_matches_residualized_formula(rng):
    for _ in range(25):
        n = 120
        d = rng.uniform(-1.0, 1.0, n)
        factors = rng.standard_normal((n, 2))
        W = factors + 0.3 * rng.standard_normal((n, 2))
        Z = factors + 0.3 * rng.standard_normal((n, 2))
        y = rng.standard_normal(n) + factors.sum(axis=1)
        h = rng.uniform(0.5, 1.2)
        w, basis = _setup(d, 0.0, h, "left", TRIANGLE)
        fit = local_iv_fit(y, W, Z, w, basis)
        W_perp = np.column_stack(
            [residualize(W[:, j], w.weights, basis.rows) for j in range(2)]
        )
        y_perp = residualize(y, w.weights, basis.rows)
        lhs = (Z * w.weights[:, None]).T @ W_perp
        rhs = (Z * w.weights[:, None]).T @ y_perp
        oracle = np.linalg.solve(lhs, rhs)
        assert_allclose(fit.gamma, oracle, rtol=1e-10, atol=1e-12)


def test_weak_instrument_detected():
    # A placebo outcome that is an exact linear function of d leaves nothing
    # after residualisation, so the instrumented cross-moment is singular.
    d = np.linspace(0.05, 1.0, 30)
    W = (2.0 * d)[:, None]
    Z = np.linspace(-1.0, 1.0, 30)[:, None]
    y = np.ones(30)
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW)
    with pytest.raises(WeakInstrument):
        local_iv_fit(y, W, Z, w, basis)


def test_iv_needs_enough_support():
    d = np.array([0.1, 0.2, -0.5, -0.6])
    w, basis = _setup(d, 0.0, 1.0, "right", WINDOW)
    with pytest.raises(SingularSupport):
        local_iv_fit(np.ones(4), np.ones((4, 1)), np.ones((4, 1)), w, basis)


def test_kernel_scaling_leaves_fit_invariant(rng):
    from dataclasses import replace

    d = rng.uniform(0.0, 1.0, 40)
    s = rng.standard_normal(40)
    w, basis = _setup(d, 0.0, 0.7, "right", TRIANGLE)
    scaled = replace(w, weights=w.weights * 7.5)
    base = local_poly_fit(s, w, basis)
    other = local_poly_fit(s, scaled, basis)
    assert_allclose(base.coef_scaled, other.coef_scaled, rtol=1e-12)


def test_one_estimate_sharp_checks_one_gram_per_side(rng, monkeypatch):
    import pdd.local_fit
    from conftest import random_dataset
    from pdd import estimate_sharp

    calls = []
    real = pdd.local_fit.reciprocal_condition

    def counted(m):
        calls.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(pdd.local_fit, "reciprocal_condition", counted)
    sample = random_dataset(rng, n=300, q=1)
    estimate_sharp(sample, 0.0, 0.8, TRIANGLE)
    # the y fit, the W fit and the instrumented solve of a side share one design
    assert calls == [(2, 2), (2, 2)]


def test_the_design_is_kept_for_the_same_basis_object_only(rng):
    from pdd.local_fit import _weighted_design

    d = rng.uniform(0.0, 1.0, 40)
    s = rng.standard_normal(40)
    w, basis = _setup(d, 0.0, 0.7, "right", TRIANGLE)
    first = _weighted_design(w, basis)
    assert _weighted_design(w, basis) is first
    # the kept design is (R'KR, power sums, rcond): no array with a row axis
    assert [np.shape(x) for x in first] == [(2, 2), (4,), ()]
    twin = scaled_basis(d, 0.0, 0.7, 1)
    rebuilt = _weighted_design(w, twin)
    assert rebuilt is not first and len(rebuilt) == len(first)
    for a, b in zip(rebuilt, first):
        np.testing.assert_array_equal(a, b)
    assert_allclose(local_poly_fit(s, w, twin).coef_scaled, local_poly_fit(s, w, basis).coef_scaled)


def test_a_cached_design_does_not_hide_a_mismatched_basis(rng):
    d = rng.uniform(0.0, 1.0, 40)
    s = rng.standard_normal(40)
    w, basis = _setup(d, 0.0, 0.7, "right", TRIANGLE)
    local_poly_fit(s, w, basis)
    with pytest.raises(ValueError, match="different bandwidth or cutoff"):
        local_poly_fit(s, w, scaled_basis(d, 0.0, 0.6, 1))
    with pytest.raises(ValueError, match="different bandwidth or cutoff"):
        local_poly_fit(s, w, scaled_basis(d, 0.1, 0.7, 1))
    with pytest.raises(ValueError, match="different samples"):
        local_poly_fit(s[:30], w, scaled_basis(d[:30], 0.0, 0.7, 1))


def test_a_failed_check_keeps_no_design_and_a_copy_starts_empty(rng):
    from dataclasses import replace

    d = np.array([0.1, 0.1, 0.1, 0.5])
    w, basis = _setup(d, 0.0, 0.3, "right", TRIANGLE)  # one distinct value in h
    for _ in range(2):
        with pytest.raises(SingularSupport):
            local_poly_fit(np.ones(4), w, basis)
    assert not w._designs
    d = rng.uniform(0.0, 1.0, 40)
    s = rng.standard_normal(40)
    w, basis = _setup(d, 0.0, 0.7, "right", TRIANGLE)
    local_poly_fit(s, w, basis)
    thinned = replace(w, weights=np.where(d < 0.5, w.weights, 0.0))
    fresh = sided_weights(d, 0.0, 0.7, "right", TRIANGLE)
    fresh = replace(fresh, weights=np.where(d < 0.5, fresh.weights, 0.0))
    np.testing.assert_array_equal(
        local_poly_fit(s, thinned, basis).coef_scaled, local_poly_fit(s, fresh, basis).coef_scaled
    )
    # the kept designs are neither compared nor printed
    assert replace(w) == w and w._designs and not replace(w)._designs
    assert "_designs" not in repr(w)


def test_a_non_finite_matrix_has_reciprocal_condition_zero(rng):
    from pdd.local_fit import _schur_rcond, reciprocal_condition

    stack, cross = rng.standard_normal((2, 5, 2, 2))
    rkw, zkr = rng.standard_normal((2, 5, 2, 2))
    gram = np.eye(2) + 0.1 * rng.standard_normal((5, 2, 2))
    stack[1, 0, 1], stack[3, 1, 1] = np.nan, -np.inf
    finite, broken = [0, 2, 4], [1, 3]

    def plain_svd(m):  # the singular values with no guard
        return np.linalg.svd(m, compute_uv=False)

    s, raw = plain_svd(stack[finite]), plain_svd(cross[finite])
    rcond = reciprocal_condition(stack)
    assert rcond[broken].tolist() == [0.0, 0.0]
    np.testing.assert_array_equal(rcond[finite], s[:, -1] / s[:, 0])

    def schur_by_hand(i, zkw):
        c = plain_svd(zkw[i] - zkr[i] @ np.linalg.solve(gram[i], rkw[i]))
        term = np.linalg.norm(zkr[i]) * np.linalg.norm(rkw[i]) / np.linalg.norm(gram[i])
        return c[-1] / max(c[0], plain_svd(zkw[i])[0], term)

    # a non-finite cross-moment gives 0, and so does a non-finite term of
    # the complement beside a finite cross-moment
    broken_rkw = rkw.copy()
    broken_rkw[broken] = np.nan
    for zkw, rkw_in in ((stack, rkw), (cross, broken_rkw)):
        schur = _schur_rcond(gram, rkw_in, zkr, zkw)
        assert schur[broken].tolist() == [0.0, 0.0]
        assert_allclose(schur[finite], [schur_by_hand(i, zkw) for i in finite], rtol=1e-13)
        # one matrix gives a float
        for i in range(5):
            one = _schur_rcond(gram[i], rkw_in[i], zkr[i], zkw[i])
            assert type(one) is float and one == schur[i]
    for i in range(5):
        one = reciprocal_condition(stack[i])
        assert type(one) is float and one == rcond[i]


def test_a_complement_zero_but_for_rounding_is_a_weak_instrument():
    # the 1x1 complement is rounding alone; measured against its own size
    # and Z'KW's it read rcond 1, and the joint solve then met a singular
    # system
    from io import BytesIO

    from pdd import rule_of_thumb_bandwidth

    d, y, w1, z1 = np.loadtxt(BytesIO(SCHUR_ROUNDING_CSV), delimiter=",", skiprows=1).T
    right = d >= 0.0
    weights, basis = _setup(d[right], 0.0, rule_of_thumb_bandwidth(d), "right", TRIANGLE)
    with pytest.raises(WeakInstrument, match="right side"):
        local_iv_fit(y[right], w1[right], z1[right], weights, basis)
