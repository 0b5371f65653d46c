import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pdd
from pdd import (
    EquivalenceBreach,
    KernelSpec,
    NonFiniteResult,
    Sample,
    SingularSupport,
    DgpSpec,
    WeakInstrument,
    bias_corrected_estimate,
    estimate_fuzzy,
    estimate_sharp,
    kernel_value,
    local_poly_fit,
    monte_carlo,
    rdd_robust_estimate,
    robust_variance,
    rule_of_thumb_bandwidth,
    scaled_basis,
    side_correction,
    sided_weights,
    write_csv,
)
from pdd.cli import main
from pdd.estimator import _cut
from pdd.kernels import _cut_rows
from conftest import assert_no_children, estimate_fields, local_linear_jump, random_dataset

TRIANGLE = KernelSpec("triangle")
WINDOW = KernelSpec("window")


# ---------------------------------------------------------------- quantile


def _noisy_rdd(alpha):
    rng = np.random.default_rng(7)
    d = rng.uniform(-1.0, 1.0, 400)
    y = 0.8 * (d >= 0.0) + d + 0.5 * rng.standard_normal(400)
    return rdd_robust_estimate(d, y, 0.0, 0.6, 0.8, TRIANGLE, alpha)


def test_normal_quantile_reference_values():
    # the Wald interval's half-width in units of se is the normal quantile
    # at 1 - alpha/2
    for alpha, z in (
        (0.05, 1.959963985),
        (0.01, 2.575829304),
        (0.32, 0.994457883),
        (2e-6, 4.753424309),
    ):
        est = _noisy_rdd(alpha)
        assert est.se > 0.0
        assert_allclose((est.ci_upper - est.tau_pdd_bc) / est.se, z, atol=1e-8)


def test_normal_quantile_symmetry_and_roundtrip():
    for alpha in (0.002, 0.05, 0.4, 0.94, 0.9998):
        est = _noisy_rdd(alpha)
        upper = est.ci_upper - est.tau_pdd_bc
        assert_allclose(upper, est.tau_pdd_bc - est.ci_lower, rtol=1e-14)
        z = upper / est.se
        assert_allclose(0.5 * math.erfc(-z / math.sqrt(2.0)), 1.0 - alpha / 2.0, atol=1e-12)


def test_rule_of_thumb_bandwidth():
    d = np.linspace(-3.0, 3.0, 500)
    expected = 1.84 * np.std(d, ddof=1) * 500 ** (-0.2)
    assert_allclose(rule_of_thumb_bandwidth(d), expected, rtol=1e-12)


@pytest.mark.parametrize(
    "d", [[1e308, 1e308, -1e308, -1e308, 0.5], [-2e-323, -1e-323, 1e-323, 2e-323]]
)
def test_rule_of_thumb_bandwidth_that_overflows_or_underflows_is_non_finite(d):
    with np.errstate(all="ignore"), pytest.raises(NonFiniteResult, match="rule-of-thumb"):
        rule_of_thumb_bandwidth(np.array(d))


# ---------------------------------------------------- second derivative
# The second derivative at the cutoff is twice the scaled quadratic
# coefficient of the local quadratic fit, divided by b^2.


def test_second_derivative_quadratic_exact():
    d = np.linspace(0.02, 0.9, 25)
    s = 1.0 + d + 4.0 * d * d
    w = sided_weights(d, 0.0, 0.9, "right", TRIANGLE)
    basis = scaled_basis(d, 0.0, 0.9, 2)
    curvature = 2.0 * local_poly_fit(s, w, basis).coef_scaled[2] / 0.9**2
    assert_allclose(curvature, 8.0, rtol=1e-8)


def test_second_derivative_linear_is_zero():
    d = np.linspace(0.02, 0.9, 25)
    s = 2.0 - 3.0 * d
    w = sided_weights(d, 0.0, 0.9, "right", TRIANGLE)
    basis = scaled_basis(d, 0.0, 0.9, 2)
    assert abs(2.0 * local_poly_fit(s, w, basis).coef_scaled[2] / 0.9**2) < 1e-10


def test_second_derivative_cubic_oracle():
    # Even right-side grid 0.1..1.0, window kernel, h=1: the quadratic fit to
    # d^3 solved exactly by hand gives coefficients (429/5000, -761/1000,
    # 33/20), hence a second derivative of exactly 33/10.
    d = np.arange(1, 11) / 10.0
    s = d**3
    w = sided_weights(d, 0.0, 1.0, "right", WINDOW)
    basis = scaled_basis(d, 0.0, 1.0, 2)
    assert_allclose(2.0 * local_poly_fit(s, w, basis).coef_scaled[2], 3.3, rtol=1e-12)


# ------------------------------------------------------- bias correction


def _dense_sample(rng, n=400, jump=0.9):
    d = rng.uniform(-1.0, 1.0, n)
    factors = rng.standard_normal(n)
    W = (factors + 0.3 * rng.standard_normal(n))[:, None]
    Z = (factors + 0.3 * rng.standard_normal(n))[:, None]
    y = jump * (d >= 0.0) + 0.4 * d + factors + 0.4 * rng.standard_normal(n)
    return Sample(d=d, y=y, W=W, Z=Z)


def _rows_of(corr, d, cutoff, h, b, kernel, side):
    """A correction's weight row and matrix row, formed whole from its two
    maps' coefficients on the side's own design rows at ``h`` and at ``b``.
    """
    from pdd.inference import _row_form
    from pdd.local_fit import _design_rows

    w_h, w_b = (sided_weights(d, cutoff, x, side, kernel).weights for x in (h, b))
    k1 = _design_rows(w_h, scaled_basis(d, cutoff, h, 1).u, 1)
    k2 = _design_rows(w_b, scaled_basis(d, cutoff, b, 2).u, 2)
    return _row_form(corr.weight_map, k1, k2), _row_form(corr.matrix_map, k1, k2)


def test_quadratic_exactness_of_bias_correction(rng):
    # Noiseless outcome with quadratic conditional mean on each side: the
    # curvature estimate is exact so the corrected jump equals the truth.
    n = 200
    d = rng.uniform(-1.0, 1.0, n)
    y = 2.0 * (d >= 0.0) + d + 1.5 * d * d
    factors = rng.standard_normal(n)
    W = (factors + 0.2 * rng.standard_normal(n))[:, None]
    Z = (factors + 0.2 * rng.standard_normal(n))[:, None]
    sample = Sample(d=d, y=y, W=W - W.mean(), Z=Z)
    est = bias_corrected_estimate(sample, 0.0, 0.5, 0.8, TRIANGLE)
    # placebo columns are noise; strip their contribution via the y-only path
    rdd = rdd_robust_estimate(d, y, 0.0, 0.5, 0.8, TRIANGLE)
    assert_allclose(rdd.tau_pdd_bc, 2.0, rtol=1e-8)
    uncorrected_bias = rdd.tau_pdd - 2.0
    assert abs(rdd.tau_pdd_bc - 2.0) < abs(uncorrected_bias) + 1e-12


def test_linear_means_leave_estimate_unchanged(rng):
    n = 300
    d = rng.uniform(-1.0, 1.0, n)
    y = 1.2 * (d >= 0.0) + 0.7 * d
    rdd = rdd_robust_estimate(d, y, 0.0, 0.6, 0.6, TRIANGLE)
    assert_allclose(rdd.tau_pdd_bc, rdd.tau_pdd, atol=1e-10)
    assert_allclose(rdd.tau_pdd_bc, 1.2, rtol=1e-10)


def test_side_correction_components(rng):
    sample = _dense_sample(rng)
    S = np.column_stack([sample.y, sample.W])
    corr = side_correction(sample.d, S, 0.0, 0.5, 0.7, TRIANGLE, "right")
    weight_row, matrix_row = _rows_of(corr, sample.d, 0.0, 0.5, 0.7, TRIANGLE, "right")
    # the weight row reproduces the componentwise numbers
    assert_allclose(weight_row @ S, corr.intercepts_bc, rtol=1e-9)
    assert_allclose(corr.intercepts - corr.bias, corr.intercepts_bc, rtol=1e-12)
    # the literal matrix row is the weight row, built along another path
    assert_allclose(matrix_row, weight_row, rtol=1e-9, atol=1e-12)
    # the correction's second pass, forming the rows a window at a time,
    # sums what the whole rows give: the stacked form and the variance terms
    assert_allclose(corr.stacked, matrix_row @ S, rtol=1e-12)
    residuals = (S - corr.intercepts_bc) * weight_row[:, None]
    assert_allclose(corr.squares, np.sum(residuals**2, axis=0), rtol=1e-12)


def test_weight_row_structure_at_equal_bandwidths(rng, monkeypatch):
    # With b = h the corrected weights are the plain intercept weights minus
    # the curvature load times the quadratic-coefficient weights; dropping the
    # curvature term recovers the uncorrected estimator exactly.
    read = []  # the coordinates each of the correction's passes reads
    fits = pdd.inference._fits

    def recorded(coordinates, rows):
        read.append(coordinates)
        return fits(coordinates, rows)

    monkeypatch.setattr(pdd.inference, "_fits", recorded)
    sample = _dense_sample(rng)
    S = np.column_stack([sample.y, sample.W])
    corr = side_correction(sample.d, S, 0.0, 0.6, 0.6, TRIANGLE, "right")
    w = sided_weights(sample.d, 0.0, 0.6, "right", TRIANGLE)

    def coefficient_row(degree, k):
        # weights mapping any outcome column to coefficient k of the local fit
        basis = scaled_basis(sample.d, 0.0, 0.6, degree)
        return np.array([local_poly_fit(e, w, basis).coef_scaled[k] for e in np.eye(sample.n)])

    linear_row = coefficient_row(1, 0)
    rebuilt = linear_row - corr.curvature_load * coefficient_row(2, 2)
    weight_row, _ = _rows_of(corr, sample.d, 0.0, 0.6, 0.6, TRIANGLE, "right")
    assert_allclose(weight_row, rebuilt, rtol=1e-12, atol=1e-15)
    assert_allclose(linear_row @ S, corr.intercepts, rtol=1e-10)
    # both fits read one pair of coordinates and weights, those at b
    assert read and all(len(x) == 2 for x in read)
    assert_allclose(read[0][1], w.weights, rtol=0.0)


def test_correction_reduces_bias_on_simulated_scenario():
    # Monte Carlo check: the corrected estimate is closer to the truth on
    # average than the uncorrected one under the curved, manipulated scenario.
    # Fewer replications leave both biases inside MC noise of zero, where the
    # ordering is arbitrary, so this runs the full 500.
    from pdd import DgpSpec, monte_carlo

    spec = DgpSpec(n=5000, seed=0, kappa=4.0)
    report = monte_carlo(spec, reps=500, base_seed=2000)
    assert abs(report.bias_bc) < abs(report.bias)


def test_bias_corrected_equals_componentwise_combination(rng):
    sample = _dense_sample(rng)
    est = bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE)
    S = np.column_stack([sample.y, sample.W])
    plus = side_correction(sample.d, S, 0.0, 0.5, 0.7, TRIANGLE, "right")
    minus = side_correction(sample.d, S, 0.0, 0.5, 0.7, TRIANGLE, "left")
    combo = np.concatenate([[1.0], -est.point.gamma_minus])
    assert_allclose(
        est.tau_pdd_bc, float(combo @ (plus.intercepts_bc - minus.intercepts_bc)), rtol=1e-12
    )
    assert_allclose(est.tau_pdd, est.point.tau_pdd, rtol=1e-12)
    assert est.n_left + est.n_right <= sample.n


# --------------------------------------------------------------- variance


def brute_force_variance(d, S, cutoff, h, b, kernel, combo):
    """Literal stacked quadratic form, built from scratch with dense kron."""
    d = np.asarray(d, dtype=float)
    n, width = S.shape

    def side_matrices(side):
        on = d >= cutoff if side == "right" else d < cutoff
        w_h = np.where(on, kernel_value(kernel, np.abs(d - cutoff) / h) / h, 0.0)
        w_b = np.where(on, kernel_value(kernel, np.abs(d - cutoff) / b) / b, 0.0)
        r1 = np.column_stack([np.ones(n), (d - cutoff) / h])
        r2 = np.column_stack(
            [np.ones(n), (d - cutoff) / b, ((d - cutoff) / b) ** 2]
        )
        gamma1 = r1.T @ np.diag(w_h) @ r1 / (n * h)
        gamma2 = r2.T @ np.diag(w_b) @ r2 / (n * b)
        lam = r1.T @ np.diag(w_h) @ ((d - cutoff) ** 2 / h**2) / (n * h)
        e2 = np.array([0.0, 0.0, 1.0])
        p = np.linalg.inv(gamma1) @ r1.T @ np.diag(w_h) - (h / b) ** 3 * np.outer(
            np.linalg.inv(gamma1) @ lam, e2 @ np.linalg.inv(gamma2) @ r2.T @ np.diag(w_b)
        )
        return p, w_h

    total = 0.0
    svec = np.zeros(2 * width)
    svec[0::2] = combo
    for side in ("right", "left"):
        p, w_h = side_matrices(side)
        # bias-corrected cutoff intercepts for the residuals
        bc = np.array([(p @ S[:, j])[0] / (n * h) for j in range(width)])
        resid = S - bc[None, :]
        sigma = np.diag((resid**2).reshape(-1, order="F"))
        ip = np.kron(np.eye(width), p)
        total += float(svec @ ip @ sigma @ ip.T @ svec) / (n * h)
    return total


def test_variance_brute_force_oracle(rng):
    for q in (1, 2, 3):
        sample = random_dataset(rng, n=20, q=q)
        h, b = 0.8, 1.0
        S = np.column_stack([sample.y, sample.W])
        combo = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, q)])
        plus = side_correction(sample.d, S, 0.0, h, b, TRIANGLE, "right")
        minus = side_correction(sample.d, S, 0.0, h, b, TRIANGLE, "left")
        fast = robust_variance(S, S, plus, minus, combo, len(S))
        brute = brute_force_variance(sample.d, S, 0.0, h, b, TRIANGLE, combo)
        assert_allclose(fast, brute, rtol=1e-10)


def test_variance_zero_for_constant_outcomes():
    d = np.linspace(-1.0, 1.0, 60)
    S = np.full((60, 2), 3.0)
    plus = side_correction(d, S, 0.0, 0.7, 0.7, TRIANGLE, "right")
    minus = side_correction(d, S, 0.0, 0.7, 0.7, TRIANGLE, "left")
    v = robust_variance(S, S, plus, minus, np.array([1.0, -0.5]), len(S))
    assert_allclose(v, 0.0, atol=1e-20)


def test_robust_variance_refuses_rows_other_than_its_corrections(rng):
    # the squared residuals are those each correction summed from its own
    # rows, so outcome rows of another count are refused, not cut to n
    sample = random_dataset(rng, n=200, q=1)
    S = np.column_stack([sample.y, sample.W])
    plus = side_correction(sample.d, S, 0.0, 0.8, 1.0, TRIANGLE, "right")
    minus = side_correction(sample.d, S, 0.0, 0.8, 1.0, TRIANGLE, "left")
    combo = np.array([1.0, -0.5])
    v = robust_variance(S, S, plus, minus, combo, len(S))
    assert v == len(S) * 0.8 * sum(np.vecdot(combo**2, x.squares) for x in (plus, minus))
    longer = np.vstack([S, S[:50]])
    for S_plus, S_minus in ((longer, S), (S, longer), (S, S[:150])):
        with pytest.raises(ValueError, match="^(250|150) outcome rows for a correction of 200 "):
            robust_variance(S_plus, S_minus, plus, minus, combo, len(S))


def test_degenerate_interval_flagged():
    d = np.linspace(-1.0, 1.0, 60)
    y = np.zeros(60)
    est = rdd_robust_estimate(d, y, 0.0, 0.7, 0.7, TRIANGLE)
    assert est.degenerate_ci
    assert est.se == 0.0
    assert est.ci_lower == est.ci_upper == est.tau_pdd_bc


def test_variance_permutation_invariance(rng):
    sample = _dense_sample(rng, n=150)
    est = bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE)
    perm = rng.permutation(sample.n)
    shuffled = Sample(
        d=sample.d[perm], y=sample.y[perm], W=sample.W[perm], Z=sample.Z[perm]
    )
    est2 = bias_corrected_estimate(shuffled, 0.0, 0.5, 0.7, TRIANGLE)
    assert_allclose(est2.v_bc, est.v_bc, rtol=1e-9)
    assert_allclose(est2.tau_pdd_bc, est.tau_pdd_bc, rtol=1e-9)


def test_affine_outcome_transform_scales_se(rng):
    sample = _dense_sample(rng, n=200)
    est = bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE)
    a, c = -3.0, 2.0
    shifted = Sample(d=sample.d, y=a * sample.y + c, W=sample.W, Z=sample.Z)
    est2 = bias_corrected_estimate(shifted, 0.0, 0.5, 0.7, TRIANGLE)
    assert_allclose(est2.tau_pdd_bc, a * est.tau_pdd_bc, rtol=1e-7)
    assert_allclose(est2.se, abs(a) * est.se, rtol=1e-7)
    lo, hi = est.ci_lower, est.ci_upper
    assert_allclose(sorted((a * lo + 0.0, a * hi + 0.0)), [est2.ci_lower, est2.ci_upper], rtol=1e-6)


def test_rdd_variance_matches_single_column_stack(rng):
    # The no-placebo path is the q = 0 degenerate case of the general form.
    n = 150
    d = rng.uniform(-1.0, 1.0, n)
    y = 0.8 * (d >= 0.0) + d + 0.5 * rng.standard_normal(n)
    est = rdd_robust_estimate(d, y, 0.0, 0.6, 0.8, TRIANGLE)
    S = y[:, None]
    plus = side_correction(d, S, 0.0, 0.6, 0.8, TRIANGLE, "right")
    minus = side_correction(d, S, 0.0, 0.6, 0.8, TRIANGLE, "left")
    v = robust_variance(S, S, plus, minus, np.array([1.0]), len(S))
    assert_allclose(est.v_bc, v, rtol=1e-12)


def test_confidence_interval_reference(rng):
    sample = _dense_sample(rng)
    est = bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE, alpha=0.05)
    assert_allclose(est.ci_upper - est.tau_pdd_bc, 1.959964 * est.se, rtol=5e-7)
    assert_allclose(est.tau_pdd_bc - est.ci_lower, 1.959964 * est.se, rtol=5e-7)
    # both entry points reject a level outside (0, 1) instead of inverting
    # the interval
    for alpha in (0.0, 1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError, match="alpha"):
            bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE, alpha=alpha)
        with pytest.raises(ValueError, match="alpha"):
            rdd_robust_estimate(sample.d, sample.y, 0.0, 0.5, 0.7, TRIANGLE, alpha=alpha)


def test_bias_bandwidth_below_a_tenth_of_h_is_rejected(rng):
    sample = _dense_sample(rng)
    spec = DgpSpec(n=2000, seed=1, kappa=4.0)
    for call in (
        lambda b, h=0.5, alpha=0.05: bias_corrected_estimate(sample, 0.0, h, b, TRIANGLE, alpha),
        lambda b, h=0.5, alpha=0.05: rdd_robust_estimate(
            sample.d, sample.y, 0.0, h, b, TRIANGLE, alpha
        ),
        lambda b, h=0.5, alpha=0.05: monte_carlo(spec, 2, 1, TRIANGLE, h, b, alpha),
    ):
        with pytest.raises(ValueError, match="h/10"):
            call(0.049)
        # an infinite bandwidth, and a level whose 1 - alpha/2 rounds to 1
        with pytest.raises(ValueError, match="finite"):
            call(math.inf)
        with pytest.raises(ValueError, match="finite"):
            call(math.inf, h=math.inf)
        with pytest.raises(ValueError, match="alpha"):
            call(0.5, alpha=1e-17)
        call(0.05)
    # with h from the rule of thumb, as in every rep of a default study
    with pytest.raises(ValueError, match="h/10"):
        monte_carlo(DgpSpec(n=2000, seed=1, kappa=4.0), 2, 1, b=0.02)


def test_fuzzy_monte_carlo_checks_alpha_and_bias_bandwidth_before_any_fit(monkeypatch, workers):
    workers(1)  # every fit would be made in this process, where it is patched
    spec = DgpSpec(n=2000, seed=1, kappa=4.0, design="fuzzy_homogeneous")

    def no_fit(*args):
        raise AssertionError("a fit ran before the check")

    with monkeypatch.context() as patch:
        patch.setattr(sys.modules["pdd.simulate"], "fit_block", no_fit)
        with pytest.raises(ValueError, match="alpha"):
            monte_carlo(spec, 3, 1, alpha=1.5)
        with pytest.raises(ValueError, match="h/10"):
            monte_carlo(spec, 3, 1, h=0.5, b=0.02)
        with pytest.raises(ValueError, match="h/10"):
            monte_carlo(spec, 3, 1, b=0.02)  # h from the rule of thumb
    assert monte_carlo(spec, 2, 1, h=0.5, b=0.05).n_failed == 0


# --------------------------------------------------- locality of the fits

CUTOFF = 0.3
BANDWIDTH_PAIRS = ((0.4, 0.6), (0.5, 0.5), (0.6, 0.4))


def _local_sample(rng, cutoff=CUTOFF):
    sample = _dense_sample(rng)
    return Sample(d=sample.d + cutoff, y=sample.y, W=sample.W, Z=sample.Z)


def _with_rows(sample, d, value):
    extra = np.full(d.shape[0], float(value))
    return Sample(
        d=np.concatenate([sample.d, d]),
        y=np.concatenate([sample.y, extra]),
        W=np.concatenate([sample.W, extra[:, None]]),
        Z=np.concatenate([sample.Z, extra[:, None]]),
    )


def _far_rows(rng, reach, n=50):
    dist = rng.uniform(1.01 * reach, 3.0 * reach, n)
    return CUTOFF + np.where(np.arange(n) % 2 == 0, dist, -dist)


@pytest.mark.parametrize("kind", ["window", "triangle"])
@pytest.mark.parametrize("h,b", BANDWIDTH_PAIRS)
def test_rows_beyond_the_window_change_nothing(rng, kind, h, b):
    kernel = KernelSpec(kind)
    sample = _local_sample(rng)
    far = _with_rows(sample, _far_rows(rng, max(h, b)), 1e6)
    base = bias_corrected_estimate(sample, CUTOFF, h, b, kernel)
    wide = bias_corrected_estimate(far, CUTOFF, h, b, kernel)
    for name in ("tau_pdd", "tau_pdd_bc", "se"):
        assert_allclose(getattr(wide, name), getattr(base, name), rtol=1e-12, err_msg=name)
    assert (wide.n_left, wide.n_right) == (base.n_left, base.n_right)
    assert (base.n, wide.n) == (sample.n, far.n)
    assert_allclose(wide.v_bc, base.v_bc * far.n / sample.n, rtol=1e-12)

    rdd_base = rdd_robust_estimate(sample.d, sample.y, CUTOFF, h, b, kernel)
    rdd_wide = rdd_robust_estimate(far.d, far.y, CUTOFF, h, b, kernel)
    for name in ("tau_pdd", "tau_pdd_bc", "se"):
        assert_allclose(getattr(rdd_wide, name), getattr(rdd_base, name), rtol=1e-12)
    assert (rdd_wide.n_left, rdd_wide.n_right) == (rdd_base.n_left, rdd_base.n_right)
    assert rdd_wide.n == far.n
    assert_allclose(rdd_wide.v_bc, rdd_base.v_bc * far.n / sample.n, rtol=1e-12)


@pytest.mark.parametrize("h,b", ((0.5, 0.75), (0.75, 0.5)))
def test_rows_on_the_window_edge_are_kept(rng, h, b):
    # cutoff, h and b are dyadic, so |d - c| / h == 1 holds exactly on the
    # edge rows and the window kernel gives them full weight
    cutoff = 0.25
    sample = _local_sample(rng, cutoff)
    base = bias_corrected_estimate(sample, cutoff, h, b, WINDOW)
    for edge in (h, b):
        edged = _with_rows(sample, np.array([cutoff - edge, cutoff + edge]), 5.0)
        est = bias_corrected_estimate(edged, cutoff, h, b, WINDOW)
        assert abs(est.tau_pdd_bc - base.tau_pdd_bc) > 1e-6
        if edge == h:
            assert abs(est.tau_pdd - base.tau_pdd) > 1e-6
            assert (est.n_left, est.n_right) == (base.n_left + 1, base.n_right + 1)
        rdd = rdd_robust_estimate(edged.d, edged.y, cutoff, h, b, WINDOW)
        rdd_base = rdd_robust_estimate(sample.d, sample.y, cutoff, h, b, WINDOW)
        assert abs(rdd.tau_pdd_bc - rdd_base.tau_pdd_bc) > 1e-6


def test_gaussian_kernel_keeps_every_row(rng):
    gaussian = KernelSpec("gaussian")
    h, b = 0.4, 0.6
    sample = _local_sample(rng)
    far = _with_rows(sample, _far_rows(rng, max(h, b)), 10.0)
    base = bias_corrected_estimate(sample, CUTOFF, h, b, gaussian)
    wide = bias_corrected_estimate(far, CUTOFF, h, b, gaussian)
    assert abs(wide.tau_pdd - base.tau_pdd) > 1e-6
    assert abs(wide.tau_pdd_bc - base.tau_pdd_bc) > 1e-6
    assert wide.n_left + wide.n_right == far.n
    rdd_base = rdd_robust_estimate(sample.d, sample.y, CUTOFF, h, b, gaussian)
    rdd_wide = rdd_robust_estimate(far.d, far.y, CUTOFF, h, b, gaussian)
    assert abs(rdd_wide.tau_pdd_bc - rdd_base.tau_pdd_bc) > 1e-6


# ------------------------------------------ one pass per side of the cutoff

KINDS = ("window", "triangle", "gaussian")


def _partition_rows(rng, reach, cutoff=CUTOFF):
    """Rows in the support, at the cutoff, beyond ``reach``, and on the last
    floating-point value either side of ``cutoff +- reach`` that the compact
    kernels' test ``|d - cutoff| / reach <= 1`` keeps, with the first value
    past it that the test drops; returns ``d`` and the mask of kept rows."""
    inner = cutoff + rng.uniform(-reach, reach, 40)
    edges, past = [], []
    for sign in (-1.0, 1.0):
        edge = cutoff + sign * reach
        while abs(edge - cutoff) / reach > 1.0:
            edge = np.nextafter(edge, cutoff)
        while abs(np.nextafter(edge, sign * np.inf) - cutoff) / reach <= 1.0:
            edge = np.nextafter(edge, sign * np.inf)
        edges.append(edge)
        past.append(np.nextafter(edge, sign * np.inf))
    far = _far_rows(rng, reach, 10)
    d = np.concatenate([inner, [cutoff, cutoff], edges, past, far])
    kept = np.arange(d.size) < inner.size + 4
    order = rng.permutation(d.size)
    return d[order], kept[order]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("h,b", BANDWIDTH_PAIRS)
def test_support_rows_put_the_left_side_first_in_order(rng, kind, h, b):
    kernel = KernelSpec(kind)
    d, kept = _partition_rows(rng, max(h, b))
    rows, k = _cut_rows(d, CUTOFF, max(h, b), kernel)  # d is shuffled: never the identity
    keep = np.ones(d.size, bool) if kind == "gaussian" else kept
    left = np.flatnonzero(keep & (d < CUTOFF))
    right = np.flatnonzero(keep & (d >= CUTOFF))
    assert k == left.size
    np.testing.assert_array_equal(rows[:k], left)
    np.testing.assert_array_equal(rows[k:], right)
    # rows exactly at the cutoff are on the right; ``kept`` holds the last
    # value on each edge, and the first value past it is dropped
    assert np.count_nonzero(d[rows[k:]] == CUTOFF) == 2


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("h,b", BANDWIDTH_PAIRS)
def test_cut_skips_the_copy_only_for_a_sample_already_partitioned(rng, kind, h, b):
    kernel = KernelSpec(kind)
    sample = _local_sample(rng)
    cut, k, S = _cut(sample, CUTOFF, max(h, b), kernel)
    assert cut is not sample and S is not None
    again, k_again, S_again = _cut(cut, CUTOFF, max(h, b), kernel)
    assert again is cut and k_again == k and S_again is None
    inner, _, S_inner = _cut(cut, CUTOFF, min(h, b), kernel)
    assert (inner is cut) == (kind == "gaussian" or h == b) == (S_inner is None)


ROBUST_FIELDS = (
    "tau_pdd", "tau_pdd_bc", "v_bc", "se", "ci_lower", "ci_upper", "n_left", "n_right"
)  # fmt: skip


def _every_output(sample, kernel, h, b):
    """The outputs of the three entry points on ``sample``, by name."""
    est = bias_corrected_estimate(sample, CUTOFF, h, b, kernel)
    out = {name: getattr(est, name) for name in ROBUST_FIELDS}
    out["gamma_minus"] = est.point.gamma_minus[0]
    rdd = rdd_robust_estimate(sample.d, sample.y, CUTOFF, h, b, kernel)
    out.update({f"rdd {name}": getattr(rdd, name) for name in ROBUST_FIELDS})
    fuzzy = estimate_fuzzy(sample, CUTOFF, h, kernel)
    for name in ("fuzzy_estimate", "tau_rdd_a", "tau_pdd", "n_left", "n_right"):
        out[f"fuzzy {name}"] = getattr(fuzzy, name)
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("h,b", BANDWIDTH_PAIRS)
def test_shuffling_the_rows_moves_no_output(rng, kind, h, b):
    kernel = KernelSpec(kind)
    sample = _local_sample(rng)
    d, _ = _partition_rows(rng, max(h, b))
    sample = _with_rows(sample, d, 0.5)
    a = rng.random(sample.n) < 0.2 + 0.6 * (sample.d >= CUTOFF)
    sample = replace(sample, a=a.astype(float))
    base = _every_output(sample, kernel, h, b)
    order = rng.permutation(sample.n)
    shuffled = replace(sample, **{name: getattr(sample, name)[order] for name in "dyWZa"})
    shuffled = _every_output(shuffled, kernel, h, b)
    for name, value in base.items():
        gap = abs(shuffled[name] - value) / max(abs(value), 1e-300)
        assert gap <= 1e-12, (name, value, shuffled[name])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("h,b", BANDWIDTH_PAIRS)
def test_side_correction_on_one_side_equals_the_full_sample_call(rng, kind, h, b):
    kernel = KernelSpec(kind)
    sample = _local_sample(rng)
    d, _ = _partition_rows(rng, max(h, b))
    sample = _with_rows(sample, d, 0.5)
    S = np.column_stack([sample.y, sample.W])
    for side, on_side in (("left", sample.d < CUTOFF), ("right", sample.d >= CUTOFF)):
        full = side_correction(sample.d, S, CUTOFF, h, b, kernel, side)
        own = side_correction(sample.d[on_side], S[on_side], CUTOFF, h, b, kernel, side)
        full_row = _rows_of(full, sample.d, CUTOFF, h, b, kernel, side)[0]
        own_row = _rows_of(own, sample.d[on_side], CUTOFF, h, b, kernel, side)[0]
        assert np.all(full_row[~on_side] == 0.0)
        scale = np.abs(own_row).max()
        assert_allclose(own_row, full_row[on_side], rtol=1e-12, atol=1e-12 * scale)
        assert_allclose(own.intercepts_bc, full.intercepts_bc, rtol=1e-12)
        assert own.n_effective == full.n_effective


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("h,b", BANDWIDTH_PAIRS)
def test_a_sample_without_placebo_columns_gives_the_plain_jump(rng, kind, h, b):
    kernel = KernelSpec(kind)
    sample = _local_sample(rng)
    none = np.empty((sample.n, 0))
    plain = Sample(d=sample.d, y=sample.y, W=none, Z=none)
    est = bias_corrected_estimate(plain, CUTOFF, h, b, kernel)
    assert est.point is None
    jump = local_linear_jump(sample.y, sample.d, CUTOFF, h, kind)
    assert_allclose(est.tau_pdd, jump, rtol=1e-12)
    with pytest.raises(ValueError, match="placebo"):
        estimate_sharp(plain, CUTOFF, h, kernel)


@pytest.mark.parametrize("h", [0.15, 0.1, 0.7])
def test_window_kish_size_is_the_count_exactly(rng, h):
    # so a window side of exactly 30 rows draws no small-side warning
    for n_left in (3, 29, 30, 31, 97):
        d = np.concatenate([-rng.uniform(0.0, 0.9 * h, n_left), rng.uniform(0.0, 0.9 * h, 40)])
        est = rdd_robust_estimate(d, rng.standard_normal(d.size), 0.0, h, h, WINDOW)
        assert (est.kish_left, est.kish_right) == (n_left, 40) == (est.n_left, est.n_right)


def test_empty_or_thin_window_is_singular_support(rng, tmp_path, capsys):
    sample = _local_sample(rng)
    a = (sample.d >= CUTOFF).astype(float)
    fuzzy = Sample(d=sample.d, y=sample.y, W=sample.W, Z=sample.Z, a=a)
    # a window holding one row on each side is as singular as an empty one
    thin = _with_rows(sample, np.array([CUTOFF - 1e-7, CUTOFF + 1e-7]), 1.0)
    for data, h in ((sample, 1e-9), (thin, 2e-7)):
        for kind in ("window", "triangle"):
            kernel = KernelSpec(kind)
            calls = (
                lambda: bias_corrected_estimate(data, CUTOFF, h, h, kernel),
                lambda: rdd_robust_estimate(data.d, data.y, CUTOFF, h, h, kernel),
                lambda: estimate_sharp(data, CUTOFF, h, kernel),
                lambda: estimate_fuzzy(fuzzy, CUTOFF, h, kernel),
            )
            for call in calls:
                with pytest.raises(SingularSupport):
                    call()

    path = tmp_path / "sample.csv"
    with path.open("w", newline="") as fh:
        write_csv(fuzzy, fh)
    common = ["--data", str(path), "--cutoff", str(CUTOFF), "--bandwidth", "1e-9"]
    placebo = ["--placebo-outcomes", "w1", "--placebo-treatments", "z1"]
    for argv in (
        ["estimate", *common, *placebo],
        ["estimate", *common, *placebo, "--design", "fuzzy"],
        ["rdd", *common],
    ):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert json.loads(capsys.readouterr().out)["error"] == "singular_support"


# ---------------------------------------------------- equivalence checks


def test_both_equivalence_checks_raise_on_a_perturbed_path(rng, monkeypatch):
    sample = _dense_sample(rng)
    bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE)

    real_iv = pdd.estimator.local_iv_fit

    def shifted_iv(*args):
        fit = real_iv(*args)
        return replace(fit, alpha0=fit.alpha0 + 1e-6) if fit.side == "right" else fit

    with monkeypatch.context() as patch:
        patch.setattr(pdd.estimator, "local_iv_fit", shifted_iv)
        with pytest.raises(EquivalenceBreach, match="instrumented form"):
            bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE)

    real_matrix = pdd.inference.correction_matrix

    def scaled_matrix(*args):
        return real_matrix(*args) * (1.0 + 1e-6)

    with monkeypatch.context() as patch:
        patch.setattr(pdd.inference, "correction_matrix", scaled_matrix)
        with pytest.raises(EquivalenceBreach, match="stacked matrix"):
            bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE)
        with pytest.raises(EquivalenceBreach, match="stacked matrix"):
            rdd_robust_estimate(sample.d, sample.y, 0.0, 0.5, 0.7, TRIANGLE)


def test_both_equivalence_checks_fail_closed_on_nan(rng, monkeypatch):
    # NaN fails every comparison, so a gap test written as "gap > tol" would
    # let a path that returns NaN through
    sample = _dense_sample(rng)
    real_iv = pdd.estimator.local_iv_fit

    def nan_iv(*args):
        fit = real_iv(*args)
        return replace(fit, alpha0=math.nan) if fit.side == "right" else fit

    with monkeypatch.context() as patch:
        patch.setattr(pdd.estimator, "local_iv_fit", nan_iv)
        with pytest.raises(EquivalenceBreach, match="instrumented form nan"):
            estimate_sharp(sample, 0.0, 0.5, TRIANGLE)

    real_matrix = pdd.inference.correction_matrix

    def nan_matrix(*args):
        return real_matrix(*args) * math.nan

    with monkeypatch.context() as patch:
        patch.setattr(pdd.inference, "correction_matrix", nan_matrix)
        with pytest.raises(EquivalenceBreach, match="stacked matrix form nan"):
            bias_corrected_estimate(sample, 0.0, 0.5, 0.7, TRIANGLE)
        with pytest.raises(EquivalenceBreach, match="stacked matrix form nan"):
            rdd_robust_estimate(sample.d, sample.y, 0.0, 0.5, 0.7, TRIANGLE)


def test_variance_overflow_is_a_non_finite_result(rng):
    sample = _dense_sample(rng)
    # 1e160 keeps the estimates finite, but squared residuals overflow
    big = replace(sample, y=sample.y * 1e160)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteResult, match="variance"):
            bias_corrected_estimate(big, 0.0, 0.5, 0.7, TRIANGLE)
        with pytest.raises(NonFiniteResult, match="variance"):
            rdd_robust_estimate(big.d, big.y, 0.0, 0.5, 0.7, TRIANGLE)


# ------------------------------------------------------- moment accuracy


def _long_double_jump(d, y, h, kind):
    """Local linear jump of ``y`` at cutoff 0 from the normal equations,
    with the weights and scaled coordinate formed in float64 as the fit forms
    them and every moment summed and solved in long double.
    """
    ld = np.longdouble
    intercepts = []
    for on_side in (d >= 0.0, d < 0.0):
        u = np.abs(d[on_side]) / h
        w = ((u <= 1.0) if kind == "window" else np.where(u <= 1.0, 1.0 - u, 0.0)) / h
        x = (d[on_side] / h).astype(ld)
        w, s = w.astype(ld), y[on_side].astype(ld)
        m0, m1, m2 = np.sum(w), np.sum(w * x), np.sum(w * x * x)
        r0, r1 = np.sum(w * s), np.sum(w * x * s)
        intercepts.append((m2 * r0 - m1 * r1) / (m0 * m2 - m1 * m1))
    return intercepts[0] - intercepts[1]


NARROW_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than float64 here"
)


@pytest.fixture(scope="module")
def million_rows():
    return pdd.simulate(DgpSpec(n=1_000_000, seed=7, kappa=4))


@NARROW_LONG_DOUBLE
def test_million_row_window_gram_matches_a_long_double_sum(million_rows):
    # every row of a side carries the same window weight, where a BLAS
    # product once left a 5e-13 relative error in the Gram matrix
    from pdd.local_fit import _weighted_design

    d = million_rows.d
    h = 1.01 * float(np.abs(d).max())
    for side, on_side in (("left", d < 0.0), ("right", d >= 0.0)):
        weights = sided_weights(d[on_side], 0.0, h, side, WINDOW)
        basis = scaled_basis(d[on_side], 0.0, h, 2)
        gram = _weighted_design(weights, basis)[0]
        w, u = weights.weights.astype(np.longdouble), basis.rows[:, 1].astype(np.longdouble)
        powers = [np.sum(w * u**k) for k in range(5)]
        reference = np.array([[powers[i + j] for j in range(3)] for i in range(3)])
        assert np.all(np.abs(gram - reference) <= 1e-15 * np.abs(reference)), side


@NARROW_LONG_DOUBLE
@pytest.mark.parametrize("kind", ["window", "triangle"])
def test_million_row_jump_matches_a_long_double_reference(million_rows, kind):
    sample = million_rows
    h = rule_of_thumb_bandwidth(sample.d)
    est = bias_corrected_estimate(sample, 0.0, h, h, KernelSpec(kind))
    reference = _long_double_jump(sample.d, sample.y, h, kind)
    assert abs(est.point.tau_rdd_y - reference) <= 1e-12 * abs(reference)


# ------------------------------------------- what a fit holds in memory

GAUSSIAN = KernelSpec("gaussian")


def _full_length_sums(table):
    """The row sums of a full-length table ``(p, m)``, taken ``CHUNK_ROWS``
    rows at a time and the chunks' sums pairwise.
    """
    from pdd.local_fit import CHUNK_ROWS

    chunks = range(0, table.shape[1], CHUNK_ROWS)
    parts = [np.add.reduceat(table[:, i : i + CHUNK_ROWS], [0], axis=-1) for i in chunks]
    return np.add.reduce(np.stack(parts, axis=-1), axis=-1)[:, 0]


def test_chunk_formed_moments_equal_the_full_length_formula(rng):
    # the one moment pass, its tables formed a window of rows at a time,
    # sums what the full-length tables give, and a row map formed a window
    # at a time is the full-length row
    from functools import partial

    from pdd.inference import _fits, _moments, _row_form
    from pdd.local_fit import CHUNK_ROWS, _weighted_design

    m = 3 * CHUNK_ROWS + 1234
    d = rng.uniform(0.0, 2.0, m)
    S = rng.standard_normal((3, m))
    coordinates, full = [], []
    for degree, h in ((1, 0.5), (2, 0.8)):
        weights = sided_weights(d, 0.0, h, "right", GAUSSIAN)
        basis = scaled_basis(d, 0.0, h, degree)
        w, u = weights.weights, basis.u
        krows = np.empty((degree + 1, m))  # the design rows K u^k of every row
        krows[0] = w
        for k in range(degree):
            krows[k + 1] = krows[k] * u
        top = krows[degree] * u
        powers = _full_length_sums(np.vstack([krows, top, top * u]))
        assert np.array_equal(_weighted_design(weights, basis)[1], powers)
        rks = _full_length_sums((krows[:, None] * S[None]).reshape(-1, m))
        coordinates += [u, w]
        full.append((krows, powers, rks.reshape(degree + 1, 3)))
    (k1, powers1, rks1), (k2, powers2, rks2) = full
    mu, mv, RKS, GS = (x[0] for x in _moments(partial(_fits, coordinates), S, None, m, [0])[:4])
    assert np.array_equal(mu, powers1) and np.array_equal(mv, powers2)
    assert np.array_equal(RKS, rks1) and np.array_equal(GS, rks2)
    for c in rng.standard_normal(5), rng.standard_normal((5, m)):
        expected = c[0] * k1[0] + c[1] * k1[1] - (c[2] * k2[0] + c[3] * k2[1] + c[4] * k2[2])
        assert np.array_equal(_row_form(c, k1, k2), expected)
        windows = [slice(i, i + 4096) for i in range(0, m, 4096)]
        pieces = [
            _row_form(c[:, rows] if c.ndim == 2 else c, k1[:, rows], k2[:, rows]) for rows in windows
        ]
        assert np.array_equal(np.concatenate(pieces), expected)


@pytest.mark.parametrize("engine_rows", [1, 1 << 62], ids=["engine", "per-fit"])
@pytest.mark.parametrize(
    "kind, bound, ratio",
    [
        pytest.param("gaussian", 72, 1.0, id="gaussian-72"),
        pytest.param("triangle", 14, 1.0, id="triangle-14"),
        *(pytest.param("gaussian", 60, r, id=f"gaussian-60-b{r:g}h") for r in (2.0, 0.5)),
    ],
)
def test_a_fit_allocates_few_bytes_per_row(monkeypatch, kind, bound, ratio, engine_rows):
    # full-length K R tables on each side's weights, a second copy of the
    # outcome columns and the cut placebo treatments kept through the bias
    # correction took about 118 bytes per row with the gaussian kernel; a
    # stored basis of (1, u) columns, full-length temporaries of the cut and
    # the support test, and separate moment passes at b = h took 80.8
    # (gaussian) and 16.0 (triangle). At b = 2h and b = h / 2 each side's
    # four coordinate arrays, kept until both sides' variance passes had
    # run, took 65.9 (gaussian). Each bound holds on both paths
    import tracemalloc

    monkeypatch.setattr(pdd.inference, "ENGINE_ROWS", engine_rows)
    sample = pdd.simulate(DgpSpec(n=200_000, seed=1, kappa=4))
    h = rule_of_thumb_bandwidth(sample.d)
    tracemalloc.start()
    try:
        bias_corrected_estimate(sample, 0.0, h, h * ratio, KernelSpec(kind))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sample.n < bound


@pytest.mark.parametrize("kind", KINDS)
def test_the_fits_at_b_equal_h_share_moments_equal_to_separate_sums(rng, kind):
    # at b = h one pair of coordinates serves both fits, and the linear
    # fit's power sums and R'KS are read off the quadratic fit's; they must
    # equal the separately summed ones bit for bit, over a side longer than
    # a chunk and over the segments of a block
    from functools import partial

    from pdd.inference import _fits, _moments, _row_form, _side_terms
    from pdd.local_fit import CHUNK_ROWS, _design_rows, _hankel, _sums, _weighted_design

    kernel = KernelSpec(kind)
    m, h = 2 * CHUNK_ROWS + 777, 0.45
    d = rng.uniform(0.0, 0.5 if kind == "gaussian" else 0.45, m)
    S = rng.standard_normal((m, 3))
    corr = side_correction(d, S, 0.0, h, h, kernel, "right")
    weights, basis1, basis2 = (
        sided_weights(d, 0.0, h, "right", kernel),
        scaled_basis(d, 0.0, h, 1),
        scaled_basis(d, 0.0, h, 2),
    )
    w, u = weights.weights, basis1.u
    shared = _moments(partial(_fits, (u, w)), S.T, None, m, [0])
    apart = _moments(partial(_fits, (u, w, u, w)), S.T, None, m, [0])
    assert len(shared) == len(apart) == 11
    for one, two in zip(shared, apart):
        assert np.array_equal(one, two)
    mu, mv, rks, gs = (x[0] for x in shared[:4])
    # the point estimate's designs sum the same powers
    assert np.array_equal(_weighted_design(weights, basis1)[1], mu)
    assert np.array_equal(_weighted_design(weights, basis2)[1], mv)
    coef, curves, bias, load, stacked, weight = _side_terms(
        _hankel(mu, 1), mu, rks, _hankel(mv, 2), gs, h, h
    )
    assert np.array_equal(corr.intercepts, coef[0]) and np.array_equal(corr.curvatures, curves)
    assert np.array_equal(corr.bias, bias) and corr.curvature_load == load
    k1, k2 = _design_rows(w, u, 1), _design_rows(w, u, 2)
    assert np.array_equal(_row_form(corr.weight_map, k1, k2), _row_form(weight, k1, k2))
    assert np.array_equal(_row_form(corr.matrix_map, k1, k2), _row_form(stacked, k1, k2))

    # the block's moments: one segment per side of three samples
    from pdd.kernels import _offsets, _weights_at

    counts = np.array([40, 61, 1, 77, 30, 52])
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    per_row = np.repeat(np.repeat(rng.uniform(0.3, 0.6, 3), 2), counts)
    x = rng.uniform(-0.5, 0.5, counts.sum())
    u = _offsets(x, 0.0, per_row)
    w = _weights_at(kernel, u.copy(), per_row)
    outcomes = rng.standard_normal((3, x.size))
    Z = rng.standard_normal((1, x.size))
    shared = _moments(partial(_fits, (u, w)), outcomes, Z, x.size, starts)
    apart = _moments(partial(_fits, (u, w, u, w)), outcomes, Z, x.size, starts)
    for one, two in zip(shared, apart):
        assert np.array_equal(one, two)
    mu = _sums(partial(_design_rows, w, u, 3), x.size, starts)
    assert np.array_equal(shared[0], mu)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ratio", [0.6, 1.0, 1.5])
def test_rows_formed_on_request_equal_the_full_length_formula(rng, kind, ratio):
    # a correction keeps each row map's coefficients, not the row: the row
    # formed from them on the side's design rows is the map applied to
    # whole-length design rows
    from pdd.local_fit import CHUNK_ROWS

    kernel = KernelSpec(kind)
    m, h, b = CHUNK_ROWS + 999, 0.5, 0.5 * ratio
    d = rng.uniform(0.0, 0.6, m)
    corr = side_correction(d, rng.standard_normal((m, 2)), 0.0, h, b, kernel, "right")
    (w_h, u), (w_b, v) = (
        (sided_weights(d, 0.0, x, "right", kernel).weights, scaled_basis(d, 0.0, x, 1).u)
        for x in (h, b)
    )
    k1, k2 = (w_h, w_h * u), (w_b, w_b * v, w_b * v * v)
    rows = _rows_of(corr, d, 0.0, h, b, kernel, "right")
    for c, row in zip((corr.weight_map, corr.matrix_map), rows):
        expected = c[0] * k1[0] + c[1] * k1[1] - (c[2] * k2[0] + c[3] * k2[1] + c[4] * k2[2])
        assert np.array_equal(row, expected)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ratio", [0.6, 1.0, 1.5])
def test_a_correction_sums_its_stacked_form_and_squares_as_the_full_length_formula(
    rng, kind, ratio
):
    # the second pass, run within the correction a window of rows at a
    # time, sums what the whole-length rows give, built from the kernel
    # itself over a side longer than a chunk
    from pdd.local_fit import CHUNK_ROWS

    kernel = KernelSpec(kind)
    m, h, b = CHUNK_ROWS + 999, 0.5, 0.5 * ratio
    d = rng.uniform(0.0, 0.6, m)
    S = 2.0 + rng.standard_normal((m, 3))
    corr = side_correction(d, S, 0.0, h, b, kernel, "right")
    (w_h, u), (w_b, v) = ((kernel_value(kernel, d / x) / x, d / x) for x in (h, b))
    k1, k2 = (w_h, w_h * u), (w_b, w_b * v, w_b * v * v)
    weight_row, matrix_row = (
        c[0] * k1[0] + c[1] * k1[1] - (c[2] * k2[0] + c[3] * k2[1] + c[4] * k2[2])
        for c in (corr.weight_map, corr.matrix_map)
    )
    assert_allclose(corr.stacked, matrix_row @ S, rtol=1e-12)
    residuals = (S - corr.intercepts_bc) * weight_row[:, None]
    assert_allclose(corr.squares, np.sum(residuals**2, axis=0), rtol=1e-12)


@pytest.mark.parametrize(
    "u, h, b, message",
    [
        # one value within h, and two within b
        ([0.1, 0.1, 0.1, 0.25, 0.5, 0.7], 0.2, 0.3, r"^1 distinct .* least 2, so bandwidth 0.2 "),
        # two values 1e-9 apart within h and within b
        ([0.5, 0.5 + 1e-9, 0.5, 0.85, 0.9], 0.6, 0.55, r"^singular local linear design"),
        # spread values within h, two within b
        ([0.1, 0.2, 0.1, 0.2, 0.5, 0.7], 1.0, 0.3, r"^2 distinct .* at least 3, so bandwidth 0.3 "),
        # spread values within h, three values 1e-6 apart within b
        ([0.01, 0.01 + 1e-6, 0.01 + 2e-6, 0.3, 0.6, 0.9], 1.0, 0.02, r"^singular local quadratic"),
    ],
)
@pytest.mark.parametrize("side", ["left", "right"])
def test_a_correction_raises_its_support_errors_in_the_fits_order(rng, u, h, b, message, side):
    # at b != h the checks run as the fits do: support at h, Gram at h,
    # support at b, Gram at b; each case also fails every later check
    d = np.asarray(u) if side == "right" else -np.asarray(u)
    S = rng.standard_normal((d.size, 2))
    w_h, w_b = (sided_weights(d, 0.0, x, side, WINDOW) for x in (h, b))
    basis1, basis2 = scaled_basis(d, 0.0, h, 1), scaled_basis(d, 0.0, b, 2)
    with pytest.raises(SingularSupport, match=message) as raised:
        pdd.side_correction_from_weights(S, w_h, basis1, w_b, basis2)
    assert f"{side} side" in str(raised.value)


def test_a_cached_design_holds_no_per_row_array(rng):
    # a correction holds a few numbers per outcome column and row map, and
    # no per-row array; the point estimate's kept designs hold none
    from dataclasses import fields

    d = rng.uniform(0.0, 1.0, 5000)
    S = rng.standard_normal((5000, 2))
    w_h, w_b = (sided_weights(d, 0.0, x, "right", GAUSSIAN) for x in (0.3, 0.5))
    basis_h, basis_b = scaled_basis(d, 0.0, 0.3, 1), scaled_basis(d, 0.0, 0.5, 2)
    corr = pdd.side_correction_from_weights(S, w_h, basis_h, w_b, basis_b)
    for field in fields(corr):
        assert np.size(getattr(corr, field.name)) <= 5 * S.shape[1], field.name
    for weights, basis in ((w_h, basis_h), (w_b, basis_b)):
        local_poly_fit(S[:, 0], weights, basis)
        ((_, design),) = weights._designs.values()
        assert all(d.size not in np.shape(x) for x in design)


@pytest.mark.parametrize("kind", KINDS)
def test_the_cut_sample_reads_its_outcomes_from_the_one_stack(rng, kind):
    kernel = KernelSpec(kind)
    sharp = _local_sample(rng)
    fuzzy = replace(sharp, a=(rng.random(sharp.n) < 0.5).astype(float))
    rows, k_rows = _cut_rows(sharp.d, CUTOFF, 0.5, kernel)  # d is shuffled: never the identity
    for sample in (sharp, fuzzy):
        cut, k, S = _cut(sample, CUTOFF, 0.5, kernel)
        q = sample.q
        assert k == k_rows and S.shape == (1 + q + (sample.a is not None), rows.size)
        # each column is the fancy-indexed reference
        for name in "dyWZ":
            np.testing.assert_array_equal(getattr(cut, name), getattr(sample, name)[rows])
        np.testing.assert_array_equal(S[: 1 + q], np.vstack([cut.y, cut.W.T]))
        assert np.shares_memory(cut.y, S) and np.shares_memory(cut.W, S)
        assert cut.Z.flags.f_contiguous
        if sample.a is None:
            assert cut.a is None
        else:  # a fuzzy sample's treatment is the row after the placebo outcomes
            np.testing.assert_array_equal(S[1 + q], sample.a[rows])
            assert np.shares_memory(cut.a, S) and np.array_equal(cut.a, S[1 + q])
        # a sample already cut comes back as it is, with no stack
        again, k_again, S_again = _cut(cut, CUTOFF, 0.5, kernel)
        assert again is cut and k_again == k and S_again is None


# ------------------------------------- a large fit in the block engine


@pytest.fixture
def engine(monkeypatch):
    """``engine(True)`` makes every later ``bias_corrected_estimate`` of the
    test with placebo columns fit its cut in ``fit_block``, and
    ``engine(False)`` on the per-fit path, by the threshold of cut rows. It
    returns the list of the engine fits' ``ok``, one per call of
    ``fit_block``. No fit may call ``os.fork``.
    """
    fitted, real = [], pdd.inference.fit_block

    def recorded(*args):
        ok, fit = real(*args)
        fitted.append(bool(ok[0]))
        return ok, fit

    def force(on: bool) -> list[bool]:
        monkeypatch.setattr(pdd.inference, "ENGINE_ROWS", 1 if on else 1 << 62)
        return fitted

    monkeypatch.setattr(pdd.inference, "fit_block", recorded)
    monkeypatch.setattr(os, "fork", _failing(AssertionError("a fit called os.fork")))
    return force


def _robust_outcome(sample, h, b, kernel=TRIANGLE):
    """``bias_corrected_estimate``'s fields at cutoff 0 (``estimate_fields``),
    or the type and message of its error."""
    try:
        est = bias_corrected_estimate(sample, 0.0, h, b, kernel)
    except Exception as exc:
        return type(exc), str(exc)
    return estimate_fields(est)


def _failing(error):
    def fail(*args, **kwargs):
        raise error

    return fail


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("h,b", BANDWIDTH_PAIRS)
def test_the_engine_gives_the_per_fit_bits(rng, engine, kind, h, b, q):
    # where b <= h, and with the gaussian kernel, whose cut is every row,
    # both paths sum the same rows in the same order; a compact kernel's
    # point estimate at b > h also sums the zero-weight rows out to b in the
    # engine, and the two agree up to rounding
    sample, kernel = random_dataset(rng, 400, q), KernelSpec(kind)
    engine(False)
    want = _robust_outcome(sample, h, b, kernel)
    fitted = engine(True)
    got = _robust_outcome(sample, h, b, kernel)
    assert isinstance(want, dict) and fitted == [True]
    if b <= h or kind == "gaussian":
        assert got == want
    else:
        assert got.keys() == want.keys()
        for name, value in want.items():
            if value is None or isinstance(value, (bool, int)):
                assert got[name] == value, name
            else:
                assert_allclose(got[name], value, rtol=1e-12, atol=0.0, err_msg=name)
    assert_no_children()


#: The bandwidths ``(h, b)`` at which a check fails, where not ``(0.5, 0.3)``.
#: At ``b``, or ``h``, of 1e307 the weights ``K(u) / h`` are near the end of
#: the normal range and a Gram's powers underflow. On ``d`` scaled by 1e200,
#: the norms that scale the Schur complement's rcond underflow, so it reads 0
_OVERFLOWING = {
    "n b overflows": (0.5, 1e307),
    "n h overflows": (1e307, 1e307),
    "scale 1e200": (0.5e200, 0.5e200),
}


def _failing_sample(rng, check):
    """A sample whose fit at ``h = 0.5`` and ``b = 0.3``, or at the
    bandwidths ``_OVERFLOWING`` names, fails ``check``."""
    sample = random_dataset(rng, 400, 1)
    d, right = sample.d, sample.d >= 0.0
    alternate = np.arange(sample.n) % 2
    if check == "support at h":  # one value within h on the right
        return replace(sample, d=np.where(right & (d < 0.5), 0.25, d))
    if check in ("support at b", "the point estimate, then a side"):  # two values within b
        thin = replace(sample, d=np.where(right & (d < 0.3), 0.05 + 0.15 * alternate, d))
        if check == "support at b":
            return thin
        return replace(thin, Z=np.where(right[:, None], thin.Z, 0.0))  # no instrument on the left
    if check == "Gram":  # two values 1e-9 apart within h on the right
        return replace(sample, d=np.where(right & (d < 0.5), 0.2 + 1e-9 * alternate, d))
    if check == "instrument":
        return replace(sample, Z=np.zeros_like(sample.Z))
    if check == "variance":
        return replace(sample, y=sample.y * 1e160)
    if check == "scale 1e200":
        return replace(sample, d=sample.d * 1e200)
    if check in _OVERFLOWING:  # healthy, but at these bandwidths a Gram's powers underflow
        return sample
    return replace(sample, d=np.abs(d))  # no row on the left


@pytest.mark.parametrize(
    "check, error, message",
    [
        pytest.param(check, error, message, id=check)
        for check, error, message in (
            ("support at h", SingularSupport, r"^1 distinct .* right side; .* 2, so bandwidth 0.5"),
            ("support at b", SingularSupport, r"^2 distinct .* right side; .* 3, so bandwidth 0.3"),
            ("Gram", SingularSupport, r"^singular local linear design on the right side"),
            ("instrument", WeakInstrument, r"^weak placebo proxy on the right side"),
            ("the point estimate, then a side", WeakInstrument, r"^weak placebo proxy on the left"),
            ("variance", NonFiniteResult, r"^the variance"),
            ("an empty side", SingularSupport, r"^0 distinct .* left side"),
            ("n b overflows", SingularSupport, r"^singular local quadratic design on the right"),
            ("n h overflows", SingularSupport, r"^singular local linear design on the right"),
            ("scale 1e200", WeakInstrument, r"^weak placebo proxy on the right side"),
        )
    ],
)
def test_each_failing_check_raises_the_per_fit_error_on_the_engine_path(
    rng, engine, check, error, message
):
    # the engine flags the sample, and the per-fit path, run on the same
    # cut, raises its error in its order: the point estimate's before a
    # side's, the right side's before the left's. A cut with a side
    # without rows never reaches the engine. A side that fails a check
    # solves the identity in the engine, at its own h and b
    sample, (h, b) = _failing_sample(rng, check), _OVERFLOWING.get(check, (0.5, 0.3))
    engine(False)
    with np.errstate(all="ignore"):  # an overflowing variance warns on its way
        want = _robust_outcome(sample, h, b)
        fitted = engine(True)
        got = _robust_outcome(sample, h, b)
    assert want[0] is error and re.match(message, want[1]), want
    assert got == want
    assert fitted == ([] if check == "an empty side" else [False])
    assert_no_children()


def test_the_engine_fits_no_first_stage_of_a_sample_with_a_treatment(rng, engine):
    # the robust estimate's point estimate drops the sample's treatment on
    # both paths: only estimate_fuzzy fits the first stage
    sample = random_dataset(rng, 400, 1)
    a = rng.random(sample.n) < 0.2 + 0.6 * (sample.d >= 0.0)
    sample = replace(sample, a=a.astype(float))
    engine(False)
    want = _robust_outcome(sample, 0.6, 0.6)
    assert want["point.tau_rdd_a"] is None
    fitted = engine(True)
    assert _robust_outcome(sample, 0.6, 0.6) == want and fitted == [True]
    assert_no_children()


def test_only_a_cut_of_engine_rows_with_placebo_columns_takes_the_engine(
    rng, monkeypatch, engine
):
    assert pdd.inference.ENGINE_ROWS == 1 << 17
    sample = random_dataset(rng, 400, 1)
    rows = _cut(sample, 0.0, 0.5, TRIANGLE)[0].n
    fitted = engine(True)
    rdd_robust_estimate(sample.d, sample.y, 0.0, 0.5, 0.5, TRIANGLE)
    assert fitted == []  # no placebo columns
    monkeypatch.setattr(pdd.inference, "ENGINE_ROWS", rows + 1)
    want = _robust_outcome(sample, 0.5, 0.5)
    assert fitted == []
    monkeypatch.setattr(pdd.inference, "ENGINE_ROWS", rows)
    assert _robust_outcome(sample, 0.5, 0.5) == want
    assert fitted == [True]
    assert_no_children()


#: Prints, after a BLAS call: this process's OS threads, its Python threads,
#: ``_forked.workers(2)`` and the result of a BLAS call in a forked child.
_BLAS_POOL_SCRIPT = """
import json, os, threading
import numpy as np
from pdd import _forked
a = np.ones((64, 64))
a @ a
threads = len(os.listdir("/proc/self/task"))
children = []
_forked.fork_each(children, [lambda: [float((a @ a).sum())]])
from_child = _forked.take(children, 1, lambda: None)
_forked.stop(children)
print(json.dumps([threads, threading.active_count(), _forked.workers(2), from_child]))
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2,
    reason="one CPU, or no per-process thread list",
)
def test_the_fork_gate_counts_python_threads_and_forks_beside_the_blas_pool():
    # the OpenBLAS pool is OS threads that threading does not count; its
    # fork handler ends the pool before a fork, so a child can still call BLAS
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", _BLAS_POOL_SCRIPT], capture_output=True, text=True, env=env,
        timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr
    threads, python_threads, workers, from_child = json.loads(proc.stdout)
    if threads == 1:
        pytest.skip("the BLAS library runs no thread pool here")
    assert (python_threads, workers, from_child) == (1, 2, 64.0**3)
