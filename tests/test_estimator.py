import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdd import (
    KernelSpec,
    Sample,
    WeakFirstStage,
    estimate_fuzzy,
    estimate_sharp,
    rdd_discontinuity,
)
from conftest import random_dataset

TRIANGLE = KernelSpec("triangle")
WINDOW = KernelSpec("window")


def test_step_function_jump():
    d = np.concatenate([np.linspace(-1.0, -0.05, 20), np.linspace(0.0, 1.0, 20)])
    s = (d >= 0.0).astype(float)
    assert_allclose(rdd_discontinuity(s, d, 0.0, 0.8, TRIANGLE), 1.0, rtol=1e-12)


def test_continuous_line_has_no_jump():
    d = np.linspace(-1.0, 1.0, 41)
    s = 0.3 + 1.7 * d
    assert abs(rdd_discontinuity(s, d, 0.0, 0.6, TRIANGLE)) < 1e-12


def test_step_with_slope_forty_points():
    # Local linear fits reproduce each side's line exactly, so the jump is
    # exactly 0.7 regardless of the grid (verified against the explicit
    # normal-equations solve).
    d = np.linspace(-1.0, 1.0, 40)
    s = 0.7 * (d >= 0.0) + 2.0 * d
    value = rdd_discontinuity(s, d, 0.0, 1.0, WINDOW)
    assert_allclose(value, 0.7, rtol=1e-12)

    def side_intercept(mask):
        R = np.column_stack([np.ones(mask.sum()), d[mask]])
        return (np.linalg.inv(R.T @ R) @ (R.T @ s[mask]))[0]

    oracle = side_intercept(d >= 0.0) - side_intercept(d < 0.0)
    assert_allclose(value, oracle, rtol=1e-12)


def test_zero_placebo_jump_reduces_to_plain_rdd(rng):
    # Remove the placebo's fitted jump exactly: subtracting a step of the
    # estimated height shifts the right-side intercept by exactly that amount
    # (degree-1 exactness), leaving a zero estimated discontinuity but real
    # residual variation for the instrumented solve.
    n = 300
    d = rng.uniform(-1.0, 1.0, n)
    w0 = 0.5 + 0.8 * d + 0.6 * rng.standard_normal(n)
    fitted_jump = rdd_discontinuity(w0, d, 0.0, 0.7, WINDOW)
    W = (w0 - fitted_jump * (d >= 0.0))[:, None]
    Z = (W[:, 0] + 0.4 * rng.standard_normal(n))[:, None]
    y = 1.0 * (d >= 0.0) + 0.5 * d + W[:, 0] + 0.3 * rng.standard_normal(n)
    sample = Sample(d=d, y=y, W=W, Z=Z)
    est = estimate_sharp(sample, 0.0, 0.7, WINDOW)
    assert_allclose(est.tau_rdd_w, [0.0], atol=1e-12)
    assert_allclose(est.tau_pdd, est.tau_rdd_y, rtol=1e-10)


def test_identity_tau_rdd_y(rng):
    sample = random_dataset(rng, n=240, q=2)
    est = estimate_sharp(sample, 0.0, 0.8, TRIANGLE)
    assert_allclose(
        est.tau_rdd_y, rdd_discontinuity(sample.y, sample.d, 0.0, 0.8, TRIANGLE), rtol=1e-12
    )
    assert_allclose(
        est.tau_pdd,
        est.tau_rdd_y - float(est.tau_rdd_w @ est.gamma_minus),
        rtol=1e-12,
    )


def test_decomposition_equivalence_on_random_data(rng):
    kernels = (WINDOW, TRIANGLE, KernelSpec("gaussian"))
    for trial in range(200):
        sample = random_dataset(rng, n=200, q=1 + trial % 3)
        h = rng.uniform(0.4, 1.0)
        est = estimate_sharp(sample, 0.0, h, kernels[trial % 3])
        gap = abs(est.tau_pdd - est.tau_pdd_iv_form)
        assert gap <= 1e-8 * max(1.0, abs(est.tau_pdd))


def test_affine_outcome_invariance(rng):
    sample = random_dataset(rng, n=220, q=2)
    est = estimate_sharp(sample, 0.0, 0.7, TRIANGLE)
    a, b = -2.5, 3.0
    shifted = Sample(d=sample.d, y=a * sample.y + b, W=sample.W, Z=sample.Z)
    est2 = estimate_sharp(shifted, 0.0, 0.7, TRIANGLE)
    assert_allclose(est2.tau_pdd, a * est.tau_pdd, rtol=1e-8)
    assert_allclose(est2.tau_rdd_y, a * est.tau_rdd_y, rtol=1e-8)


def test_proxy_reparameterization_invariance(rng):
    sample = random_dataset(rng, n=250, q=2)
    est = estimate_sharp(sample, 0.0, 0.8, TRIANGLE)
    M = np.array([[1.3, -0.4], [0.2, 0.9]])
    c = np.array([0.7, -1.1])
    transformed = Sample(d=sample.d, y=sample.y, W=sample.W @ M + c, Z=sample.Z)
    est2 = estimate_sharp(transformed, 0.0, 0.8, TRIANGLE)
    assert_allclose(est2.tau_pdd, est.tau_pdd, rtol=1e-8)
    assert_allclose(est2.gamma_minus, np.linalg.solve(M, est.gamma_minus), rtol=1e-8)


def test_instrument_scale_invariance(rng):
    sample = random_dataset(rng, n=250, q=2)
    est = estimate_sharp(sample, 0.0, 0.8, TRIANGLE)
    C = np.diag([4.0, 0.25])
    rescaled = Sample(d=sample.d, y=sample.y, W=sample.W, Z=sample.Z @ C)
    est2 = estimate_sharp(rescaled, 0.0, 0.8, TRIANGLE)
    assert_allclose(est2.tau_pdd, est.tau_pdd, rtol=1e-8)
    assert_allclose(est2.gamma_minus, est.gamma_minus, rtol=1e-8)
    assert_allclose(est2.alpha_plus_0, est.alpha_plus_0, rtol=1e-8)


def test_requires_placebo_columns(rng):
    d = rng.uniform(-1.0, 1.0, 50)
    sample = Sample(d=d, y=d, W=np.empty((50, 0)), Z=np.empty((50, 0)))
    with pytest.raises(ValueError):
        estimate_sharp(sample, 0.0, 0.5, TRIANGLE)


def test_fuzzy_sharp_treatment_equals_sharp(rng):
    sample = random_dataset(rng, n=300, q=1)
    with_a = Sample(
        d=sample.d, y=sample.y, W=sample.W, Z=sample.Z, a=(sample.d >= 0.0).astype(float)
    )
    fuzzy = estimate_fuzzy(with_a, 0.0, 0.8, TRIANGLE)
    assert_allclose(fuzzy.tau_rdd_a, 1.0, rtol=1e-10)
    assert_allclose(fuzzy.fuzzy_estimate, fuzzy.tau_pdd, rtol=1e-10)


def test_fuzzy_ratio_arithmetic(rng):
    # Deterministic treatment level jump of 0.5 doubles the numerator.
    sample = random_dataset(rng, n=300, q=1)
    a = 0.25 + 0.5 * (sample.d >= 0.0)
    with_a = Sample(d=sample.d, y=sample.y, W=sample.W, Z=sample.Z, a=a)
    fuzzy = estimate_fuzzy(with_a, 0.0, 0.8, TRIANGLE)
    assert_allclose(fuzzy.tau_rdd_a, 0.5, rtol=1e-9)
    assert_allclose(fuzzy.fuzzy_estimate, 2.0 * fuzzy.tau_pdd, rtol=1e-9)


def test_fuzzy_requires_treatment_column(rng):
    sample = random_dataset(rng, n=100, q=1)
    with pytest.raises(ValueError):
        estimate_fuzzy(sample, 0.0, 0.8, TRIANGLE)


def test_weak_first_stage(rng):
    sample = random_dataset(rng, n=300, q=1)
    a = 0.5 + 0.1 * sample.d  # continuous: no jump at the cutoff
    with_a = Sample(d=sample.d, y=sample.y, W=sample.W, Z=sample.Z, a=a)
    with pytest.raises(WeakFirstStage):
        estimate_fuzzy(with_a, 0.0, 0.8, TRIANGLE)


def test_side_counts_reported(rng):
    sample = random_dataset(rng, n=160, q=1)
    est = estimate_sharp(sample, 0.0, 0.9, WINDOW)
    expected_right = int(np.count_nonzero((sample.d >= 0.0) & (sample.d <= 0.9)))
    expected_left = int(np.count_nonzero((sample.d < 0.0) & (sample.d >= -0.9)))
    assert est.n_right == expected_right
    assert est.n_left == expected_left
