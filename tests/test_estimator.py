from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pdd.estimator
import pdd.kernels
from pdd import (
    KernelSpec,
    Sample,
    WeakFirstStage,
    estimate_fuzzy,
    estimate_sharp,
    rdd_robust_estimate,
)
from conftest import local_linear_jump, random_dataset

TRIANGLE = KernelSpec("triangle")
WINDOW = KernelSpec("window")


def test_step_function_jump():
    d = np.concatenate([np.linspace(-1.0, -0.05, 20), np.linspace(0.0, 1.0, 20)])
    s = (d >= 0.0).astype(float)
    assert_allclose(rdd_robust_estimate(d, s, 0.0, 0.8, 0.8, TRIANGLE).tau_pdd, 1.0, rtol=1e-12)


def test_continuous_line_has_no_jump():
    d = np.linspace(-1.0, 1.0, 41)
    s = 0.3 + 1.7 * d
    assert abs(rdd_robust_estimate(d, s, 0.0, 0.6, 0.6, TRIANGLE).tau_pdd) < 1e-12


def test_step_with_slope_forty_points():
    # Local linear fits reproduce each side's line exactly, so the jump is
    # exactly 0.7 regardless of the grid (verified against the explicit
    # normal-equations solve).
    d = np.linspace(-1.0, 1.0, 40)
    s = 0.7 * (d >= 0.0) + 2.0 * d
    value = rdd_robust_estimate(d, s, 0.0, 1.0, 1.0, WINDOW).tau_pdd
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
    fitted_jump = local_linear_jump(w0, d, 0.0, 0.7, "window")
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
        est.tau_rdd_y, local_linear_jump(sample.y, sample.d, 0.0, 0.8, "triangle"), rtol=1e-12
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


def _with_treatment(rng, sample):
    """``sample`` with a 0/1 treatment taken with probability 0.2 below the
    cutoff and 0.8 above it."""
    a = rng.random(sample.n) < 0.2 + 0.6 * (sample.d >= 0.0)
    return replace(sample, a=a.astype(float))


@pytest.mark.parametrize("kind", ["window", "triangle", "gaussian"])
def test_the_first_stage_is_the_oracle_jump_of_the_treatment(rng, kind):
    sample = _with_treatment(rng, random_dataset(rng, n=400, q=1))
    fuzzy = estimate_fuzzy(sample, 0.0, 0.8, KernelSpec(kind))
    assert_allclose(
        fuzzy.tau_rdd_a, local_linear_jump(sample.a, sample.d, 0.0, 0.8, kind), rtol=1e-12
    )


@pytest.mark.parametrize("kind", ["window", "triangle", "gaussian"])
def test_a_treatment_column_moves_no_sharp_output(rng, kind):
    plain = random_dataset(rng, n=300, q=2)
    with_a, kernel = _with_treatment(rng, plain), KernelSpec(kind)
    est, est_a = estimate_sharp(plain, 0.0, 0.7, kernel), estimate_sharp(with_a, 0.0, 0.7, kernel)
    assert est.tau_rdd_a is None and est_a.tau_rdd_a is not None
    assert (est_a.tau_pdd, est_a.tau_rdd_y) == (est.tau_pdd, est.tau_rdd_y)
    for name in ("tau_rdd_w", "gamma_minus", "gamma_plus"):
        assert np.array_equal(getattr(est_a, name), getattr(est, name)), name


def test_a_fuzzy_estimate_cuts_once_and_weights_each_side_once(rng, monkeypatch):
    sample = _with_treatment(rng, random_dataset(rng, n=500, q=1))
    assert np.any(np.diff(sample.d) < 0.0)  # unsorted, so the cut gathers rows
    calls = {"_cut_rows": [], "sided_weights": 0, "scaled_basis": 0}
    cut_rows = pdd.kernels._cut_rows

    def counted_cut(d, *args):
        calls["_cut_rows"].append(len(d))
        return cut_rows(d, *args)

    def counted(name):
        real = getattr(pdd.estimator, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for module in (pdd.kernels, pdd.estimator):
        monkeypatch.setattr(module, "_cut_rows", counted_cut)
    for name in ("sided_weights", "scaled_basis"):
        monkeypatch.setattr(pdd.estimator, name, counted(name))
    estimate_fuzzy(sample, 0.0, 0.6, TRIANGLE)
    assert calls == {"_cut_rows": [sample.n], "sided_weights": 2, "scaled_basis": 1}


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
