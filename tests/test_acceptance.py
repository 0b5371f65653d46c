"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the Monte Carlo criteria use fixed seeds and finish in a few minutes.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import pdd
from pdd import (
    DgpSpec,
    KernelSpec,
    Sample,
    bias_corrected_estimate,
    dgp_truth,
    estimate_sharp,
    local_iv_fit,
    monte_carlo,
    rdd_robust_estimate,
    robust_variance,
    rule_of_thumb_bandwidth,
    scaled_basis,
    side_correction,
    side_correction_from_weights,
    sided_weights,
    simulate,
)
from conftest import random_dataset, residualize
from test_inference import brute_force_variance

TRIANGLE = KernelSpec("triangle")
WINDOW = KernelSpec("window")
KERNELS = (WINDOW, TRIANGLE, KernelSpec("gaussian"))

CALIBRATION = dict(kappa=4.0, proxy_loading=1.0, instrument_strength=1.0,
                   window=0.5, curvature=1.0, tau0=1.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_decomposition_equivalence():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_forms = 0.0
    worst_gamma = 0.0
    for trial in range(1000):
        q = 1 + trial % 3
        sample = random_dataset(rng, n=200, q=q)
        h = rng.uniform(0.4, 1.0)
        kernel = KERNELS[trial % 3]
        est = estimate_sharp(sample, 0.0, h, kernel)
        gap = abs(est.tau_pdd - est.tau_pdd_iv_form) / max(1.0, abs(est.tau_pdd))
        worst_forms = max(worst_forms, gap)

        weights = sided_weights(sample.d, 0.0, h, "left", kernel)
        basis = scaled_basis(sample.d, 0.0, h, 1)
        fit = local_iv_fit(sample.y, sample.W, sample.Z, weights, basis)
        W_perp = np.column_stack(
            [residualize(sample.W[:, j], weights.weights, basis.rows) for j in range(q)]
        )
        y_perp = residualize(sample.y, weights.weights, basis.rows)
        zw = sample.Z * weights.weights[:, None]
        oracle = np.linalg.solve(zw.T @ W_perp, zw.T @ y_perp)
        gamma_gap = float(
            np.max(np.abs(fit.gamma - oracle)) / max(1.0, float(np.max(np.abs(oracle))))
        )
        worst_gamma = max(worst_gamma, gamma_gap)
    elapsed = time.monotonic() - start
    ok = worst_forms <= 1e-8 and worst_gamma <= 1e-10 and elapsed < 10.0
    _report(
        "1 decomposition equivalence",
        ok,
        f"worst form gap {worst_forms:.2e}, worst gamma gap {worst_gamma:.2e}, "
        f"{elapsed:.1f}s over 1000 datasets",
    )


def test_criterion_2_polynomial_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    # local linear reproduces degree-1 data
    d = np.sort(rng.uniform(0.01, 1.0, 30))
    w = sided_weights(d, 0.0, 1.0, "right", TRIANGLE)
    basis = scaled_basis(d, 0.0, 1.0, 1)
    fit = pdd.local_poly_fit(1.7 - 2.4 * d, w, basis)
    linear_err = max(abs(fit.intercept - 1.7), abs(fit.coef_scaled[1] + 2.4))
    # local quadratic reproduces degree-2 curvature
    w2 = sided_weights(d, 0.0, 1.0, "right", TRIANGLE)
    basis2 = scaled_basis(d, 0.0, 1.0, 2)
    quad = pdd.local_poly_fit(0.5 + d - 3.0 * d * d, w2, basis2).coef_scaled[2]
    curv_err = abs(2.0 * quad / basis2.bandwidth**2 + 6.0)
    # bias-corrected estimator recovers a jump on quadratic-mean data exactly
    dd = rng.uniform(-1.0, 1.0, 400)
    y = 0.9 * (dd >= 0.0) + 0.8 * dd + 1.5 * dd * dd
    robust = rdd_robust_estimate(dd, y, 0.0, 0.5, 0.7, TRIANGLE)
    jump_err = abs(robust.tau_pdd_bc - 0.9)
    elapsed = time.monotonic() - start
    ok = linear_err < 1e-8 and curv_err < 1e-8 and jump_err < 1e-8 and elapsed < 1.0
    _report(
        "2 polynomial exactness",
        ok,
        f"linear {linear_err:.2e}, curvature {curv_err:.2e}, "
        f"corrected jump {jump_err:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_consistency_under_manipulation():
    start = time.monotonic()
    spec = DgpSpec(n=50_000, seed=0, **CALIBRATION)
    report = monte_carlo(spec, reps=100, base_seed=500)
    truth = dgp_truth(spec, oracle_n=1_000_000)
    naive_mcse = report.naive_sd / math.sqrt(report.reps)
    adjusted_ok = abs(report.bias) < 0.05
    naive_visible = abs(report.naive_bias) > 3.0 * naive_mcse
    gap_ratio = abs(report.naive_bias) / truth.confounding_jump
    oracle_ok = abs(gap_ratio - 1.0) <= 0.25
    elapsed = time.monotonic() - start
    ok = adjusted_ok and naive_visible and oracle_ok and elapsed < 300.0
    _report(
        "3 consistency under manipulation",
        ok,
        f"adjusted bias {report.bias:+.4f}, naive bias {report.naive_bias:+.4f} "
        f"(3 MCSE {3 * naive_mcse:.4f}), naive gap / oracle jump {gap_ratio:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_4_no_confounding_reduction():
    spec = DgpSpec(n=5_000, seed=0, **{**CALIBRATION, "kappa": 0.0})
    diffs = []
    for r in range(200):
        sample = simulate(replace(spec, seed=1000 + r))
        h = rule_of_thumb_bandwidth(sample.d)
        est = estimate_sharp(sample, 0.0, h, TRIANGLE)
        diffs.append(est.tau_pdd - est.tau_rdd_y)
    diffs = np.asarray(diffs)
    bound = 3.0 * diffs.std(ddof=1) / math.sqrt(diffs.size)
    ok = abs(diffs.mean()) < bound
    _report(
        "4 no-confounding reduction",
        ok,
        f"|mean adjustment| {abs(diffs.mean()):.5f} < 3 MCSE {bound:.5f}",
    )


def test_criterion_5_coverage():
    start = time.monotonic()
    spec = DgpSpec(n=5_000, seed=0, **CALIBRATION)
    report = monte_carlo(spec, reps=500, base_seed=2000)
    se_ratio = report.mean_se / report.sd_bc
    coverage_ok = 0.90 <= report.coverage <= 0.98
    se_ok = abs(se_ratio - 1.0) <= 0.20
    elapsed = time.monotonic() - start
    ok = coverage_ok and se_ok and elapsed < 600.0
    _report(
        "5 coverage",
        ok,
        f"coverage {report.coverage:.3f}, mean se / empirical sd {se_ratio:.3f}, "
        f"{elapsed:.0f}s over 500 reps",
    )


def test_criterion_6_fuzzy_design():
    spec = DgpSpec(
        n=50_000, seed=0, design="fuzzy_homogeneous", compliance=0.6, **CALIBRATION
    )
    report = monte_carlo(spec, reps=100, base_seed=900)
    bias_ok = abs(report.bias) < 0.08
    fs_ok = abs(report.mean_first_stage - 0.6) <= 0.02
    ok = bias_ok and fs_ok
    _report(
        "6 fuzzy design",
        ok,
        f"ratio bias {report.bias:+.4f}, first stage {report.mean_first_stage:.4f}",
    )


def test_criterion_7_variance_oracle():
    rng = np.random.default_rng(707)
    worst = 0.0
    for q in (1, 2, 3):
        for _ in range(3):
            sample = random_dataset(rng, n=20, q=q)
            S = np.column_stack([sample.y, sample.W])
            combo = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, q)])
            h, b = 0.8, 1.0
            plus = side_correction(sample.d, S, 0.0, h, b, TRIANGLE, "right")
            minus = side_correction(sample.d, S, 0.0, h, b, TRIANGLE, "left")
            fast = robust_variance(S, S, plus, minus, combo, len(S))
            brute = brute_force_variance(sample.d, S, 0.0, h, b, TRIANGLE, combo)
            worst = max(worst, abs(fast - brute) / brute)
    ok = worst <= 1e-10
    _report("7 variance oracle", ok, f"worst relative gap {worst:.2e}")


def test_criterion_8_invariance_suite():
    rng = np.random.default_rng(808)
    failures = []

    # kernel scaling: multiplying every weight by c > 0 leaves fits,
    # corrections, and the variance unchanged
    sample = random_dataset(rng, n=150, q=2)
    S = np.column_stack([sample.y, sample.W])
    combo = np.array([1.0, -0.4, 0.7])
    h, b = 0.7, 0.9
    base_sides = []
    scaled_sides = []
    for side in ("right", "left"):
        w_h = sided_weights(sample.d, 0.0, h, side, TRIANGLE)
        w_b = sided_weights(sample.d, 0.0, b, side, TRIANGLE)
        basis1 = scaled_basis(sample.d, 0.0, h, 1)
        basis2 = scaled_basis(sample.d, 0.0, b, 2)
        base_sides.append(side_correction_from_weights(S, w_h, basis1, w_b, basis2))
        c = 37.5
        w_h_scaled = replace(w_h, weights=w_h.weights * c)
        w_b_scaled = replace(w_b, weights=w_b.weights * c)
        scaled_sides.append(
            side_correction_from_weights(S, w_h_scaled, basis1, w_b_scaled, basis2)
        )
    for name, base, scaled in (
        ("intercepts", base_sides[0].intercepts_bc, scaled_sides[0].intercepts_bc),
        ("curvatures", base_sides[1].curvatures, scaled_sides[1].curvatures),
    ):
        if not np.allclose(base, scaled, rtol=1e-8):
            failures.append(f"kernel scaling changed {name}")
    v_base = robust_variance(S, S, base_sides[0], base_sides[1], combo, len(S))
    v_scaled = robust_variance(S, S, scaled_sides[0], scaled_sides[1], combo, len(S))
    if abs(v_base - v_scaled) > 1e-8 * v_base:
        failures.append("kernel scaling changed the variance")

    # proxy reparameterisation: W -> W M + c
    sample2 = random_dataset(rng, n=220, q=2)
    est = estimate_sharp(sample2, 0.0, 0.8, TRIANGLE)
    M = np.array([[0.8, 0.3], [-0.2, 1.4]])
    shift = np.array([2.0, -0.5])
    est_t = estimate_sharp(
        Sample(d=sample2.d, y=sample2.y, W=sample2.W @ M + shift, Z=sample2.Z),
        0.0,
        0.8,
        TRIANGLE,
    )
    if abs(est_t.tau_pdd - est.tau_pdd) > 1e-8 * max(1.0, abs(est.tau_pdd)):
        failures.append("proxy reparameterisation moved the estimate")
    if not np.allclose(est_t.gamma_minus, np.linalg.solve(M, est.gamma_minus), rtol=1e-8):
        failures.append("proxy reparameterisation broke the weight mapping")

    # instrument scaling: Z -> Z C for diagonal C
    C = np.diag([5.0, 0.2])
    est_z = estimate_sharp(
        Sample(d=sample2.d, y=sample2.y, W=sample2.W, Z=sample2.Z @ C),
        0.0,
        0.8,
        TRIANGLE,
    )
    for name, left, right in (
        ("tau", est_z.tau_pdd, est.tau_pdd),
        ("alpha+", est_z.alpha_plus_0, est.alpha_plus_0),
        ("alpha-", est_z.alpha_minus_0, est.alpha_minus_0),
    ):
        if abs(left - right) > 1e-8 * max(1.0, abs(right)):
            failures.append(f"instrument scaling moved {name}")
    if not np.allclose(est_z.gamma_minus, est.gamma_minus, rtol=1e-8):
        failures.append("instrument scaling moved gamma")

    # permutation invariance of the variance
    sample3 = random_dataset(rng, n=180, q=1)
    robust = bias_corrected_estimate(sample3, 0.0, 0.7, 0.9, TRIANGLE)
    perm = rng.permutation(sample3.n)
    shuffled = Sample(
        d=sample3.d[perm], y=sample3.y[perm], W=sample3.W[perm], Z=sample3.Z[perm]
    )
    robust_p = bias_corrected_estimate(shuffled, 0.0, 0.7, 0.9, TRIANGLE)
    if abs(robust_p.v_bc - robust.v_bc) > 1e-8 * robust.v_bc:
        failures.append("permutation moved the variance")

    _report("8 invariance suite", not failures, "; ".join(failures) or "all invariances hold")


def test_criterion_9_determinism(tmp_path):
    def pipeline(tag: str) -> tuple[bytes, bytes, bytes]:
        csv_path = tmp_path / f"{tag}.csv"
        sim = subprocess.run(
            [
                sys.executable, "-m", "pdd", "simulate",
                "--n", "2500", "--seed", "77", "--kappa", "4", "--out", str(csv_path),
            ],
            capture_output=True,
        )
        assert sim.returncode == 0, sim.stderr
        est = subprocess.run(
            [
                sys.executable, "-m", "pdd", "estimate",
                "--data", str(csv_path), "--cutoff", "0",
                "--placebo-outcomes", "w1", "--placebo-treatments", "z1",
            ],
            capture_output=True,
        )
        assert est.returncode == 0, est.stderr
        mc = subprocess.run(
            [
                sys.executable, "-m", "pdd", "mc",
                "--n", "2500", "--seed", "77", "--kappa", "4", "--reps", "30",
            ],
            capture_output=True,
        )
        assert mc.returncode == 0, mc.stderr
        return csv_path.read_bytes(), est.stdout, mc.stdout

    first = pipeline("a")
    second = pipeline("b")
    ok = first == second
    _report(
        "9 determinism",
        ok,
        f"{len(first[0])} CSV bytes, {len(first[1])} estimate and {len(first[2])} mc JSON "
        "bytes identical",
    )
