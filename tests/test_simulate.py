import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import pdd
from pdd import (
    DgpSpec,
    KernelSpec,
    PddError,
    bias_corrected_estimate,
    dgp_truth,
    estimate_sharp,
    monte_carlo,
    rule_of_thumb_bandwidth,
    simulate,
)
from conftest import random_dataset

MC = sys.modules["pdd.simulate"]  # the module; ``pdd.simulate`` is the function


def test_determinism_bit_identical():
    spec = DgpSpec(n=500, seed=123, kappa=3.0, design="fuzzy_homogeneous")
    s1, s2 = simulate(spec), simulate(spec)
    assert np.array_equal(s1.d, s2.d)
    assert np.array_equal(s1.y, s2.y)
    assert np.array_equal(s1.W, s2.W)
    assert np.array_equal(s1.Z, s2.Z)
    assert np.array_equal(s1.a, s2.a)
    s3 = simulate(replace(spec, seed=124))
    assert not np.array_equal(s1.d, s3.d)


def test_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec(n=0, seed=1)
    with pytest.raises(ValueError):
        DgpSpec(n=10, seed=1, kappa=-1.0)
    with pytest.raises(ValueError):
        DgpSpec(n=10, seed=1, proxy_loading=0.0)
    with pytest.raises(ValueError):
        DgpSpec(n=10, seed=1, window=0.0)
    with pytest.raises(ValueError):
        DgpSpec(n=10, seed=1, design="cluster")
    with pytest.raises(ValueError):
        DgpSpec(n=10, seed=1, compliance=0.0)
    with pytest.raises(ValueError):
        DgpSpec(n=10, seed=1, noise_w=-0.5)
    for field, value in (("cutoff", math.nan), ("noise_y", math.nan), ("tau0", math.inf),
                         ("kappa", math.inf), ("curvature", -math.inf)):  # fmt: skip
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            DgpSpec(n=10, seed=1, **{field: value})


def test_mapping_roundtrip():
    spec = DgpSpec(n=50, seed=9, kappa=2.0, design="fuzzy_homogeneous", compliance=0.4)
    assert DgpSpec(**spec.to_mapping()) == spec


def test_sharp_treatment_is_step():
    spec = DgpSpec(n=2000, seed=5, kappa=4.0)
    sample = simulate(spec)
    assert sample.a is None  # sharp samples carry no treatment column
    cols = simulate(replace(spec, design="fuzzy_homogeneous"))
    assert set(np.unique(cols.a)) <= {0.0, 1.0}


def test_no_manipulation_means_no_confounding_jump():
    spec = DgpSpec(n=1000, seed=11, kappa=0.0)
    truth = dgp_truth(spec, oracle_n=600_000)
    assert abs(truth.confounding_jump) < 0.02
    assert truth.gamma_minus_true == 1.0


def test_manipulation_creates_positive_jump():
    spec = DgpSpec(n=1000, seed=11, kappa=4.0)
    truth = dgp_truth(spec, oracle_n=600_000)
    assert truth.confounding_jump > 0.3


def test_manipulation_preserves_mass_and_moves_it_up():
    spec = DgpSpec(n=200_000, seed=21, kappa=4.0)
    raw = replace(spec, kappa=0.0)
    manipulated, clean = simulate(spec), simulate(raw)
    # reflection only relocates draws from just below to just above the cutoff
    inside = np.abs(clean.d) < spec.window
    assert np.array_equal(manipulated.d[~inside], clean.d[~inside])
    moved = manipulated.d != clean.d
    assert np.all(manipulated.d[moved] >= 0.0)
    assert np.all(clean.d[moved] < 0.0)
    assert_allclose(manipulated.d[moved], -clean.d[moved])
    # more mass just above than just below after sorting
    near = spec.window / 2.0
    assert (
        np.count_nonzero((manipulated.d >= 0) & (manipulated.d < near))
        > 1.3 * np.count_nonzero((manipulated.d < 0) & (manipulated.d > -near))
    )


def test_gamma_minus_recovers_inverse_loading():
    spec = DgpSpec(n=400_000, seed=31, kappa=2.0, proxy_loading=2.0)
    sample = simulate(spec)
    h = rule_of_thumb_bandwidth(sample.d)
    est = estimate_sharp(sample, 0.0, h, KernelSpec("triangle"))
    assert_allclose(est.gamma_minus, [0.5], atol=0.05)


def test_proxy_scale_invariance_of_adjustment():
    taus, gammas = {}, {}
    for loading in (1.0, 2.0):
        spec = DgpSpec(n=100_000, seed=7, kappa=4.0, proxy_loading=loading)
        values, gs = [], []
        for r in range(8):
            sample = simulate(replace(spec, seed=700 + r))
            h = rule_of_thumb_bandwidth(sample.d)
            est = estimate_sharp(sample, 0.0, h, KernelSpec("triangle"))
            values.append(est.tau_pdd)
            gs.append(est.gamma_minus[0])
        taus[loading] = np.mean(values)
        gammas[loading] = np.mean(gs)
    assert_allclose(gammas[2.0], gammas[1.0] / 2.0, rtol=0.15)
    assert abs(taus[2.0] - taus[1.0]) < 0.05


def test_fuzzy_first_stage_matches_compliance():
    spec = DgpSpec(
        n=300_000, seed=13, kappa=2.0, design="fuzzy_homogeneous", compliance=0.6
    )
    sample = simulate(spec)
    above = sample.a[sample.d >= 0.0].mean()
    below = sample.a[sample.d < 0.0].mean()
    assert_allclose(above - below, 0.6, atol=0.02)


def test_monte_carlo_single_rep_equals_direct_estimate():
    spec = DgpSpec(n=4000, seed=0, kappa=3.0)
    report = monte_carlo(spec, reps=1, base_seed=77)
    sample = simulate(replace(spec, seed=77))
    h = rule_of_thumb_bandwidth(sample.d)
    est = estimate_sharp(sample, 0.0, h, KernelSpec("triangle"))
    assert_allclose(report.mean_estimate, est.tau_pdd, rtol=1e-12)
    assert report.reps == 1 and report.n_failed == 0


def test_monte_carlo_deterministic_report():
    spec = DgpSpec(n=1500, seed=0, kappa=3.0)
    r1 = monte_carlo(spec, reps=10, base_seed=5)
    r2 = monte_carlo(spec, reps=10, base_seed=5)
    assert r1 == r2
    r3 = monte_carlo(spec, reps=10, base_seed=6)
    assert r3.mean_estimate != r1.mean_estimate


def test_monte_carlo_counts_failures():
    spec = DgpSpec(n=200, seed=0)
    with pytest.raises(PddError):
        monte_carlo(spec, reps=3, base_seed=1, h=1e-9)
    with pytest.raises(ValueError):
        monte_carlo(spec, reps=0, base_seed=1)


def _per_rep_report(spec, reps, base_seed, kernel, h=None, b=None, mode="paper", skip=()):
    """The sharp report's numbers from a plain loop of ``simulate`` and
    ``bias_corrected_estimate``, one replication at a time.
    """
    kept = []
    for r in range(reps):
        sample = simulate(replace(spec, seed=base_seed + r))
        try:
            h_r = h if h is not None else rule_of_thumb_bandwidth(sample.d)
            b_r = b if b is not None else h_r
            if r in skip:
                continue
            est = bias_corrected_estimate(sample, spec.cutoff, h_r, b_r, kernel, 0.05, mode)
        except PddError:
            continue
        covered = est.ci_lower <= spec.tau0 <= est.ci_upper
        kept.append((est.tau_pdd, est.point.tau_rdd_y, est.tau_pdd_bc, est.se, covered, h_r, b_r))
    est, naive, est_bc, se, covered, hs, bs = map(np.array, zip(*kept))
    out = {"reps": reps, "n_failed": reps - len(kept), "coverage": float(np.mean(covered))}
    for names, values in (
        (("mean_estimate", "bias", "rmse", "sd"), est),
        (("naive_mean", "naive_bias", "naive_rmse", "naive_sd"), naive),
        (("mean_estimate_bc", "bias_bc", "rmse_bc", "sd_bc"), est_bc),
    ):
        out.update(zip(names, MC._summary(values, spec.tau0)))
    out.update(mean_se=float(np.mean(se)), mean_h=float(np.mean(hs)), mean_b=float(np.mean(bs)))
    return out


def _assert_report_matches(report, expected, rtol=1e-12):
    for name in ("reps", "n_failed", "coverage"):
        assert getattr(report, name) == expected[name], name
    for name, want in expected.items():
        got = getattr(report, name)
        assert abs(got - want) <= rtol * max(1.0, abs(got), abs(want)), (name, got, want)


@pytest.mark.parametrize("kind", ["window", "triangle", "gaussian"])
@pytest.mark.parametrize("mode", ["paper", "fitted"])
@pytest.mark.parametrize("b_over_h", [None, 1.5, 0.7])
def test_batched_report_equals_a_per_replication_loop(kind, mode, b_over_h):
    # 20 replications span several blocks with the compact kernels
    spec = DgpSpec(n=2000, seed=0, kappa=4.0)
    kernel = KernelSpec(kind)
    h, b = (None, None) if b_over_h is None else (0.45, 0.45 * b_over_h)
    report = monte_carlo(spec, 20, 31, kernel, h, b, variance_mode=mode)
    _assert_report_matches(report, _per_rep_report(spec, 20, 31, kernel, h, b, mode))


@pytest.mark.parametrize("h, n_failed", [(0.05, 46), (0.1, 20)])
def test_monte_carlo_counts_some_failures_as_a_per_replication_loop(h, n_failed):
    spec = DgpSpec(n=200, seed=0, kappa=4.0)
    report = monte_carlo(spec, 50, 0, h=h)
    assert report.n_failed == n_failed
    # the kept replications fit 3-6 rows on a side, a quadratic through as
    # few as 3 points, so two algebraically equal paths part by up to about
    # 1e-11 there; at healthy sizes the bound is 1e-12
    expected = _per_rep_report(spec, 50, 0, KernelSpec(), h=h)
    _assert_report_matches(report, expected, rtol=1e-10)


def test_block_breach_of_one_replication_counts_it_as_failed(monkeypatch):
    # the stacked form is off for replication 2's right side in the block
    # (segment 2 * 2 + 1) and for every single fit, so that replication is
    # refitted alone, fails there and is counted; the rest are untouched
    spec = DgpSpec(n=2000, seed=0, kappa=4.0)
    real_matrix = pdd.inference.correction_matrix

    def shifted(*args):
        coefficients = real_matrix(*args).copy()
        coefficients[2 * 2 + 1 if coefficients.ndim == 2 else ...] *= 1.0 + 1e-6
        return coefficients

    with monkeypatch.context() as patch:
        patch.setattr(pdd.inference, "correction_matrix", shifted)
        report = monte_carlo(spec, 6, 31)
    assert report.n_failed == 1
    expected = _per_rep_report(spec, 6, 31, KernelSpec(), skip={2})
    expected["n_failed"] = 1
    _assert_report_matches(report, expected)


def test_block_size_moves_no_output_beyond_rounding(monkeypatch):
    spec = DgpSpec(n=2000, seed=0, kappa=4.0)
    blocks = []
    real_block = MC._fit_block

    def recorded(cuts, *args):
        blocks.append([sample.n for sample, _ in cuts])
        return real_block(cuts, *args)

    with monkeypatch.context() as patch:
        patch.setattr(MC, "_fit_block", recorded)
        patch.setattr(MC, "BLOCK_ROWS", 1)  # one replication per block
        alone = monte_carlo(spec, 12, 3)
        assert [len(block) for block in blocks] == [1] * 12
        blocks.clear()
        patch.setattr(MC, "BLOCK_ROWS", 1500)
        together = monte_carlo(spec, 12, 3)
        # a block is fitted as soon as it reaches the budget, never later
        assert 1 < len(blocks) < 12
        assert all(sum(block[:-1]) < 1500 <= sum(block) for block in blocks[:-1])
        assert sum(blocks[-1][:-1]) < 1500
        cuts = sorted(n for block in blocks for n in block)
        blocks.clear()
        patch.setattr(MC, "SOLO_ROWS", cuts[6])  # the larger cuts are fitted alone
        solo = monte_carlo(spec, 12, 3)
    assert sorted(n for block in blocks for n in block) == [n for n in cuts if n <= cuts[6]]
    expected = {name: getattr(alone, name) for name in _per_rep_report(spec, 12, 3, KernelSpec())}
    _assert_report_matches(together, expected)
    _assert_report_matches(solo, expected)


@pytest.mark.parametrize("q", [1, 2])
def test_block_fit_matches_single_fits_and_flags_what_they_reject(q, monkeypatch):
    rng = np.random.default_rng(5)
    good = [random_dataset(rng, n=300, q=q) for _ in range(3)]
    base = random_dataset(rng, n=300, q=q)
    bad = [
        replace(base, y=base.y * 1e160),  # the variance overflows
        replace(base, Z=np.where(base.d[:, None] < 0.0, 0.0, base.Z)),  # no instrument on the left
        replace(base, d=np.round(base.d, 1)),  # 2 distinct values per side within h
    ]
    samples = good[:2] + bad + good[2:]
    kernel = KernelSpec("triangle")
    h = np.array([0.5, 0.6, 0.5, 0.5, 0.15, 0.7])
    b = np.array([0.5, 0.9, 0.5, 0.5, 0.15, 0.6])
    cuts = [pdd.estimator._cut(s, 0.0, max(hh, bb), kernel) for s, hh, bb in zip(samples, h, b)]
    compared = []
    real_agree = pdd.inference._agree

    def recorded(a, b):
        compared.append((a, b))
        return real_agree(a, b)

    monkeypatch.setattr(pdd.inference, "_agree", recorded)
    ok, tau, naive, tau_bc, se, lower, upper = pdd.inference._fit_block(
        cuts, 0.0, h, b, kernel, 300, 0.05, "paper"
    )
    assert ok.tolist() == [True, True, False, False, False, True]
    # both equivalence checks ran, each over every replication of the block
    checked = [value for pair in compared for value in pair if value is tau or value is tau_bc]
    assert len(compared) == 2 and {id(value) for value in checked} == {id(tau), id(tau_bc)}
    for i, sample in enumerate(samples):
        if not ok[i]:
            with np.errstate(all="ignore"), pytest.raises(PddError):
                bias_corrected_estimate(sample, 0.0, h[i], b[i], kernel)
            continue
        est = bias_corrected_estimate(sample, 0.0, h[i], b[i], kernel)
        want = (est.tau_pdd, est.point.tau_rdd_y, est.tau_pdd_bc, est.se, est.ci_lower, est.ci_upper)
        got = (tau[i], naive[i], tau_bc[i], se[i], lower[i], upper[i])
        assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def _with_defect(sample, defect):
    """``sample`` with one defect a single fit rejects, or unchanged."""
    right = sample.d >= 0.0
    if defect == "two_values":  # the right side's quadratic fit has 2 values
        return replace(sample, d=np.where(right, np.where(sample.d < 0.5, 0.1, 0.2), sample.d))
    if defect == "no_instrument":  # the left side's Schur complement is 0
        return replace(sample, Z=np.where(right[:, None], sample.Z, 0.0))
    if defect == "overflow":  # the variance overflows
        return replace(sample, y=sample.y * 1e160)
    return sample


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    q=st.sampled_from([1, 2]),
    kind=st.sampled_from(["window", "triangle", "gaussian"]),
    b_over_h=st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3),
    mode=st.sampled_from(["paper", "fitted"]),
    defect=st.sampled_from([None, "two_values", "no_instrument", "overflow"]),
)
def test_block_fit_agrees_with_the_single_fit(seed, q, kind, b_over_h, mode, defect):
    rng = np.random.default_rng(seed)
    samples = [random_dataset(rng, n=300, q=q) for _ in range(3)]
    samples[1] = _with_defect(samples[1], defect)
    kernel = KernelSpec(kind)
    h = rng.uniform(0.25, 0.8, 3)
    b = h * np.array(b_over_h)
    cuts = [pdd.estimator._cut(s, 0.0, max(hh, bb), kernel) for s, hh, bb in zip(samples, h, b)]
    ok, *values = pdd.inference._fit_block(cuts, 0.0, h, b, kernel, 300, 0.05, mode)
    for i, sample in enumerate(samples):
        try:
            with np.errstate(all="ignore"):
                est = bias_corrected_estimate(sample, 0.0, h[i], b[i], kernel, variance_mode=mode)
        except PddError:
            assert not ok[i]
            continue
        assert ok[i]
        want = (est.tau_pdd, est.point.tau_rdd_y, est.tau_pdd_bc, est.se, est.ci_lower, est.ci_upper)
        for got, expected in zip((column[i] for column in values), want):
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(got), abs(expected))


@pytest.mark.parametrize("design", ["sharp", "fuzzy_homogeneous"])
def test_monte_carlo_rejects_an_unknown_variance_mode_before_any_draw(monkeypatch, design):
    spec = DgpSpec(n=2000, seed=0, kappa=4.0, design=design)

    def no_draw(*args):
        raise AssertionError("a sample was drawn before the check")

    with monkeypatch.context() as patch:
        patch.setattr(MC, "simulate", no_draw)
        with pytest.raises(ValueError, match="variance mode"):
            monte_carlo(spec, reps=3, base_seed=0, variance_mode="bogus")
        with pytest.raises(ValueError, match="alpha"):
            monte_carlo(spec, reps=3, base_seed=0, alpha=1.5)
    assert monte_carlo(spec, reps=3, base_seed=0, variance_mode="fitted").reps == 3


def test_monte_carlo_kappa_zero_adjustment_vanishes():
    spec = DgpSpec(n=4000, seed=0, kappa=0.0)
    report = monte_carlo(spec, reps=60, base_seed=40)
    gap = abs(report.mean_estimate - report.naive_mean)
    assert gap < 3.0 * report.sd / np.sqrt(report.reps)


def test_fuzzy_report_fields():
    spec = DgpSpec(n=20_000, seed=0, kappa=3.0, design="fuzzy_homogeneous")
    report = monte_carlo(spec, reps=10, base_seed=3)
    assert report.mean_first_stage is not None
    assert abs(report.mean_first_stage - 0.6) < 0.05
    assert report.coverage is None and report.mean_se is None
    mapping = report.to_mapping()
    assert "mean_first_stage" in mapping and "coverage" not in mapping
