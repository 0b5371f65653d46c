import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdd import (
    DgpSpec,
    KernelSpec,
    PddError,
    dgp_truth,
    estimate_sharp,
    monte_carlo,
    rule_of_thumb_bandwidth,
    simulate,
)


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
