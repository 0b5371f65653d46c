import errno
import json
import math
import os
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import pdd
from pdd import (
    DgpSpec,
    KernelSpec,
    PddError,
    WeakFirstStage,
    bias_corrected_estimate,
    dgp_truth,
    estimate_fuzzy,
    estimate_sharp,
    monte_carlo,
    rule_of_thumb_bandwidth,
    simulate,
)
from pdd.cli import main
from conftest import assert_no_children, draw_stage_dying_at, random_dataset

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


#: SHA-256 digests (first 32 hex digits) of each column ``_draw`` returns,
#: little-endian float64, taken from the code before the columns were built
#: in place: any change of a draw or of an expression's rounding shows.
DRAW_DIGESTS = {
    DgpSpec(n=3000, seed=11): {
        "u": "984811c7f176df4e3ff7cebe0e3fea1a",
        "z": "76db1f47c49275adbd0323bc5bef39fc",
        "d": "5259065c5438c4da289917231655b299",
        "a": "b651704b6d524498660dd403065f76de",
        "w": "f2c5c2ffcd2f2666126ce8f396b1d52e",
        "y": "5c99d194ea190fd51c2fd8da0ab18de7",
    },
    DgpSpec(n=3000, seed=12, kappa=2.5, design="fuzzy_homogeneous", curvature=-1.0): {
        "u": "bec4a456bbacf53b88cceee2f741e9e2",
        "z": "7be05c9dad6c1f0e1b5e3fa67410b572",
        "d": "0c5ea87ab043e481fb442a09c56990c7",
        "a": "0f859654277253d9551f976ab794a410",
        "w": "1e5b2a19a8eb067db57df00b83e7d9a6",
        "y": "d83aecce532de796d7e8f0d0ad95b293",
    },
    DgpSpec(n=3000, seed=13, kappa=4.0, cutoff=0.7, curvature=8.0): {
        "u": "fc755c3b589746171471504cc163cbb3",
        "z": "5705c0ff2f68c9a741108524e814efff",
        "d": "1834e62ad4a4e678757bcfcbab712c7e",
        "a": "603191a2e15624f8e9e65263108160be",
        "w": "464b40fbcbbad483bd15e9ad060e672d",
        "y": "d3d980a867fcde56212627a7c1834982",
    },
    DgpSpec(
        n=3000, seed=14, kappa=4.0, cutoff=-1.3, design="fuzzy_homogeneous",
        proxy_loading=0.5, noise_z=0.0,
    ): {  # fmt: skip
        "u": "1bdff8582fe05deec26579463897c53e",
        "z": "1bdff8582fe05deec26579463897c53e",
        "d": "c35a006abcd5da2100e67447cca73de3",
        "a": "aae8f265503bb8a0a5fd7d4cc9a7eaff",
        "w": "e9f644fa52f40df3c356fbd56460ea08",
        "y": "20e823857ebf6e4890df2fcaabe7b77f",
    },
}


@pytest.mark.parametrize("spec", DRAW_DIGESTS, ids=range(len(DRAW_DIGESTS)))
def test_every_drawn_column_keeps_its_bits(spec):
    import hashlib

    columns = MC._draw(spec)
    got = {
        name: hashlib.sha256(np.ascontiguousarray(x, dtype="<f8").tobytes()).hexdigest()[:32]
        for name, x in columns.items()
    }
    assert got == DRAW_DIGESTS[spec]


@settings(max_examples=80, deadline=None)
@given(
    design=st.sampled_from(MC.DGP_DESIGNS),
    kappa=st.sampled_from([0.0, 4.0]),
    cutoff=st.sampled_from([0.0, 0.7, -1.3]),
    zero_noises=st.sets(st.sampled_from(["noise_z", "noise_d", "noise_w", "noise_y"])),
    n=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_the_outcome_stage_on_any_rows_equals_the_whole_draw(
    design, kappa, cutoff, zero_noises, n, seed, data
):
    spec = DgpSpec(
        n=n, seed=seed, kappa=kappa, cutoff=cutoff, design=design,
        **dict.fromkeys(zero_noises, 0.0),
    )  # fmt: skip
    full = MC._draw(spec)
    draws = MC._draw_stage(spec, seed)
    kept = {name: x.copy() for name, x in draws.items()}
    for name in ("u", "z", "d"):
        assert draws[name].tobytes() == full[name].tobytes()
    cut, _ = MC._cut_rows(draws["d"], cutoff, 0.5, KernelSpec())
    cut = np.arange(n) if cut is None else cut
    picked = data.draw(st.sets(st.integers(0, n - 1)))
    row_sets = (np.arange(0), np.arange(n), cut, np.array(sorted(picked), dtype=np.intp))
    for rows in row_sets:
        y, w, a = (np.full(rows.size, np.nan) for _ in range(3))
        # a Monte Carlo block asks for a only in the fuzzy design
        with_a = design != "sharp" or data.draw(st.booleans())
        MC._outcomes(spec, draws, rows, y, w, a if with_a else None)
        assert y.tobytes() == full["y"][rows].tobytes()
        assert w.tobytes() == full["w"][rows].tobytes()
        if with_a:
            assert a.tobytes() == full["a"][rows].tobytes()
    # the outcome stage on an index array writes nothing of the draws
    assert all(draws[name].tobytes() == x.tobytes() for name, x in kept.items())


@pytest.mark.parametrize("kappa", [0.0, 4.0])
def test_the_truth_bins_the_whole_draw(kappa):
    # dgp_truth makes only the draws of u, z and d: its truth is the one
    # binned from every column of the oracle draw, in either design
    oracle_n = 200_000
    for design in MC.DGP_DESIGNS:
        spec = DgpSpec(n=1000, seed=17, kappa=kappa, cutoff=0.3, design=design, proxy_loading=0.8)
        cols = MC._draw(replace(spec, n=oracle_n, seed=spec.seed + MC.TRUTH_SEED_OFFSET))
        truth = MC.DgpTruth(1.0, 1.0 / 0.8, _binned_jump(cols, spec.cutoff, spec.window / 10.0))
        assert dgp_truth(spec, oracle_n=oracle_n) == truth, design


def _binned_jump(cols, cutoff, width):
    """The jump of the mean of ``u`` at ``cutoff``: on each side, the means
    of the bins at distances (0, width) and (width, 2 width) extrapolated
    linearly to the cutoff.
    """
    rel, u = cols["d"] - cutoff, cols["u"]

    def boundary_mean(near, far):
        return 1.5 * u[near].mean() - 0.5 * u[far].mean()

    right = boundary_mean((rel >= 0.0) & (rel < width), (rel >= width) & (rel < 2 * width))
    left = boundary_mean((-rel > 0.0) & (-rel <= width), (-rel >= width) & (-rel < 2 * width))
    return right - left


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


def _per_rep_report(spec, reps, base_seed, kernel, h=None, b=None, skip=()):
    """The report's numbers from a plain loop of ``simulate`` and what
    ``pdd estimate`` runs on each sample, one replication at a time:
    ``bias_corrected_estimate`` and, for the fuzzy design, then
    ``estimate_fuzzy``; a replication fails if either raises.
    """
    fuzzy = spec.design != "sharp"
    kept = []
    for r in range(reps):
        sample = simulate(replace(spec, seed=base_seed + r))
        try:
            h_r = h if h is not None else rule_of_thumb_bandwidth(sample.d)
            b_r = b if b is not None else h_r
            if r in skip:
                continue
            est = bias_corrected_estimate(sample, spec.cutoff, h_r, b_r, kernel)
            point = estimate_fuzzy(sample, spec.cutoff, h_r, kernel) if fuzzy else est.point
        except PddError:
            continue
        if fuzzy:
            first = point.tau_rdd_a
            kept.append((h_r, b_r, point.fuzzy_estimate, point.tau_rdd_y / first, first))
        else:
            covered = est.ci_lower <= spec.tau0 <= est.ci_upper
            kept.append((h_r, b_r, est.tau_pdd, point.tau_rdd_y, est.tau_pdd_bc, est.se, covered))
    hs, bs, est, naive, *rest = map(np.array, zip(*kept))
    out = {"reps": reps, "n_failed": reps - len(kept)}
    summaries = [
        (("mean_estimate", "bias", "rmse", "sd"), est),
        (("naive_mean", "naive_bias", "naive_rmse", "naive_sd"), naive),
    ]
    if fuzzy:
        out["mean_first_stage"] = float(np.mean(rest[0]))
    else:
        est_bc, se, covered = rest
        summaries.append((("mean_estimate_bc", "bias_bc", "rmse_bc", "sd_bc"), est_bc))
        out.update(coverage=float(np.mean(covered)), mean_se=float(np.mean(se)))
    for names, values in summaries:
        out.update(zip(names, MC._summary(values, spec.tau0)))
    out.update(mean_h=float(np.mean(hs)), mean_b=float(np.mean(bs)))
    return out


def _assert_report_matches(report, expected, rtol=1e-12):
    for name in ("reps", "n_failed", "coverage"):
        assert getattr(report, name) == expected.get(name), name
    for name, want in expected.items():
        got = getattr(report, name)
        assert abs(got - want) <= rtol * max(1.0, abs(got), abs(want)), (name, got, want)


@pytest.mark.parametrize("kind", ["window", "triangle", "gaussian"])
@pytest.mark.parametrize("b_over_h", [None, 1.5, 0.7])
def test_batched_report_equals_a_per_replication_loop(kind, b_over_h):
    # 20 replications span several blocks with the compact kernels
    spec = DgpSpec(n=2000, seed=0, kappa=4.0)
    kernel = KernelSpec(kind)
    h, b = (None, None) if b_over_h is None else (0.45, 0.45 * b_over_h)
    report = monte_carlo(spec, 20, 31, kernel, h, b)
    _assert_report_matches(report, _per_rep_report(spec, 20, 31, kernel, h, b))


@pytest.mark.parametrize("kind", ["window", "triangle", "gaussian"])
@pytest.mark.parametrize("b_over_h", [None, 1.5, 0.7])
def test_fuzzy_report_equals_a_per_replication_loop(kind, b_over_h):
    # where b <= h a cut holds the rows each single fit sums, in their
    # order, so every number is the same; where b > h it also holds
    # zero-weight rows out to b, and the sums round apart
    spec = DgpSpec(n=2000, seed=0, kappa=4.0, design="fuzzy_homogeneous")
    kernel = KernelSpec(kind)
    h, b = (None, None) if b_over_h is None else (0.45, 0.45 * b_over_h)
    report = monte_carlo(spec, 20, 31, kernel, h, b)
    rtol = 1e-12 if b_over_h == 1.5 else 0.0
    _assert_report_matches(report, _per_rep_report(spec, 20, 31, kernel, h, b), rtol)


def test_a_thin_fuzzy_study_fails_where_the_fuzzy_estimate_would():
    # on cuts this thin the bias fit at b fails now and then where the
    # fuzzy point estimate at h alone would not, and so the replication does
    spec = DgpSpec(n=150, seed=0, kappa=4.0, design="fuzzy_homogeneous", compliance=0.2)
    report = monte_carlo(spec, 60, 0, h=0.2, b=0.12)
    expected = _per_rep_report(spec, 60, 0, KernelSpec(), h=0.2, b=0.12)
    _assert_report_matches(report, expected, rtol=0.0)
    point_failures = 0
    for r in range(60):
        try:
            estimate_fuzzy(simulate(replace(spec, seed=r)), 0.0, 0.2, KernelSpec())
        except PddError:
            point_failures += 1
    assert 0 < point_failures < report.n_failed < 60


@pytest.mark.parametrize("h, n_failed", [(0.05, 46), (0.1, 20)])
def test_monte_carlo_counts_some_failures_as_a_per_replication_loop(
    monkeypatch, workers, h, n_failed
):
    # the block's checks alone decide which replications fail: no single fit
    # is made, not even of a replication the block flags; one process runs
    # them all, so every fit would meet the patches below here
    workers(1)
    spec = DgpSpec(n=200, seed=0, kappa=4.0)

    def no_single_fit(*args, **kwargs):
        raise AssertionError("the sharp Monte Carlo path made a single fit")

    with monkeypatch.context() as patch:
        for module, name in (
            (pdd.estimator, "estimate_sharp"),
            (pdd.inference, "estimate_sharp"),
            (pdd.inference, "side_correction"),
        ):
            patch.setattr(module, name, no_single_fit)
        report = monte_carlo(spec, 50, 0, h=h)
    assert report.n_failed == n_failed
    # the kept replications fit 3-6 rows on a side, a quadratic through as
    # few as 3 points, so two algebraically equal paths part by up to about
    # 1e-11 there; at healthy sizes the bound is 1e-12
    expected = _per_rep_report(spec, 50, 0, KernelSpec(), h=h)
    _assert_report_matches(report, expected, rtol=1e-10)


def test_block_breach_of_one_replication_counts_it_as_failed(monkeypatch, workers):
    # the stacked form is off for replication 2's right side in the block
    # (segment 2 * 2 + 1) and for every single fit, so the block flags that
    # replication and it is counted as failed; the rest are untouched. One
    # process fits all six in one block, which the segment index assumes
    workers(1)
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


def test_block_size_moves_no_output_beyond_rounding(monkeypatch, workers):
    # every side of a block sums as in its single fit, and every solve is one
    # matrix's, so no report moves with the block size; the blocks are
    # recorded in this process, so no replication may run in a child
    workers(1)
    spec = DgpSpec(n=2000, seed=0, kappa=4.0)
    blocks = []
    real_block = MC.fit_block

    def recorded(d, S, Z, counts, *args):
        blocks.append((counts[0::2] + counts[1::2]).tolist())
        return real_block(d, S, Z, counts, *args)

    reports = []
    with monkeypatch.context() as patch:
        patch.setattr(MC, "fit_block", recorded)
        for budget, n_blocks in ((1, 12), (1500, None), (MC.BLOCK_ROWS, 1), (12 * spec.n, 1)):
            blocks.clear()
            patch.setattr(MC, "BLOCK_ROWS", budget)
            reports.append(monte_carlo(spec, 12, 3))
            assert sum(map(len, blocks)) == 12
            assert (len(blocks) == n_blocks) if n_blocks else (1 < len(blocks) < 12)
            # a block is fitted as soon as it reaches the budget, never later
            assert all(sum(block[:-1]) < budget <= sum(block) for block in blocks[:-1])
            assert sum(blocks[-1][:-1]) < budget
    assert all(report == reports[0] for report in reports)
    expected = _per_rep_report(spec, 12, 3, KernelSpec())
    _assert_report_matches(reports[0], expected)


def _block(cuts):
    """``(d, S, Z, counts)`` of a block of cut samples ``(sample, k)``, their
    rows one after another; a treatment ``a`` is the last row of ``S``.
    """
    columns = np.hstack([
        np.vstack([s.d, s.y, s.W.T, *([] if s.a is None else [s.a]), s.Z.T]) for s, _ in cuts
    ])  # fmt: skip
    q = cuts[0][0].q
    counts = np.array([c for sample, k in cuts for c in (k, sample.n - k)])
    return columns[0], columns[1:-q], columns[-q:], counts


def _fit_block(cuts, *args):
    """``fit_block`` of cut samples ``(sample, k)``."""
    return pdd.inference.fit_block(*_block(cuts), *args)


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
    ok, tau, jumps, tau_bc, se, lower, upper = _fit_block(cuts, 0.0, h, b, kernel, 300, 0.05)
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
        got = (tau[i], jumps[i, 0], tau_bc[i], se[i], lower[i], upper[i])
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
    defect=st.sampled_from([None, "two_values", "no_instrument", "overflow"]),
)
# an ill-conditioned left side (Schur rcond 2.6e-4) that amplified a
# rounding difference between the two paths' moments past the bound
@example(seed=14519, q=2, kind="window", b_over_h=[1.0, 1.0, 1.0], defect=None)
def test_block_fit_agrees_with_the_single_fit(seed, q, kind, b_over_h, defect):
    rng = np.random.default_rng(seed)
    samples = [random_dataset(rng, n=300, q=q) for _ in range(3)]
    samples[1] = _with_defect(samples[1], defect)
    kernel = KernelSpec(kind)
    h = rng.uniform(0.25, 0.8, 3)
    b = h * np.array(b_over_h)
    cuts = [pdd.estimator._cut(s, 0.0, max(hh, bb), kernel) for s, hh, bb in zip(samples, h, b)]
    ok, tau, jumps, *values = _fit_block(cuts, 0.0, h, b, kernel, 300, 0.05)
    values = (tau, jumps[:, 0], *values)
    for i, sample in enumerate(samples):
        try:
            with np.errstate(all="ignore"):
                est = bias_corrected_estimate(sample, 0.0, h[i], b[i], kernel)
        except PddError:
            assert not ok[i]
            continue
        assert ok[i]
        want = (est.tau_pdd, est.point.tau_rdd_y, est.tau_pdd_bc, est.se, est.ci_lower, est.ci_upper)
        got = tuple(column[i] for column in values)
        if b[i] <= h[i]:  # both paths sum the same rows in the same order
            assert got == want
        for value, expected in zip(got, want):
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(value), abs(expected))


def _with_treatment(sample, rng, jump=0.6):
    """``sample`` with a binary treatment ``a`` whose mean jumps by ``jump``
    at 0, or with ``a`` linear in ``d`` where ``jump`` is 0.
    """
    if jump == 0.0:
        return replace(sample, a=0.5 + 0.25 * sample.d)
    above = (sample.d >= 0.0).astype(float)
    return replace(sample, a=(rng.random(sample.n) < 0.2 + jump * above).astype(float))


@pytest.mark.parametrize("q", [1, 2])
def test_a_treatment_row_of_S_is_fitted_and_moves_no_sharp_output(q):
    # the treatment's jump is fitted like y's, and it enters neither the
    # instrumented solves, nor the checks, nor the variance
    rng = np.random.default_rng(9)
    samples = [_with_treatment(random_dataset(rng, n=300, q=q), rng) for _ in range(3)]
    samples[1] = _with_defect(samples[1], "no_instrument")
    kernel = KernelSpec("triangle")
    h, b = np.array([0.5, 0.5, 0.45]), np.array([0.5, 0.4, 0.7])
    cuts = [pdd.estimator._cut(s, 0.0, max(hh, bb), kernel) for s, hh, bb in zip(samples, h, b)]
    d, S, Z, counts = _block(cuts)
    ok, tau, jumps, *rest = pdd.inference.fit_block(d, S, Z, counts, 0.0, h, b, kernel, 300, 0.05)
    sharp = pdd.inference.fit_block(d, S[:-1], Z, counts, 0.0, h, b, kernel, 300, 0.05)
    assert ok.tolist() == sharp[0].tolist() == [True, False, True]
    for got, want in zip((tau, jumps[:, :-1], *rest), sharp[1:]):
        assert np.array_equal(got[ok], want[ok])
    assert jumps.shape == (3, 2 + q)
    for i in (0, 2):
        point = estimate_fuzzy(samples[i], 0.0, h[i], kernel)
        assert abs(jumps[i, -1] - point.tau_rdd_a) <= 1e-12


def test_a_treatment_without_a_jump_fails_its_replication_as_estimate_fuzzy_does():
    rng = np.random.default_rng(10)
    jumps = (0.6, 0.0, 0.4)
    samples = [_with_treatment(random_dataset(rng, n=300), rng, jump) for jump in jumps]
    kernel = KernelSpec("triangle")
    h = np.array([0.5, 0.5, 0.6])
    cuts = [pdd.estimator._cut(s, 0.0, hh, kernel) for s, hh in zip(samples, h)]
    d, S, Z, counts = _block(cuts)
    assert pdd.inference.fit_block(d, S, Z, counts, 0.0, h, h, kernel, 300, 0.05)[0].all()
    spec = DgpSpec(n=300, seed=0, design="fuzzy_homogeneous")
    block = [(i, k, cut.n, h[i], h[i]) for i, (cut, k) in enumerate(cuts)]
    results = MC._fit_replications(block, np.vstack([d, S, Z]), spec, kernel, 0.05)
    assert sorted(results) == [0, 2]
    with pytest.raises(WeakFirstStage):
        estimate_fuzzy(samples[1], 0.0, h[1], kernel)
    for i in (0, 2):
        point = estimate_fuzzy(samples[i], 0.0, h[i], kernel)
        first = point.tau_rdd_a
        assert results[i] == (point.fuzzy_estimate, point.tau_rdd_y / first, h[i], h[i], first)


def test_a_block_fit_holds_a_few_windows_of_rows_whatever_its_size():
    # per-row tables are formed a window at a time, so a block of 120k rows
    # peaks under twice a block of 4k; block-long tables took about 240
    # bytes per row
    import tracemalloc

    spec, kernel = DgpSpec(n=5000, seed=0, kappa=4.0), KernelSpec()
    cuts, hs = [], []
    while sum(cut.n for cut, _ in cuts) < 120_000:
        sample = simulate(replace(spec, seed=len(cuts)))
        h = rule_of_thumb_bandwidth(sample.d)
        cuts.append(pdd.estimator._cut(sample, 0.0, h, kernel))
        hs.append(h)
    peaks = []
    for reps in (3, len(cuts)):  # 3 cuts hold about 4k rows
        h = np.array(hs[:reps])
        args = (*_block(cuts[:reps]), 0.0, h, h, kernel, spec.n, 0.05)
        pdd.inference.fit_block(*args)  # warm up
        tracemalloc.start()
        try:
            ok = pdd.inference.fit_block(*args)[0]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert ok.all()
    assert 3500 < sum(cut.n for cut, _ in cuts[:3]) < 4500
    assert peaks[1] < 2 * peaks[0]


@pytest.mark.parametrize("design", ["sharp", "fuzzy_homogeneous"])
def test_monte_carlo_rejects_an_unknown_variance_mode_before_any_draw(
    monkeypatch, capsys, workers, design
):
    # ``paper`` is the one variance mode: ``pdd mc`` rejects any other as a
    # bad flag value, and ``monte_carlo`` a bad level, before the first draw
    workers(1)  # every draw would be made in this process, where it is patched
    spec = DgpSpec(n=2000, seed=0, kappa=4.0, design=design)
    argv = ["mc", "--n", "2000", "--seed", "0", "--kappa", "4", "--reps", "3", "--design", design]

    def no_draw(*args):
        raise AssertionError("a sample was drawn before the check")

    with monkeypatch.context() as patch:
        patch.setattr(MC, "_draw_stage", no_draw)
        for mode in ("fitted", "bogus"):
            assert main([*argv, "--variance-mode", mode]) == 64
            assert capsys.readouterr().out == ""
        with pytest.raises(ValueError, match="alpha"):
            monte_carlo(spec, reps=3, base_seed=0, alpha=1.5)
    assert main([*argv, "--variance-mode", "paper"]) == 0
    assert json.loads(capsys.readouterr().out)["reps"] == 3


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


# ------------------------------------------------- studies split across workers

_CALIBRATION = DgpSpec(n=2000, seed=0, kappa=4.0)

#: Studies whose report must not depend on the worker count: ``(spec,
#: monte_carlo keyword arguments)``.
WORKER_CELLS = {
    "triangle, b = h": (_CALIBRATION, {}),
    "window, b > h": (_CALIBRATION, {"kernel": KernelSpec("window"), "h": 0.45, "b": 0.6}),
    "gaussian, b < h": (_CALIBRATION, {"kernel": KernelSpec("gaussian"), "h": 0.45, "b": 0.3}),
    "fuzzy": (replace(_CALIBRATION, design="fuzzy_homogeneous"), {}),
    # a cut of 3-6 rows on a side fails now and then
    "some failed": (DgpSpec(n=200, seed=0, kappa=4.0), {"h": 0.1}),
}


@pytest.mark.parametrize("cell", WORKER_CELLS)
def test_report_is_identical_at_any_worker_count(workers, cell):
    spec, kwargs = WORKER_CELLS[cell]
    reports = []
    for count in (1, 2, 3):
        workers(count)
        reports.append(monte_carlo(spec, 11, 31, **kwargs).to_mapping())
        assert_no_children()
    assert reports[1] == reports[0] and reports[2] == reports[0]
    assert (0 < reports[0]["n_failed"] < 11) == (cell == "some failed")


def test_an_all_failed_study_raises_the_same_error_at_any_worker_count(workers):
    for count in (1, 2, 3):
        workers(count)
        with pytest.raises(PddError) as raised:
            monte_carlo(DgpSpec(n=200, seed=0), reps=6, base_seed=1, h=1e-9)
        assert (type(raised.value), str(raised.value)) == (PddError, "all 6 replications failed")
        assert_no_children()


def test_a_study_whose_draws_overflow_names_the_column_at_any_worker_count(workers):
    # each field is finite, but every replication's y overflows
    spec = DgpSpec(n=2000, seed=0, tau0=1.7e308, curvature=1.7e308, noise_y=1e308)
    for count in (1, 2):
        workers(count)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as raised:
            monte_carlo(spec, reps=3, base_seed=0)
        assert str(raised.value) == "the drawn column y is not finite: the scenario overflows"
        assert_no_children()


def _bias_bandwidth_failing_from_replication_3(spec, base_seed):
    """A bias bandwidth below a tenth of the rule-of-thumb h of replications
    3, 4 and 5 of six, and of none before them.
    """
    hs = [rule_of_thumb_bandwidth(simulate(replace(spec, seed=base_seed + r)).d) for r in range(6)]
    b = max(hs[:3]) / 10.0
    assert [h / 10.0 > b for h in hs] == [False] * 3 + [True] * 3
    return b


def test_a_worker_error_is_raised_with_its_type_and_message(workers):
    # replications 3-5 raise, in the second range of two and the second and
    # third of three
    spec = DgpSpec(n=2000, seed=1, kappa=4.0)
    b = _bias_bandwidth_failing_from_replication_3(spec, 3)
    for count in (1, 2, 3):
        workers(count)
        with pytest.raises(ValueError, match="^bias bandwidth below h/10 is not supported$"):
            monte_carlo(spec, 6, 3, b=b)
        assert_no_children()


def test_a_worker_that_dies_leaves_its_range_to_this_process(monkeypatch, workers):
    workers(1)
    want = monte_carlo(_CALIBRATION, 6, 0).to_mapping()
    workers(2)
    monkeypatch.setattr(MC, "_draw_stage", draw_stage_dying_at(4))
    assert monte_carlo(_CALIBRATION, 6, 0).to_mapping() == want
    assert_no_children()


@pytest.mark.parametrize("dies_at", [2, 4])
def test_the_lowest_failing_range_raises(monkeypatch, workers, dies_at):
    # three ranges, replications 0-1, 2-3 and 4-5; replication 3 raises
    # ValueError in the second, and the replication ``dies_at`` ends its
    # worker in the second range or the third. This process runs a dead
    # worker's range, so it meets replication 3's error as one process does
    spec = DgpSpec(n=2000, seed=1, kappa=4.0)
    b = _bias_bandwidth_failing_from_replication_3(spec, 3)
    workers(3)
    monkeypatch.setattr(MC, "_draw_stage", draw_stage_dying_at(3 + dies_at))
    with pytest.raises(ValueError, match="^bias bandwidth below h/10 is not supported$"):
        monte_carlo(spec, 6, 3, b=b)
    assert_no_children()


def _warn_threaded_fork():
    """The warning Python 3.12 and later give at a fork in a process with
    more than one OS thread."""
    warnings.warn(
        f"This process (pid={os.getpid()}) is multi-threaded, use of fork() may lead to "
        "deadlocks in the child.",
        DeprecationWarning,
        stacklevel=2,
    )


def test_a_fork_that_warns_of_other_threads_still_makes_its_worker(monkeypatch):
    # as os.fork does beside the OpenBLAS pool from Python 3.12 on
    real = os.fork

    def warning_fork():
        _warn_threaded_fork()
        return real()

    monkeypatch.setattr(os, "fork", warning_fork)
    children = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            pdd._forked.fork_each(children, [lambda: ["from the child"]])
            assert children[0] is not None
            assert pdd._forked.take(children, 1, lambda: "here") == "from the child"
        finally:
            pdd._forked.stop(children)
        with pytest.raises(DeprecationWarning):  # ignored around the fork only
            _warn_threaded_fork()
    assert_no_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts this process's fds")
@pytest.mark.parametrize("error", [KeyboardInterrupt, RuntimeError])
def test_a_fork_that_raises_anything_closes_both_pipe_ends(monkeypatch, error):
    def raising_fork():
        raise error("at the fork")

    before = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "fork", raising_fork)
    with pytest.raises(error, match="^at the fork$"):
        pdd._forked.fork(lambda: ["never sent"])
    assert len(os.listdir("/proc/self/fd")) == before


@pytest.mark.parametrize("made", [0, 1])
@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_worker_the_system_cannot_make_leaves_its_range_to_this_process(
    monkeypatch, workers, call, made
):
    # three ranges; from the (made + 1)-th child on, none can be made
    workers(1)
    want = monte_carlo(_CALIBRATION, 6, 0).to_mapping()
    calls, real = [], getattr(os, call)

    def failing(*args):
        calls.append(call)
        if len(calls) > made:
            raise OSError(errno.EAGAIN if call == "fork" else errno.EMFILE, "refused")
        return real(*args)

    monkeypatch.setattr(os, call, failing)
    workers(3)
    assert monte_carlo(_CALIBRATION, 6, 0).to_mapping() == want
    assert len(calls) == made + 1
    assert_no_children()
