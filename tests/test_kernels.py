import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pdd import (
    KernelSpec,
    SingularSupport,
    kernel_value,
    local_poly_fit,
    scaled_basis,
    sided_weights,
)


def test_closed_forms():
    assert kernel_value(KernelSpec("triangle"), 0.0) == 1.0
    assert kernel_value(KernelSpec("window"), 0.5) == 1.0
    assert kernel_value(KernelSpec("triangle"), 2.0) == 0.0
    assert kernel_value(KernelSpec("window"), 1.0) == 1.0
    assert kernel_value(KernelSpec("window"), 1.0 + 1e-12) == 0.0
    assert_allclose(
        kernel_value(KernelSpec("gaussian"), 0.0), 1.0 / np.sqrt(2.0 * np.pi)
    )
    assert_allclose(
        kernel_value(KernelSpec("gaussian"), 2.0), np.exp(-2.0) / np.sqrt(2.0 * np.pi)
    )


def test_kernel_nonnegative_and_support():
    u = np.linspace(0.0, 5.0, 101)
    for kind in ("window", "triangle", "gaussian"):
        values = kernel_value(KernelSpec(kind), u)
        assert np.all(values >= 0.0)
        if kind != "gaussian":
            assert np.all(values[u > 1.0] == 0.0)
        else:
            assert np.all(values > 0.0)


def test_negative_argument_rejected():
    with pytest.raises(ValueError):
        kernel_value(KernelSpec("triangle"), -0.1)
    with pytest.raises(ValueError):
        kernel_value(KernelSpec("window"), np.array([0.2, -0.3]))


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        KernelSpec("epanechnikov")


def test_cutoff_point_is_right_side():
    d = np.array([2.0])
    right = sided_weights(d, 2.0, 1.0, "right", KernelSpec("triangle"))
    left = sided_weights(d, 2.0, 1.0, "left", KernelSpec("triangle"))
    assert_allclose(right.weights, [1.0])
    assert_allclose(left.weights, [0.0])
    assert right.n_positive == 1 and left.n_positive == 0


def test_two_point_triangle_weights():
    d = np.array([-0.5, 0.5])
    w = sided_weights(d, 0.0, 1.0, "right", KernelSpec("triangle"))
    assert_allclose(w.weights, [0.0, 0.5])


def test_weight_formula_matches_definition(rng):
    d = rng.normal(size=60)
    h = 0.7
    for side in ("left", "right"):
        for kind in ("window", "triangle", "gaussian"):
            kernel = KernelSpec(kind)
            w = sided_weights(d, 0.1, h, side, kernel)
            on_side = d >= 0.1 if side == "right" else d < 0.1
            expected = np.where(
                on_side, kernel_value(kernel, np.abs(d - 0.1) / h) / h, 0.0
            )
            assert_allclose(w.weights, expected)
            assert np.all(w.weights[~on_side] == 0.0)


def test_window_large_bandwidth_reduces_to_side_indicator(rng):
    d = rng.uniform(-1.0, 1.0, 40)
    h = 10.0
    w = sided_weights(d, 0.0, h, "right", KernelSpec("window"))
    assert_allclose(w.weights, (d >= 0.0) / h)


def test_effective_support_counts_gaussian():
    d = np.array([0.1, 0.2, 500.0])
    w = sided_weights(d, 0.0, 1.0, "right", KernelSpec("gaussian"))
    # the far point's weight underflows to exactly zero
    assert w.n_positive == 2
    assert w.weights[2] == 0.0


def test_min_positive_raises():
    # the one right-side row lies beyond h, so the fit sees no support
    d = np.array([-1.0, -2.0, 1.0])
    w = sided_weights(d, 0.0, 0.5, "right", KernelSpec("triangle"))
    with pytest.raises(SingularSupport, match="^0 distinct.*bandwidth 0.5 is too small"):
        local_poly_fit(np.ones(3), w, scaled_basis(d, 0.0, 0.5, degree=1))


def test_basis_rows_and_scaling():
    d = np.array([0.0, 0.5, 2.0])
    basis = scaled_basis(d, 0.5, 2.0, degree=2)
    u = (d - 0.5) / 2.0
    assert_allclose(basis.rows[:, 0], 1.0)
    assert_allclose(basis.rows[:, 1], u)
    assert_allclose(basis.rows[:, 2], u**2)
    with pytest.raises(ValueError):
        scaled_basis(d, 0.5, 2.0, degree=3)
    with pytest.raises(ValueError):
        scaled_basis(d, 0.5, 0.0, degree=1)


def _stored_rows(d, cutoff, h, degree):
    """The basis rows as ``scaled_basis`` once stored them."""
    rows = np.empty((d.shape[0], degree + 1), order="F")
    rows[:, 0] = 1.0
    u = np.subtract(d, cutoff, out=rows[:, 1])
    u /= h
    if degree == 2:
        np.multiply(u, u, out=rows[:, 2])
    return rows


@pytest.mark.parametrize("degree", [1, 2])
def test_basis_rows_equal_the_stored_layout_entry_for_entry(rng, degree):
    from pdd.estimator import _sides

    d = np.concatenate([rng.uniform(-1.0, 1.0, 50), [0.1, -0.0]])
    basis = scaled_basis(d, 0.1, 0.37, degree)
    stored = _stored_rows(d, 0.1, 0.37, degree)
    assert np.array_equal(basis.rows, stored) and basis.rows.flags.f_contiguous
    assert np.array_equal(basis.u, stored[:, 1]) and basis.u.ndim == 1
    d = np.sort(d)
    k = int(np.count_nonzero(d < 0.1))
    stored = _stored_rows(d, 0.1, 0.37, 1)
    sides = _sides(d, k, 0.1, 0.37, KernelSpec("triangle"))
    for (_, side), rows in zip(sides, (slice(None, k), slice(k, None))):
        assert np.array_equal(side.rows, stored[rows]) and side.rows.flags.f_contiguous
    # each side's coordinate is a view of one array of both sides' rows
    assert sides[0][1].u.base is not None and sides[0][1].u.base is sides[1][1].u.base


def _unit_column_stride(a):
    return a.strides[0] == a.itemsize


@pytest.mark.parametrize("degree", [1, 2])
def test_basis_rows_are_stored_column_by_column(rng, degree):
    d = rng.uniform(-1.0, 1.0, 50)
    rows = scaled_basis(d, 0.0, 0.5, degree).rows
    assert rows.flags.f_contiguous and _unit_column_stride(rows)
    for view in (rows[:20], rows[20:]):
        assert _unit_column_stride(view)


def test_side_views_and_weighted_design_keep_the_column_layout(rng):
    from pdd.estimator import _sides
    from pdd.local_fit import _design, _weighted_design

    d = np.sort(rng.uniform(-1.0, 1.0, 80))
    k = int(np.count_nonzero(d < 0.0))
    for weights, basis in _sides(d, k, 0.0, 0.8, KernelSpec("triangle")):
        assert _unit_column_stride(basis.rows)
        # the design rows K u^k are formed as contiguous rows, the memory of
        # the columns, and the kept design holds only small matrices
        krows = _design(weights, basis)(slice(None))
        assert krows.shape == basis.rows.shape[::-1] and krows.flags.c_contiguous
        gram, powers, rcond = _weighted_design(weights, basis)
        assert gram.shape == (2, 2) and powers.shape == (4,) and np.ndim(rcond) == 0


def _two_step_cut(d, cutoff, reach, kind):
    """The cut as two steps decided it: a ``d < cutoff`` pass telling whether
    the left rows come first, then the support test over every row, and,
    unless both held, the partition built afresh from a second support test.
    The support test is the kernels' own, ``|d - cutoff| / reach <= 1``.
    """
    left = d < cutoff
    k = int(np.count_nonzero(left))
    if left[:k].all() and (kind == "gaussian" or (np.abs(d - cutoff) / reach <= 1.0).all()):
        return None, k
    if kind == "gaussian":
        near = np.arange(d.size)
    else:
        near = np.flatnonzero(np.abs(d - cutoff) / reach <= 1.0)
    on_left = d[near] < cutoff
    return np.concatenate([near[on_left], near[~on_left]]), int(np.count_nonzero(on_left))


def _assert_cut_is_the_two_step_rule(x, cutoff, reach, kind, name=""):
    """``_cut_rows`` gives the rows and ``k`` of ``_two_step_cut``; returns
    ``x`` cut by them. A difference or quotient that overflows is inf,
    beyond every reach, in both rules.
    """
    from pdd.kernels import _cut_rows

    with np.errstate(over="ignore"):
        want_rows, want_k = _two_step_cut(x, cutoff, reach, kind)
        rows, k = _cut_rows(x, cutoff, reach, KernelSpec(kind))
    assert k == want_k, name
    assert (rows is None) == (want_rows is None), name
    if rows is not None:
        assert rows.dtype == np.intp and np.array_equal(rows, want_rows), name
    return x if rows is None else x[rows]


#: Any finite double
FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: A positive finite reach, from the smallest subnormal to the largest double
REACH = st.one_of(
    st.floats(min_value=5e-324, allow_infinity=False),
    st.sampled_from([5e-324, 1e-320, 2.0**-1022, 1.0, 1e300, 1.7976931348623157e308]),
)


@pytest.mark.parametrize("kind", ["window", "triangle", "gaussian"])
def test_one_cut_decision_equals_the_two_step_rule(rng, kind):
    from pdd.kernels import _cut_rows

    kernel = KernelSpec(kind)
    cutoff, reach = 0.25, 0.5
    edges = [
        cutoff - reach, cutoff + reach, cutoff, -0.0, 0.0,
        np.nextafter(cutoff + reach, np.inf), np.nextafter(cutoff - reach, -np.inf),
        cutoff + reach * (1.0 + 2.0**-52), 1e6, -1e6,
    ]  # fmt: skip
    d = np.concatenate([rng.uniform(-1.5, 2.0, 60), edges])
    right = d[d >= cutoff]
    samples = {
        "shuffled": d,
        "sorted": np.sort(d),
        "no left side": right,
        "no right side": d[d < cutoff],
        "empty": np.empty(0),
    }
    for zero in (0.0, -0.0):  # -0.0 < 0.0 is False: both lie right of a zero cutoff
        samples[f"around {zero}"] = np.array([-0.5, zero, 0.25, -0.25, zero, 0.5])
    for name, x in list(samples.items()):
        for c in (cutoff, 0.0):
            rows, _ = _two_step_cut(x, c, reach, kind)
            cut = x if rows is None else x[rows]
            samples[f"{name}, already cut at {c}"] = cut
            samples[f"{name}, cut at {c} and shuffled"] = cut[rng.permutation(cut.size)]
    for name, x in samples.items():
        for c in (cutoff, 0.0):
            _assert_cut_is_the_two_step_rule(x, c, reach, kind, name)

    # any sample, cutoff and reach, with NaN and infinite rows, and rows on
    # and just past each edge of the support; a cut sample is cut again
    @settings(max_examples=300, deadline=None)
    @given(c=FINITE, reach=REACH, data=st.data())
    def any_sample(c, reach, data):
        edge = [c - reach, c + reach, c]
        edge += [math.nextafter(x, toward) for x in edge for toward in (-math.inf, math.inf)]
        edge += [c + reach * (1.0 + 2.0**-52), math.nan, math.inf, -math.inf]
        values = st.one_of(FINITE, st.sampled_from(edge))
        x = np.array(data.draw(st.lists(values, max_size=40)), dtype=float)
        cut = _assert_cut_is_the_two_step_rule(x, c, reach, kind)
        assert _assert_cut_is_the_two_step_rule(cut, c, reach, kind) is cut
        _assert_cut_is_the_two_step_rule(cut[::-1], c, reach, kind)

    any_sample()
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        _cut_rows(d, 0.0, 0.0, kernel)
