import numpy as np
import pytest
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


@pytest.mark.parametrize("kind", ["window", "triangle", "gaussian"])
def test_left_count_if_cut_agrees_with_the_partition(rng, kind):
    from pdd.kernels import left_count_if_cut, support_rows

    kernel = KernelSpec(kind)
    d = np.concatenate([rng.uniform(-2.0, 2.0, 40), [0.0, -0.5, 0.5, 1e6, -1e6]])
    for reach in (0.5, 3.0):
        rows, k = support_rows(d, 0.0, reach, kernel)
        cut = d[rows]
        assert left_count_if_cut(cut, 0.0, reach, kernel) == k
        for trial in range(5):
            shuffled = cut[rng.permutation(cut.size)]
            again, k_again = support_rows(shuffled, 0.0, reach, kernel)
            identity = again.size == shuffled.size and (k == 0 or again[k - 1] == k - 1)
            assert (left_count_if_cut(shuffled, 0.0, reach, kernel) == k) == identity
        assert left_count_if_cut(d, 0.0, reach, kernel) is None
    assert left_count_if_cut(np.empty(0), 0.0, 1.0, kernel) == 0
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        left_count_if_cut(d, 0.0, 0.0, kernel)
