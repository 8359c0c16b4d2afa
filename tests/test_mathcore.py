import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ramkb.mathcore import make_rng, softmax_last_axis, softmax_vjp

finite_floats = st.floats(min_value=-30, max_value=30, allow_nan=False)


def test_softmax_uniform():
    np.testing.assert_allclose(
        softmax_last_axis([0.0, 0.0, 0.0]), [1 / 3] * 3, atol=1e-15
    )


def test_softmax_extreme_inputs_stay_finite():
    out = softmax_last_axis([1000.0, 0.0])
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-300)


def test_softmax_direct_evaluation():
    # oracle: plain exp normalization at tame magnitudes
    values = [1.0, 2.0, 3.0]
    exps = [math.exp(v) for v in values]
    expected = [e / sum(exps) for e in exps]
    np.testing.assert_allclose(softmax_last_axis(values), expected, atol=1e-15)
    np.testing.assert_allclose(
        softmax_last_axis(values), [0.09003057, 0.24472847, 0.66524096], atol=1e-8
    )


@given(st.lists(finite_floats, min_size=1, max_size=8), finite_floats)
def test_softmax_shift_invariance(values, shift):
    base = softmax_last_axis(values)
    shifted = softmax_last_axis(np.array(values) + shift)
    assert abs(base.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(base, shifted, atol=1e-12)


@given(st.lists(finite_floats, min_size=2, max_size=8), st.randoms())
def test_softmax_permutation_equivariance(values, rnd):
    perm = list(range(len(values)))
    rnd.shuffle(perm)
    permuted = [values[i] for i in perm]
    np.testing.assert_allclose(
        softmax_last_axis(permuted), softmax_last_axis(values)[perm], atol=1e-12
    )


def softmax_flat(mat):
    """A matrix normalized jointly: the softmax of its flattened entries."""
    return softmax_last_axis(mat.reshape(-1)).reshape(mat.shape)


def test_softmax_matrix_zero_matrix():
    np.testing.assert_allclose(softmax_flat(np.zeros((2, 2))), np.full((2, 2), 0.25))


def test_softmax_matrix_single_entry():
    np.testing.assert_allclose(softmax_flat(np.array([[123.0]])), [[1.0]])


def test_softmax_matrix_closed_form():
    mat = np.array([[0.0, math.log(3.0)], [0.0, 0.0]])
    expected = np.array([[1 / 6, 1 / 2], [1 / 6, 1 / 6]])
    np.testing.assert_allclose(softmax_flat(mat), expected, atol=1e-15)


def test_softmax_matrix_normalizes_jointly_not_per_row():
    mat = np.array([[0.0, 0.0], [math.log(2.0), math.log(2.0)]])
    out = softmax_flat(mat)
    assert abs(out.sum() - 1.0) < 1e-12
    assert not np.allclose(out[0].sum(), 1.0)


def test_softmax_vjp_matches_jacobian():
    rng = make_rng(5)
    v = rng.normal(size=6)
    s = softmax_last_axis(v)
    jac = np.diag(s) - np.outer(s, s)
    grad = rng.normal(size=6)
    np.testing.assert_allclose(softmax_vjp(s, grad), jac @ grad, atol=1e-12)


def test_softmax_matrix_vjp_matches_flat_jacobian():
    rng = make_rng(6)
    mat = rng.normal(size=(2, 3))
    q = softmax_flat(mat)
    flat = q.reshape(-1)
    jac = np.diag(flat) - np.outer(flat, flat)
    grad = rng.normal(size=(2, 3))
    expected = (jac @ grad.reshape(-1)).reshape(2, 3)
    pulled = softmax_vjp(flat, grad.reshape(-1)).reshape(2, 3)
    np.testing.assert_allclose(pulled, expected, atol=1e-12)


def test_make_rng_deterministic_and_keyed():
    a = make_rng(3, 1, 4).normal(size=4)
    b = make_rng(3, 1, 4).normal(size=4)
    c = make_rng(3, 1, 5).normal(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        make_rng(-1)
