"""Dense float64 kernels used by every other module.

All functions are pure and operate on (or return) plain numpy arrays. There
is one softmax of the parameters, over the last axis, and one pullback for
it; a matrix that is normalized jointly over all its entries is a softmax
over its flattened last axes, so callers reshape to ``(n, rows * cols)``
around these two. The softmax of the candidate scores is not one of them:
``engine.group_losses`` takes the (n, C) candidate scores of n kernel rows
and fuses each row's softmax with its cross-entropy, whose gradient with
respect to the scores is that softmax minus the true one-hot, so it needs no
pullback. :func:`scatter_rows` is the one row scatter-add, for gradients
whose rows repeat.
"""

from __future__ import annotations

import numpy as np


def make_rng(*keys: int) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of non-negative integers.

    The same key tuple always yields the same stream, and distinct tuples
    yield statistically independent streams, so per-epoch / per-batch
    generators can be derived without threading a single stateful RNG
    through the whole program.
    """
    for k in keys:
        if k < 0:
            raise ValueError(f"rng keys must be non-negative, got {keys}")
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def softmax_last_axis(x: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis of an arbitrary-rank array."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp(s: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Pull an output-side gradient back through softmax.

    `s` is the softmax output. The Jacobian is diag(s) - s s^T, which is
    symmetric, so the vector-Jacobian product is s * (grad - <s, grad>).
    Works along the last axis for batched inputs.
    """
    inner = (s * grad).sum(axis=-1, keepdims=True)
    return s * (grad - inner)


def scatter_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``out[rows[i]] += values[i]`` for every i, repeated rows included.

    `out` is C-contiguous. The scatter runs on flat 1-D indices, numpy's fast
    ``add.at`` path; each element still receives its contributions one at a
    time in the order of `rows`, so the sums are those of the row-wise form
    bit for bit. A float64 row of even width is scattered as complex128
    pairs, on half as many indices: a complex add is two float adds, one per
    element.
    """
    width = out[0].size
    if out.dtype == values.dtype == np.float64 and width % 2 == 0:
        out = out.reshape(len(out), width).view(np.complex128)
        values = np.ascontiguousarray(values).reshape(len(values), width).view(np.complex128)
        width //= 2
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(out.reshape(-1), flat, values.reshape(-1))
