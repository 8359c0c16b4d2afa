"""Dense float64 kernels used by every other module.

All functions are pure and operate on (or return) plain numpy arrays. There
is one softmax of the parameters, over the last axis, and one pullback for
it; a matrix that is normalized jointly over all its entries is a softmax
over its flattened last axes, so callers reshape to ``(n, rows * cols)``
around these two. The softmax of the candidate scores is not one of them:
``engine.group_losses`` fuses it with the cross-entropy, whose gradient with
respect to the scores is that softmax minus the true one-hot, so it needs no
pullback.
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
