"""Dense layers and activations with manual forward/backward passes.

Everything operates on 2-d ``(batch, features)`` arrays of one floating
dtype per model: float32 by default, float64 for the finite-difference
gradient checks. Layers hold their parameters as plain numpy arrays so
models can be pickled and broadcast to Spark executors for inference
(`core/encode.py`).
"""
from __future__ import annotations

import numpy as np


def he_init(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """He-normal weight init — the standard choice for ReLU nets."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """d relu(x) / dx evaluated at the pre-activation ``x``."""
    return (x > 0.0).astype(x.dtype)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid, in the dtype of ``x``."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Dense:
    """A fully connected layer ``y = x @ W + b`` with cached backward."""

    def __init__(
        self, fan_in: int, fan_out: int, rng: np.random.Generator, dtype=np.float32
    ):
        self.W = he_init(rng, fan_in, fan_out).astype(dtype, copy=False)
        self.b = np.zeros(fan_out, dtype=dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(
        self, gy: np.ndarray, *, accumulate: bool = False, input_grad: bool = True
    ) -> np.ndarray | None:
        """Given dL/dy, store dL/dW and dL/db and return dL/dx.

        ``accumulate=True`` adds to existing grads — used by the Siamese
        matcher where the two mirrored heads share one set of weights.
        ``input_grad=False`` skips the dL/dx product and returns None, for
        a first layer whose input is data.
        """
        assert self._x is not None, "forward() must run before backward()"
        if accumulate:
            self.gW += self._x.T @ gy
            self.gb += gy.sum(axis=0)
        else:
            np.matmul(self._x.T, gy, out=self.gW)
            gy.sum(axis=0, out=self.gb)
        return gy @ self.W.T if input_grad else None

    @property
    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.gW, self.gb]

    def zero_grad(self) -> None:
        self.gW.fill(0.0)
        self.gb.fill(0.0)
