"""Dense layers and activations with manual forward/backward passes.

Everything operates on 2-d ``(batch, features)`` arrays of one floating
dtype per model: float32 by default, float64 for the finite-difference
gradient checks. A model packs its layers' parameters into one flat
array, and their gradients into another (`pack`), so that Adam steps the
whole model as one array; the layers hold views into the two.
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
    """A fully connected layer ``y = x @ W + b`` with cached backward.

    ``blocks`` > 1 draws ``W`` as that many column blocks, one after the
    other, so a fused layer starts from the weights of the separate
    layers it replaces.
    """

    def __init__(
        self,
        fan_in: int,
        fan_out: int,
        rng: np.random.Generator,
        dtype=np.float32,
        *,
        blocks: int = 1,
    ):
        W = [he_init(rng, fan_in, fan_out // blocks) for _ in range(blocks)]
        self.W = np.concatenate(W, axis=1).astype(dtype, copy=False)
        self.b = np.zeros(fan_out, dtype=dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, gy: np.ndarray, *, input_grad: bool = True) -> np.ndarray | None:
        """Given dL/dy, store dL/dW and dL/db and return dL/dx.

        ``input_grad=False`` skips the dL/dx product and returns None, for
        a first layer whose input is data.
        """
        assert self._x is not None, "forward() must run before backward()"
        np.matmul(self._x.T, gy, out=self.gW)
        gy.sum(axis=0, out=self.gb)
        return gy @ self.W.T if input_grad else None

    @property
    def params(self) -> list[np.ndarray]:
        return [self.W, self.b]

    @property
    def grads(self) -> list[np.ndarray]:
        return [self.gW, self.gb]


def pack(layers: list[Dense]) -> tuple[np.ndarray, np.ndarray]:
    """Move the layers' parameters into one flat array and their gradients
    into another; each layer keeps views into the two. Returns both.

    Layers already packed together, and only they, are left as they are.
    Models pack at construction and again in ``fit``, so a model whose
    layers another packed into its buffer (the Siamese matcher's MLP) gets
    its own buffer back if it is fitted alone.
    """
    names = [(layer, name) for layer in layers for name in ("W", "b")]
    size = sum(getattr(layer, name).size for layer, name in names)
    flat = layers[0].W.base
    if (
        isinstance(flat, np.ndarray)
        and flat.size == size
        and all(getattr(layer, name).base is flat for layer, name in names)
    ):
        return flat, layers[0].gW.base
    flat = np.empty(size, dtype=layers[0].W.dtype)
    grad = np.zeros_like(flat)
    off = 0
    for layer, name in names:
        a = getattr(layer, name)
        view = flat[off : off + a.size].reshape(a.shape)
        view[...] = a
        setattr(layer, name, view)
        setattr(layer, "g" + name, grad[off : off + a.size].reshape(a.shape))
        off += a.size
    return flat, grad
