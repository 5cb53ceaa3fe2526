"""Binary MLP classifier on the numpy substrate.

Used as the *Matching* layer of VAER's Siamese architecture (a two-layer
MLP per §IV-A) and as the classifier head of the baseline lites.
Exposes forward/backward so a caller (the Siamese trainer) can push
gradients through it into an upstream encoder.
"""
from __future__ import annotations

import numpy as np

from repro.nn.adam import Adam
from repro.nn.layers import Dense, pack, relu, relu_grad, sigmoid


def bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample binary cross-entropy, computed in float64."""
    p_c = np.clip(p.astype(np.float64), 1e-12, 1 - 1e-12)
    y = y.astype(np.float64)
    return -(y * np.log(p_c) + (1 - y) * np.log(1 - p_c))


class MLPClassifier:
    """``in_dim -> hidden (ReLU) -> ... -> 1 (sigmoid)`` binary classifier."""

    def __init__(
        self,
        in_dim: int,
        hidden: tuple[int, ...] = (64,),
        seed: int = 0,
        dtype=np.float32,
    ):
        rng = np.random.default_rng(seed)
        dims = [in_dim, *hidden, 1]
        self.dtype = np.dtype(dtype)
        self._flush = np.sqrt(np.finfo(self.dtype).tiny)
        self.layers = [Dense(a, b, rng, dtype) for a, b in zip(dims[:-1], dims[1:])]
        pack(self.layers)
        self._pre: list[np.ndarray] = []

    # ---- forward / backward -------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Return P(match) of shape ``(batch,)``; caches for backward."""
        self._pre = []
        h = x
        for layer in self.layers[:-1]:
            z = layer.forward(h)
            self._pre.append(z)
            h = relu(z)
        logits = self.layers[-1].forward(h)
        return sigmoid(logits[:, 0])

    def backward_from_logit_grad(
        self, glogit: np.ndarray, *, input_grad: bool = True
    ) -> np.ndarray | None:
        """Backprop dL/dlogit (shape ``(batch,)``) and return dL/dinput
        (None with ``input_grad=False``).

        Entries below the square root of the dtype's smallest normal number
        are flushed to 0. A saturated sigmoid leaves p - y near 1e-40 in
        float32, which moves no parameter, and its products down the chain
        are subnormal floats, which slow every GEMM they enter many times
        over.
        """
        g = np.where(np.abs(glogit) < self._flush, 0, glogit)[:, None]
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self._pre):
                g = g * relu_grad(self._pre[i])
            g = self.layers[i].backward(g, input_grad=i > 0 or input_grad)
        return g

    # ---- training -----------------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 100,
        lr: float = 1e-3,
        batch_size: int = 64,
        seed: int = 0,
    ) -> list[float]:
        """Plain minibatch Adam training; returns per-epoch mean BCE.

        ``X`` and ``y`` are cast to the parameters' dtype once; the
        reported loss is computed in float64 (in float32, clipping at
        ``1 - 1e-12`` rounds to 1 and the log would diverge).
        """
        X = np.asarray(X, dtype=self.dtype)
        y = np.asarray(y, dtype=self.dtype)
        rng = np.random.default_rng(seed)
        params, grads = pack(self.layers)
        opt = Adam(params, lr=lr)
        losses = []
        n = len(X)
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                p = self.forward(X[idx])
                yb = y[idx]
                epoch_loss += float(bce(p, yb).sum())
                # Mean BCE through a sigmoid: dL/dlogit = (p - y) / batch.
                # The input is data, so dL/dinput is skipped.
                self.backward_from_logit_grad((p - yb) / len(yb), input_grad=False)
                opt.step(grads)
            losses.append(epoch_loss / n)
        return losses

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.forward(np.asarray(X, dtype=self.dtype))
