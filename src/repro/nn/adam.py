"""Adam optimizer (Kingma & Ba) over one flat parameter array.

Each model keeps all its parameters in one flat buffer (`layers.pack`)
and its gradients in another, so a step is one pass of each elementwise
operation.

The paper's Table III fixes Adam with learning rate 0.001 for both the
representation and matching models; those are the defaults here.
"""
from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam with bias correction.

    The parameters are updated in place so that layer objects holding
    views of the same array see the new values without re-wiring. Two
    preallocated work buffers mean a step allocates no temporaries; the
    arithmetic order is that of the textbook update, so results are
    bit-identical to it.
    """

    def __init__(
        self,
        params: np.ndarray,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._buf = (np.empty_like(params), np.empty_like(params))
        self.t = 0

    def step(self, grad: np.ndarray) -> None:
        """One Adam update given the gradient of ``self.params``."""
        assert grad.shape == self.params.shape
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        p, m, v, (s, r) = self.params, self.m, self.v, self._buf
        # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        m *= b1
        np.multiply(grad, 1 - b1, out=s)
        m += s
        v *= b2
        np.multiply(grad, 1 - b2, out=s)
        s *= grad
        v += s
        # p -= (lr * (m/c1)) / (sqrt(v/c2) + eps)
        np.divide(m, c1, out=s)
        s *= self.lr
        np.divide(v, c2, out=r)
        np.sqrt(r, out=r)
        r += self.eps
        s /= r
        p -= s
