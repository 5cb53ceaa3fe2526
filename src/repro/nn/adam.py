"""Adam optimizer (Kingma & Ba) over lists of parameter arrays.

Each model passes one array: the flat buffer `layers.pack` keeps all its
parameters in, so a step is one pass of each elementwise operation.

The paper's Table III fixes Adam with learning rate 0.001 for both the
representation and matching models; those are the defaults here.
"""
from __future__ import annotations

import numpy as np


class Adam:
    """Standard Adam with bias correction.

    Parameters are updated in place so that layer objects holding the
    same arrays see the new values without re-wiring. Each parameter has
    two preallocated work buffers, so a step allocates no temporaries;
    the arithmetic order is that of the textbook update, so results are
    bit-identical to it.
    """

    def __init__(
        self,
        params: list[np.ndarray],
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
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._buf = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
        """One Adam update given gradients aligned with ``self.params``."""
        assert len(grads) == len(self.params)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for p, g, m, v, (s, r) in zip(self.params, grads, self.m, self.v, self._buf):
            # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
            m *= b1
            np.multiply(g, 1 - b1, out=s)
            m += s
            v *= b2
            np.multiply(g, 1 - b2, out=s)
            s *= g
            v += s
            # p -= (lr * (m/c1)) / (sqrt(v/c2) + eps)
            np.divide(m, c1, out=s)
            s *= self.lr
            np.divide(v, c2, out=r)
            np.sqrt(r, out=r)
            r += self.eps
            s /= r
            p -= s
