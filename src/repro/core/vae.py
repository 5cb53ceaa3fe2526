"""Shared-parameter Variational Auto-Encoder (paper §III-A/C, Figure 2).

One VAE is trained over *all* attribute-value IRs of a domain ("shared
parameters across attributes"): the input batch is the flattened
``(n_tuples * arity, ir_dim)`` matrix, and the entity representation of a
tuple is the collection of per-attribute ``(mu, sigma)`` pairs produced
by the encoder.

Loss (Eq. 2): per-sample Gaussian reconstruction log-likelihood (an MSE
term) plus the analytic KL divergence to N(0, I), minimised with Adam.
The reparameterisation trick z = mu + sigma * eps keeps the sampling
step differentiable.

The `Encoder` is factored out so the Siamese matcher (§IV) can reuse it:
its weights initialise both Siamese heads and receive mirrored gradient
updates via `Encoder.backward(..., accumulate=True)`.
"""
from __future__ import annotations

import numpy as np

from repro.nn.adam import Adam
from repro.nn.layers import Dense, relu, relu_grad


class Encoder:
    """IR -> (mu, logvar) via one ReLU hidden layer and two linear heads."""

    def __init__(
        self,
        in_dim: int,
        hidden: int,
        latent: int,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        self.in_dim, self.hidden_dim, self.latent_dim = in_dim, hidden, latent
        self.h = Dense(in_dim, hidden, rng, dtype)
        self.mu_head = Dense(hidden, latent, rng, dtype)
        self.lv_head = Dense(hidden, latent, rng, dtype)
        self._z_pre: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = self.h.forward(x)
        self._z_pre = z
        a = relu(z)
        return self.mu_head.forward(a), self.lv_head.forward(a)

    def backward(
        self, g_mu: np.ndarray, g_lv: np.ndarray, *, accumulate: bool = False
    ) -> None:
        """Backprop dL/dmu and dL/dlogvar into the parameter grads.

        The input is data (IRs), so dL/dinput is never formed.
        """
        ga = self.mu_head.backward(g_mu, accumulate=accumulate)
        ga += self.lv_head.backward(g_lv, accumulate=accumulate)
        self.h.backward(
            ga * relu_grad(self._z_pre), accumulate=accumulate, input_grad=False
        )

    @property
    def params(self) -> list[np.ndarray]:
        return [*self.h.params, *self.mu_head.params, *self.lv_head.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [*self.h.grads, *self.mu_head.grads, *self.lv_head.grads]

    # ---- pickle-light state for Spark broadcast -----------------------------
    def state(self) -> dict[str, np.ndarray]:
        return {
            "h_W": self.h.W, "h_b": self.h.b,
            "mu_W": self.mu_head.W, "mu_b": self.mu_head.b,
            "lv_W": self.lv_head.W, "lv_b": self.lv_head.b,
        }

    def load_state(self, s: dict[str, np.ndarray]) -> None:
        self.h.W, self.h.b = s["h_W"].copy(), s["h_b"].copy()
        self.mu_head.W, self.mu_head.b = s["mu_W"].copy(), s["mu_b"].copy()
        self.lv_head.W, self.lv_head.b = s["lv_W"].copy(), s["lv_b"].copy()


def encode_with_state(
    state: dict[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-function encoder for Spark executors: IRs -> (mu, sigma).

    Avoids shipping layer objects (and their forward caches) inside
    `mapInPandas`; only the weight dict is broadcast. ``x`` is cast to the
    weights' dtype.
    """
    x = np.asarray(x, dtype=state["h_W"].dtype)
    a = relu(x @ state["h_W"] + state["h_b"])
    mu = a @ state["mu_W"] + state["mu_b"]
    logvar = a @ state["lv_W"] + state["lv_b"]
    return mu, np.exp(0.5 * logvar)


class VAE:
    """Encoder + reparameterised sampling + decoder, trained on IRs."""

    def __init__(
        self,
        in_dim: int,
        hidden: int = 200,
        latent: int = 100,
        seed: int = 0,
        dtype=np.float32,
    ):
        rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        self.encoder = Encoder(in_dim, hidden, latent, rng, dtype)
        self.dec_h = Dense(latent, hidden, rng, dtype)
        self.dec_out = Dense(hidden, in_dim, rng, dtype)
        self.in_dim, self.hidden_dim, self.latent_dim = in_dim, hidden, latent

    # ---- inference -----------------------------------------------------------
    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """IRs -> (mu, sigma); sigma = exp(logvar / 2) > 0."""
        mu, logvar = self.encoder.forward(np.asarray(x, dtype=self.dtype))
        return mu, np.exp(0.5 * logvar)

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.dec_out.forward(relu(self.dec_h.forward(z)))

    # ---- pickle-light state (Spark broadcast / transfer learning) ------------
    def state(self) -> dict[str, np.ndarray]:
        s = {f"enc_{k}": v for k, v in self.encoder.state().items()}
        s.update(
            dech_W=self.dec_h.W, dech_b=self.dec_h.b,
            deco_W=self.dec_out.W, deco_b=self.dec_out.b,
        )
        return s

    def load_state(self, s: dict[str, np.ndarray]) -> None:
        self.encoder.load_state({k[4:]: v for k, v in s.items() if k.startswith("enc_")})
        self.dec_h.W, self.dec_h.b = s["dech_W"].copy(), s["dech_b"].copy()
        self.dec_out.W, self.dec_out.b = s["deco_W"].copy(), s["deco_b"].copy()

    # ---- training ------------------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        return [*self.encoder.params, *self.dec_h.params, *self.dec_out.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [*self.encoder.grads, *self.dec_h.grads, *self.dec_out.grads]

    def loss_and_grads(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> tuple[float, float, float]:
        """One forward+backward pass over batch ``x``.

        Fills layer ``.grads``; returns (total, reconstruction, kl) losses,
        all as per-sample means. Loss = 0.5*||x-xhat||^2 + KL(q || N(0,I))
        with the analytic diagonal-Gaussian KL
        -0.5 * sum(1 + logvar - mu^2 - exp(logvar)).
        """
        b = len(x)
        mu, logvar = self.encoder.forward(x)
        sigma = np.exp(0.5 * logvar)
        # Drawn in float64 and cast, so both dtypes see the same stream.
        eps = rng.standard_normal(mu.shape).astype(self.dtype, copy=False)
        z = mu + sigma * eps

        dec_pre = self.dec_h.forward(z)
        xhat = self.dec_out.forward(relu(dec_pre))

        diff = xhat - x
        rec = float(0.5 * (diff**2).sum() / b)
        kl = float(-0.5 * (1 + logvar - mu**2 - np.exp(logvar)).sum() / b)

        # Backward: reconstruction path through the decoder into z.
        g_xhat = diff / b
        g_dec_a = self.dec_out.backward(g_xhat)
        g_z = self.dec_h.backward(g_dec_a * relu_grad(dec_pre))

        # Reparameterisation: dz/dmu = 1; dz/dlogvar = 0.5 * sigma * eps.
        g_mu = g_z + mu / b
        g_lv = g_z * 0.5 * sigma * eps + 0.5 * (np.exp(logvar) - 1.0) / b
        self.encoder.backward(g_mu, g_lv)
        return rec + kl, rec, kl

    def fit(
        self,
        X: np.ndarray,
        *,
        epochs: int = 30,
        batch_size: int = 256,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> list[float]:
        """Minibatch Adam over the flattened IR matrix; per-epoch mean loss.

        ``X`` is cast to the parameters' dtype once."""
        X = np.asarray(X, dtype=self.dtype)
        rng = np.random.default_rng(seed)
        opt = Adam(self.params, lr=lr)
        losses = []
        n = len(X)
        for _ in range(epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                loss, _, _ = self.loss_and_grads(X[idx], rng)
                total += loss * len(idx)
                opt.step(self.grads)
            losses.append(total / n)
        return losses
