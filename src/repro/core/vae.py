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
its weights initialise both Siamese heads, which share one copy of them.
"""
from __future__ import annotations

import numpy as np

from repro.nn.adam import Adam
from repro.nn.layers import Dense, pack, relu, relu_grad


class Encoder:
    """IR -> (mu, logvar) via one ReLU hidden layer and one linear head
    whose output columns are ``[mu | logvar]``."""

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
        # The mu block, then the logvar block: the draws of two heads.
        self.head = Dense(hidden, 2 * latent, rng, dtype, blocks=2)
        self._z_pre: np.ndarray | None = None

    @property
    def layers(self) -> list[Dense]:
        return [self.h, self.head]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = self.h.forward(x)
        self._z_pre = z
        out = self.head.forward(relu(z))
        k = self.latent_dim
        return out[:, :k], out[:, k:]

    def backward(self, g: np.ndarray) -> None:
        """Backprop dL/d[mu | logvar], shape ``(batch, 2 * latent)``, into
        the parameter grads.

        The input is data (IRs), so dL/dinput is never formed.
        """
        ga = self.head.backward(g)
        self.h.backward(ga * relu_grad(self._z_pre), input_grad=False)

    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    # ---- pickle-light state (transfer learning, driver encoding) -------------
    def state(self) -> dict[str, np.ndarray]:
        """The weights as views, under the keys of separate mu and logvar
        heads."""
        k = self.latent_dim
        W, b = self.head.W, self.head.b
        return {
            "h_W": self.h.W, "h_b": self.h.b,
            "mu_W": W[:, :k], "mu_b": b[:k],
            "lv_W": W[:, k:], "lv_b": b[k:],
        }

    def load_state(self, s: dict[str, np.ndarray]) -> None:
        """Copy ``s`` into the weights in place: packed views stay valid."""
        for key, w in self.state().items():
            w[...] = s[key]


def encode_with_state(
    state: dict[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-function encoder: IRs -> (mu, sigma).

    Needs only the weight dict, not layer objects with their forward
    caches (`core/encode.py` encodes every tuple with it). ``x`` is cast
    to the weights' dtype.
    """
    x = np.asarray(x, dtype=state["h_W"].dtype)
    a = relu(x @ state["h_W"] + state["h_b"])
    mu = a @ state["mu_W"] + state["mu_b"]
    logvar = a @ state["lv_W"] + state["lv_b"]
    return mu, np.exp(0.5 * logvar)


# Attribute values per encoder call: bounds the hidden-layer temporaries.
# An encoder GEMM row does not depend on how many rows go in with it.
_CHUNK = 1 << 13


def encode_irs(
    state: dict[str, np.ndarray], irs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Tuples' IRs (n, m, d) -> (mu, sigma), each (n, m*k) in the weights'
    dtype: every attribute value through `encode_with_state`, ``_CHUNK``
    values per call. The representation model encodes every tuple with
    it (`pipeline.learn_representations`), the matcher the tuples of the
    pairs it scores (`active.predict_pairs`)."""
    n, m, d = irs.shape
    flat = irs.reshape(n * m, d)
    k = state["mu_W"].shape[1]
    dtype = state["h_W"].dtype
    mu, sigma = np.empty((n * m, k), dtype), np.empty((n * m, k), dtype)
    for s in range(0, n * m, _CHUNK):
        mu[s : s + _CHUNK], sigma[s : s + _CHUNK] = encode_with_state(
            state, flat[s : s + _CHUNK]
        )
    return mu.reshape(n, m * k), sigma.reshape(n, m * k)


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
        pack(self.layers)

    @property
    def layers(self) -> list[Dense]:
        return [*self.encoder.layers, self.dec_h, self.dec_out]

    # ---- inference -----------------------------------------------------------
    def encode(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """IRs -> (mu, sigma); sigma = exp(logvar / 2) > 0."""
        mu, logvar = self.encoder.forward(np.asarray(x, dtype=self.dtype))
        return mu, np.exp(0.5 * logvar)

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.dec_out.forward(relu(self.dec_h.forward(z)))

    # ---- pickle-light state (transfer learning) -------------------------------
    def state(self) -> dict[str, np.ndarray]:
        s = {f"enc_{k}": v for k, v in self.encoder.state().items()}
        s.update(
            dech_W=self.dec_h.W, dech_b=self.dec_h.b,
            deco_W=self.dec_out.W, deco_b=self.dec_out.b,
        )
        return s

    def load_state(self, s: dict[str, np.ndarray]) -> None:
        for key, w in self.state().items():
            w[...] = s[key]

    # ---- training ------------------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

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
        self.encoder.backward(np.concatenate([g_mu, g_lv], axis=1))
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
        params, grads = pack(self.layers)
        opt = Adam(params, lr=lr)
        losses = []
        n = len(X)
        for _ in range(epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                loss, _, _ = self.loss_and_grads(X[idx], rng)
                total += loss * len(idx)
                opt.step(grads)
            losses.append(total / n)
        return losses
