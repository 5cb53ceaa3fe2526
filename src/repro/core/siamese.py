"""Siamese matching model (paper §IV, Figure 3).

Two variational-encoder heads *share one weight set*, initialised from
the representation model's trained encoder (transfer of §III-D). The
Distance layer computes the attribute-wise squared-2-Wasserstein vector
d = (mu^s - mu^t)^2 + (sigma^s - sigma^t)^2, the concatenation of which
feeds a two-layer MLP classifier.

Training minimises Eq. 4 = binary cross-entropy of the prediction +
margin contrastive term on the per-attribute W2 distances, both pushed
through the shared encoder in one backward pass (mirrored updates are
realised by stacking the s- and t-sides into a single encoder batch).
"""
from __future__ import annotations

import numpy as np

from repro.core.vae import Encoder, encode_with_state
from repro.core.wasserstein import w2_vector
from repro.nn.adam import Adam
from repro.nn.mlp import MLPClassifier, bce


class SiameseMatcher:
    """VAER's matcher gamma: pair of IR tensors -> P(duplicate).

    Computes in the dtype of ``encoder_state["h_W"]`` and casts its
    inputs to it.
    """

    def __init__(
        self,
        encoder_state: dict[str, np.ndarray],
        arity: int,
        *,
        hidden: int = 64,
        margin: float = 0.5,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        self.dtype = encoder_state["h_W"].dtype
        in_dim, enc_hidden = encoder_state["h_W"].shape
        latent = encoder_state["mu_W"].shape[1]
        self.encoder = Encoder(in_dim, enc_hidden, latent, rng, self.dtype)
        self.encoder.load_state(encoder_state)
        self.arity, self.latent, self.margin = arity, latent, margin
        self.mlp = MLPClassifier(
            arity * latent, (hidden,), seed=seed + 1, dtype=self.dtype
        )
        self._cache: dict[str, np.ndarray] = {}

    # ---- forward --------------------------------------------------------------
    def forward(self, Xs: np.ndarray, Xt: np.ndarray) -> np.ndarray:
        """Xs, Xt of shape (B, m, d) -> P(match) of shape (B,)."""
        B, m, d = Xs.shape
        assert m == self.arity, f"arity mismatch: {m} != {self.arity}"
        X = np.concatenate(
            [Xs.reshape(B * m, d), Xt.reshape(B * m, d)], dtype=self.dtype
        )
        mu, logvar = self.encoder.forward(X)
        sigma = np.exp(0.5 * logvar)
        k = self.latent
        mu = mu.reshape(2, B, m, k)
        sigma = sigma.reshape(2, B, m, k)
        dvec = w2_vector(mu[0], sigma[0], mu[1], sigma[1])  # (B, m, k)
        p = self.mlp.forward(dvec.reshape(B, m * k))
        self._cache = dict(mu=mu, sigma=sigma, dvec=dvec, B=B, m=m)
        return p

    def encode(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tuples' IRs (n, m, d) -> latent (mu, sigma), each (n, m, k).

        Inference only: nothing is cached for backward.
        """
        n, m, d = X.shape
        mu, sigma = encode_with_state(self.encoder.state(), X.reshape(n * m, d))
        return mu.reshape(n, m, self.latent), sigma.reshape(n, m, self.latent)

    def proba_from_latents(
        self, mu_s: np.ndarray, sg_s: np.ndarray, mu_t: np.ndarray, sg_t: np.ndarray
    ) -> np.ndarray:
        """P(match) from both sides' encodings (B, m, k): the Distance
        layer and the MLP of `forward`, for pairs gathered from `encode`."""
        B, m, k = mu_s.shape
        return self.mlp.forward(w2_vector(mu_s, sg_s, mu_t, sg_t).reshape(B, m * k))

    # ---- loss + backward (Eq. 4) ----------------------------------------------
    def loss_and_grads(
        self, Xs: np.ndarray, Xt: np.ndarray, y: np.ndarray
    ) -> tuple[float, float, float]:
        """Fill grads for one batch; returns (total, bce, contrastive).

        ``y`` holds the true classes x in {0,1}. Both loss terms are
        means over the batch; the contrastive term additionally averages
        over the m attributes, as in Eq. 4.
        """
        p = self.forward(Xs, Xt)
        c = self._cache
        B, m, k = c["B"], c["m"], self.latent
        mu, sigma, dvec = c["mu"], c["sigma"], c["dvec"]

        loss_bce = float(bce(p, y).mean())

        w2 = dvec.sum(axis=2)  # per-attribute W2, (B, m)
        hinge = np.maximum(0.0, self.margin - w2)
        contrast = float(
            (y[:, None] * w2 + (1 - y)[:, None] * hinge).sum() / (m * B)
        )

        # --- backward ----------------------------------------------------------
        g_dvec = self.mlp.backward_from_logit_grad((p - y) / B).reshape(B, m, k)
        # contrastive: dL/dw2 = y/(mB) for positives, -(1-y)/(mB) on active hinge
        coeff = (y[:, None] - (1 - y)[:, None] * (hinge > 0)) / (m * B)
        g_dvec = g_dvec + coeff[:, :, None]

        diff_mu = mu[0] - mu[1]
        diff_sg = sigma[0] - sigma[1]
        g_mu_s = g_dvec * 2.0 * diff_mu
        g_sg_s = g_dvec * 2.0 * diff_sg
        # Mirrored heads: gradient on t-side vectors is the negation.
        g_mu = np.concatenate(
            [g_mu_s.reshape(B * m, k), -g_mu_s.reshape(B * m, k)]
        )
        g_sg = np.concatenate(
            [g_sg_s.reshape(B * m, k), -g_sg_s.reshape(B * m, k)]
        )
        g_lv = g_sg * 0.5 * sigma.reshape(2 * B * m, k)
        self.encoder.backward(g_mu, g_lv)
        return loss_bce + contrast, loss_bce, contrast

    # ---- training / inference ---------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        return [*self.encoder.params, *self.mlp.params]

    @property
    def grads(self) -> list[np.ndarray]:
        return [*self.encoder.grads, *self.mlp.grads]

    def fit(
        self,
        Xs: np.ndarray,
        Xt: np.ndarray,
        y: np.ndarray,
        *,
        epochs: int = 40,
        batch_size: int = 64,
        lr: float = 1e-3,
        seed: int = 0,
    ) -> list[float]:
        Xs = np.asarray(Xs, dtype=self.dtype)
        Xt = np.asarray(Xt, dtype=self.dtype)
        y = np.asarray(y, dtype=self.dtype)
        rng = np.random.default_rng(seed)
        opt = Adam(self.params, lr=lr)
        losses = []
        n = len(y)
        for _ in range(epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                loss, _, _ = self.loss_and_grads(Xs[idx], Xt[idx], y[idx])
                total += loss * len(idx)
                opt.step(self.grads)
            losses.append(total / n)
        return losses

    def predict_proba(
        self, Xs: np.ndarray, Xt: np.ndarray, *, chunk: int = 4096
    ) -> np.ndarray:
        out = np.empty(len(Xs))
        for start in range(0, len(Xs), chunk):
            out[start : start + chunk] = self.forward(
                Xs[start : start + chunk], Xt[start : start + chunk]
            )
        return out
