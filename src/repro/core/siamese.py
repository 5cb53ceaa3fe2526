"""Siamese matching model (paper §IV, Figure 3).

Two variational-encoder heads *share one weight set*, initialised from
the representation model's trained encoder (transfer of §III-D). The
Distance layer computes the attribute-wise squared-2-Wasserstein vector
d = (mu^s - mu^t)^2 + (sigma^s - sigma^t)^2, the concatenation of which
feeds a two-layer MLP classifier.

Training minimises Eq. 4 = binary cross-entropy of the prediction +
margin contrastive term on the per-attribute W2 distances, both pushed
through the shared encoder in one backward pass. A training batch
encodes each distinct IR row once (the s- and t-sides, repeated tuples
and repeated attribute values such as a venue or a year, and empty
values, share rows); each occurrence's gradient is summed onto its row
before the encoder's backward pass, which realises the mirrored updates.
"""
from __future__ import annotations

import numpy as np

from repro.core.vae import Encoder, encode_with_state
from repro.core.wasserstein import w2_vector
from repro.nn.adam import Adam
from repro.nn.layers import Dense, pack
from repro.nn.mlp import MLPClassifier, bce


def _identity(Xs: np.ndarray, Xt: np.ndarray, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (B, m, d) per side -> every IR row, (2*B*m, d) in ``dtype``,
    and the index (2, B, m) of each side's attribute into them."""
    B, m, d = Xs.shape
    X = np.concatenate([Xs.reshape(B * m, d), Xt.reshape(B * m, d)], dtype=dtype)
    return X, np.arange(2 * B * m).reshape(2, B, m)


def _distinct(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bitwise-distinct rows of a C-contiguous ``X`` and the index of
    each row of X into them. Compares a byte view of each row: 25x faster
    here than ``np.unique(axis=0)``, which compares field by field."""
    _, first, inverse = np.unique(
        X.view(np.dtype((np.void, X.shape[1] * X.itemsize))).ravel(),
        return_index=True,
        return_inverse=True,
    )
    return X[first], inverse


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
        pack(self.layers)
        self._cache: dict[str, np.ndarray] = {}

    @property
    def layers(self) -> list[Dense]:
        return [*self.encoder.layers, *self.mlp.layers]

    # ---- forward --------------------------------------------------------------
    def forward(self, Xs: np.ndarray, Xt: np.ndarray) -> np.ndarray:
        """Xs, Xt of shape (B, m, d) -> P(match) of shape (B,)."""
        return self._forward(*_identity(Xs, Xt, self.dtype))

    def _forward(self, X: np.ndarray, index: np.ndarray) -> np.ndarray:
        """P(match) of B pairs whose IR rows are ``X`` (u, d), each encoded
        once; ``index`` (2, B, m) holds the row of X of each side's
        attribute."""
        _, B, m = index.shape
        assert m == self.arity, f"arity mismatch: {m} != {self.arity}"
        k = self.latent
        mu_u, logvar_u = self.encoder.forward(X)
        enc = np.concatenate([mu_u, np.exp(0.5 * logvar_u)], axis=1)  # [mu | sigma]
        pair = enc[index]  # (2, B, m, 2k)
        dvec = w2_vector(pair[0, ..., :k], pair[0, ..., k:], pair[1, ..., :k], pair[1, ..., k:])
        p = self.mlp.forward(dvec.reshape(B, m * k))
        self._cache = dict(enc=enc, pair=pair, dvec=dvec)
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
        return self._loss_and_grads(*_identity(Xs, Xt, self.dtype), y)

    def _loss_and_grads(
        self, X: np.ndarray, index: np.ndarray, y: np.ndarray
    ) -> tuple[float, float, float]:
        """`loss_and_grads` over the rows and index of `_forward`."""
        p = self._forward(X, index)
        c = self._cache
        _, B, m = index.shape
        k = self.latent
        dvec = c["dvec"]

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

        # dL/d[mu | sigma] of each s-side occurrence; the Distance layer is
        # symmetric, so each t-side occurrence's is its negation.
        diff = (c["pair"][0] - c["pair"][1]).reshape(B, m, 2, k)
        g_s = ((g_dvec * 2.0)[:, :, None] * diff).reshape(B * m, 2 * k)
        # Sum the occurrences onto their rows with one signed one-hot GEMM.
        onehot = np.zeros((len(X), B * m), dtype=g_s.dtype)
        cols = np.arange(B * m)
        onehot[index[0].ravel(), cols] = 1
        onehot[index[1].ravel(), cols] -= 1
        g = onehot @ g_s
        g[:, k:] *= 0.5 * c["enc"][:, k:]  # dsigma/dlogvar = sigma / 2
        self.encoder.backward(g)
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
        """Minibatch Adam on Eq. 4; returns the per-epoch mean loss.

        The distinct IR rows of the training pairs are found once; a step
        encodes the distinct rows of its batch.
        """
        y = np.asarray(y, dtype=self.dtype)
        n = len(y)
        X, index = _identity(np.asarray(Xs), np.asarray(Xt), self.dtype)
        rows, inverse = _distinct(X)
        index = inverse.reshape(index.shape)
        rng = np.random.default_rng(seed)
        params, grads = pack(self.layers)
        opt = Adam(params, lr=lr)
        losses = []
        for _ in range(epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                used, batch = np.unique(index[:, idx], return_inverse=True)
                loss, _, _ = self._loss_and_grads(
                    rows[used], batch.reshape(2, len(idx), -1), y[idx]
                )
                total += loss * len(idx)
                opt.step(grads)
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
