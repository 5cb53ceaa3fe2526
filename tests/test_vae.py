"""Unit tests for the VAE representation model (`repro.core.vae`, §III)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.vae import VAE, Encoder, encode_with_state
from repro.nn.layers import he_init, pack


class _FixedRng:
    """Deterministic eps source so loss is differentiable in the params."""

    def __init__(self, seed: int = 0):
        self.pool = np.random.default_rng(seed).normal(size=100_000)

    def standard_normal(self, shape):
        n = int(np.prod(shape))
        return self.pool[:n].reshape(shape)


class TestEncoder:
    def test_forward_shapes(self):
        enc = Encoder(6, 10, 4, np.random.default_rng(0))
        mu, lv = enc.forward(np.zeros((5, 6)))
        assert mu.shape == (5, 4) and lv.shape == (5, 4)

    def test_state_roundtrip(self):
        rng = np.random.default_rng(1)
        e1 = Encoder(6, 10, 4, rng)
        e2 = Encoder(6, 10, 4, np.random.default_rng(2))
        e2.load_state(e1.state())
        x = rng.normal(size=(3, 6))
        assert np.allclose(e1.forward(x)[0], e2.forward(x)[0])
        assert np.allclose(e1.forward(x)[1], e2.forward(x)[1])

    def test_load_state_copies(self):
        e1 = Encoder(4, 6, 3, np.random.default_rng(3))
        e2 = Encoder(4, 6, 3, np.random.default_rng(4))
        e2.load_state(e1.state())
        e2.h.W += 1.0
        assert not np.allclose(e1.h.W, e2.h.W)

    def test_encode_with_state_matches_encoder(self):
        rng = np.random.default_rng(5)
        enc = Encoder(6, 10, 4, rng)
        x = rng.normal(size=(7, 6))
        mu1, lv1 = enc.forward(x)
        mu2, sg2 = encode_with_state(enc.state(), x)
        assert np.allclose(mu1, mu2)
        assert np.allclose(np.exp(0.5 * lv1), sg2)


    def test_fused_head_draws_like_two_heads(self):
        """One [mu | logvar] head starts from the weights that a hidden
        layer, a mu head and a logvar head drew from the rng in turn."""
        enc = Encoder(6, 10, 4, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        want = {"h_W": he_init(rng, 6, 10), "mu_W": he_init(rng, 10, 4),
                "lv_W": he_init(rng, 10, 4)}
        s = enc.state()
        assert sorted(s) == ["h_W", "h_b", "lv_W", "lv_b", "mu_W", "mu_b"]
        for key, w in want.items():
            assert s[key].dtype == np.float32
            assert np.array_equal(s[key], w.astype(np.float32)), key
        assert not any(s[key].any() for key in ("h_b", "mu_b", "lv_b"))

    def test_load_state_writes_into_packed_views(self):
        """`load_state` copies into the weights a packed model steps, and
        the state it loaded reads back unchanged."""
        e1 = Encoder(6, 10, 4, np.random.default_rng(7))
        vae = VAE(6, 10, 4, seed=8)
        flat, _ = pack(vae.layers)
        vae.encoder.load_state(e1.state())
        assert pack(vae.layers)[0] is flat
        for key, w in vae.encoder.state().items():
            assert np.array_equal(w, e1.state()[key]) and w.base is flat, key
        x = np.random.default_rng(9).normal(size=(5, 6))
        mu, sigma = encode_with_state(vae.encoder.state(), x)
        assert np.allclose(mu, e1.forward(x.astype(np.float32))[0], rtol=1e-6)
        assert np.allclose(vae.encode(x)[1], sigma, rtol=1e-6)


class TestVAE:
    def test_encode_shapes_and_positive_sigma(self):
        vae = VAE(8, 12, 5, seed=0)
        mu, sigma = vae.encode(np.random.default_rng(0).normal(size=(9, 8)))
        assert mu.shape == (9, 5) and sigma.shape == (9, 5)
        assert (sigma > 0).all()

    def test_decode_shape(self):
        vae = VAE(8, 12, 5, seed=3)
        assert vae.decode(np.zeros((4, 5))).shape == (4, 8)

    def test_loss_components_positive_kl(self):
        vae = VAE(6, 10, 4, seed=4)
        x = np.random.default_rng(4).normal(size=(16, 6))
        total, rec, kl = vae.loss_and_grads(x, np.random.default_rng(5))
        assert kl >= 0
        assert total == pytest.approx(rec + kl)

    def test_gradcheck(self):
        rng0 = np.random.default_rng(6)
        vae = VAE(5, 7, 3, seed=6, dtype=np.float64)
        x = rng0.normal(size=(4, 5))

        def loss_at(flat):
            off = 0
            for p in vae.params:
                p[...] = flat[off : off + p.size].reshape(p.shape)
                off += p.size
            loss, _, _ = vae.loss_and_grads(x, _FixedRng(7))
            return loss

        flat0 = np.concatenate([p.ravel().copy() for p in vae.params])
        loss_at(flat0)
        g = np.concatenate([gr.ravel().copy() for gr in vae.grads])
        for i in rng0.choice(len(flat0), 25, replace=False):
            e = 1e-6
            fp, fm = flat0.copy(), flat0.copy()
            fp[i] += e
            fm[i] -= e
            gn = (loss_at(fp) - loss_at(fm)) / (2 * e)
            assert gn == pytest.approx(g[i], rel=1e-4, abs=1e-7)

    def test_fit_decreases_loss(self):
        X = np.random.default_rng(8).normal(size=(400, 6))
        vae = VAE(6, 16, 4, seed=8)
        losses = vae.fit(X, epochs=15, batch_size=64, seed=8)
        assert losses[-1] < losses[0]

    def test_fit_deterministic(self):
        X = np.random.default_rng(9).normal(size=(100, 6))
        l1 = VAE(6, 12, 4, seed=9).fit(X, epochs=5, seed=9)
        l2 = VAE(6, 12, 4, seed=9).fit(X, epochs=5, seed=9)
        assert np.allclose(l1, l2)

    def test_losses_fall_over_training(self):
        """The per-epoch losses `fit` returns: every late epoch below
        every early one."""
        X = np.random.default_rng(10).normal(size=(500, 6))
        losses = VAE(6, 24, 4, seed=10).fit(X, epochs=30, seed=10)
        assert len(losses) == 30
        assert max(losses[-5:]) < min(losses[:5])

    def test_duplicates_encode_nearby(self):
        """Similarity preservation: near-identical inputs must land closer
        in the latent space than unrelated inputs (§III-C intuition)."""
        rng = np.random.default_rng(11)
        base = rng.normal(size=(300, 8))
        X = np.concatenate([base, base + 0.01 * rng.normal(size=base.shape)])
        vae = VAE(8, 24, 4, seed=11)
        vae.fit(X, epochs=30, seed=11)
        mu, _ = vae.encode(X)
        dup_d = np.linalg.norm(mu[:300] - mu[300:], axis=1).mean()
        rand_d = np.linalg.norm(mu[:300] - mu[300:][::-1], axis=1).mean()
        assert dup_d < rand_d

    def test_state_roundtrip_full(self):
        vae1 = VAE(6, 10, 4, seed=12)
        vae1.fit(np.random.default_rng(12).normal(size=(50, 6)), epochs=3)
        vae2 = VAE(6, 10, 4, seed=13)
        vae2.load_state(vae1.state())
        x = np.random.default_rng(13).normal(size=(5, 6))
        assert np.allclose(vae1.encode(x)[0], vae2.encode(x)[0])
        assert np.allclose(
            vae1.decode(np.zeros((2, 4))), vae2.decode(np.zeros((2, 4)))
        )

    def test_transfer_encodes_foreign_dimension_matching_inputs(self):
        """§III-D: a trained VAE encodes IRs from any source as long as
        the dimensionality matches — no retraining, no errors."""
        vae = VAE(6, 10, 4, seed=14)
        vae.fit(np.random.default_rng(14).normal(size=(100, 6)), epochs=3)
        foreign = np.random.default_rng(15).uniform(-3, 3, size=(20, 6))
        mu, sigma = vae.encode(foreign)
        assert np.isfinite(mu).all() and (sigma > 0).all()
