"""Tests for the Siamese matching model (`repro.core.siamese`, §IV)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.siamese import SiameseMatcher, _distinct, _identity
from repro.core.vae import VAE, Encoder
from repro.nn.adam import Adam
from repro.nn.layers import Dense, pack
from repro.nn.mlp import MLPClassifier


def _enc_state(d=7, h=9, k=5, seed=3, scale=0.3):
    rng = np.random.default_rng(seed)
    return {
        "h_W": rng.normal(size=(d, h)) * scale,
        "h_b": rng.normal(size=h) * 0.05,
        "mu_W": rng.normal(size=(h, k)) * scale,
        "mu_b": rng.normal(size=k) * 0.05,
        "lv_W": rng.normal(size=(h, k)) * 0.05,
        "lv_b": rng.normal(size=k) * 0.05,
    }


def _repeated_batch(seed=16):
    """Eight pairs of arity 3 whose IR rows repeat as in real training
    sets: tuples shared across pairs, a categorical attribute with two
    values, empty (all-zero) values, and (x, x) pairs."""
    rng = np.random.default_rng(seed)
    tuples = rng.normal(size=(5, 3, 7)) * 0.5
    tuples[:, 1] = rng.normal(size=(2, 7))[[0, 1, 0, 0, 1]] * 0.5
    tuples[[1, 3], 2] = 0.0
    a = np.array([0, 1, 2, 0, 3, 4, 2, 1])
    b = np.array([1, 1, 3, 2, 0, 4, 4, 3])
    y = np.array([1.0, 1, 0, 0, 1, 0, 1, 0])
    return tuples[a], tuples[b], y


def _distinct_rows(sm, Xs, Xt):
    """The distinct IR rows of a batch and the index of `_forward`."""
    X, index = _identity(Xs, Xt, sm.dtype)
    rows, inverse = _distinct(X)
    return rows, inverse.reshape(index.shape)


def _gradcheck(sm, loss, rng, n_params=40):
    """Central differences of ``loss()`` against `sm.grads` it fills."""

    def loss_at(flat):
        off = 0
        for p in sm.params:
            p[...] = flat[off : off + p.size].reshape(p.shape)
            off += p.size
        return loss()

    flat0 = np.concatenate([p.ravel().copy() for p in sm.params])
    loss_at(flat0)
    g = np.concatenate([gr.ravel().copy() for gr in sm.grads])
    for i in rng.choice(len(flat0), n_params, replace=False):
        e = 1e-6
        fp, fm = flat0.copy(), flat0.copy()
        fp[i] += e
        fm[i] -= e
        gn = (loss_at(fp) - loss_at(fm)) / (2 * e)
        assert gn == pytest.approx(g[i], rel=1e-3, abs=1e-7)


class TestForward:
    def test_output_shape_and_range(self):
        sm = SiameseMatcher(_enc_state(), arity=3, hidden=6, seed=0)
        X = np.random.default_rng(0).normal(size=(5, 3, 7))
        p = sm.forward(X, X)
        assert p.shape == (5,)
        assert ((p > 0) & (p < 1)).all()

    def test_symmetric_in_pair_order(self):
        """The Distance layer is symmetric in (s, t), so swapping the
        sides cannot change the prediction."""
        sm = SiameseMatcher(_enc_state(), arity=3, hidden=6, seed=1)
        rng = np.random.default_rng(1)
        Xs, Xt = rng.normal(size=(2, 4, 3, 7))
        assert np.allclose(sm.forward(Xs, Xt), sm.forward(Xt, Xs))

    def test_identical_pair_distance_zero(self):
        sm = SiameseMatcher(_enc_state(), arity=2, hidden=6, seed=2)
        X = np.random.default_rng(2).normal(size=(3, 2, 7))
        sm.forward(X, X)
        assert np.allclose(sm._cache["dvec"], 0.0)

    def test_arity_mismatch_raises(self):
        sm = SiameseMatcher(_enc_state(), arity=3, hidden=6, seed=3)
        with pytest.raises(AssertionError):
            sm.forward(np.zeros((2, 4, 7)), np.zeros((2, 4, 7)))

    def test_shared_weights_initialised_from_state(self):
        state = _enc_state()
        sm = SiameseMatcher(state, arity=2, hidden=6, seed=4)
        for key, w in sm.encoder.state().items():
            assert np.array_equal(w, state[key]), key


class TestLossAndGradients:
    def test_gradcheck(self):
        sm = SiameseMatcher(_enc_state(), arity=3, hidden=6, margin=0.5, seed=4)
        assert all(p.dtype == np.float64 for p in sm.params)  # dtype of the state
        rng = np.random.default_rng(5)
        Xs = rng.normal(size=(4, 3, 7)) * 0.5
        Xt = Xs + rng.normal(size=(4, 3, 7)) * 0.3
        y = np.array([1.0, 0.0, 1.0, 0.0])
        _gradcheck(sm, lambda: sm.loss_and_grads(Xs, Xt, y)[0], rng)

    def test_gradcheck_distinct_rows(self):
        """The kernel over a batch's distinct rows, on a batch whose rows
        repeat (each occurrence's gradient summed onto its row)."""
        sm = SiameseMatcher(_enc_state(), arity=3, hidden=6, margin=0.5, seed=17)
        Xs, Xt, y = _repeated_batch()
        rows, index = _distinct_rows(sm, Xs, Xt)
        assert len(rows) < 0.5 * index.size
        assert np.array_equal(rows[index.ravel()], _identity(Xs, Xt, sm.dtype)[0])
        _gradcheck(sm, lambda: sm._loss_and_grads(rows, index, y)[0],
                   np.random.default_rng(17), n_params=60)

    def test_distinct_row_step_matches_per_row_step(self, monkeypatch):
        """Each `fit` step encodes the distinct rows of its batch once, and
        its loss and gradient equal the per-row pass's in float64."""
        Xs, Xt, y = _repeated_batch()
        sm = SiameseMatcher(_enc_state(), arity=3, hidden=6, seed=18)
        ref = SiameseMatcher(_enc_state(), arity=3, hidden=6, seed=18)
        got, encoded = [], []
        fwd = Encoder.forward

        def rec_fwd(self, x):
            encoded.append(len(x))
            return fwd(self, x)

        monkeypatch.setattr(Encoder, "forward", rec_fwd)
        # Record each step's gradient; the weights stay put.
        monkeypatch.setattr(Adam, "step", lambda self, grad: got.append(grad.copy()))
        losses = sm.fit(Xs, Xt, y, epochs=1, batch_size=5, seed=18)
        order = np.random.default_rng(18).permutation(len(y))
        total = 0.0
        for step, idx in enumerate([order[:5], order[5:]]):
            assert encoded[step] == len(_distinct_rows(sm, Xs[idx], Xt[idx])[0])
            loss, _, _ = ref.loss_and_grads(Xs[idx], Xt[idx], y[idx])
            total += loss * len(idx)
            want = pack(ref.layers)[1]
            np.testing.assert_allclose(
                got[step], want, rtol=1e-12, atol=1e-12 * np.abs(want).max()
            )
        assert encoded[0] < 2 * 5 * 3
        assert losses[0] == pytest.approx(total / len(y), rel=1e-12)

    def test_loss_components(self):
        sm = SiameseMatcher(_enc_state(), arity=2, hidden=6, seed=5)
        rng = np.random.default_rng(6)
        X = rng.normal(size=(4, 2, 7)) * 0.3
        total, bce, contrast = sm.loss_and_grads(
            X, X + 0.1 * rng.normal(size=X.shape), np.array([1.0, 0, 1, 0])
        )
        assert total == pytest.approx(bce + contrast)
        assert bce > 0

    def test_margin_caps_negative_pressure(self):
        """Negatives already further than M contribute zero contrastive
        loss (Eq. 4's max(0, M - W2) hinge)."""
        state = _enc_state(scale=2.0)  # big weights -> large distances
        sm = SiameseMatcher(state, arity=2, hidden=6, margin=0.1, seed=6)
        rng = np.random.default_rng(7)
        Xs = rng.normal(size=(3, 2, 7)) * 3
        Xt = -Xs
        _, _, contrast = sm.loss_and_grads(Xs, Xt, np.zeros(3))
        assert contrast == pytest.approx(0.0)

    def test_positive_pairs_pull_representations_together(self):
        """Training on positive pairs only must shrink their W2."""
        sm = SiameseMatcher(_enc_state(seed=8), arity=2, hidden=6, seed=8)
        rng = np.random.default_rng(8)
        Xs = rng.normal(size=(30, 2, 7))
        Xt = rng.normal(size=(30, 2, 7))
        sm.forward(Xs, Xt)
        before = sm._cache["dvec"].sum()
        sm.fit(Xs, Xt, np.ones(30), epochs=30, seed=8)
        sm.forward(Xs, Xt)
        assert sm._cache["dvec"].sum() < before


class TestTraining:
    def test_learns_toy_duplicates(self):
        rng = np.random.default_rng(9)
        N, m, d = 150, 3, 7
        base = rng.normal(size=(N, m, d))
        Xs = np.concatenate([base, base])
        Xt = np.concatenate(
            [base + 0.05 * rng.normal(size=base.shape), rng.normal(size=base.shape)]
        )
        y = np.concatenate([np.ones(N), np.zeros(N)])
        sm = SiameseMatcher(_enc_state(seed=10), arity=m, hidden=8, seed=10)
        sm.fit(Xs, Xt, y, epochs=40, seed=10)
        acc = ((sm.predict_proba(Xs, Xt) > 0.5) == y).mean()
        assert acc > 0.95

    def test_fit_reduces_loss(self):
        rng = np.random.default_rng(11)
        Xs = rng.normal(size=(60, 2, 7))
        Xt = rng.normal(size=(60, 2, 7))
        y = (rng.random(60) > 0.5).astype(float)
        sm = SiameseMatcher(_enc_state(seed=11), arity=2, hidden=6, seed=11)
        losses = sm.fit(Xs, Xt, y, epochs=20, seed=11)
        assert losses[-1] < losses[0]

    def test_predict_chunking_consistent(self):
        sm = SiameseMatcher(_enc_state(seed=12), arity=2, hidden=6, seed=12)
        rng = np.random.default_rng(12)
        Xs = rng.normal(size=(50, 2, 7))
        Xt = rng.normal(size=(50, 2, 7))
        assert np.allclose(
            sm.predict_proba(Xs, Xt, chunk=7), sm.predict_proba(Xs, Xt, chunk=1000)
        )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        Xs = rng.normal(size=(40, 2, 7))
        Xt = rng.normal(size=(40, 2, 7))
        y = (rng.random(40) > 0.5).astype(float)
        s1 = SiameseMatcher(_enc_state(seed=13), arity=2, hidden=6, seed=13)
        s2 = SiameseMatcher(_enc_state(seed=13), arity=2, hidden=6, seed=13)
        s1.fit(Xs, Xt, y, epochs=5, seed=13)
        s2.fit(Xs, Xt, y, epochs=5, seed=13)
        assert np.allclose(s1.predict_proba(Xs, Xt), s2.predict_proba(Xs, Xt))


class TestFloat32:
    def _record(self, monkeypatch):
        """Record every Adam that steps and the dtype of every array a
        Dense layer sees (inputs forward, upstream gradients backward):
        the preallocated grad and moment buffers alone would hide an
        upcast, because writing into them casts back."""
        opts: list[Adam] = []
        seen: set[np.dtype] = set()
        step, fwd, bwd = Adam.step, Dense.forward, Dense.backward

        def rec_step(self, grad):
            if self not in opts:
                opts.append(self)
            seen.add(grad.dtype)
            step(self, grad)

        def rec_fwd(self, x):
            seen.add(x.dtype)
            return fwd(self, x)

        def rec_bwd(self, gy, **kw):
            seen.add(gy.dtype)
            return bwd(self, gy, **kw)

        monkeypatch.setattr(Adam, "step", rec_step)
        monkeypatch.setattr(Dense, "forward", rec_fwd)
        monkeypatch.setattr(Dense, "backward", rec_bwd)
        return opts, seen

    def test_default_fits_stay_float32(self, monkeypatch):
        """One default VAE fit, one Siamese epoch from its encoder and one
        MLP epoch keep every param, grad, Adam moment and layer activation
        in float32, from float64 inputs and int labels."""
        opts, seen = self._record(monkeypatch)
        rng = np.random.default_rng(14)
        vae = VAE(7, 9, 5, seed=14)
        assert np.isfinite(vae.fit(rng.normal(size=(64, 7)), epochs=1, batch_size=16)).all()
        sm = SiameseMatcher(vae.encoder.state(), arity=2, hidden=6, seed=14)
        Xs = rng.normal(size=(20, 2, 7))
        Xt = rng.normal(size=(20, 2, 7))
        y = (rng.random(20) > 0.5).astype(np.int64)
        assert np.isfinite(sm.fit(Xs, Xt, y, epochs=1, batch_size=8)).all()
        mlp = MLPClassifier(4, (5,), seed=14)  # the baseline lites' head
        assert np.isfinite(mlp.fit(rng.normal(size=(20, 4)), y, epochs=1)).all()
        assert len(opts) == 3
        arrays = [*vae.params, *vae.grads, *sm.params, *sm.grads, *mlp.params, *mlp.grads]
        for opt in opts:
            arrays += [opt.m, opt.v]
        assert {a.dtype for a in arrays} | seen == {np.dtype(np.float32)}
        assert sm.forward(Xs, Xt).dtype == np.float32

    def test_saturated_prediction_gives_finite_loss(self):
        """A confidently wrong float32 prediction (p rounds to 1) must
        report a finite, large BCE, not inf."""
        sm = SiameseMatcher(
            {k: v.astype(np.float32) for k, v in _enc_state().items()},
            arity=2, hidden=6, seed=15,
        )
        sm.mlp.layers[-1].b[...] = 100.0  # logit >= 100 for every pair
        X = np.random.default_rng(15).normal(size=(3, 2, 7))
        assert (sm.forward(X, X) == 1.0).all()
        total, bce, _ = sm.loss_and_grads(X, X, np.zeros(3, dtype=np.float32))
        assert np.isfinite(total) and bce > 20.0
        assert all(np.isfinite(g).all() for g in sm.grads)
