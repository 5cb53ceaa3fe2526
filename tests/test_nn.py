"""Unit tests for the numpy neural substrate (`repro.nn`)."""
from __future__ import annotations

import numpy as np
import pytest

from repro.nn.adam import Adam
from repro.nn.layers import Dense, he_init, pack, relu, relu_grad, sigmoid
from repro.nn.mlp import MLPClassifier


class TestActivations:
    def test_relu_positive_passthrough(self):
        x = np.array([0.5, 2.0, 100.0])
        assert np.array_equal(relu(x), x)

    def test_relu_clamps_negatives(self):
        assert np.array_equal(relu(np.array([-1.0, -0.1, 0.0])), np.zeros(3))

    def test_relu_grad_values(self):
        g = relu_grad(np.array([-2.0, 0.0, 3.0]))
        assert np.array_equal(g, np.array([0.0, 0.0, 1.0]))

    def test_sigmoid_midpoint(self):
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_symmetry(self):
        x = np.linspace(-5, 5, 11)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0)

    @pytest.mark.parametrize("v", [-1000.0, -50.0, 50.0, 1000.0])
    def test_sigmoid_extreme_values_stable(self, v):
        out = sigmoid(np.array([v]))
        assert np.isfinite(out).all()
        assert 0.0 <= out[0] <= 1.0

    def test_sigmoid_monotone(self):
        x = np.linspace(-10, 10, 101)
        assert (np.diff(sigmoid(x)) > 0).all()


class TestDense:
    def test_forward_shape(self):
        layer = Dense(4, 3, np.random.default_rng(0))
        assert layer.forward(np.zeros((7, 4))).shape == (7, 3)

    def test_forward_is_affine(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(5, 3))
        assert np.allclose(layer.forward(x), x @ layer.W + layer.b)

    def test_backward_requires_forward(self):
        layer = Dense(2, 2, np.random.default_rng(0))
        with pytest.raises(AssertionError):
            layer.backward(np.zeros((1, 2)))

    def test_backward_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, rng, dtype=np.float64)
        x = rng.normal(size=(4, 3))
        # L = sum(y); dL/dW = x^T @ 1, dL/db = sum over batch
        layer.forward(x)
        gx = layer.backward(np.ones((4, 2)))
        assert np.allclose(layer.gW, x.T @ np.ones((4, 2)))
        assert np.allclose(layer.gb, np.full(2, 4.0))
        assert np.allclose(gx, np.ones((4, 2)) @ layer.W.T)

    def test_he_init_scale(self):
        W = he_init(np.random.default_rng(5), 1000, 50)
        assert W.std() == pytest.approx(np.sqrt(2 / 1000), rel=0.1)


class TestAdam:
    def test_minimises_quadratic(self):
        p = np.array([5.0, -3.0])
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.step([2 * p])  # grad of ||p||^2
        assert np.abs(p).max() < 1e-3

    def test_updates_in_place(self):
        p = np.ones(2)
        ref = p
        Adam([p], lr=0.1).step([np.ones(2)])
        assert ref is p and not np.allclose(p, 1.0)

    def test_bias_correction_first_step(self):
        # First Adam step magnitude is ~lr regardless of gradient scale.
        p = np.zeros(1)
        Adam([p], lr=0.01).step([np.array([1e-4])])
        assert abs(p[0]) == pytest.approx(0.01, rel=1e-3)

    def test_step_count_advances(self):
        opt = Adam([np.zeros(1)])
        opt.step([np.zeros(1)])
        opt.step([np.zeros(1)])
        assert opt.t == 2

    def test_shape_mismatch_raises(self):
        opt = Adam([np.zeros(2)])
        with pytest.raises(AssertionError):
            opt.step([np.zeros(2), np.zeros(2)])


class TestMLP:
    def test_forward_shape_and_range(self):
        mlp = MLPClassifier(4, (8,), seed=0)
        p = mlp.forward(np.random.default_rng(0).normal(size=(10, 4)))
        assert p.shape == (10,)
        assert ((p > 0) & (p < 1)).all()

    def test_learns_linearly_separable(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(300, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(float)
        mlp = MLPClassifier(2, (8,), seed=1)
        mlp.fit(X, y, epochs=150, seed=1)
        acc = ((mlp.predict_proba(X) > 0.5) == y).mean()
        assert acc > 0.95

    def test_learns_xor(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
        mlp = MLPClassifier(2, (16, 8), seed=2)
        mlp.fit(X, y, epochs=300, lr=5e-3, seed=2)
        acc = ((mlp.predict_proba(X) > 0.5) == y).mean()
        assert acc > 0.9

    def test_fit_returns_decreasing_loss(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(float)
        losses = MLPClassifier(3, (8,), seed=3).fit(X, y, epochs=50, seed=3)
        assert losses[-1] < losses[0]

    def test_gradcheck_bce(self):
        rng = np.random.default_rng(4)
        mlp = MLPClassifier(3, (5,), seed=4, dtype=np.float64)
        X = rng.normal(size=(6, 3))
        y = np.array([1.0, 0, 1, 0, 1, 0])

        def loss_at(flat):
            off = 0
            for p in mlp.params:
                p[...] = flat[off : off + p.size].reshape(p.shape)
                off += p.size
            p_hat = np.clip(mlp.forward(X), 1e-12, 1 - 1e-12)
            return float(
                -(y * np.log(p_hat) + (1 - y) * np.log(1 - p_hat)).mean()
            )

        flat0 = np.concatenate([p.ravel().copy() for p in mlp.params])
        loss_at(flat0)
        mlp.backward_from_logit_grad((mlp.forward(X) - y) / len(y))
        g = np.concatenate([gr.ravel().copy() for gr in mlp.grads])
        idx = rng.choice(len(flat0), 20, replace=False)
        for i in idx:
            e = 1e-6
            fp, fm = flat0.copy(), flat0.copy()
            fp[i] += e
            fm[i] -= e
            gn = (loss_at(fp) - loss_at(fm)) / (2 * e)
            assert gn == pytest.approx(g[i], rel=1e-4, abs=1e-7)

    def test_backward_from_logit_grad_returns_input_grad_shape(self):
        mlp = MLPClassifier(4, (6,), seed=5)
        X = np.random.default_rng(5).normal(size=(3, 4))
        mlp.forward(X)
        gx = mlp.backward_from_logit_grad(np.ones(3))
        assert gx.shape == (3, 4)

    def test_deterministic_given_seed(self):
        X = np.random.default_rng(6).normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(float)
        p1 = MLPClassifier(3, (8,), seed=7)
        p2 = MLPClassifier(3, (8,), seed=7)
        p1.fit(X, y, epochs=10, seed=7)
        p2.fit(X, y, epochs=10, seed=7)
        assert np.allclose(p1.predict_proba(X), p2.predict_proba(X))


_LR, _B1, _B2, _EPS = 1e-2, 0.9, 0.999, 1e-8


def _textbook_step(ref, m, v, grads, t):
    """The allocating textbook Adam update of each array of ``ref``."""
    for i, g in enumerate(grads):
        m[i] = _B1 * m[i] + (1 - _B1) * g
        v[i] = _B2 * v[i] + (1 - _B2) * g * g
        mhat = m[i] / (1 - _B1**t)
        vhat = v[i] / (1 - _B2**t)
        ref[i] = ref[i] - _LR * mhat / (np.sqrt(vhat) + _EPS)


class TestAdamBuffers:
    def test_bit_identical_to_textbook_update(self):
        """The buffer-reusing step reproduces the allocating textbook
        update exactly over many float64 steps."""
        rng = np.random.default_rng(7)
        shapes = [(5, 3), (3,), (1,)]
        params = [rng.normal(size=s) for s in shapes]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = Adam(params, lr=_LR, beta1=_B1, beta2=_B2, eps=_EPS)
        for t in range(1, 51):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-4, 2) for s in shapes]
            opt.step(grads)
            _textbook_step(ref, m, v, grads, t)
            assert all(np.array_equal(p, r) for p, r in zip(params, ref)), t
        assert all(np.array_equal(a, b) for a, b in zip(opt.m, m))
        assert all(np.array_equal(a, b) for a, b in zip(opt.v, v))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_buffer_matches_textbook_per_array_update(self, dtype):
        """Stepping a model's one packed array is the textbook update of
        each of its parameter arrays, bit for bit."""
        rng = np.random.default_rng(9)
        layers = [Dense(5, 3, rng, dtype), Dense(3, 1, rng, dtype)]
        flat, grad = pack(layers)
        params = [p for layer in layers for p in layer.params]
        grads = [g for layer in layers for g in layer.grads]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        opt = Adam([flat], lr=_LR, beta1=_B1, beta2=_B2, eps=_EPS)
        for t in range(1, 51):
            for g in grads:
                g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-4, 2)
            opt.step([grad])
            _textbook_step(ref, m, v, grads, t)
            assert all(np.array_equal(p, r) for p, r in zip(params, ref)), t
        assert all(p.dtype == dtype for p in [*ref, *m, *v, *opt.m, *opt.v])

    def test_keeps_float32(self):
        p = np.ones(4, dtype=np.float32)
        opt = Adam([p])
        opt.step([np.full(4, 0.5, dtype=np.float32)])
        assert p.dtype == opt.m[0].dtype == opt.v[0].dtype == np.float32


class TestPack:
    def test_layers_hold_views_of_one_buffer(self):
        rng = np.random.default_rng(10)
        layers = [Dense(4, 3, rng), Dense(3, 2, rng)]
        before = [p.copy() for layer in layers for p in layer.params]
        flat, grad = pack(layers)
        assert flat.size == grad.size == 4 * 3 + 3 + 3 * 2 + 2
        after = [p for layer in layers for p in layer.params]
        assert all(np.array_equal(a, b) for a, b in zip(after, before))
        assert all(p.base is flat for p in after)
        assert all(g.base is grad for layer in layers for g in layer.grads)
        layers[1].b[...] = 7.0
        assert (flat[-2:] == 7.0).all()

    def test_repacking_the_same_layers_keeps_the_buffer(self):
        mlp = MLPClassifier(4, (3,), seed=11)
        flat, grad = pack(mlp.layers)
        again = pack(mlp.layers)
        assert again[0] is flat and again[1] is grad
        # A subset of the packed layers gets a buffer of its own.
        own, _ = pack(mlp.layers[1:])
        assert own is not flat and own.size == 3 + 1
        assert mlp.layers[1].W.base is own


class TestFloat32Default:
    def test_layers_default_to_float32(self):
        mlp = MLPClassifier(3, (4,), seed=0)
        assert all(p.dtype == np.float32 for p in mlp.params)
        assert mlp.predict_proba(np.ones((2, 3))).dtype == np.float32

    def test_sigmoid_keeps_dtype(self):
        x = np.array([-3.0, 0.0, 3.0], dtype=np.float32)
        assert sigmoid(x).dtype == np.float32

    def test_saturated_logit_gradients_are_flushed(self):
        """p - y of a saturated float32 sigmoid (~1e-40) is flushed to 0
        before backprop, so no grad holds a subnormal float."""
        rng = np.random.default_rng(8)
        mlp = MLPClassifier(4, (6,), seed=8)
        X = rng.normal(size=(3, 4)).astype(np.float32)
        glogit = np.array([1e-40, -3e-25, 0.2], dtype=np.float32)
        mlp.forward(X)
        gx = mlp.backward_from_logit_grad(glogit)
        got = [g.copy() for g in mlp.grads]
        mlp.forward(X)
        want_gx = mlp.backward_from_logit_grad(np.array([0, 0, 0.2], dtype=np.float32))
        assert np.array_equal(gx, want_gx)
        assert all(np.array_equal(a, b) for a, b in zip(got, mlp.grads))
        tiny = np.finfo(np.float32).tiny
        assert not any(((g != 0) & (np.abs(g) < tiny)).any() for g in [gx, *got])

    def test_saturated_prediction_gives_finite_loss(self):
        """In float32, p rounds to exactly 0 or 1 for large logits, and
        ``1 - 1e-12`` rounds to 1: the reported loss must still be finite."""
        X = np.array([[1.0], [-1.0]])
        y = np.array([0.0, 1.0])  # both confidently wrong
        mlp = MLPClassifier(1, (2,), seed=0)
        mlp.layers[0].W[...] = [[100.0, -100.0]]
        mlp.layers[1].W[...] = [[100.0], [-100.0]]
        p = mlp.predict_proba(X)
        assert p[0] == 1.0 and p[1] == 0.0
        losses = mlp.fit(X, y, epochs=1, batch_size=2)
        assert np.isfinite(losses).all() and losses[0] > 20.0
