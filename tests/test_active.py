"""Tests for active learning (§V, Algorithms 1 & 2)."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pandas as pd
import pytest

from repro.core import config
from repro.core.active import (
    ActiveLearner,
    DomainTensors,
    OracleLabeler,
    al_bootstrap,
    evaluate_matcher,
    predict_pairs,
    train_matcher,
)
from repro.core.config import VaerConfig
from repro.core.kde import GaussianKDE
from repro.core.siamese import SiameseMatcher


def _toy_world(seed=0, n=60, m=2, d=6, k=4):
    """A synthetic domain where table b's first half duplicates table a."""
    rng = np.random.default_rng(seed)
    irs_a = rng.normal(size=(n, m, d))
    n_dup = n // 2
    irs_b = np.concatenate(
        [irs_a[:n_dup] + 0.05 * rng.normal(size=(n_dup, m, d)),
         rng.normal(size=(n - n_dup, m, d))]
    )
    # latent = first k dims of each attribute, flattened (a stand-in encoder)
    mu_a = irs_a[:, :, :k].reshape(n, m * k)
    mu_b = irs_b[:, :, :k].reshape(n, m * k)
    sg = 0.05
    tensors = DomainTensors(
        ids={"a": np.arange(n), "b": np.arange(n)},
        irs={"a": irs_a, "b": irs_b},
        mu={"a": mu_a, "b": mu_b},
        sigma={"a": np.full_like(mu_a, sg), "b": np.full_like(mu_b, sg)},
    )
    truth = pd.DataFrame({"id_a": np.arange(n_dup), "id_b": np.arange(n_dup)})
    # candidate pool: all pairs with their W2 (= euclid since sigma equal)
    pairs = [(i, j) for i in range(n) for j in range(n)]
    w2 = [((mu_a[i] - mu_b[j]) ** 2).sum() for i, j in pairs]
    cand = pd.DataFrame(
        {"id_a": [p[0] for p in pairs], "id_b": [p[1] for p in pairs], "w2": w2}
    )
    return tensors, truth, cand


_CFG = VaerConfig(
    ir_dim=6, vae_latent_dim=4, match_hidden_dim=8,
    match_epochs=30, match_min_steps=1200, match_max_epochs=400,
    kde_samples_per_pair=20, al_samples_per_iteration=8,
)


def _enc_state(d=6, h=10, k=4, seed=1):
    rng = np.random.default_rng(seed)
    return {
        "h_W": rng.normal(size=(d, h)) * 0.4, "h_b": np.zeros(h),
        "mu_W": rng.normal(size=(h, k)) * 0.4, "mu_b": np.zeros(k),
        "lv_W": rng.normal(size=(h, k)) * 0.05, "lv_b": np.zeros(k) - 1.0,
    }


class TestRows:
    def _tensors(self, ids_a, ids_b):
        ids = {"a": ids_a, "b": ids_b}
        zeros = {t: np.zeros((len(v), 1)) for t, v in ids.items()}
        return DomainTensors(
            ids=ids, irs={t: z[:, :, None] for t, z in zeros.items()},
            mu=zeros, sigma=zeros,
        )

    def test_shuffled_ids_match_dict_lookup(self):
        rng = np.random.default_rng(0)
        ids_a = rng.permutation(np.arange(1000, 1500) * 7)
        ids_b = rng.permutation(np.arange(300))
        t = self._tensors(ids_a, ids_b)
        for table, ids in (("a", ids_a), ("b", ids_b)):
            row = {int(v): i for i, v in enumerate(ids)}
            query = rng.choice(ids, size=2000)  # repeats included
            want = np.array([row[int(i)] for i in query], dtype=np.int64)
            got = t._rows(table, query)
            assert got.dtype == np.int64 and np.array_equal(got, want)
            assert np.array_equal(t.ids[table][got], query)
        assert len(t._rows("a", np.array([], dtype=np.int64))) == 0

    @pytest.mark.parametrize("unknown", [-1, 5, 10_000])
    def test_unknown_id_raises_key_error(self, unknown):
        """Below, between and above the known ids."""
        t = self._tensors(np.array([9, 3, 0, 7]), np.array([1]))
        with pytest.raises(KeyError):
            t._rows("a", np.array([3, unknown, 9]))

    def test_pair_euclid_is_chunk_free(self, monkeypatch):
        """Gathering float32 means a block at a time gives the one-pass
        numpy distance of their float64 values, bit for bit, across block
        boundaries (10,000 pairs, 1,000 per block)."""
        tensors, _, cand = _toy_world(n=100)
        tensors.mu = {t: x.astype(np.float32) for t, x in tensors.mu.items()}
        ida, idb = cand["id_a"].to_numpy(), cand["id_b"].to_numpy()
        mu = {t: x.astype(np.float64) for t, x in tensors.mu.items()}
        want = np.sqrt(((mu["a"][ida] - mu["b"][idb]) ** 2).sum(axis=-1))
        monkeypatch.setattr(config, "BLOCK_BYTES", 1000 * 8 * mu["a"].shape[1])
        assert np.array_equal(tensors.pair_euclid(ida, idb), want)


class TestBlocks:
    """Every pass over the pool works in blocks of `config.BLOCK_BYTES`:
    one row per block gives the default budget's results bit for bit, and
    the memory a pass needs beyond its result does not grow with the pool."""

    @staticmethod
    def _both(monkeypatch, fn):
        """``fn()`` under the default budget, then under one row per block."""
        want = fn()
        monkeypatch.setattr(config, "BLOCK_BYTES", 1)
        return want, fn()

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_pair_euclid(self, monkeypatch):
        tensors, _, cand = _toy_world()
        ida, idb = cand["id_a"].to_numpy(), cand["id_b"].to_numpy()
        want, got = self._both(monkeypatch, lambda: tensors.pair_euclid(ida, idb))
        assert np.array_equal(got, want)

    def test_predict_pairs(self, monkeypatch):
        tensors, _, cand = _toy_world()
        m = SiameseMatcher(_enc_state(), arity=2, hidden=8, seed=0)
        want, got = self._both(monkeypatch, lambda: predict_pairs(m, tensors, cand))
        assert np.array_equal(got, want)

    def test_kde_pdf(self, monkeypatch):
        tensors, _, cand = _toy_world()
        d = tensors.pair_euclid(cand["id_a"].to_numpy(), cand["id_b"].to_numpy())
        kde = GaussianKDE(d[:50])
        want, got = self._both(monkeypatch, lambda: kde.pdf(d))
        assert np.array_equal(got, want)

    def test_bootstrap_and_two_steps(self, monkeypatch):
        def run():
            tensors, truth, cand = _toy_world(seed=1)
            al = ActiveLearner(tensors, OracleLabeler(truth), _enc_state(), _CFG, seed=1)
            al.bootstrap(cand, n_pos=5, n_neg=5)
            al.step()
            al.step()
            return al.l_pos, al.l_neg, al.pool, al.dist, al.kde.samples

        want, got = self._both(monkeypatch, run)
        for w, g in zip(want, got):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("blocks", [2, 20])
    def test_pair_euclid_memory(self, monkeypatch, blocks):
        rng = np.random.default_rng(0)
        n, dim = 300, 16
        mu = {t: rng.normal(size=(n, dim)).astype(np.float32) for t in "ab"}
        tensors = DomainTensors(
            ids={t: np.arange(n) for t in "ab"},
            irs={t: np.zeros((n, 1, 1), np.float32) for t in "ab"},
            mu=mu,
            sigma=mu,
        )
        monkeypatch.setattr(config, "BLOCK_BYTES", 1 << 20)
        pairs = blocks * config.block_rows(8 * dim)
        ida, idb = rng.integers(0, n, pairs), rng.integers(0, n, pairs)
        out, peak = self._peak(lambda: tensors.pair_euclid(ida, idb))
        assert len(out) == pairs
        assert peak < 4 * config.BLOCK_BYTES + out.nbytes

    @pytest.mark.parametrize("blocks", [2, 20])
    def test_kde_pdf_memory(self, monkeypatch, blocks):
        rng = np.random.default_rng(0)
        kde = GaussianKDE(rng.normal(size=1000))
        monkeypatch.setattr(config, "BLOCK_BYTES", 1 << 20)
        x = rng.normal(size=blocks * config.block_rows(kde.samples.nbytes))
        out, peak = self._peak(lambda: kde.pdf(x))
        assert len(out) == len(x)
        assert peak < 4 * config.BLOCK_BYTES + out.nbytes


class TestOracleLabeler:
    def test_labels_and_counts(self):
        lab = OracleLabeler(pd.DataFrame({"id_a": [1, 2], "id_b": [10, 20]}))
        y = lab.label(np.array([1, 2, 3]), np.array([10, 99, 30]))
        assert y.tolist() == [1, 0, 0]
        assert lab.n_queries == 3


class TestBootstrap:
    def test_independent_of_candidate_order(self):
        """W2 ties are broken by ids, so the collected row order (which
        follows Spark's partitioning) cannot change L+, L- or U."""
        _, truth, cand = _toy_world()
        cand = cand.assign(w2=cand["w2"].round(1))  # many ties
        assert cand["w2"].duplicated().sum() > len(cand) // 2
        got = [
            al_bootstrap(c, OracleLabeler(truth), n_pos=5, n_neg=5)
            for c in (cand, cand.sample(frac=1.0, random_state=3))
        ]
        pd.testing.assert_frame_equal(got[0].cand, got[1].cand)
        for f in ("l_pos", "l_neg", "unlabeled"):
            assert np.array_equal(getattr(got[0], f), getattr(got[1], f))

    def test_sets_partition_candidates(self):
        _, truth, cand = _toy_world()
        res = al_bootstrap(cand, OracleLabeler(truth), n_pos=5, n_neg=5)
        assert len(res.l_pos) == 5 and len(res.l_neg) == 5
        rows = np.concatenate([res.l_pos, res.l_neg, res.unlabeled])
        assert np.array_equal(np.sort(rows), np.arange(len(cand)))

    def test_positives_are_true_duplicates(self):
        _, truth, cand = _toy_world()
        res = al_bootstrap(cand, OracleLabeler(truth), n_pos=5, n_neg=5)
        pos = res.cand.take(res.l_pos)
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        assert all((a, b) in truth_set for a, b in zip(pos["id_a"], pos["id_b"]))

    def test_negatives_are_true_negatives(self):
        _, truth, cand = _toy_world()
        res = al_bootstrap(cand, OracleLabeler(truth), n_pos=5, n_neg=5)
        neg = res.cand.take(res.l_neg)
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        assert all((a, b) not in truth_set for a, b in zip(neg["id_a"], neg["id_b"]))

    def test_positive_w2_below_negative_w2(self):
        """Alg. 1 intuition: L+ comes from the small-distance end."""
        _, truth, cand = _toy_world()
        res = al_bootstrap(cand, OracleLabeler(truth), n_pos=5, n_neg=5)
        w2 = {
            (a, b): w
            for a, b, w in zip(cand["id_a"], cand["id_b"], cand["w2"])
        }
        pos, neg = res.cand.take(res.l_pos), res.cand.take(res.l_neg)
        max_pos = max(w2[(a, b)] for a, b in zip(pos["id_a"], pos["id_b"]))
        min_neg = min(w2[(a, b)] for a, b in zip(neg["id_a"], neg["id_b"]))
        assert max_pos < min_neg

    def test_false_positive_removal_counted(self):
        """Poison the pool with a non-duplicate at distance ~0: Alg. 1
        must skip it and report one removal (the † footnote)."""
        tensors, truth, cand = _toy_world()
        poisoned = pd.concat(
            [pd.DataFrame({"id_a": [59], "id_b": [0], "w2": [0.0]}), cand],
            ignore_index=True,
        )
        res = al_bootstrap(poisoned, OracleLabeler(truth), n_pos=5, n_neg=5)
        assert res.n_false_pos_removed >= 1
        pos = res.cand.take(res.l_pos)
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        assert all((a, b) in truth_set for a, b in zip(pos["id_a"], pos["id_b"]))

    def test_queries_count_only_inspected_pairs(self):
        """A head without positives extends to the second positive (rows
        3 and 5); the tail scan then reads 3 negatives. Row 6, a true
        pair, is never shown to the user."""
        truth = pd.DataFrame({"id_a": [0, 1, 2], "id_b": [0, 1, 2]})
        cand = pd.DataFrame({
            "id_a": [50, 51, 52, 0, 53, 1, 2, 54, 55, 56],
            "id_b": [1, 2, 3, 0, 4, 1, 2, 5, 6, 7],
            "w2": np.arange(10.0),
        })
        labeler = OracleLabeler(truth)
        res = al_bootstrap(cand, labeler, n_pos=2, n_neg=3)
        assert res.l_pos.tolist() == [3, 5] and res.l_neg.tolist() == [9, 8, 7]
        assert res.n_false_pos_removed == 2
        assert labeler.n_queries == 2 + 4 + 3


class TestMatcherHelpers:
    def test_train_and_evaluate(self):
        tensors, truth, cand = _toy_world()
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        pairs = cand.sample(n=120, random_state=0)[["id_a", "id_b"]].reset_index(drop=True)
        labels = np.array(
            [1 if (a, b) in truth_set else 0 for a, b in zip(pairs["id_a"], pairs["id_b"])]
        )
        # Ensure some positives exist in the training sample.
        pairs = pd.concat([pairs, truth.head(10)], ignore_index=True)
        labels = np.concatenate([labels, np.ones(10, dtype=int)])
        m = train_matcher(tensors, pairs, labels, _enc_state(), _CFG, seed=0)
        test = pd.concat(
            [
                truth.tail(10).assign(label=1),
                pd.DataFrame({"id_a": [50, 51, 52], "id_b": [1, 2, 3], "label": 0}),
            ],
            ignore_index=True,
        )
        prf = evaluate_matcher(m, tensors, test)
        assert prf.f1 > 0.7

    def test_epoch_autoscaling_small_sets(self):
        """Tiny labeled sets must still get >= match_min_steps steps."""
        tensors, truth, _ = _toy_world()
        pairs = pd.concat(
            [truth.head(4), pd.DataFrame({"id_a": [55, 56], "id_b": [2, 3]})],
            ignore_index=True,
        )
        labels = np.array([1, 1, 1, 1, 0, 0])
        m = train_matcher(tensors, pairs, labels, _enc_state(), _CFG, seed=0)
        assert m is not None  # smoke: must not underflow or error


class TestActiveLearner:
    def _learner(self, seed=0, **kw):
        tensors, truth, cand = _toy_world(seed=seed)
        labeler = OracleLabeler(truth)
        al = ActiveLearner(tensors, labeler, _enc_state(), _CFG, seed=seed, **kw)
        return al, cand, truth

    def test_bootstrap_initialises_state(self):
        al, cand, _ = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        assert al.matcher is not None and al.kde is not None
        assert len(al.pool) > 0

    def test_step_labels_quota_and_shrinks_pool(self):
        al, cand, _ = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        before = len(al.pool)
        got = al.step()
        assert got == _CFG.al_samples_per_iteration
        assert len(al.pool) == before - got

    def test_labels_go_to_correct_sets(self):
        al, cand, truth = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        al.step()
        truth_set = set(zip(truth["id_a"], truth["id_b"]))
        pos, neg = al.cand.take(al.l_pos), al.cand.take(al.l_neg)
        for a, b in zip(pos["id_a"], pos["id_b"]):
            assert (a, b) in truth_set
        for a, b in zip(neg["id_a"], neg["id_b"]):
            assert (a, b) not in truth_set

    def test_run_respects_budget(self):
        al, cand, _ = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        q0 = al.labeler.n_queries
        al.run(budget=16)
        assert al.labeler.n_queries - q0 == 16

    def test_run_stops_at_budget_mid_iteration(self):
        """A budget that is not a multiple of the per-iteration quota is
        met exactly: the last step labels only what is left."""
        al, cand, _ = self._learner()
        al.bootstrap(cand, n_pos=5, n_neg=5)
        q0, labeled0 = al.labeler.n_queries, len(al.l_pos) + len(al.l_neg)
        al.run(budget=25)
        assert al.labeler.n_queries - q0 == 25
        assert len(al.l_pos) + len(al.l_neg) - labeled0 == 25

    def test_al_improves_over_bootstrap(self):
        al, cand, truth = self._learner(seed=3)
        al.bootstrap(cand, n_pos=4, n_neg=4)
        tensors = al.tensors
        test = pd.concat(
            [
                truth.tail(12).assign(label=1),
                pd.DataFrame(
                    {"id_a": range(40, 56), "id_b": list(range(16, 0, -1)), "label": 0}
                ),
            ],
            ignore_index=True,
        )
        f1_boot = evaluate_matcher(al.matcher, tensors, test).f1
        al.run(budget=40)
        f1_al = evaluate_matcher(al.matcher, tensors, test).f1
        assert f1_al >= f1_boot - 0.05  # AL must not regress materially

    def test_empty_pool_stops(self):
        al, cand, _ = self._learner()
        al.bootstrap(cand.head(12), n_pos=5, n_neg=5)
        al.pool, al.dist = al.pool[:0], al.dist[:0]
        assert al.step() == 0

    def test_max_pool_caps_pool(self):
        """A pool above ``max_pool`` is capped by `DataFrame.sample`'s
        seeded draw of the unlabeled candidates, disjoint from L."""
        pools = []
        for _ in range(2):
            al, cand, _ = self._learner(max_pool=100)
            res = al.bootstrap(cand, n_pos=5, n_neg=5)
            assert len(res.unlabeled) > 100 and len(al.pool) == 100
            assert not set(al.pool) & (set(al.l_pos) | set(al.l_neg))
            u = al.cand.take(al.pool)
            want = al.tensors.pair_euclid(u["id_a"].to_numpy(), u["id_b"].to_numpy())
            assert np.array_equal(al.dist, want)
            pools.append(al.pool)
        assert np.array_equal(pools[0], pools[1])
        want = pd.Series(res.unlabeled).sample(n=100, random_state=0).to_numpy()
        assert np.array_equal(pools[0], want)


# (id_a, id_b) chosen by each of the first three Algorithm 2 steps on
# `_toy_world(seed)`, bootstrapped with 5 + 5 pairs, as recorded from the
# frame-based implementation; after each step every seed has the same
# (n_queries, |L+|, |L-|, |U|).
_GOLDEN_PICKS = {
    0: [
        [(27, 27), (21, 21), (13, 31), (25, 31), (38, 12), (28, 18), (54, 34), (46, 39)],
        [(28, 28), (29, 29), (24, 31), (54, 31), (29, 57), (30, 27), (21, 46), (0, 40)],
        [(3, 3), (19, 19), (39, 40), (21, 52), (35, 58), (32, 19), (34, 38), (47, 26)],
    ],
    1: [
        [(4, 4), (14, 14), (10, 2), (2, 10), (35, 33), (31, 0), (23, 15), (6, 49)],
        [(11, 11), (23, 23), (15, 58), (15, 1), (53, 48), (29, 44), (53, 0), (41, 30)],
        [(21, 21), (10, 10), (1, 15), (32, 15), (37, 30), (1, 48), (38, 48), (39, 57)],
    ],
    2: [
        [(13, 13), (18, 18), (26, 50), (19, 46), (50, 16), (39, 5), (53, 7), (46, 40)],
        [(9, 9), (16, 16), (26, 46), (5, 26), (41, 48), (22, 52), (18, 46), (54, 29)],
        [(21, 21), (1, 1), (23, 9), (9, 23), (38, 13), (50, 32), (20, 57), (42, 27)],
    ],
}
_GOLDEN_COUNTS = [(18, 7, 11, 3582), (26, 9, 17, 3574), (34, 11, 23, 3566)]


@pytest.mark.parametrize("seed", sorted(_GOLDEN_PICKS))
def test_algorithm2_picks_are_golden(seed):
    tensors, truth, cand = _toy_world(seed=seed)
    labeler = OracleLabeler(truth)
    al = ActiveLearner(tensors, labeler, _enc_state(), _CFG, seed=seed)
    al.bootstrap(cand, n_pos=5, n_neg=5)
    assert (labeler.n_queries, len(al.l_pos), len(al.l_neg), len(al.pool)) == (10, 5, 5, 3590)
    asked = []
    label = labeler.label
    labeler.label = lambda a, b: asked.append(list(zip(a.tolist(), b.tolist()))) or label(a, b)
    for picks, counts in zip(_GOLDEN_PICKS[seed], _GOLDEN_COUNTS):
        assert al.step() == len(picks)
        assert asked[-1] == picks
        assert (labeler.n_queries, len(al.l_pos), len(al.l_neg), len(al.pool)) == counts
