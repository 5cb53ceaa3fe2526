"""Integration tests: the end-to-end VAER pipeline on a tiny domain."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.core.active import (
    ActiveLearner,
    OracleLabeler,
    evaluate_matcher,
    predict_pairs,
    train_matcher,
)
from repro.core.encode import irs_as_representations
from repro.core.lsh import topk_pairs
from repro.core.metrics import topk_prf
from repro.core.pipeline import domain_tensors, learn_representations
from repro.core.siamese import SiameseMatcher
from repro.core.vae import encode_with_state


class TestRepresentationPipeline:
    def test_rep_result_shapes(self, tiny_domain, tiny_rep, small_cfg):
        n = tiny_domain.a.count() + tiny_domain.b.count()
        assert tiny_rep.irs_df.count() == n
        assert tiny_rep.reps_df.count() == n
        row = tiny_rep.reps_df.first()
        m = tiny_domain.spec.arity
        assert len(row["mu"]) == m * small_cfg.vae_latent_dim

    def test_timings_recorded(self, tiny_rep):
        assert tiny_rep.ir_seconds > 0
        assert tiny_rep.train_seconds > 0

    def test_neighbour_search_finds_duplicates(self, tiny_domain, tiny_rep):
        prf = topk_prf(
            topk_pairs(tiny_rep.reps_df, k=10), tiny_domain.test
        )
        assert prf.recall > 0.5

    def test_vae_not_worse_than_raw_ir_recall(self, spark, tiny_domain, tiny_rep):
        """The Table IV claim at tiny scale: encoding must preserve the
        IR similarity signal (allow small slack for noise)."""
        raw = topk_prf(
            topk_pairs(irs_as_representations(spark, domain_tensors(tiny_rep)), k=10),
            tiny_domain.test,
        )
        enc = topk_prf(
            topk_pairs(tiny_rep.reps_df, k=10), tiny_domain.test
        )
        # The tiny fixture has only a handful of test positives, so compare
        # retrieved-duplicate *counts* with a 2-pair slack rather than the
        # heavily quantised recall ratio.
        assert enc.tp >= raw.tp - 2

    def test_transfer_path_skips_training(self, tiny_domain, tiny_rep, small_cfg):
        rep2 = learn_representations(
            tiny_domain, kind="lsa", cfg=small_cfg, seed=0, vae=tiny_rep.vae
        )
        assert rep2.train_seconds == 0.0
        assert rep2.reps_df.count() == tiny_rep.reps_df.count()


class TestDriverTensors:
    """`learn_representations` collects the IRs once and derives the
    encodings, the driver tensors and `reps_df` from that one collect."""

    def test_tensors_are_encodings_of_irs(self, tiny_rep, tiny_tensors):
        state = tiny_rep.vae.encoder.state()
        for t, irs in tiny_tensors.irs.items():
            n, m, d = irs.shape
            assert irs.dtype == np.float32
            mu, sigma = encode_with_state(state, irs.reshape(n * m, d))
            assert np.array_equal(tiny_tensors.mu[t], mu.reshape(n, -1))
            assert np.array_equal(tiny_tensors.sigma[t], sigma.reshape(n, -1))

    def test_tensors_hold_both_tables_sorted(self, tiny_domain, tiny_tensors):
        for t, df in (("a", tiny_domain.a), ("b", tiny_domain.b)):
            want = np.sort(df.toPandas()["id"].to_numpy())
            assert np.array_equal(tiny_tensors.ids[t], want)

    def test_reps_df_rows_equal_tensors(self, tiny_rep, tiny_tensors):
        pdf = tiny_rep.reps_df.toPandas()
        for t, grp in pdf.groupby("table"):
            grp = grp.sort_values("id")
            assert np.array_equal(grp["id"].to_numpy(), tiny_tensors.ids[t])
            assert np.array_equal(np.stack(grp["mu"].to_numpy()), tiny_tensors.mu[t])
            assert np.array_equal(np.stack(grp["sigma"].to_numpy()), tiny_tensors.sigma[t])

    def test_reps_df_partitions(self, spark, tiny_rep, tiny_tensors):
        rows = sum(len(v) for v in tiny_tensors.ids.values())
        want = min(spark.sparkContext.defaultParallelism, rows)
        assert tiny_rep.reps_df.rdd.getNumPartitions() >= want

    def test_sampled_vae_independent_of_partitioning(self, tiny_domain, small_cfg):
        """With a cap that forces the VAE sample, inputs on 1 and on 5
        partitions give the same VAE weights and tensors, bit for bit."""
        cfg = replace(small_cfg, vae_train_sample_cap=40 * tiny_domain.spec.arity)
        out = []
        for n in (1, 5):
            data = replace(tiny_domain, a=tiny_domain.a.repartition(n), b=tiny_domain.b.repartition(n))
            out.append(learn_representations(data, kind="lsa", cfg=cfg, seed=0))
        one, five = out
        assert one.tensors.ids["a"].size + one.tensors.ids["b"].size > 40
        for k, w in one.vae.state().items():
            assert np.array_equal(w, five.vae.state()[k]), k
        for field in ("ids", "irs", "mu", "sigma"):
            for t in ("a", "b"):
                assert np.array_equal(getattr(one.tensors, field)[t], getattr(five.tensors, field)[t])


class TestMatchingPipeline:
    def test_full_matcher_beats_chance(self, tiny_domain, tiny_rep, tiny_tensors, small_cfg):
        train = tiny_domain.train.toPandas()
        test = tiny_domain.test.toPandas()
        m = train_matcher(
            tiny_tensors,
            train,
            train["label"].to_numpy(),
            tiny_rep.vae.encoder.state(),
            small_cfg,
            seed=0,
        )
        prf = evaluate_matcher(m, tiny_tensors, test)
        # The tiny fixture's test split holds only a handful of positives,
        # so assert clear-of-chance rather than a production-grade score.
        assert prf.f1 > 0.3

    def test_active_learning_end_to_end(self, tiny_domain, tiny_rep, tiny_tensors, small_cfg):
        cand = topk_pairs(tiny_rep.reps_df, k=10).toPandas()
        labeler = OracleLabeler(tiny_domain.truth.toPandas())
        al = ActiveLearner(
            tiny_tensors,
            labeler,
            tiny_rep.vae.encoder.state(),
            small_cfg,
            seed=0,
        )
        boot = al.bootstrap(cand, n_pos=8, n_neg=8)
        assert len(boot.l_pos) > 0 and len(boot.l_neg) > 0
        test = tiny_domain.test.toPandas()
        al.run(budget=20)
        prf = evaluate_matcher(al.matcher, tiny_tensors, test)
        assert prf.f1 > 0.3

    def test_predict_pairs_encodes_once(self, tiny_rep, tiny_tensors):
        """Encode-once scoring equals scoring each gathered pair, with
        repeated ids and a chunk boundary inside the frame."""
        arity = tiny_tensors.irs["a"].shape[1]
        m = SiameseMatcher(tiny_rep.vae.encoder.state(), arity=arity, hidden=8, seed=0)
        rng = np.random.default_rng(0)
        pairs = pd.DataFrame({
            "id_a": rng.choice(tiny_tensors.ids["a"][:6], size=40),
            "id_b": rng.choice(tiny_tensors.ids["b"], size=40),
        })
        got = predict_pairs(m, tiny_tensors, pairs, chunk=16)
        want = m.predict_proba(
            *tiny_tensors.pair_irs(pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy())
        )
        np.testing.assert_allclose(got, want, rtol=1e-5)

    def test_tensors_alignment(self, tiny_domain, tiny_tensors):
        truth = tiny_domain.truth.toPandas()
        ida = truth["id_a"].to_numpy()[:4]
        idb = truth["id_b"].to_numpy()[:4]
        Xs, Xt = tiny_tensors.pair_irs(ida, idb)
        assert Xs.shape == Xt.shape
        assert Xs.shape[1] == tiny_domain.spec.arity
        d = tiny_tensors.pair_euclid(ida, idb)
        assert d.shape == (4,) and (d >= 0).all()

    def test_duplicates_closer_than_random(self, tiny_domain, tiny_tensors):
        truth = tiny_domain.truth.toPandas()
        ida = truth["id_a"].to_numpy()
        idb = truth["id_b"].to_numpy()
        d_dup = tiny_tensors.pair_euclid(ida, idb).mean()
        rng = np.random.default_rng(0)
        rand_b = rng.permutation(tiny_tensors.ids["b"])[: len(ida)]
        d_rand = tiny_tensors.pair_euclid(ida, rand_b).mean()
        assert d_dup < d_rand
