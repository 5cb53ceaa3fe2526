"""Tests for exact top-k neighbour blocking (`repro.core.lsh`)."""
from __future__ import annotations

import threading

import numpy as np
import pandas as pd
import pytest

import repro.core.encode as encode
import repro.core.lsh as lsh
from repro.core.lsh import topk_pairs
from repro.core.wasserstein import w2_squared


def _reps_df(spark, n_a=12, n_b=15, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for t, n in (("a", n_a), ("b", n_b)):
        mu = rng.normal(size=(n, dim))
        sg = np.abs(rng.normal(size=(n, dim))) * 0.1
        for i in range(n):
            rows.append({"id": i, "table": t, "mu": mu[i].tolist(), "sigma": sg[i].tolist()})
    return spark.createDataFrame(pd.DataFrame(rows)), rows


def _sides(rows):
    """Per table: (ids, mu, sigma) arrays from `_reps_df`-style rows."""
    out = []
    for t in ("a", "b"):
        rs = [r for r in rows if r["table"] == t]
        out += [
            np.array([r["id"] for r in rs]),
            np.array([r["mu"] for r in rs]),
            np.array([r["sigma"] for r in rs]),
        ]
    return out


def _brute(ids_a, mu_a, sg_a, ids_b, mu_b, sg_b, k):
    """Numpy brute force: {(id_a, id_b): w2} over the W2 top-k of each
    side, ties broken by the other side's id."""
    d = np.stack([w2_squared(mu_a[i], sg_a[i], mu_b, sg_b) for i in range(len(ids_a))])
    keep = {}
    for i in range(len(ids_a)):
        for j in np.lexsort((ids_b, d[i]))[:k]:
            keep[(ids_a[i], ids_b[j])] = d[i, j]
    for j in range(len(ids_b)):
        for i in np.lexsort((ids_a, d[:, j]))[:k]:
            keep[(ids_a[i], ids_b[j])] = d[i, j]
    return keep


def _float64(t):
    """`_brute`'s inputs from driver tensors: their float32 latents upcast,
    as the top-k computes W2 in float64."""
    return [
        x
        for s in ("a", "b")
        for x in (t.ids[s], t.mu[s].astype(np.float64), t.sigma[s].astype(np.float64))
    ]


def _got(df, k):
    return {(r["id_a"], r["id_b"]): r["w2"] for r in topk_pairs(df, k=k).collect()}


def _sorted(df, k):
    pdf = topk_pairs(df, k=k).toPandas()
    return pdf.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _brute_frame(pairs: dict) -> pd.DataFrame:
    """`_brute`'s output as a frame shaped like `_sorted`'s."""
    (a, b), w2 = zip(*sorted(pairs)), [pairs[p] for p in sorted(pairs)]
    return pd.DataFrame({"id_a": np.array(a, np.int64), "id_b": np.array(b, np.int64), "w2": w2})


class TestExactTopK:
    # |A| < |B|: table a is broadcast (see TestExactTopKSwapped).
    n_a, n_b = 12, 15

    def _df(self, spark, seed):
        return _reps_df(spark, n_a=self.n_a, n_b=self.n_b, seed=seed)

    def test_matches_brute_force(self, spark):
        df, rows = self._df(spark, 0)
        assert set(_got(df, 3)) == set(_brute(*_sides(rows), 3))

    def test_w2_values_correct(self, spark):
        df, rows = self._df(spark, 1)
        want = _brute(*_sides(rows), 3)
        for pair, w2 in _got(df, 3).items():
            assert w2 == pytest.approx(want[pair], rel=1e-9)

    def test_k_bounds_per_side_membership(self, spark):
        """Every returned pair must be within the exact W2 top-k of at
        least one of its sides."""
        df, rows = self._df(spark, 2)
        got = set(_got(df, 2))
        assert got <= set(_brute(*_sides(rows), 2)) and got

    def test_all_tuples_covered(self, spark):
        df, _ = self._df(spark, 3)
        pdf = topk_pairs(df, k=1).toPandas()
        assert set(pdf["id_a"]) == set(range(self.n_a))
        assert set(pdf["id_b"]) == set(range(self.n_b))


class TestExactTopKSwapped(TestExactTopK):
    """|A| > |B|: table b is broadcast and a is the probe side."""

    n_a, n_b = 15, 12


class TestTopKEdgeCases:
    def test_real_domain_matches_brute_force(self, tiny_rep, tiny_tensors):
        t = tiny_tensors
        want = _brute(*_float64(t), 10)
        got = _got(tiny_rep.reps_df, 10)
        assert set(got) == set(want)
        for pair, w2 in got.items():
            assert w2 == pytest.approx(want[pair], rel=1e-9)

    def test_ties_follow_stable_brute_force(self, spark):
        """Duplicated vectors tie exactly; ties go to the smaller id."""
        rng = np.random.default_rng(9)
        base = rng.normal(size=(3, 4))
        rows = []
        for t, n in (("a", 9), ("b", 11)):
            ids = rng.permutation(n) * 3 + 100  # id order != row order
            for i, v in zip(ids, base[np.arange(n) % 3]):
                rows.append({"id": int(i), "table": t, "mu": v.tolist(), "sigma": (0.1 * v).tolist()})
        df = spark.createDataFrame(pd.DataFrame(rows))
        want = _brute(*_sides(rows), 2)
        got = _got(df, 2)
        assert set(got) == set(want)
        assert all(got[p] == pytest.approx(want[p], rel=1e-9, abs=1e-12) for p in got)

    def test_k_larger_than_smaller_side(self, spark):
        df, rows = _reps_df(spark, n_a=4, n_b=9, seed=10)
        k = 6
        got = topk_pairs(df, k=k).toPandas()
        assert set(zip(got["id_a"], got["id_b"])) == set(_brute(*_sides(rows), k))
        assert (got["id_a"].value_counts().reindex(range(4)) >= min(k, 9)).all()
        assert (got["id_b"].value_counts().reindex(range(9)) >= min(k, 4)).all()

    def test_partition_count_invariant(self, spark):
        df, _ = _reps_df(spark, n_a=20, n_b=33, seed=11)

        def run(n):
            pdf = topk_pairs(df.repartition(n), k=3).toPandas()
            return pdf.sort_values(["id_a", "id_b"]).reset_index(drop=True)

        pd.testing.assert_frame_equal(run(1), run(5), check_exact=True)


class TestDriverKernel:
    """The probe side in per-core chunks, each over several GEMM blocks."""

    def test_threaded_chunks_equal_single_block_and_brute(self, spark, monkeypatch):
        df, rows = _reps_df(spark, n_a=20, n_b=45, seed=12)
        single = _sorted(df, 3)
        # 4 probe rows per block, 3 chunks of 15 rows: 4 blocks per chunk.
        monkeypatch.setattr(lsh, "_BLOCK_CELLS", 20 * 4)
        monkeypatch.setattr(lsh.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        barrier, threads, chunk = threading.Barrier(3, timeout=30), set(), lsh._chunk

        def concurrent_chunk(*args):
            threads.add(threading.get_ident())
            barrier.wait()  # raises unless all three chunks run at once
            return chunk(*args)

        monkeypatch.setattr(lsh, "_chunk", concurrent_chunk)
        multi = _sorted(df, 3)
        assert len(threads) == 3
        pd.testing.assert_frame_equal(multi, single, check_exact=True)
        want = _brute_frame(_brute(*_sides(rows), 3))
        pd.testing.assert_frame_equal(multi, want, check_exact=True)

    def test_calls_reuse_one_thread_pool(self, spark, monkeypatch):
        """Two threaded calls run their chunks on the same worker threads,
        so no call leaves new threads (and their malloc arenas) behind."""
        df, _ = _reps_df(spark, n_a=20, n_b=45, seed=15)
        monkeypatch.setattr(lsh, "_BLOCK_CELLS", 20 * 4)
        monkeypatch.setattr(lsh.os, "sched_getaffinity", lambda pid: {0, 1})
        barrier, chunk, calls = threading.Barrier(2, timeout=30), lsh._chunk, []

        def recorded_chunk(*args):
            calls[-1].add(threading.current_thread())
            barrier.wait()  # both chunks at once, on two threads
            return chunk(*args)

        monkeypatch.setattr(lsh, "_chunk", recorded_chunk)
        for _ in range(2):
            calls.append(set())
            _sorted(df, 3)
        assert len(calls[0]) == 2 and calls[1] == calls[0]

    def test_single_block_runs_inline(self, spark, monkeypatch):
        df, _ = _reps_df(spark, n_a=20, n_b=45, seed=13)
        threads, chunk = set(), lsh._chunk

        def recorded_chunk(*args):
            threads.add(threading.get_ident())
            return chunk(*args)

        monkeypatch.setattr(lsh, "_chunk", recorded_chunk)
        _sorted(df, 3)
        assert threads == {threading.get_ident()}

    def test_float32_frame_equals_float64_frame(self, spark):
        df, rows = _reps_df(spark, n_a=18, n_b=25, seed=14)
        for r in rows:  # float32 values, held as doubles
            r["mu"] = np.float32(r["mu"]).tolist()
            r["sigma"] = np.float32(r["sigma"]).tolist()
        f64 = spark.createDataFrame(pd.DataFrame(rows))
        ids_a, mu_a, sg_a, ids_b, mu_b, sg_b = _sides(rows)
        f32 = encode._frame(
            spark, {"a": ids_a, "b": ids_b}, {"a": mu_a, "b": mu_b}, {"a": sg_a, "b": sg_b}
        )
        assert dict(f64.dtypes)["mu"] == "array<double>"
        assert dict(f32.dtypes)["mu"] == "array<float>"
        pd.testing.assert_frame_equal(_sorted(f32, 3), _sorted(f64, 3), check_exact=True)


@pytest.fixture(scope="module", params=["citations1", "stocks"])
def domain_tensors_sf01(request, spark, small_cfg):
    from repro.core.pipeline import learn_representations
    from repro.datasets.generate import er_domain

    data = er_domain(spark, request.param, sf=0.1, seed=0)
    rep = learn_representations(data, kind="lsa", cfg=small_cfg, seed=0)
    return rep.tensors


class TestGeneratedDomains:
    @pytest.mark.parametrize("cells", [None, 100 * 64], ids=["one-block", "chunked"])
    def test_matches_brute_force(self, spark, monkeypatch, domain_tensors_sf01, cells):
        """LSA representations at sf 0.1: the exact pair set, and W2 values."""
        t = domain_tensors_sf01
        if cells:
            monkeypatch.setattr(lsh, "_BLOCK_CELLS", cells)
        want = _brute(*_float64(t), 10)
        got = _got(encode.representations_frame(spark, t), 10)
        assert set(got) == set(want)
        for pair, w2 in got.items():
            assert w2 == pytest.approx(want[pair], rel=1e-9)
