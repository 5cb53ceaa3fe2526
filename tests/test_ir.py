"""Tests for the IR substrate (`repro.ir`, §III-B) — Spark-facing."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.ir import IR_KINDS, build_irs, ir_tensor
from repro.ir.bert_sim import encode_values
from repro.ir.lsa import (
    bucket, lsa_irs, term_counts, tfidf_gram, tokens, top_eigenvectors, value_table,
)
from repro.ir.tokenize import assemble, melt, melt_both
from repro.oracle import assert_equivalent

ATTRS = ["name", "city"]


@pytest.fixture(scope="module")
def toy_tables(spark):
    a = spark.createDataFrame(
        pd.DataFrame(
            {
                "id": [0, 1, 2],
                "name": ["Charlie Brown", "Mylo Xyloto", None],
                "city": ["new york", "london", "paris"],
            }
        )
    )
    b = spark.createDataFrame(
        pd.DataFrame(
            {
                "id": [0, 1],
                "name": ["charlie brown!", "Parachutes"],
                "city": ["new york", "leeds"],
            }
        )
    )
    return a, b


class TestMelt:
    def test_row_count_is_n_times_arity(self, spark, toy_tables):
        a, b = toy_tables
        assert melt(a, ATTRS, "a").count() == 3 * 2
        assert melt_both(a, b, ATTRS).count() == 5 * 2

    def test_null_becomes_empty_string(self, toy_tables):
        a, _ = toy_tables
        rows = melt(a, ATTRS, "a").where("id = 2 AND attr_idx = 0").collect()
        assert rows[0]["value"] == ""
        assert rows[0]["tokens"] == []

    def test_tokens_lowercased_and_clean(self, toy_tables):
        _, b = toy_tables
        rows = melt(b, ATTRS, "b").where("id = 0 AND attr_idx = 0").collect()
        assert rows[0]["tokens"] == ["charlie", "brown"]

    def test_melt_oracle_unpivot(self, spark, toy_tables):
        """The melt is a relational unpivot — check it against DuckDB."""
        a, _ = toy_tables
        got = melt(a, ATTRS, "a").select("id", "attr_idx", "value")
        sql = """
            SELECT id, 0 AS attr_idx, coalesce(name, '') AS value FROM t
            UNION ALL
            SELECT id, 1 AS attr_idx, coalesce(city, '') AS value FROM t
        """
        assert_equivalent(got, sql, t=a)

    def test_assemble_orders_by_attr_idx(self, spark):
        attr_ir = spark.createDataFrame(
            pd.DataFrame(
                {
                    "id": [0, 0, 1, 1],
                    "table": ["a"] * 4,
                    "attr_idx": [1, 0, 0, 1],
                    "ir": [[1.0], [0.0], [10.0], [11.0]],
                }
            )
        )
        out = {r["id"]: r["irs"] for r in assemble(attr_ir, 2).collect()}
        assert out[0] == [0.0, 1.0]
        assert out[1] == [10.0, 11.0]


class TestBertSim:
    def test_deterministic(self):
        v1 = encode_values(["Charlie Brown"], 16)
        v2 = encode_values(["Charlie Brown"], 16)
        assert np.allclose(v1, v2)

    def test_unit_norm_nonempty(self):
        v = encode_values(["some value", None, ""], 16)
        assert np.linalg.norm(v[0]) == pytest.approx(1.0)
        assert not v[1].any() and not v[2].any()

    def test_morphological_similarity(self):
        """Char n-grams: a typo'd string stays closer than a different one."""
        v = encode_values(["restaurant", "restaurnat", "petroleum"], 32)
        d_typo = np.linalg.norm(v[0] - v[1])
        d_diff = np.linalg.norm(v[0] - v[2])
        assert d_typo < d_diff

    def test_case_insensitive(self):
        v = encode_values(["New York", "new york"], 16)
        assert np.allclose(v[0], v[1])


@pytest.mark.parametrize("kind", IR_KINDS)
class TestBuildIrs:
    def test_shape_and_coverage(self, spark, toy_tables, kind):
        a, b = toy_tables
        out = build_irs(a, b, ATTRS, kind=kind, dim=8, vocab_dim=64)
        assert out.schema["irs"].dataType.simpleString() == "array<float>"
        ids, tables, irs = ir_tensor(out.toArrow(), len(ATTRS))
        assert list(zip(tables, ids)) == [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1)]
        assert irs.shape == (5, 2, 8) and irs.dtype == np.float32
        assert np.isfinite(irs).all()

    def test_duplicate_values_embed_identically(self, spark, kind):
        """Same attribute value -> same IR (all four kinds are functions
        of the value given a fixed corpus)."""
        a = spark.createDataFrame(
            pd.DataFrame({"id": [0, 1], "name": ["alpha beta", "alpha beta"],
                          "city": ["x", "y"]})
        )
        b = spark.createDataFrame(
            pd.DataFrame({"id": [0], "name": ["gamma"], "city": ["z"]})
        )
        _, _, irs = ir_tensor(
            build_irs(a, b, ATTRS, kind=kind, dim=8, vocab_dim=64).toArrow(), len(ATTRS)
        )
        assert np.allclose(irs[0, 0], irs[1, 0], atol=1e-9)  # a/0 and a/1


def test_ir_tensor_sorts_rows_across_record_batches():
    """A collected frame arrives as several record batches in partition
    order; every row lands at its (table, id) place with its own IRs."""
    import pyarrow as pa

    from repro.ir.api import float_lists

    rng = np.random.default_rng(0)
    n, arity, dim = 11, 2, 3
    ids = rng.permutation(n).astype(np.int64)
    tables = rng.choice(["a", "b"], n)
    X = rng.standard_normal((n, arity * dim)).astype(np.float32)
    whole = pa.table({"id": ids, "table": tables, "irs": float_lists(X)})
    # Uneven batches; slices carry a nonzero list offset.
    irs = pa.Table.from_batches(
        whole.slice(lo, hi - lo).to_batches()[0] for lo, hi in ((0, 4), (4, 5), (5, n))
    )
    assert irs.column("irs").num_chunks == 3
    got_ids, got_tables, got = ir_tensor(irs, arity)
    order = np.lexsort((ids, tables))
    assert np.array_equal(got_ids, ids[order])
    assert np.array_equal(got_tables, tables[order])
    assert np.array_equal(got, X[order].reshape(n, arity, dim))


class TestLsaProperties:
    def test_similar_values_closer(self, spark):
        names = [
            "italian pasta kitchen", "italian pasta house",
            "quantum physics lab", "quantum physics dept",
        ]
        a = spark.createDataFrame(
            pd.DataFrame({"id": range(4), "name": names, "city": ["x"] * 4})
        )
        b = spark.createDataFrame(
            pd.DataFrame({"id": [0], "name": ["other"], "city": ["y"]})
        )
        _, _, irs = ir_tensor(
            build_irs(a, b, ATTRS, kind="lsa", dim=4, vocab_dim=64).toArrow(), len(ATTRS)
        )
        irs = irs[:4, 0]  # table a's names, by id
        assert np.linalg.norm(irs[0] - irs[1]) < np.linalg.norm(irs[0] - irs[2])

    def test_dim_exceeding_vocab_rejected(self, spark, toy_tables):
        a, b = toy_tables
        with pytest.raises(AssertionError):
            build_irs(a, b, ATTRS, kind="lsa", dim=128, vocab_dim=64).collect()


VOCAB = 1024


def _lsa(a, b, attrs, dim: int = 16):
    """(ids, tables, X) of the LSA IR frame, sorted by (table, id)."""
    return ir_tensor(
        build_irs(a, b, attrs, kind="lsa", dim=dim, vocab_dim=VOCAB).toArrow(), len(attrs)
    )


def _gram(a, b, attrs) -> tuple[np.ndarray, np.ndarray]:
    values = value_table(a, b, attrs).toArrow()
    return tfidf_gram(term_counts(values, VOCAB), values.num_rows * len(attrs), VOCAB)


@pytest.fixture(scope="module", params=["citations1", "stocks"])
def lsa_oracle(request, spark):
    """A generated domain plus the Spark ML `HashingTF` + `IDF` TF-IDF
    matrix of its melted values (the pipeline LSA used to run on)."""
    from pyspark.ml.feature import IDF, HashingTF
    from pyspark.ml.functions import vector_to_array

    from repro.datasets.generate import er_domain

    d = er_domain(spark, request.param, sf=0.03, seed=0)
    tf = HashingTF(inputCol="tokens", outputCol="tf", numFeatures=VOCAB).transform(
        melt_both(d.a, d.b, d.attrs)
    )
    model = IDF(inputCol="tf", outputCol="tfidf").fit(tf)
    pdf = model.transform(tf).select(
        "id", "table", "attr_idx", "value", "tokens",
        vector_to_array("tfidf").alias("x"),
    ).toPandas()
    return d, pdf, model.idf.toArray(), np.stack(pdf["x"].to_numpy())


class TestLsaOracle:
    """The driver-side LSA against Spark ML as the oracle."""

    def test_tokenizer_matches_melt(self, lsa_oracle):
        _, pdf, _, _ = lsa_oracle
        for value, toks in zip(pdf["value"], pdf["tokens"]):
            assert tokens(value) == list(toks), value

    def test_bucket_matches_hashing_tf(self, spark, lsa_oracle):
        from pyspark.ml.feature import HashingTF

        _, pdf, _, _ = lsa_oracle
        # UTF-8 lengths 1..9, multi-byte characters included, cover every
        # tail length of the 4-byte hash blocks.
        extra = ["a", "ab", "abc", "abcd", "abcde", "é", "éa", "日本", "日本語x", "ß" * 4 + "z"]
        distinct = sorted({t for toks in pdf["tokens"] for t in toks} | set(extra))
        assert {len(t.encode("utf-8")) % 4 for t in distinct} == {0, 1, 2, 3}
        docs = spark.createDataFrame(pd.DataFrame({"tokens": [[t] for t in distinct]}))
        for vocab_dim in (VOCAB, 1000):
            rows = HashingTF(
                inputCol="tokens", outputCol="tf", numFeatures=vocab_dim
            ).transform(docs).collect()
            got = {r["tokens"][0]: int(r["tf"].indices[0]) for r in rows}
            assert {t: bucket(t, vocab_dim) for t in distinct} == got

    def test_idf_and_gram_match_spark_ml(self, lsa_oracle):
        d, _, idf_ref, X = lsa_oracle
        idf, gram = _gram(d.a, d.b, d.attrs)
        np.testing.assert_allclose(idf, idf_ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gram, X.T @ X, rtol=1e-12, atol=0)

    def test_irs_match_numpy_reference(self, lsa_oracle):
        d, pdf, _, X = lsa_oracle
        evals, vecs = np.linalg.eigh(X.T @ X)
        evals, vecs = evals[::-1], vecs[:, ::-1]
        # Equal eigenvalues leave their eigenvectors' basis to rounding:
        # cut where the spectrum has a gap and align per equal-value group.
        tie = np.abs(np.diff(evals)) <= 1e-9 * evals[0]
        dim = next(k for k in range(24, VOCAB) if not tie[k - 1])
        P = X @ vecs[:, :dim]
        P /= np.maximum(np.linalg.norm(P, axis=1, keepdims=True), 1e-12)
        ids, tables, irs = lsa_irs(d.a, d.b, d.attrs, dim=dim, vocab_dim=VOCAB)
        irs = irs.reshape(len(ids), len(d.attrs), dim)
        row = {(t, i): r for r, (t, i) in enumerate(zip(tables, ids))}
        got = np.stack([
            irs[row[(t, i)], j]
            for t, i, j in zip(pdf["table"], pdf["id"], pdf["attr_idx"])
        ]).astype(np.float64)
        # Values that keep almost none of their TF-IDF norm in the topics
        # are normalised rounding noise in any implementation.
        kept = np.linalg.norm(X @ vecs[:, :dim], axis=1) >= 1e-6 * np.linalg.norm(X, axis=1)
        kept &= np.linalg.norm(X, axis=1) > 0
        assert kept.sum() > 0.5 * len(kept)
        group = np.r_[0, np.cumsum(~tie[: dim - 1])]
        for g in np.unique(group):
            c = group == g
            # Orthogonal Procrustes; for a single column this is its sign.
            u, _, vt = np.linalg.svd(P[kept][:, c].T @ got[kept][:, c])
            P[:, c] = P[:, c] @ (u @ vt)
        # IRs are stored as float32: allow its rounding (2^-24 relative,
        # doubled) on top of the float64 agreement.
        np.testing.assert_allclose(
            got[kept], P[kept], rtol=np.finfo(np.float32).eps, atol=1e-9
        )
        empty = np.linalg.norm(X, axis=1) == 0
        assert not got[empty].any()

    def test_occupied_block_eigenvectors_match_full_eigh(self, lsa_oracle):
        """`top_eigenvectors` decomposes only the occupied buckets; its
        eigenpairs equal the full eigh's up to sign (Procrustes within
        groups of equal eigenvalues), and topics past them are 0."""
        _, _, _, X = lsa_oracle
        gram = X.T @ X
        evals, vecs = np.linalg.eigh(gram)
        evals, vecs = evals[::-1], vecs[:, ::-1]
        tie = np.abs(np.diff(evals)) <= 1e-9 * evals[0]
        dim = next(k for k in range(100, VOCAB) if not tie[k - 1])
        occupied = int((np.diag(gram) > 0).sum())
        assert dim < occupied < VOCAB
        got = top_eigenvectors(gram, dim)
        np.testing.assert_allclose(gram @ got, got * evals[:dim], rtol=0, atol=1e-9 * evals[0])
        want = vecs[:, :dim].copy()
        group = np.r_[0, np.cumsum(~tie[: dim - 1])]
        for g in np.unique(group):
            c = group == g
            u, _, vt = np.linalg.svd(want[:, c].T @ got[:, c])
            want[:, c] = want[:, c] @ (u @ vt)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)
        padded = top_eigenvectors(gram, occupied + 3)
        assert np.array_equal(padded[:, :dim], got)
        assert not padded[:, occupied:].any()

    def test_partition_invariant(self, lsa_oracle):
        d, _, _, _ = lsa_oracle
        one = [t.repartition(1) for t in (d.a, d.b)]
        five = [t.repartition(5) for t in (d.a, d.b)]
        assert np.array_equal(_gram(*one, d.attrs)[1], _gram(*five, d.attrs)[1])
        irs1 = _lsa(*one, d.attrs)[2]
        irs5 = _lsa(*five, d.attrs)[2]
        assert np.array_equal(irs1, irs5)

    def test_chunk_invariant(self, monkeypatch, lsa_oracle):
        """A value never spans two chunks, so the chunk size changes no bit
        of the gram or of any IR."""
        import repro.ir.lsa as lsa

        d, _, _, _ = lsa_oracle
        want_gram = _gram(d.a, d.b, d.attrs)[1]
        want = _lsa(d.a, d.b, d.attrs)
        assert d.a.count() + d.b.count() > lsa._CHUNK
        for chunk in (1, 7):
            monkeypatch.setattr(lsa, "_CHUNK", chunk)
            assert np.array_equal(_gram(d.a, d.b, d.attrs)[1], want_gram)
            for got, ref in zip(_lsa(d.a, d.b, d.attrs), want):
                assert np.array_equal(got, ref)

    def test_no_python_worker_pass(self, monkeypatch, toy_tables):
        """LSA runs on the driver: no `mapInPandas` job over the tables."""

        def refuse(*args, **kwargs):
            raise AssertionError("LSA started a Python-worker pass")

        a, b = toy_tables
        # The session's concrete DataFrame class, which overrides the
        # `pyspark.sql.DataFrame` method.
        monkeypatch.setattr(type(a), "mapInPandas", refuse)
        out = build_irs(a, b, ATTRS, kind="lsa", dim=8, vocab_dim=64)
        plan = out._jdf.queryExecution().executedPlan().toString()
        assert not any(op in plan for op in ("MapInPandas", "MapInArrow", "EvalPython"))
        ids, tables, irs = ir_tensor(out.toArrow(), len(ATTRS))
        assert list(zip(tables, ids)) == [("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1)]
        assert irs.shape == (5, 2, 8) and irs[2, 0].sum() == 0  # a/2's name is null


def test_unknown_kind_rejected(spark, toy_tables):
    a, b = toy_tables
    with pytest.raises(ValueError, match="unknown IR kind"):
        build_irs(a, b, ATTRS, kind="elmo", dim=8)
