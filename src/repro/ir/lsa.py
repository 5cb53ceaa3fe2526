"""LSA IRs: hashed TF-IDF + truncated SVD topic projection (§III-B).

Two `mapInPandas` passes over the union of the two (unmelted) tables:

  pass 1  each partition tokenizes its values, hashes tokens into
          ``vocab_dim`` buckets and returns its value count ``m``, the
          document frequency per bucket and the nonzeros of the integer
          term-frequency gram ``G = sum_v tf_v tf_v^T`` (one job, Arrow).
  driver  ``idf = log((m + 1) / (df + 1))`` (Spark ML's IDF),
          ``gram = idf * G * idf`` = X^T X of the TF-IDF matrix X,
          V = top ``dim`` eigenvectors of the gram (numpy eigh over the
          occupied buckets only: the other rows and columns are 0).
  pass 2  IR = L2-normalised projection ``tf_v @ (idf * V)`` of every value,
          emitted per tuple as ``(id, table, irs)``, ``irs`` the flat
          float32 concatenation in ``attrs`` order, on the input
          partitions (no shuffle) unless a partition's IRs would exceed
          ``_PART_CELLS`` cells; then the (id, strings) rows are first
          spread round-robin over more partitions.

Tokens and buckets equal those of `tokenize.melt` + Spark ML `HashingTF`
(MurmurHash3_x86_32, seed 42), so this is the classic LSI of that
TF-IDF matrix. ``G`` is a sum of integers, exact in float64, so the gram
does not depend on the partitioning; neither does any IR. No dense
values x vocab_dim block is ever built.
"""
from __future__ import annotations

import re
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.ir.tokenize import value_columns

_NON_ALNUM = re.compile(r"[^a-zA-Z0-9]+")
_M32 = 0xFFFFFFFF
# Tuples per chunk of an Arrow batch: bounds the pair and projection
# temporaries. A value never spans two chunks, so its arithmetic, and
# hence its IR, does not depend on how the input is partitioned.
_CHUNK = 1024
# IR cells per pass-2 partition. An IR is ~100x the bytes of its value,
# so partitions sized for the input tables are split (round-robin) when
# their IRs would exceed this; 4 MB partitions keep the JVM's per-task
# Arrow buffers small when the IRs are collected.
_PART_CELLS = 1 << 20


def tokens(value: str) -> list[str]:
    """`tokenize.melt`'s SQL tokenizer: split on non-alphanumerics, lowercase."""
    return _NON_ALNUM.sub(" ", value).lower().split()


def _mix_k1(k: int) -> int:
    k = (k * 0xCC9E2D51) & _M32
    k = ((k << 15) | (k >> 17)) & _M32
    return (k * 0x1B873593) & _M32


def murmur3_32(data: bytes, seed: int = 42) -> int:
    """Signed MurmurHash3_x86_32 of ``data``, as Spark's `hashUnsafeBytes2`."""
    n = len(data)
    aligned = n - n % 4
    h = seed
    for i in range(0, aligned, 4):
        h ^= _mix_k1(int.from_bytes(data[i : i + 4], "little"))
        h = ((h << 13) | (h >> 19)) & _M32
        h = (h * 5 + 0xE6546B64) & _M32
    h ^= _mix_k1(int.from_bytes(data[aligned:], "little"))
    h ^= n
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _M32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _M32
    h ^= h >> 16
    return h - (1 << 32) if h & 0x80000000 else h


def bucket(token: str, vocab_dim: int) -> int:
    """Spark ML `HashingTF` index of ``token`` (non-negative modulus)."""
    return murmur3_32(token.encode("utf-8")) % vocab_dim


def value_table(a: DataFrame, b: DataFrame, attrs: list[str]) -> DataFrame:
    """(id, table, v0..v{k-1}): both tables, attribute values as strings."""

    def side(df: DataFrame, label: str) -> DataFrame:
        cols = value_columns(attrs)
        return df.select(
            F.col("id").cast("long").alias("id"),
            F.lit(label).alias("table"),
            *[c.alias(f"v{i}") for i, c in enumerate(cols)],
        )

    return side(a, "a").unionByName(side(b, "b"))


def _chunks(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
    for pdf in it:
        for s in range(0, len(pdf), _CHUNK):
            yield pdf.iloc[s : s + _CHUNK]


def _term_counts(
    values: np.ndarray, vocab_dim: int, cache: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sparse TF rows of ``values``: (value index, bucket, count), sorted."""
    vi: list[int] = []
    bk: list[int] = []
    for i, v in enumerate(values):
        for t in tokens(v):
            j = cache.get(t)
            if j is None:
                j = cache[t] = bucket(t, vocab_dim)
            vi.append(i)
            bk.append(j)
    key = np.asarray(vi, dtype=np.int64) * vocab_dim + np.asarray(bk, dtype=np.int64)
    key, count = np.unique(key, return_counts=True)
    return key // vocab_dim, key % vocab_dim, count


def _pair_gram(vi: np.ndarray, bk: np.ndarray, count: np.ndarray, vocab_dim: int) -> np.ndarray:
    """Flat ``sum_v tf_v tf_v^T`` over the bucket pairs within each value."""
    lens = np.bincount(vi)
    per = lens[vi]  # partners of each entry: the entries of its own value
    left = np.repeat(np.arange(len(vi)), per)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(per) - per, per)
    right = np.repeat(np.cumsum(lens)[vi] - per, per) + offset
    return np.bincount(
        bk[left] * vocab_dim + bk[right],
        weights=(count[left] * count[right]).astype(np.float64),
        minlength=vocab_dim * vocab_dim,
    )


def tfidf_gram(
    values: DataFrame, vocab_dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass 1 over `value_table` output: (idf, X^T X) of its TF-IDF matrix X,
    and the number of values in each non-empty partition."""
    cols = [c for c in values.columns if c not in ("id", "table")]

    def stats(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m, cache = 0, {}
        doc_freq = np.zeros(vocab_dim, dtype=np.int64)
        g = np.zeros(vocab_dim * vocab_dim)
        for pdf in _chunks(it):
            vi, bk, count = _term_counts(pdf[cols].to_numpy().ravel(), vocab_dim, cache)
            m += pdf.shape[0] * len(cols)
            doc_freq += np.bincount(bk, minlength=vocab_dim)
            g += _pair_gram(vi, bk, count, vocab_dim)
        if m:
            nz = np.flatnonzero(g)
            yield pd.DataFrame(
                {"m": [m], "df": [doc_freq], "key": [nz], "tf2": [g[nz]]}
            )

    parts = values.mapInPandas(
        stats, schema="m long, df array<long>, key array<long>, tf2 array<double>"
    ).toArrow()

    def flat(col: str) -> np.ndarray:
        return parts.column(col).combine_chunks().flatten().to_numpy()

    part_values = parts.column("m").to_numpy()
    m = int(part_values.sum())
    df = flat("df").reshape(-1, vocab_dim).sum(axis=0)
    # Integer sums are exact, so the order partitions arrive in is irrelevant.
    g = np.bincount(flat("key"), weights=flat("tf2"), minlength=vocab_dim * vocab_dim)
    idf = np.log((m + 1.0) / (df + 1.0))
    gram = g.reshape(vocab_dim, vocab_dim)
    gram *= idf[:, None]
    gram *= idf
    return idf, gram, part_values


def top_eigenvectors(gram: np.ndarray, dim: int) -> np.ndarray:
    """The ``dim`` eigenvectors of the largest eigenvalues of ``gram``,
    as columns in descending eigenvalue order.

    Rows and columns of buckets no value hits are exactly 0, so only the
    occupied block is decomposed (eigh's workspace grows with its square);
    its eigenvectors, zero-padded, are eigenvectors of the whole gram.
    Topics beyond the occupied count stay 0: every TF-IDF row projects to
    0 on the null space.
    """
    occ = np.flatnonzero(np.diag(gram) > 0)
    # eigh returns ascending eigenvalues.
    _, vecs = np.linalg.eigh(gram[np.ix_(occ, occ)])
    top = vecs[:, ::-1][:, :dim]
    out = np.zeros((len(gram), dim))
    out[occ, : top.shape[1]] = top
    return out


def lsa_irs(
    a: DataFrame, b: DataFrame, attrs: list[str], *, dim: int, vocab_dim: int = 1024
) -> DataFrame:
    """Per-tuple LSA IRs ``(id, table, irs)``, ``irs`` a flat float32
    arity x ``dim`` matrix.

    ``dim`` topics; empty values yield all-zero IRs (no token mass).
    """
    assert dim <= vocab_dim, "topic count cannot exceed hashed vocab size"
    values = value_table(a, b, attrs)
    idf, gram, part_values = tfidf_gram(values, vocab_dim)
    if part_values.max(initial=0) * dim > _PART_CELLS:
        values = values.repartition(-(-int(part_values.sum()) * dim // _PART_CELLS))
    # tf @ (idf * V) is the TF-IDF row projected onto the topics.
    bW = values.sparkSession.sparkContext.broadcast(
        idf[:, None] * top_eigenvectors(gram, dim)
    )
    arity = len(attrs)
    cols = [f"v{i}" for i in range(arity)]

    def project(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        W, cache = bW.value, {}
        for pdf in _chunks(it):
            n = pdf.shape[0] * arity
            vi, bk, count = _term_counts(pdf[cols].to_numpy().ravel(), vocab_dim, cache)
            P = np.zeros((n, dim))
            if len(vi):
                starts = np.flatnonzero(np.r_[True, vi[1:] != vi[:-1]])
                P[vi[starts]] = np.add.reduceat(count[:, None] * W[bk], starts)
            P /= np.maximum(np.linalg.norm(P, axis=1, keepdims=True), 1e-12)
            yield pd.DataFrame(
                {
                    "id": pdf["id"].to_numpy(),
                    "table": pdf["table"].to_numpy(),
                    "irs": list(P.astype(np.float32).reshape(-1, arity * dim)),
                }
            )

    return values.mapInPandas(
        project, schema="id long, table string, irs array<float>"
    )
