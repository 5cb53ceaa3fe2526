"""LSA IRs: hashed TF-IDF + truncated SVD topic projection (§III-B).

Runs on the driver. The union of the two (unmelted) tables is collected
once with `toArrow` (a JVM-only job: no Python worker) and read in chunks
of ``_CHUNK`` tuples:

  tokenize  each value is tokenized and its tokens hashed into
            ``vocab_dim`` buckets once; each chunk keeps its sparse TF
            triplets (value, bucket, count), and the collected strings are
            dropped.
  gram      the document frequency per bucket and the integer
            term-frequency gram ``G = sum_v tf_v tf_v^T`` are summed over
            the triplets; ``idf = log((m + 1) / (df + 1))`` (Spark ML's
            IDF), ``gram = idf * G * idf`` = X^T X of the TF-IDF matrix X,
            V = top ``dim`` eigenvectors of the gram (numpy eigh over the
            occupied buckets only: the other rows and columns are 0).
  project   IR = L2-normalised projection ``tf_v @ (idf * V)`` of every
            value, into one float32 (tuples, arity * dim) array whose rows
            are the tuples' IRs concatenated in ``attrs`` order.

Tokens and buckets equal those of `tokenize.melt` + Spark ML `HashingTF`
(MurmurHash3_x86_32, seed 42), so this is the classic LSI of that
TF-IDF matrix. ``G`` is a sum of integers, exact in float64, and a value
never spans two chunks, so neither the gram nor any IR depends on how the
input is partitioned or on the chunk size. No dense values x vocab_dim
block is ever built.
"""
from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.ir.tokenize import value_columns

_NON_ALNUM = re.compile(r"[^a-zA-Z0-9]+")
_M32 = 0xFFFFFFFF
# Tuples per chunk: bounds the pair and projection temporaries on the
# driver (the float64 ``count * W[bk]`` gather holds ``dim`` floats per
# (value, bucket) entry: ~2.7 MB per chunk at music sf=1). A value never
# spans two chunks, so no IR depends on this size.
_CHUNK = 128

# Sparse TF rows of a chunk: (value index, bucket, count), see `_term_counts`.
Triplets = tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _term_counts(
    values: np.ndarray, vocab_dim: int, cache: dict[str, int]
) -> Triplets:
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
    # int32 halves what the chunks keep until the projection.
    return (
        (key // vocab_dim).astype(np.int32),
        (key % vocab_dim).astype(np.int32),
        count.astype(np.int32),
    )


def _pair_gram(vi: np.ndarray, bk: np.ndarray, count: np.ndarray, g: np.ndarray) -> None:
    """Add ``sum_v tf_v tf_v^T``, over the bucket pairs within each value,
    to the (vocab_dim, vocab_dim) float64 gram ``g``. Every term is an
    integer, so the sum is exact in any order."""
    lens = np.bincount(vi)
    per = lens[vi]  # partners of each entry: the entries of its own value
    left = np.repeat(np.arange(len(vi)), per)
    offset = np.arange(len(left)) - np.repeat(np.cumsum(per) - per, per)
    right = np.repeat(np.cumsum(lens)[vi] - per, per) + offset
    np.add.at(
        g.reshape(-1),
        bk[left] * len(g) + bk[right],
        (count[left] * count[right]).astype(np.float64),
    )


def term_counts(values: pa.Table, vocab_dim: int) -> list[Triplets]:
    """Collected `value_table` output -> the sparse TF triplets of each
    chunk of ``_CHUNK`` tuples; a value's index counts row-major (tuple,
    then attribute) within its chunk. Each value is tokenized once."""
    cols = [c for c in values.column_names if c not in ("id", "table")]
    cache: dict[str, int] = {}
    out = []
    for s in range(0, values.num_rows, _CHUNK):
        chunk = values.slice(s, _CHUNK)
        strings = np.stack(
            [chunk.column(c).to_numpy(zero_copy_only=False) for c in cols], axis=1
        )
        out.append(_term_counts(strings.ravel(), vocab_dim, cache))
    return out


def tfidf_gram(
    tf: list[Triplets], m: int, vocab_dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """(idf, X^T X) of the TF-IDF matrix X of ``m`` values, from their TF
    triplets (`term_counts`)."""
    doc_freq = np.zeros(vocab_dim, dtype=np.int64)
    gram = np.zeros((vocab_dim, vocab_dim))
    for vi, bk, count in tf:
        doc_freq += np.bincount(bk, minlength=vocab_dim)
        _pair_gram(vi, bk, count, gram)
    idf = np.log((m + 1.0) / (doc_freq + 1.0))
    gram *= idf[:, None]
    gram *= idf
    return idf, gram


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-tuple LSA IRs ``(ids, tables, X)`` in collect order, ``X`` the
    float32 (tuples, arity * dim) IRs.

    ``dim`` topics; empty values yield all-zero IRs (no token mass).
    """
    assert dim <= vocab_dim, "topic count cannot exceed hashed vocab size"
    values = value_table(a, b, attrs).toArrow()
    # Copies, so that no view keeps the collected strings alive.
    ids = values.column("id").to_numpy().copy()
    tables = values.column("table").to_numpy(zero_copy_only=False)
    m = values.num_rows * len(attrs)
    tf = term_counts(values, vocab_dim)
    del values
    idf, gram = tfidf_gram(tf, m, vocab_dim)
    # tf @ (idf * V) is the TF-IDF row projected onto the topics.
    W = idf[:, None] * top_eigenvectors(gram, dim)
    X = np.empty((m, dim), dtype=np.float32)
    step = _CHUNK * len(attrs)
    for lo, (vi, bk, count) in zip(range(0, m, step), tf):
        P = np.zeros((min(step, m - lo), dim))
        if len(vi):
            starts = np.flatnonzero(np.r_[True, vi[1:] != vi[:-1]])
            P[vi[starts]] = np.add.reduceat(count[:, None] * W[bk], starts)
        P /= np.maximum(np.linalg.norm(P, axis=1, keepdims=True), 1e-12)
        X[lo : lo + len(P)] = P
    return ids, tables, X.reshape(len(ids), len(attrs) * dim)
