"""EmbDI-lite IRs: relational embeddings for data integration (§III-B).

Cappuzzo et al. embed a heterogeneous graph (tokens <-> rows <-> columns)
by running random walks and training word2vec on them. This lite version
keeps the skeleton at tractable cost, on the driver:

  - *row sentences*: all tokens of a tuple, with a per-attribute marker
    token injected before each attribute's tokens (row + column
    co-occurrence in one pass — one walk per row), in (table, id) order;
  - *column sentences*: tokens of one attribute across a fixed hashed
    bucket of rows, in (table, id) order (column-wise co-occurrence — one
    walk per attribute and bucket);
  - Spark ML Word2Vec over the rows' then the columns' sentences, fit and
    pooled per value as the W2V IRs are (`w2v.fit_word2vec`, `w2v.pool`).
"""
from __future__ import annotations

import zlib
from itertools import chain
from typing import Iterable

import numpy as np

from repro.ir.tokenize import distinct_values, tokens
from repro.ir.w2v import NULL_TOKEN, fit_word2vec, pool

_BUCKETS = 64  # column sentences per attribute


def embdi_irs(
    chunks: Iterable[np.ndarray],
    tables: np.ndarray,
    ids: np.ndarray,
    *,
    dim: int,
    seed: int,
) -> np.ndarray:
    """Per-value EmbDI IRs of the (tuples, arity) string chunks, whose
    tuples are ``(tables, ids)`` in (table, id) order: float32
    (values, dim), values row-major."""
    distinct, codes = distinct_values(chunks)
    toks = [tokens(v) for v in distinct]
    markers = [[f"__col{j}__"] for j in range(codes.shape[1])]
    rows = [
        list(chain.from_iterable(markers[j] + toks[c] for j, c in enumerate(row)))
        for row in codes
    ]
    bucket = np.array([zlib.crc32(f"{t}:{i}".encode()) % _BUCKETS for t, i in zip(tables, ids)])
    by_bucket = [np.flatnonzero(bucket == k) for k in range(_BUCKETS)]
    cols = [
        list(chain.from_iterable(toks[c] for c in codes[members, j]))
        for j in range(codes.shape[1])
        for members in by_bucket
    ]
    model = fit_word2vec(rows + [s for s in cols if s], dim=dim, seed=seed)
    return pool(model, [t or [NULL_TOKEN] for t in toks])[codes.ravel()]
