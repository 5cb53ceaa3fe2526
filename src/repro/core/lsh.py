"""Top-k neighbour blocking over entity representations (§V-A, §VI-B).

W2^2 between diagonal Gaussians (Eq. 3) is the squared Euclidean distance
between the concatenations ``[mu | sigma]``, so the W2 top-k of every
tuple is found with matrix products, with no sketch or approximation:

  1. The smaller table (the *index*) is collected as one ``[mu | sigma]``
     matrix sorted by id and broadcast; the larger table is the *probe*.
  2. One `mapInPandas` over the probe side computes, per Arrow batch and
     in row blocks, ``d2 = |q|^2 - 2 Q X^T + |x|^2``. It emits the top-k of
     every probe row and, for every index row, its top-k among the
     batch's probe rows, flagging the pairs in a probe row's own top-k.
     Candidates within the expansion's rounding bound of the k-th
     smallest ``d2`` are re-scored with `w2_squared` (direct
     differences), so ranking uses true W2 with ties broken by the
     other side's id.
  3. One ``groupBy`` over the index id keeps the flagged pairs plus each
     index row's top-k. A row's global top-k lies inside the union of its
     per-batch top-k lists, so nothing is missed.

The module keeps its historical name: the paper blocks with LSH, which a
search without approximation makes unnecessary at Table II scale.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.wasserstein import w2_squared

_BLOCK_CELLS = 1 << 23  # d2 entries per GEMM block (64 MB of float64)
_PAIR_CHUNK = 2048  # pairs per direct-difference re-score chunk


def _matrix(pdf: pd.DataFrame) -> np.ndarray:
    """Rows of ``[mu | sigma]``."""
    return np.hstack([np.stack(pdf["mu"].to_numpy()), np.stack(pdf["sigma"].to_numpy())])


def _w2(Q: np.ndarray, X: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """W2 of the pairs (Q[r], X[c]) by direct differences."""
    h = Q.shape[1] // 2
    out = np.empty(len(r))
    for s in range(0, len(r), _PAIR_CHUNK):
        q, x = Q[r[s : s + _PAIR_CHUNK]], X[c[s : s + _PAIR_CHUNK]]
        out[s : s + _PAIR_CHUNK] = w2_squared(q[:, :h], q[:, h:], x[:, :h], x[:, h:])
    return out


def _kth(G: np.ndarray, k: int, axis: int) -> np.ndarray:
    """k-th smallest entry along ``axis`` (the largest if there are fewer)."""
    k = min(k, G.shape[axis])
    return np.partition(G, k - 1, axis=axis).take(k - 1, axis=axis)


def _ranks(order: np.ndarray, grp: np.ndarray) -> np.ndarray:
    """Rank of each entry within its group, for ``order`` sorted by group."""
    gs = grp[order]
    start = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
    rank = np.empty(len(grp), dtype=np.int64)
    rank[order] = np.arange(len(gs)) - np.repeat(start, np.diff(np.r_[start, len(gs)]))
    return rank


def _near(grp: np.ndarray, g: np.ndarray, k: int, slack: np.ndarray) -> np.ndarray:
    """Candidates within ``slack`` of their group's k-th smallest ``g``:
    a superset of the group's true W2 top-k, ties included."""
    top = _ranks(np.lexsort((g, grp)), grp) < k
    kth = np.full(len(slack), -np.inf)
    np.maximum.at(kth, grp[top], g[top])
    return g <= kth[grp] + slack[grp]


def _first_k(grp: np.ndarray, w2: np.ndarray, tie: np.ndarray, k: int) -> np.ndarray:
    """The k best entries of each group, ranked by (w2, tie)."""
    return _ranks(np.lexsort((tie, w2, grp)), grp) < k


def topk_pairs(reps: DataFrame, *, k: int = 10) -> DataFrame:
    """Cross-table pairs in the W2 top-k of *either* side, computed without
    approximation.

    Returns ``(id_a, id_b, w2)`` — the §VI-B evaluation protocol and the
    Algorithm 1 candidate pool. Within a row's top-k, W2 ties are broken
    by the other side's id. ``reps`` must carry (id, table in {'a','b'},
    mu, sigma).
    """
    spark = reps.sparkSession
    n = dict(reps.groupBy("table").count().collect())
    if not n.get("a") or not n.get("b"):
        return spark.createDataFrame([], "id_a long, id_b long, w2 double")
    index, probe = ("a", "b") if n["a"] <= n["b"] else ("b", "a")
    index_pdf = (
        reps.where(F.col("table") == index).select("id", "mu", "sigma").toPandas().sort_values("id")
    )
    X = _matrix(index_pdf)
    b = spark.sparkContext.broadcast((index_pdf["id"].to_numpy(), X, (X**2).sum(axis=1)))

    def part(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        ids_x, X, sq_x = b.value
        # Bound on the rounding error of the d2 expansion, relative to
        # |q|^2 + |x|^2, doubled: candidates within it of the k-th smallest
        # d2 contain every pair of the true W2 top-k.
        rel = 8.0 * (X.shape[1] + 4) * np.finfo(np.float64).eps
        step = max(1, _BLOCK_CELLS // len(X))
        for pdf in it:
            if not len(pdf):
                continue
            ids_q = pdf["id"].to_numpy()
            Q = _matrix(pdf)
            sq_q = (Q**2).sum(axis=1)
            slack_q = rel * (sq_q + sq_x.max())
            slack_x = rel * (sq_q.max() + sq_x)
            rs, cs, gs = [], [], []
            for s in range(0, len(Q), step):
                G = sq_q[s : s + step, None] - 2.0 * (Q[s : s + step] @ X.T) + sq_x
                near = (G <= (_kth(G, k, 1) + slack_q[s : s + step])[:, None]) | (
                    G <= _kth(G, k, 0) + slack_x
                )
                r, c = np.nonzero(near)
                rs.append(r + s)
                cs.append(c)
                gs.append(G[r, c])
            r, c, g = np.concatenate(rs), np.concatenate(cs), np.concatenate(gs)
            sel = _near(r, g, k, slack_q) | _near(c, g, k, slack_x)
            r, c = r[sel], c[sel]
            w2 = _w2(Q, X, r, c)
            top = _first_k(r, w2, c, k)  # c follows index id order
            keep = top | _first_k(c, w2, ids_q[r], k)
            yield pd.DataFrame(
                {"probe": ids_q[r[keep]], "idx": ids_x[c[keep]], "w2": w2[keep], "top": top[keep]}
            )

    cand = (
        reps.where(F.col("table") == probe)
        .select("id", "mu", "sigma")
        .mapInPandas(part, schema="probe long, idx long, w2 double, top boolean")
    )
    # Per index row: sort by (w2, probe id), keep the first k and the flagged.
    ranked = cand.groupBy("idx").agg(
        F.sort_array(F.collect_list(F.struct("w2", "probe", "top"))).alias("c")
    )
    kept = ranked.select(
        "idx", F.explode(F.filter("c", lambda p, i: p["top"] | (i < k))).alias("p")
    )
    probe_id, index_id = F.col("p.probe"), F.col("idx")
    id_a, id_b = (probe_id, index_id) if probe == "a" else (index_id, probe_id)
    return kept.select(id_a.alias("id_a"), id_b.alias("id_b"), F.col("p.w2").alias("w2"))
