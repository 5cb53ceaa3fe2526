"""Top-k neighbour blocking over entity representations (§V-A, §VI-B).

W2^2 between diagonal Gaussians (Eq. 3) is the squared Euclidean distance
between the concatenations ``[mu | sigma]``, so the W2 top-k of every
tuple is found with matrix products, with no sketch or approximation.
The search runs on the driver, which holds every representation anyway:

  1. ``reps`` is collected once with `toArrow`. The smaller table (the
     *index*) becomes one float64 ``[mu | sigma]`` matrix sorted by id.
     The larger table (the *probe*) stays in the Arrow buffers and is
     upcast to float64 a row block at a time.
  2. Per contiguous chunk of probe rows, in row blocks, the kernel forms
     ``d2 = |q|^2 - 2 Q X^T + |x|^2``. It keeps the top-k of every probe
     row and, for every index row, its top-k among the chunk's probe
     rows, flagging the pairs in a probe row's own top-k. Candidates
     within the expansion's rounding bound of the k-th smallest ``d2``
     are re-scored with `w2_squared` (direct differences, float64), so
     ranking uses true W2 with ties broken by the other side's id.
  3. Over the union of the chunk results, every index row keeps its
     top-k, plus the flagged pairs. A row's global top-k lies inside the
     union of its per-chunk top-k lists, so nothing is missed.

A probe side that fits in one GEMM block is one chunk, run inline. A
larger one is cut into one contiguous chunk per core, run on a thread
pool: numpy releases the interpreter lock in the GEMM, the partitions
and the comparisons. The pool is created once per process and kept:
each new thread would leave its own malloc arena behind, so a fresh
pool per call grows the resident memory with every call.

The module keeps its historical name: the paper blocks with LSH, which a
search without approximation makes unnecessary at Table II scale.
"""
from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame

from repro.core.wasserstein import w2_squared

_BLOCK_CELLS = 1 << 23  # entries of d2, and of Q, per GEMM block (64 MB of float64)
_PAIR_CHUNK = 256  # pairs per direct-difference re-score chunk


class _Rows:
    """One table's ``(id, [mu | sigma])`` rows, read in place from Arrow
    record batches; only the rows asked for are upcast to float64."""

    def __init__(self, batches: list[pa.RecordBatch]):
        self.ids = np.concatenate([b["id"].to_numpy() for b in batches])
        self.parts = [
            tuple(
                b[c].flatten().to_numpy(zero_copy_only=False).reshape(b.num_rows, -1)
                for c in ("mu", "sigma")
            )
            for b in batches
        ]
        self.start = np.cumsum([0] + [b.num_rows for b in batches])

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, rows: np.ndarray) -> np.ndarray:
        """float64 ``[mu | sigma]`` of ``rows``, in that order."""
        h = self.parts[0][0].shape[1]
        out = np.empty((len(rows), 2 * h))
        part = np.searchsorted(self.start, rows, side="right") - 1
        for p, (mu, sigma) in enumerate(self.parts):
            at = np.flatnonzero(part == p)
            if len(at):
                local = rows[at] - self.start[p]
                out[at, :h] = mu[local]
                out[at, h:] = sigma[local]
        return out


def _split(tbl: pa.Table) -> dict[str, list[pa.RecordBatch]]:
    """Record batches of each table; a batch holding both is filtered."""
    out: dict[str, list[pa.RecordBatch]] = {"a": [], "b": []}
    for batch in tbl.to_batches():
        for t in out:
            mask = pc.equal(batch["table"], t)
            n = pc.sum(mask).as_py() or 0
            if n:
                out[t].append(batch if n == batch.num_rows else batch.filter(mask))
    return out


def _w2(P: _Rows, X: np.ndarray, r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """W2 of the pairs (probe row r, X[c]) by direct differences."""
    h = X.shape[1] // 2
    out = np.empty(len(r))
    for s in range(0, len(r), _PAIR_CHUNK):
        q, x = P.take(r[s : s + _PAIR_CHUNK]), X[c[s : s + _PAIR_CHUNK]]
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


@functools.cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of ``workers`` threads (one per core), created
    on first use and kept."""
    return ThreadPoolExecutor(workers, thread_name_prefix="topk")


def _step(X: np.ndarray) -> int:
    """Probe rows per GEMM block."""
    return max(1, _BLOCK_CELLS // max(X.shape))


def _chunk(
    P: _Rows, lo: int, hi: int, X: np.ndarray, sq_x: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairs (probe row, index row, w2, top) of probe rows ``lo:hi``: the
    top-k of each probe row (flagged ``top``), and each index row's
    top-k among these probe rows."""
    # Bound on the rounding error of the d2 expansion, relative to
    # |q|^2 + |x|^2, doubled: candidates within it of the k-th smallest
    # d2 contain every pair of the true W2 top-k.
    rel = 8.0 * (X.shape[1] + 4) * np.finfo(np.float64).eps
    step = _step(X)
    sq_q = np.empty(hi - lo)
    rs, cs, gs = [], [], []
    for s in range(lo, hi, step):
        Q = P.take(np.arange(s, min(s + step, hi)))
        sq = sq_q[s - lo : s - lo + len(Q)] = np.einsum("ij,ij->i", Q, Q)
        G = Q @ X.T
        G *= -2.0
        G += sq[:, None]
        G += sq_x
        near = (G <= (_kth(G, k, 1) + rel * (sq + sq_x.max()))[:, None]) | (
            G <= _kth(G, k, 0) + rel * (sq.max() + sq_x)
        )
        r, c = np.nonzero(near)
        rs.append(r + (s - lo))
        cs.append(c)
        gs.append(G[r, c])
    r, c, g = np.concatenate(rs), np.concatenate(cs), np.concatenate(gs)
    sel = _near(r, g, k, rel * (sq_q + sq_x.max())) | _near(c, g, k, rel * (sq_q.max() + sq_x))
    r, c = r[sel] + lo, c[sel]
    w2 = _w2(P, X, r, c)
    top = _first_k(r, w2, c, k)  # c follows index id order
    keep = top | _first_k(c, w2, P.ids[r], k)
    return r[keep], c[keep], w2[keep], top[keep]


def topk_pairs(reps: DataFrame, *, k: int = 10) -> DataFrame:
    """Cross-table pairs in the W2 top-k of *either* side, computed without
    approximation.

    Returns ``(id_a, id_b, w2)`` — the §VI-B evaluation protocol and the
    Algorithm 1 candidate pool. Within a row's top-k, W2 ties are broken
    by the other side's id. ``reps`` must carry (id, table in {'a','b'},
    mu, sigma), with ``mu``/``sigma`` float or double arrays.
    """
    spark = reps.sparkSession
    sides = _split(reps.select("id", "table", "mu", "sigma").toArrow())
    n = {t: sum(b.num_rows for b in v) for t, v in sides.items()}
    if not n["a"] or not n["b"]:
        return spark.createDataFrame([], "id_a long, id_b long, w2 double")
    index, probe = ("a", "b") if n["a"] <= n["b"] else ("b", "a")
    ix, P = _Rows(sides[index]), _Rows(sides[probe])
    order = np.argsort(ix.ids, kind="stable")
    ids_x, X = ix.ids[order], ix.take(order)
    sq_x = np.einsum("ij,ij->i", X, X)

    if len(P) <= _step(X):
        parts = [_chunk(P, 0, len(P), X, sq_x, k)]
    else:
        workers = len(os.sched_getaffinity(0))
        cuts = np.linspace(0, len(P), min(workers, len(P)) + 1).astype(int)
        parts = list(
            _pool(workers).map(
                lambda lo, hi: _chunk(P, lo, hi, X, sq_x, k), cuts[:-1], cuts[1:]
            )
        )
    r, c, w2, top = (np.concatenate(x) for x in zip(*parts))
    # Per index row: its k best by (w2, probe id), plus the flagged pairs.
    keep = top | _first_k(c, w2, P.ids[r], k)
    probe_id, index_id = P.ids[r[keep]], ids_x[c[keep]]
    id_a, id_b = (probe_id, index_id) if probe == "a" else (index_id, probe_id)
    return spark.createDataFrame(pa.table({"id_a": id_a, "id_b": id_b, "w2": w2[keep]}))
