"""Uniform IR entry point: (tables, kind) -> per-tuple IR DataFrame, the
one helper that turns the collected frame into driver arrays, and its
inverse, the Arrow list column of a driver array's rows."""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.sql import DataFrame

from repro.ir.bert_sim import bert_attr_irs
from repro.ir.embdi import embdi_attr_irs
from repro.ir.lsa import lsa_irs
from repro.ir.tokenize import assemble, melt_both
from repro.ir.w2v import w2v_attr_irs

IR_KINDS = ("lsa", "w2v", "bert", "embdi")


def build_irs(
    a: DataFrame,
    b: DataFrame,
    attrs: list[str],
    *,
    kind: str = "lsa",
    dim: int = 100,
    seed: int = 7,
    vocab_dim: int = 1024,
) -> DataFrame:
    """Build per-tuple IRs over both input tables.

    Returns ``(id, table, irs)`` with ``irs`` the flat float32 arity x dim
    matrix, attributes in ``attrs`` order; the row count equals |a| + |b|
    and ``table`` is 'a' or 'b'.
    """
    if kind == "lsa":
        ids, tables, X = lsa_irs(a, b, attrs, dim=dim, vocab_dim=vocab_dim)
        return a.sparkSession.createDataFrame(
            pa.table({
                "id": pa.array(ids, pa.int64()),
                "table": pa.array(tables, pa.string()),
                "irs": float_lists(X),
            })
        )
    melted = melt_both(a, b, attrs)
    if kind == "w2v":
        attr_ir = w2v_attr_irs(melted, dim=dim, seed=seed)
    elif kind == "bert":
        attr_ir = bert_attr_irs(melted, dim=dim)
    elif kind == "embdi":
        attr_ir = embdi_attr_irs(melted, dim=dim, seed=seed)
    else:
        raise ValueError(f"unknown IR kind {kind!r}; expected one of {IR_KINDS}")
    return assemble(attr_ir, len(attrs))


def float_lists(x: np.ndarray) -> pa.ListArray:
    """Rows of a 2-d array as an Arrow ``list<float>`` column. A C-contiguous
    float32 array (the IRs) is wrapped without a copy; other arrays are
    cast, which is exact for the encoder's outputs (float32 values)."""
    n, w = x.shape
    return pa.ListArray.from_arrays(
        pa.array(np.arange(0, n * w + 1, w, dtype=np.int32)),
        pa.array(np.ascontiguousarray(x, dtype=np.float32).reshape(-1)),
    )


def ir_tensor(irs: pa.Table, arity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collected `build_irs` output -> ``(ids, tables, X)``, rows sorted by
    (table, id), ``X`` the (n, arity, dim) float32 IRs.

    The sort makes every driver-side consumer independent of how the
    frame happened to be partitioned.
    """
    col = irs.column("irs")
    lengths = pc.list_value_length(col).to_numpy()
    if len(lengths) and ((lengths != lengths[0]).any() or lengths[0] % arity):
        raise ValueError(f"IR rows are not arity ({arity}) x dim float arrays")
    ids = irs.column("id").to_numpy()
    tables = irs.column("table").to_numpy(zero_copy_only=False).astype(str)
    order = np.lexsort((ids, tables))
    # One copy: each record batch's rows go straight to their sorted place.
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    width = lengths[0] if len(lengths) else 0
    X = np.empty((len(ids), width), dtype=np.float32)
    start = 0
    for chunk in col.chunks:
        X[rank[start : start + len(chunk)]] = chunk.flatten().to_numpy().reshape(-1, width)
        start += len(chunk)
    return ids[order], tables[order], X.reshape(len(ids), arity, width // arity)
