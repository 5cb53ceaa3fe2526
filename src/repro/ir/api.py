"""Uniform IR entry point: (tables, kind) -> per-tuple IR DataFrame."""
from __future__ import annotations

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

    Returns ``(id, table, irs)`` with ``irs`` an arity x dim matrix; the
    row count equals |a| + |b| and ``table`` is 'a' or 'b'.
    """
    if kind == "lsa":
        return lsa_irs(a, b, attrs, dim=dim, vocab_dim=vocab_dim)
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
