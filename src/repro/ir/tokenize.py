"""DataFrame helpers shared by the IR builders.

`melt` unpivots an entity table into one row per attribute value —
``(id, table, attr_idx, value, tokens)`` — which is the "each attribute
value is a sentence" view of §III-B. `assemble` re-groups per-attribute
IR vectors into the per-tuple flat ``irs`` array the VAE consumes. LSA
(`lsa.py`) reads the unmelted tables and shares only `value_columns`.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F


def value_columns(attrs: list[str]) -> list[Column]:
    """Each attribute as a string; null/missing becomes the empty string."""
    return [F.coalesce(F.col(c).cast("string"), F.lit("")) for c in attrs]


def melt(df: DataFrame, attrs: list[str], table_label: str) -> DataFrame:
    """Unpivot ``df[id, *attrs]`` into (id, table, attr_idx, value, tokens).

    Null/missing attribute values become the empty string so every tuple
    contributes exactly ``len(attrs)`` rows — the fixed 2-d input shape
    (num. attributes x num. features) the shared-parameter VAE expects.
    """
    out = df.select(
        F.col("id").cast("long").alias("id"),
        F.lit(table_label).alias("table"),
        F.posexplode(F.array(*value_columns(attrs))).alias("attr_idx", "value"),
    )
    tokens = F.filter(
        F.split(F.lower(F.regexp_replace("value", "[^a-zA-Z0-9]+", " ")), " "),
        lambda t: t != "",
    )
    return out.withColumn("tokens", tokens)


def melt_both(a: DataFrame, b: DataFrame, attrs: list[str]) -> DataFrame:
    """Union of the two input tables in melted form (§III trains one
    representation model over all tuples of both tables)."""
    return melt(a, attrs, "a").unionByName(melt(b, attrs, "b"))


def assemble(attr_ir: DataFrame, arity: int) -> DataFrame:
    """(id, table, attr_idx, ir) -> (id, table, irs): ``irs`` the float32
    concatenation of the tuple's ``ir`` vectors in ``attr_idx`` order.

    Sorting inside the aggregated structs restores attribute order after
    the shuffle, so ``irs`` is always arity-aligned.
    """
    return (
        attr_ir.groupBy("id", "table")
        .agg(
            F.array_sort(
                F.collect_list(F.struct("attr_idx", "ir"))
            ).alias("pairs")
        )
        .select(
            "id",
            "table",
            F.flatten(F.transform("pairs", lambda p: p["ir"]))
            .cast("array<float>")
            .alias("irs"),
        )
    )
