"""The attribute values every IR builder reads, and the one tokenizer.

`value_table` is the unmelted union of both input tables, one row per
tuple with each attribute value as a string: `build_irs` collects it once
with `toArrow` (a JVM-only job: no Python worker) and `value_chunks` reads
the collected strings back in chunks of ``_CHUNK`` tuples. `tokens` splits
a value into the lowercase alphanumeric words of §III-B's "each attribute
value is a sentence" view (LSA, W2V and EmbDI share it).
"""
from __future__ import annotations

import re
from typing import Iterable, Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

_NON_ALNUM = re.compile(r"[^a-zA-Z0-9]+")
# Tuples per chunk: bounds the Python strings alive at once, and LSA's
# per-chunk temporaries (the float64 ``count * W[bk]`` gather holds ``dim``
# floats per (value, bucket) entry: ~2.7 MB per chunk at music sf=1). A
# value never spans two chunks, so no IR depends on this size.
_CHUNK = 128


def value_columns(attrs: list[str]) -> list[Column]:
    """Each attribute as a string; null/missing becomes the empty string."""
    return [F.coalesce(F.col(c).cast("string"), F.lit("")) for c in attrs]


def value_table(a: DataFrame, b: DataFrame, attrs: list[str]) -> DataFrame:
    """(id, table, v0..v{k-1}): both tables, attribute values as strings.

    Null/missing values become the empty string, so every tuple has
    exactly ``len(attrs)`` values: the fixed (attributes x features) input
    shape the shared-parameter VAE expects.
    """

    def side(df: DataFrame, label: str) -> DataFrame:
        return df.select(
            F.col("id").cast("long").alias("id"),
            F.lit(label).alias("table"),
            *[c.alias(f"v{i}") for i, c in enumerate(value_columns(attrs))],
        )

    return side(a, "a").unionByName(side(b, "b"))


def value_chunks(values: pa.Table) -> Iterator[np.ndarray]:
    """Collected `value_table` output -> its strings as (tuples, arity)
    object arrays of at most ``_CHUNK`` tuples, in row order.

    The generator holds its own reference to ``values``; once the last
    chunk is read it lets go, so a caller that keeps only the generator
    frees the collected table as soon as it has read it.
    """
    cols = [c for c in values.column_names if c not in ("id", "table")]
    for s in range(0, values.num_rows, _CHUNK):
        chunk = values.slice(s, _CHUNK)
        yield np.stack(
            [chunk.column(c).to_numpy(zero_copy_only=False) for c in cols], axis=1
        )


def tokens(value: str) -> list[str]:
    """Split on non-alphanumerics and lowercase (Spark's
    ``split(lower(regexp_replace(v, '[^a-zA-Z0-9]+', ' ')), ' ')`` minus
    its empty strings)."""
    return _NON_ALNUM.sub(" ", value).lower().split()


def distinct_values(chunks: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(tuples, arity) string chunks -> the sorted distinct strings, and
    the (tuples, arity) index of every value into them."""
    strings = np.concatenate(list(chunks))
    distinct, inverse = np.unique(strings.ravel(), return_inverse=True)
    return distinct, inverse.reshape(strings.shape)
