"""The latent representations as Spark frames, for top-k blocking.

The trained variational encoder is tiny (a few hundred KB of weights),
and every IR is collected to the driver anyway, for the matcher and the
active-learning loop. Encoding therefore runs there, over the collected
``(n, arity, ir_dim)`` IR array, with `vae.encode_irs`, the chunked
encoder the matcher also scores pairs with. This module gives Spark the
result back as a frame.

Representations are stored *flattened*: ``mu``/``sigma`` are arrays of
length arity*latent — the concatenation of the per-attribute vectors.
W2 over the concatenation equals the sum of per-attribute W2 terms, so
all downstream distance math (Eq. 3, the Distance layer, top-k blocking)
works directly on the flat form. The encoder computes in float32, and
both the driver tensors (`DomainTensors`) and the frames (``array<float>``)
keep its float32 values as they are.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.core.active import DomainTensors
from repro.ir.api import float_lists


def _frame(
    spark: SparkSession,
    ids: dict[str, np.ndarray],
    mu: dict[str, np.ndarray],
    sigma: dict[str, np.ndarray],
) -> DataFrame:
    """(id, table, mu, sigma) rows of every table, one partition per
    record batch, sized so the frame has at least ``defaultParallelism``
    partitions (or one per row, if there are fewer rows): a Spark job over
    the frame, such as the top-k's Arrow collect, gets a task per core."""
    n = sum(len(v) for v in ids.values())
    size = max(1, n // spark.sparkContext.defaultParallelism)
    batches = []
    for t in sorted(ids):
        tbl = pa.table({
            "id": pa.array(ids[t], pa.int64()),
            "table": pa.array([t] * len(ids[t]), pa.string()),
            "mu": float_lists(mu[t]),
            "sigma": float_lists(sigma[t]),
        })
        batches += tbl.to_batches(max_chunksize=size)
    return spark.createDataFrame(pa.Table.from_batches(batches))


def representations_frame(spark: SparkSession, tensors: DomainTensors) -> DataFrame:
    """The latent representations as ``(id, table, mu, sigma)``."""
    return _frame(spark, tensors.ids, tensors.mu, tensors.sigma)


def irs_as_representations(spark: SparkSession, tensors: DomainTensors) -> DataFrame:
    """Raw-IR baseline view: mu = concatenated IRs, sigma = 0.

    Lets the Table IV 'plain IR nearest-neighbour' arm reuse every
    downstream code path (W2 degenerates to squared Euclidean).
    """
    flat = {t: x.reshape(len(x), -1) for t, x in tensors.irs.items()}
    return _frame(
        spark, tensors.ids, flat, {t: np.zeros(x.shape) for t, x in flat.items()}
    )
