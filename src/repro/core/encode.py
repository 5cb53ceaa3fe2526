"""Entity encoding (§III-A inference path) and the representation frames.

The trained variational encoder is tiny (a few hundred KB of weights),
and every IR is collected to the driver anyway, for the matcher and the
active-learning loop. Encoding therefore runs there, over the collected
``(n, arity, ir_dim)`` IR array, with the same `encode_with_state` the
matcher uses. Spark gets the result back as a frame for top-k blocking.

Representations are stored *flattened*: ``mu``/``sigma`` are arrays of
length arity*latent — the concatenation of the per-attribute vectors.
W2 over the concatenation equals the sum of per-attribute W2 terms, so
all downstream distance math (Eq. 3, the Distance layer, top-k blocking)
works directly on the flat form. The frames hold them as ``array<float>``:
the encoder computes in float32, so the driver's float64 tensors hold
float32 values and the cast loses nothing.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.core.active import DomainTensors
from repro.core.vae import encode_with_state
from repro.ir.api import float_lists

# Attribute values per encoder call: bounds the hidden-layer temporaries.
_CHUNK = 1 << 16


def encode_irs(
    encoder_state: dict[str, np.ndarray], irs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(n, m, d) IRs -> float64 (mu, sigma), each (n, m*k)."""
    n, m, d = irs.shape
    flat = irs.reshape(n * m, d)
    k = encoder_state["mu_W"].shape[1]
    mu, sigma = np.empty((n * m, k)), np.empty((n * m, k))
    for s in range(0, n * m, _CHUNK):
        mu[s : s + _CHUNK], sigma[s : s + _CHUNK] = encode_with_state(
            encoder_state, flat[s : s + _CHUNK]
        )
    return mu.reshape(n, m * k), sigma.reshape(n, m * k)


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
