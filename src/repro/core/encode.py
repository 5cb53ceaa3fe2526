"""Distributed entity encoding (§III-A inference path).

The trained variational encoder is tiny (a few hundred KB of weights);
the tables can be large (Table II: up to 64k tuples). Encoding therefore
broadcasts the weight dict and maps partitions of the IR DataFrame
through the encoder with `mapInPandas`.

Representations are stored *flattened*: ``mu``/``sigma`` are arrays of
length arity*latent — the concatenation of the per-attribute vectors.
W2 over the concatenation equals the sum of per-attribute W2 terms, so
all downstream distance math (Eq. 3, the Distance layer, top-k blocking)
works directly on the flat form.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.vae import encode_with_state


def encode_representations(
    irs_df: DataFrame, encoder_state: dict[str, np.ndarray]
) -> DataFrame:
    """(id, table, irs[m][d]) -> (id, table, mu[m*k], sigma[m*k])."""
    spark = irs_df.sparkSession
    b_state = spark.sparkContext.broadcast(encoder_state)

    def part(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        state = b_state.value
        for pdf in it:
            if not len(pdf):
                continue
            # (n, m, d) stacked attribute IRs -> encode all values at once.
            irs = np.stack([np.stack(r) for r in pdf["irs"]])
            n, m, d = irs.shape
            mu, sigma = encode_with_state(state, irs.reshape(n * m, d))
            k = mu.shape[1]
            yield pd.DataFrame(
                {
                    "id": pdf["id"],
                    "table": pdf["table"],
                    "mu": list(mu.reshape(n, m * k)),
                    "sigma": list(sigma.reshape(n, m * k)),
                }
            )

    return irs_df.select("id", "table", "irs").mapInPandas(
        part,
        schema="id long, table string, mu array<double>, sigma array<double>",
    )


def irs_as_representations(irs_df: DataFrame) -> DataFrame:
    """Raw-IR baseline view: mu = concatenated IRs, sigma = 0.

    Lets the Table IV 'plain IR nearest-neighbour' arm reuse every
    downstream code path (W2 degenerates to squared Euclidean).
    """

    def part(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in it:
            if not len(pdf):
                continue
            irs = np.stack([np.stack(r) for r in pdf["irs"]])
            n = irs.shape[0]
            flat = irs.reshape(n, -1)
            yield pd.DataFrame(
                {
                    "id": pdf["id"],
                    "table": pdf["table"],
                    "mu": list(flat),
                    "sigma": list(np.zeros_like(flat)),
                }
            )

    return irs_df.select("id", "table", "irs").mapInPandas(
        part,
        schema="id long, table string, mu array<double>, sigma array<double>",
    )

