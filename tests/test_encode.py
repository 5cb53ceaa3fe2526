"""Tests for distributed encoding (`repro.core.encode`)."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.encode import encode_representations, irs_as_representations
from repro.core.vae import VAE


@pytest.fixture(scope="module")
def irs_df(spark):
    rng = np.random.default_rng(0)
    rows = []
    for t, n in (("a", 9), ("b", 7)):
        for i in range(n):
            rows.append(
                {"id": i, "table": t, "irs": rng.normal(size=(3, 6)).tolist()}
            )
    return spark.createDataFrame(pd.DataFrame(rows))


@pytest.fixture(scope="module")
def vae():
    v = VAE(6, 10, 4, seed=0)
    v.fit(np.random.default_rng(1).normal(size=(80, 6)), epochs=3)
    return v


class TestEncodeRepresentations:
    def test_matches_driver_encoding(self, spark, irs_df, vae):
        out = encode_representations(irs_df, vae.encoder.state()).toPandas()
        src = irs_df.toPandas()
        by = {(r["table"], r["id"]): np.stack(r["irs"]) for _, r in src.iterrows()}
        for _, r in out.iterrows():
            mu, sigma = vae.encode(by[(r["table"], r["id"])])
            assert np.allclose(np.asarray(r["mu"]), mu.ravel(), atol=1e-9)
            assert np.allclose(np.asarray(r["sigma"]), sigma.ravel(), atol=1e-9)

    def test_flattened_length(self, irs_df, vae):
        out = encode_representations(irs_df, vae.encoder.state()).first()
        assert len(out["mu"]) == 3 * 4  # arity * latent
        assert len(out["sigma"]) == 3 * 4

    def test_sigma_positive(self, irs_df, vae):
        out = encode_representations(irs_df, vae.encoder.state()).toPandas()
        assert all((np.asarray(s) > 0).all() for s in out["sigma"])

    def test_row_count_preserved(self, irs_df, vae):
        assert encode_representations(irs_df, vae.encoder.state()).count() == 16


class TestIrsAsRepresentations:
    def test_mu_is_concatenated_irs(self, irs_df):
        out = irs_as_representations(irs_df).toPandas()
        src = irs_df.toPandas()
        by = {(r["table"], r["id"]): np.stack(r["irs"]) for _, r in src.iterrows()}
        for _, r in out.iterrows():
            assert np.allclose(
                np.asarray(r["mu"]), by[(r["table"], r["id"])].ravel()
            )

    def test_sigma_all_zero(self, irs_df):
        out = irs_as_representations(irs_df).toPandas()
        assert all(not np.asarray(s).any() for s in out["sigma"])

