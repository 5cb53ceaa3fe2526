"""Tests for driver-side encoding and the representation frames
(`repro.core.encode`)."""
from __future__ import annotations

import numpy as np
import pytest

import repro.core.vae as vae_mod
from repro.core.active import DomainTensors
from repro.core.encode import irs_as_representations, representations_frame
from repro.core.vae import VAE, encode_irs


@pytest.fixture(scope="module")
def vae():
    v = VAE(6, 10, 4, seed=0)
    v.fit(np.random.default_rng(1).normal(size=(80, 6)), epochs=3)
    return v


@pytest.fixture(scope="module")
def tensors(vae):
    rng = np.random.default_rng(0)
    ids = {"a": rng.permutation(9) * 3, "b": rng.permutation(7)}
    irs = {t: rng.normal(size=(len(v), 3, 6)).astype(np.float32) for t, v in ids.items()}
    enc = {t: encode_irs(vae.encoder.state(), x) for t, x in irs.items()}
    return DomainTensors(
        ids=ids, irs=irs,
        mu={t: e[0] for t, e in enc.items()}, sigma={t: e[1] for t, e in enc.items()},
    )


def _by_key(frame) -> dict:
    return {
        (r["table"], r["id"]): (np.asarray(r["mu"]), np.asarray(r["sigma"]))
        for r in frame.collect()
    }


class TestEncodeRepresentations:
    def test_matches_driver_encoding(self, tensors, vae):
        """Each tuple's flat (mu, sigma) is the VAE encoding of its IRs."""
        for t, irs in tensors.irs.items():
            for i, x in enumerate(irs):
                mu, sigma = vae.encode(x)
                np.testing.assert_allclose(tensors.mu[t][i], mu.ravel(), atol=1e-9)
                np.testing.assert_allclose(tensors.sigma[t][i], sigma.ravel(), atol=1e-9)

    def test_chunks_do_not_change_the_encoding(self, monkeypatch, tensors, vae):
        monkeypatch.setattr(vae_mod, "_CHUNK", 5)
        mu, sigma = encode_irs(vae.encoder.state(), tensors.irs["a"])
        assert np.array_equal(mu, tensors.mu["a"])
        assert np.array_equal(sigma, tensors.sigma["a"])

    def test_flattened_length(self, spark, tensors):
        row = representations_frame(spark, tensors).first()
        assert len(row["mu"]) == 3 * 4  # arity * latent
        assert len(row["sigma"]) == 3 * 4

    def test_encodings_are_float32_values(self, tensors):
        """The driver tensors keep the encoder's float32, as the frames do."""
        for field in (tensors.mu, tensors.sigma):
            for x in field.values():
                assert x.dtype == np.float32

    def test_sigma_positive(self, tensors):
        assert all((s > 0).all() for s in tensors.sigma.values())

    def test_row_count_preserved(self, spark, tensors):
        assert representations_frame(spark, tensors).count() == 16

    def test_rows_equal_tensors(self, spark, tensors):
        frame = representations_frame(spark, tensors)
        assert frame.schema.simpleString() == (
            "struct<id:bigint,table:string,mu:array<float>,sigma:array<float>>"
        )
        by = _by_key(frame)
        assert len(by) == 16
        for t, ids in tensors.ids.items():
            for i, v in enumerate(ids):
                mu, sigma = by[(t, v)]
                assert np.array_equal(mu, tensors.mu[t][i])
                assert np.array_equal(sigma, tensors.sigma[t][i])

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_partitions_cover_parallelism(self, spark, tensors, n):
        """At least min(defaultParallelism, rows) partitions, so a Spark
        job over the frame runs on every core even though the frame is
        built on the driver."""
        keep = {"a": slice(0, min(n, 9)), "b": slice(0, max(0, n - 9))}
        small = DomainTensors(**{
            f: {t: getattr(tensors, f)[t][keep[t]] for t in keep}
            for f in ("ids", "irs", "mu", "sigma")
        })
        frame = representations_frame(spark, small)
        assert frame.count() == n
        want = min(spark.sparkContext.defaultParallelism, n)
        assert frame.rdd.getNumPartitions() >= want

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_frames_of_few_rows(self, spark, tensors, n):
        """Frames of 1, 3 or 16 rows, the first two with table b empty,
        hold exactly their rows."""
        keep = {"a": slice(0, min(n, 9)), "b": slice(0, max(0, n - 9))}
        small = DomainTensors(**{
            f: {t: getattr(tensors, f)[t][keep[t]] for t in keep}
            for f in ("ids", "irs", "mu", "sigma")
        })
        by = _by_key(representations_frame(spark, small))
        assert len(by) == n
        for t, ids in small.ids.items():
            for i, v in enumerate(ids):
                assert np.array_equal(by[(t, v)][0], small.mu[t][i])


class TestIrsAsRepresentations:
    def test_mu_is_concatenated_irs(self, spark, tensors):
        by = _by_key(irs_as_representations(spark, tensors))
        for t, ids in tensors.ids.items():
            for i, v in enumerate(ids):
                assert np.array_equal(by[(t, v)][0], tensors.irs[t][i].ravel())

    def test_sigma_all_zero(self, spark, tensors):
        by = _by_key(irs_as_representations(spark, tensors))
        assert len(by) == 16
        assert all(not s.any() for _, s in by.values())
