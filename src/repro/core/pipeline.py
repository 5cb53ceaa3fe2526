"""End-to-end VAER wiring used by the experiment harnesses.

`learn_representations` = paper step 1 (unsupervised, Figure 2):
build IRs -> collect them once -> train the VAE on a sample -> encode
every tuple on the driver. Matching (step 2) and active learning
(step 3) live in `active.py`; this module also exposes `domain_tensors`,
the driver-side bundle the matcher and AL loop operate on.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from repro.core.active import DomainTensors
from repro.core.config import VaerConfig
from repro.core.encode import representations_frame
from repro.core.vae import VAE, encode_irs
from repro.datasets.generate import ERDomainData
from repro.ir import build_irs, ir_tensor


@dataclass
class RepresentationResult:
    vae: VAE
    # (id, table, irs), read once by the collect; the LSA frame is built
    # from the driver's IR array, the other kinds' frames are lazy.
    irs_df: DataFrame
    reps_df: DataFrame  # built from `tensors`: (id, table, mu, sigma)
    ir_seconds: float
    train_seconds: float
    tensors: DomainTensors


def learn_representations(
    data: ERDomainData,
    *,
    kind: str = "lsa",
    cfg: VaerConfig = VaerConfig(),
    seed: int = 0,
    vae: VAE | None = None,
) -> RepresentationResult:
    """Unsupervised representation learning for one domain.

    The IR frame is collected once; the VAE sample, the encoding, the
    driver tensors and the top-k input frame all come from that one
    collect. Pass a pre-trained ``vae`` to exercise the §III-D transfer
    path: IR construction and encoding still run, but training is skipped
    (its time is reported as 0, as in the paper's transfer argument).
    """
    arity = len(data.attrs)
    t0 = time.perf_counter()
    irs_df = build_irs(data.a, data.b, data.attrs, kind=kind, dim=cfg.ir_dim, seed=seed)
    ids, tables, X = ir_tensor(irs_df.toArrow(), arity)
    t1 = time.perf_counter()

    train_seconds = 0.0
    if vae is None:
        # §VI-C: train on a sample of tuples, drawn over the (table, id)
        # order, so it does not depend on partitioning.
        sample = X
        n_take = max(1, cfg.vae_train_sample_cap // arity)
        if len(X) > n_take:
            rows = np.random.default_rng(seed).choice(len(X), n_take, replace=False)
            sample = X[np.sort(rows)]
        vae = VAE(
            in_dim=cfg.ir_dim,
            hidden=cfg.vae_hidden_dim,
            latent=cfg.vae_latent_dim,
            seed=seed,
        )
        t2 = time.perf_counter()
        vae.fit(
            sample.reshape(-1, X.shape[-1]),
            epochs=cfg.vae_epochs,
            batch_size=cfg.vae_batch_size,
            lr=cfg.learning_rate,
            seed=seed,
        )
        train_seconds = time.perf_counter() - t2

    mu, sigma = encode_irs(vae.encoder.state(), X)
    tensors = DomainTensors.from_rows(ids, tables, X, mu, sigma)
    return RepresentationResult(
        vae=vae,
        irs_df=irs_df,
        reps_df=representations_frame(irs_df.sparkSession, tensors),
        ir_seconds=t1 - t0,
        train_seconds=train_seconds,
        tensors=tensors,
    )


def domain_tensors(rep: RepresentationResult) -> DomainTensors:
    """The driver-side IRs + latent representations for matching/AL."""
    return rep.tensors
