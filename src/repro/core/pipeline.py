"""End-to-end VAER wiring used by the experiment harnesses.

`learn_representations` = paper step 1 (unsupervised, Figure 2):
build IRs -> train the VAE -> encode every tuple distributedly.
Matching (step 2) and active learning (step 3) live in `active.py`;
this module also exposes `domain_tensors`, the driver-side bundle the
matcher and AL loop operate on.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from repro.core.config import VaerConfig
from repro.core.encode import encode_representations
from repro.core.active import DomainTensors
from repro.core.vae import VAE
from repro.datasets.generate import ERDomainData
from repro.ir import build_irs



@dataclass
class RepresentationResult:
    vae: VAE
    irs_df: DataFrame  # cached: (id, table, irs)
    reps_df: DataFrame  # cached: (id, table, mu, sigma)
    ir_seconds: float
    train_seconds: float


def learn_representations(
    data: ERDomainData,
    *,
    kind: str = "lsa",
    cfg: VaerConfig = VaerConfig(),
    seed: int = 0,
    vae: VAE | None = None,
) -> RepresentationResult:
    """Unsupervised representation learning for one domain.

    Pass a pre-trained ``vae`` to exercise the §III-D transfer path: IR
    construction and encoding still run, but training is skipped (its
    time is reported as 0, as in the paper's transfer argument).
    """
    t0 = time.perf_counter()
    irs_df = build_irs(
        data.a, data.b, data.attrs, kind=kind, dim=cfg.ir_dim, seed=seed
    ).cache()
    n_rows = irs_df.count()  # materialise so IR time is measured here
    t1 = time.perf_counter()

    train_seconds = 0.0
    if vae is None:
        sample_df = irs_df
        if n_rows * len(data.attrs) > cfg.vae_train_sample_cap:
            frac = cfg.vae_train_sample_cap / (n_rows * len(data.attrs))
            sample_df = irs_df.sample(fraction=min(1.0, frac), seed=seed)
        sample = sample_df.select("irs").toPandas()
        X = np.stack([np.stack(r) for r in sample["irs"]])
        X = X.reshape(-1, X.shape[-1])
        vae = VAE(
            in_dim=cfg.ir_dim,
            hidden=cfg.vae_hidden_dim,
            latent=cfg.vae_latent_dim,
            seed=seed,
        )
        t2 = time.perf_counter()
        vae.fit(
            X,
            epochs=cfg.vae_epochs,
            batch_size=cfg.vae_batch_size,
            lr=cfg.learning_rate,
            seed=seed,
        )
        train_seconds = time.perf_counter() - t2

    # Cached so blocking and `domain_tensors` reuse one encoding pass.
    reps_df = encode_representations(irs_df, vae.encoder.state()).cache()
    return RepresentationResult(
        vae=vae,
        irs_df=irs_df,
        reps_df=reps_df,
        ir_seconds=t1 - t0,
        train_seconds=train_seconds,
    )


def domain_tensors(rep: RepresentationResult) -> DomainTensors:
    """Collect IRs + latent representations for driver-side matching/AL."""
    return DomainTensors.from_frames(
        rep.irs_df.toPandas(), rep.reps_df.toPandas()
    )
