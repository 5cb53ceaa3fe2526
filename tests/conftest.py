"""Shared fixtures for the test suite.

Spark-facing fixtures are session-scoped: the tiny restaurants domain
and its LSA representation pipeline are reused across many tests to
keep the suite fast.
"""
from __future__ import annotations

import pytest

from repro.core.config import VaerConfig


@pytest.fixture(scope="session")
def small_cfg() -> VaerConfig:
    """Shrunk hyperparameters for unit tests (paper values are too slow
    to re-train dozens of times in a test session)."""
    return VaerConfig(
        ir_dim=12,
        vae_hidden_dim=24,
        vae_latent_dim=8,
        vae_epochs=8,
        match_epochs=30,
        match_min_steps=400,
        match_max_epochs=150,
        kde_samples_per_pair=30,
    )


@pytest.fixture(scope="session")
def tiny_domain(spark):
    from repro.datasets.generate import er_domain

    return er_domain(spark, "restaurants", sf=0.08, seed=0)


@pytest.fixture(scope="session")
def tiny_rep(spark, tiny_domain, small_cfg):
    from repro.core.pipeline import learn_representations

    return learn_representations(tiny_domain, kind="lsa", cfg=small_cfg, seed=0)


@pytest.fixture(scope="session")
def tiny_tensors(tiny_rep):
    from repro.core.pipeline import domain_tensors

    return domain_tensors(tiny_rep)
