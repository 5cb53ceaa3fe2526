"""Tests pinning the Table III hyperparameters and job wiring."""
from __future__ import annotations

import importlib.util
import pathlib

import pytest

from repro.core.config import DEFAULT, VaerConfig

JOBS = pathlib.Path(__file__).resolve().parents[1] / "jobs"


class TestTableIII:
    """Paper Table III values must stay pinned in the default config."""

    def test_vae_dimensions(self):
        assert DEFAULT.vae_hidden_dim == 200
        assert DEFAULT.vae_latent_dim == 100

    def test_margin(self):
        assert DEFAULT.margin == 0.5

    def test_al_parameters(self):
        assert DEFAULT.al_samples_per_iteration == 10
        assert DEFAULT.al_top_k_neighbours == 10

    def test_learning_rate(self):
        assert DEFAULT.learning_rate == pytest.approx(1e-3)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT.margin = 0.9  # type: ignore[misc]

    def test_override(self):
        cfg = VaerConfig(ir_dim=8)
        assert cfg.ir_dim == 8 and cfg.margin == 0.5


class TestJobs:
    """Every job module must expose main(spark, ...) and parse as Python."""

    @pytest.mark.parametrize(
        "name",
        [
            "table2_datasets",
            "table4_representation",
            "table5_matching",
            "table6_times",
            "table7_transfer",
            "table8_active",
        ],
    )
    def test_job_defines_main(self, name):
        spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        assert callable(mod.main)


class TestSession:
    """`build_session` sizes the driver unless spark-submit args do."""

    @staticmethod
    def _module():
        spec = importlib.util.spec_from_file_location("_session", JOBS / "_session.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    def test_half_of_memory_clamped(self):
        got = self._module().driver_memory()
        assert got.endswith("g") and 2 <= int(got[:-1]) <= 8
