"""Tests pinning the Table III hyperparameters and job wiring."""
from __future__ import annotations

import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.core.config import DEFAULT, VaerConfig
from repro.experiments.tables import TABLES, table2_datasets

ROOT = pathlib.Path(__file__).resolve().parents[1]
JOBS = ROOT / "jobs"


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


class TestRunAll:
    """`jobs/run_all.py` checks its arguments before Spark starts and
    writes each table under a provenance header."""

    @pytest.mark.parametrize(
        "argv, hash_seed",
        [
            (["--tables", "IX"], "0"),
            (["--tables", "II,iv"], "0"),
            (["--tables", "II"], None),
            (["--tables", "II"], "random"),
        ],
    )
    def test_rejects_before_spark(self, monkeypatch, tmp_path, argv, hash_seed):
        monkeypatch.syspath_prepend(str(JOBS))
        spec = importlib.util.spec_from_file_location("run_all", JOBS / "run_all.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)

        def no_spark(app):
            raise AssertionError("Spark started")

        monkeypatch.setattr(mod, "build_session", no_spark)
        if hash_seed is None:
            monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        else:
            monkeypatch.setenv("PYTHONHASHSEED", hash_seed)
        with pytest.raises(SystemExit) as exc:
            mod.main([*argv, "--out", str(tmp_path)])
        assert exc.value.code != 0
        assert not any(tmp_path.iterdir())

    def test_writes_table_with_provenance(self, spark, tmp_path):
        hash_seed = os.environ.get("PYTHONHASHSEED", "random")
        hash_seed = "0" if hash_seed == "random" else hash_seed
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]),
            PYSPARK_SUBMIT_ARGS="--master local[2] --driver-memory 1g "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false pyspark-shell",
        )
        argv = ["--tables", "II", "--sf", "0.02", "--domains", "restaurants"]
        subprocess.run(
            [sys.executable, str(JOBS / "run_all.py"), *argv, "--out", str(tmp_path)],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=600,
        )
        header, body = (tmp_path / "table2_sf0.02.txt").read_text().split("\n\n", 1)
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() if git.returncode == 0 else "unknown"
        assert f"# commit: {commit}" in header
        assert "# sf: 0.02, seed: 0, domains: restaurants\n" in header
        assert f"# PYTHONHASHSEED: {hash_seed}\n" in header
        assert "# wall: " in header
        assert re.search(r"^# peak RSS: \d+ MB \(driver process, so far\)$", header, re.M)
        want = table2_datasets(spark, sf=0.02, domains=("restaurants",))
        assert body == TABLES["II"].render(want) + "\n"
