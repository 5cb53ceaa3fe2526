"""Shared spark-submit session builder for the job entrypoints.

Mirrors the test fixture's configuration (Arrow on, broadcast joins off,
bounded shuffle partitions, UI off) so job results match test behaviour
and two jobs can run side by side without contending for the UI port.
"""
from __future__ import annotations

import argparse
import os
import shlex

from pyspark.sql import SparkSession


def driver_memory() -> str:
    """Driver heap when ``PYSPARK_SUBMIT_ARGS`` sets none: half the
    machine's memory, clamped to 2g..8g (the test suite's formula). The
    driver holds every IR and representation of a domain, so Spark's 1g
    default is too small at Table II sizes."""
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "2g"
    return f"{min(8, max(2, kib // 2097152))}g"


def build_session(app: str) -> SparkSession:
    builder = SparkSession.builder
    # Read when the JVM starts; an explicit --driver-memory wins.
    submit = shlex.split(os.environ.get("PYSPARK_SUBMIT_ARGS", ""))
    if not any(a.split("=")[0] == "--driver-memory" for a in submit):
        builder = builder.config("spark.driver.memory", driver_memory())
    s = (
        builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )
    s.sparkContext.setLogLevel("ERROR")
    return s


def common_args(description: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--sf", type=float, default=0.25, help="scale factor vs Table II")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--domains",
        type=str,
        default="",
        help="comma-separated domain subset (default: all nine)",
    )
    return p


def parse_domains(arg: str) -> tuple[str, ...] | None:
    return tuple(d for d in arg.split(",") if d) or None
