"""Regenerate the paper's tables in one SparkSession.

    PYTHONHASHSEED=0 python jobs/run_all.py --sf 0.25 --seed 0 [--tables IV,VIII]

Runs the chosen harnesses of `repro.experiments.tables.TABLES` (all of
them by default), prints each table and writes it to
``<out>/<stem>_sf<sf>.txt`` under a ``#`` header that names the command,
the commit, sf, seed, domains, ``PYTHONHASHSEED``, the table's wall
time and the driver process's peak resident memory so far (``ru_maxrss``,
in MB). The generated data depend on the hash seed, so it must be fixed.
"""
from __future__ import annotations

import os
import pathlib
import resource
import shlex
import subprocess
import sys
import time

from _session import build_session, common_args, parse_domains

from repro.experiments.tables import TABLES

ROOT = pathlib.Path(__file__).resolve().parents[1]


def parse_args(argv: list[str]):
    """Parse and check the arguments; exits before Spark starts on an
    unknown table id or an unfixed hash seed."""
    p = common_args("Regenerate the paper's tables")
    p.add_argument(
        "--tables",
        default=",".join(TABLES),
        help=f"comma-separated table ids out of {','.join(TABLES)} (default: all)",
    )
    p.add_argument(
        "--out", type=pathlib.Path, default=ROOT / "results", help="output directory"
    )
    args = p.parse_args(argv)
    args.tables = [t for t in args.tables.split(",") if t]
    unknown = [t for t in args.tables if t not in TABLES]
    if unknown:
        p.error(f"unknown table id {','.join(unknown)}; choose from {','.join(TABLES)}")
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        p.error("set PYTHONHASHSEED to an integer: the generated data depend on it")
    return args


def revision() -> str:
    """``git rev-parse HEAD``, flagged dirty when the checkout has changes."""

    def git(*a: str) -> str:
        return subprocess.run(
            ["git", *a], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head, dirty = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return f"{head} ({'dirty' if dirty else 'clean'})"


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    domains = parse_domains(args.domains)
    header = [
        f"command: {shlex.join(['python', 'jobs/run_all.py', *argv])}",
        f"commit: {revision()}",
        f"sf: {args.sf:g}, seed: {args.seed}, domains: {','.join(domains or ['all'])}",
        f"PYTHONHASHSEED: {os.environ['PYTHONHASHSEED']}",
    ]
    kw = dict(sf=args.sf, seed=args.seed, **({"domains": domains} if domains else {}))
    args.out.mkdir(parents=True, exist_ok=True)
    spark = build_session("run_all")
    for tid in args.tables:
        table = TABLES[tid]
        t0 = time.perf_counter()
        df = table.harness(spark, **kw)
        wall = f"wall: {time.perf_counter() - t0:.1f} s (Table {tid})"
        # ru_maxrss is in KiB on Linux.
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rss = f"peak RSS: {peak:.0f} MB (driver process, so far)"
        text = "".join(f"# {h}\n" for h in [*header, wall, rss]) + "\n" + table.render(df) + "\n"
        (args.out / table.filename(args.sf)).write_text(text)
        print(text, flush=True)


if __name__ == "__main__":
    main()
