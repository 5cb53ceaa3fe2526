"""Benchmark entry point: one workload at one seed, in a fresh process.

    python3 perfbench/run.py --workload match-citations1 --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout. It starts `worker.py` in a new
Python process whose ``PYTHONHASHSEED`` equals ``--seed`` (the data
generator's output depends on the hash seed, see BENCHMARK.json), with
its own Spark scratch directory under ``.bench_tmp/``, which is removed
afterwards. It then hashes the generated tables once more under another
hash seed, to report whether they depend on it (informational only).

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the timed repetitions, and ``metrics``
holds the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). The full record, spans included, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.

A run whose worker raises, is killed or fails a check is reported as
failed, never dropped. Exit status 2 means the checkout lacks the
program; 1 means the worker did not finish.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEADLINE_S = 175.0  # the whole run, probe and clean-up included
PROBE_S = 30.0


def child_env(seed: int, scratch: Path) -> dict[str, str]:
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True)
    submit = [
        "--master", f"local[{len(os.sched_getaffinity(0))}]",
        "--driver-memory", "2g",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", f"spark.sql.warehouse.dir={scratch / 'warehouse'}",
        "--driver-java-options", f"-Djava.io.tmpdir={tmp}",
        "pyspark-shell",
    ]
    # BLAS threads stay at the library default (2 for this OpenBLAS build).
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env.update(
        PYTHONHASHSEED=str(seed),
        # Spark's Python workers unpickle the program's functions.
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
        PYSPARK_PYTHON=sys.executable,
        PYSPARK_DRIVER_PYTHON=sys.executable,
        PYSPARK_SUBMIT_ARGS=shlex.join(submit),
        # Read by jobs/_session.build_session. 8 rather than its default of
        # 64: the cached IR frame keeps the shuffle's partition count, and at
        # 64 the per-task cost of every mapInPandas pass over it made one
        # active-stocks run take 85-97 s instead of about 60 s on 4 vCPUs.
        SPARK_SHUFFLE_PARTITIONS="8",
        SPARK_LOCAL_DIRS=str(scratch / "spark-local"),
        TMPDIR=str(tmp),
    )
    return env


def session_pids(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``. Spark's Python worker
    daemon moves to a process group of its own but stays in the session."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            pids.append(int(stat.parent.name))
    return pids


def kill_session(sid: int) -> None:
    for pid in session_pids(sid):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def run_child(args: list[str], env: dict[str, str], timeout: float) -> tuple[int | None, str]:
    """Run ``worker.py`` in a session of its own; kill the whole session
    (Spark's JVM and Python workers included) on timeout, and wait until
    every member has ended. Returns (exit code or None if killed, stderr tail)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, cwd=ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, err = proc.communicate(timeout=max(1.0, timeout))
        code: int | None = proc.returncode
    except subprocess.TimeoutExpired:
        kill_session(proc.pid)
        _, err = proc.communicate()
        code = None
    # Spark's JVM, and then its Python workers, exit once the worker's pipes
    # close; give them a moment, then kill whatever of the session is left.
    end = time.monotonic() + 15
    while session_pids(proc.pid) and time.monotonic() < end:
        if time.monotonic() > end - 10:
            kill_session(proc.pid)
        time.sleep(0.2)
    return code, "\n".join(err.splitlines()[-30:])


def summarise(rec: dict, trace: bool, spec: dict) -> dict:
    reps = rec.get("reps", [])
    failed = sum(1 for r in reps if r["errors"])
    attempted = len(reps)
    if rec.get("setup_error") or not reps:
        attempted, failed = max(1, attempted), max(1, failed)
    prints = {r["fingerprint"] for r in reps if not r["errors"]}
    correct = failed == 0 and len(prints) == 1
    metrics: dict = {}
    if correct:
        values = rec["layers"] if trace else {
            "setup_s": rec["setup"]["setup_s"],
            "wall_s": statistics.median(r["timings"]["wall_s"] for r in reps),
            "first_matcher_s": statistics.median(r["timings"]["first_matcher_s"] for r in reps),
            "py_peak_rss_mb": rec["py_peak_rss_mb"],
        }
        # Names and units come from BENCHMARK.json; the figures must match it.
        named = spec["per_layer" if trace else "end_to_end"]
        if {m["name"] for m in named} != values.keys():
            raise RuntimeError("measured figures differ from the metrics BENCHMARK.json names")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    p = argparse.ArgumentParser(description="VAER benchmark: one workload at one seed.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sf", type=float, help="scale factor override (smoke test)")
    a = p.parse_args()
    start = time.monotonic()
    if not (ROOT / "src" / "repro" / "core" / "pipeline.py").is_file() or not (
        ROOT / "jobs" / "_session.py"
    ).is_file():
        print(f"{ROOT} holds no VAER checkout (src/repro, jobs/_session.py)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not 0 <= a.seed < 2**32:
        print("--seed must be in [0, 2**32) to serve as PYTHONHASHSEED", file=sys.stderr)
        return 2

    tag = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    scratch = ROOT / ".bench_tmp" / f"{tag}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    common += ["--sf", str(a.sf)] if a.sf is not None else []
    rec: dict = {}
    code, err = None, ""
    try:
        shutil.rmtree(scratch, ignore_errors=True)
        env = child_env(a.seed, scratch)
        result = scratch / "result.json"
        code, err = run_child(
            [*common, "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--out", str(result)],
            env, DEADLINE_S - PROBE_S - (time.monotonic() - start),
        )
        rec = json.loads(result.read_text()) if code == 0 and result.is_file() else {}
        if rec:
            probe = scratch / "probe.json"
            env["PYTHONHASHSEED"] = str((a.seed + 1) % 2**32)
            pcode, _ = run_child([*common, "--digest-only", "--out", str(probe)], env,
                                 DEADLINE_S - (time.monotonic() - start))
            if pcode == 0:
                other = json.loads(probe.read_text())["data_digest"]
                rec["hash_seed_sensitive"] = other != rec["data_digest"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not rec:
        rec = {"worker_exit": code, "worker_stderr": err, "reps": []}
    summary = summarise(rec, bool(a.trace), spec)
    rec["summary"] = summary
    (out_dir / f"{tag}.json").write_text(json.dumps(rec, indent=1, default=float))

    for r in rec["reps"]:
        print(f"# rep fingerprint={r['fingerprint']} timings={r['timings']}")
        for e in r["errors"]:
            print(f"# CHECK FAILED: {e.strip()}")
    if rec.get("setup_error"):
        print(f"# SET-UP FAILED: {rec['setup_error'].strip()}")
    if "worker_exit" in rec:
        print(f"# WORKER FAILED (exit {code}):\n{err}")
    print(f"# data_digest={rec.get('data_digest')} "
          f"hash_seed_sensitive={rec.get('hash_seed_sensitive')} "
          f"host_steal_s={rec.get('host_steal_s')}")
    print(f"# settings={json.dumps(rec.get('settings'))}")
    print(json.dumps(summary))
    return 0 if "worker_exit" not in rec else 1


if __name__ == "__main__":
    sys.exit(main())
