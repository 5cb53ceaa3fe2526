"""One benchmark run of one workload, in the fresh process `run.py` starts.

Not meant to be started by hand: `run.py` sets the hash seed, Spark's
scratch directories and the module path first, then reads the JSON this
writes to ``--out``.

Set-up builds the Spark session once and repeats the data preparation
(warm-up action, generation, collecting the labelled pairs) `SETUP_REPS`
times; active-stocks then learns its representations once. The timed
section is repeated until ``--seconds`` of it have run; each repetition
is checked and fingerprinted. A traced run (``--trace 1``) does the same
set-up and one repetition with the layer wrappers of `layers.install`
in place, and reports per-layer figures instead. It records spans for
the last data preparation only, so each set-up figure covers one pass,
as the median in ``setup_s`` does.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import pandas as pd  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from jobs._session import build_session  # noqa: E402
from repro.core import active, lsh, metrics, pipeline  # noqa: E402
from repro.core.config import VaerConfig  # noqa: E402
from repro.datasets.generate import er_domain, er_domain_pandas  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

perf = time.perf_counter

SETUP_REPS = 3
# Algorithm 2 rounds that active-stocks times after bootstrap.
AL_ROUNDS = 1


def warm_up(spark) -> None:
    """One small Arrow + Python-worker action, so the first timed
    ``mapInPandas`` does not pay for starting the workers."""

    def part(it):
        for pdf in it:
            yield pdf.assign(y=np.sqrt(pdf["id"].to_numpy(dtype=float)))

    n = spark.sparkContext.defaultParallelism
    spark.range(0, 4096, numPartitions=n).mapInPandas(part, "id long, y double").toPandas()


@dataclass
class State:
    """What set-up hands to the timed section."""

    data: object
    train: pd.DataFrame
    test: pd.DataFrame
    truth: pd.DataFrame
    rep: object = None
    tensors: object = None
    ids: dict = field(default_factory=dict)
    digest: str = ""


@dataclass
class Rep:
    """One timed repetition: timings, observed work, checks."""

    timings: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    parts: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return checks.fingerprint(self.parts)


def prepare(spark, t, domain: str, sf: float, seed: int) -> State:
    with t.span("spark.warmup"):
        warm_up(spark)
    with t.span("datasets.generate"):
        data = er_domain(spark, domain, sf=sf, seed=seed)
        train, test, truth = (f.toPandas() for f in (data.train, data.test, data.truth))
    return State(data=data, train=train, test=test, truth=truth)


def learn(st: State, cfg, seed: int) -> None:
    st.rep = pipeline.learn_representations(st.data, kind="lsa", cfg=cfg, seed=seed)
    st.tensors = pipeline.domain_tensors(st.rep)


def match_rep(spark, t, st: State, cfg, seed: int) -> Rep:
    """match-citations1: representations -> tensors -> full fit -> test F1."""
    r = Rep()
    t0 = perf()
    learn(st, cfg, seed)
    tl = perf()
    y = st.train["label"].to_numpy()
    m = active.train_matcher(st.tensors, st.train, y, st.rep.vae.encoder.state(), cfg, seed=seed)
    t1 = perf()
    prf = active.evaluate_matcher(m, st.tensors, st.test)
    t2 = perf()
    st.rep.irs_df.unpersist()
    r.timings = {"wall_s": t2 - t0, "first_matcher_s": t1 - t0,
                 "learn_s": tl - t0, "fit_s": t1 - tl}
    n_rows = sum(len(v) for v in st.tensors.ids.values())
    r.work = {"match_f1": prf.f1}
    r.parts = {"data": st.digest, "train": len(st.train), "test": len(st.test), "rows": n_rows}
    checks.check_unit_interval(r.errors, "match_f1", prf.f1)
    if n_rows != len(st.ids["a"]) + len(st.ids["b"]):
        r.errors.append(f"domain_tensors holds {n_rows} rows, tables {len(st.ids['a'])}+{len(st.ids['b'])}")
    return r


def active_rep(spark, t, st: State, cfg, seed: int) -> Rep:
    """active-stocks: top-k blocking -> Algorithm 1 -> `AL_ROUNDS` x Algorithm 2."""
    r = Rep()
    t0 = perf()
    with t.span("lsh.topk"):
        cand = lsh.topk_pairs(st.rep.reps_df, k=cfg.al_top_k_neighbours).toPandas()
    tk = perf()
    labeler = active.OracleLabeler(st.truth)
    learner = active.ActiveLearner(st.tensors, labeler, st.rep.vae.encoder.state(), cfg, seed=seed)
    boot = learner.bootstrap(cand)
    t1 = perf()
    boot_state = {
        "l_pos": len(learner.l_pos), "l_neg": len(learner.l_neg), "pool": len(learner.pool),
        "removed": boot.n_false_pos_removed, "queries": labeler.n_queries,
    }
    step_s, after = [], []
    for _ in range(AL_ROUNDS):
        ts = perf()
        labelled = learner.step()
        step_s.append(perf() - ts)
        after.append({
            "l_pos": len(learner.l_pos), "l_neg": len(learner.l_neg),
            "pool": len(learner.pool), "labeled": labelled,
        })
    t2 = perf()
    r.timings = {"wall_s": t2 - t0, "first_matcher_s": t1 - t0, "topk_s": tk - t0,
                 "bootstrap_s": t1 - tk, "rounds_s": step_s}

    # Quality and checks, outside the timed section.
    al = active.evaluate_matcher(learner.matcher, st.tensors, st.test)
    with t.span("metrics.topk_prf"):
        prf = metrics.topk_prf(spark.createDataFrame(cand[["id_a", "id_b"]]), st.data.test)
    pairs = set(zip(cand["id_a"].tolist(), cand["id_b"].tolist()))
    truth = set(zip(st.truth["id_a"].tolist(), st.truth["id_b"].tolist()))
    test_pos = st.test[st.test["label"] == 1]
    test_hit = sum((a, b) in pairs for a, b in zip(test_pos["id_a"], test_pos["id_b"]))
    found = len(pairs & truth)
    labelled = sum(a["labeled"] for a in after)
    r.work = {
        "candidates": len(cand), "pool": boot_state["pool"],
        "l_pos": len(learner.l_pos), "l_neg": len(learner.l_neg),
        "oracle_queries": labeler.n_queries,
        "pos_hit_rate": (len(learner.l_pos) - boot_state["l_pos"]) / labelled if labelled else 0.0,
        "round_s": statistics.median(step_s) if step_s else 0.0,
        "al_f1": al.f1, "recall_at_10": prf.recall,
        "dup_recall": found / len(truth), "cand_precision": found / len(cand),
    }
    r.parts = {
        "data": st.digest, "candidates": len(cand), "pool": boot_state["pool"],
        "labels": [(boot_state["l_pos"], boot_state["l_neg"])]
        + [(a["l_pos"], a["l_neg"]) for a in after],
    }
    checks.check_candidates(r.errors, cand, st.ids["a"], st.ids["b"], cfg.al_top_k_neighbours)
    checks.check_label_accounting(
        r.errors, n_candidates=len(cand), max_pool=learner.max_pool, n_pos=15,
        boot=boot_state, rounds=after, oracle_queries=labeler.n_queries,
    )
    for name in ("al_f1", "recall_at_10", "dup_recall", "cand_precision"):
        checks.check_unit_interval(r.errors, name, r.work[name])
    expect = test_hit / len(test_pos) if len(test_pos) else 0.0
    if abs(prf.recall - expect) > 1e-12:
        r.errors.append(f"topk_prf recall {prf.recall} != {expect} recounted from candidates")
    return r


# Both workloads use LSA IRs and the paper's Table III dimensions
# (`VaerConfig()`); the scale factors keep one run inside the time the
# benchmark allows (see BENCHMARK.json and CHANGES.md).
WORKLOADS = {
    "match-citations1": {"domain": "citations1", "sf": 0.1, "timed": match_rep},
    "active-stocks": {"domain": "stocks", "sf": 0.02, "timed": active_rep},
}


def steal_s() -> float:
    """CPU time the host took from this machine's virtual CPUs so far."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def jvm_hwm_mb(spark) -> float:
    """Peak resident memory of the Spark driver JVM."""
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def settings(spark) -> dict:
    """Thread, version and Spark settings the figures depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    conf = spark.sparkContext.getConf()
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "pandas": pd.__version__, "pyspark": spark.version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpus": len(os.sched_getaffinity(0)),
        "master": spark.sparkContext.master,
        "driver_memory": conf.get("spark.driver.memory", ""),
        "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
        "arrow": spark.conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "broadcast_threshold": spark.conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }


def run(args) -> dict:
    spec = WORKLOADS[args.workload]
    sf = args.sf if args.sf is not None else spec["sf"]
    timed = spec["timed"]
    cfg = VaerConfig()
    out: dict = {"workload": args.workload, "seed": args.seed, "sf": sf,
                 "reps": [], "setup_error": None}

    steal0 = steal_s()
    t0 = perf()
    spark = build_session(f"perfbench-{args.workload}")
    session_s = perf() - t0
    t = Tracer(spark, f"{args.workload}-{args.seed}") if args.trace else NullTracer()
    if args.trace:
        t.record("spark.session", t0, t0 + session_s)
    try:
        out["settings"] = settings(spark)
        frames = er_domain_pandas(spec["domain"], sf=sf, seed=args.seed)
        out["data_digest"] = checks.frames_digest(frames)
        ids = {k: frames[k]["id"].to_numpy() for k in ("a", "b")}

        def set_up() -> tuple[State, list[float], float]:
            prep = []
            for i in range(SETUP_REPS):
                ts = perf()
                st = prepare(spark, t if i == SETUP_REPS - 1 else NullTracer(),
                             spec["domain"], sf, args.seed)
                prep.append(perf() - ts)
            st.ids, st.digest = ids, out["data_digest"]
            t.count("datasets.rows", sum(len(f) for f in frames.values()))
            ts = perf()
            if timed is active_rep:
                learn(st, cfg, args.seed)
            return st, prep, perf() - ts

        with t.installed(layers.install) if args.trace else contextlib.nullcontext():
            try:
                st, prep, upstream_s = set_up()
            except Exception:
                out["setup_error"] = traceback.format_exc()
                return out
            out["setup"] = {"session_s": session_s, "prepare_s": prep, "upstream_s": upstream_s,
                            "setup_s": session_s + statistics.median(prep) + upstream_s}
            # A traced run times one repetition, the first after set-up, as
            # the untraced runs' first repetition is.
            measured = 0.0
            while not out["reps"] or (measured < args.seconds and not args.trace):
                try:
                    rep = timed(spark, t, st, cfg, args.seed)
                except Exception:  # a failed repetition is reported, not dropped
                    rep = Rep(errors=[traceback.format_exc()])
                out["reps"].append(rep)
                if rep.errors:
                    break
                measured += rep.timings["wall_s"]
        if args.trace and not out["reps"][0].errors:
            rep = out["reps"][0]
            out["layers"] = layers.layer_metrics(t, rep.work, rep.timings["wall_s"], jvm_hwm_mb(spark))
            out["layer_moves"] = layers.PER_LAYER
            out["trace"] = t.dump()
        if st.rep is not None:
            st.rep.irs_df.unpersist()
    finally:
        spark.stop()
        out["host_steal_s"] = steal_s() - steal0
        out["py_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["reps"] = [
            {"timings": r.timings, "work": r.work, "parts": r.parts, "errors": r.errors,
             "fingerprint": r.fingerprint}
            for r in out["reps"]
        ]
    return out


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sf", type=float, default=None)
    p.add_argument("--digest-only", action="store_true",
                   help="only hash the generated tables (for the hash-seed probe)")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    if args.digest_only:
        spec = WORKLOADS[args.workload]
        sf = args.sf if args.sf is not None else spec["sf"]
        res = {"data_digest": checks.frames_digest(er_domain_pandas(spec["domain"], sf=sf, seed=args.seed))}
    else:
        res = run(args)
    args.out.write_text(json.dumps(res, default=float))


if __name__ == "__main__":
    main()
