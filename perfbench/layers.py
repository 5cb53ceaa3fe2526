"""Which calls the traced run wraps, and the per-layer metrics they yield.

`install` replaces module and class attributes of the program with
span-recording wrappers (see `spans.Tracer.patch`); it is the only place
that knows the program's internal call structure. `layer_metrics` turns
the spans and counters of one traced run into the per-layer figures
listed in `PER_LAYER`, which names the end-to-end metric and workload
each should move.
"""
from __future__ import annotations

import math

import numpy as np
from spans import LAYERS, Tracer

import repro.core.active as active
import repro.core.kde as kde
import repro.core.pipeline as pipeline
import repro.core.siamese as siamese
import repro.core.vae as vae

M, S = "match-citations1", "active-stocks"

# name -> (end-to-end metric it should move, on which workload). Units and
# directions are in BENCHMARK.json. A layer's figures are 0 on a workload
# that never calls it.
PER_LAYER: dict[str, tuple[str, str]] = {
    "spark.session_start_s": ("setup_s", "both"),
    "spark.warmup_s": ("setup_s", "both"),
    "spark.jobs": ("wall_s, first_matcher_s", "both"),
    "spark.stages": ("wall_s, first_matcher_s", "both"),
    "spark.tasks": ("wall_s, first_matcher_s", "both"),
    "spark.jvm_hwm_mb": ("setup_s", "both"),
    "datasets.generate_s": ("setup_s", "both"),
    "datasets.rows": ("setup_s", "both"),
    "ir.build_s": (f"wall_s on {M}; setup_s on {S}", "both"),
    "ir.values": (f"wall_s on {M}; setup_s on {S}", "both"),
    "ir.spark_tasks": (f"wall_s on {M}; setup_s on {S}", "both"),
    "vae.collect_s": (f"wall_s on {M}; setup_s on {S}", "both"),
    "vae.fit_s": (f"wall_s on {M}; setup_s on {S}", "both"),
    "vae.samples": (f"wall_s on {M}; setup_s on {S}", "both"),
    "vae.steps": (f"wall_s on {M}; setup_s on {S}", "both"),
    "vae.step_ms": (f"wall_s on {M}; setup_s on {S}", "both"),
    "encode.collect_s": (f"wall_s on {M}; setup_s on {S}", "both"),
    "encode.rows": (f"wall_s on {M}; setup_s on {S}", "both"),
    "encode.spark_tasks": (f"wall_s on {M}; setup_s on {S}", "both"),
    "lsh.topk_s": ("first_matcher_s, wall_s", S),
    "lsh.candidates": ("first_matcher_s, wall_s", S),
    "lsh.spark_tasks": ("first_matcher_s, wall_s", S),
    "lsh.dup_recall": ("quality of the AL pool", S),
    "lsh.cand_precision": ("quality of the AL pool", S),
    "lsh.recall_at_10": ("quality of the AL pool", S),
    "siamese.fit_s": (f"wall_s, first_matcher_s on {M}; active.round_s on {S}", "both"),
    "siamese.fits": ("wall_s", "both"),
    "siamese.steps": ("wall_s", "both"),
    "siamese.step_ms": ("wall_s", "both"),
    "siamese.train_pairs": ("wall_s", "both"),
    "siamese.score_s": ("active.round_s", S),
    "siamese.scored_pairs": ("active.round_s", S),
    "siamese.score_us_per_pair": ("active.round_s", S),
    "siamese.encoder_rows": ("active.round_s", S),
    "active.bootstrap_s": ("first_matcher_s", S),
    "active.rounds": ("wall_s", S),
    "active.round_s": ("wall_s", S),
    "active.retrain_s": ("active.round_s, first_matcher_s", S),
    "active.gather_s": ("active.round_s", S),
    "active.select_s": ("active.round_s", S),
    "active.pool_pairs": ("active.round_s", S),
    "active.l_pos": ("active.al_f1", S),
    "active.l_neg": ("active.al_f1", S),
    "active.oracle_queries": ("active.al_f1", S),
    "active.pos_hit_rate": ("active.al_f1", S),
    "active.al_f1": ("quality after the AL rounds", S),
    "kde.fit_s": ("active.round_s", S),
    "kde.pdf_s": ("active.round_s", S),
    "kde.points": ("active.round_s", S),
    "kde.samples": ("active.round_s", S),
    "kde.bandwidth": ("active picks", S),
    "metrics.eval_s": ("wall_s", M),
    "metrics.match_f1": ("quality of the full matcher", M),
    **{f"{layer}.self_s": ("wall_s", "both") for layer in LAYERS},
    "trace.wall_s": ("none: minus the untraced runs' wall_s, it is the tracing overhead", "both"),
    "trace.overhead_s": ("none: time inside the tracer's own bookkeeping", "both"),
    "trace.spans": ("none", "both"),
}


def install(t: Tracer) -> None:
    """Wrap the program's layer boundaries (see the module docstring)."""

    def build_irs(fn):
        def traced(a, b, attrs, **kw):
            with t.span("ir.build"):
                df = fn(a, b, attrs, **kw).cache()
                n = df.count()  # build_irs is lazy: force it inside the span
            t.count("ir.values", n * len(attrs))
            return df

        return traced

    def domain_tensors(fn):
        def traced(rep):
            with t.span("encode.collect"):
                out = fn(rep)
            t.count("encode.rows", sum(len(v) for v in out.ids.values()))
            return out

        return traced

    def vae_fit(fn):
        def traced(self, X, *, epochs=30, batch_size=256, **kw):
            with t.span("vae.fit"):
                out = fn(self, X, epochs=epochs, batch_size=batch_size, **kw)
            t.count("vae.samples", len(X))
            t.count("vae.steps", epochs * math.ceil(len(X) / batch_size))
            return out

        return traced

    def siamese_fit(fn):
        def traced(self, Xs, Xt, y, *, epochs=40, batch_size=64, **kw):
            t.count("siamese.fits")
            t.count("siamese.train_pairs", len(y))
            t.count("siamese.steps", epochs * math.ceil(len(y) / batch_size))
            return fn(self, Xs, Xt, y, epochs=epochs, batch_size=batch_size, **kw)

        return traced

    def predict_proba(fn):
        def traced(self, Xs, Xt, **kw):
            t.count("siamese.encoder_rows", 2 * Xs.shape[0] * Xs.shape[1])
            return fn(self, Xs, Xt, **kw)

        return traced

    def predict_pairs(fn):
        def traced(matcher, tensors, pairs, **kw):
            t.count("siamese.scored_pairs", len(pairs))
            with t.span("siamese.score"):
                return fn(matcher, tensors, pairs, **kw)

        return traced

    def kde_init(fn):
        def traced(self, samples, *args, **kw):
            with t.span("kde.fit"):
                fn(self, samples, *args, **kw)
            t.gauges["kde.samples"] = len(self.samples)
            t.gauges["kde.bandwidth"] = self.bandwidth

        return traced

    def kde_pdf(fn):
        def traced(self, x):
            t.count("kde.points", np.size(x))
            with t.span("kde.pdf"):
                return fn(self, x)

        return traced

    t.wrap(pipeline, "learn_representations", "vae.learn")
    t.patch(pipeline, "build_irs", build_irs)
    t.patch(vae.VAE, "fit", vae_fit)
    t.patch(pipeline, "domain_tensors", domain_tensors)
    t.wrap(active, "train_matcher", "siamese.fit")
    t.patch(siamese.SiameseMatcher, "fit", siamese_fit)
    t.patch(siamese.SiameseMatcher, "predict_proba", predict_proba)
    t.patch(active, "predict_pairs", predict_pairs)
    t.wrap(active, "evaluate_matcher", "metrics.eval")
    t.wrap(active.DomainTensors, "pair_irs", "active.gather")
    t.wrap(active.DomainTensors, "pair_latents", "active.gather")
    t.wrap(active.OracleLabeler, "label", "active.label")
    t.wrap(active.ActiveLearner, "bootstrap", "active.bootstrap")
    t.wrap(active.ActiveLearner, "step", "active.step")
    t.wrap(active.ActiveLearner, "_retrain", "active.retrain")
    t.patch(kde.GaussianKDE, "__init__", kde_init)
    t.patch(kde.GaussianKDE, "pdf", kde_pdf)


def layer_metrics(t: Tracer, work: dict, wall_s: float, jvm_hwm_mb: float) -> dict[str, float]:
    """Per-layer figures of one traced run; ``work`` holds the counts the
    workload observed directly (candidates, pool, labels, quality)."""
    c, g = t.counters, t.gauges

    def secs(name: str) -> float:
        return t.totals(name)[0]

    def tasks(name: str) -> int:
        return t.totals(name)[1]

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    self_s = t.self_seconds()
    jobs, stages, n_tasks = t.spark_work()
    out = {
        "spark.session_start_s": secs("spark.session"),
        "spark.warmup_s": secs("spark.warmup"),
        "spark.jobs": jobs,
        "spark.stages": stages,
        "spark.tasks": n_tasks,
        "spark.jvm_hwm_mb": jvm_hwm_mb,
        "datasets.generate_s": secs("datasets.generate"),
        "datasets.rows": c["datasets.rows"],
        "ir.build_s": secs("ir.build"),
        "ir.values": c["ir.values"],
        "ir.spark_tasks": tasks("ir.build"),
        "vae.collect_s": t.self_seconds_of("vae.learn"),
        "vae.fit_s": secs("vae.fit"),
        "vae.samples": c["vae.samples"],
        "vae.steps": c["vae.steps"],
        "vae.step_ms": ratio(secs("vae.fit"), c["vae.steps"], 1e3),
        "encode.collect_s": secs("encode.collect"),
        "encode.rows": c["encode.rows"],
        "encode.spark_tasks": tasks("encode.collect"),
        "lsh.topk_s": secs("lsh.topk"),
        "lsh.candidates": work.get("candidates", 0),
        "lsh.spark_tasks": tasks("lsh.topk"),
        "lsh.dup_recall": work.get("dup_recall", 0.0),
        "lsh.cand_precision": work.get("cand_precision", 0.0),
        "lsh.recall_at_10": work.get("recall_at_10", 0.0),
        "siamese.fit_s": secs("siamese.fit"),
        "siamese.fits": c["siamese.fits"],
        "siamese.steps": c["siamese.steps"],
        "siamese.step_ms": ratio(secs("siamese.fit"), c["siamese.steps"], 1e3),
        "siamese.train_pairs": c["siamese.train_pairs"],
        "siamese.score_s": secs("siamese.score"),
        "siamese.scored_pairs": c["siamese.scored_pairs"],
        "siamese.score_us_per_pair": ratio(secs("siamese.score"), c["siamese.scored_pairs"], 1e6),
        "siamese.encoder_rows": c["siamese.encoder_rows"],
        "active.bootstrap_s": secs("active.bootstrap"),
        "active.rounds": sum(s.name == "active.step" for s in t.spans),
        "active.round_s": work.get("round_s", 0.0),
        "active.retrain_s": secs("active.retrain"),
        "active.gather_s": secs("active.gather"),
        "active.select_s": t.self_seconds_of("active.step"),
        "active.pool_pairs": work.get("pool", 0),
        "active.l_pos": work.get("l_pos", 0),
        "active.l_neg": work.get("l_neg", 0),
        "active.oracle_queries": work.get("oracle_queries", 0),
        "active.pos_hit_rate": work.get("pos_hit_rate", 0.0),
        "active.al_f1": work.get("al_f1", 0.0),
        "kde.fit_s": secs("kde.fit"),
        "kde.pdf_s": secs("kde.pdf"),
        "kde.points": c["kde.points"],
        "kde.samples": g.get("kde.samples", 0),
        "kde.bandwidth": g.get("kde.bandwidth", 0.0),
        "metrics.eval_s": secs("metrics.eval"),
        "metrics.match_f1": work.get("match_f1", 0.0),
        **{f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS},
        "trace.wall_s": wall_s,
        "trace.overhead_s": t.overhead_s,
        "trace.spans": len(t.spans),
    }
    if out.keys() != PER_LAYER.keys():
        raise RuntimeError("layer_metrics and PER_LAYER list different metrics")
    return out
