"""Reproduction harnesses for the paper's evaluation tables (§VI).

Each function returns a pandas DataFrame whose rows mirror the paper's
table layout; `jobs/` wraps them for spark-submit, `benchmarks/` times
them, and EXPERIMENTS.md records their output next to the paper's
numbers.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.baselines import BASELINES
from repro.core.active import (
    ActiveLearner,
    OracleLabeler,
    evaluate_matcher,
    train_matcher,
)
from repro.core.config import VaerConfig
from repro.core.encode import irs_as_representations
from repro.core.lsh import topk_pairs
from repro.core.metrics import matcher_prf, topk_prf
from repro.core.pipeline import domain_tensors, learn_representations
from repro.core.vae import VAE
from repro.datasets.generate import ERDomainData, er_domain
from repro.ir import IR_KINDS

ALL_DOMAINS = (
    "restaurants",
    "citations1",
    "citations2",
    "cosmetics",
    "software",
    "music",
    "beer",
    "stocks",
    "crm",
)


# --------------------------------------------------------------------------
# Table II — dataset statistics
# --------------------------------------------------------------------------
def table2_datasets(
    spark: SparkSession, *, sf: float = 1.0, seed: int = 0,
    domains: tuple[str, ...] = ALL_DOMAINS,
) -> pd.DataFrame:
    """Materialise every domain and report its actual statistics."""
    rows = []
    for name in domains:
        d = er_domain(spark, name, sf=sf, seed=seed)
        rows.append(
            {
                "domain": name,
                "card_a": d.a.count(),
                "card_b": d.b.count(),
                "arity": d.spec.arity,
                "train": d.train.count(),
                "test": d.test.count(),
                "clean": d.spec.clean,
            }
        )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Table IV — representation learning P/R/F1 @ K=10 (raw IR vs VAER)
# --------------------------------------------------------------------------
def table4_representation(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    seed: int = 0,
    domains: tuple[str, ...] = ALL_DOMAINS,
    kinds: tuple[str, ...] = IR_KINDS,
    cfg: VaerConfig = VaerConfig(),
    k: int = 10,
) -> pd.DataFrame:
    """For each domain x IR kind: nearest-neighbour P/R/F1 on raw IRs vs
    on VAER latent representations (exact W2 top-k)."""
    rows = []
    for name in domains:
        data = er_domain(spark, name, sf=sf, seed=seed)
        test = data.test
        for kind in kinds:
            rep = learn_representations(data, kind=kind, cfg=cfg, seed=seed)
            raw = irs_as_representations(spark, domain_tensors(rep))
            prf_ir = topk_prf(topk_pairs(raw, k=k), test)
            prf_vaer = topk_prf(topk_pairs(rep.reps_df, k=k), test)
            rows.append(
                {
                    "domain": name,
                    "ir_kind": kind,
                    "P_ir": prf_ir.precision,
                    "R_ir": prf_ir.recall,
                    "F1_ir": prf_ir.f1,
                    "P_vaer": prf_vaer.precision,
                    "R_vaer": prf_vaer.recall,
                    "F1_vaer": prf_vaer.f1,
                }
            )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Tables V + VI — supervised matching effectiveness and training times
# --------------------------------------------------------------------------
def table5_table6_matching(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    seed: int = 0,
    domains: tuple[str, ...] = ALL_DOMAINS,
    cfg: VaerConfig = VaerConfig(),
    baselines: tuple[str, ...] = ("deeper", "deepmatcher", "ditto"),
) -> pd.DataFrame:
    """Train VAER^LSA and the baseline lites on each domain's train pairs;
    report P/R/F1 on test pairs (Table V) and wall-clock training
    seconds (Table VI: VAER repr. and match times listed separately)."""
    rows = []
    for name in domains:
        data = er_domain(spark, name, sf=sf, seed=seed)
        rep = learn_representations(data, kind="lsa", cfg=cfg, seed=seed)
        tensors = domain_tensors(rep)
        train_pdf = data.train.toPandas()
        test_pdf = data.test.toPandas()

        t0 = time.perf_counter()
        matcher = train_matcher(
            tensors,
            train_pdf,
            train_pdf["label"].to_numpy(),
            rep.vae.encoder.state(),
            cfg,
            seed=seed,
        )
        match_seconds = time.perf_counter() - t0
        prf = evaluate_matcher(matcher, tensors, test_pdf)
        row = {
            "domain": name,
            "vaer_P": prf.precision,
            "vaer_R": prf.recall,
            "vaer_F1": prf.f1,
            "vaer_repr_s": rep.ir_seconds + rep.train_seconds,
            "vaer_match_s": match_seconds,
        }

        a_pdf = data.a.toPandas()
        b_pdf = data.b.toPandas()
        from repro.baselines.matchers import gather_pair_values

        tr_s, tr_t = gather_pair_values(a_pdf, b_pdf, train_pdf, data.attrs)
        te_s, te_t = gather_pair_values(a_pdf, b_pdf, test_pdf, data.attrs)
        y_tr = train_pdf["label"].to_numpy()
        y_te = test_pdf["label"].to_numpy()
        for bname in baselines:
            model = BASELINES[bname](data.attrs, seed=seed)
            t0 = time.perf_counter()
            model.fit(tr_s, tr_t, y_tr)
            secs = time.perf_counter() - t0
            bprf = matcher_prf(y_te, model.predict_proba(te_s, te_t))
            row.update(
                {
                    f"{bname}_P": bprf.precision,
                    f"{bname}_R": bprf.recall,
                    f"{bname}_F1": bprf.f1,
                    f"{bname}_s": secs,
                }
            )
        rows.append(row)
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Table VII — representation model transferability
# --------------------------------------------------------------------------
def pad_to_arity(
    spark: SparkSession, data: ERDomainData, arity: int
) -> ERDomainData:
    """Restrict/pad a domain to a fixed arity (§VI-D protocol: take the
    first ``arity`` columns; pad narrower tables with empty columns)."""
    attrs = data.attrs[:arity]
    pad = [f"pad_{i}" for i in range(max(0, arity - len(attrs)))]

    def fix(df):
        out = df.select("id", *attrs)
        for p in pad:
            out = out.withColumn(p, F.lit(""))
        return out

    from dataclasses import replace
    from repro.datasets.spec import AttrSpec

    schema = tuple(
        [s for s in data.spec.schema[:arity]]
        + [AttrSpec(p, "category", ("",)) for p in pad]
    )
    spec = replace(data.spec, arity=arity, schema=schema)
    return ERDomainData(
        name=data.name,
        spec=spec,
        a=fix(data.a),
        b=fix(data.b),
        train=data.train,
        test=data.test,
        truth=data.truth,
    )


def table7_transfer(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    seed: int = 0,
    source: str = "citations2",
    domains: tuple[str, ...] = tuple(d for d in ALL_DOMAINS if d != "citations2"),
    cfg: VaerConfig = VaerConfig(),
    k: int = 10,
) -> pd.DataFrame:
    """Train the representation model on ``source`` (paper: Citations 2),
    transfer it to every other domain, and compare recall@K and matching
    F1 against a locally trained representation model."""
    src = er_domain(spark, source, sf=sf, seed=seed)
    arity = src.spec.arity
    transferred: VAE = learn_representations(src, kind="lsa", cfg=cfg, seed=seed).vae

    rows = []
    for name in domains:
        raw = er_domain(spark, name, sf=sf, seed=seed)
        data = pad_to_arity(spark, raw, arity)
        out = {"domain": name}
        for mode, vae in (("local", None), ("transf", transferred)):
            rep = learn_representations(data, kind="lsa", cfg=cfg, seed=seed, vae=vae)
            prf = topk_prf(topk_pairs(rep.reps_df, k=k), data.test)
            tensors = domain_tensors(rep)
            train_pdf = data.train.toPandas()
            matcher = train_matcher(
                tensors,
                train_pdf,
                train_pdf["label"].to_numpy(),
                rep.vae.encoder.state(),
                cfg,
                seed=seed,
            )
            mprf = evaluate_matcher(matcher, tensors, data.test.toPandas())
            out[f"recall_{mode}"] = prf.recall
            out[f"f1_{mode}"] = mprf.f1
        out["recall_delta"] = out["recall_transf"] - out["recall_local"]
        out["f1_delta"] = out["f1_transf"] - out["f1_local"]
        rows.append(out)
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Table VIII — active learning
# --------------------------------------------------------------------------
def table8_active_learning(
    spark: SparkSession,
    *,
    sf: float = 1.0,
    seed: int = 0,
    domains: tuple[str, ...] = ALL_DOMAINS,
    cfg: VaerConfig = VaerConfig(),
    label_budget: int = 250,
) -> pd.DataFrame:
    """Bootstrap (Alg. 1) vs actively labeled (Alg. 2) vs full training.

    ``label_budget`` is the paper's 250 at sf=1; it scales with ``sf`` so
    the Training%% column keeps the paper's ratios at reduced scale.
    """
    budget = max(24, int(round(label_budget * sf)))
    rows = []
    for name in domains:
        data = er_domain(spark, name, sf=sf, seed=seed)
        rep = learn_representations(data, kind="lsa", cfg=cfg, seed=seed)
        tensors = domain_tensors(rep)
        cand = topk_pairs(rep.reps_df, k=cfg.al_top_k_neighbours).toPandas()
        truth_pdf = data.truth.toPandas()
        test_pdf = data.test.toPandas()
        train_pdf = data.train.toPandas()
        enc_state = rep.vae.encoder.state()

        labeler = OracleLabeler(truth_pdf)
        learner = ActiveLearner(tensors, labeler, enc_state, cfg, seed=seed)
        boot = learner.bootstrap(cand)
        prf_boot = evaluate_matcher(learner.matcher, tensors, test_pdf)

        learner.run(budget)
        prf_al = evaluate_matcher(learner.matcher, tensors, test_pdf)

        full = train_matcher(
            tensors,
            train_pdf,
            train_pdf["label"].to_numpy(),
            enc_state,
            cfg,
            seed=seed,
        )
        prf_full = evaluate_matcher(full, tensors, test_pdf)

        rows.append(
            {
                "domain": name,
                "boot_P": prf_boot.precision,
                "boot_R": prf_boot.recall,
                "boot_F1": prf_boot.f1,
                "al_P": prf_al.precision,
                "al_R": prf_al.recall,
                "al_F1": prf_al.f1,
                "full_P": prf_full.precision,
                "full_R": prf_full.recall,
                "full_F1": prf_full.f1,
                "f1_pct": prf_al.f1 / prf_full.f1 if prf_full.f1 else float("nan"),
                "training_pct": budget / len(train_pdf),
                "budget": budget,
                "boot_fp_removed": boot.n_false_pos_removed,
                "boot_pos": len(boot.l_pos),
                "boot_neg": len(boot.l_neg),
            }
        )
    return pd.DataFrame(rows)
