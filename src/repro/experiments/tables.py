"""Reproduction harnesses for the paper's evaluation tables (§VI).

Each function returns a pandas DataFrame whose rows mirror the paper's
table layout. `TABLES` maps each table id to its harness, its results
file and the column groups it prints; `jobs/run_all.py` runs them and
writes `results/`, and EXPERIMENTS.md records their output next to the
paper's numbers.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.baselines import BASELINES
from repro.baselines.matchers import gather_pair_values
from repro.core.active import (
    ActiveLearner,
    OracleLabeler,
    evaluate_matcher,
    train_matcher,
)
from repro.core.config import VaerConfig
from repro.core.encode import irs_as_representations
from repro.core.lsh import topk_pairs
from repro.core.metrics import PRF, matcher_prf, topk_prf
from repro.core.pipeline import (
    RepresentationResult,
    domain_tensors,
    learn_representations,
)
from repro.core.vae import VAE
from repro.datasets.generate import ERDomainData, er_domain
from repro.datasets.spec import AttrSpec
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
K = 10  # neighbours per tuple in Tables IV and VII (§VI-B)
TRANSFER_SOURCE = "citations2"  # Table VII's source domain (§VI-D)
PAPER_BUDGET = 250  # Table VIII's label budget at sf=1


def _fit_full(
    rep: RepresentationResult,
    train_pdf: pd.DataFrame,
    test_pdf: pd.DataFrame,
    cfg: VaerConfig,
    seed: int,
) -> tuple[PRF, float]:
    """Train the Siamese matcher on every train pair; return its test
    P/R/F1 and the training seconds."""
    tensors = domain_tensors(rep)
    t0 = time.perf_counter()
    matcher = train_matcher(
        tensors,
        train_pdf,
        train_pdf["label"].to_numpy(),
        rep.vae.encoder.state(),
        cfg,
        seed=seed,
    )
    seconds = time.perf_counter() - t0
    return evaluate_matcher(matcher, tensors, test_pdf), seconds


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
) -> pd.DataFrame:
    """For each domain x IR kind: nearest-neighbour P/R/F1 on raw IRs vs
    on VAER latent representations (exact W2 top-``K``)."""
    rows = []
    for name in domains:
        data = er_domain(spark, name, sf=sf, seed=seed)
        test = data.test
        for kind in kinds:
            rep = learn_representations(data, kind=kind, cfg=cfg, seed=seed)
            raw = irs_as_representations(spark, domain_tensors(rep))
            prf_ir = topk_prf(topk_pairs(raw, k=K), test)
            prf_vaer = topk_prf(topk_pairs(rep.reps_df, k=K), test)
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
        train_pdf = data.train.toPandas()
        test_pdf = data.test.toPandas()
        prf, match_seconds = _fit_full(rep, train_pdf, test_pdf, cfg, seed)
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
def pad_to_arity(data: ERDomainData, arity: int) -> ERDomainData:
    """Restrict/pad a domain to a fixed arity (§VI-D protocol: take the
    first ``arity`` columns; pad narrower tables with empty columns)."""
    attrs = data.attrs[:arity]
    pad = [f"pad_{i}" for i in range(max(0, arity - len(attrs)))]

    def fix(df):
        out = df.select("id", *attrs)
        for p in pad:
            out = out.withColumn(p, F.lit(""))
        return out

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
    domains: tuple[str, ...] = tuple(d for d in ALL_DOMAINS if d != TRANSFER_SOURCE),
    cfg: VaerConfig = VaerConfig(),
) -> pd.DataFrame:
    """Train the representation model on `TRANSFER_SOURCE` (Citations 2),
    transfer it to every other domain, and compare recall@K and matching
    F1 against a locally trained representation model."""
    src = er_domain(spark, TRANSFER_SOURCE, sf=sf, seed=seed)
    arity = src.spec.arity
    transferred: VAE = learn_representations(src, kind="lsa", cfg=cfg, seed=seed).vae

    rows = []
    for name in domains:
        raw = er_domain(spark, name, sf=sf, seed=seed)
        data = pad_to_arity(raw, arity)
        train_pdf = data.train.toPandas()
        test_pdf = data.test.toPandas()
        out = {"domain": name}
        for mode, vae in (("local", None), ("transf", transferred)):
            rep = learn_representations(data, kind="lsa", cfg=cfg, seed=seed, vae=vae)
            prf = topk_prf(topk_pairs(rep.reps_df, k=K), data.test)
            mprf, _ = _fit_full(rep, train_pdf, test_pdf, cfg, seed)
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
) -> pd.DataFrame:
    """Bootstrap (Alg. 1) vs actively labeled (Alg. 2) vs full training.

    The paper's budget of `PAPER_BUDGET` labels at sf=1 scales with ``sf``,
    so the Training%% column keeps the paper's ratios at reduced scale.
    Training%% counts Algorithm 2's labels only; ``boot_queries`` is what
    Algorithm 1 asked the user first.
    """
    budget = max(24, int(round(PAPER_BUDGET * sf)))
    rows = []
    for name in domains:
        data = er_domain(spark, name, sf=sf, seed=seed)
        rep = learn_representations(data, kind="lsa", cfg=cfg, seed=seed)
        tensors = domain_tensors(rep)
        cand = topk_pairs(rep.reps_df, k=cfg.al_top_k_neighbours).toPandas()
        truth_pdf = data.truth.toPandas()
        test_pdf = data.test.toPandas()
        train_pdf = data.train.toPandas()

        labeler = OracleLabeler(truth_pdf)
        learner = ActiveLearner(tensors, labeler, rep.vae.encoder.state(), cfg, seed=seed)
        boot = learner.bootstrap(cand)
        boot_queries = labeler.n_queries
        prf_boot = evaluate_matcher(learner.matcher, tensors, test_pdf)

        learner.run(budget)
        prf_al = evaluate_matcher(learner.matcher, tensors, test_pdf)
        prf_full, _ = _fit_full(rep, train_pdf, test_pdf, cfg, seed)

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
                "boot_queries": boot_queries,
                "boot_fp_removed": boot.n_false_pos_removed,
                "boot_pos": len(boot.l_pos),
                "boot_neg": len(boot.l_neg),
            }
        )
    return pd.DataFrame(rows)


# --------------------------------------------------------------------------
# Registry — the tables `jobs/run_all.py` runs and writes to `results/`
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class Table:
    """A harness, the stem of its results file, and the column groups it
    prints as (title, column suffixes); no suffixes means every column."""

    harness: Callable[..., pd.DataFrame]
    stem: str
    groups: tuple[tuple[str, tuple[str, ...]], ...] = (("", ()),)

    def filename(self, sf: float) -> str:
        return f"{self.stem}_sf{sf:g}.txt"

    def render(self, df: pd.DataFrame) -> str:
        blocks = []
        for title, suffixes in self.groups:
            cols = [c for c in df.columns if not suffixes or c == "domain" or c.endswith(suffixes)]
            body = df[cols].round(2).to_string(index=False)
            blocks.append(f"# {title}\n{body}" if title else body)
        return "\n\n".join(blocks)


TABLES: dict[str, Table] = {
    "II": Table(table2_datasets, "table2"),
    "IV": Table(table4_representation, "table4"),
    # Tables V and VI come from one run.
    "V": Table(
        table5_table6_matching,
        "table5_6",
        (
            ("Table V (effectiveness)", ("_P", "_R", "_F1")),
            ("Table VI (training seconds, same run)", ("_s",)),
        ),
    ),
    "VII": Table(table7_transfer, "table7"),
    "VIII": Table(table8_active_learning, "table8"),
}
