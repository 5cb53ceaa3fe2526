"""Output checks and the work fingerprint of one benchmark repetition.

Every check appends a message to a list instead of raising, so one run
reports all of its failures; a repetition with any message counts as
failed.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd


def frames_digest(frames: dict[str, pd.DataFrame]) -> str:
    """SHA-256 over the generated a/b/train/test tables, in that order."""
    h = hashlib.sha256()
    for key in ("a", "b", "train", "test"):
        df = frames[key]
        h.update(key.encode())
        h.update(",".join(df.columns).encode())
        h.update(pd.util.hash_pandas_object(df, index=False).to_numpy().tobytes())
    return h.hexdigest()


def fingerprint(parts: dict) -> str:
    """Short stable hash of the work record (data digest, counts, labels)."""
    text = repr(sorted(parts.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_unit_interval(errors: list[str], name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:  # NaN fails the comparison too
        errors.append(f"{name}={value} outside [0, 1]")


def check_candidates(
    errors: list[str],
    cand: pd.DataFrame,
    ids_a: np.ndarray,
    ids_b: np.ndarray,
    k: int,
) -> None:
    """Top-k candidates: unique pairs, known ids, finite non-negative W2,
    and every tuple of either side in at least min(k, |other side|) pairs."""
    if cand.duplicated(["id_a", "id_b"]).any():
        errors.append("candidate pairs are not unique")
    if not cand["id_a"].isin(ids_a).all() or not cand["id_b"].isin(ids_b).all():
        errors.append("candidate ids outside tables A/B")
    w2 = cand["w2"].to_numpy()
    if not np.isfinite(w2).all() or (w2 < 0).any():
        errors.append("candidate w2 not finite and >= 0")
    for col, ids, other in (("id_a", ids_a, ids_b), ("id_b", ids_b, ids_a)):
        per_id = cand[col].value_counts().reindex(ids, fill_value=0)
        need = min(k, len(other))
        if (per_id < need).any():
            errors.append(
                f"{int((per_id < need).sum())} {col} values in fewer than {need} pairs"
            )


def check_label_accounting(
    errors: list[str],
    *,
    n_candidates: int,
    max_pool: int,
    n_pos: int,
    boot: dict,
    rounds: list[dict],
    oracle_queries: int,
) -> None:
    """Algorithm 1/2 bookkeeping.

    ``boot`` holds L+, L-, pool, removed and oracle queries right after
    bootstrap; ``rounds`` holds L+, L-, pool and labelled after each step.
    """
    l_pos, l_neg, pool = boot["l_pos"], boot["l_neg"], boot["pool"]
    if boot["removed"] > n_pos:
        errors.append(f"n_false_pos_removed={boot['removed']} > {n_pos}")
    if pool != min(max_pool, n_candidates - l_pos - l_neg):
        errors.append(f"bootstrap pool {pool} != min({max_pool}, candidates - L)")
    inspected = boot["queries"]
    if not (l_pos + l_neg + boot["removed"] <= inspected <= n_candidates):
        errors.append(f"bootstrap inspected {inspected} pairs for {l_pos}+{l_neg} labels")
    total = l_pos + l_neg + pool
    for i, r in enumerate(rounds):
        if r["l_pos"] + r["l_neg"] + r["pool"] != total:
            errors.append(f"round {i}: L+ + L- + pool != {total}")
    labelled = sum(r["labeled"] for r in rounds)
    if oracle_queries != inspected + labelled:
        errors.append(
            f"oracle queries {oracle_queries} != inspected {inspected} + labelled {labelled}"
        )
