"""Active learning in the latent space (paper §V, Algorithms 1 and 2).

Algorithm 1 (`al_bootstrap`) builds the initial pools from the W2
top-k candidate pairs: smallest-W2 pairs become L+, largest-W2 pairs
become L-, everything else is the unlabeled pool U. The paper notes
(Table VIII †) that some domains' bootstrap positives contained false
positives "that had to be manually removed" — the simulated user here is
`OracleLabeler`, which consults the generator's ground truth; removals
are counted and reported.

Algorithm 2 (`ActiveLearner.run`) iterates: train the Siamese matcher on
L, estimate the duplicate-distance density f+ by KDE over reparameterised
samples of L+ members (Eq. 6), then pick certain/uncertain
positives/negatives by combining prediction entropy (Eq. 5) with f+, ask
the labeler, and fold the answers back into L.

Both run over one table, the W2-sorted candidates: L+, L- and U are row
indices into it. Only the matcher changes between iterations, so U's
mean-Euclidean distances (Eq. 6's d) are computed once. Unlike the paper,
U is capped at ``max_pool`` pairs, a seeded uniform sample of the
unlabeled candidates (DESIGN.md §2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core import config
from repro.core.config import VaerConfig
from repro.core.kde import GaussianKDE
from repro.core.metrics import PRF, matcher_prf
from repro.core.siamese import SiameseMatcher
from repro.core.vae import encode_irs
from repro.core.wasserstein import euclidean_sq_means, w2_vector


@dataclass
class DomainTensors:
    """Driver-side tensor view of one domain: IRs + latent reps by table.

    ``irs[t]`` is (n_t, m, d) float32, the IRs as collected once by
    `pipeline.learn_representations`; ``mu[t]``/``sigma[t]`` are the
    (n_t, m*k) encodings of those same rows, in the encoder's float32.
    Ids are unique per table; `_rows` maps them to row indices.
    """

    ids: dict[str, np.ndarray]
    irs: dict[str, np.ndarray]
    mu: dict[str, np.ndarray]
    sigma: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        self._order = {t: np.argsort(a, kind="stable") for t, a in self.ids.items()}
        self._sorted = {t: a[self._order[t]] for t, a in self.ids.items()}

    @classmethod
    def from_rows(
        cls,
        ids: np.ndarray,
        tables: np.ndarray,
        irs: np.ndarray,
        mu: np.ndarray,
        sigma: np.ndarray,
    ) -> "DomainTensors":
        """Split row-aligned arrays over both tables, rows grouped by table
        (as `ir.ir_tensor` returns them), into per-table views."""
        names, first, count = np.unique(tables, return_index=True, return_counts=True)
        rows = {t: slice(f, f + c) for t, f, c in zip(names.tolist(), first, count)}
        if any((tables[r] != t).any() for t, r in rows.items()):
            raise ValueError("rows are not grouped by table")
        return cls(
            ids={t: ids[r] for t, r in rows.items()},
            irs={t: irs[r] for t, r in rows.items()},
            mu={t: mu[r] for t, r in rows.items()},
            sigma={t: sigma[r] for t, r in rows.items()},
        )

    # ---- pair gathers ---------------------------------------------------------
    def _rows(self, table: str, ids: np.ndarray) -> np.ndarray:
        """Row indices of ``ids`` in ``table``; KeyError on an unknown id."""
        ids = np.asarray(ids)
        keys = self._sorted[table]
        pos = np.searchsorted(keys, ids)
        found = pos < len(keys)
        found[found] = keys[pos[found]] == ids[found]
        if not found.all():
            raise KeyError(ids[~found][0].item())
        return self._order[table][pos].astype(np.int64, copy=False)

    def pair_irs(self, id_a: np.ndarray, id_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            self.irs["a"][self._rows("a", id_a)],
            self.irs["b"][self._rows("b", id_b)],
        )

    def pair_latents(
        self, id_a: np.ndarray, id_b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        ra, rb = self._rows("a", id_a), self._rows("b", id_b)
        return self.mu["a"][ra], self.sigma["a"][ra], self.mu["b"][rb], self.sigma["b"][rb]

    def pair_euclid(self, id_a: np.ndarray, id_b: np.ndarray) -> np.ndarray:
        """Euclidean distance of the pairs' means, in float64 (Eq. 6's d).

        Works a block of pairs at a time, sized by `config.BLOCK_BYTES`,
        so its memory beyond the result does not grow with the number of
        pairs; each pair's distance is the same whatever block it is in.
        """
        mu_a, mu_b = self.mu["a"], self.mu["b"]
        out = np.empty(len(id_a))
        step = config.block_rows(8 * mu_a.shape[1])
        for start in range(0, len(out), step):
            c = slice(start, start + step)
            ra, rb = self._rows("a", id_a[c]), self._rows("b", id_b[c])
            out[c] = euclidean_sq_means(mu_a[ra], mu_b[rb])
        return np.sqrt(out, out=out)


class OracleLabeler:
    """Simulated user: answers from the generator's ground-truth matches."""

    def __init__(self, truth_pdf: pd.DataFrame):
        self.truth = set(zip(truth_pdf["id_a"].tolist(), truth_pdf["id_b"].tolist()))
        self.n_queries = 0

    def label(self, id_a: np.ndarray, id_b: np.ndarray) -> np.ndarray:
        self.n_queries += len(id_a)
        return np.array(
            [1 if (int(a), int(b)) in self.truth else 0 for a, b in zip(id_a, id_b)],
            dtype=np.int64,
        )


@dataclass
class BootstrapResult:
    cand: pd.DataFrame  # (id_a, id_b, w2) sorted by W2; the arrays below index its rows
    l_pos: np.ndarray  # verified positives
    l_neg: np.ndarray
    unlabeled: np.ndarray
    n_false_pos_removed: int


def al_bootstrap(
    candidates: pd.DataFrame,
    labeler: OracleLabeler,
    *,
    n_pos: int = 15,
    n_neg: int = 15,
) -> BootstrapResult:
    """Algorithm 1 over a collected candidate pool (id_a, id_b, w2).

    L+ candidates are the ``n_pos`` smallest-W2 pairs; following the
    paper's † footnote, false positives among them are removed by the
    (simulated) user and counted. If *none* of the inspected candidates
    is a true positive, the scan extends just far enough to seed L+ with
    two — Algorithm 2 needs a non-empty L+ to estimate f+.
    Negatives are the ``n_neg`` largest-W2 pairs (true negatives kept).
    W2 ties are broken by (id_a, id_b), so the result does not depend on
    the order the candidates were collected in. Only the inspected pairs
    are labeled, so ``labeler.n_queries`` counts the user's effort.
    """
    cand = candidates.sort_values(["w2", "id_a", "id_b"]).reset_index(drop=True)
    ida, idb = cand["id_a"].to_numpy(), cand["id_b"].to_numpy()

    def ask(i: int) -> int:
        return labeler.label(ida[i : i + 1], idb[i : i + 1])[0]

    head = min(n_pos, len(cand))
    labels = labeler.label(ida[:head], idb[:head])
    pos = np.flatnonzero(labels == 1).tolist()
    i = head
    while len(pos) < 2 and i < len(cand):  # degenerate pool: extend
        if ask(i) == 1:
            pos.append(i)
        i += 1
    neg: list[int] = []
    for i in range(len(cand) - 1, -1, -1):
        if len(neg) >= n_neg or i in pos:
            break
        if ask(i) == 0:
            neg.append(i)
    unlabeled = np.ones(len(cand), dtype=bool)
    unlabeled[pos + neg] = False
    return BootstrapResult(
        cand=cand,
        l_pos=np.array(pos, dtype=np.int64),
        l_neg=np.array(neg, dtype=np.int64),
        unlabeled=np.flatnonzero(unlabeled),
        n_false_pos_removed=head - int(labels.sum()),
    )


def train_matcher(
    tensors: DomainTensors,
    pairs: pd.DataFrame,
    labels: np.ndarray,
    encoder_state: dict[str, np.ndarray],
    cfg: VaerConfig,
    *,
    seed: int = 0,
) -> SiameseMatcher:
    """Train a fresh Siamese matcher (encoder re-initialised from the
    representation model, as the paper does per AL iteration).

    Epochs scale so that every training run sees at least
    ``cfg.match_min_steps`` optimiser steps regardless of labeled-set
    size (bounded by ``cfg.match_max_epochs``)."""
    Xs, Xt = tensors.pair_irs(pairs["id_a"].to_numpy(), pairs["id_b"].to_numpy())
    m = SiameseMatcher(
        encoder_state,
        arity=Xs.shape[1],
        hidden=cfg.match_hidden_dim,
        margin=cfg.margin,
        seed=seed,
    )
    steps_per_epoch = max(1, -(-len(pairs) // cfg.match_batch_size))
    epochs = min(
        cfg.match_max_epochs,
        max(cfg.match_epochs, -(-cfg.match_min_steps // steps_per_epoch)),
    )
    m.fit(
        Xs,
        Xt,
        labels,
        epochs=epochs,
        batch_size=cfg.match_batch_size,
        lr=cfg.learning_rate,
        seed=seed,
    )
    return m


def predict_pairs(
    matcher: SiameseMatcher,
    tensors: DomainTensors,
    pairs: pd.DataFrame,
    *,
    chunk: int = 8192,
) -> np.ndarray:
    """P(match) over a pair frame.

    Each distinct tuple is encoded once (`encode_irs`). The MLP scores
    ``chunk`` pairs per call, from one input buffer that the Distance
    layer fills in place a block of pairs at a time (`config.BLOCK_BYTES`).
    Beyond the tuples' encodings and one score per pair, the memory used
    does not grow with the number of pairs.
    """
    ua, ia = np.unique(tensors._rows("a", pairs["id_a"].to_numpy()), return_inverse=True)
    ub, ib = np.unique(tensors._rows("b", pairs["id_b"].to_numpy()), return_inverse=True)
    state = matcher.encoder.state()
    mu_a, sg_a = encode_irs(state, tensors.irs["a"][ua])
    mu_b, sg_b = encode_irs(state, tensors.irs["b"][ub])
    n = len(pairs)
    out = np.empty(n)
    buf = np.empty((min(chunk, n), mu_a.shape[1]), mu_a.dtype)
    step = config.block_rows(buf.strides[0])
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        x = buf[: stop - start]
        for s in range(start, stop, step):
            e = min(s + step, stop)
            a, b = ia[s:e], ib[s:e]
            w2_vector(mu_a[a], sg_a[a], mu_b[b], sg_b[b], out=x[s - start : e - start])
        out[start:stop] = matcher.mlp.forward(x)
    return out


def evaluate_matcher(
    matcher: SiameseMatcher, tensors: DomainTensors, test: pd.DataFrame
) -> PRF:
    prob = predict_pairs(matcher, tensors, test)
    return matcher_prf(test["label"].to_numpy(), prob)


class ActiveLearner:
    """Algorithm 2: balanced, informative, diverse sampling. ``l_pos``,
    ``l_neg`` and ``pool`` (U) index the rows of ``cand``; ``dist[i]`` is
    Eq. 6's d of pair ``pool[i]``."""

    def __init__(
        self,
        tensors: DomainTensors,
        labeler: OracleLabeler,
        encoder_state: dict[str, np.ndarray],
        cfg: VaerConfig = VaerConfig(),
        *,
        seed: int = 0,
        max_pool: int = 60_000,
    ):
        self.tensors = tensors
        self.labeler = labeler
        self.encoder_state = encoder_state
        self.cfg = cfg
        self.seed = seed
        self.max_pool = max_pool
        self.rng = np.random.default_rng(seed)
        self.cand: pd.DataFrame | None = None
        self.l_pos: np.ndarray | None = None
        self.l_neg: np.ndarray | None = None
        self.pool: np.ndarray | None = None
        self.dist: np.ndarray | None = None
        self.matcher: SiameseMatcher | None = None
        self.kde: GaussianKDE | None = None

    # ---- setup ------------------------------------------------------------
    def bootstrap(self, candidates: pd.DataFrame, *, n_pos: int = 15, n_neg: int = 15) -> BootstrapResult:
        res = al_bootstrap(candidates, self.labeler, n_pos=n_pos, n_neg=n_neg)
        self.cand = res.cand[["id_a", "id_b"]]
        self.l_pos, self.l_neg, pool = res.l_pos, res.l_neg, res.unlabeled
        if len(pool) > self.max_pool:
            # The draw of `DataFrame.sample(n=max_pool, random_state=seed)`.
            draw = np.random.RandomState(self.seed).choice(len(pool), self.max_pool, replace=False)
            pool = pool[draw]
        self.pool = pool
        self.dist = self.tensors.pair_euclid(*self.cand.take(pool).to_numpy().T)
        self._retrain()
        return res

    def _retrain(self) -> None:
        pairs = self.cand.take(np.concatenate([self.l_pos, self.l_neg]))
        labels = np.concatenate(
            [np.ones(len(self.l_pos)), np.zeros(len(self.l_neg))]
        )
        self.matcher = train_matcher(
            self.tensors, pairs, labels, self.encoder_state, self.cfg, seed=self.seed
        )
        self.kde = self._kde_from_l_pos()

    def _kde_from_l_pos(self) -> GaussianKDE:
        """Eq. 6: sample z around each L+ member's latent Gaussian and KDE
        the resulting Euclidean distances."""
        ida, idb = self.cand.take(self.l_pos).to_numpy().T
        mu_s, sg_s, mu_t, sg_t = self.tensors.pair_latents(ida, idb)
        # Bound total KDE samples so pdf evaluation over a large unlabeled
        # pool stays O(pool * 4000) regardless of how much L+ grows.
        n = min(self.cfg.kde_samples_per_pair, max(1, 4000 // len(ida)))
        # z = mu + sigma * eps, formed in the buffer eps is drawn into.
        zs = self.rng.standard_normal((n, *mu_s.shape))
        zs *= sg_s
        zs += mu_s
        zt = self.rng.standard_normal((n, *mu_t.shape))
        zt *= sg_t
        zt += mu_t
        d_plus = np.sqrt(euclidean_sq_means(zs, zt, out=zs)).ravel()
        return GaussianKDE(d_plus)

    # ---- one Algorithm 2 iteration -----------------------------------------
    def step(self, n: int | None = None) -> int:
        """Select and label ``n`` pairs (default `al_samples_per_iteration`);
        returns #labeled."""
        assert self.pool is not None and self.matcher is not None
        if not len(self.pool):
            return 0
        eps = 1e-9
        u = self.cand.take(self.pool)
        p = predict_pairs(self.matcher, self.tensors, u)
        p_c = np.clip(p, eps, 1 - eps)
        # Eq. 5: entropy of the predicted class probability.
        entropy = -(p_c * np.log(p_c) + (1 - p_c) * np.log(1 - p_c))
        f_plus = self.kde.pdf(self.dist) + eps
        is_pos = p > 0.5

        spi = self.cfg.al_samples_per_iteration if n is None else n
        base, rem = divmod(spi, 4)
        quotas = [base + (1 if i < rem else 0) for i in range(4)]
        scores = [
            (is_pos, entropy / f_plus),          # certain positives (line 6)
            (~is_pos, entropy * f_plus),         # certain negatives (line 7)
            (is_pos, f_plus / (entropy + eps)),  # uncertain positives (line 8)
            (~is_pos, 1.0 / ((entropy + eps) * f_plus)),  # uncertain negatives (line 9)
        ]
        chosen: list[int] = []
        taken = np.zeros(len(self.pool), dtype=bool)
        for (mask, score), q in zip(scores, quotas):
            avail = np.where(mask & ~taken)[0]
            if not len(avail):  # class partition empty: fall back to whole pool
                avail = np.where(~taken)[0]
            if not len(avail):
                continue
            pick = avail[np.argsort(score[avail], kind="stable")[:q]]
            chosen.extend(int(i) for i in pick)
            taken[pick] = True

        sel = self.pool[chosen]
        labels = self.labeler.label(*u.to_numpy()[chosen].T)
        self.l_pos = np.concatenate([self.l_pos, sel[labels == 1]])
        self.l_neg = np.concatenate([self.l_neg, sel[labels == 0]])
        self.pool, self.dist = self.pool[~taken], self.dist[~taken]
        self._retrain()
        return len(sel)

    def run(self, budget: int) -> SiameseMatcher:
        """Label ``budget`` pairs in Algorithm 2 iterations (fewer if U runs
        out); the last iteration labels only what the budget has left."""
        used = 0
        while used < budget:
            got = self.step(min(self.cfg.al_samples_per_iteration, budget - used))
            if got == 0:
                break
            used += got
        return self.matcher
