"""The three baseline matchers, each a feature extractor + MLP classifier.

Width and schedule per system follow each original's cost character
(DeepMatcher trains the heaviest model for the longest; DITTO fine-tunes
a wide network; DeepER is the lightest of the three but still end-to-end
over raw embeddings) — so the Table VI cost *ordering* emerges from real
compute, not constants.
"""
from __future__ import annotations

import numpy as np

from repro.baselines.features import attention_features, deeper_features, ditto_features
from repro.nn.mlp import MLPClassifier

Values = list[list[str | None]]


class _FeatureMatcher:
    """Common scaffolding: featurise pairs, train an MLP, predict."""

    name = "base"
    hidden: tuple[int, ...] = (64,)
    epochs = 50
    embed_dim = 100

    def __init__(self, attrs: list[str], seed: int = 0):
        self.attrs = attrs
        self.seed = seed
        self.mlp: MLPClassifier | None = None

    def features(self, vals_s: Values, vals_t: Values) -> np.ndarray:
        raise NotImplementedError

    def fit(self, vals_s: Values, vals_t: Values, y: np.ndarray) -> None:
        X = self.features(vals_s, vals_t)
        self.mlp = MLPClassifier(X.shape[1], self.hidden, seed=self.seed)
        self.mlp.fit(X, y, epochs=self.epochs, seed=self.seed)

    def predict_proba(self, vals_s: Values, vals_t: Values) -> np.ndarray:
        assert self.mlp is not None, "fit() before predict_proba()"
        return self.mlp.predict_proba(self.features(vals_s, vals_t))


class DeepERLite(_FeatureMatcher):
    """DeepER [2] with averaging composition over word embeddings."""

    name = "deeper"
    hidden = (256, 64)
    epochs = 100

    def features(self, vals_s: Values, vals_t: Values) -> np.ndarray:
        return deeper_features(vals_s, vals_t, self.embed_dim)


class DeepMatcherLite(_FeatureMatcher):
    """DeepMatcher [3] hybrid: attention summariser + widest classifier."""

    name = "deepmatcher"
    hidden = (512, 256, 64)
    epochs = 150

    def features(self, vals_s: Values, vals_t: Values) -> np.ndarray:
        return attention_features(vals_s, vals_t, self.embed_dim)


class DittoLite(_FeatureMatcher):
    """DITTO [18]: serialised pair over a fixed subword vocabulary."""

    name = "ditto"
    hidden = (256, 64)
    epochs = 60
    embed_dim = 1024  # per-side serialisation vector (x3 in the features)

    def features(self, vals_s: Values, vals_t: Values) -> np.ndarray:
        return ditto_features(vals_s, vals_t, self.attrs, self.embed_dim)


BASELINES = {
    "deeper": DeepERLite,
    "deepmatcher": DeepMatcherLite,
    "ditto": DittoLite,
}


def gather_pair_values(
    table_pdf_a, table_pdf_b, pairs_pdf, attrs: list[str]
) -> tuple[Values, Values]:
    """Look up raw attribute strings for (id_a, id_b) pairs.

    ``table_pdf_*`` are the pandas forms of the entity tables (``id`` +
    attr columns); missing values come back as None.
    """
    a_idx = table_pdf_a.set_index("id")
    b_idx = table_pdf_b.set_index("id")

    def rows(idx, ids):
        sub = idx.loc[ids, attrs]
        return [
            [None if v is None or v != v else str(v) for v in row]
            for row in sub.itertuples(index=False, name=None)
        ]

    return (
        rows(a_idx, pairs_pdf["id_a"].tolist()),
        rows(b_idx, pairs_pdf["id_b"].tolist()),
    )
