"""W2V IRs: Spark ML Word2Vec sentence embeddings (§III-B).

The paper averages *pre-trained* word embeddings per attribute value.
No pre-trained vectors ship offline, so the model is trained on the
union corpus of both tables (DESIGN.md §2): one sentence per attribute
value, in (table, id, attribute) order. The fit runs on one partition, so
the vectors are a function of the sentences and the seed; `pool` then
averages them per value on the driver as `Word2VecModel.transform` does.
"""
from __future__ import annotations

from typing import Iterable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark.ml.feature import Word2Vec, Word2VecModel
from pyspark.sql import SparkSession

from repro.ir.tokenize import distinct_values, tokens

# Attribute values with no tokens (missing data) still need a vector;
# a dedicated placeholder token keeps the pooling well-defined.
NULL_TOKEN = "__null__"
# Sentences a fit sees at most: the paper's pre-trained model is
# fixed-cost, so is ours.
_MAX_SENTENCES = 40_000


def fit_word2vec(sentences: list[list[str]], *, dim: int, seed: int) -> Word2VecModel:
    """Spark ML Word2Vec over ``sentences``, or over a uniform sample of
    ``_MAX_SENTENCES`` of them (kept in order) when there are more.

    Input and fit have one partition: a multi-partition fit merges its
    partitions' updates in task order, which varies from run to run.
    """
    if len(sentences) > _MAX_SENTENCES:
        keep = np.random.default_rng(seed).choice(len(sentences), _MAX_SENTENCES, replace=False)
        sentences = [sentences[i] for i in np.sort(keep)]
    frame = SparkSession.active().createDataFrame(
        pa.table({"tokens": pa.array(sentences, pa.list_(pa.string()))})
    )
    return Word2Vec(
        vectorSize=dim, minCount=1, seed=seed, inputCol="tokens", numPartitions=1
    ).fit(frame.coalesce(1))


def pool(model: Word2VecModel, sentences: list[list[str]]) -> np.ndarray:
    """float32 (sentences, dim): `Word2VecModel.transform` on the driver.

    Per sentence, its in-vocabulary token vectors are summed in float64 in
    token order and the sum is multiplied by 1 / its length; a token
    missing from the vocabulary adds nothing but counts in the length.
    Every sentence has at least one token.
    """
    vectors = model.getVectors().toArrow()  # a dense vector's struct holds all its values
    dim = model.getOrDefault("vectorSize")
    index = {w: i for i, w in enumerate(vectors.column("word").to_pylist())}
    values = pc.list_flatten(pc.struct_field(vectors.column("vector"), "values"))
    # The last row, zeros, stands for every missing token.
    V = np.concatenate([values.to_numpy().reshape(-1, dim), np.zeros((1, dim))])
    out = np.empty((len(sentences), dim), dtype=np.float32)
    for i, s in enumerate(sentences):
        # An axis-0 reduce adds the rows one after another, as transform does.
        out[i] = np.add.reduce(V[[index.get(t, len(index)) for t in s]], axis=0) * (1.0 / len(s))
    return out


def w2v_irs(chunks: Iterable[np.ndarray], *, dim: int, seed: int) -> np.ndarray:
    """Per-value W2V IRs of the (tuples, arity) string chunks: float32
    (values, dim), values row-major; each distinct value is tokenized and
    pooled once."""
    distinct, codes = distinct_values(chunks)
    sentences = [tokens(v) or [NULL_TOKEN] for v in distinct]
    model = fit_word2vec([sentences[c] for c in codes.ravel()], dim=dim, seed=seed)
    return pool(model, sentences)[codes.ravel()]
