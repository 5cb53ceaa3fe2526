"""BERT-sim IRs: a deterministic, corpus-independent sentence encoder.

Stands in for the paper's pre-trained BERT (DESIGN.md §2). Properties we
must preserve for VAER:

  1. *fixed* — the same value maps to the same vector in every domain
     (this is what makes the representation model transferable);
  2. *morphology-aware* — near-identical strings embed nearby (BERT's
     WordPiece gives this; character n-grams give it more directly);
  3. *no training on the current corpus*.

Implementation: hash character 3-/4-grams and word unigrams into two
fixed Gaussian codebooks (seeded once, never trained), sum the code
vectors, L2-normalise. The codebooks are regenerated from the seed, so
nothing is stored.
"""
from __future__ import annotations

import zlib
from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.ir.tokenize import distinct_values

_SEED = 20210406  # fixed forever: the "pre-training"
_VOCAB = 8192


@lru_cache(maxsize=8)
def _codebooks(dim: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(_SEED)
    char_cb = rng.normal(0, 1.0 / np.sqrt(dim), size=(_VOCAB, dim))
    word_cb = rng.normal(0, 1.0 / np.sqrt(dim), size=(_VOCAB, dim))
    return char_cb, word_cb


def _bucket(s: str) -> int:
    return zlib.crc32(s.encode("utf-8")) % _VOCAB


@lru_cache(maxsize=8)
def _terms(dim: int) -> np.ndarray:
    """The char codebook over twice the word codebook: the row that each
    n-gram (``[0, _VOCAB)``) or word (``[_VOCAB, 2 * _VOCAB)``) adds."""
    char_cb, word_cb = _codebooks(dim)
    return np.concatenate([char_cb, 2.0 * word_cb])


class _Rows(dict):
    """Term -> its row in `_terms`, hashed on first use."""

    def __init__(self, offset: int):
        super().__init__()
        self.offset = offset

    def __missing__(self, term: str) -> int:
        row = self[term] = self.offset + _bucket(term)
        return row


def encode_values(values: list[str | None], dim: int) -> np.ndarray:
    """Vectorise a batch of attribute values; rows are L2-normalised
    (zero rows for empty/missing values).

    A value's vector is the sum, in order, of its char 3-grams' and
    4-grams' codes and twice its words' codes; each distinct n-gram and
    word is hashed once per call.
    """
    terms = _terms(dim)
    grams, words = _Rows(0), _Rows(_VOCAB)
    out = np.zeros((len(values), dim))
    for i, v in enumerate(values):
        if v:
            text = " ".join(str(v).lower().split())
            padded = f" {text} "
            rows = [grams[padded[j : j + n]] for n in (3, 4) for j in range(len(padded) - n + 1)]
            rows += [words[w] for w in text.split()]
            # An axis-0 reduce adds the rows one after another, as a loop would.
            out[i] = np.add.reduce(terms[rows], axis=0)
    # sqrt(x . x) is `np.linalg.norm` of a vector.
    norm = np.sqrt([x.dot(x) for x in out])
    nonzero = norm > 0
    out[nonzero] /= norm[nonzero, None]
    return out


def bert_irs(chunks: Iterable[np.ndarray], *, dim: int) -> np.ndarray:
    """Per-value IRs of the (tuples, arity) string chunks: float32
    (values, dim), values row-major; each distinct value is encoded once."""
    distinct, codes = distinct_values(chunks)
    return encode_values(distinct, dim).astype(np.float32)[codes.ravel()]
