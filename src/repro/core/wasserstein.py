"""Squared 2-Wasserstein distance between diagonal Gaussians (paper Eq. 3).

For k-dimensional diagonal Gaussians p, q:

    W2^2(p, q) = sum_i (mu_i^p - mu_i^q)^2 + (sigma_i^p - sigma_i^q)^2

The paper's §V-A observation — W2^2 is the squared Euclidean distance of
means *plus* a non-negative sigma term, hence positively correlated with
Euclidean-on-means — is what licenses Euclidean LSH over mu vectors; a
property test pins it down.
"""
from __future__ import annotations

import numpy as np


def w2_squared(
    mu_p: np.ndarray, sigma_p: np.ndarray, mu_q: np.ndarray, sigma_q: np.ndarray
) -> np.ndarray:
    """W2^2 along the last axis; broadcasts over leading axes.

    Shapes ``(..., k)`` -> ``(...)``. ``sigma`` is the (positive) standard
    deviation diagonal, as produced by the variational encoder.
    """
    return w2_vector(mu_p, sigma_p, mu_q, sigma_q).sum(axis=-1)


def w2_vector(
    mu_p: np.ndarray,
    sigma_p: np.ndarray,
    mu_q: np.ndarray,
    sigma_q: np.ndarray,
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The per-dimension distance vector d = (mu^s-mu^t)^2 + (sig^s-sig^t)^2.

    This is the *Distance* layer of Figure 3: attribute-wise vectors that
    are concatenated and fed to the matching MLP. Shape-preserving; the
    result is written to ``out`` when it is given.
    """
    d = np.subtract(mu_p, mu_q, out=out)
    np.square(d, out=d)
    s = np.subtract(sigma_p, sigma_q)
    np.square(s, out=s)
    return np.add(d, s, out=d)


def euclidean_sq_means(
    mu_p: np.ndarray, mu_q: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distance of means — the LSH surrogate of §V-A and
    the sampled distance of Eq. 6 — along the last axis, in float64.

    The inputs are upcast before they are subtracted, so float32 means give
    the distance of their float64 values. ``out``, a float64 array of the
    inputs' broadcast shape (it may be one of them), receives the squared
    differences instead of a new array.
    """
    d = np.subtract(mu_p, mu_q, out=out, dtype=np.float64)
    np.square(d, out=d)
    return d.sum(axis=-1)
