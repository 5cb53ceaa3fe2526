"""Univariate Gaussian kernel density estimation (paper §V-B.3).

The AL diversity signal is a KDE over the distribution D+ of Euclidean
distances between *sampled* latent representations of known duplicates
(Eq. 6). Bandwidth follows Silverman's rule [44], with a floor so a
degenerate D+ (all-equal distances in the first iterations) still yields
a usable density.
"""
from __future__ import annotations

import numpy as np

from repro.core import config


class GaussianKDE:
    """Fit on 1-d samples; evaluate the density pointwise."""

    def __init__(self, samples: np.ndarray, min_bandwidth: float = 1e-3):
        samples = np.asarray(samples, dtype=np.float64).ravel()
        assert len(samples) > 0, "KDE requires at least one sample"
        self.samples = samples
        n = len(samples)
        std = float(samples.std())
        iqr = float(np.subtract(*np.percentile(samples, [75, 25])))
        # Silverman: 0.9 * min(std, IQR/1.34) * n^(-1/5)
        spread = min(std, iqr / 1.34) if iqr > 0 else std
        self.bandwidth = max(0.9 * spread * n ** (-0.2), min_bandwidth)

    def pdf(self, x: np.ndarray | float) -> np.ndarray:
        """Mean-of-kernels density estimate; broadcasts over ``x``.

        Evaluated a block of points at a time, each block against every
        sample: its two (points, samples) buffers stay within a small
        multiple of `config.BLOCK_BYTES`, and each point's kernel sum is
        the same whatever block it is in.
        """
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        h = self.bandwidth
        out = np.empty(len(x))
        norm = 1.0 / (len(self.samples) * h * np.sqrt(2 * np.pi))
        step = config.block_rows(self.samples.nbytes)
        for start in range(0, len(x), step):
            z = np.subtract(x[start : start + step, None], self.samples)
            z /= h
            k = np.multiply(-0.5, z)
            k *= z
            np.exp(k, out=k)
            out[start : start + step] = norm * k.sum(axis=1)
        return out
