"""Brute-force histogram reference used only for verification.

Deliberately shares no code with histlayer.histogram: plain Python loops
over samples, classes, bins and pixels.
"""

from __future__ import annotations

import numpy as np


def hist_oracle(likelihood: np.ndarray, centers: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """Triple-nested-loop evaluation of the soft histogram.

    likelihood: (N, K, H, W) array; centers/slopes: (K, B) arrays.
    Returns (N, K*B) with layout index k*B + b. The loops walk `tolist()`
    copies, Python floats with the arrays' values, which is cheaper than
    indexing numpy scalars and rounds alike.
    """
    likelihood = np.asarray(likelihood, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    slopes = np.asarray(slopes, dtype=np.float64)
    n, k_classes, h, w = likelihood.shape
    k2, b_bins = centers.shape
    if k2 != k_classes or slopes.shape != centers.shape:
        raise ValueError(f"centers {centers.shape} and slopes {slopes.shape} must both be "
                         f"(K, B) with the likelihood's K={k_classes}")
    maps, mus, ss = likelihood.tolist(), centers.tolist(), slopes.tolist()
    out = np.zeros((n, k_classes * b_bins))
    for sample in range(n):
        for k in range(k_classes):
            for b in range(b_bins):
                mu = mus[k][b]
                s = ss[k][b]
                total = 0.0
                for row in maps[sample][k]:
                    for x in row:
                        vote = 1.0 - s * abs(x - mu)
                        if vote > 0.0:
                            total += vote
                out[sample, k * b_bins + b] = total / (h * w)
    return out
