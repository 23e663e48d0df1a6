"""Small statistics helpers for experiment reporting."""

from __future__ import annotations

import numpy as np

__all__ = ["mean_ci"]


def mean_ci(values, confidence: float = 0.95) -> tuple[float, float]:
    """Sample mean and half-width of its t confidence interval."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return 0.0, 0.0
    mean = float(arr.mean())
    if arr.size < 2 or np.allclose(arr, arr[0]):
        return mean, 0.0
    # scipy costs 0.9 s and ~100 MB to import: only this function pays
    from scipy import stats as sstats
    sem = sstats.sem(arr)
    half = float(sem * sstats.t.ppf((1 + confidence) / 2.0, arr.size - 1))
    return mean, half

