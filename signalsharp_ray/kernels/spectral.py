"""Spectral features: DFT coefficient magnitudes.

Reference-roadmap item (/root/reference/docs/docs/future-plans.md
"FFT features" under feature extraction). For the short per-series
vectors this engine feeds (daily/hourly rollup series, bounded by the
retention window), the O(n*k) direct DFT is both fast enough and —
unlike an FFT butterfly — reproducible bitwise in SQL: each re/im part
is an ASCENDING-i left fold of libm cos/sin terms, the exact shape of
DuckDB's list_sum(list_transform(...)) (the established house parity
pattern, see kernels/filters.py).

Per-series kernel (bucketed_map_groups contract shared with
kernels.pelt / kernels.smoothing).
"""

from __future__ import annotations

from math import cos, pi, sin, sqrt

import numpy as np


def dft_magnitudes(signal, k_max: int) -> np.ndarray:
    """Magnitude of DFT coefficients k = 1..k_max:
    |X_k| = sqrt((sum_i x_i cos(2 pi k i / n))^2 +
                 (sum_i x_i sin(2 pi k i / n))^2).

    Every term and both folds are transcribed op-for-op in the SQL
    oracle; math.cos/sin (libm) match DuckDB's, numpy's SIMD trig would
    not."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("dft_magnitudes expects a univariate series")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    n = x.size
    out = np.zeros(k_max, dtype=np.float64)
    if n == 0:
        return out
    for k in range(1, k_max + 1):
        re = 0.0
        im = 0.0
        for i in range(n):
            ang = 2.0 * pi * k * i / n
            re += x[i] * cos(ang)
            im += x[i] * sin(ang)
        out[k - 1] = sqrt(re * re + im * im)
    return out
