"""Fourier (trigonometric) resampling.

Reference-roadmap item (/root/reference/docs/docs/future-plans.md
"Fourier resampling"). Band-limited upsampling of an even-length real
series by the real DFT synthesis formula (public; equivalent to
zero-padding the spectrum):

  y(p) = (1/n) [ Re_0
                 + 2 * sum_{k=1}^{n/2-1} (Re_k cos(2 pi k p / n)
                                          + Im_k sin(2 pi k p / n))
                 + Re_{n/2} cos(pi p) ]

with Re_k = sum_i x_i cos(2 pi k i / n), Im_k = sum_i x_i sin(...).
At integer p this reproduces x_p exactly (DFT identity — unit-tested);
between samples it is the unique band-limited interpolant.

Parity design (house SQL-oracle contract): libm cos/sin only, every
sum an ascending-index left fold (== DuckDB list_sum over an ordered
list_transform), the outer k-sum folded ascending as well, shared
final division by n. O(n^2 * factor) direct evaluation — the series
this engine feeds it (hour-of-day / day-of-week profiles, daily rollup
series) are bounded by the calendar, not the data volume.

Per-series kernel (bucketed_map_groups contract).
"""

from __future__ import annotations

from math import cos, pi, sin

import numpy as np


def fourier_resample(signal, factor: int = 2) -> np.ndarray:
    """Upsample an even-length series by an integer factor; output j
    corresponds to input position j / factor, length n * factor (the
    series is treated as periodic, so the output covers one period)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("fourier_resample expects a univariate series")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    n = x.size
    if n == 0:
        return x.copy()
    if n % 2 != 0:
        raise ValueError("fourier_resample requires an even-length series")
    half = n // 2
    re = np.zeros(half + 1, dtype=np.float64)
    im = np.zeros(half + 1, dtype=np.float64)
    for k in range(half + 1):
        r = 0.0
        s = 0.0
        for i in range(n):
            ang = 2.0 * pi * k * i / n
            r += x[i] * cos(ang)
            s += x[i] * sin(ang)
        re[k] = r
        im[k] = s
    n_out = n * factor
    out = np.zeros(n_out, dtype=np.float64)
    for j in range(n_out):
        p = float(j) / float(factor)
        # the inner k-sum is folded SEPARATELY, then added between the DC
        # and Nyquist terms — ((re0 + inner) + nyq) — because that is the
        # exact association of the oracle's `res[1] + list_sum(...) +
        # res[n/2+1]*cos(pi*p)` (IEEE addition is not associative)
        inner = 0.0
        for k in range(1, half):
            ang = 2.0 * pi * k * p / n
            inner += 2.0 * (re[k] * cos(ang) + im[k] * sin(ang))
        out[j] = (re[0] + inner + re[half] * cos(pi * p)) / n
    return out
