"""Gaussian smoothing and Butterworth low-pass filters.

Both are reference-roadmap algorithms
(/root/reference/docs/docs/future-plans.md: "Gaussian smoothing",
"Butterworth filter") the reference has not implemented; they extend the
smoothing family (kernels/smoothing.py — SMA/EMA/WMA/SavGol mirroring
/root/reference/SignalSharp/Smoothing/) with the standard public
formulations.

Float-parity design (the house SQL-oracle contract):
- gaussian_smooth computes kernel weights with math.exp (libm ==
  DuckDB exp bitwise; numpy's SIMD exp diverges in the last ulps) and
  accumulates the windowed weighted sum as an ASCENDING-j fold — the
  same left-fold DuckDB's list_sum(list_transform(...)) performs — so
  every output double is a shared float expression between engines.
- butterworth_lowpass is a sequential biquad recursion (direct form I),
  replayable in SQL as a recursive CTE carrying (y1, y2) state exactly
  like the Kalman/EMA oracles, with coefficients built from libm tan.

Per-series sequential kernels: the whole time-sorted series reaches one
call (the bucketed_map_groups contract shared by kernels.pelt /
kernels.smoothing — distribution happens across series, not within one).
"""

from __future__ import annotations

from math import exp, pi, sqrt, tan

import numpy as np

from .padding import PAD_NEAREST, apply_padding


def gaussian_kernel_weights(sigma: float, radius: int | None = None) -> np.ndarray:
    """Normalized Gaussian weights w_j = exp(-j^2/(2 sigma^2)) / W for
    j = -r..r, with r = ceil(3 sigma) by default. Weights and the
    normalizer W are both built with libm exp and an ascending-j fold so
    a SQL oracle reproduces them bitwise."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    r = int(np.ceil(3.0 * sigma)) if radius is None else int(radius)
    if r < 0:
        raise ValueError("radius must be >= 0")
    w = np.empty(2 * r + 1, dtype=np.float64)
    for idx, j in enumerate(range(-r, r + 1)):
        w[idx] = exp(-(j * j) / (2.0 * sigma * sigma))
    total = 0.0
    for idx in range(w.size):  # ascending fold == SQL list_sum
        total += w[idx]
    return w / total


def gaussian_smooth(
    signal,
    sigma: float,
    radius: int | None = None,
    padding: str = PAD_NEAREST,
) -> np.ndarray:
    """Gaussian-weighted moving average with edge padding (default
    'nearest' == index clamp, the SQL-friendliest mode)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("gaussian_smooth expects a univariate series")
    if x.size == 0:
        return x.copy()
    w = gaussian_kernel_weights(sigma, radius)
    r = (w.size - 1) // 2
    if r == 0:
        return x.copy()
    xp = apply_padding(x, 2 * r + 1, padding)
    out = np.zeros(x.size, dtype=np.float64)
    # ascending-j fold, vectorized across output points: out[i] =
    # (((w0*x[i-r]) + w1*x[i-r+1]) + ...) — the identical summation order
    # to DuckDB's list_sum over an ascending-j list_transform
    for idx in range(w.size):
        out += w[idx] * xp[idx : idx + x.size]
    return out


def butterworth_coefficients(cutoff: float, order: int = 2) -> tuple:
    """Biquad (order-2) Butterworth low-pass coefficients via the
    standard bilinear transform (public formulation; e.g. Smith, "The
    Scientist and Engineer's Guide to DSP", ch. 20). cutoff is the
    normalized cutoff frequency in (0, 0.5) — cycles per sample."""
    if not 0.0 < cutoff < 0.5:
        raise ValueError("cutoff must be in (0, 0.5) cycles/sample")
    if order != 2:
        raise ValueError("only order=2 (biquad) is implemented")
    c = 1.0 / tan(pi * cutoff)
    s2 = sqrt(2.0)
    d = 1.0 + s2 * c + c * c
    b0 = 1.0 / d
    b1 = 2.0 / d
    b2 = 1.0 / d
    a1 = (2.0 - 2.0 * c * c) / d
    a2 = (1.0 - s2 * c + c * c) / d
    return b0, b1, b2, a1, a2


def butterworth_lowpass(signal, cutoff: float, order: int = 2) -> np.ndarray:
    """Causal order-2 Butterworth low-pass, direct form I with
    zero initial state (x[i]=0, y[i]=0 for i<0 — stated contract so the
    recursive-CTE oracle replays it exactly):

        y[i] = b0 x[i] + b1 x[i-1] + b2 x[i-2] - a1 y[i-1] - a2 y[i-2]
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("butterworth_lowpass expects a univariate series")
    b0, b1, b2, a1, a2 = butterworth_coefficients(cutoff, order)
    n = x.size
    y = np.zeros(n, dtype=np.float64)
    x1 = x2 = y1 = y2 = 0.0
    for i in range(n):
        xi = float(x[i])
        yi = b0 * xi + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2
        y[i] = yi
        x2, x1 = x1, xi
        y2, y1 = y1, yi
    return y
