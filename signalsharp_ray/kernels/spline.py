"""Cubic-spline (Catmull-Rom) resampling.

Reference-roadmap item (/root/reference/docs/docs/future-plans.md
"spline interpolation" under resampling). The Catmull-Rom spline is the
local C^1 cubic interpolant (public formulation; Catmull & Rom 1974):
each segment needs only its 4 neighbors — no global tridiagonal solve —
which makes upsampling embarrassingly parallel across points AND lets a
SQL oracle evaluate the identical closed-form polynomial per output
point (no recursion). Endpoint handling: clamped (neighbor indices
clipped to the valid range — the 'nearest' convention the padding
module uses).

y(u) on segment [p1, p2] with neighbors p0, p3 and u in [0, 1):
  y = 0.5 * (2*p1 + (-p0 + p2)*u + (2*p0 - 5*p1 + 4*p2 - p3)*u^2
             + (-p0 + 3*p1 - 3*p2 + p3)*u^3)

The expression is transcribed op-for-op in the oracle; with factor m
the fractions u = j/m are exact dyadic doubles for m in {2,4,8}, so
both engines evaluate the identical float polynomial.

Per-series kernel (bucketed_map_groups contract).
"""

from __future__ import annotations

import numpy as np


def catmull_rom_resample(signal, factor: int = 4) -> np.ndarray:
    """Upsample by an integer factor: output index j corresponds to input
    position j / factor; length = (n - 1) * factor + 1 (no extrapolation
    past the last point). Input points are reproduced exactly at
    j % factor == 0 (interpolating spline)."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("catmull_rom_resample expects a univariate series")
    if factor < 1:
        raise ValueError("factor must be >= 1")
    n = x.size
    if n == 0:
        return x.copy()
    if n == 1:
        return x.copy()
    n_out = (n - 1) * factor + 1
    j = np.arange(n_out, dtype=np.int64)
    i = j // factor
    u = (j % factor).astype(np.float64) / float(factor)
    p0 = x[np.maximum(i - 1, 0)]
    p1 = x[np.minimum(i, n - 1)]
    p2 = x[np.minimum(i + 1, n - 1)]
    p3 = x[np.minimum(i + 2, n - 1)]
    # op-for-op the docstring polynomial (kept un-Hornered so the SQL
    # oracle's identical spelling produces bitwise-equal doubles)
    y = 0.5 * (
        2.0 * p1
        + (-p0 + p2) * u
        + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * (u * u)
        + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * (u * u * u)
    )
    return y
