"""ARIMA(2,1,0) forecasting via Yule-Walker.

Reference-roadmap item (/root/reference/docs/docs/future-plans.md
"ARIMA models"). Extends the forecasting family
(kernels/extrapolation.py — SES/Holt mirroring
/root/reference/SignalSharp/Extrapolation/) with the classic
Box-Jenkins model in its most SQL-verifiable public form: first
difference (the I(1) step), fit AR(2) on the differences by
Yule-Walker (biased autocovariances + closed-form 2x2 Toeplitz solve —
no iterative optimizer), forecast h steps by the AR recursion on
centered differences, integrate back to levels.

Float-parity design: every sum is an ascending-i left fold (==
DuckDB list_sum over an ordered list_transform), the Yule-Walker
solve is written as the exact shared expressions
  phi1 = (r1*r0 - r1*r2) / (r0*r0 - r1*r1)
  phi2 = (r2*r0 - r1*r1) / (r0*r0 - r1*r1)
and the 3-step forecast recursion is unrolled closed-form, so the SQL
oracle replays it without a recursive CTE.

Per-series kernel (bucketed_map_groups contract).
"""

from __future__ import annotations

import numpy as np


def _fold_sum(values) -> float:
    total = 0.0
    for v in values:
        total += float(v)
    return total


def arima_210_forecast(signal, horizon: int = 3) -> np.ndarray:
    """Levels forecast for h = 1..horizon.

    Degenerate guard (shared with the oracle's CASE): if the
    Yule-Walker denominator r0^2 - r1^2 is exactly 0 (constant
    differences), phi1 = phi2 = 0 and the forecast is the pure drift
    m per step."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("arima_210_forecast expects a univariate series")
    if x.size < 4:
        raise ValueError("need at least 4 points to difference and fit AR(2)")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    d = [float(x[i + 1]) - float(x[i]) for i in range(x.size - 1)]
    nd = len(d)
    m = _fold_sum(d) / nd
    c = [v - m for v in d]
    r0 = _fold_sum(ci * ci for ci in c) / nd
    r1 = _fold_sum(c[i] * c[i + 1] for i in range(nd - 1)) / nd
    r2 = _fold_sum(c[i] * c[i + 2] for i in range(nd - 2)) / nd
    den = r0 * r0 - r1 * r1
    if den == 0.0:
        phi1 = 0.0
        phi2 = 0.0
    else:
        phi1 = (r1 * r0 - r1 * r2) / den
        phi2 = (r2 * r0 - r1 * r1) / den

    out = np.zeros(horizon, dtype=np.float64)
    c_prev2, c_prev1 = c[nd - 2], c[nd - 1]
    level = float(x[-1])
    for h in range(horizon):
        f = m + phi1 * c_prev1 + phi2 * c_prev2
        level = level + f
        out[h] = level
        c_prev2, c_prev1 = c_prev1, f - m
    return out
