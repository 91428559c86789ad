"""Smoothing kernels: SMA / EMA / WMA / Savitzky-Golay (pure numpy).

Semantics match the reference:
- SMA/WMA: /root/reference/SignalSharp/Smoothing/MovingAverage/MovingAverage.cs
  padding "none" -> 'valid' output (N-w+1); other paddings -> same-length output.
- EMA: ema[0]=x[0]; ema[t]=a*x[t]+(1-a)*ema[t-1]; alpha in (0,1].
  ema_segments runs it over many series at once, element for element.
- SavGol: /root/reference/SignalSharp/Smoothing/SavitzkyGolay/SavitzkyGolayFilter.cs
  with its quirks replicated exactly (do NOT use scipy.signal.savgol_filter):
    * len < 2*window+1 -> input returned unchanged (:111-113)
    * coefficients from a Vandermonde LSQ at reversed half-integer-offset x
      values (:159-172)
    * edge-clamped convolution (:228-251)
    * polynomial re-fit of the first/last half-window points (:260-311)
    * for deriv==0 the middle section is RESTORED to the raw input (:320-329)
"""

from __future__ import annotations

import math

import numpy as np

from .padding import PAD_NONE, apply_padding, segment_blocks, trim_padding

# longest series exponential_moving_average runs as the plain recurrence;
# longer ones take its chunked form
_EMA_LOOP_MAX = 2048
# cells per padded block of ema_segments
_EMA_BLOCK_CELLS = 1 << 18


def simple_moving_average(
    signal: np.ndarray,
    window_size: int,
    padding: str = PAD_NONE,
    padded_value: float = 0.0,
) -> np.ndarray:
    signal = np.asarray(signal, dtype=np.float64)
    if window_size <= 0:
        raise ValueError("window_size must be positive")
    if padding == PAD_NONE:
        if window_size > signal.size:
            raise ValueError("window_size cannot exceed signal length without padding")
        if signal.size == 0:
            return signal.copy()
        c = np.cumsum(np.concatenate(([0.0], signal)))
        return (c[window_size:] - c[:-window_size]) / window_size
    if signal.size == 0:
        return signal.copy()
    ext = apply_padding(signal, window_size, padding, padded_value)
    c = np.cumsum(np.concatenate(([0.0], ext)))
    full = (c[window_size:] - c[:-window_size]) / window_size
    out = np.zeros(signal.size, dtype=np.float64)
    m = min(signal.size, full.size)
    out[:m] = full[:m]
    return out


def exponential_moving_average(signal: np.ndarray, alpha: float) -> np.ndarray:
    signal = np.asarray(signal, dtype=np.float64)
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    n = signal.size
    if n == 0:
        return signal.copy()
    # ema[t] = a*x[t] + (1-a)*ema[t-1] with ema[0]=x[0]; vectorized via
    # scaled cumulative sums: ema[t] = b^t * (x[0] + a * sum_{i=1..t} x[i] b^-i)
    # is numerically unstable for long series, so use an O(n) python-free loop
    # only when n is small; otherwise chunked recurrence keeps both speed and
    # stability.
    out = np.empty(n, dtype=np.float64)
    out[0] = signal[0]
    b = 1.0 - alpha
    if b == 0.0:
        out[1:] = signal[1:]
        return out
    if n <= _EMA_LOOP_MAX:
        prev = signal[0]
        for i in range(1, n):
            prev = alpha * signal[i] + b * prev
            out[i] = prev
        return out
    # chunked: within a chunk of size m, ema[t] = b^(t-s) * ema[s] +
    # a * sum_{i=s+1..t} b^(t-i) x[i]; cap m so b^m stays far from underflow
    # (the recurrence forgets history long before b^m reaches 1e-200).
    m = int(min(1024.0, max(8.0, -200.0 * np.log(10.0) / np.log(b))))
    powers = np.power(b, np.arange(m + 1))
    prev = signal[0]
    i = 1
    while i < n:
        j = min(i + m, n)
        chunk = signal[i:j]
        k = chunk.size
        # contribution of prev level
        lev = prev * powers[1 : k + 1]
        # weighted suffix-sums of the chunk: a * sum b^(t-i) x[i]
        w = alpha * chunk / powers[1 : k + 1]
        acc = np.cumsum(w) * powers[1 : k + 1]
        out[i:j] = lev + acc
        prev = out[j - 1]
        i = j
    return out


def ema_segments(values: np.ndarray, offsets: np.ndarray, alpha: float) -> np.ndarray:
    """exponential_moving_average of every series values[offsets[i]:
    offsets[i+1]] at once, element for element. Series of at most
    _EMA_LOOP_MAX points run its recurrence column by column over padded
    blocks (the same float operations, on the rows still running); longer
    ones take the per-series kernel and its chunked form."""
    values = np.asarray(values, dtype=np.float64)
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must be in (0, 1]")
    offsets = np.asarray(offsets, dtype=np.int64)
    n = np.diff(offsets)
    out = np.empty_like(values)
    b = 1.0 - alpha
    short = np.flatnonzero((n > 0) & (n <= _EMA_LOOP_MAX))
    for _, take, mask in segment_blocks(offsets, short, _EMA_BLOCK_CELLS):
        x = values[take]
        if b != 0.0:
            live = mask.sum(axis=0)
            prev = x[:, 0]
            for i in range(1, x.shape[1]):
                prev = alpha * x[:live[i], i] + b * prev[:live[i]]
                x[:live[i], i] = prev
        out[take[mask]] = x[mask]
    for i in np.flatnonzero(n > _EMA_LOOP_MAX):
        s, e = offsets[i], offsets[i + 1]
        out[s:e] = exponential_moving_average(values[s:e], alpha)
    return out


def weighted_moving_average(
    signal: np.ndarray,
    weights: np.ndarray,
    padding: str = PAD_NONE,
    padded_value: float = 0.0,
) -> np.ndarray:
    signal = np.asarray(signal, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        raise ValueError("weights must not be empty")
    wsum = float(weights.sum())
    if abs(wsum) < 1e-10:
        raise ValueError("Sum of weights cannot be zero.")
    w = weights.size
    if padding == PAD_NONE:
        if w > signal.size:
            raise ValueError("weights length cannot exceed signal length without padding")
        if signal.size == 0:
            return signal.copy()
        # correlate (not convolve): out[i] = sum signal[i+j]*weights[j]
        return np.correlate(signal, weights, mode="valid") / wsum
    if signal.size == 0:
        return signal.copy()
    ext = apply_padding(signal, w, padding, padded_value)
    full = np.correlate(ext, weights, mode="valid") / wsum
    out = np.zeros(signal.size, dtype=np.float64)
    m = min(signal.size, full.size)
    out[:m] = full[:m]
    return out


def _savgol_coefficients(window_length: int, polyorder: int, deriv: int) -> np.ndarray:
    """LSQ filter coefficients via the reference's Vandermonde construction
    (SavitzkyGolayFilter.cs:143-219): x = reversed half-integer offsets,
    A[i,j] = x[i]^j, y = e_halfWindow * deriv!; solve min ||A c - y||, then
    reverse the coefficient vector. NOTE the reference quirk: the solution
    has only polyorder+1 entries, so the "convolution" kernel has p+1 taps
    at offsets -halfWindow .. -halfWindow+p (ApplyConvolution :228-251 uses
    coefficients.Length, not windowLength)."""
    hw = window_length // 2
    pos = hw - 0.5
    x = np.arange(window_length, dtype=np.float64) - pos
    x = x[::-1]
    a_mat = np.vander(x, polyorder + 1, increasing=True)
    y = np.zeros(window_length, dtype=np.float64)
    y[hw] = float(math.factorial(deriv))
    coef, *_ = np.linalg.lstsq(a_mat, y, rcond=None)
    return coef[::-1]


def _polyfit_section(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """Normal-equation polynomial fit, coefficients lowest->highest order,
    matching PolynomialFitter.FitPolynomial (PolynomialFitter.cs:21-80)."""
    design = np.vander(x, order + 1, increasing=True)
    xtx = design.T @ design
    xty = design.T @ y
    return np.linalg.solve(xtx, xty)


def savitzky_golay(
    signal: np.ndarray,
    window_length: int,
    polyorder: int,
    deriv: int = 0,
    padding: str = PAD_NONE,
    padded_value: float = 0.0,
) -> np.ndarray:
    if polyorder >= window_length:
        raise ValueError("polyorder must be less than window_length")
    if deriv > polyorder:
        raise ValueError("deriv must not exceed polyorder")
    signal = np.asarray(signal, dtype=np.float64)
    n = signal.size
    if n == 0:
        return signal.copy()
    if n < 2 * window_length + 1:
        return signal.copy()

    hw = window_length // 2
    ext = apply_padding(signal, window_length, padding, padded_value) if padding != PAD_NONE else signal
    coef = _savgol_coefficients(window_length, polyorder, deriv)

    # edge-clamped convolution: index i+j-hw clipped into [0, len-1];
    # j ranges over the p+1 taps (reference quirk, see _savgol_coefficients)
    m = ext.size
    idx = np.clip(
        np.arange(m)[:, None] + np.arange(coef.size)[None, :] - hw, 0, m - 1
    )
    filtered = ext[idx] @ coef

    if padding != PAD_NONE:
        filtered = trim_padding(filtered, n, window_length)
    else:
        filtered = filtered.copy()

    if n >= window_length:
        # polynomial re-fit of both edges (SavitzkyGolayFilter.cs:260-311)
        xs = np.arange(window_length, dtype=np.float64)
        c0 = _polyfit_section(xs, signal[:window_length], polyorder)
        filtered[:hw] = np.polyval(c0[::-1], np.arange(hw, dtype=np.float64))
        start = n - window_length
        c1 = _polyfit_section(xs, signal[start:], polyorder)
        tail_x = np.arange(n - hw, n, dtype=np.float64) - start
        filtered[n - hw :] = np.polyval(c1[::-1], tail_x)

    if deriv == 0:
        filtered[hw : n - hw] = signal[hw : n - hw]

    return filtered
