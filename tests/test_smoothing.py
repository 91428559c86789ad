"""Smoothing kernels vs reference golden values (FIXTURES.md §2.4,
SignalSharp.Tests/Smoothing/)."""

import numpy as np
import pytest

from signalsharp_ray.kernels import padding as pad
from signalsharp_ray.kernels import smoothing
from signalsharp_ray.kernels.smoothing import (
    ema_segments,
    exponential_moving_average,
    savitzky_golay,
    simple_moving_average,
    weighted_moving_average,
)


def test_sma_valid():
    np.testing.assert_allclose(
        simple_moving_average([1, 2, 3, 4, 5], 3), [2.0, 3.0, 4.0]
    )


def test_sma_window_too_large_raises():
    with pytest.raises(ValueError):
        simple_moving_average([1, 2], 3)


def test_sma_constant_padding():
    # window 3 -> halfwindow 1 each side padded with 0
    out = simple_moving_average([1, 2, 3, 4, 5], 3, padding=pad.PAD_CONSTANT)
    np.testing.assert_allclose(out, [1.0, 2.0, 3.0, 4.0, 3.0])


def test_ema_golden():
    np.testing.assert_allclose(
        exponential_moving_average([1, 2, 3, 4, 5], 0.5),
        [1, 1.5, 2.25, 3.125, 4.0625],
    )


def test_ema_long_matches_loop():
    rng = np.random.default_rng(42)
    x = rng.normal(size=5000)
    for alpha in (0.01, 0.5, 0.97, 1.0):
        got = exponential_moving_average(x, alpha)
        prev = x[0]
        exp = np.empty_like(x)
        exp[0] = prev
        for i in range(1, x.size):
            prev = alpha * x[i] + (1 - alpha) * prev
            exp[i] = prev
        np.testing.assert_allclose(got, exp, rtol=1e-9, atol=1e-12)


def test_wma_golden():
    np.testing.assert_allclose(
        weighted_moving_average([1, 2, 3, 4, 5], [0.1, 0.3, 0.6]), [2.5, 3.5, 4.5]
    )


def test_wma_padded_golden():
    # from the reference's doc example (MovingAverage.cs:204-226)
    out = weighted_moving_average(
        [1, 2, 3, 4, 5], [0.1, 0.3, 0.6], padding=pad.PAD_CONSTANT
    )
    np.testing.assert_allclose(out, [1.5, 2.5, 3.5, 4.5, 1.9])


def test_wma_zero_weights_raises():
    with pytest.raises(ValueError):
        weighted_moving_average([1, 2, 3], [1.0, -1.0])


def test_padding_modes():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(
        pad.apply_padding(x, 4, pad.PAD_CONSTANT, 9.0), [9, 9, 1, 2, 3, 4, 9, 9]
    )
    np.testing.assert_array_equal(
        pad.apply_padding(x, 4, pad.PAD_MIRROR, 0), [2, 1, 1, 2, 3, 4, 4, 3]
    )
    np.testing.assert_array_equal(
        pad.apply_padding(x, 4, pad.PAD_NEAREST, 0), [1, 1, 1, 2, 3, 4, 4, 4]
    )
    # periodic: left = wrap of tail; right = REVERSED head (reference quirk)
    np.testing.assert_array_equal(
        pad.apply_padding(x, 4, pad.PAD_PERIODIC, 0), [3, 4, 1, 2, 3, 4, 2, 1]
    )


def test_trim_padding_roundtrip():
    x = np.array([1.0, 2.0, 3.0])
    ext = pad.apply_padding(x, 5, pad.PAD_NEAREST, 0)
    np.testing.assert_array_equal(pad.trim_padding(ext, 3, 5), x)


def test_savgol_golden_middle_restore():
    x = [2, 2.5, 3.4, 2.7, 2.6, 5.4, 6.2, 7.2, 4.2, 3.5, 3.25, 2]
    out = savitzky_golay(x, 5, 2)
    expected = [1.96, 2.7, 3.4, 2.7, 2.6, 5.4, 6.2, 7.2, 4.2, 3.5, 2.61, 2.32]
    np.testing.assert_allclose(out, expected, atol=1e-2)
    # middle section must be EXACTLY the input (middle-restore quirk)
    np.testing.assert_array_equal(out[2:-2], np.asarray(x, dtype=float)[2:-2])


def test_savgol_short_passthrough():
    x = [1.0, 2.0, 3.0]
    np.testing.assert_array_equal(savitzky_golay(x, 5, 2), x)


def test_savgol_constant_identity():
    x = [3.0] * 9  # len 9 < 2*5+1=11 -> passthrough; use len 11 for real path
    np.testing.assert_allclose(savitzky_golay([3.0] * 11, 5, 2), [3.0] * 11, atol=1e-9)


def test_savgol_linear_identity():
    x = np.arange(1.0, 8.0)
    np.testing.assert_allclose(savitzky_golay(x, 3, 1), x, atol=1e-9)


def test_savgol_validation():
    with pytest.raises(ValueError):
        savitzky_golay([1, 2, 3], 3, 3)
    with pytest.raises(ValueError):
        savitzky_golay([1, 2, 3], 5, 2, deriv=3)
    assert savitzky_golay([], 5, 2).size == 0


def test_sma_nonpositive_window_raises():
    # MovingAverageTests.cs:32-40
    with pytest.raises(ValueError):
        simple_moving_average([1.0, 2.0, 3.0], 0)
    with pytest.raises(ValueError):
        simple_moving_average([1.0, 2.0, 3.0], -1)


def test_ema_alpha_out_of_range_raises():
    # MovingAverageTests.cs:74-84 — alpha 0 and 1.1 both throw
    with pytest.raises(ValueError):
        exponential_moving_average([1.0, 2, 3, 4, 5], 0.0)
    with pytest.raises(ValueError):
        exponential_moving_average([1.0, 2, 3, 4, 5], 1.1)


def test_wma_weights_longer_than_signal_raises():
    # MovingAverageTests.cs:125-133
    with pytest.raises(ValueError):
        weighted_moving_average([1.0, 2.0], [0.2, 0.3, 0.5])


def test_wma_empty_weights_raises():
    # MovingAverageTests.cs:116-123
    with pytest.raises(ValueError):
        weighted_moving_average([1.0, 2.0, 3.0], [])


def test_savgol_negative_linear_identity():
    # SavitzkyGolayFilterTests.cs:95-107 — w=3, p=1 on a negative ramp is
    # the identity (linear signals are fixed points of the filter)
    x = np.array([-1.0, -2, -3, -4, -5, -6, -7, -8])
    np.testing.assert_allclose(savitzky_golay(x, 3, 1), x, atol=1e-10)


def test_ema_chunked_path_parity_long_series():
    """The chunked long-series EMA path (n > 2048) must match the
    sequential recurrence to float64 precision relative to the series
    scale (VERDICT r1 #10). Covers several alphas, scales, and a random
    walk (values crossing zero make pointwise-relative comparisons
    meaningless; scale-relative is the right metric)."""
    from signalsharp_ray.kernels.smoothing import exponential_moving_average

    def seq_ema(x, a):
        out = np.empty_like(x)
        prev = out[0] = x[0]
        for i in range(1, len(x)):
            prev = a * x[i] + (1 - a) * prev
            out[i] = prev
        return out

    rng = np.random.default_rng(7)
    for alpha in (0.01, 0.3, 0.9):
        for scale in (1.0, 1e6, 1e-6):
            for walk in (False, True):
                x = rng.normal(0, scale, 20_000)
                if walk:
                    x = np.cumsum(x)
                got = exponential_moving_average(x, alpha)
                want = seq_ema(x, alpha)
                tol = np.max(np.abs(x)) * 1e-12
                assert np.max(np.abs(got - want)) < tol, (alpha, scale, walk)


def test_savgol_derivative_matches_reference_construction():
    """deriv>0 path parity: the reference convolves with the REVERSED
    least-squares polynomial coefficients (length polyorder+1, y = e_hw *
    deriv!) — SavitzkyGolayFilter.cs:143-250 — NOT a window-length SG
    kernel. Pin our interior output against a direct emulation of that
    construction (edges then go through the polynomial re-fit)."""
    import math

    sig = 3.0 * np.arange(12) + 2
    w, p, deriv, hw = 5, 2, 1, 2
    pos = hw - 0.5
    x = np.array([i - pos for i in range(w)])[::-1]
    A = np.vander(x, p + 1, increasing=True)
    y = np.zeros(w)
    y[hw] = float(math.factorial(deriv))
    c, *_ = np.linalg.lstsq(A, y, rcond=None)
    coef = c[::-1]
    n = len(sig)
    emul = np.empty(n)
    for i in range(n):
        s = 0.0
        for j in range(len(coef)):
            idx = min(max(i + j - hw, 0), n - 1)
            s += sig[idx] * coef[j]
        emul[i] = s
    ours = savitzky_golay(sig, w, p, deriv=deriv)
    np.testing.assert_allclose(ours[hw:-hw], emul[hw:-hw], atol=1e-9)


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.0])
@pytest.mark.parametrize("cells", [1 << 18, 50])
def test_ema_segments_match_per_series(alpha, cells, monkeypatch):
    """ema_segments gives every series exactly what
    exponential_moving_average gives it alone: lengths 0, 1 and 2, NaN and
    +-inf, alpha = 1 (every output is its input), a series longer than
    the recurrence's 2048 points (the per-series chunked form) and small
    padded blocks."""
    monkeypatch.setattr(smoothing, "_EMA_BLOCK_CELLS", cells)
    rng = np.random.default_rng(11)
    lengths = [1, 2, 0, 5, 2049, 30, 1, 2048, 3]
    series = [rng.normal(0, 10, n) for n in lengths]
    series[3][2] = np.nan
    series[5][[4, 9]] = [np.inf, -np.inf]
    values = np.concatenate(series)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    got = ema_segments(values, offsets, alpha)
    want = np.concatenate([exponential_moving_average(x, alpha) for x in series])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValueError, match="alpha"):
        ema_segments(values, offsets, 0.0)
