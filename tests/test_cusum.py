"""CUSUM vs reference golden values (FIXTURES.md §2.2,
SignalSharp.Tests/Detection/CUSUMTests.cs). Several reference tests
z-normalize the raw signal first (population sigma)."""

import numpy as np

from signalsharp_ray.kernels.cusum import CUSUMOptions, cusum_changepoints
from signalsharp_ray.kernels.stats import zscore


def _detect(signal, threshold, slack, normalize=True):
    x = zscore(signal) if normalize else np.asarray(signal, dtype=float)
    opts = CUSUMOptions(
        expected_mean=0.0,
        expected_std=1.0,
        threshold_factor=threshold,
        slack_factor=slack,
    )
    return cusum_changepoints(x, opts)


def test_simple():
    x = [0.2, 1.1, 0.2, 4.0, 0.1, 0.2, -2.0, 0.2, 0.1]
    np.testing.assert_array_equal(_detect(x, 1.2, 0.1), [3, 6])


def test_none_detected():
    x = [0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1]
    np.testing.assert_array_equal(_detect(x, 5, 1), [])


def test_gradual_with_spike():
    x = [i * 0.1 if i != 9 else 15.0 for i in range(20)]
    np.testing.assert_array_equal(_detect(x, 3, 1), [9])


def test_spikes():
    x = [0.1, 0.2, 0.3, 10.0, 0.1, 0.2, -10.0, 0.1, 0.2]
    np.testing.assert_array_equal(_detect(x, 1.5, 0.1), [3, 6])


def test_high_variance_no_normalization():
    x = [0.1, 0.2, 10.0, -10.0, 0.1, 0.2]
    np.testing.assert_array_equal(_detect(x, 2, 0.5, normalize=False), [2, 3])


def test_alternating_no_normalization():
    x = [-1, 1, -1, 1, -1, 1]
    np.testing.assert_array_equal(_detect(x, 0.5, 0.0, normalize=False), [1, 2, 3, 4, 5])


def test_short_and_empty():
    assert cusum_changepoints([]).size == 0
    assert cusum_changepoints([1.0]).size == 0


def test_long_constant_znormalized_no_changepoints():
    # CUSUMTests.cs:91-108 — z-normalizing a constant signal gives zeros
    x = zscore(np.full(100, 0.1))
    opts = CUSUMOptions(threshold_factor=5, slack_factor=1)
    assert cusum_changepoints(x, opts).size == 0


def test_zero_variance_large_sigma_no_changepoints():
    # CUSUMTests.cs:194-212
    opts = CUSUMOptions(expected_std=1e5, threshold_factor=5, slack_factor=1)
    assert cusum_changepoints(np.zeros(5), opts).size == 0


def test_option_validation_matches_reference():
    # CUSUMTests.cs:118-150 — constructor argument guards
    import pytest

    with pytest.raises(ValueError):
        CUSUMOptions(expected_std=0.0)
    with pytest.raises(ValueError):
        CUSUMOptions(threshold_factor=0.0)
    with pytest.raises(ValueError):
        CUSUMOptions(slack_factor=-0.1)


# -- the serve path's form, cusum_changepoints(zscore(x)), on edge series --


def _serve_cusum(x):
    with np.errstate(all="ignore"):
        return cusum_changepoints(zscore(np.asarray(x, dtype=float)))


def test_serve_form_constant_series():
    # sigma 0 -> zscore gives zeros -> no crossing
    np.testing.assert_array_equal(_serve_cusum(np.full(1440, 7.5)), [])


def test_serve_form_nan_and_inf_series():
    # a NaN or an inf makes the variance NaN, and max(0.0, nan) is 0.0, so
    # zscore returns zeros: one non-finite value hides even a clear step
    step = np.r_[np.zeros(30), np.full(30, 10.0)]
    np.testing.assert_array_equal(_serve_cusum(step), [6, 12, 18, 24, 35, 41, 47, 53, 59])
    for bad in (np.nan, np.inf, -np.inf):
        x = step.copy()
        x[5] = bad
        with np.errstate(all="ignore"):
            np.testing.assert_array_equal(zscore(x), np.zeros_like(x))
        np.testing.assert_array_equal(_serve_cusum(x), [])


def test_serve_form_length_one_and_two():
    np.testing.assert_array_equal(_serve_cusum([]), [])
    np.testing.assert_array_equal(_serve_cusum([5.0]), [])
    # two distinct points z-score to -1, +1: far below the threshold of 5
    np.testing.assert_array_equal(_serve_cusum([1.0, 2.0]), [])
    np.testing.assert_array_equal(_serve_cusum([2.0, -7.0]), [])
    np.testing.assert_array_equal(_serve_cusum([4.0, 4.0]), [])
    assert _serve_cusum([1.0, 2.0]).dtype == np.int64
