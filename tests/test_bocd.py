"""BOCD kernel (kernels/bocd.py) — Adams & MacKay 2007 run-length
posterior, Normal-Gamma conjugate model, MAP-drop detection. Completes
the changepoint family from the reference roadmap
(/root/reference/docs/docs/future-plans.md:18) next to PELT/CUSUM."""

import numpy as np
import pytest

from signalsharp_ray.kernels.bocd import (
    BOCDOptions,
    bocd_changepoints,
    bocd_map_run_lengths,
)


def test_pelt_golden_fixture_convention():
    # The PELT golden series [1,1,1,5,5,5,1,1,1] detects at [3,6] under
    # the house segment-start convention (kernels/pelt.py, pen=2).
    x = np.array([1.0, 1, 1, 5, 5, 5, 1, 1, 1])
    np.testing.assert_array_equal(
        bocd_changepoints(x, BOCDOptions(hazard=1 / 5, beta0=0.05)), [3, 6]
    )


def test_square_wave_exact_recovery_all_lengths():
    opts = BOCDOptions(hazard=1 / 40, beta0=1.0)
    for n in (50, 160, 743, 2047):
        vals = 100.0 * ((np.arange(n) // 40) % 2)
        np.testing.assert_array_equal(
            bocd_changepoints(vals, opts), np.arange(40, n, 40)
        )


def test_noisy_three_segments():
    rng = np.random.default_rng(7)
    x = np.concatenate(
        [rng.normal(0, 0.5, 100), rng.normal(5, 0.5, 100), rng.normal(-3, 0.5, 100)]
    )
    cps = bocd_changepoints(x, BOCDOptions(hazard=1 / 100))
    assert len(cps) == 2
    assert abs(int(cps[0]) - 100) <= 2 and abs(int(cps[1]) - 200) <= 2


def test_variance_only_change_detected():
    # Mean stays 0; only the variance jumps — the Normal-Gamma model
    # (unknown mean AND variance) must still see it.
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0, 0.3, 150), rng.normal(0, 4.0, 150)])
    cps = bocd_changepoints(x, BOCDOptions(hazard=1 / 150))
    assert any(abs(int(c) - 150) <= 5 for c in cps)


def test_constant_short_empty():
    assert bocd_changepoints(np.ones(50)).size == 0
    assert bocd_changepoints(np.array([3.0])).size == 0
    assert bocd_changepoints(np.array([])).size == 0


def test_map_run_lengths_grow_on_stationary():
    maps = bocd_map_run_lengths(np.zeros(30), BOCDOptions(hazard=1 / 1000))
    # On a constant series the MAP run length ends at the full horizon.
    assert maps[-1] >= 28


def test_truncation_matches_untruncated():
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.normal(0, 1, 400), rng.normal(8, 1, 400)])
    loose = BOCDOptions(hazard=1 / 400, trunc_logmass=-1e9, max_run_lengths=10_000)
    tight = BOCDOptions(hazard=1 / 400)  # default truncation
    np.testing.assert_array_equal(
        bocd_changepoints(x, loose), bocd_changepoints(x, tight)
    )


def test_map_run_length_survives_truncation_on_noisy_step():
    # A run-length cap forces truncation from step 8 on: the MAP must be
    # the run length of the best slot, not its position in the truncated
    # arrays (which never exceeds the cap).
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(0, 1, 200), rng.normal(6, 1, 200)])
    opts = BOCDOptions(hazard=1 / 200, max_run_lengths=8)
    maps = bocd_map_run_lengths(x, opts)
    assert maps[199] >= 150 and maps[-1] >= 150
    cps = bocd_changepoints(x, opts)
    assert len(cps) == 1 and abs(int(cps[0]) - 200) <= 2


def test_options_validation():
    with pytest.raises(ValueError):
        BOCDOptions(hazard=0.0)
    with pytest.raises(ValueError):
        BOCDOptions(hazard=1.5)
    with pytest.raises(ValueError):
        BOCDOptions(alpha0=-1.0)
    with pytest.raises(ValueError):
        BOCDOptions(max_run_lengths=2)
    with pytest.raises(ValueError):
        bocd_map_run_lengths(np.zeros((3, 3)))
