"""DFT / ARIMA(2,1,0) / Catmull-Rom kernels (kernels/spectral.py,
kernels/arima.py, kernels/spline.py) — reference-roadmap items."""

import numpy as np
import pytest

from signalsharp_ray.kernels.arima import arima_210_forecast
from signalsharp_ray.kernels.spectral import dft_magnitudes
from signalsharp_ray.kernels.spline import catmull_rom_resample


def test_dft_pure_tone_concentrates():
    t = np.arange(30)
    x = np.sin(2 * np.pi * 3 * t / 30)
    m = dft_magnitudes(x, 8)
    assert np.argmax(m) + 1 == 3
    assert m[2] == pytest.approx(15.0, abs=1e-9)  # n/2 for a unit sine
    others = np.delete(m, 2)
    assert np.all(others < 1e-9)


def test_dft_matches_numpy_fft():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 1, 40)
    want = np.abs(np.fft.fft(x))[1:9]
    np.testing.assert_allclose(dft_magnitudes(x, 8), want, atol=1e-9)


def test_dft_validation_and_empty():
    assert dft_magnitudes(np.array([]), 4).tolist() == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        dft_magnitudes(np.ones(5), 0)
    with pytest.raises(ValueError):
        dft_magnitudes(np.ones((2, 2)), 3)


def test_arima_extends_linear_trend_exactly():
    # a pure trend differences to a constant: degenerate YW -> pure drift
    x = np.arange(20, dtype=np.float64) * 2.0 + 5.0
    np.testing.assert_allclose(arima_210_forecast(x, 3), [45.0, 47.0, 49.0])


def test_arima_ar2_recursion_matches_manual():
    rng = np.random.default_rng(2)
    d = [0.0, 0.0]
    for _ in range(300):
        d.append(0.5 * d[-1] - 0.3 * d[-2] + rng.normal())
    x = np.cumsum(d)
    got = arima_210_forecast(x, 2)
    # manual re-derivation with numpy (order-insensitive tolerance)
    dif = np.diff(x)
    m = dif.mean()
    c = dif - m
    nd = len(c)
    r0 = (c * c).sum() / nd
    r1 = (c[:-1] * c[1:]).sum() / nd
    r2 = (c[:-2] * c[2:]).sum() / nd
    den = r0 * r0 - r1 * r1
    phi1 = (r1 * r0 - r1 * r2) / den
    phi2 = (r2 * r0 - r1 * r1) / den
    f1 = m + phi1 * c[-1] + phi2 * c[-2]
    f2 = m + phi1 * (f1 - m) + phi2 * c[-1]
    np.testing.assert_allclose(got, [x[-1] + f1, x[-1] + f1 + f2], rtol=1e-9)


def test_arima_validation():
    with pytest.raises(ValueError):
        arima_210_forecast(np.ones(3))
    with pytest.raises(ValueError):
        arima_210_forecast(np.ones(10), horizon=0)


def test_spline_reproduces_knots_and_interior_linearity():
    x = np.array([1.0, 4.0, 2.0, 8.0, 3.0])
    y = catmull_rom_resample(x, 4)
    assert y.size == 17
    np.testing.assert_allclose(y[::4], x)  # interpolating
    lin = np.arange(8, dtype=np.float64) * 2.0 + 5.0
    s = catmull_rom_resample(lin, 4)
    # interior segments reproduce a linear trend exactly (C^1 cubic with
    # central-difference tangents); endpoints are clamped
    np.testing.assert_allclose(s[4:-4], np.arange(4, s.size - 4) * 0.5 + 5.0)


def test_spline_edge_cases():
    np.testing.assert_allclose(catmull_rom_resample(np.array([7.0]), 4), [7.0])
    assert catmull_rom_resample(np.array([]), 4).size == 0
    np.testing.assert_allclose(
        catmull_rom_resample(np.array([1.0, 2.0]), 1), [1.0, 2.0]
    )
    with pytest.raises(ValueError):
        catmull_rom_resample(np.ones(5), 0)


def test_fourier_resample_reproduces_samples_and_bandlimited():
    from signalsharp_ray.kernels.fourier import fourier_resample

    rng = np.random.default_rng(4)
    x = rng.normal(0, 1, 24)
    y = fourier_resample(x, 2)
    assert y.size == 48
    np.testing.assert_allclose(y[::2], x, atol=1e-9)  # DFT identity
    t = np.arange(24)
    s = np.sin(2 * np.pi * 3 * t / 24)
    ys = fourier_resample(s, 4)
    t4 = np.arange(96) / 4.0
    np.testing.assert_allclose(ys, np.sin(2 * np.pi * 3 * t4 / 24), atol=1e-9)
    np.testing.assert_allclose(fourier_resample(x, 1), x, atol=1e-12)
    with pytest.raises(ValueError):
        fourier_resample(np.ones(23), 2)  # odd length
    with pytest.raises(ValueError):
        fourier_resample(np.ones(24), 0)


def test_power_iteration_matches_eigh():
    from signalsharp_ray.kernels.pca import power_iteration_top

    rng = np.random.default_rng(3)
    A = rng.normal(0, 1, (200, 6))
    A[:, 0] *= 5.0
    C = np.cov(A, rowvar=False, bias=True)
    v, lam = power_iteration_top(C, 15)
    w_true, V_true = np.linalg.eigh(C)
    assert lam == pytest.approx(w_true[-1], rel=1e-6)
    assert abs(float(v @ V_true[:, -1])) == pytest.approx(1.0, abs=1e-9)
    assert v.sum() >= 0.0  # sign contract
    with pytest.raises(ValueError):
        power_iteration_top(np.ones((2, 3)))
    with pytest.raises(ValueError):
        power_iteration_top(np.eye(3), iters=0)


def test_arima_forecast_drops_series_shorter_than_four_days():
    """A 3-day event_type yields no forecast rows in the query kernel and
    in its oracle; a 5-day one is forecast identically by both."""
    import duckdb
    import pandas as pd

    from signalsharp_ray.pipelines.queries152 import ORACLES152, _arima_group

    rng = np.random.default_rng(7)
    rows = []
    for event_type, n_days in (("short", 3), ("long", 5)):
        for day in range(n_days):
            for _ in range(int(rng.integers(1, 6))):
                rows.append((pd.Timestamp("2024-01-01") + pd.Timedelta(days=day), event_type))
    events = pd.DataFrame(rows, columns=["ts", "event_type"])
    daily = (
        events.assign(bucket_ts=events["ts"].dt.floor("D"))
        .groupby(["event_type", "bucket_ts"], as_index=False)
        .size()
        .rename(columns={"size": "count"})
    )

    short = _arima_group(daily[daily["event_type"] == "short"])
    assert len(short) == 0
    assert list(short.columns) == ["event_type", "h", "forecast"]

    got = pd.concat([_arima_group(g) for _, g in daily.groupby("event_type")])
    con = duckdb.connect()
    con.register("events", events)
    want = con.execute(ORACLES152["arima_forecast"]).fetchdf()
    assert set(want["event_type"]) == {"long"}
    got = got.sort_values("h").reset_index(drop=True)
    want = want.sort_values("h").reset_index(drop=True)
    np.testing.assert_array_equal(got["h"], want["h"])
    np.testing.assert_allclose(got["forecast"], want["forecast"], rtol=0, atol=1e-9)
