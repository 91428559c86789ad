"""Analysis stage: the reference's algorithms as distributed per-series
operators over rolled-up tier points.

Each operator is a groupby(host, url).map_groups kernel: the group is sorted
by bucket_ts inside the kernel (groupby does not guarantee intra-group
order), the numpy kernel from signalsharp_ray.kernels runs on the value
column, and the result is re-emitted as rows. Parallelism comes from the
number of series; per-series state never crosses a kernel call.

Quadratic-memory kernels (RBF, L1 medians) are guarded by max_series_len:
longer series are refused loudly rather than silently OOMing a worker —
callers should analyze a coarser tier instead (the whole point of rollup).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..kernels.cusum import CUSUMOptions, cusum_changepoints
from ..kernels.extrapolation import HoltOptions, holt_forecast, linear_forecast, ses_forecast
from ..kernels.kalman import KalmanOptions, kalman_filter
from ..kernels.pelt import PELT, PELTOptions
from ..kernels.penalty_selection import PELTPenaltySelector, PenaltySelectionOptions
from ..kernels.smoothing import (
    exponential_moving_average,
    savitzky_golay,
    simple_moving_average,
    weighted_moving_average,
)
from ..kernels.stats import zscore

QUADRATIC_COSTS = {"rbf", "l1"}
DEFAULT_MAX_SERIES_LEN = 20_000
QUADRATIC_MAX_SERIES_LEN = 4_000


def _sorted_series(df: pd.DataFrame, value_col: str) -> tuple[pd.DataFrame, np.ndarray]:
    df = df.sort_values("bucket_ts")
    return df, df[value_col].to_numpy(dtype=np.float64)


@dataclass
class ChangepointConfig:
    method: str = "pelt"  # pelt | pelt_auto | cusum
    cost: str = "l2"
    penalty: float = 10.0
    min_size: int = 1
    jump: int = 1
    cost_kwargs: dict = field(default_factory=dict)
    # cusum
    cusum: CUSUMOptions = field(default_factory=CUSUMOptions)
    normalize: bool = True  # z-score before CUSUM (reference test convention)
    # pelt_auto
    selection: PenaltySelectionOptions = field(default_factory=PenaltySelectionOptions)
    max_series_len: int | None = None

    def effective_cap(self) -> int:
        if self.max_series_len is not None:
            return self.max_series_len
        if self.cost in QUADRATIC_COSTS:
            return QUADRATIC_MAX_SERIES_LEN
        return DEFAULT_MAX_SERIES_LEN


def _detect_values(values: np.ndarray, config: ChangepointConfig):
    """Shared method dispatch: values -> (breakpoints, penalty)."""
    if config.method == "cusum":
        x = zscore(values) if config.normalize else values
        return cusum_changepoints(x, config.cusum), float("nan")
    opts = PELTOptions(
        cost_function=config.cost,
        min_size=config.min_size,
        jump=config.jump,
        cost_kwargs=config.cost_kwargs,
    )
    if config.method == "pelt":
        return PELT(opts).fit_and_detect(values, config.penalty), config.penalty
    if config.method == "pelt_auto":
        res = PELTPenaltySelector(PELT(opts)).fit_and_select(values, config.selection)
        return res.optimal_breakpoints, res.selected_penalty
    raise ValueError(f"Unknown changepoint method {config.method!r}")


def changepoints_kernel(
    df: pd.DataFrame,
    config: ChangepointConfig,
    value_col: str = "mean",
    key_cols: tuple = ("host", "url"),
) -> pd.DataFrame:
    df, values = _sorted_series(df, value_col)
    key_vals = {k: df[k].iloc[0] for k in key_cols}
    n = values.size
    if n > config.effective_cap():
        raise ValueError(
            f"Series {key_vals} has {n} points > cap {config.effective_cap()}; "
            "analyze a coarser tier."
        )
    bkps, penalty = _detect_values(values, config)

    ts = df["bucket_ts"].to_numpy()
    k = len(bkps)
    out = {kk: np.repeat(v, k) for kk, v in key_vals.items()}
    out.update(
        {
            "method": np.repeat(config.method, k),
            "penalty": np.repeat(penalty, k),
            "breakpoint_index": np.asarray(bkps, dtype=np.int32),
            "breakpoint_ts": ts[np.asarray(bkps, dtype=np.int64)] if k else ts[:0],
        }
    )
    return pd.DataFrame(out)


def detect_changepoints(
    tier_ds,
    config: ChangepointConfig | None = None,
    value_col: str = "mean",
    key_cols: tuple = ("host", "url"),
):
    from ..common.raytools import bucketed_map_groups

    cfg = config or ChangepointConfig()
    return bucketed_map_groups(
        tier_ds,
        list(key_cols),
        lambda df: changepoints_kernel(df, cfg, value_col, key_cols),
    )


@dataclass
class SmoothingConfig:
    op: str = "sma"  # sma | ema | wma | savgol | kalman
    window: int = 5
    alpha: float = 0.3
    weights: tuple = (0.1, 0.3, 0.6)
    polyorder: int = 2
    deriv: int = 0
    padding: str = "nearest"  # same-length output for sliding ops
    padded_value: float = 0.0
    kalman: KalmanOptions = field(default_factory=KalmanOptions)


def _smooth_values(values: np.ndarray, config: SmoothingConfig) -> np.ndarray:
    op = config.op
    if op == "sma":
        return simple_moving_average(
            values, config.window, config.padding, config.padded_value
        )
    if op == "ema":
        return exponential_moving_average(values, config.alpha)
    if op == "wma":
        return weighted_moving_average(
            values, np.asarray(config.weights), config.padding, config.padded_value
        )
    if op == "savgol":
        return savitzky_golay(
            values, config.window, config.polyorder, config.deriv, "none", 0.0
        )
    if op == "kalman":
        return kalman_filter(values, config.kalman)
    raise ValueError(f"Unknown smoothing op {op!r}")


def smooth_kernel(
    df: pd.DataFrame, config: SmoothingConfig, value_col: str = "mean"
) -> pd.DataFrame:
    df, values = _sorted_series(df, value_col)
    out = df.copy()
    out["smoothed"] = _smooth_values(values, config)  # same length (padding != none)
    out["op"] = config.op
    return out


@dataclass
class ForecastConfig:
    method: str = "linear"  # linear | ses | holt
    horizon: int = 3
    window_size: int | None = None
    alpha: float = 0.3
    initial_level: float | None = None
    holt: HoltOptions = field(default_factory=HoltOptions)


def forecast_kernel(
    df: pd.DataFrame,
    config: ForecastConfig,
    tier_us: int,
    value_col: str = "mean",
    key_cols: tuple = ("host", "url"),
) -> pd.DataFrame:
    df, values = _sorted_series(df, value_col)
    key_vals = {k: df[k].iloc[0] for k in key_cols}
    try:
        if config.method == "linear":
            fc = linear_forecast(values, config.horizon, config.window_size)
        elif config.method == "ses":
            fc = ses_forecast(values, config.horizon, config.alpha, config.initial_level)
        elif config.method == "holt":
            fc = holt_forecast(values, config.horizon, config.holt)
        else:
            raise ValueError(f"Unknown forecast method {config.method!r}")
    except ValueError:
        # series too short / invalid for the model -> no forecast rows
        return pd.DataFrame(
            columns=list(key_cols) + ["method", "h", "forecast_ts", "forecast"]
        )
    last_ts = df["bucket_ts"].astype("datetime64[us]").astype("int64").iloc[-1]
    hs = np.arange(1, config.horizon + 1)
    out = {k: np.repeat(v, config.horizon) for k, v in key_vals.items()}
    out.update(
        {
            "method": np.repeat(config.method, config.horizon),
            "h": hs.astype(np.int32),
            "forecast_ts": pd.to_datetime(last_ts + hs * tier_us, unit="us"),
            "forecast": fc,
        }
    )
    return pd.DataFrame(out)


# -- fused whole-partition kernels ----------------------------------------
# One sort + numpy key slicing per partition; per-series work is the pure
# numpy kernel only — no per-series DataFrame construction (measured
# ~10ms/series of fixed frame+sort overhead across 25k short series, which
# dominated the analysis stages at sf0.1).


def _partition_slices(df: pd.DataFrame, key_col: str):
    df = df.sort_values([key_col, "bucket_ts"])
    keys = df[key_col].to_numpy()
    change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate([[0], change]) if keys.size else np.array([], dtype=np.int64)
    ends = np.concatenate([change, [keys.size]]) if keys.size else np.array([], dtype=np.int64)
    return df, keys, starts, ends


def changepoints_partition_pandas(
    df: pd.DataFrame,
    config: ChangepointConfig,
    value_col: str = "mean",
    key_col: str = "url_hash",
) -> pd.DataFrame:
    df, keys, starts, ends = _partition_slices(df, key_col)
    vals_all = df[value_col].to_numpy(dtype=np.float64)
    ts_all = df["bucket_ts"].to_numpy()
    cap = config.effective_cap()
    out_key, out_bk, out_ts, out_pen = [], [], [], []
    for s, e in zip(starts, ends):
        n = e - s
        if n > cap:
            raise ValueError(
                f"Series {key_col}={keys[s]} has {n} points > cap {cap}; "
                "analyze a coarser tier."
            )
        bkps, penalty = _detect_values(vals_all[s:e], config)
        k = len(bkps)
        if not k:
            continue
        bk = np.asarray(bkps, dtype=np.int64)
        out_key.append(np.repeat(keys[s], k))
        out_bk.append(bk)
        out_ts.append(ts_all[s + bk])
        out_pen.append(np.full(k, penalty))
    if not out_key:
        return pd.DataFrame(
            {
                key_col: keys[:0],
                "method": pd.Series(dtype="object"),
                "penalty": pd.Series(dtype="float64"),
                "breakpoint_index": pd.Series(dtype="int32"),
                "breakpoint_ts": ts_all[:0],
            }
        )
    return pd.DataFrame(
        {
            key_col: np.concatenate(out_key),
            "method": config.method,
            "penalty": np.concatenate(out_pen),
            "breakpoint_index": np.concatenate(out_bk).astype(np.int32),
            "breakpoint_ts": np.concatenate(out_ts),
        }
    )


def smooth_partition_pandas(
    df: pd.DataFrame, config: SmoothingConfig, value_col: str = "mean",
    key_col: str = "url_hash",
) -> pd.DataFrame:
    df, keys, starts, ends = _partition_slices(df, key_col)
    vals_all = df[value_col].to_numpy(dtype=np.float64)
    sm = np.empty_like(vals_all)
    for s, e in zip(starts, ends):
        sm[s:e] = _smooth_values(vals_all[s:e], config)
    out = df.copy()
    out["smoothed"] = sm
    out["op"] = config.op
    return out


def forecast_partition_pandas(
    df: pd.DataFrame,
    config: ForecastConfig,
    tier_us: int,
    value_col: str = "mean",
    key_col: str = "url_hash",
) -> pd.DataFrame:
    df, keys, starts, ends = _partition_slices(df, key_col)
    vals_all = df[value_col].to_numpy(dtype=np.float64)
    ts_all = df["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
    h = config.horizon
    hs = np.arange(1, h + 1)
    out_key, out_fts, out_fc = [], [], []
    for s, e in zip(starts, ends):
        try:
            if config.method == "linear":
                fc = linear_forecast(vals_all[s:e], h, config.window_size)
            elif config.method == "ses":
                fc = ses_forecast(vals_all[s:e], h, config.alpha, config.initial_level)
            elif config.method == "holt":
                fc = holt_forecast(vals_all[s:e], h, config.holt)
            else:
                raise RuntimeError(f"Unknown forecast method {config.method!r}")
        except ValueError:
            continue  # series too short / invalid for the model
        out_key.append(np.repeat(keys[s], h))
        out_fts.append(ts_all[e - 1] + hs * tier_us)
        out_fc.append(fc)
    if not out_key:
        return pd.DataFrame(
            {
                key_col: keys[:0],
                "method": pd.Series(dtype="object"),
                "h": pd.Series(dtype="int32"),
                "forecast_ts": pd.Series(dtype="datetime64[us]"),
                "forecast": pd.Series(dtype="float64"),
            }
        )
    n_series = len(out_key)
    return pd.DataFrame(
        {
            key_col: np.concatenate(out_key),
            "method": config.method,
            "h": np.tile(hs.astype(np.int32), n_series),
            "forecast_ts": pd.to_datetime(np.concatenate(out_fts), unit="us"),
            "forecast": np.concatenate(out_fc),
        }
    )
