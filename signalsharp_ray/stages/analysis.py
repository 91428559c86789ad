"""Analysis stage: the reference's algorithms as distributed per-series
operators over rolled-up tier points.

One form over the kernels from signalsharp_ray.kernels: *_sorted run
every series of a SortedTier (rows sorted by key, bucket_ts; a chunk of
buckets in the flagship's post-1m bucket-group tasks), and *_tier build
the output tables from them. PELT with the univariate L2 cost and jump 1
runs every series of at most pelt._SMALL_N_FAST_PATH points as one padded
DP (pelt_l2_segments), and EMA smoothing runs as one padded recurrence
(ema_segments); both give each series exactly what its per-series kernel
gives. Every other method, cost and op, and the forecast, run the
per-series kernel on each series in turn: linear_forecast sums with
numpy's pairwise sum and a BLAS dot, which a padded form could not
reproduce bit for bit. The *_partition_pandas functions are the pandas
views of the *_tier builders over a frame (SortedTier.from_frame).
Per-series state never crosses series.

Quadratic-memory kernels (RBF, L1 medians) are guarded by max_series_len:
longer series are refused loudly rather than silently OOMing a worker —
callers should analyze a coarser tier instead (the whole point of rollup).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa

from ..common.fsio import with_pandas_metadata
from ..kernels.cusum import CUSUMOptions, cusum_changepoints
from ..kernels.extrapolation import HoltOptions, holt_forecast, linear_forecast, ses_forecast
from ..kernels.kalman import KalmanOptions, kalman_filter
from ..kernels.costs import L2Cost
from ..kernels.pelt import PELT, PELTOptions, pelt_l2_segments
from ..kernels.penalty_selection import PELTPenaltySelector, PenaltySelectionOptions
from ..kernels.smoothing import (
    ema_segments,
    exponential_moving_average,
    savitzky_golay,
    simple_moving_average,
    weighted_moving_average,
)
from ..kernels.stats import zscore
from .extract import dict_lookup
from .rollup import SortedTier, us_to_ns

QUADRATIC_COSTS = {"rbf", "l1"}
DEFAULT_MAX_SERIES_LEN = 20_000
QUADRATIC_MAX_SERIES_LEN = 4_000


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


@dataclass
class ForecastConfig:
    method: str = "linear"  # linear | ses | holt
    horizon: int = 3
    window_size: int | None = None
    alpha: float = 0.3
    initial_level: float | None = None
    holt: HoltOptions = field(default_factory=HoltOptions)


def _l2_pelt(config: ChangepointConfig) -> bool:
    """Whether the config runs exact PELT with the L2 cost (on a
    univariate series), the case pelt_l2_segments computes."""
    if config.method != "pelt" or config.jump != 1:
        return False
    opts = PELTOptions(cost_function=config.cost, min_size=config.min_size,
                       cost_kwargs=config.cost_kwargs)
    return isinstance(opts.resolve_cost(), L2Cost)


def changepoints_sorted(keys, values, offsets, config: ChangepointConfig, key_col: str = "url_hash"):
    """(row, penalty, breakpoint_index) of every breakpoint, `row` being
    the sorted partition row the breakpoint falls on. A series longer than
    the config's cap fails the call, the first one named."""
    cap = config.effective_cap()
    n = np.diff(offsets)
    over = np.flatnonzero(n > cap)
    if over.size:
        s = offsets[over[0]]
        raise ValueError(
            f"Series {key_col}={keys[s]} has {n[over[0]]} points > cap {cap}; "
            "analyze a coarser tier."
        )
    if n.size and _l2_pelt(config):
        seg, bk = pelt_l2_segments(values, offsets, config.penalty, config.min_size)
        if not bk.size:
            return np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int32)
        return offsets[seg] + bk, np.full(bk.size, config.penalty), bk.astype(np.int32)
    rows, pens, bks = [], [], []
    for s, e in zip(offsets[:-1], offsets[1:]):
        bkps, penalty = _detect_values(values[s:e], config)
        if len(bkps):
            bk = np.asarray(bkps, dtype=np.int64)
            rows.append(s + bk)
            bks.append(bk)
            pens.append(np.full(bk.size, penalty))
    if not rows:
        return np.zeros(0, np.int64), np.zeros(0), np.zeros(0, np.int32)
    return np.concatenate(rows), np.concatenate(pens), np.concatenate(bks).astype(np.int32)


def smooth_sorted(values, offsets, config: SmoothingConfig) -> np.ndarray:
    if config.op == "ema":
        return ema_segments(values, offsets, config.alpha)
    out = np.empty_like(values)
    for s, e in zip(offsets[:-1], offsets[1:]):
        out[s:e] = _smooth_values(values[s:e], config)
    return out


def forecast_sorted(keys, values, ts_us, offsets, config: ForecastConfig, tier_us: int):
    """(key, h, forecast_ts in us, forecast) rows; a series too short or
    invalid for the model gets none."""
    h = config.horizon
    hs = np.arange(1, h + 1)
    out_key, out_fts, out_fc = [], [], []
    for s, e in zip(offsets[:-1], offsets[1:]):
        try:
            if config.method == "linear":
                fc = linear_forecast(values[s:e], h, config.window_size)
            elif config.method == "ses":
                fc = ses_forecast(values[s:e], h, config.alpha, config.initial_level)
            elif config.method == "holt":
                fc = holt_forecast(values[s:e], h, config.holt)
            else:
                raise RuntimeError(f"Unknown forecast method {config.method!r}")
        except ValueError:
            continue  # series too short / invalid for the model
        out_key.append(np.repeat(keys[s], h))
        out_fts.append(ts_us[e - 1] + hs * tier_us)
        out_fc.append(fc)
    if not out_key:
        return keys[:0], np.zeros(0, np.int32), np.zeros(0, np.int64), np.zeros(0)
    return (np.concatenate(out_key), np.tile(hs.astype(np.int32), len(out_key)),
            np.concatenate(out_fts), np.concatenate(out_fc))


def changepoints_partition_pandas(
    df: pd.DataFrame,
    config: ChangepointConfig,
    value_col: str = "mean",
    key_col: str = "url_hash",
) -> pd.DataFrame:
    """changepoints_tier over a tier frame, as a frame."""
    return changepoints_tier(SortedTier.from_frame(df, key_col), config, value_col,
                             key_col).to_pandas()


def smooth_partition_pandas(
    df: pd.DataFrame, config: SmoothingConfig, value_col: str = "mean",
    key_col: str = "url_hash",
) -> pd.DataFrame:
    """smooth_tier over a tier frame, as a frame."""
    return smooth_tier(SortedTier.from_frame(df, key_col), config, value_col, key_col).to_pandas()


def forecast_partition_pandas(
    df: pd.DataFrame,
    config: ForecastConfig,
    tier_us: int,
    value_col: str = "mean",
    key_col: str = "url_hash",
) -> pd.DataFrame:
    """forecast_tier over a tier frame, as a frame."""
    return forecast_tier(SortedTier.from_frame(df, key_col), config, tier_us, value_col,
                         key_col).to_pandas()


def _const(value: str, n: int) -> pa.Array:
    return pa.array([value] * n, pa.string())


def changepoints_tier(tier, config: ChangepointConfig, value_col: str = "mean",
                      key_col: str = "url_hash", url_dict: pa.Table | None = None) -> pa.Table:
    """The changepoints file's table for a SortedTier; `url_dict` (url_hash,
    url, host) attaches the strings (dict_lookup).

    The tier holds the observed rows only (no gap-fill), so
    `breakpoint_index` counts observed rows of a series, not tier periods:
    a 10-day outage in a 1d series falls between two adjacent indices, and
    `breakpoint_ts` is the first observed bucket after the change."""
    values = tier.cols[value_col].astype(np.float64)
    rows, pen, bk = changepoints_sorted(tier.key, values, tier.offsets, config, key_col)
    keys = tier.key[rows]
    cols = {
        key_col: keys,
        "method": _const(config.method, rows.size),
        "penalty": pen,
        "breakpoint_index": bk,
        "breakpoint_ts": us_to_ns(tier.ts[rows]),
    }
    if url_dict is not None:
        cols.update(dict_lookup(url_dict, keys))
    return with_pandas_metadata(pa.table(cols))


def smooth_tier(tier, config: SmoothingConfig, value_col: str = "mean",
                key_col: str = "url_hash") -> pa.Table:
    t = tier.table(key_col)
    return with_pandas_metadata(t.append_column(
        "smoothed", pa.array(smooth_sorted(tier.cols[value_col].astype(np.float64), tier.offsets, config))
    ).append_column("op", _const(config.op, t.num_rows)))


def forecast_tier(tier, config: ForecastConfig, tier_us: int, value_col: str = "mean",
                  key_col: str = "url_hash") -> pa.Table:
    key, h, fts, fc = forecast_sorted(tier.key, tier.cols[value_col].astype(np.float64), tier.ts,
                                      tier.offsets, config, tier_us)
    return with_pandas_metadata(pa.table({
        key_col: key, "method": _const(config.method, key.size), "h": h,
        "forecast_ts": us_to_ns(fts), "forecast": fc,
    }))
