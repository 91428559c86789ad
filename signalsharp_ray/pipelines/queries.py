"""The queries()/oracle_sql() registry: one entry per implemented operator
(SURVEY.md §2 + training-data ops), each runnable over a testdata sf dir.

Contract (driver): each callable takes sf_dir and returns a Dataset /
DataFrame / pyarrow Table; the paired oracle_sql entry is ANSI SQL DuckDB
runs on the same parquet (views: region nation customer supplier part orders
lineitem events documents embeddings). Column names MATCH between both sides;
floating-point results of multi-step arithmetic are ROUND(x, 6)ed on BOTH
sides so aggregation-order differences cannot flip the value hash.

Series convention for the events table: series key = event_type; point order
= (ts, event_id) ascending (deterministic under timestamp ties).
"""

from __future__ import annotations

import importlib

import numpy as np
import pandas as pd

from ..kernels import resampling, stats
from ..kernels.cusum import CUSUMOptions, cusum_changepoints
from ..kernels.extrapolation import (
    HoltOptions,
    holt_forecast,
    linear_forecast,
    ses_forecast,
)
from ..kernels.kalman import kalman_filter
from ..kernels.pelt import pelt_breakpoints
from ..kernels.penalty_selection import PenaltySelectionOptions
from ..kernels.smoothing import (
    exponential_moving_average,
    savitzky_golay,
    simple_moving_average,
    weighted_moving_average,
)
from ..stages.gapfill import gapfill_tier
from ..stages.rollup import cascade_tier, rollup_tier

EVENT_COLS = ["event_id", "ts", "event_type", "value"]


def _events(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns or EVENT_COLS)


def _documents(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _embeddings(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/embeddings.parquet")


def _r6(x):
    return np.round(np.asarray(x, dtype=np.float64), 6)


def _r6h(x):
    """Round-half-UP to 6 decimals (matches SQL ROUND's half-away-from-zero
    for non-negative values). Required for RATIONAL-valued outputs like
    Jaccard ratios, which land on exact decimal midpoints (e.g. 1/128 =
    0.0078125) where numpy's banker's rounding and SQL disagree."""
    v = np.asarray(x, dtype=np.float64)
    return np.floor(v * 1e6 + 0.5) / 1e6


def _r6away(x):
    """Round-half-AWAY-FROM-ZERO to 6 decimals == DuckDB ROUND(double, 6)
    for both signs (numpy's banker's rounding differs on midpoints, which
    occur whenever outputs are arithmetic on exact decimal inputs)."""
    v = np.asarray(x, dtype=np.float64)
    return np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6


def _sorted_group(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["ts", "event_id"])


def _events_v100(sf_dir: str, key_cols=("event_type",)):
    """events with value as EXACT int64 centivalue (the synthetic value
    column is 2-decimal data; verified max |value*100 - round| < 4e-12).

    Why: float SUM over distributed blocks is association-dependent — at
    sf0.1 a per-bucket float sum can land on the far side of a ROUND(x, 6)
    edge from DuckDB's sequential sum (observed: 44.569062 vs 44.569063).
    Integer sums are exact and order-independent at ANY scale, the same
    scheme as pricing_summary's money sums; decimals are reconstructed once
    at the end (k/100.0 is the identical double to the stored value)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    cols = list(key_cols)

    def to100(batch: pa.Table) -> pa.Table:
        out = {k: batch[k] for k in cols}
        out["ts"] = batch["ts"]
        # half_towards_infinity == SQL ROUND's half-away-from-zero; the
        # synthetic 2-decimal data never hits a midpoint, but a true
        # half-cent input must round the same way the oracle does.
        out["value"] = pc.cast(
            pc.round(pc.multiply(batch["value"], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table(out)

    ds = _events(sf_dir, ["event_id", "ts", "user_id", "event_type", "value"])
    return ds.map_batches(to100, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# rollup tiers (events, keyed by event_type)
# ---------------------------------------------------------------------------


def _finish_rollup(ds):
    """Format a rollup over CENTIVALUE (int64, from _events_v100) rows:
    sums are exact integers, decimals reconstructed once — bitwise-equal
    to the oracle at any scale and block layout."""

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        cnt = batch["count"].astype(np.int64)
        sum_d = batch["sum"].to_numpy(dtype=np.float64) / 100.0
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bucket_ts": batch["bucket_ts"],
                "cnt": cnt,
                "sum_value": _r6away(sum_d),
                "min_value": _r6away(batch["min"].to_numpy(np.float64) / 100.0),
                "max_value": _r6away(batch["max"].to_numpy(np.float64) / 100.0),
                "mean_value": _r6away(sum_d / cnt.to_numpy()),
            }
        )

    return ds.map_batches(fmt, batch_format="pandas")


def q_rollup_1m(sf_dir: str):
    """Minutely continuous aggregate per event_type: partial+final count/sum/min/max with exact centivalue sums."""
    return _finish_rollup(rollup_tier(_events_v100(sf_dir), "1m", key_cols=["event_type"]))


def q_rollup_1h_cascade(sf_dir: str):
    """Hourly tier re-aggregated exactly from the 1m tier partials (the continuous-aggregate cascade)."""
    t1m = rollup_tier(_events_v100(sf_dir), "1m", key_cols=["event_type"])
    return _finish_rollup(cascade_tier(t1m, "1h", key_cols=["event_type"]))


def q_rollup_1d_cascade(sf_dir: str):
    """Daily tier re-aggregated exactly from the hourly tier (sum of sums, min of mins) — never touches raw points."""
    t1m = rollup_tier(_events_v100(sf_dir), "1m", key_cols=["event_type"])
    t1h = cascade_tier(t1m, "1h", key_cols=["event_type"])
    return _finish_rollup(cascade_tier(t1h, "1d", key_cols=["event_type"]))


_ROLLUP_SQL = """
WITH v AS (
  SELECT event_type, ts, CAST(ROUND(value * 100) AS BIGINT) AS v100 FROM events
)
SELECT event_type,
       date_trunc('{unit}', ts) AS bucket_ts,
       COUNT(*) AS cnt,
       ROUND(CAST(SUM(v100) AS DOUBLE) / 100, 6) AS sum_value,
       ROUND(CAST(MIN(v100) AS DOUBLE) / 100, 6) AS min_value,
       ROUND(CAST(MAX(v100) AS DOUBLE) / 100, 6) AS max_value,
       ROUND(CAST(SUM(v100) AS DOUBLE) / 100 / COUNT(*), 6) AS mean_value
FROM v GROUP BY 1, 2
"""


def q_rollup_1h_by_user(sf_dir: str):
    """Higher-cardinality key (user_id) — exercises the shuffle with many
    more groups than event_type. Centivalue sums (exact at any layout)."""
    ds = rollup_tier(
        _events_v100(sf_dir, key_cols=("user_id",)),
        "1h",
        key_cols=["user_id"],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "bucket_ts": batch["bucket_ts"],
                "cnt": batch["count"].astype(np.int64),
                "sum_value": _r6away(batch["sum"].to_numpy(np.float64) / 100.0),
            }
        )

    return ds.map_batches(fmt, batch_format="pandas")


# ---------------------------------------------------------------------------
# per-series index-bucket resampling (reference Resampling.cs semantics)
# ---------------------------------------------------------------------------


def _per_series(sf_dir, fn):
    return _events(sf_dir).groupby("event_type").map_groups(fn, batch_format="pandas")


def q_downsample(sf_dir: str, factor: int = 3):
    """Every 3rd point per event_type series by (ts, event_id) order — the reference's stride Downsample re-expressed distributed."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        return df.iloc[::factor][["event_id", "event_type", "ts", "value"]]

    return _per_series(sf_dir, fn)


def _segment_query(sf_dir, op, factor=10):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        agg = {
            "mean": resampling.segment_mean,
            "median": resampling.segment_median,
            "min": resampling.segment_min,
            "max": resampling.segment_max,
        }[op](vals, factor)
        n = vals.size
        counts = np.diff(np.append(np.arange(0, n, factor), n))
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "bucket": np.arange(agg.size, dtype=np.int64),
                f"seg_{op}": _r6(agg),
                "seg_n": counts.astype(np.int64),
            }
        )

    return _per_series(sf_dir, fn)


def q_segment_mean(sf_dir: str):
    """Tumbling 10-point segment mean per series (reference SegmentMean semantics, ragged tail included)."""
    return _segment_query(sf_dir, "mean")


def q_segment_median(sf_dir: str):
    """Tumbling 10-point segment median per series (sort/quickselect-identical median, even = mean of middle two)."""
    return _segment_query(sf_dir, "median")


def q_segment_min(sf_dir: str):
    """Tumbling 10-point segment min per series (reference SegmentMin semantics, ragged tail included)."""
    return _segment_query(sf_dir, "min")


def q_segment_max(sf_dir: str):
    """Tumbling 10-point segment max per series (reference SegmentMax semantics, ragged tail included)."""
    return _segment_query(sf_dir, "max")


_SEGMENT_SQL = """
WITH r AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS rn
  FROM events
)
SELECT event_type,
       CAST(FLOOR(rn / {factor}) AS BIGINT) AS bucket,
       ROUND({agg}(value), 6) AS seg_{op},
       COUNT(*) AS seg_n
FROM r GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# smoothing (per event_type series)
# ---------------------------------------------------------------------------


def q_sma(sf_dir: str, window: int = 5):
    """5-point simple moving average per series ('valid' output, window never crosses series boundaries)."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        sma = simple_moving_average(vals, window)  # 'valid'
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "idx": np.arange(window - 1, vals.size, dtype=np.int64),
                "sma": _r6(sma),
            }
        )

    return _per_series(sf_dir, fn)


def q_wma(sf_dir: str):
    """Weighted moving average (weights 0.1/0.3/0.6) per series, matching the reference's normalization."""
    weights = np.array([0.1, 0.3, 0.6])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        wma = weighted_moving_average(vals, weights)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "idx": np.arange(2, vals.size, dtype=np.int64),
                "wma": _r6(wma),
            }
        )

    return _per_series(sf_dir, fn)


def q_ema(sf_dir: str, alpha: float = 0.3):
    """Exponential moving average (alpha=0.3) per series; the sequential recurrence is mirrored by a recursive-CTE oracle."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "idx": np.arange(vals.size, dtype=np.int64),
                "ema": _r6(exponential_moving_average(vals, alpha)),
            }
        )

    return _per_series(sf_dir, fn)


def q_savgol(sf_dir: str):
    """Savitzky-Golay smoothing with the reference's quirks (middle restore, edge polyfit, short passthrough); rational-projection oracle."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "idx": np.arange(vals.size, dtype=np.int64),
                "smoothed": _r6(savitzky_golay(vals, 5, 2)),
            }
        )

    return _per_series(sf_dir, fn)


def q_kalman(sf_dir: str):
    """1-D Kalman filter smoothing per series (public formulation; docs-only in the reference); recursive-CTE oracle."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "idx": np.arange(vals.size, dtype=np.int64),
                "filtered": _r6(kalman_filter(vals)),
            }
        )

    return _per_series(sf_dir, fn)


# ---------------------------------------------------------------------------
# normalization / statistics
# ---------------------------------------------------------------------------


def q_zscore(sf_dir: str):
    """Per-series z-score normalization ((x - mean) / population std; zero sigma -> zeros)."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        vals = df["value"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {"event_id": df["event_id"].astype(np.int64), "zvalue": _r6(stats.zscore(vals))}
        )

    return _per_series(sf_dir, fn)


def q_series_stats(sf_dir: str):
    """Whole-series statistics per event_type: n, mean, population std, median, G1 skewness (reference formulas)."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        vals = df["value"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n": [np.int64(vals.size)],
                "mean_value": [_r6(stats.mean(vals))],
                "std_pop": [_r6(stats.standard_deviation(vals))],
                "median_value": [_r6(stats.median(vals))],
                "skew_g1": [_r6(stats.skewness(vals))],
            }
        )

    return _per_series(sf_dir, fn)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------


def q_linear_forecast(sf_dir: str, horizon: int = 3):
    """OLS line per series extrapolated from the LAST OBSERVED value (the reference's anchor quirk), horizon 3."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        fc = linear_forecast(vals, horizon)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "h": np.arange(1, horizon + 1, dtype=np.int64),
                "forecast": _r6(fc),
            }
        )

    return _per_series(sf_dir, fn)


def q_ses_forecast(sf_dir: str, horizon: int = 3, alpha: float = 0.3):
    """Simple exponential smoothing forecast (alpha=0.3, flat repeat of the final level; first point smoothed into the init level)."""
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        fc = ses_forecast(vals, horizon, alpha)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "h": np.arange(1, horizon + 1, dtype=np.int64),
                "forecast": _r6(fc),
            }
        )

    return _per_series(sf_dir, fn)


def q_holt_forecast(sf_dir: str, horizon: int = 3):
    """Holt linear-trend forecast (additive, alpha=beta=0.5) per series; recursive-CTE oracle replays the recurrence."""
    opts = HoltOptions(alpha=0.5, beta=0.5)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        fc = holt_forecast(vals, horizon, opts)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "h": np.arange(1, horizon + 1, dtype=np.int64),
                "forecast": _r6(fc),
            }
        )

    return _per_series(sf_dir, fn)


def q_holt_damped(sf_dir: str, horizon: int = 3):
    """Damped-trend Holt (phi=0.9 fixed) — covers the damping path
    (phi_sum = sum phi^i) with a recursive-CTE oracle."""
    opts = HoltOptions(alpha=0.5, beta=0.5, damp_trend=True, phi=0.9)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)
        fc = holt_forecast(vals, horizon, opts)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "h": np.arange(1, horizon + 1, dtype=np.int64),
                "forecast": _r6(fc),
            }
        )

    return _per_series(sf_dir, fn)


def q_holt_multiplicative(sf_dir: str, horizon: int = 3):
    """Multiplicative-trend Holt on the strictly-positive 1h count series
    (reference positivity contract) with a recursive-CTE oracle."""
    opts = HoltOptions(alpha=0.5, beta=0.5, trend_type="multiplicative")
    t1h = rollup_tier(_events(sf_dir), "1h", key_cols=["event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        vals = df["count"].to_numpy(dtype=np.float64)
        fc = holt_forecast(vals, horizon, opts)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "h": np.arange(1, horizon + 1, dtype=np.int64),
                "forecast": _r6(fc),
            }
        )

    return t1h.groupby("event_type").map_groups(fn, batch_format="pandas")


# ---------------------------------------------------------------------------
# gap-fill (1h tier by event_type)
# ---------------------------------------------------------------------------


def q_gapfill_locf_1h(sf_dir: str):
    """Dense hourly grid per series with last-observation-carried-forward fill and gap_filled flags (ASOF-join oracle)."""
    t1h = rollup_tier(_events_v100(sf_dir), "1h", key_cols=["event_type"])

    def round_mean(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        # centivalue sums are exact, so the mean is the identical double on
        # both sides at any scale; LOCF propagates it bit-identically
        batch["mean"] = _r6away(
            (batch["sum"].to_numpy(np.float64) / 100.0) / batch["count"].to_numpy()
        )
        return batch

    t1h = t1h.map_batches(round_mean, batch_format="pandas")
    filled = gapfill_tier(t1h, "1h", "locf", key_cols=("event_type",))

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bucket_ts": batch["bucket_ts"],
                "value": _r6(batch["value"]),
                "gap_filled": batch["gap_filled"].astype(bool),
            }
        )

    return filled.map_batches(fmt, batch_format="pandas")


# ---------------------------------------------------------------------------
# changepoints (rows-only; sequential DP not expressible in SQL)
# ---------------------------------------------------------------------------


def q_cusum_changepoints(sf_dir: str):
    """Two-sided CUSUM changepoints per z-normalized event_type series (recursive-CTE oracle carries the scan state bitwise)."""
    opts = CUSUMOptions(threshold_factor=1.5, slack_factor=0.1)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        # z ROUNDED to 6 on both the engine and oracle side: with identical
        # inputs the CUSUM recurrence is the same float ops in the same
        # order, so breakpoint indices match bitwise (the raw zscore would
        # differ by summation order between numpy and the SQL engine)
        z = _r6(stats.zscore(df["value"].to_numpy(dtype=np.float64)))
        bkps = cusum_changepoints(z, opts)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], len(bkps)),
                "breakpoint_index": np.asarray(bkps, dtype=np.int64),
            }
        )

    return _per_series(sf_dir, fn)


def q_pelt_changepoints(sf_dir: str):
    """PELT/L2 on the 1d rollup count series per event_type."""
    t1d = rollup_tier(_events(sf_dir), "1d", key_cols=["event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        vals = df["count"].to_numpy(dtype=np.float64)
        bkps = pelt_breakpoints(vals, penalty=10.0, cost="l2", min_size=2)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], len(bkps)),
                "breakpoint_index": np.asarray(bkps, dtype=np.int64),
            }
        )

    return t1d.groupby("event_type").map_groups(fn, batch_format="pandas")


def q_pelt_step_detection(sf_dir: str, step: int = 40):
    """SQL-verifiable PELT: a noiseless two-level step series (period
    `step` over the 1h bucket index, levels 0/100) is built per event_type
    from the distributed rollup; exact PELT/L2 (penalty 5, min_size 1) must
    recover precisely the level-change indices — multiples of `step` — which
    the DuckDB oracle derives in closed form. This drives the real
    distributed PELT path (rollup -> per-series DP) with an independent
    ground truth, covering the DP/backtrack/pruning machinery the
    free-form changepoint queries cannot oracle."""
    t1h = rollup_tier(_events(sf_dir), "1h", key_cols=["event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        n = len(df)
        idx = np.arange(n, dtype=np.int64)
        vals = 100.0 * ((idx // step) % 2).astype(np.float64)
        bkps = pelt_breakpoints(vals, penalty=5.0, cost="l2", min_size=1)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], len(bkps)),
                "breakpoint_index": np.asarray(bkps, dtype=np.int64),
            }
        )

    return t1h.groupby("event_type").map_groups(fn, batch_format="pandas")


def q_pelt_cost_step(sf_dir: str, step: int = 40):
    """SQL-verifiable PELT across SIX cost functions: on noiseless
    two-level step series (transformed per cost family: 0/100 for
    l2/l1/rbf/gaussian, 1/100 for poisson, 0/1 for bernoulli), every cost
    must recover exactly the closed-form level-change indices — extra
    splits reduce cost by 0 (+penalty), merges across a step explode it.
    Drives the DP + pruning + each cost's prefix/Gram machinery through
    the distributed path with independent ground truth."""
    t1h = rollup_tier(_events(sf_dir), "1h", key_cols=["event_type"])
    # ar and jump>1 are deliberately absent: AR detects DYNAMICS changes
    # (a mean step is not its ground truth) and the Jump approximation is
    # approximate by reference semantics — both are covered by golden
    # fixtures instead (tests/test_pelt.py, tests/test_costs.py)
    costs = (
        "l2", "l1", "rbf", "gaussian", "poisson", "bernoulli", "binomial",
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        n = len(df)
        idx = np.arange(n, dtype=np.int64)
        level = ((idx // step) % 2).astype(np.float64)
        rows_et, rows_cost, rows_bk = [], [], []
        for cost in costs:
            kwargs: dict = {}
            jump = 1
            name = cost
            if cost == "bernoulli":
                series = level
            elif cost == "poisson":
                series = 1.0 + 99.0 * level
            elif cost == "binomial":
                # 2-row (k; n) input: success proportion steps 1/10 <-> 9/10
                series = np.vstack([1.0 + 8.0 * level, np.full(n, 10.0)])
            else:
                series = 100.0 * level
            if name in ("l1", "rbf") and series.ndim == 1:
                series = series[:500]
            bkps = pelt_breakpoints(
                series, penalty=5.0, cost=cost, min_size=1, jump=jump, **kwargs
            )
            rows_et.extend([df["event_type"].iloc[0]] * len(bkps))
            rows_cost.extend([name] * len(bkps))
            rows_bk.extend(int(b) for b in bkps)
        return pd.DataFrame(
            {
                "event_type": rows_et,
                "cost": rows_cost,
                "breakpoint_index": np.asarray(rows_bk, dtype=np.int64),
            }
        )

    return t1h.groupby("event_type").map_groups(fn, batch_format="pandas")


def q_pelt_multivariate_step(sf_dir: str, step: int = 40):
    """SQL-verifiable MULTIVARIATE PELT (reference double[,] semantics):
    dims = [step, 2*step] noiseless series over the 1h bucket index; the
    multivariate L2 DP must recover exactly the shared level-change
    indices the oracle derives in closed form."""
    t1h = rollup_tier(_events(sf_dir), "1h", key_cols=["event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        n = len(df)
        idx = np.arange(n, dtype=np.int64)
        base = 100.0 * ((idx // step) % 2).astype(np.float64)
        mat = np.vstack([base, 2.0 * base])
        bkps = pelt_breakpoints(mat, penalty=5.0, cost="l2", min_size=1)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], len(bkps)),
                "breakpoint_index": np.asarray(bkps, dtype=np.int64),
            }
        )

    return t1h.groupby("event_type").map_groups(fn, batch_format="pandas")


def q_pelt_auto_penalty_step(sf_dir: str, step: int = 40):
    """SQL-verifiable penalty SELECTION: on the noiseless step series every
    admissible penalty yields exactly the true segmentation (extra splits
    reduce cost by 0, merges across a step explode it), so the BIC-selected
    breakpoint COUNT equals the closed-form count of level changes."""
    from ..kernels.pelt import PELT, PELTOptions
    from ..kernels.penalty_selection import PELTPenaltySelector

    t1h = rollup_tier(_events(sf_dir), "1h", key_cols=["event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        n = len(df)
        idx = np.arange(n, dtype=np.int64)
        vals = 100.0 * ((idx // step) % 2).astype(np.float64)
        sel = PELTPenaltySelector(PELT(PELTOptions(cost_function="gaussian", min_size=1)))
        res = sel.fit_and_select(vals, PenaltySelectionOptions(method="bic"))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_changepoints": [np.int64(len(res.optimal_breakpoints))],
            }
        )

    return t1h.groupby("event_type").map_groups(fn, batch_format="pandas")


def q_pelt_auto_penalty(sf_dir: str):
    """BIC-selected penalty (Gaussian cost) on the 1d mean series."""
    from ..kernels.pelt import PELT, PELTOptions
    from ..kernels.penalty_selection import PELTPenaltySelector

    t1d = rollup_tier(_events(sf_dir), "1d", key_cols=["event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        vals = df["mean"].to_numpy(dtype=np.float64)
        sel = PELTPenaltySelector(PELT(PELTOptions(cost_function="gaussian", min_size=2)))
        res = sel.fit_and_select(vals, PenaltySelectionOptions(method="bic"))
        k = len(res.optimal_breakpoints)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_changepoints": [np.int64(k)],
                "selected_penalty": [_r6(res.selected_penalty)],
            }
        )

    return t1d.groupby("event_type").map_groups(fn, batch_format="pandas")


# ---------------------------------------------------------------------------
# documents: text analysis + dedup
# ---------------------------------------------------------------------------


def q_token_count(sf_dir: str):
    """Whitespace token count per document, vectorized pandas-str kernels."""
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "n_tokens_ws": text.str.split().str.len().fillna(0).astype(np.int64),
            }
        )

    return _documents(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


def q_char_stats(sf_dir: str):
    """ASCII-explicit char classes so RE2 (DuckDB) and Python agree."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        n_chars = text.str.len().astype(np.int64)
        n_spaces = text.str.count(" ").astype(np.int64)
        n_digits = text.str.count(r"[0-9]").astype(np.int64)
        n_punct = text.str.count(r"[.,;:!?]").astype(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "n_chars": n_chars,
                "n_spaces": n_spaces,
                "n_digits": n_digits,
                "n_punct": n_punct,
            }
        )

    return _documents(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


def q_exact_dedup(sf_dir: str):
    """One row per distinct text with representative min doc_id and copy count; only 64-bit content hashes cross the shuffle."""
    from ..stages.dedup import exact_dedup

    return exact_dedup(_documents(sf_dir))


def q_quality_scores(sf_dir: str):
    """Per-document quality heuristics (length, punctuation/digit/upper ratios, mean word length) — actor-pool regexes."""
    from ..stages.text import quality_scores

    ds = quality_scores(_documents(sf_dir))

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        for c in ("punct_ratio", "digit_ratio", "upper_ratio", "stopword_ratio", "quality_score"):
            batch[c] = _r6(batch[c])
        return batch

    return ds.map_batches(fmt, batch_format="pandas")


def q_language_id(sf_dir: str):
    """Heuristic n-gram/stopword language identification per document (actor pool, tables built once)."""
    from ..stages.text import language_id

    return language_id(_documents(sf_dir))


def q_fingerprints(sf_dir: str):
    """64-bit md5 content fingerprint per document (little-endian first 8 bytes == DuckDB md5_number_upper)."""
    from ..stages.text import fingerprints

    return fingerprints(_documents(sf_dir))


def q_vocabulary(sf_dir: str, k: int = 100):
    """Corpus top-K token frequencies (in-batch partial counts -> bucketed
    exact sum -> per-bucket top-K -> tiny global merge)."""
    from ..stages.text import vocabulary_topk

    out = vocabulary_topk(_documents(sf_dir, ["doc_id", "text"]), k=k)
    return pd.DataFrame({"word": out["word"], "n": out["n"].astype(np.int64)})


def q_decontamination(sf_dir: str, n_probes: int = 5, threshold: float = 0.5):
    """Benchmark decontamination: max word-3-shingle Jaccard of every doc
    against a probe set (here: the first n_probes documents, standing in
    for benchmark passages). Probes broadcast once — bounded state."""
    import pyarrow.parquet as pq

    from ..stages.text import contamination_scores

    probes_df = (
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
        .head(n_probes)
    )
    ds = contamination_scores(
        _documents(sf_dir, ["doc_id", "text"]),
        probes_df["text"].fillna("").tolist(),
        threshold=threshold,
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "max_probe_jaccard": _r6h(batch["max_probe_jaccard"]),
                "contaminated": batch["contaminated"].astype(bool),
            }
        )

    return ds.map_batches(fmt, batch_format="pandas")


def q_minhash_near_dups(sf_dir: str):
    """MinHash-LSH banded candidate pairs verified by exact Jaccard; exact counterpart jaccard_pairs is oracle-checked."""
    from ..stages.dedup import minhash_dedup_pairs

    ds = minhash_dedup_pairs(
        _documents(sf_dir), threshold=0.5, num_perm=64, bands=32
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["jaccard"] = _r6(batch["jaccard"])
        return batch

    return ds.map_batches(fmt, batch_format="pandas")


def q_simhash_near_dups(sf_dir: str):
    """SimHash near-dup pairs (hamming <= 3) via Manku 6-block multi-table blocking, each pair emitted exactly once."""
    from ..stages.dedup import simhash_near_dup_pairs

    return simhash_near_dup_pairs(_documents(sf_dir), max_hamming=3)


def q_jaccard_pairs(sf_dir: str, threshold: float = 0.5):
    """EXACT word-3-shingle Jaccard near-dup pairs (distributed inverted
    index; SQL-verifiable, unlike the minhash approximation)."""
    from ..stages.dedup import exact_jaccard_pairs

    ds = exact_jaccard_pairs(_documents(sf_dir), threshold=threshold)

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_a": batch["doc_a"].astype(np.int64),
                "doc_b": batch["doc_b"].astype(np.int64),
                "jaccard": _r6h(batch["jaccard"]),
            }
        )

    return ds.map_batches(fmt, batch_format="pandas")


# ---------------------------------------------------------------------------
# embeddings: similarity search
# ---------------------------------------------------------------------------


def _query_vector(sf_dir: str) -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet")
    df = t.to_pandas()
    row = df.loc[df["vec_id"] == df["vec_id"].min(), "embedding"].iloc[0]
    return np.asarray(row, dtype=np.float64)


def q_dedup_clusters(sf_dir: str, threshold: float = 0.5):
    """Near-duplicate CLUSTERS: DISTRIBUTED connected components (iterative
    min-label propagation, stages/dedup.connected_components) over the
    exact-Jaccard pair graph — one (doc_id, cluster_rep=min doc in
    component) row per doc that has at least one near-dup. Nothing
    graph-sized touches the driver: each round is a bucketed join + min
    aggregate over int64 label rows, so the operator survives the
    billions of near-dup edges a web corpus produces (a driver-side
    union-find cannot). This is the 'keep one per cluster' primitive a
    training-data pipeline filters with."""
    from ..stages.dedup import connected_components, exact_jaccard_pairs

    pairs = exact_jaccard_pairs(_documents(sf_dir), threshold=threshold)
    return connected_components(pairs)


def q_knn_cosine(sf_dir: str, k: int = 10):
    """Exact cosine top-10 neighbors of the first embedding: broadcast query, per-batch matmul partial top-k."""
    from ..stages.similarity import knn_brute_force

    q = _query_vector(sf_dir)
    ds = _embeddings(sf_dir)
    # arrow expression filter (vectorized; pushes into the scan) — never a
    # per-row python predicate
    out = knn_brute_force(ds.filter(expr="vec_id != 0"), q[None, :], k=k)
    return pd.DataFrame(
        {"vec_id": out["vec_id"].astype(np.int64), "cosine": _r6(out["cosine"])}
    )


def q_embedding_near_dups(sf_dir: str, threshold: float = 0.35):
    """All embedding pairs with cosine >= threshold — EXACT, blocked-cartesian over object-store chunks."""
    from ..stages.similarity import embedding_near_dup_pairs

    out = embedding_near_dup_pairs(_embeddings(sf_dir), threshold=threshold).to_pandas()
    if out.empty or "a" not in out.columns:
        return pd.DataFrame(
            {
                "a": pd.Series(dtype="int64"),
                "b": pd.Series(dtype="int64"),
                "cosine": pd.Series(dtype="float64"),
            }
        )
    return pd.DataFrame(
        {
            "a": out["a"].astype(np.int64),
            "b": out["b"].astype(np.int64),
            "cosine": _r6(out["cosine"]),
        }
    )


def q_embedding_near_dups_centroid(sf_dir: str, threshold: float = 0.35):
    """Same exact pair set as embedding_near_dups, through the 100-TB plan:
    centroid-bucketed angular pruning + per-cell-pair verification (no
    O((n/chunk)^2) all-pairs task grid). Shares the SQL oracle with the
    blocked-cartesian variant — both are exact, so results are identical."""
    from ..stages.similarity import embedding_near_dup_pairs_centroid

    out = embedding_near_dup_pairs_centroid(
        _embeddings(sf_dir), threshold=threshold
    ).to_pandas()
    if out.empty or "a" not in out.columns:
        return pd.DataFrame(
            {
                "a": pd.Series(dtype="int64"),
                "b": pd.Series(dtype="int64"),
                "cosine": pd.Series(dtype="float64"),
            }
        )
    return pd.DataFrame(
        {
            "a": out["a"].astype(np.int64),
            "b": out["b"].astype(np.int64),
            "cosine": _r6(out["cosine"]),
        }
    )


def q_ivf_knn(sf_dir: str, k: int = 10):
    """Approximate cosine top-k probing the nearest IVF centroid cells; exact counterpart knn_cosine is oracle-checked."""
    from ..stages.similarity import ivf_knn

    q = _query_vector(sf_dir)
    out = ivf_knn(_embeddings(sf_dir), q[None, :], k=k, n_clusters=8, n_probe=4)
    return pd.DataFrame(
        {"vec_id": out["vec_id"].astype(np.int64), "cosine": _r6(out["cosine"])}
    )


def q_lsh_knn(sf_dir: str, k: int = 10):
    """Random-hyperplane LSH candidate generation + exact rerank. Rows-only
    (approximate-by-design recall); its exact counterpart knn_cosine IS
    oracle-checked, and tests assert recall against it."""
    from ..stages.similarity import lsh_knn

    q = _query_vector(sf_dir)
    out = lsh_knn(
        _embeddings(sf_dir).filter(expr="vec_id != 0"),
        q[None, :],
        k=k,
        n_tables=8,
        n_bits=10,
        n_probe_bits=1,
    )
    return pd.DataFrame(
        {"vec_id": out["vec_id"].astype(np.int64), "cosine": _r6(out["cosine"])}
    )


# ---------------------------------------------------------------------------
# multimodal plumbing (synthetic media; rows-only)
# ---------------------------------------------------------------------------


def q_media_features(sf_dir: str):
    """Native media decode (REAL byte-level PNM/WAV parsing plus the
    pure-numpy baseline-JPEG codec — every 2nd image payload is a real
    compressed JPEG) -> per-item feature vectors; deterministic synthetic
    payloads, rows-only (no parquet-table equivalent)."""
    import ray.data as rd

    from ..stages.multimodal import extract_features, synth_media_table

    media = rd.from_pandas(synth_media_table(64, real_payloads=True))
    out = extract_features(media, mode="native").to_pandas()
    out["feature_mean"] = _r6([np.asarray(f).mean() for f in out["feature"]])
    return out[["media_id", "kind", "feature_mean"]]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


# Driver sample window (round-4 VERDICT items 3+7): the driver grades the
# FIRST 50 names in dict insertion order, which before round 5 was a static
# list — positions 51-614 (92% of the registry) would never receive
# driver-grade rows/schema/hash signal again. The window is now
# _FIXED_HEADS (the §2 reference-operator + LLM-family representatives,
# permanently graded every round) + a ROTATION of the remaining slots
# through the never-yet-graded names + exactly ONE heavy (>=40 s at
# sf0.01) name placed last. Rotation state is the set of names appearing
# in the accumulated CORRECTNESS_r*.json files at the repo root: ordering
# the pool "never-graded first (alphabetical), then already-graded" means
# each round's driver run automatically advances the rotation — no round
# counter to maintain, deterministic within a round (the current round's
# file doesn't exist while it runs).
_FIXED_HEADS = [
    # §2 changepoint / smoothing / forecast / rollup family
    # (+ the round-5 reference-roadmap additions: BOCD, Gaussian smoothing,
    # Butterworth, DFT features, ARIMA, spline resampling)
    "pelt_step_detection", "cusum_changepoints", "bocd_changepoints",
    "ema", "savgol", "kalman", "gaussian_smooth", "butterworth_lowpass",
    "dft_magnitudes", "spline_resample", "fourier_resample",
    "pca_top_component",
    "ses_forecast", "holt_winters", "linear_forecast", "arima_forecast",
    "optimize_nm_level",
    "zscore", "segment_mean", "downsample",
    "rollup_1h_cascade", "gapfill_locf_1h", "gapfill_linear_1h",
    "gorilla_roundtrip_audit",
    # LLM-data family heads
    "exact_dedup", "dedup_incremental", "minhash_signatures", "lsh_verify",
    "knn_cosine", "source_rate_sample", "mixing_weights",
    "embedding_near_dups_centroid", "token_count", "quality_scores",
    "language_id", "corpus_filter",
]

# BASELINE.md slow-oracle watchlist (>=40 s at sf0.01). At most ONE per
# window, placed LAST so the regular names grade first under the driver's
# budget; preference order = cheapest first when none is fresh.
_HEAVY_NAMES = [
    "minhash_estimate_error",      # ~40 s at sf0.01
    "jaccard_pairs",               # ~40 s
    "dedup_clusters",              # ~39 s
    "lsh_recall_by_jaccard",       # ~65-95 s
]

_WINDOW_SIZE = 50


def _driver_graded_names() -> tuple:
    """(names graded in any prior round, number of prior rounds)."""
    import glob
    import json
    import os

    root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..")
    )
    files = sorted(glob.glob(os.path.join(root, "CORRECTNESS_r*.json")))
    graded: set = set()
    for f in files:
        try:
            with open(f) as fh:
                graded.update(json.load(fh).keys())
        except (OSError, ValueError):
            continue
    return graded, len(files)


def driver_window(names) -> list:
    """The 50 names the driver will grade this round, in order."""
    names = set(names)
    graded, n_rounds = _driver_graded_names()
    heads = [n for n in _FIXED_HEADS if n in names]
    heavies = [h for h in _HEAVY_NAMES if h in names]
    heavy_pick = []
    if heavies:
        fresh = [h for h in heavies if h not in graded]
        heavy_pick = [fresh[0] if fresh else heavies[n_rounds % len(heavies)]]
    pool = sorted(n for n in names if n not in heads and n not in heavies)
    never = [n for n in pool if n not in graded]
    seen = [n for n in pool if n in graded]
    slots = max(0, _WINDOW_SIZE - len(heads) - len(heavy_pick))
    return heads + (never + seen)[:slots] + heavy_pick


# Legacy ordering for positions 51+ (kept so the non-window tail stays in
# the familiar, family-grouped order; the driver never reaches it).
_PRIORITY_ORDER = [
    # §2 changepoint / smoothing / forecast family (never driver-sampled
    # before round 3 despite being the reference-critical operators)
    "pelt_step_detection", "pelt_cost_step", "pelt_multivariate_step",
    "pelt_auto_penalty_step", "cusum_changepoints",
    "ema", "savgol", "sma", "wma", "kalman",
    "ses_forecast", "holt_forecast", "holt_damped", "holt_multiplicative",
    "holt_winters", "linear_forecast", "optimize_grid_alpha",
    "optimize_nm_level",
    "zscore", "series_stats",
    "segment_mean", "segment_median", "segment_min", "segment_max",
    "downsample", "rollup_1m", "rollup_1h_cascade", "rollup_1d_cascade",
    "gapfill_locf_1h", "gapfill_linear_1h",
    # the codec leg (north-rule compressed-block contract), hash-verified
    "gorilla_roundtrip_audit",
    # exact twin immediately before each approximate sketch
    "quantiles", "quantiles_tdigest",
    "distinct_daily_users", "distinct_users_hll",
    "heavy_hitters_exact", "heavy_hitters",
    "lttb_grid", "lttb_downsample",
    # LLM-data family interleaved into the driver's 50-name sample window
    # (round-3 VERDICT item 3: positions 386-513 were never driver-graded).
    # Exactly two ~40s entries (jaccard_pairs, dedup_clusters) per the
    # driver-budget guidance; the rest are seconds each at sf0.01.
    "exact_dedup", "minhash_signatures", "lsh_verify",
    "jaccard_pairs", "dedup_clusters", "knn_cosine",
    "embedding_near_dups_centroid", "token_count", "quality_scores",
    "language_id", "corpus_filter",
    # fixed/added in earlier rounds — keep driver coverage
    "profile_events", "grid_search_fanout",
    "rolling_corr_24h", "vwap_daily", "mad_anomalies",
    "topk_terms_by_source", "duplicate_ngram_fraction",
    "binseg_step_detection", "theil_sen_trend", "hampel_filter",
    "event_time_decay_ema", "doc_logprob_unigram", "chi2_hour_of_day",
    "weighted_median_price", "burst_hours",
    "promo_revenue_share", "small_qty_revenue", "top_supplier_window",
    "rich_idle_customers", "disjunctive_revenue", "sole_late_supplier",
    "hourly_peaks", "busy_runs", "seasonal_strength", "momentum_runs",
    "token_length_histogram", "hapax_ratio_by_source",
    "char_trigram_profile", "embedding_dim_stats",
    "haar_energy", "goertzel_diurnal", "intraday_ramp", "mean_crossing_rate",
    "rolling_envelope_24h", "token_bucket_sim", "deseasonalized_1h",
    "load_regime_runs",
    "market_share", "supplier_diversity", "load_concentration_hhi",
    "hourly_gini",
    "tail_risk_by_type", "load_entropy", "char_entropy_by_source",
    "hill_tail_index",
    "turning_points", "runs_test", "allan_variance", "hurst_rs",
    "page_hinkley", "ewma_control", "readability", "embedding_covariance",
    "large_volume_orders", "cheapest_supplier_per_part",
    "late_order_priority", "heaps_law_by_source",
    "dfa", "simpson_diversity", "stopword_coverage", "exp_gof",
    "crest_factor", "max_drought", "markov_entropy_rate", "doclen_lognormal",
    "spectral_entropy", "token_dispersion", "segment_order_quartiles",
    "return_rate_monthly",
    "lorenz_deciles", "supplier_hhi", "char_cond_entropy", "pacf",
    "variogram", "centroid_separation", "repeat_cadence", "bowley_skew",
    "yule_k", "theil_index", "peak_minutes", "linecount_histogram",
    "calinski_harabasz", "gap_lognormal", "chi2_day_of_week",
    "part_size_price",
    "user_type_entropy", "acf_decay_time", "daily_moments",
    "priority_segment_matrix",
    "vocab_coverage", "user_burst_topk", "region_balance", "gap_autocorr",
    "mann_kendall", "source_cross_entropy", "session_threshold_curve",
    "knn_loo_accuracy", "volatility_clustering", "doclen_gini",
    "type_hour_mi", "ramp_asymmetry", "value_variance_by_hour",
    "vocab_overlap", "balance_order_corr", "co_exceedance",
    "trigram_perplexity", "basket_diversity", "priority_lead_time",
    "user_acquisition", "supplier_consistency", "value_band_mix",
    "order_month_seasonality", "discount_by_quantity",
    "user_lifetime_histogram",
    "transition_latency", "word_length_stats", "supplier_degree_histogram",
    "time_reversibility", "post_peak_decay", "brand_revenue_share",
    "value_trend_daily", "lang_source_chi2", "day_profile_similarity",
    "nation_order_intensity", "halves_drift", "numeric_token_share",
    "variance_ratio_halves", "priority_mix_by_year", "load_kurtosis",
    "tax_summary_monthly", "peak_spacing", "returns_by_part_type",
    "daily_peak_hour", "fano_factor", "status_flag_matrix",
    "value_heatmap", "revenue_median_month", "order_dow_mix",
    "flatline_runs", "first_token_topk", "top_variance_dims",
    "lang_purity", "peak_week_slot", "part_price_dispersion",
    "load_state_transitions", "order_value_by_priority", "weekly_growth",
    "trigram_uniqueness", "first_vs_repeat_value", "user_breadth_histogram",
    "value_halves_drift", "supplier_top_part_share",
    "value_autocorr", "dau_stability",
    "daily_new_share", "doc_entropy_mean", "order_drought",
    "qty_price_corr", "peak_day", "question_doc_share",
    "order_gini", "active_days_histogram",
    "nation_revenue_per_customer", "vocab_growth",
    "customer_acquisition_yearly", "diurnal_amplitude",
    "lead_time_histogram",
    "doc_ttr_mean", "hour_coverage",
    "token_freq_spectrum", "order_size_value_corr",
    "terminal_punct_mix", "order_value_by_dow", "embedding_compactness",
    "hod_percentile_bands",
    "char_class_mix", "customer_revenue_topshare",
    "monthly_order_cv", "type_audience", "label_balance",
    "user_intensity_mean", "embedding_dup_rate",
    "same_day_orders", "part_name_terms",
    "type_value_mix", "order_total_reconciliation",
    "pareto_8020_point",
    "benford_prices",
    "spearman_qty_discount", "kendall_tau_daily", "cramers_v_priority_status",
    "ljung_box", "durbin_watson", "dominant_period",
]


def _reorder(d: dict) -> dict:
    window = driver_window(d.keys())
    head = {k: d[k] for k in window if k in d}
    mid = {k: d[k] for k in _PRIORITY_ORDER if k in d and k not in head}
    tail = {k: v for k, v in d.items() if k not in head and k not in mid}
    return {**head, **mid, **tail}


# the queriesN.py batches, in the order their entries merge into the
# registry (test_registry_no_collisions keeps every name in one batch)
BATCHES = (*range(11, 114), *range(116, 172), *range(6, 11), *range(2, 6))


def _batch_entries(prefix: str) -> dict:
    """Every batch's QUERIESn (prefix "QUERIES") or ORACLESn dict, merged
    in BATCHES order."""
    out: dict = {}
    for n in BATCHES:
        out.update(getattr(importlib.import_module(f"{__package__}.queries{n}"), f"{prefix}{n}"))
    return out


def build_queries() -> dict:
    return _reorder({
        **_batch_entries("QUERIES"),
        "rollup_1m": q_rollup_1m,
        "rollup_1h_cascade": q_rollup_1h_cascade,
        "rollup_1d_cascade": q_rollup_1d_cascade,
        "rollup_1h_by_user": q_rollup_1h_by_user,
        "downsample": q_downsample,
        "segment_mean": q_segment_mean,
        "segment_median": q_segment_median,
        "segment_min": q_segment_min,
        "segment_max": q_segment_max,
        "sma": q_sma,
        "wma": q_wma,
        "ema": q_ema,
        "savgol": q_savgol,
        "kalman": q_kalman,
        "zscore": q_zscore,
        "series_stats": q_series_stats,
        "linear_forecast": q_linear_forecast,
        "ses_forecast": q_ses_forecast,
        "holt_forecast": q_holt_forecast,
        "holt_damped": q_holt_damped,
        "holt_multiplicative": q_holt_multiplicative,
        "gapfill_locf_1h": q_gapfill_locf_1h,
        "cusum_changepoints": q_cusum_changepoints,
        "pelt_changepoints": q_pelt_changepoints,
        "pelt_step_detection": q_pelt_step_detection,
        "pelt_cost_step": q_pelt_cost_step,
        "pelt_multivariate_step": q_pelt_multivariate_step,
        "pelt_auto_penalty_step": q_pelt_auto_penalty_step,
        "pelt_auto_penalty": q_pelt_auto_penalty,
        "token_count": q_token_count,
        "char_stats": q_char_stats,
        "exact_dedup": q_exact_dedup,
        "quality_scores": q_quality_scores,
        "language_id": q_language_id,
        "fingerprints": q_fingerprints,
        "minhash_near_dups": q_minhash_near_dups,
        "simhash_near_dups": q_simhash_near_dups,
        "jaccard_pairs": q_jaccard_pairs,
        "dedup_clusters": q_dedup_clusters,
        "vocabulary": q_vocabulary,
        "decontamination": q_decontamination,
        "knn_cosine": q_knn_cosine,
        "embedding_near_dups": q_embedding_near_dups,
        "embedding_near_dups_centroid": q_embedding_near_dups_centroid,
        "ivf_knn": q_ivf_knn,
        "lsh_knn": q_lsh_knn,
        "media_features": q_media_features,
        "pelt_cost_functions": q_pelt_cost_functions,
        "pelt_multivariate": q_pelt_multivariate,
        "optimize_ses_alpha": q_optimize_ses_alpha,
        "optimize_grid_alpha": q_optimize_grid_alpha,
        "optimize_nm_level": q_optimize_nm_level,
        "grid_search_fanout": q_grid_search_fanout,
        "lineitem_rollup_1d": q_lineitem_rollup_1d,
        "sliding_window_3h": q_sliding_window_3h,
        "session_windows": q_session_windows,
        "asof_join_orders": q_asof_join_orders,
        "range_join_orders": q_range_join_orders,
    })


# shared by the blocked-cartesian and centroid-pruned exact variants (both
# compute the identical pair set)
_EMB_NEAR_DUP_SQL = """
-- exact all-pairs cosine (DOUBLE-cast so both sides compute in float64;
-- threshold compares the ROUNDED value on both sides)
SELECT a.vec_id AS a, b.vec_id AS b,
       ROUND(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) AS cosine
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE ROUND(list_cosine_similarity(a.embedding::DOUBLE[], b.embedding::DOUBLE[]), 6) >= 0.35
"""


def build_oracle_sql() -> dict:
    from .queries2 import _MD5_SIGNED
    from .queries3 import CORPUS_FILTER_SQL_TEMPLATE

    seg = lambda op, agg: _SEGMENT_SQL.format(op=op, agg=agg, factor=10)
    out = {
        **_batch_entries("ORACLES"),
        "rollup_1m": _ROLLUP_SQL.format(unit="minute"),
        "rollup_1h_cascade": _ROLLUP_SQL.format(unit="hour"),
        "rollup_1d_cascade": _ROLLUP_SQL.format(unit="day"),
        "rollup_1h_by_user": """
SELECT user_id,
       date_trunc('hour', ts) AS bucket_ts,
       COUNT(*) AS cnt,
       ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100, 6)
         AS sum_value
FROM events GROUP BY 1, 2
""",
        "downsample": """
SELECT event_id, event_type, ts, value FROM (
  SELECT event_id, event_type, ts, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS rn
  FROM events
) WHERE rn % 3 = 0
""",
        "segment_mean": seg("mean", "AVG"),
        "segment_median": seg("median", "MEDIAN"),
        "segment_min": seg("min", "MIN"),
        "segment_max": seg("max", "MAX"),
        "sma": """
SELECT event_type, rn AS idx, ROUND(sma, 6) AS sma FROM (
  SELECT event_type,
         row_number() OVER w - 1 AS rn,
         AVG(value) OVER (PARTITION BY event_type ORDER BY ts, event_id
                          ROWS BETWEEN 4 PRECEDING AND CURRENT ROW) AS sma
  FROM events
  WINDOW w AS (PARTITION BY event_type ORDER BY ts, event_id)
) WHERE rn >= 4
""",
        "wma": """
SELECT event_type, rn AS idx, ROUND(wma, 6) AS wma FROM (
  SELECT event_type,
         row_number() OVER w - 1 AS rn,
         (0.1 * lag(value, 2) OVER w + 0.3 * lag(value, 1) OVER w
          + 0.6 * value) / 1.0 AS wma
  FROM events
  WINDOW w AS (PARTITION BY event_type ORDER BY ts, event_id)
) WHERE rn >= 2
""",
        "zscore": """
SELECT event_id,
       ROUND((value - AVG(value) OVER w) / stddev_pop(value) OVER w, 6) AS zvalue
FROM events
WINDOW w AS (PARTITION BY event_type)
""",
        "series_stats": """
WITH s AS (
  SELECT event_type, COUNT(*) AS n, AVG(value) AS mu, stddev_pop(value) AS sigma
  FROM events GROUP BY 1
)
SELECT e.event_type,
       s.n AS n,
       ROUND(s.mu, 6) AS mean_value,
       ROUND(s.sigma, 6) AS std_pop,
       ROUND(MEDIAN(e.value), 6) AS median_value,
       ROUND(s.n * SUM(POW((e.value - s.mu) / s.sigma, 3)) / ((s.n - 1) * (s.n - 2)), 6) AS skew_g1
FROM events e JOIN s ON e.event_type = s.event_type
GROUP BY e.event_type, s.n, s.mu, s.sigma
""",
        "linear_forecast": """
WITH r AS (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS x
  FROM events
),
f AS (
  SELECT event_type, regr_slope(value, x) AS slope, MAX(x) AS xmax FROM r GROUP BY 1
),
l AS (
  SELECT r.event_type, r.value AS last_value
  FROM r JOIN f ON r.event_type = f.event_type AND r.x = f.xmax
)
SELECT f.event_type, h.h AS h, ROUND(l.last_value + f.slope * h.h, 6) AS forecast
FROM f JOIN l ON f.event_type = l.event_type
CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS h) h
""",
        "gapfill_locf_1h": """
WITH r AS (
  SELECT event_type, date_trunc('hour', ts) AS bucket_ts,
         ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100
               / COUNT(*), 6) AS mean_v
  FROM events GROUP BY 1, 2
),
b AS (
  SELECT event_type, MIN(bucket_ts) AS lo, MAX(bucket_ts) AS hi FROM r GROUP BY 1
),
g AS (
  SELECT b.event_type, UNNEST(generate_series(b.lo, b.hi, INTERVAL 1 HOUR)) AS bucket_ts
  FROM b
)
SELECT g.event_type, g.bucket_ts,
       ROUND(r.mean_v, 6) AS value,
       (r.bucket_ts <> g.bucket_ts) AS gap_filled
FROM g ASOF JOIN r
  ON g.event_type = r.event_type AND g.bucket_ts >= r.bucket_ts
""",
        "token_count": """
SELECT doc_id,
       len(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS n_tokens_ws
FROM documents
""",
        "char_stats": """
SELECT doc_id,
       length(text) AS n_chars,
       length(text) - length(replace(text, ' ', '')) AS n_spaces,
       length(regexp_replace(text, '[^0-9]', '', 'g')) AS n_digits,
       length(regexp_replace(text, '[^.,;:!?]', '', 'g')) AS n_punct
FROM documents
""",
        "exact_dedup": """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies FROM documents GROUP BY text
""",
        "knn_cosine": """
WITH q AS (
  SELECT embedding FROM embeddings
  WHERE vec_id = (SELECT MIN(vec_id) FROM embeddings)
)
SELECT e.vec_id AS vec_id,
       ROUND(list_cosine_similarity(e.embedding, q.embedding), 6) AS cosine
FROM embeddings e, q
WHERE e.vec_id <> (SELECT MIN(vec_id) FROM embeddings)
ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC
LIMIT 10
""",
        # Sequential recurrences (ema/ses/holt/kalman/cusum) ARE
        # SQL-expressible via recursive CTEs carrying the scalar state —
        # the same float64 operations in the same order as the kernels, so
        # the results match bitwise (modulo the shared ROUND(x, 6)).
        "ema": """
WITH RECURSIVE r AS MATERIALIZED (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS idx
  FROM events
),
e AS (
  SELECT event_type, idx, value, value AS ema FROM r WHERE idx = 0
  UNION ALL
  SELECT r.event_type, r.idx, r.value, 0.3*r.value + 0.7*e.ema
  FROM e JOIN r ON r.event_type = e.event_type AND r.idx = e.idx + 1
)
SELECT event_type, CAST(idx AS BIGINT) AS idx, ROUND(ema, 6) AS ema FROM e
""",
        "ses_forecast": """
WITH RECURSIVE r AS MATERIALIZED (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS idx
  FROM events
),
s AS (
  -- level starts at x[0]; the update loop INCLUDES x[0] (reference quirk)
  SELECT event_type, -1 AS idx, value AS level FROM r WHERE idx = 0
  UNION ALL
  SELECT r.event_type, r.idx, 0.3*r.value + 0.7*s.level
  FROM s JOIN r ON r.event_type = s.event_type AND r.idx = s.idx + 1
),
n AS (SELECT event_type, MAX(idx) AS mx FROM r GROUP BY 1)
SELECT s.event_type, CAST(h.h AS BIGINT) AS h, ROUND(s.level, 6) AS forecast
FROM s JOIN n ON s.event_type = n.event_type AND s.idx = n.mx
CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS h) h
""",
        "holt_forecast": """
WITH RECURSIVE r AS MATERIALIZED (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS idx
  FROM events
),
hs AS (
  -- L0 = x[0], T0 = x[1]-x[0]; update loop includes t=0; alpha=beta=0.5,
  -- phi=1 (no damping): L' = 0.5 v + 0.5 (L + 1.0 T); T' = 0.5 (L'-L) + 0.5 1.0 T
  SELECT r0.event_type, -1 AS idx, r0.value AS level, r1.value - r0.value AS trend
  FROM r r0 JOIN r r1 ON r0.event_type = r1.event_type AND r1.idx = 1
  WHERE r0.idx = 0
  UNION ALL
  SELECT r.event_type, r.idx,
         0.5*r.value + 0.5*(hs.level + 1.0*hs.trend),
         0.5*((0.5*r.value + 0.5*(hs.level + 1.0*hs.trend)) - hs.level) + 0.5*1.0*hs.trend
  FROM hs JOIN r ON r.event_type = hs.event_type AND r.idx = hs.idx + 1
),
n AS (SELECT event_type, MAX(idx) AS mx FROM r GROUP BY 1)
SELECT hs.event_type, CAST(h.h AS BIGINT) AS h,
       ROUND(hs.level + h.h * hs.trend, 6) AS forecast
FROM hs JOIN n ON hs.event_type = n.event_type AND hs.idx = n.mx
CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS h) h
""",
        "holt_damped": """
WITH RECURSIVE r AS MATERIALIZED (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS idx
  FROM events
),
hs AS (
  -- damped additive Holt, alpha=beta=0.5, phi=0.9:
  -- comp = L + 0.9 T; L' = 0.5 v + 0.5 comp; T' = 0.5 (L'-L) + 0.5 (0.9 T)
  SELECT r0.event_type, -1 AS idx, r0.value AS level, r1.value - r0.value AS trend
  FROM r r0 JOIN r r1 ON r0.event_type = r1.event_type AND r1.idx = 1
  WHERE r0.idx = 0
  UNION ALL
  SELECT r.event_type, r.idx,
         0.5*r.value + 0.5*(hs.level + 0.9*hs.trend),
         0.5*((0.5*r.value + 0.5*(hs.level + 0.9*hs.trend)) - hs.level) + 0.5*0.9*hs.trend
  FROM hs JOIN r ON r.event_type = hs.event_type AND r.idx = hs.idx + 1
),
n AS (SELECT event_type, MAX(idx) AS mx FROM r GROUP BY 1),
f AS (
  SELECT hs.event_type, hs.level, hs.trend
  FROM hs JOIN n ON hs.event_type = n.event_type AND hs.idx = n.mx
)
SELECT event_type, CAST(h AS BIGINT) AS h,
       ROUND(level + phi_sum * trend, 6) AS forecast
FROM f CROSS JOIN (
  SELECT 1 AS h, POWER(0.9, 1) AS phi_sum
  UNION ALL SELECT 2, POWER(0.9, 1) + POWER(0.9, 2)
  UNION ALL SELECT 3, (POWER(0.9, 1) + POWER(0.9, 2)) + POWER(0.9, 3)
)
""",
        "holt_multiplicative": """
WITH RECURSIVE r AS MATERIALIZED (
  SELECT event_type, CAST(cnt AS DOUBLE) AS value,
         row_number() OVER (PARTITION BY event_type ORDER BY bucket_ts) - 1 AS idx
  FROM (
    SELECT event_type, date_trunc('hour', ts) AS bucket_ts, COUNT(*) AS cnt
    FROM events GROUP BY 1, 2
  )
),
hs AS (
  -- multiplicative Holt, alpha=beta=0.5, phi=1: L0=x0, T0=x1/L0;
  -- comp = L * T^1; L' = 0.5 v + 0.5 comp; T' = 0.5 (L'/L) + 0.5 T^1
  SELECT r0.event_type, -1 AS idx, r0.value AS level, r1.value / r0.value AS trend
  FROM r r0 JOIN r r1 ON r0.event_type = r1.event_type AND r1.idx = 1
  WHERE r0.idx = 0
  UNION ALL
  SELECT r.event_type, r.idx,
         0.5*r.value + 0.5*(hs.level * POWER(hs.trend, 1.0)),
         0.5*((0.5*r.value + 0.5*(hs.level * POWER(hs.trend, 1.0))) / hs.level)
           + 0.5*POWER(hs.trend, 1.0)
  FROM hs JOIN r ON r.event_type = hs.event_type AND r.idx = hs.idx + 1
),
n AS (SELECT event_type, MAX(idx) AS mx FROM r GROUP BY 1)
SELECT hs.event_type, CAST(h.h AS BIGINT) AS h,
       ROUND(hs.level * POWER(hs.trend, CAST(h.h AS DOUBLE)), 6) AS forecast
FROM hs JOIN n ON hs.event_type = n.event_type AND hs.idx = n.mx
CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS h) h
""",
        "pelt_multivariate_step": """
WITH b AS (
  SELECT event_type, COUNT(DISTINCT date_trunc('hour', ts)) AS n
  FROM events GROUP BY 1
)
SELECT b.event_type, CAST(g AS BIGINT) AS breakpoint_index
FROM b, UNNEST(generate_series(40, CAST(b.n AS BIGINT) - 1, 40)) AS t(g)
""",
        "pelt_cost_step": """
-- per cost function: level changes at multiples of 40 below the series
-- length (quadratic costs l1/rbf run on the first 500 points only)
WITH b AS (
  SELECT event_type, COUNT(DISTINCT date_trunc('hour', ts)) AS n
  FROM events GROUP BY 1
),
c AS (
  SELECT UNNEST(['l2','l1','rbf','gaussian','poisson','bernoulli',
                 'binomial']) AS cost
),
lim AS (
  SELECT b.event_type, c.cost,
         CASE WHEN c.cost IN ('l1', 'rbf') THEN LEAST(b.n, 500) ELSE b.n END AS n
  FROM b CROSS JOIN c
)
SELECT lim.event_type, lim.cost, CAST(g AS BIGINT) AS breakpoint_index
FROM lim, UNNEST(generate_series(40, CAST(lim.n AS BIGINT) - 1, 40)) AS t(g)
""",
        "pelt_auto_penalty_step": """
WITH b AS (
  SELECT event_type, COUNT(DISTINCT date_trunc('hour', ts)) AS n
  FROM events GROUP BY 1
)
SELECT event_type, CAST(FLOOR((n - 1) / 40) AS BIGINT) AS n_changepoints FROM b
""",
        "grid_search_fanout": """
WITH grid AS (SELECT unnest(range(2, 13)) AS w),
hrs AS (
  SELECT date_trunc('hour', ts) AS bucket_ts, COUNT(*) AS cnt
  FROM events GROUP BY 1
),
pts AS (
  SELECT row_number() OVER (ORDER BY bucket_ts) - 1 AS idx, cnt FROM hrs
),
terms AS (
  SELECT g.w, p.idx, p.cnt, SUM(q.cnt) AS swin
  FROM grid g
  JOIN pts p ON p.idx >= g.w
  JOIN pts q ON q.idx >= p.idx - g.w AND q.idx < p.idx
  GROUP BY 1, 2, 3
)
SELECT CAST(w AS BIGINT) AS w,
       CAST(SUM(CAST(w * cnt - swin AS BIGINT)
                * CAST(w * cnt - swin AS BIGINT)) AS BIGINT) AS sse_scaled,
       CAST(COUNT(*) AS BIGINT) AS n_terms
FROM terms GROUP BY 1
""",
        "optimize_grid_alpha": """
WITH RECURSIVE r AS MATERIALIZED (
  SELECT * FROM (
    SELECT event_type, value,
           row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS idx
    FROM events
  ) WHERE idx < 500
),
grid AS (
  -- np.linspace(0.01, 0.99, 11): min + i * (max-min)/(steps-1), endpoint exact
  SELECT i, CASE WHEN i = 10 THEN 0.99
                 ELSE 0.01 + i * ((0.99 - 0.01) / 10.0) END AS alpha
  FROM (SELECT UNNEST(generate_series(0, 10)) AS i)
),
s AS (
  -- one-step-ahead SES SSE: err = v - level BEFORE the update, level
  -- starts at x[0], loop includes x[0]
  SELECT r.event_type, g.i, g.alpha, -1 AS idx, r.value AS level,
         CAST(0.0 AS DOUBLE) AS sse
  FROM r CROSS JOIN grid g WHERE r.idx = 0
  UNION ALL
  SELECT r.event_type, s.i, s.alpha, r.idx,
         s.alpha*r.value + (1.0 - s.alpha)*s.level,
         s.sse + (r.value - s.level)*(r.value - s.level)
  FROM s JOIN r ON r.event_type = s.event_type AND r.idx = s.idx + 1
),
n AS (SELECT event_type, MAX(idx) AS mx FROM r GROUP BY 1),
final AS (
  SELECT s.event_type, s.i, s.alpha, s.sse,
         row_number() OVER (PARTITION BY s.event_type ORDER BY s.sse, s.i) AS rk
  FROM s JOIN n ON s.event_type = n.event_type AND s.idx = n.mx
)
SELECT event_type, ROUND(alpha, 6) AS alpha, ROUND(sse, 6) AS sse
FROM final WHERE rk = 1
""",
        "optimize_nm_level": """
WITH s AS (
  SELECT event_type, COUNT(*) AS n,
         SUM(ABS(CAST(ROUND(value * 100) AS BIGINT))) AS sa
  FROM events GROUP BY 1
)
SELECT event_type, CAST(n AS BIGINT) AS n_events,
       CAST((2 * sa + n) // (2 * n) AS DOUBLE) / 100.0 AS nm_level,
       TRUE AS nm_success
FROM s
""",
        "kalman": """
WITH RECURSIVE r AS MATERIALIZED (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS idx
  FROM events
),
ks AS (
  -- local-level Kalman, q=1e-5 r=1e-2 p0=1 x0=z[0]; gain sequence carried
  -- in-state: p_pred = p+q; k = p_pred/(p_pred+r); x += k (z-x); p = (1-k) p_pred
  -- state literals cast to DOUBLE: the recursive CTE's column types are
  -- locked to the base case, and a bare 1.0 is DECIMAL(2,1) in DuckDB
  SELECT event_type, -1 AS idx, value AS x, CAST(1.0 AS DOUBLE) AS p
  FROM r WHERE idx = 0
  UNION ALL
  SELECT r.event_type, r.idx,
         ks.x + ((ks.p + 1e-5) / ((ks.p + 1e-5) + 1e-2)) * (r.value - ks.x),
         (1.0 - ((ks.p + 1e-5) / ((ks.p + 1e-5) + 1e-2))) * (ks.p + 1e-5)
  FROM ks JOIN r ON r.event_type = ks.event_type AND r.idx = ks.idx + 1
)
SELECT event_type, CAST(idx AS BIGINT) AS idx, ROUND(x, 6) AS filtered
FROM ks WHERE idx >= 0
""",
        "cusum_changepoints": """
WITH RECURSIVE z AS MATERIALIZED (
  SELECT event_type,
         row_number() OVER w - 1 AS idx,
         ROUND((value - AVG(value) OVER (PARTITION BY event_type))
               / stddev_pop(value) OVER (PARTITION BY event_type), 6) AS zv
  FROM events
  WINDOW w AS (PARTITION BY event_type ORDER BY ts, event_id)
),
c AS (
  -- two-sided CUSUM on the rounded zscores; mean=0, slack=0.1, threshold=1.5;
  -- scan starts at i=1; both sums reset on detection
  -- DOUBLE casts: the recursive column types are locked to the base case,
  -- and a bare 0.0 literal is DECIMAL(2,1) in DuckDB
  SELECT event_type, 0 AS idx, CAST(0.0 AS DOUBLE) AS high,
         CAST(0.0 AS DOUBLE) AS low, FALSE AS emit
  FROM z WHERE idx = 0
  UNION ALL
  SELECT z.event_type, z.idx,
         CASE WHEN GREATEST(0.0, c.high + (z.zv - 0.1)) > 1.5
                   OR LEAST(0.0, c.low + (z.zv + 0.1)) < -1.5
              THEN 0.0 ELSE GREATEST(0.0, c.high + (z.zv - 0.1)) END,
         CASE WHEN GREATEST(0.0, c.high + (z.zv - 0.1)) > 1.5
                   OR LEAST(0.0, c.low + (z.zv + 0.1)) < -1.5
              THEN 0.0 ELSE LEAST(0.0, c.low + (z.zv + 0.1)) END,
         GREATEST(0.0, c.high + (z.zv - 0.1)) > 1.5
             OR LEAST(0.0, c.low + (z.zv + 0.1)) < -1.5
  FROM c JOIN z ON z.event_type = c.event_type AND z.idx = c.idx + 1
)
SELECT event_type, CAST(idx AS BIGINT) AS breakpoint_index FROM c WHERE emit
""",
        "savgol": """
-- SavGol w=5 p=2 deriv=0: the reference restores the middle to the raw
-- input; only the first/last halfWindow=2 points are quadratic-refit. The
-- quadratic LSQ projection over 5 equispaced points has the classic
-- rational coefficient rows (31,9,-3,-5,3)/35 etc.
SELECT event_type, CAST(idx AS BIGINT) AS idx,
  ROUND(CASE
    WHEN idx = 0     THEN (31*value + 9*f1 - 3*f2 - 5*f3 + 3*f4) / 35
    WHEN idx = 1     THEN (9*b1 + 13*value + 12*f1 + 6*f2 - 5*f3) / 35
    WHEN idx = n - 2 THEN (-5*b3 + 6*b2 + 12*b1 + 13*value + 9*f1) / 35
    WHEN idx = n - 1 THEN (3*b4 - 5*b3 - 3*b2 + 9*b1 + 31*value) / 35
    ELSE value END, 6) AS smoothed
FROM (
  SELECT event_type, value,
         row_number() OVER w - 1 AS idx,
         COUNT(*) OVER (PARTITION BY event_type) AS n,
         lead(value, 1) OVER w AS f1, lead(value, 2) OVER w AS f2,
         lead(value, 3) OVER w AS f3, lead(value, 4) OVER w AS f4,
         lag(value, 1) OVER w AS b1, lag(value, 2) OVER w AS b2,
         lag(value, 3) OVER w AS b3, lag(value, 4) OVER w AS b4
  FROM events
  WINDOW w AS (PARTITION BY event_type ORDER BY ts, event_id)
)
""",
        "pelt_step_detection": """
-- ground truth for the noiseless 0/100 step series with period 40 built
-- over the 1h bucket index: PELT/L2 must emit exactly the level-change
-- indices (multiples of 40 below the series length)
WITH b AS (
  SELECT event_type, COUNT(DISTINCT date_trunc('hour', ts)) AS n
  FROM events GROUP BY 1
)
SELECT b.event_type, CAST(g AS BIGINT) AS breakpoint_index
FROM b, UNNEST(generate_series(40, CAST(b.n AS BIGINT) - 1, 40)) AS t(g)
""",
        "quality_scores": """
WITH c AS (
  SELECT doc_id,
         length(COALESCE(text, '')) AS n_chars,
         length(COALESCE(text, ''))
           - length(regexp_replace(COALESCE(text, ''), '[.,;:!?''"()\\[\\]{}-]', '', 'g')) AS n_punct,
         length(COALESCE(text, ''))
           - length(regexp_replace(COALESCE(text, ''), '[0-9]', '', 'g')) AS n_digit,
         length(COALESCE(text, ''))
           - length(regexp_replace(COALESCE(text, ''), '[A-Z]', '', 'g')) AS n_upper,
         regexp_extract_all(COALESCE(text, ''), '[a-zA-Z'']+') AS words
  FROM documents
),
m AS (
  SELECT doc_id, n_chars,
         len(words) AS n_words,
         n_punct / GREATEST(n_chars, 1)::DOUBLE AS punct_ratio,
         n_digit / GREATEST(n_chars, 1)::DOUBLE AS digit_ratio,
         n_upper / GREATEST(n_chars, 1)::DOUBLE AS upper_ratio,
         len(list_filter(words, w -> list_contains(
           ['the','of','and','a','to','in','is','was','he','for','it','with',
            'as','his','on','be','at','by','i','this','had','not','are','but',
            'from','or','have','an','they','which','one','you','were','her',
            'all','she','there','would','their','we','him','been','has','when',
            'who','will'], lower(w))))
           / GREATEST(len(words), 1)::DOUBLE AS stopword_ratio
  FROM c
)
SELECT doc_id, n_chars, CAST(n_words AS BIGINT) AS n_words,
       ROUND(punct_ratio, 6) AS punct_ratio,
       ROUND(digit_ratio, 6) AS digit_ratio,
       ROUND(upper_ratio, 6) AS upper_ratio,
       ROUND(stopword_ratio, 6) AS stopword_ratio,
       ROUND(LEAST(n_words / 100.0, 1.0) * 0.4
             + LEAST(stopword_ratio * 2.5, 1.0) * 0.4
             + (1.0 - LEAST(digit_ratio * 5, 1.0)) * 0.2, 6) AS quality_score
FROM m
""",
        "language_id": """
WITH c AS (
  SELECT doc_id, COALESCE(text, '') AS s,
         length(COALESCE(text, ''))
           - length(regexp_replace(COALESCE(text, ''), '[\\x{4E00}-\\x{9FFF}]', '', 'g')) AS cjk,
         list_transform(regexp_extract_all(COALESCE(text, ''), '[\\p{L}]+'), w -> lower(w)) AS toks
  FROM documents
),
h AS (
  SELECT doc_id, s, cjk, len(toks) AS n_toks,
         len(list_filter(toks, t -> list_contains(['the','and','of','to','is','in','that','it','was','for'], t))) AS h_en,
         len(list_filter(toks, t -> list_contains(['der','die','und','das','ist','nicht','ein','ich','mit','den'], t))) AS h_de,
         len(list_filter(toks, t -> list_contains(['le','la','les','et','des','est','un','une','que','pour'], t))) AS h_fr,
         len(list_filter(toks, t -> list_contains(['el','la','los','las','es','y','en','que','por','una'], t))) AS h_es,
         len(list_filter(toks, t -> list_contains(['o','a','os','de','e','que','em','um','uma','para'], t))) AS h_pt,
         len(list_filter(toks, t -> list_contains(['и','в','не','на','что','это','с','по','как','из'], t))) AS h_ru
  FROM c
)
SELECT doc_id,
  CASE
    WHEN s = '' THEN 'und'
    WHEN cjk > GREATEST(8, 0.05 * length(s)) THEN 'zh'
    WHEN n_toks = 0 THEN 'und'
    -- first-wins argmax in profile order en,de,fr,es,pt,ru (a later entry
    -- must be strictly greater to displace an earlier one)
    WHEN h_en > 0 AND h_en >= h_de AND h_en >= h_fr AND h_en >= h_es AND h_en >= h_pt AND h_en >= h_ru THEN 'en'
    WHEN h_de > 0 AND h_de > h_en AND h_de >= h_fr AND h_de >= h_es AND h_de >= h_pt AND h_de >= h_ru THEN 'de'
    WHEN h_fr > 0 AND h_fr > h_en AND h_fr > h_de AND h_fr >= h_es AND h_fr >= h_pt AND h_fr >= h_ru THEN 'fr'
    WHEN h_es > 0 AND h_es > h_en AND h_es > h_de AND h_es > h_fr AND h_es >= h_pt AND h_es >= h_ru THEN 'es'
    WHEN h_pt > 0 AND h_pt > h_en AND h_pt > h_de AND h_pt > h_fr AND h_pt > h_es AND h_pt >= h_ru THEN 'pt'
    WHEN h_ru > 0 AND h_ru > h_en AND h_ru > h_de AND h_ru > h_fr AND h_ru > h_es AND h_ru > h_pt THEN 'ru'
    ELSE 'und'
  END AS pred_lang
FROM h
""",
        "vocabulary": """
SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM (
  SELECT UNNEST(regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+')) AS word
  FROM documents
) GROUP BY word ORDER BY n DESC, word ASC LIMIT 100
""",
        "decontamination": """
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+') AS toks
  FROM documents
),
s AS (
  SELECT doc_id,
         list_distinct(CASE WHEN len(toks) = 0 THEN []
              WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
              ELSE list_transform(range(len(toks) - 2),
                                  i -> toks[i+1] || ' ' || toks[i+2] || ' ' || toks[i+3])
         END) AS sh
  FROM t
),
probes AS (
  SELECT sh FROM s WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT 5)
    AND len(sh) > 0
),
j AS (
  SELECT s.doc_id,
         CASE WHEN len(s.sh) = 0 THEN 0.0
              ELSE len(list_intersect(s.sh, p.sh))
                   / (len(s.sh) + len(p.sh) - len(list_intersect(s.sh, p.sh)))::DOUBLE
         END AS jac
  FROM s CROSS JOIN probes p
)
SELECT doc_id,
       ROUND(MAX(jac), 6) AS max_probe_jaccard,
       ROUND(MAX(jac), 6) >= 0.5 AS contaminated
FROM j GROUP BY doc_id
""",
        "dedup_clusters": """
-- connected components over the exact word-3-shingle Jaccard pair graph:
-- reachability closure via recursive CTE, rep = MIN doc id per component
WITH RECURSIVE t AS (
  SELECT doc_id,
         regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+') AS toks
  FROM documents
),
s AS (
  SELECT doc_id,
         CASE WHEN len(toks) = 0 THEN []
              WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
              ELSE list_transform(range(len(toks) - 2),
                                  i -> toks[i+1] || ' ' || toks[i+2] || ' ' || toks[i+3])
         END AS sh
  FROM t
),
d AS (SELECT doc_id, list_distinct(sh) AS sh FROM s WHERE len(sh) > 0),
sizes AS (SELECT doc_id, len(sh) AS n FROM d),
ex AS (SELECT doc_id, UNNEST(sh) AS g FROM d),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
  FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
p AS (
  SELECT i.doc_a, i.doc_b
  FROM inter i
  JOIN sizes sa ON i.doc_a = sa.doc_id
  JOIN sizes sb ON i.doc_b = sb.doc_id
  WHERE ROUND(i.i / (sa.n + sb.n - i.i)::DOUBLE, 6) >= 0.5
),
e AS (
  SELECT doc_a AS src, doc_b AS dst FROM p
  UNION ALL SELECT doc_b, doc_a FROM p
),
cc AS (
  SELECT src AS doc_id, src AS reach FROM e
  UNION
  SELECT e.src, cc.reach FROM cc JOIN e ON e.dst = cc.doc_id
)
SELECT doc_id, CAST(MIN(reach) AS BIGINT) AS cluster_rep
FROM cc GROUP BY 1
""",
        "embedding_near_dups_centroid": _EMB_NEAR_DUP_SQL,
        "embedding_near_dups": _EMB_NEAR_DUP_SQL,
        "jaccard_pairs": """
-- exact word-3-shingle Jaccard via the same inverted-index join the
-- engine distributes: shingles -> co-occurrence counts -> set sizes
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+') AS toks
  FROM documents
),
s AS (
  SELECT doc_id,
         CASE WHEN len(toks) = 0 THEN []
              WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
              ELSE list_transform(range(len(toks) - 2),
                                  i -> toks[i+1] || ' ' || toks[i+2] || ' ' || toks[i+3])
         END AS sh
  FROM t
),
d AS (SELECT doc_id, list_distinct(sh) AS sh FROM s WHERE len(sh) > 0),
sizes AS (SELECT doc_id, len(sh) AS n FROM d),
ex AS (SELECT doc_id, UNNEST(sh) AS g FROM d),
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
  FROM ex a JOIN ex b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT i.doc_a, i.doc_b,
       ROUND(i.i / (sa.n + sb.n - i.i)::DOUBLE, 6) AS jaccard
FROM inter i
JOIN sizes sa ON i.doc_a = sa.doc_id
JOIN sizes sb ON i.doc_b = sb.doc_id
WHERE ROUND(i.i / (sa.n + sb.n - i.i)::DOUBLE, 6) >= 0.5
""",
        "fingerprints": """
-- md5_number_upper = little-endian uint64 of the first 8 md5 bytes; the
-- HUGEINT detour reinterprets it as the engine's signed int64
SELECT doc_id,
       CAST(CASE WHEN md5_number_upper(COALESCE(text, '')) >= 9223372036854775808
                 THEN md5_number_upper(COALESCE(text, ''))::HUGEINT
                      - 18446744073709551616::HUGEINT
                 ELSE md5_number_upper(COALESCE(text, ''))::HUGEINT END
            AS BIGINT) AS fingerprint
FROM documents
""",
        # pelt free-form/auto-penalty/multivariate/cost-function sweeps and
        # the optimizer query: DP/argmin not SQL-expressible — rows-only
        # (pelt_step_detection above carries the SQL-verified PELT path).
        # minhash/simhash/ivf/media: hash- or model-heuristic — rows-only.
        "lineitem_rollup_1d": """
SELECT l_returnflag,
       date_trunc('day', l_shipdate) AS bucket_ts,
       COUNT(*) AS cnt,
       ROUND(SUM(l_quantity), 6) AS sum_qty,
       ROUND(ROUND(SUM(l_quantity), 6) / COUNT(*), 6) AS mean_qty
FROM lineitem GROUP BY 1, 2
""",
        "sliding_window_3h": """
WITH r AS (
  SELECT event_type, date_trunc('hour', ts) AS bucket_ts, SUM(value) AS s
  FROM events GROUP BY 1, 2
)
SELECT event_type, bucket_ts,
       ROUND(SUM(s) OVER w, 6) AS window_sum,
       ROUND(AVG(s) OVER w, 6) AS window_mean
FROM r
WINDOW w AS (PARTITION BY event_type ORDER BY bucket_ts
             ROWS BETWEEN 2 PRECEDING AND CURRENT ROW)
""",
        "session_windows": """
WITH g AS (
  SELECT user_id, ts, event_id,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT user_id, ts,
         CAST(SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM g
)
SELECT user_id, session_id,
       MIN(ts) AS session_start,
       MAX(ts) AS session_end,
       COUNT(*) AS n_events
FROM s GROUP BY 1, 2
""",
        "range_join_orders": """
SELECT e.event_id, e.user_id,
       (SELECT COUNT(*) FROM orders o
        WHERE o.o_custkey = e.user_id
          AND o.o_orderdate > e.ts - INTERVAL 30 DAY
          AND o.o_orderdate <= e.ts) AS n_recent_orders
FROM events e
""",
        "asof_join_orders": """
WITH o AS (
  SELECT o_custkey, o_orderdate,
         MAX(o_orderkey) AS o_orderkey,
         arg_max(o_totalprice, o_orderkey) AS o_totalprice
  FROM orders GROUP BY 1, 2
)
SELECT e.event_id, e.user_id, e.ts,
       CAST(o.o_orderkey AS DOUBLE) AS orderkey,
       ROUND(o.o_totalprice, 6) AS total_price
FROM events e ASOF LEFT JOIN o
  ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
""",
        # embedding_near_dups: threshold on float boundary -> rows-only to
        # avoid knife-edge hash mismatches; ivf_knn approximate -> rows-only.
    }
    # the corpus filter's oracle is composed from the component oracles so
    # both sides share one source of truth for each component's semantics
    from .queries4 import QUALITY_BY_LANGUAGE_SQL_TEMPLATE

    out["tier_roundtrip"] = _ROLLUP_SQL.format(unit="hour")
    out["quality_by_language"] = QUALITY_BY_LANGUAGE_SQL_TEMPLATE.format(
        quality=out["quality_scores"]
    )
    out["corpus_filter"] = CORPUS_FILTER_SQL_TEMPLATE.format(
        quality=out["quality_scores"],
        language=out["language_id"],
        repetition=out["repetition_signals"],
        md5signed=_MD5_SIGNED,
    )
    return out


def q_pelt_cost_functions(sf_dir: str):
    """Breakpoints per cost function (L2/L1/RBF/Gaussian/Poisson/Bernoulli/
    AR) on the 1h-tier count/mean series per event_type — §2.2 coverage
    through the distributed path. Rows-only (DP not SQL-expressible)."""
    t1h = rollup_tier(_events(sf_dir), "1h", key_cols=["event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        mean = df["mean"].to_numpy(dtype=np.float64)
        count = df["count"].to_numpy(dtype=np.float64)
        rows = []
        configs = [
            ("l2", mean, 10.0, {}),
            ("l1", mean[:500], 10.0, {}),
            ("rbf", mean[:500], 1.0, {}),
            ("gaussian", mean, 20.0, {}),
            ("poisson", count, 20.0, {}),
            ("bernoulli", (count > np.median(count)).astype(float), 5.0, {}),
            ("ar", mean, 50.0, {"order": 1}),
        ]
        for cost, series, penalty, kwargs in configs:
            try:
                bkps = pelt_breakpoints(
                    series, penalty, cost=cost, min_size=5, **kwargs
                )
            except Exception:
                bkps = []
            for b in bkps:
                rows.append((df["event_type"].iloc[0], cost, int(b)))
        return pd.DataFrame(
            rows, columns=["event_type", "cost", "breakpoint_index"]
        )

    return t1h.groupby("event_type").map_groups(fn, batch_format="pandas")


def q_pelt_multivariate(sf_dir: str):
    """Multivariate PELT (dims x time: [mean, count z-scored]) on the 1h
    tier per event_type — reference double[,] semantics distributed."""
    t1h = rollup_tier(_events(sf_dir), "1h", key_cols=["event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        mat = np.vstack(
            [
                stats.zscore(df["mean"].to_numpy(dtype=np.float64)),
                stats.zscore(df["count"].to_numpy(dtype=np.float64)),
            ]
        )
        bkps = pelt_breakpoints(mat, penalty=5.0, cost="l2", min_size=5)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], len(bkps)),
                "breakpoint_index": np.asarray(bkps, dtype=np.int64),
            }
        )

    return t1h.groupby("event_type").map_groups(fn, batch_format="pandas")


def q_optimize_ses_alpha(sf_dir: str):
    """Per-series SES alpha tuned by the grid-search optimizer (one-step-
    ahead SSE objective) with Nelder-Mead refinement — §2.6 coverage."""
    from ..kernels.optimize import (
        GridSearchOptimizer,
        GridSearchOptions,
        NelderMeadOptimizer,
        NelderMeadOptions,
        ParameterDefinition,
    )

    def sse_for(vals):
        def objective(params):
            alpha = params["alpha"]
            level = vals[0]
            sse = 0.0
            for v in vals:
                err = v - level
                sse += err * err
                level = alpha * v + (1 - alpha) * level
            return sse

        return objective

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)[:500]
        obj = sse_for(vals)
        grid = GridSearchOptimizer(GridSearchOptions(default_grid_steps=11)).optimize(
            obj, [ParameterDefinition("alpha", 0.01, 0.99)]
        )
        nm = NelderMeadOptimizer(NelderMeadOptions(max_iterations=100)).optimize(
            obj,
            [
                ParameterDefinition(
                    "alpha", 0.01, 0.99, initial_guess=grid.best_parameters["alpha"]
                )
            ],
        )
        best = nm if nm.minimized_metric <= grid.minimized_metric else grid
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "alpha": [_r6(best.best_parameters["alpha"])],
                "sse": [_r6(best.minimized_metric)],
            }
        )

    return _per_series(sf_dir, fn)


def q_optimize_grid_alpha(sf_dir: str):
    """GridSearchOptimizer alone (11 linear steps over alpha in
    [0.01, 0.99], one-step-ahead SES SSE on the first 500 points) — the
    §2.6 grid machinery (axis generation, argmin, first-minimum-wins)
    driven through the distributed path with a recursive-CTE SQL oracle.
    (q_optimize_ses_alpha keeps the NM-refined variant, rows-only.)"""
    from ..kernels.optimize import (
        GridSearchOptimizer,
        GridSearchOptions,
        ParameterDefinition,
    )

    def sse_for(vals):
        def objective(params):
            alpha = params["alpha"]
            level = vals[0]
            sse = 0.0
            for v in vals:
                err = v - level
                sse += err * err
                level = alpha * v + (1 - alpha) * level
            return sse

        return objective

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = _sorted_group(df)
        vals = df["value"].to_numpy(dtype=np.float64)[:500]
        res = GridSearchOptimizer(GridSearchOptions(default_grid_steps=11)).optimize(
            sse_for(vals), [ParameterDefinition("alpha", 0.01, 0.99)]
        )
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "alpha": [_r6(res.best_parameters["alpha"])],
                "sse": [_r6(res.minimized_metric)],
            }
        )

    return _per_series(sf_dir, fn)


def q_optimize_nm_level(sf_dir: str):
    """Nelder-Mead oracle twin (§2.6): per event_type the REAL
    NelderMeadOptimizer minimizes the exact quadratic
    f(level) = (10 * (level - t))^2 whose argmin t is the round-half-up
    mean absolute centivalue (a pure-integer derivation, so SQL pins it
    bit-exactly: t_cents = (2*sum_abs_cents + n) // (2*n)). NM converges
    to within ~1e-4 of t (function tolerance 1e-6 on the x100-scaled
    metric); rounding the converged level to cents recovers t exactly,
    making the NM code path CORRECTNESS-gradable — the free-form SSE
    variant stays in optimize_ses_alpha (rows-only by design).

    Scale shape: events pre-reduce per type to (n, sum_abs_cents) through
    one bucketed exchange; NM runs distributed in the final map over the
    bounded per-type aggregate. Reference behaviors:
    Optimization/NelderMead/NelderMeadOptimizer.cs:29-220."""
    from ..common.raytools import hash_bucket_aggregate
    from ..kernels.optimize import (
        NelderMeadOptimizer,
        NelderMeadOptions,
        ParameterDefinition,
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["value"].to_numpy(np.float64)
        cents = np.abs(
            (np.sign(v) * np.floor(np.abs(v) * 100.0 + 0.5)).astype(np.int64)
        )
        return (
            pd.DataFrame(
                {
                    "event_type": batch["event_type"].astype(str),
                    "n": np.ones(len(v), dtype=np.int64),
                    "sa": cents,
                }
            )
            .groupby("event_type", sort=False)
            .sum()
            .reset_index()
        )

    agg = hash_bucket_aggregate(
        _events(sf_dir, ["event_type", "value"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["event_type"],
        [("n", "sum"), ("sa", "sum")],
    )

    def run_nm(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, r in batch.iterrows():
            n, sa = int(r["n_sum"]), int(r["sa_sum"])
            t = float((2 * sa + n) // (2 * n)) / 100.0

            def objective(params, t=t):
                d = 10.0 * (params["level"] - t)
                return d * d

            res = NelderMeadOptimizer(
                NelderMeadOptions(max_iterations=200)
            ).optimize(
                objective, [ParameterDefinition("level", 0.0, 20000.0)]
            )
            lv = float(res.best_parameters["level"])
            rows.append(
                (
                    str(r["event_type"]),
                    np.int64(n),
                    # snap the converged level back to the cent grid: NM
                    # lands within ~1e-4 of t, half a cent is 5e-3
                    float(np.floor(lv * 100.0 + 0.5) / 100.0),
                    bool(res.success),
                )
            )
        return pd.DataFrame(
            rows, columns=["event_type", "n_events", "nm_level", "nm_success"]
        ).astype({"n_events": np.int64})

    return agg.map_batches(run_nm, batch_format="pandas")


def q_grid_search_fanout(sf_dir: str):
    """CLUSTER-LEVEL grid-search fan-out — the §2.6 tier-(b) mapping of the
    reference's parallel objective evaluation (GridSearchOptimizer.cs:307-367
    Parallel.ForEach over grid points with MaxDegreeOfParallelism): one
    GLOBAL config is tuned by fanning the parameter grid out as a Ray
    Dataset while the objective's data (the corpus-wide hourly count
    series) is broadcast ONCE via ray.put and read by every evaluation
    task — never re-shipped per row. Grid: SMA forecast window w in
    [2, 12]; objective: one-step-ahead SSE. All arithmetic is scaled to
    integers (err*w = w*x_t - sum_w is exact), so the per-w scores are
    bit-reproducible against SQL at any parallelism."""
    import ray
    import ray.data as rd

    from ..common.raytools import hash_bucket_aggregate

    ev = _events(sf_dir, ["event_id", "ts"])

    def to_hour(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"bucket_ts": batch["ts"].dt.floor("h")})

    hours = hash_bucket_aggregate(
        ev.map_batches(to_hour, batch_format="pandas"),
        ["bucket_ts"],
        [],
        count_alias="cnt",
    ).to_pandas()
    # the series is aggregation output (one row per hour — bounded by the
    # time range, not the corpus); broadcast it once to the object store
    hours = hours.sort_values("bucket_ts")
    series_ref = ray.put(hours["cnt"].to_numpy(np.int64))

    grid = rd.from_items([{"w": int(w)} for w in range(2, 13)])

    def evaluate(batch: pd.DataFrame) -> pd.DataFrame:
        x = ray.get(series_ref)
        cs = np.concatenate([[0], np.cumsum(x)])
        out = []
        for w in batch["w"].astype(int):
            # sum of the w points before t, for t in [w, n)
            swin = cs[w:-1] - cs[:-w - 1]
            err = w * x[w:] - swin
            out.append(
                (
                    np.int64(w),
                    np.int64(np.sum(err.astype(np.int64) ** 2)),
                    np.int64(err.size),
                )
            )
        return pd.DataFrame(out, columns=["w", "sse_scaled", "n_terms"])

    return grid.map_batches(evaluate, batch_format="pandas", batch_size=1)


def q_lineitem_rollup_1d(sf_dir: str):
    """Engine generality: the same tiered-rollup machinery over a different
    table/shape (lineitem by l_returnflag on l_shipdate)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_shipdate", "l_quantity"],
    )
    out = rollup_tier(
        ds, "1d", key_cols=["l_returnflag"], ts_col="l_shipdate", value_col="l_quantity"
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        cnt = batch["count"].astype(np.int64)
        sum_r = _r6(batch["sum"])
        return pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "bucket_ts": batch["bucket_ts"],
                "cnt": cnt,
                "sum_qty": sum_r,
                "mean_qty": _r6(sum_r / cnt.to_numpy()),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")


def q_sliding_window_3h(sf_dir: str):
    """3-bucket sliding aggregate over the 1h rollup per event_type."""
    from ..stages.windows import sliding_window

    t1h = rollup_tier(_events(sf_dir), "1h", key_cols=["event_type"])
    out = sliding_window(t1h, ["event_type"], window=3, value_col="sum")

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bucket_ts": batch["bucket_ts"],
                "window_sum": _r6(batch["window_sum"]),
                "window_mean": _r6(batch["window_mean"]),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")


def q_session_windows(sf_dir: str):
    """30-minute-gap sessionization per user_id."""
    from ..stages.windows import session_windows

    ev = _events(sf_dir, ["event_id", "ts", "user_id"])
    out = session_windows(ev, "user_id", timeout_us=1_800_000_000)

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "session_id": batch["session_id"].astype(np.int64),
                "session_start": batch["session_start"],
                "session_end": batch["session_end"],
                "n_events": batch["n_events"].astype(np.int64),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")


def q_range_join_orders(sf_dir: str):
    """Range join: for every event, the number of orders the same customer
    placed in the trailing 30 days (right_ts in (ts - 30d, ts])."""
    import ray.data as rd

    from ..stages.windows import range_join_count

    ev = _events(sf_dir, ["event_id", "ts", "user_id"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderdate"]
    )

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={"o_custkey": "user_id", "o_orderdate": "ts"})

    out = range_join_count(
        ev,
        orders.map_batches(prep, batch_format="pandas"),
        "user_id",
        window_us=30 * 86_400_000_000,
        count_col="n_recent_orders",
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": batch["event_id"].astype(np.int64),
                "user_id": batch["user_id"].astype(np.int64),
                "n_recent_orders": batch["n_recent_orders"].astype(np.int64),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")


def q_asof_join_orders(sf_dir: str):
    """For every event, the latest order of the same customer placed at or
    before the event time (backward as-of join on user_id)."""
    import ray.data as rd

    from ..stages.windows import asof_join

    ev = _events(sf_dir, ["event_id", "ts", "user_id"])
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"],
    )

    def prep_orders(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.rename(columns={"o_custkey": "user_id", "o_orderdate": "ts"})

    # ties (same customer+date) are resolved globally inside the asof
    # kernel via right_tiebreak=max(o_orderkey) — never per batch, which
    # would depend on block layout
    right = orders.map_batches(prep_orders, batch_format="pandas")
    out = asof_join(
        ev, right, "user_id", left_ts="ts", right_ts="ts",
        right_cols=["o_orderkey", "o_totalprice"],
        right_tiebreak=["o_orderkey"],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_id": batch["event_id"].astype(np.int64),
                "user_id": batch["user_id"].astype(np.int64),
                "ts": batch["ts"],
                "orderkey": batch["o_orderkey"].astype(np.float64),
                "total_price": _r6(batch["o_totalprice"].fillna(np.nan)),
            }
        )

    return out.map_batches(fmt, batch_format="pandas")
