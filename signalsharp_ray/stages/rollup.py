"""Time-bucketed rollup into continuous-aggregate retention tiers (1m/1h/1d).

This is the distributed generalization of the reference's fixed-size segment
statistics (/root/reference/SignalSharp/Resampling/Resampling.cs:101-216):
tumbling windows on the timestamp instead of the index, with identical
ragged-tail semantics (a bucket aggregates whatever points fall in it).

Two forms:
- SORTED KERNELS (the flagship): the input is already hash-partitioned
  by `url_hash`, so no shuffle. A SortedTier holds a bucket's rows sorted
  once by (url_hash, bucket_ts); cascade_sorted re-aggregates it into a
  coarser tier in one reduceat pass — sum of sums, sum of counts, min of
  mins, max of maxes, exact, so the coarser tiers never touch the raw
  points again. rollup_points rolls points sorted by (url_hash, ts) with
  the same kernel, seeing them as a tier of one row per point.
  rollup_partition_pandas and cascade_partition_pandas are their pandas
  adapters. Tier files hold:
      url_hash:int64, bucket_ts:timestamp[ns],
      count:int64, sum:float64, min:float64, max:float64, mean:float64
- DATASET FORM (rollup_tier / cascade_tier): PARTIAL+FINAL aggregation
  over a Ray Dataset keyed by the caller's key columns (host, url by
  default), one hash exchange (raytools._exchange) per tier. The split
  tasks rebucket each input block and pre-merge it with pyarrow's hash
  groupby, so the exchange moves one row per (key, bucket) per block
  instead of one per point; rows are bucketed on the series key only. The
  reduce tasks merge the partials (count/sum/min/max merge exactly) and
  append the mean. rollup_tier is the cascade over the points seen as a
  tier of one row per point (count = value is not null). Its rows carry
  the key columns and bucket_ts:timestamp[us]; pyarrow's aggregates keep
  the value's type (an int64 value sums as int64).

mean = sum/count is computed AFTER the final merge (it is not mergeable).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..common.fsio import with_pandas_metadata
from ..common.raytools import _bucket_by, _exchange, default_buckets

TIERS_US = {
    "1m": 60_000_000,
    "1h": 3_600_000_000,
    "1d": 86_400_000_000,
    # epoch-aligned 7-day buckets (NOT ISO weeks: multiples of 7 days from
    # 1970-01-01, so the bucket function stays pure integer arithmetic on
    # both the engine and any SQL consumer)
    "1w": 604_800_000_000,
}

DEFAULT_SERIES_KEY = ["host", "url"]


def bucket_timestamps(ts: pa.ChunkedArray, tier_us: int) -> pa.Array:
    """Floor timestamps to the tier width (epoch-aligned tumbling windows).

    Integer floor-divide on the int64 microsecond view (zero-copy via numpy;
    correct for negative epochs too thanks to python-style floor division).
    Unit-aware: Ray's groupby can downcast timestamp[us] -> timestamp[s], so
    the input is normalized to microseconds first; output is timestamp[us].
    """
    unit = ts.type.unit if isinstance(ts.type, pa.TimestampType) else "us"
    ts = pc.cast(ts, pa.timestamp("us")) if unit != "us" else ts
    as_int = pc.cast(ts, pa.int64())
    arr = (
        as_int.combine_chunks().to_numpy(zero_copy_only=False)
        if isinstance(as_int, pa.ChunkedArray)
        else as_int.to_numpy(zero_copy_only=False)
    )
    floored = (arr // tier_us) * tier_us
    return pa.array(floored.astype(np.int64), pa.timestamp("us"))


def _points_as_tier(batch: pa.Table, keys: list, ts_col: str, value_col: str) -> pa.Table:
    """Points seen as a tier of one row per point: bucket_ts = the point's
    ts, count = value is not null, sum = min = max = value."""
    v = batch[value_col]
    cols = {k: batch[k] for k in keys}
    cols.update(bucket_ts=batch[ts_col], count=pc.cast(pc.is_valid(v), pa.int64()), sum=v, min=v, max=v)
    return pa.table(cols)


def _merge_tier(rows: pa.Table, gk: list) -> pa.Table:
    """count/sum/min/max rows merged per `gk` with pyarrow's hash groupby:
    sum of counts, sum of sums, min of mins, max of maxes."""
    g = rows.group_by(gk, use_threads=False).aggregate(
        [("count", "sum"), ("sum", "sum"), ("min", "min"), ("max", "max")]
    )
    return g.rename_columns(gk + ["count", "sum", "min", "max"])


def _partial_tier(rows: pa.Table, tier_us: int, keys: list) -> pa.Table:
    """Tier rows (keys..., bucket_ts, count, sum, min, max) rebucketed to
    tier_us and merged within the batch: the exchange's combiner."""
    cols = {k: rows[k] for k in keys}
    cols["bucket_ts"] = bucket_timestamps(rows["bucket_ts"], tier_us)
    cols.update({c: rows[c] for c in ("count", "sum", "min", "max")})
    return _merge_tier(pa.table(cols), keys + ["bucket_ts"])


def partial_rollup_batch(
    batch: pa.Table,
    tier_us: int,
    key_cols: list | None = None,
    ts_col: str = "ts",
    value_col: str = "value",
) -> pa.Table:
    """In-batch partial aggregate of points on (key_cols..., bucket)."""
    keys = list(key_cols or DEFAULT_SERIES_KEY)
    return _partial_tier(_points_as_tier(batch, keys, ts_col, value_col), tier_us, keys)


def _tier_exchange(ds, tier_us: int, keys: list, as_tier=None):
    """One hash exchange per tier. Each split task views its input blocks
    as tier rows (`as_tier`; None: they are tier rows), pre-merges them
    (_partial_tier) and buckets them by the series key only, so a whole
    series lands in one bucket; each reduce task merges its bucket's
    partials and appends mean = sum/count (not mergeable, so computed
    after the final merge). Typed empty input blocks keep the tier's
    columns; an input with no typed block keeps its own (raytools._no_rows)."""
    gk = keys + ["bucket_ts"]
    n_buckets = default_buckets()

    def partial(batch: pa.Table) -> pa.Table:
        return _partial_tier(batch if as_tier is None else as_tier(batch), tier_us, keys)

    def final(t: pa.Table) -> pa.Table:
        merged = _merge_tier(t, gk)
        return merged.append_column(
            "mean", pc.divide(merged["sum"], pc.cast(merged["count"], pa.float64()))
        )

    return _exchange(
        [(ds, _bucket_by(keys, n_buckets, partial))], n_buckets, final, empty_like=ds,
        drop_empty=True,
    )


def rollup_tier(
    points_ds,
    tier: str,
    key_cols: list | None = None,
    ts_col: str = "ts",
    value_col: str = "value",
):
    """points (key_cols..., ts, value) -> tier aggregate rows: the cascade
    over the points seen as a tier of one row per point."""
    keys = list(key_cols or DEFAULT_SERIES_KEY)
    return _tier_exchange(
        points_ds, TIERS_US[tier], keys, lambda b: _points_as_tier(b, keys, ts_col, value_col)
    )


def cascade_tier(finer_ds, coarser_tier: str, key_cols: list | None = None):
    """Re-aggregate a finer tier's rows into a coarser tier — exact because
    count/sum/min/max merge associatively; mean recomputed at the end."""
    return _tier_exchange(finer_ds, TIERS_US[coarser_tier], list(key_cols or DEFAULT_SERIES_KEY))


TIER_COLUMNS = ("count", "sum", "min", "max", "mean")


def series_offsets(keys: np.ndarray) -> np.ndarray:
    """Bounds of the runs of equal keys in a sorted key array: run i is
    rows offsets[i]:offsets[i+1]."""
    starts = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    return np.concatenate([[0], starts, [keys.size]]) if keys.size else np.zeros(1, np.int64)


class SortedTier:
    """Tier rows sorted by (key, bucket_ts), as numpy arrays: `key`, `ts`
    (bucket_ts in int64 microseconds) and `cols` (count, sum, min, max,
    mean); series i is rows offsets[i]:offsets[i+1]. Every tier kernel
    (the 1m rollup over a points view, the cascade, gap-fill + encode, the
    analyses) reads this one form. The rows of several hive buckets may
    follow one another, each bucket sorted on its own: a key never spans
    buckets, so each series is still one run."""

    __slots__ = ("key", "ts", "cols", "offsets")

    def __init__(self, key: np.ndarray, ts: np.ndarray, cols: dict):
        self.key, self.ts, self.cols = key, ts, cols
        self.offsets = series_offsets(key)

    @classmethod
    def from_tables(cls, tables: list, key: str = "url_hash") -> "SortedTier":
        """Tier tables of distinct buckets as one SortedTier, bucket after
        bucket in the order given."""
        t = pa.concat_tables(tables)
        k = t[key].to_numpy()
        # a safe cast: tier buckets are whole minutes, so it never truncates
        ts = t["bucket_ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
        part = np.repeat(np.arange(len(tables)), [x.num_rows for x in tables])
        order = np.lexsort((ts, k, part))
        return cls(k[order], ts[order], {c: t[c].to_numpy()[order] for c in TIER_COLUMNS})

    @classmethod
    def from_frame(cls, df, key: str = "url_hash") -> "SortedTier":
        """A tier frame as a SortedTier: its rows sorted by (key,
        bucket_ts) with pandas (so a key of any dtype sorts), with the
        tier columns it has."""
        df = df.sort_values([key, "bucket_ts"])
        ts = df["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
        return cls(df[key].to_numpy(), ts, {c: df[c].to_numpy() for c in TIER_COLUMNS if c in df})

    def table(self, key: str = "url_hash") -> pa.Table:
        """The tier file's table: key, bucket_ts:timestamp[ns], count:int64,
        sum/min/max/mean:float64, with the pandas metadata a DataFrame
        write records."""
        return with_pandas_metadata(pa.table(
            {key: self.key, "bucket_ts": us_to_ns(self.ts), **self.cols}))



def us_to_ns(us: np.ndarray) -> pa.Array:
    """int64 microseconds as timestamp[ns] (what pd.to_datetime(unit="us")
    gives); the cast raises on overflow past 2262 as pandas does."""
    return pa.array(us, pa.timestamp("us")).cast(pa.timestamp("ns"))


def cascade_sorted(tier: SortedTier, tier_us: int) -> tuple[SortedTier, np.ndarray]:
    """Re-aggregate a sorted finer tier into coarser buckets in one pass:
    the coarse bucket is monotone within a series, so each output row is a
    run of input rows and every aggregate is one reduceat. count sums as
    int64. sum is np.add.reduceat in float64 (numpy's summation order,
    pairwise within long runs) with NaN counted as 0, as pandas' skipna
    sum; that is exact for the engine's integer-valued sums (byte lengths)
    below 2^53, while pandas' groupby sums with Kahan compensation, so a
    non-integer sum may differ from it in the last bit. min/max skip NaN
    (np.fmin/np.fmax), NaN only for an all-NaN run, as pandas. Returns the
    coarser tier and the first input row of each output row."""
    bucket = (tier.ts // tier_us) * tier_us
    key = tier.key
    if key.size:
        brk = np.flatnonzero((key[1:] != key[:-1]) | (bucket[1:] != bucket[:-1])) + 1
        starts = np.concatenate([[0], brk])
    else:
        starts = np.zeros(0, dtype=np.int64)
    c = tier.cols

    def agg(ufunc, v):
        return ufunc.reduceat(v, starts) if starts.size else v[:0]

    s = np.where(np.isnan(c["sum"]), 0.0, c["sum"])
    out = {"count": agg(np.add, c["count"]), "sum": agg(np.add, s),
           "min": agg(np.fmin, c["min"]), "max": agg(np.fmax, c["max"])}
    with np.errstate(divide="ignore", invalid="ignore"):
        out["mean"] = out["sum"] / out["count"]
    return SortedTier(key[starts], bucket[starts], out), starts


def rollup_points(points: pa.Table, tier_us: int):
    """Roll a bucket's points (url_hash, ts, value), sorted by (url_hash,
    ts), into a tier: cascade_sorted over the points seen as a tier of one
    row per point (count = value is not NaN; sum, min, max, mean = value),
    so NaN and null values count as pandas' groupby counts them. A point
    without a timestamp forms no tier row. Returns cascade_sorted's pair."""
    if points["ts"].null_count:
        points = points.filter(pc.is_valid(points["ts"]))
    ts = points["ts"]
    if ts.type.unit == "ns":  # floored to microseconds, as a datetime64 cast does
        ts = ts.cast(pa.int64()).to_numpy() // 1000
    else:
        ts = ts.cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
    return _rollup_sorted(points["url_hash"].to_numpy(), ts, points["value"].to_numpy(), tier_us)


def _rollup_sorted(key: np.ndarray, ts: np.ndarray, value: np.ndarray, tier_us: int):
    v = value.astype(np.float64, copy=False)
    cols = {"count": (~np.isnan(v)).astype(np.int64), "sum": v, "min": v, "max": v, "mean": v}
    return cascade_sorted(SortedTier(key, ts, cols), tier_us)


def _first_seen_frame(tier: SortedTier, order: np.ndarray, starts: np.ndarray, key: str):
    """`tier` (rolled from input rows `order[starts[i]:starts[i+1]]`) as the
    frame groupby(sort=False) gives: rows in the order of their first input
    row, bucket_ts as datetime64[ns]."""
    import pandas as pd

    first_seen = np.argsort(np.minimum.reduceat(order, starts) if starts.size else starts)
    frame = pd.DataFrame({key: tier.key, "bucket_ts": tier.ts, **tier.cols}).iloc[first_seen]
    frame = frame.reset_index(drop=True)
    frame["bucket_ts"] = pd.to_datetime(frame["bucket_ts"], unit="us")
    return frame


def rollup_partition_pandas(df, tier_us: int, key: str = "url_hash"):
    """Whole-partition rollup of a points frame: the pandas adapter of
    rollup_points, rows in first-appearance order."""
    df = df[df["ts"].notna()]
    ts = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
    keys = df[key].to_numpy()
    order = np.lexsort((ts, keys))
    out, starts = _rollup_sorted(keys[order], ts[order], df["value"].to_numpy()[order], tier_us)
    return _first_seen_frame(out, order, starts, key)


def cascade_partition_pandas(df, tier_us: int, key: str = "url_hash"):
    """Whole-partition tier cascade: the pandas adapter of cascade_sorted,
    rows in first-appearance order."""
    ts = df["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
    keys = df[key].to_numpy()
    order = np.lexsort((ts, keys))
    finer = SortedTier(keys[order], ts[order],
                       {c: df[c].to_numpy()[order] for c in ("count", "sum", "min", "max")})
    out, starts = cascade_sorted(finer, tier_us)
    return _first_seen_frame(out, order, starts, key)
