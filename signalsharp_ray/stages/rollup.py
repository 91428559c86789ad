"""Time-bucketed rollup into continuous-aggregate retention tiers (1m/1h/1d).

This is the distributed generalization of the reference's fixed-size segment
statistics (/root/reference/SignalSharp/Resampling/Resampling.cs:101-216):
tumbling windows on the timestamp instead of the index, with identical
ragged-tail semantics (a bucket aggregates whatever points fall in it).

Scale design:
- PARTIAL+FINAL aggregation: every batch is pre-aggregated on
  (host, url, bucket_ts) with pyarrow's hash groupby BEFORE the cluster-wide
  shuffle, so the all-to-all exchange moves one row per (key, bucket) per
  batch instead of one row per point. count/sum/min/max are commutative and
  associative, so partial merging is exact.
- TIER CASCADE: 1h is re-aggregated from 1m partials and 1d from 1h
  (sum of sums, sum of counts, min of mins, max of maxes) — exact, and the
  coarser tiers never touch the raw points again.
- mean = sum/count is computed AFTER the final merge (it is not mergeable).

Output schema per tier:
    host:string, url:string, bucket_ts:timestamp[us],
    count:int64, sum:float64, min:float64, max:float64, mean:float64
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..common.raytools import hash_bucket_aggregate

TIERS_US = {
    "1m": 60_000_000,
    "1h": 3_600_000_000,
    "1d": 86_400_000_000,
    # epoch-aligned 7-day buckets (NOT ISO weeks: multiples of 7 days from
    # 1970-01-01, so the bucket function stays pure integer arithmetic on
    # both the engine and any SQL consumer)
    "1w": 604_800_000_000,
}

ROLLUP_KEY = ["host", "url", "bucket_ts"]
DEFAULT_SERIES_KEY = ["host", "url"]


import numpy as np


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


def partial_rollup_batch(
    batch: pa.Table,
    tier_us: int,
    key_cols: list | None = None,
    ts_col: str = "ts",
    value_col: str = "value",
) -> pa.Table:
    """In-batch partial aggregate on (key_cols..., bucket): the combiner."""
    keys = list(key_cols or DEFAULT_SERIES_KEY)
    cols = {k: batch[k] for k in keys}
    cols["bucket_ts"] = bucket_timestamps(batch[ts_col], tier_us)
    cols["value"] = batch[value_col]
    t = pa.table(cols)
    gk = keys + ["bucket_ts"]
    g = t.group_by(gk, use_threads=False).aggregate(
        [("value", "count"), ("value", "sum"), ("value", "min"), ("value", "max")]
    )
    return g.rename_columns(gk + ["count", "sum", "min", "max"])


def _merge_partials(ds, key_cols: list | None = None):
    """Cluster-wide final merge of partial rows (the one shuffle per tier).

    Uses hash_bucket_aggregate instead of Ray's groupby().aggregate():
    tier keys are HIGH cardinality (one group per series-bucket) and Ray's
    aggregate pays Python-per-group overhead; the bucketed C++ aggregation
    is exact for these commutative merges and O(#buckets) in Python.

    The shuffle bucket is derived from the SERIES key only (not bucket_ts),
    so a whole series lands in one bucket."""
    keys = list(key_cols or DEFAULT_SERIES_KEY)
    gk = keys + ["bucket_ts"]
    agg = hash_bucket_aggregate(
        ds,
        gk,
        [("count", "sum"), ("sum", "sum"), ("min", "min"), ("max", "max")],
        bucket_cols=keys,
    )

    def rename(batch: pa.Table) -> pa.Table:
        cols = {k: batch[k] for k in gk}
        cols["count"] = batch["count_sum"]
        cols["sum"] = batch["sum_sum"]
        cols["min"] = batch["min_min"]
        cols["max"] = batch["max_max"]
        return pa.table(cols)

    return agg.map_batches(rename, batch_format="pyarrow").map_batches(
        _add_mean, batch_format="pyarrow"
    )


def _add_mean(batch: pa.Table) -> pa.Table:
    # normalize bucket_ts back to us (Ray's aggregate may downcast to s);
    # tier buckets are whole seconds so the cast is lossless
    idx = batch.column_names.index("bucket_ts")
    batch = batch.set_column(
        idx, "bucket_ts", pc.cast(batch["bucket_ts"], pa.timestamp("us"))
    )
    mean = pc.divide(batch["sum"], pc.cast(batch["count"], pa.float64()))
    if "mean" in batch.column_names:
        batch = batch.drop_columns(["mean"])
    return batch.append_column("mean", mean)


def rollup_tier(
    points_ds,
    tier: str,
    key_cols: list | None = None,
    ts_col: str = "ts",
    value_col: str = "value",
):
    """points (key_cols..., ts, value) -> tier aggregate rows."""
    tier_us = TIERS_US[tier]
    keys = list(key_cols or DEFAULT_SERIES_KEY)
    partial = points_ds.map_batches(
        lambda b: partial_rollup_batch(b, tier_us, keys, ts_col, value_col),
        batch_format="pyarrow",
    )
    return _merge_partials(partial, keys)


def cascade_tier(finer_ds, coarser_tier: str, key_cols: list | None = None):
    """Re-aggregate a finer tier's rows into a coarser tier — exact because
    count/sum/min/max merge associatively; mean recomputed at the end."""
    tier_us = TIERS_US[coarser_tier]
    keys = list(key_cols or DEFAULT_SERIES_KEY)
    gk = keys + ["bucket_ts"]

    def rebucket(batch: pa.Table) -> pa.Table:
        cols = {k: batch[k] for k in keys}
        cols["bucket_ts"] = bucket_timestamps(batch["bucket_ts"], tier_us)
        for c in ("count", "sum", "min", "max"):
            cols[c] = batch[c]
        t = pa.table(cols)
        g = t.group_by(gk, use_threads=False).aggregate(
            [("count", "sum"), ("sum", "sum"), ("min", "min"), ("max", "max")]
        )
        return g.rename_columns(gk + ["count", "sum", "min", "max"])

    partial = finer_ds.map_batches(rebucket, batch_format="pyarrow")
    return _merge_partials(partial, keys)


def rollup_partition_pandas(df, tier_us: int, key: str = "url_hash"):
    """Whole-partition rollup in pandas (C-level groupby): used by the
    partition-aligned path where the points parquet is already hash-
    partitioned by the series key, so no cluster shuffle is needed.
    Identical bucket semantics to partial_rollup_batch."""
    import pandas as pd

    ts = df["ts"].astype("datetime64[us]").astype("int64")
    bucket = (ts // tier_us) * tier_us
    g = df.groupby([df[key], bucket], sort=False)["value"].agg(
        ["count", "sum", "min", "max"]
    )
    out = g.reset_index()
    out.columns = [key, "bucket_ts", "count", "sum", "min", "max"]
    out["bucket_ts"] = pd.to_datetime(out["bucket_ts"], unit="us")
    out["mean"] = out["sum"] / out["count"]
    return out


def cascade_partition_pandas(df, tier_us: int, key: str = "url_hash"):
    """Whole-partition tier cascade in pandas — exact re-aggregation of
    count/sum/min/max into coarser buckets."""
    import pandas as pd

    ts = df["bucket_ts"].astype("datetime64[us]").astype("int64")
    bucket = (ts // tier_us) * tier_us
    # one dict aggregation over the four columns: the same frame as four
    # named aggregations in ~0.6x the time (fixed per-call cost dominates
    # on small buckets)
    g = df.groupby([df[key], bucket], sort=False)[["count", "sum", "min", "max"]].agg(
        {"count": "sum", "sum": "sum", "min": "min", "max": "max"}
    )
    out = g.reset_index()
    out.columns = [key, "bucket_ts", "count", "sum", "min", "max"]
    out["bucket_ts"] = pd.to_datetime(out["bucket_ts"], unit="us")
    out["mean"] = out["sum"] / out["count"]
    return out
