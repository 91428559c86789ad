"""Encode stage: per-series Gorilla + delta-of-delta compressed blocks.

encode_partition_pandas gap-fills and encodes every series of a whole
partition frame in one pass, emitting one block row per series:

    <key>, tier, n_points:int32, first_ts:timestamp[us],
    first_value:float64, ts_dod:binary, values_gorilla:binary

Round-trip is exact (bit-identical float64, exact int64 timestamps) — see
decode_blocks and tests/test_stages.py.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..codecs import (
    decode_timestamps_dod,
    decode_values_gorilla,
    encode_timestamps_dod,
    encode_values_gorilla,
)

def encode_partition_pandas(
    df: pd.DataFrame,
    tier: str,
    tier_us: int,
    method: str = "locf",
    max_gap_buckets: int | None = None,
    key_col: str = "url_hash",
    value_col: str = "mean",
) -> pd.DataFrame:
    """Fused gap-fill + encode over a WHOLE partition frame: one sort,
    numpy group slicing, per-series work is pure numpy + the codecs —
    zero per-series DataFrame/Table construction (the per-series pandas
    path cost ~3ms/series in fixed frame overhead, which dominated the
    blocks_* stages at 75k series-tiers). Output: one block row per
    series."""
    from .gapfill import gapfill_arrays

    if len(df) == 0:
        return pd.DataFrame(
            {
                key_col: pd.Series(dtype="int64"),
                "tier": pd.Series(dtype="object"),
                "n_points": pd.Series(dtype="int32"),
                "first_ts": pd.Series(dtype="datetime64[us]"),
                "first_value": pd.Series(dtype="float64"),
                "ts_dod": pd.Series(dtype="object"),
                "values_gorilla": pd.Series(dtype="object"),
            }
        )
    df = df.sort_values([key_col, "bucket_ts"])
    keys = df[key_col].to_numpy()
    ts_all = df["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
    val_all = df[value_col].to_numpy(dtype=np.float64)
    change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [keys.size]])
    out_key = keys[starts]
    n_pts = np.empty(starts.size, dtype=np.int32)
    first_ts = np.empty(starts.size, dtype=np.int64)
    first_val = np.empty(starts.size, dtype=np.float64)
    ts_blobs: list = [None] * starts.size
    val_blobs: list = [None] * starts.size
    for i, (s, e) in enumerate(zip(starts, ends)):
        grid, value, _, _ = gapfill_arrays(
            ts_all[s:e], val_all[s:e], tier_us, method, max_gap_buckets
        )
        n_pts[i] = grid.size
        first_ts[i] = grid[0]
        first_val[i] = value[0]
        ts_blobs[i] = encode_timestamps_dod(grid)
        val_blobs[i] = encode_values_gorilla(value)
    return pd.DataFrame(
        {
            key_col: out_key,
            "tier": tier,
            "n_points": n_pts,
            "first_ts": pd.to_datetime(first_ts, unit="us"),
            "first_value": first_val,
            "ts_dod": ts_blobs,
            "values_gorilla": val_blobs,
        }
    )


def decode_blocks(blocks: pa.Table | pd.DataFrame) -> pd.DataFrame:
    """Inverse of the encode stage: block rows -> (host, url, tier, ts, value)
    point rows. Used by tests and by readers of the compressed tier."""
    if isinstance(blocks, pa.Table):
        blocks = blocks.to_pandas()
    key_cols = [
        c
        for c in blocks.columns
        if c not in ("tier", "n_points", "first_ts", "first_value", "ts_dod", "values_gorilla")
    ]
    # batch-decode: per-block codec calls, but ONE set of output arrays
    # (np.repeat for the key columns) instead of a DataFrame per block
    ts_parts, val_parts, lens = [], [], []
    for row in blocks.itertuples(index=False):
        d = row._asdict()
        ts = decode_timestamps_dod(d["ts_dod"])
        vals = decode_values_gorilla(d["values_gorilla"])
        ts_parts.append(ts)
        val_parts.append(vals)
        lens.append(len(ts))
    if not ts_parts:
        return pd.DataFrame(columns=key_cols + ["tier", "bucket_ts", "value"])
    reps = np.asarray(lens)
    out = {k: np.repeat(blocks[k].to_numpy(), reps) for k in key_cols}
    out["tier"] = np.repeat(blocks["tier"].to_numpy(), reps)
    out["bucket_ts"] = pd.to_datetime(np.concatenate(ts_parts), unit="us")
    out["value"] = np.concatenate(val_parts)
    return pd.DataFrame(out)


def read_blocks(blocks_dir: str):
    """Read a compressed-blocks parquet dataset back into a Dataset of
    decoded (key..., tier, bucket_ts, value) point rows — the inverse sink
    of the encode stage, decoded lazily per batch (streaming, not driver-
    side)."""
    import ray.data as rd

    ds = rd.read_parquet(blocks_dir)
    return ds.map_batches(decode_blocks, batch_format="pandas")
