"""Encode stage: per-series Gorilla + delta-of-delta compressed blocks.

encode_sorted gap-fills and encodes every series of a SortedTier in one
pass (one grid, one DoD and one Gorilla pass for all series), and
encode_tier makes the blocks table of it, one block row per series:

    <key>, tier, n_points:int32, first_ts:timestamp[ns],
    first_value:float64, ts_dod:binary, values_gorilla:binary

decode_blocks is the inverse: one segmented DoD and one segmented Gorilla
decode over all rows of a blocks table, then one pandas frame built from
numpy arrays (each key column converted on its own, bucket_ts cast from
int64 microseconds to datetime64[ns]); the table itself never goes through
Table.to_pandas. Round-trip is exact (bit-identical float64, exact int64
timestamps) — see tests/test_stages.py. encode_partition_pandas is the
pandas view of encode_tier over a frame.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..codecs.dod import decode_timestamps_dod_segments, encode_timestamps_dod_segments
from ..codecs.gorilla import decode_values_gorilla_segments, encode_values_gorilla_segments
from ..common.fsio import with_pandas_metadata
from .gapfill import gapfill_segments
from .rollup import SortedTier, us_to_ns


def encode_sorted(
    key: np.ndarray,
    ts: np.ndarray,
    values: np.ndarray,
    offsets: np.ndarray,
    tier_us: int,
    method: str = "locf",
    max_gap_buckets: int | None = None,
) -> dict:
    """Gap-fill and encode every series of a sorted partition at once:
    series i is rows offsets[i]:offsets[i+1] (ts in int64 microseconds).
    One gap-fill grid for all series, then one DoD and one Gorilla pass
    over all of them; no per-series Python. Returns one block per series:
    key, n_points, first_ts (us), first_value and the two binary arrays."""
    grid, value, goff, _ = gapfill_segments(ts, values, offsets, tier_us, method, max_gap_buckets)
    start = goff[:-1]
    return {
        "key": key[offsets[:-1]],
        "n_points": np.diff(goff).astype(np.int32),
        "first_ts": grid[start],
        "first_value": value[start],
        "ts_dod": encode_timestamps_dod_segments(grid, goff),
        "values_gorilla": encode_values_gorilla_segments(value, goff),
    }


def encode_tier(tier, tier_name: str, tier_us: int, method: str = "locf",
                max_gap_buckets: int | None = None, key_col: str = "url_hash",
                value_col: str = "mean") -> pa.Table:
    """A SortedTier's block rows as the blocks file's table:
    <key>, tier, n_points:int32, first_ts:timestamp[ns], first_value,
    ts_dod, values_gorilla."""
    b = encode_sorted(tier.key, tier.ts, tier.cols[value_col].astype(np.float64),
                      tier.offsets, tier_us, method, max_gap_buckets)
    return with_pandas_metadata(pa.table({
        key_col: b["key"],
        "tier": pa.array([tier_name] * b["key"].size, pa.string()),
        "n_points": b["n_points"],
        "first_ts": us_to_ns(b["first_ts"]),
        "first_value": b["first_value"],
        "ts_dod": b["ts_dod"],
        "values_gorilla": b["values_gorilla"],
    }))


def encode_partition_pandas(
    df: pd.DataFrame,
    tier: str,
    tier_us: int,
    method: str = "locf",
    max_gap_buckets: int | None = None,
    key_col: str = "url_hash",
    value_col: str = "mean",
) -> pd.DataFrame:
    """Fused gap-fill + encode over a WHOLE partition frame, one block row
    per series: encode_tier over the frame's SortedTier, as a frame."""
    return encode_tier(SortedTier.from_frame(df, key_col), tier, tier_us, method,
                       max_gap_buckets, key_col, value_col).to_pandas()


_BLOCK_COLS = ("tier", "n_points", "first_ts", "first_value", "ts_dod", "values_gorilla")
# datetime64[ns] holds the int64 microseconds -_NS_MAX_US..._NS_MAX_US
_NS_MAX_US = (2**63 - 1) // 1000


def decode_blocks(blocks: pa.Table | pd.DataFrame) -> pd.DataFrame:
    """Inverse of the encode stage: block rows -> (key..., tier, bucket_ts,
    value) point rows, one frame built in one step from numpy arrays. Each
    binary column is decoded with one segmented decoder call, straight
    from Arrow. Of a table, each key column and tier is converted on its
    own, never the whole table: nulls, strings and dictionaries convert as
    pandas converts them, and the columns its pandas metadata names as the
    index are left out, as Table.to_pandas leaves them out. Of a frame, its
    own columns are taken. Both are repeated per point with np.repeat.
    bucket_ts is datetime64[ns]; a timestamp outside that range raises
    OutOfBoundsDatetime, as pd.to_datetime(unit="us") does."""
    if isinstance(blocks, pa.Table):
        index = _pandas_index_columns(blocks.schema)
        names = [c for c in blocks.schema.names if c not in index]
        streams = [blocks.column(c) for c in ("ts_dod", "values_gorilla")]

        def column(c):
            col = blocks.column(c)
            return col.to_numpy() if _converts_alike(col.type) else col.to_pandas().to_numpy()
    else:
        names = list(blocks.columns)
        streams = [pa.array(blocks[c].to_numpy(), pa.binary()) for c in ("ts_dod", "values_gorilla")]

        def column(c):
            return blocks[c].to_numpy()
    key_cols = [c for c in names if c not in _BLOCK_COLS]
    if not len(blocks):
        return pd.DataFrame(columns=key_cols + ["tier", "bucket_ts", "value"])
    ts, offsets = decode_timestamps_dod_segments(streams[0])
    value, value_offsets = decode_values_gorilla_segments(streams[1])
    if not np.array_equal(offsets, value_offsets):
        raise ValueError("a block's ts_dod and values_gorilla hold different point counts")
    if ts.size and not (-_NS_MAX_US <= ts.min() and ts.max() <= _NS_MAX_US):
        bad = ts[(ts < -_NS_MAX_US) | (ts > _NS_MAX_US)][0]
        raise pd.errors.OutOfBoundsDatetime(f"Out of bounds nanosecond timestamp: {bad} us")
    reps = np.diff(offsets)
    out = {k: np.repeat(column(k), reps) for k in key_cols + ["tier"]}
    out["bucket_ts"] = ts.astype("datetime64[us]").astype("datetime64[ns]")
    out["value"] = value
    return pd.DataFrame(out, copy=False)


def _converts_alike(t: pa.DataType) -> bool:
    """Whether ChunkedArray.to_numpy gives what .to_pandas().to_numpy()
    gives, without the ~25 us Series: both run pyarrow's pandas
    conversion, nulls as NaN or None. A dictionary (with nulls), date or
    zoned timestamp column converts differently and goes through pandas."""
    return pa.types.is_integer(t) or pa.types.is_floating(t) or pa.types.is_string(t)


def _pandas_index_columns(schema: pa.Schema) -> set:
    """The stored columns a pandas metadata record names as the index
    (parsed only when its index_columns list is not the empty one that
    pyarrow writes for a frame without a stored index)."""
    meta = (schema.metadata or {}).get(b"pandas")
    if meta is None or b'"index_columns": []' in meta:
        return set()
    return {c for c in schema.pandas_metadata.get("index_columns", []) if isinstance(c, str)}
