"""Reading a committed flagship output root: stage row counts, per-tier
tables and the block catalog (which hive partition holds which series)."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq

TIERS = ("1m", "1h", "1d")


def manifest(out_root: str) -> dict:
    with open(os.path.join(out_root, "MANIFEST.json")) as f:
        return json.load(f)


def partition_dirs(stage_dir: str) -> list[str]:
    return sorted(
        os.path.join(stage_dir, d)
        for d in os.listdir(stage_dir)
        if d.startswith("series_bucket=")
    )


def read_stage(stage_dir: str, columns: list[str] | None = None) -> pa.Table:
    """All partitions of a hive-partitioned stage output as one table."""
    ds = pds.dataset(stage_dir, format="parquet", partitioning="hive")
    return ds.to_table(columns=columns)


def count_rows(stage_dir: str) -> int:
    return pds.dataset(stage_dir, format="parquet", partitioning="hive").count_rows()


def payload_bits(out_root: str) -> tuple[int, int]:
    """(codec payload bits, encoded points) over the three block tiers:
    the exact lengths of the `ts_dod` and `values_gorilla` blobs."""
    bits = points = 0
    for tier in TIERS:
        t = read_stage(
            os.path.join(out_root, f"blocks_{tier}"),
            ["n_points", "ts_dod", "values_gorilla"],
        )
        for col in ("ts_dod", "values_gorilla"):
            bits += 8 * pc.sum(pc.binary_length(t[col])).as_py()
        points += pc.sum(t["n_points"]).as_py()
    return bits, points


class TierSeries:
    """Observed rows of one tier, grouped by series: url_hash ->
    (bucket_ts int64 sorted, mean float64)."""

    def __init__(self, stage_dir: str):
        t = read_stage(stage_dir, ["url_hash", "bucket_ts", "mean", "count"])
        keys = t["url_hash"].to_numpy()
        ts = pc.cast(t["bucket_ts"], pa.timestamp("us")).cast(pa.int64()).to_numpy()
        mean = t["mean"].to_numpy()
        order = np.lexsort((ts, keys))
        keys, ts, mean = keys[order], ts[order], mean[order]
        change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
        starts = np.concatenate([[0], change])
        ends = np.concatenate([change, [keys.size]])
        self.series = {
            int(keys[s]): (ts[s:e], mean[s:e]) for s, e in zip(starts, ends)
        }
        self.total_count = int(pc.sum(t["count"]).as_py())


def block_catalog(blocks_dir: str) -> dict[int, str]:
    """url_hash -> the parquet file, inside its hive partition, that holds
    the series' block row."""
    out: dict[int, str] = {}
    for d in partition_dirs(blocks_dir):
        for name in sorted(os.listdir(d)):
            f = os.path.join(d, name)
            for k in pq.read_table(f, columns=["url_hash"])["url_hash"].to_numpy().tolist():
                out[k] = f
    return out
