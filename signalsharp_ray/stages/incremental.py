"""Incremental continuous-aggregate maintenance: apply new points to a
persisted rollup tier, rewriting ONLY the partitions whose series are
touched by the increment.

This is the late-data / streaming-arrival story of the rollup engine
(SURVEY §2.8: "Late data = re-run of affected partitions"): tier state
lives as one parquet file per hash bucket of the series key; an increment
is reduced to partial rows (the same combiner as the batch path), shuffled
to its buckets, and each affected bucket merges new partials with its
existing file via pyarrow's C++ groupby and atomically replaces it.
Untouched buckets are never read or written — at 10^12-row scale an
increment touching k series costs O(k/buckets-fraction) of the store, not
a full rebuild. Because count/sum/min/max merge associatively, ANY chunking
of the input produces bitwise-identical tier state to a single batch run
(tested in tests/test_stages.py, and the incremental_rollup_1h query is
held to the same DuckDB oracle as the batch rollup).

Writes happen inside the bucket kernel (one task per affected bucket) with
tmp-file + os.replace atomicity. Pass `fingerprint=` to apply() for
EXACTLY-ONCE increments: the set of applied chunk fingerprints rides in
each bucket file's parquet footer metadata, replaced atomically WITH the
data, so a bucket that already merged this chunk skips it — a crash
mid-apply then re-apply cannot double-count any bucket.
"""

from __future__ import annotations

import os

import pandas as pd

from .rollup import TIERS_US, partial_rollup_batch


class IncrementalTierStore:
    """A persisted rollup tier supporting incremental point application.

    Layout: <root>/bucket=<B>/part.parquet, one file per series-key hash
    bucket (the same hive scheme as the flagship tiers).
    """

    def __init__(self, root: str, tier: str, key_cols=("event_type",), n_buckets: int = 32):
        self.root = root
        self.tier_us = TIERS_US[tier]
        self.key_cols = list(key_cols)
        self.n_buckets = n_buckets
        os.makedirs(root, exist_ok=True)

    # -- helpers -----------------------------------------------------------

    def _bucket_path(self, b: int) -> str:
        return os.path.join(self.root, f"bucket={b}", "part.parquet")

    # -- write path --------------------------------------------------------

    def apply(self, points_ds, fingerprint: str | None = None) -> pd.DataFrame:
        """Merge a Dataset of raw points (key_cols..., ts, value) into the
        tier. Returns a small manifest frame (bucket, rows_after, skipped).

        fingerprint: identifies this increment; a bucket whose footer
        already records it skips the merge (exactly-once per bucket under
        crash + retry). None applies at-least-once and keeps the ledger
        of earlier fingerprinted increments.

        apply() calls on one store must be serialized: each bucket is a
        read-modify-write, so two concurrent applies touching one bucket
        lose one increment's rows (last writer wins).

        The ledger is BOUNDED: each bucket footer keeps only the most
        recent _LEDGER_MAX fingerprints, so continuous streaming
        increments cannot grow footer metadata (or the membership probe)
        without bound. The dedup window this buys — the last 1024
        increments per bucket — covers every real retry pattern (a failed
        task replays immediately, not thousands of increments later); a
        replay OLDER than the window would double-apply, which is the
        documented at-least-once boundary of this store."""
        import json

        import pyarrow as pa
        import pyarrow.parquet as pq

        from ..common.raytools import hash_exchange, key_buckets

        tier_us, key_cols = self.tier_us, self.key_cols
        gk = key_cols + ["bucket_ts"]
        _LEDGER = b"signalsharp_applied_chunks"
        _LEDGER_MAX = 1024

        def partial(batch) -> pd.DataFrame:
            t = partial_rollup_batch(batch, tier_us, key_cols).to_pandas()
            t["__bucket"] = key_buckets(t, key_cols, self.n_buckets)
            return t

        def manifest(b: list, rows: list, skipped: list) -> pa.Table:
            return pa.table(
                {
                    "bucket": pa.array(b, pa.int64()),
                    "rows_after": pa.array(rows, pa.int64()),
                    "skipped": pa.array(skipped, pa.bool_()),
                }
            )

        def merge_bucket(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return manifest([], [], [])  # untouched: no file read or written
            b = int(t["__bucket"][0].as_py())
            df = t.drop_columns(["__bucket"]).to_pandas()
            path = self._bucket_path(b)
            applied: list[str] = []
            if os.path.exists(path):
                old_table = pq.read_table(path)
                meta = old_table.schema.metadata or {}
                if _LEDGER in meta:
                    applied = json.loads(meta[_LEDGER])
                if fingerprint is not None and fingerprint in applied:
                    return manifest([b], [old_table.num_rows], [True])
                df = pd.concat([old_table.to_pandas(), df], ignore_index=True)
            g = df.groupby(gk, sort=True).agg(
                count=("count", "sum"),
                sum=("sum", "sum"),
                min=("min", "min"),
                max=("max", "max"),
            )
            out = g.reset_index()
            os.makedirs(os.path.dirname(path), exist_ok=True)
            table = pa.Table.from_pandas(out, preserve_index=False)
            if fingerprint is not None:
                applied = (applied + [fingerprint])[-_LEDGER_MAX:]
            if applied:
                # the ledger replaces atomically WITH the data: crash-safe;
                # an unfingerprinted apply keeps it as it was
                meta = dict(table.schema.metadata or {})
                meta[_LEDGER] = json.dumps(applied).encode()
                table = table.replace_schema_metadata(meta)
            tmp = path + ".tmp"
            pq.write_table(table, tmp)
            os.replace(tmp, path)  # atomic per bucket
            return manifest([b], [len(out)], [False])

        partials = points_ds.map_batches(partial, batch_format="pyarrow")
        out = hash_exchange(partials, self.n_buckets, merge_bucket)
        return out.to_pandas()  # tiny: one row per AFFECTED bucket

    # -- read path ---------------------------------------------------------

    def read(self) -> pd.DataFrame:
        """Full tier state with mean, as one frame (tests / small tiers).
        Large tiers would read the directory as a Dataset instead."""
        parts = []
        for d in sorted(os.listdir(self.root)):
            p = os.path.join(self.root, d, "part.parquet")
            if os.path.exists(p):
                parts.append(pd.read_parquet(p))
        if not parts:
            cols = self.key_cols + ["bucket_ts", "count", "sum", "min", "max"]
            return pd.DataFrame(columns=cols)
        out = pd.concat(parts, ignore_index=True)
        out["mean"] = out["sum"] / out["count"]
        return out
