"""Incremental cross-snapshot exact deduplication.

The real 100-TB training-data workflow deduplicates a NEW crawl increment
against an EXISTING corpus without re-reading the corpus: the dedup state
is not the corpus but its content-hash index — (text_hash, representative
min doc_id, copy count) — persisted hive-partitioned, one parquet file per
hash bucket of text_hash (the same bucket-file + atomic-replace + footer
ledger pattern as stages/incremental.py's IncrementalTierStore). An
increment is hashed (the same 64-bit content hash as stages/dedup.py
exact_dedup — only hashes ever cross the exchange, never text), shuffled
to its buckets, and each AFFECTED bucket merges new rows with its existing
file via one groupby; untouched buckets are never read or written. Because
min(doc_id) and count merge associatively, ANY chunking of the corpus into
increments produces bitwise-identical index state to a single batch
exact_dedup run — which is exactly what the dedup_incremental query's
DuckDB oracle (batch dedup of the unioned corpus) checks.

Scale contracts:
- Index size is O(distinct texts) x 24 bytes — vanishingly small next to
  the corpus; at 10^12 docs across 4096 buckets each bucket file holds
  ~2.4e8 rows (~6 GB), still a single-task merge. Buckets are fixed at
  store creation so bucket assignment never changes across increments.
- An increment touching k buckets costs k bucket-file rewrites; the
  common nightly-crawl case touches all buckets but reads only index
  bytes, never the historical corpus.
- Exactly-once per bucket under crash + retry via the footer fingerprint
  ledger (bounded, same _LEDGER_MAX policy and rationale as the tier
  store).
- Multi-node: bucket files live on the shared filesystem / object store
  the flagship already assumes for its hive-partitioned tier output.

Reference parity: the reference has no incremental story (its
SignalSharp/ library is in-memory per-call); this is an engine-level
capability the Ray version adds, equivalence-pinned to exact_dedup
(stages/dedup.py:37) which is itself driver-hash-verified.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd

from .dedup import _content_hash

_LEDGER = b"signalsharp_applied_chunks"
_LEDGER_MAX = 1024


class DedupIndexStore:
    """Persisted exact-dedup index supporting incremental application.

    Layout: <root>/bucket=<B>/part.parquet with columns
    (text_hash int64, doc_id int64 = min representative, n_copies int64).
    """

    def __init__(self, root: str, n_buckets: int = 64):
        self.root = root
        self.n_buckets = n_buckets
        os.makedirs(root, exist_ok=True)

    def _bucket_path(self, b: int) -> str:
        return os.path.join(self.root, f"bucket={b}", "part.parquet")

    # -- write path --------------------------------------------------------

    def apply(self, docs_ds, fingerprint: str | None = None) -> pd.DataFrame:
        """Merge a Dataset of documents (doc_id, text) into the index.
        Returns a small manifest frame (bucket, distinct_after, new_texts,
        skipped) — one row per AFFECTED bucket.

        fingerprint: identifies this increment for exactly-once retries
        (see the tier store); None applies at-least-once and keeps the
        ledger of earlier fingerprinted increments. apply() calls on one
        store must be serialized: each bucket is a read-modify-write, so
        two concurrent applies touching one bucket lose one increment's
        rows (last writer wins)."""
        import pyarrow as pa
        import pyarrow.parquet as pq

        from ..common.raytools import hash_exchange

        n_buckets = self.n_buckets
        bucket_path = self._bucket_path

        def partial(batch: pd.DataFrame) -> pd.DataFrame:
            h = _content_hash(batch["text"])
            g = (
                pd.DataFrame({"text_hash": h, "doc_id": batch["doc_id"]})
                .groupby("text_hash", sort=False)
                .agg(doc_id=("doc_id", "min"), n_copies=("doc_id", "size"))
                .reset_index()
            )
            g["__bucket"] = (
                g["text_hash"].to_numpy(np.uint64) % np.uint64(n_buckets)
            ).astype(np.int64)
            return g

        def manifest(b: list, distinct: list, new: list, skipped: list) -> pa.Table:
            return pa.table(
                {
                    "bucket": pa.array(b, pa.int64()),
                    "distinct_after": pa.array(distinct, pa.int64()),
                    "new_texts": pa.array(new, pa.int64()),
                    "skipped": pa.array(skipped, pa.bool_()),
                }
            )

        def merge_bucket(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return manifest([], [], [], [])  # untouched: no file read or written
            b = int(t["__bucket"][0].as_py())
            df = t.drop_columns(["__bucket"]).to_pandas()
            path = bucket_path(b)
            applied: list[str] = []
            n_before = 0
            if os.path.exists(path):
                old = pq.read_table(path)
                meta = old.schema.metadata or {}
                if _LEDGER in meta:
                    applied = json.loads(meta[_LEDGER])
                if fingerprint is not None and fingerprint in applied:
                    return manifest([b], [old.num_rows], [0], [True])
                old_df = old.to_pandas()
                n_before = len(old_df)
                df = pd.concat([old_df, df], ignore_index=True)
            out = (
                df.groupby("text_hash", sort=True)
                .agg(doc_id=("doc_id", "min"), n_copies=("n_copies", "sum"))
                .reset_index()
            )
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if fingerprint is not None:
                applied = (applied + [fingerprint])[-_LEDGER_MAX:]
            # no pandas metadata: per-bucket footers differ (ledger), and
            # unhashable schema metadata makes Ray's read-side schema
            # dedup log noise on every read_dataset(); an unfingerprinted
            # apply keeps the ledger as it was
            table = pa.Table.from_pandas(out, preserve_index=False)
            table = table.replace_schema_metadata(
                {_LEDGER: json.dumps(applied).encode()} if applied else None
            )
            tmp = path + ".tmp"
            pq.write_table(table, tmp)
            os.replace(tmp, path)  # atomic per bucket
            return manifest([b], [len(out)], [len(out) - n_before], [False])

        partials = docs_ds.map_batches(partial, batch_format="pandas")
        out = hash_exchange(partials, n_buckets, merge_bucket)
        return out.to_pandas()  # tiny: one row per affected bucket

    # -- read paths --------------------------------------------------------

    def probe_increment(self, docs_ds):
        """Per-document dedup verdict for an increment WITHOUT applying it:
        joins the increment's hashes against ONLY the touched bucket files.
        Returns a Dataset (doc_id, text_hash, known int8) — known=1 means
        the text already exists in the index."""
        bucket_path = self._bucket_path
        n_buckets = self.n_buckets

        def probe(batch: pd.DataFrame) -> pd.DataFrame:
            df = pd.DataFrame(
                {
                    "doc_id": batch["doc_id"],
                    "text_hash": _content_hash(batch["text"]),
                }
            )
            df["__bucket"] = (
                df["text_hash"].to_numpy(np.uint64) % np.uint64(n_buckets)
            ).astype(np.int64)
            known = np.zeros(len(df), dtype=np.int8)
            for b, g in df.groupby("__bucket", sort=False):
                path = bucket_path(int(b))
                if not os.path.exists(path):
                    continue
                idx = pd.read_parquet(path, columns=["text_hash"])
                known[g.index.to_numpy()] = (
                    g["text_hash"].isin(idx["text_hash"]).to_numpy(np.int8)
                )
            df["known"] = known
            return df.drop(columns=["__bucket"])

        return docs_ds.map_batches(probe, batch_format="pandas")

    def read_dataset(self):
        """Index state as a streaming Dataset (doc_id, n_copies) — the same
        shape as stages.dedup.exact_dedup's output. The explicit schema
        keeps Ray's block-schema dedup off the (unhashable, per-bucket
        varying) ledger footer metadata."""
        import pyarrow as pa
        import ray.data as rd

        return rd.read_parquet(
            self.root,
            columns=["doc_id", "n_copies"],
            schema=pa.schema([("doc_id", pa.int64()), ("n_copies", pa.int64())]),
        )
