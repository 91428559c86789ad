"""Extract stage: raw web-page rows -> (url_hash, ts, value, text_hash)
points and a url dictionary (url_hash, url, host).

Vectorized Arrow kernels (zero-copy batches):
- value = extracted-text length in UTF-8 bytes (deterministic per-row metric;
  combined with text_hash it makes the "byte-identical extracted text per
  url" invariant checkable downstream)
- html is dropped immediately (wide binary never travels past this stage)
- host is parsed from the url with a pyarrow regex extract, once per url
  in the dictionary

Dedup: duplicate (url, warc_ts) crawl rows collapse to one point in ONE
hash exchange keyed by url_hash (exchange_points): the map side pre-dedups
each batch, and each bucket's reducer keeps one row per (url_hash, ts)
with pyarrow's hash group_by (dedup_bucket), so aggregates are computed
after dedup and re-crawled pages don't double count.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# a null ts in the pre-dedup key: that key already folds (url_hash, ts)
# into one int64, so it keeps rows exact only up to collisions, and a
# real ts equal to this constant is as unlikely as any other collision
_NULL_TS = -0x61C8864680B583EB


def _host(url) -> pa.Array:
    return pc.struct_field(pc.extract_regex(url, r"^[a-z]+://(?P<host>[^/]+)"), "host")


def _hash_strings(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Stable 64-bit content hash per string — pandas' vectorized (C-level)
    siphash with a fixed key, deterministic across processes and runs."""
    import pandas as pd

    values = arr.to_numpy(zero_copy_only=False)
    hashed = pd.util.hash_array(np.asarray(values, dtype=object), categorize=False)
    return pa.array(hashed.view(np.int64), pa.int64())


def _hash_distinct_strings(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """_hash_strings(arr), hashing each distinct string once: a batch
    repeats a url on every crawl of it. A null keeps its hash of None."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    encoded = pc.dictionary_encode(arr, null_encoding="encode")
    return _hash_strings(encoded.dictionary).take(encoded.indices)


def _first_per_key(batch: pa.Table) -> pa.Table:
    """Keep the first row of each (url, ts) key inside a batch (pure-numpy
    in-batch pre-dedup on the integer (url_hash, ts) pair)."""
    uh = batch["url_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
    ts = pc.fill_null(batch["ts"].cast(pa.int64()), _NULL_TS)
    ts = ts.to_numpy(zero_copy_only=False).view(np.uint64)
    key = uh * np.uint64(1000003) ^ ts
    _, first_idx = np.unique(key, return_index=True)
    if first_idx.size == len(batch):
        return batch
    return batch.take(pa.array(np.sort(first_idx)))


def build_url_dict(pages_ds, n_buckets: int | None = None):
    """(url_hash, url, host, series_bucket) dictionary from the url column
    alone, in a hash exchange of its own on the SAME bucketing as the
    points (series_bucket = url_hash % n_buckets). The flagship builds its
    dictionary inside the points exchange instead (url_dict_bucket); this
    standalone pass reads only the url column (projection pushdown, no
    html/text bytes) and is the reference that dictionary is checked
    against."""
    from ..common.raytools import default_buckets, hash_exchange

    if n_buckets is None:
        n_buckets = default_buckets()

    def first_url(t: pa.Table) -> pa.Table:
        # url and host are functions of url_hash: min picks the one value
        g = t.group_by(["url_hash", "__bucket"], use_threads=False).aggregate(
            [("url", "min"), ("host", "min")]
        )
        g = g.rename_columns(["url_hash", "__bucket", "url", "host"])
        return g.select(["url_hash", "url", "host", "__bucket"])

    def batch_dict(batch: pa.Table) -> pa.Table:
        url = batch["url"]
        url_hash = _hash_strings(url)
        uh = url_hash.to_numpy(zero_copy_only=False).view(np.uint64)
        bucket = pa.array((uh % np.uint64(n_buckets)).astype(np.int64))
        return first_url(
            pa.table({"url_hash": url_hash, "url": url, "host": _host(url), "__bucket": bucket})
        )

    def reduce_dict(t: pa.Table) -> pa.Table:
        return first_url(t).rename_columns(["url_hash", "url", "host", "series_bucket"])

    dicts = pages_ds.select_columns(["url"]).map_batches(batch_dict, batch_format="pyarrow")
    return hash_exchange(dicts, n_buckets, reduce_dict)


def _compact_bucket_batch(batch: pa.Table, n_buckets: int) -> pa.Table:
    """The points exchange's map side: a LEAN extract to int64-keyed
    compact rows (no host regex), the in-batch pre-dedup, and each row's
    `__bucket`. The url string rides only on the first row of each
    url_hash in the batch (null elsewhere), so the exchange moves one
    string per distinct url per batch, enough for each bucket to build its
    slice of the url dictionary (url_dict_bucket)."""
    url = batch["url"]
    url_hash = _hash_distinct_strings(url)
    first = np.zeros(len(url_hash), dtype=bool)
    first[np.unique(url_hash.to_numpy(zero_copy_only=False), return_index=True)[1]] = True
    value = pc.cast(pc.binary_length(pc.cast(batch["text"], pa.binary())), pa.float64())
    t = pa.table(
        {
            "url_hash": url_hash,
            "ts": batch["warc_ts"],
            "value": value,
            "text_hash": _hash_strings(batch["text"]),
            # replace_with_mask, not if_else: if_else writes invalid
            # offsets for a sliced string array
            "url": pc.replace_with_mask(url, pa.array(~first), pa.scalar(None, url.type)),
        }
    )
    # the first row of a url_hash is the first of its (url_hash, ts) key,
    # so the pre-dedup keeps every url-carrying row
    t = _first_per_key(t)
    uh = t["url_hash"].to_numpy(zero_copy_only=False).view(np.uint64)
    bucket = (uh % np.uint64(n_buckets)).astype(np.int64)
    return t.append_column("__bucket", pa.array(bucket))


def dedup_bucket(t: pa.Table) -> pa.Table:
    """A bucket's exchange rows -> its deduplicated points (url_hash, ts,
    value, text_hash), sorted by (url_hash, ts) with null ts last.
    Duplicate crawl rows of one (url_hash, ts) carry identical payloads, so
    `min` over each set reproduces the row."""
    g = t.group_by(["url_hash", "ts"], use_threads=False).aggregate(
        [("value", "min"), ("text_hash", "min")]
    )
    g = g.rename_columns(["url_hash", "ts", "value", "text_hash"])
    return g.sort_by([("url_hash", "ascending"), ("ts", "ascending")])


def url_dict_bucket(t: pa.Table) -> pa.Table:
    """A bucket's exchange rows -> its url dictionary slice (url_hash, url,
    host): the one url of each url_hash, from the rows that carry it,
    sorted by url_hash so the slice does not depend on row arrival order."""
    g = t.filter(pc.is_valid(t["url"])).group_by("url_hash", use_threads=False).aggregate(
        [("url", "min")]
    )
    g = g.rename_columns(["url_hash", "url"]).sort_by("url_hash")
    return g.append_column("host", _host(g["url"]))


def dict_lookup(url_dict: pa.Table, keys: np.ndarray) -> dict:
    """The columns of `url_dict` other than `url_hash` for each of `keys`, by
    a search on its sorted keys (a left join: an absent key gets nulls)."""
    dkeys = url_dict["url_hash"].to_numpy()
    order = np.argsort(dkeys, kind="stable")
    at = order[np.minimum(np.searchsorted(dkeys, keys, sorter=order), dkeys.size - 1)]
    take = pa.array(at, mask=dkeys[at] != keys)
    return {c: url_dict[c].take(take) for c in url_dict.column_names if c != "url_hash"}


def exchange_points(pages_ds, n_buckets: int, reduce_fn):
    """Extract + exact dedup as ONE manual hash exchange (no Ray sort):
    each page row becomes a compact row in bucket url_hash % n_buckets,
    and `reduce_fn` gets each bucket's rows (url_hash, ts, value,
    text_hash, url, __bucket; see _compact_bucket_batch). Returns the
    exchange's Dataset of reduce outputs."""
    from ..common.raytools import hash_exchange

    bucketed = pages_ds.select_columns(["url", "warc_ts", "text"]).map_batches(
        partial(_compact_bucket_batch, n_buckets=n_buckets), batch_format="pyarrow"
    )
    return hash_exchange(bucketed, n_buckets, reduce_fn)


def _points_with_bucket(t: pa.Table) -> pa.Table:
    g = dedup_bucket(t)
    bucket = t["__bucket"][0].as_py() if t.num_rows else 0
    return g.append_column(
        "series_bucket", pa.array(np.full(g.num_rows, bucket, dtype=np.int64))
    )


def extract_dedup_exchange(pages_ds, n_buckets: int | None = None):
    """Extract + exact dedup via the points exchange: a Dataset of
    deduplicated compact points carrying `series_bucket`, ready to be
    written hive-partitioned."""
    from ..common.raytools import default_buckets

    return exchange_points(pages_ds, n_buckets or default_buckets(), _points_with_bucket)
