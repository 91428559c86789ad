"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ray.init()/ray.shutdown().

- entry(): flagship rollup pipeline over /root/testdata/sf0.001 — events are
  re-expressed as Common-Crawl-style pages (input_hint schema), extracted,
  deduped, and rolled into the 1h continuous-aggregate tier.
- queries(): one entry per implemented operator from SURVEY.md §2 plus the
  training-data operators (dedup family, similarity search, text analysis,
  multimodal plumbing). See signalsharp_ray/pipelines/queries.py.
- oracle_sql(): DuckDB-equivalent SQL for every SQL-expressible query; the
  sequential-recurrence / DP / hash-heuristic operators are rows-only by
  design (documented per entry in queries.py).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF0001 = "/root/testdata/sf0.001"


def _events_as_pages(sf_dir: str):
    """Re-express the events table as the input_hint web-pages schema:
    url from (user_id, event_type), warc_ts = ts, text = props payload."""
    import pyarrow as pa
    import ray.data as rd

    def to_pages(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        host = pc.binary_join_element_wise(
            "host", pc.cast(batch["user_id"], pa.string()), ".example.com", ""
        )
        url = pc.binary_join_element_wise(
            "https://", host, "/", batch["event_type"], ""
        )
        text = batch["props"]
        html = pc.cast(text, pa.binary())
        lang = pa.array(["en"] * batch.num_rows, pa.string())
        return pa.table(
            {
                "url": url,
                "warc_ts": batch["ts"],
                "html": html,
                "text": text,
                "lang": lang,
            }
        )

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type", "ts", "props"]
    )
    return ds.map_batches(to_pages, batch_format="pyarrow")


def entry() -> Any:
    """Flagship pipeline on sf0.001: pages -> extract+dedup -> 1m -> 1h,
    on the flagship's kernels: one points exchange whose reducer dedups a
    bucket, rolls it to 1m, cascades 1m to 1h and attaches url and host
    from the bucket's url dictionary."""
    import pyarrow as pa

    from signalsharp_ray.common.raytools import default_buckets
    from signalsharp_ray.stages.extract import (
        dedup_bucket,
        dict_lookup,
        exchange_points,
        url_dict_bucket,
    )
    from signalsharp_ray.stages.rollup import TIER_COLUMNS, TIERS_US, cascade_sorted, rollup_points

    def tier_1h(t: pa.Table) -> pa.Table:
        t1m, _ = rollup_points(dedup_bucket(t), TIERS_US["1m"])
        t1h, _ = cascade_sorted(t1m, TIERS_US["1h"])
        names = dict_lookup(url_dict_bucket(t), t1h.key)
        return pa.table({
            "host": names["host"], "url": names["url"],
            "bucket_ts": pa.array(t1h.ts, pa.timestamp("us")),
            **{c: t1h.cols[c] for c in TIER_COLUMNS},
        })

    return exchange_points(_events_as_pages(SF0001), default_buckets(), tier_1h)


def queries() -> dict[str, Callable[[str], Any]]:
    from signalsharp_ray.pipelines.queries import build_queries

    return build_queries()


def oracle_sql() -> dict[str, str]:
    from signalsharp_ray.pipelines.queries import build_oracle_sql

    return build_oracle_sql()
