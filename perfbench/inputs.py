"""Workload definitions and seeded input generation.

The page rows come from `sources.synth.generate_webpages_shard`, called
in-process (no Ray), so generation is single-threaded and a pure function
of the seed. Re-delivered duplicates are added here: a seeded sample of the
generated rows is appended again and the whole table is shuffled, so the
duplicates land in other input files than their originals.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

DAY_US = 86_400_000_000


@dataclass(frozen=True)
class IngestShape:
    name: str
    rows: int  # total input rows, duplicates included
    n_hosts: int
    urls_per_host: int
    span_days: int
    dup_share: float  # share of the input rows that are exact re-deliveries
    files: int = 4


# Sized so one `run_flagship` call fits the benchmark's per-run budget at
# one Ray CPU. Every stage after the exchange runs one Ray task per
# populated hive bucket (128 by default), so the call's cost follows the
# number of populated buckets more than rows or series: ~16-23 s for the
# deep input's 64 series, ~30-45 s once all 128 buckets hold series (the
# same at 48k and 72k wide rows, 63 s at 144k). The wide input has ~6k
# series of ~12 points each. The deep input has 8 urls per host because
# the generator draws each url's text length from the seed and the
# engine's cost per row follows it: with 2 urls per host, the hot host's
# two texts set the input's text volume, which then spread 0.30 of its
# median across seeds, and the ingest times with it (0.10 with 8). Both
# inputs keep the generator's host popularity (Zipf 1.2).
SHAPES = {
    "deep": IngestShape("deep", 48_000, 8, 8, 7, 0.25),
    "wide": IngestShape("wide", 72_000, 2000, 5, 30, 0.0),
}
TINY = {
    "deep": IngestShape("deep", 3_000, 4, 2, 2, 0.25, files=2),
    "wide": IngestShape("wide", 3_000, 400, 5, 5, 0.0, files=2),
}


@dataclass
class GeneratedInput:
    path: str
    rows: int
    bytes: int
    distinct_url_ts: int
    distinct_urls: int


def page_table(shape: IngestShape, seed: int) -> pa.Table:
    """The workload's input rows, duplicates included, in a seeded order."""
    from signalsharp_ray.sources.synth import WebPagesSpec, generate_webpages_shard

    n_base = int(round(shape.rows * (1.0 - shape.dup_share)))
    spec = WebPagesSpec(
        n_rows=n_base,
        n_hosts=shape.n_hosts,
        urls_per_host=shape.urls_per_host,
        seed=seed,
        span_us=shape.span_days * DAY_US,
        rows_per_shard=n_base,
    )
    table = generate_webpages_shard(0, spec)
    rng = np.random.default_rng([seed, 0xD0B])
    n_dup = shape.rows - n_base
    if n_dup > 0:
        dup_idx = rng.integers(0, n_base, size=n_dup)
        table = pa.concat_tables([table, table.take(pa.array(dup_idx))])
    return table.take(pa.array(rng.permutation(table.num_rows)))


def write_input(shape: IngestShape, seed: int, out_dir: str) -> GeneratedInput:
    """Write the input parquet and return the generator-side facts the
    correctness checks compare the engine's outputs against."""
    table = page_table(shape, seed)
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    per_file = -(-table.num_rows // shape.files)
    for i in range(shape.files):
        part = table.slice(i * per_file, per_file)
        pq.write_table(part, os.path.join(out_dir, f"part-{i:03d}.parquet"))
    size = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)
    )
    pairs = table.select(["url", "warc_ts"]).group_by(["url", "warc_ts"]).aggregate([])
    return GeneratedInput(
        path=out_dir,
        rows=table.num_rows,
        bytes=size,
        distinct_url_ts=pairs.num_rows,
        distinct_urls=pc.count_distinct(table["url"]).as_py(),
    )
