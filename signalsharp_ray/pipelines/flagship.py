"""Flagship pipeline: web pages -> extract -> rollup tiers -> gap-fill ->
Gorilla/DoD encode -> changepoint analysis, with per-stage checkpointing.

Stage graph (two jobs; every output is hive-partitioned by
series_bucket = url_hash % n_buckets and recorded in the manifest, so a
killed run resumes at the first incomplete commit):

    job 1: [pages] -> extract + dedup exchange -> points/data, points/dict
                      (url dictionary), rollup 1m -> tier_1m
    job 2: tier_1m -> cascade 1h -> 1d           -> tier_1h, tier_1d
                   -> gap-fill + encode per tier -> blocks_1m, blocks_1h, blocks_1d
           tier_1d -> PELT / EMA / forecast      -> changepoints_1d,
                                                    smoothed_1d, forecast_1d

The exchange is the only shuffle, and job 1 ends in it. The pages are
read in about 2 blocks per CPU, and each reduce task takes a contiguous
group of buckets (about one group per CPU). For each bucket of its group
it dedups the bucket's points with one Arrow group_by, sorts them once by
(url_hash, ts) and writes them, the bucket's dictionary slice and its 1m
tier, rolled from the sorted points by the cascade kernel
(rollup_points; a point without a timestamp stays in points and forms no
tier row): one file per bucket and output. So points and tier_1m commit
together (the freshness point readers wait for), and the reduce converts
nothing to pandas. Job 2 is partition-aligned: one Ray task per
contiguous bucket group (run_bucket_groups, _post_1m_buckets). A task
runs every kernel once per chunk of its buckets (a contiguous run of at
most _CHUNK_ROWS tier_1m rows; a group of the benchmark inputs is one
chunk): it reads each bucket's tier_1m once as an Arrow table and stacks
the chunk's buckets into one SortedTier, each bucket sorted by
(url_hash, bucket_ts). The cascade, one gap-fill grid and one DoD/Gorilla pass per
tier, and the three analyses of the analysis tier (PELT and EMA as
padded DPs over all short series at once) each run once over the chunk,
and every output is cut back into per-bucket slices, one file per
bucket and output. The job commits in two phases: the coarser tiers once
every task has written them, then the six derived outputs. A rerun after
a fault in the second phase recomputes the tiers in memory and writes
only the derived outputs.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import pyarrow as pa

from ..common import fsio
from ..common.raytools import coarse_reads, run_bucket_groups
from ..sources.synth import WebPagesSpec, generate_webpages_dataset
from ..stages.analysis import (
    ChangepointConfig,
    ForecastConfig,
    SmoothingConfig,
    changepoints_tier,
    forecast_tier,
    smooth_tier,
)
from ..stages.encode import encode_tier
from ..stages.extract import dedup_bucket, exchange_points, url_dict_bucket
from ..stages.rollup import TIERS_US, SortedTier, cascade_sorted, rollup_points
from ..state.manifest import PipelineManifest


@dataclass
class FlagshipConfig:
    out_root: str = "/tmp/signalsharp_ray/flagship"
    tiers: tuple = ("1m", "1h", "1d")
    # partition count is fixed at WRITE time and caps downstream
    # parallelism for every partition-aligned stage; size it to >= 4x the
    # LARGEST cluster this output will be consumed on, not the writer's
    # CPU count (None -> max(128, 4 x current CPUs))
    n_buckets: int | None = None
    gapfill_method: str = "locf"
    # bound the synthesized buckets per gap so sparse series never explode
    # into dense fine-tier grids (long gaps stay gaps)
    max_gap_buckets: int = 60
    analysis_tier: str = "1d"
    analysis_value_col: str = "count"  # crawl-rate series: real regime shifts
    changepoints: ChangepointConfig = field(
        default_factory=lambda: ChangepointConfig(
            method="pelt", cost="l2", penalty=10.0, min_size=1
        )
    )
    smoothing: SmoothingConfig = field(
        default_factory=lambda: SmoothingConfig(op="ema", alpha=0.3)
    )
    forecast: ForecastConfig = field(
        default_factory=lambda: ForecastConfig(method="linear", horizon=3)
    )


def _ingest_bucket(t, points_dir, tier_dir, tier_us):
    """The points exchange's reducer: a bucket's deduplicated points
    (sorted by url_hash, ts), its url dictionary slice and its first tier,
    each written to the bucket's file. Returns no rows."""
    points = dedup_bucket(t)
    if points.num_rows:
        b = t["__bucket"][0].as_py()
        # each file is created on a thread of its own (mostly kernel time,
        # outside the interpreter lock) while the next one is computed
        with ThreadPoolExecutor(max_workers=3) as pool:
            writes = [pool.submit(fsio.write_bucket, points, fsio.join(points_dir, "data"), b),
                      pool.submit(fsio.write_bucket, url_dict_bucket(t), fsio.join(points_dir, "dict"), b)]
            tier = rollup_points(points, tier_us)[0].table()
            writes.append(pool.submit(fsio.write_bucket, tier, tier_dir, b))
            for w in writes:
                w.result()
    return points.slice(0, 0)


# tier_1m rows per chunk of _post_1m_buckets: the rows one kernel pass
# takes at most (a bucket with more is a chunk of its own). It bounds a
# pass's temporaries (the 1m gap-fill grid is the largest), while a group
# of either perfbench input, or one CPU's share of 1M input rows at 4
# CPUs, is one chunk
_CHUNK_ROWS = 1 << 18


def _read_chunks(src_dir, buckets):
    """The buckets' tier_1m tables, read in order and cut into contiguous
    chunks of at most _CHUNK_ROWS rows: yields (chunk buckets, tables)."""
    chunk, tables, rows = [], [], 0
    for b in buckets:
        t = fsio.read_bucket(src_dir, b)
        if chunk and rows + t.num_rows > _CHUNK_ROWS:
            yield chunk, tables
            chunk, tables, rows = [], [], 0
        chunk.append(b)
        tables.append(t)
        rows += t.num_rows
    if chunk:
        yield chunk, tables


def _cutter(tier, sizes, chunk, key="url_hash"):
    """A function that cuts a chunk's output table, its rows in the
    tier's series order, into {bucket: Table.slice}: `sizes` are the
    chunk's tier rows per bucket, and each row's series is found by its
    key (a key is one series of one bucket)."""
    skeys = tier.key[tier.offsets[:-1]]
    sorter = np.argsort(skeys, kind="stable")
    bounds = np.searchsorted(tier.offsets, np.concatenate([[0], np.cumsum(sizes)]))

    def cut(table):
        series = sorter[np.searchsorted(skeys, table[key].to_numpy(), sorter=sorter)]
        at = np.searchsorted(series, bounds)
        return {b: table.slice(s, e - s) for b, s, e in zip(chunk, at[:-1], at[1:])}
    return cut


def _post_1m_buckets(buckets, cfg, src_dir, dict_dir, stages):
    """Everything after tier_1m for a group of buckets, as a two-phase
    generator for run_bucket_groups: first the coarser tiers, then the
    blocks of every tier and the analyses of the analysis tier; only
    `stages` are built (a rerun skips committed ones). Each kernel runs
    once per chunk of buckets (_read_chunks): the chunk's tier_1m tables
    make one SortedTier, bucket after bucket, and every output is cut back
    into the buckets' slices. Each phase's dict also carries its step
    seconds (the writes are timed by run_bucket_groups)."""
    t0 = time.perf_counter()
    chunks = []
    out = {f"tier_{t}": {} for t in cfg.tiers[1:] if f"tier_{t}" in stages}
    for chunk, tables in _read_chunks(src_dir, buckets):
        tiers = {cfg.tiers[0]: SortedTier.from_tables(tables)}
        for finer, tier in zip(cfg.tiers, cfg.tiers[1:]):
            tiers[tier], _ = cascade_sorted(tiers[finer], TIERS_US[tier])
        cut = _cutter(tiers[cfg.tiers[0]], [t.num_rows for t in tables], chunk)
        for stage in out:
            out[stage].update(cut(tiers[stage.removeprefix("tier_")].table()))
        chunks.append((chunk, tiers, cut))
    yield {**out, "cascade_s": time.perf_counter() - t0}

    encode_s = analyses_s = 0.0
    at, col = cfg.analysis_tier, cfg.analysis_value_col
    out = {stage: {} for stage in stages if not stage.startswith("tier_")}
    while chunks:
        chunk, tiers, cut = chunks.pop(0)
        t0 = time.perf_counter()
        for tier, rows in tiers.items():
            if f"blocks_{tier}" in stages:
                out[f"blocks_{tier}"].update(cut(encode_tier(
                    rows, tier, TIERS_US[tier], cfg.gapfill_method, cfg.max_gap_buckets)))
        t1 = time.perf_counter()
        if f"changepoints_{at}" in stages:
            url_dict = pa.concat_tables([fsio.read_bucket(dict_dir, b) for b in chunk])
            out[f"changepoints_{at}"].update(cut(changepoints_tier(
                tiers[at], cfg.changepoints, col, url_dict=url_dict.combine_chunks())))
        if f"smoothed_{at}" in stages:
            out[f"smoothed_{at}"].update(cut(smooth_tier(tiers[at], cfg.smoothing, col)))
        if f"forecast_{at}" in stages:
            out[f"forecast_{at}"].update(cut(forecast_tier(tiers[at], cfg.forecast, TIERS_US[at], col)))
        encode_s += t1 - t0
        analyses_s += time.perf_counter() - t1
    yield {**out, "encode_s": encode_s, "analyses_s": analyses_s}


def run_flagship(pages_ds_factory, fingerprint: str, config: FlagshipConfig | None = None):
    """Run (or resume) the flagship pipeline.

    pages_ds_factory: () -> Dataset with the input_hint schema. A factory,
    not a Dataset, so skipped stages never even build the upstream graph.
    fingerprint: identifies the input (e.g. spec params or source path+mtime).
    Returns {stage_name: parquet_dir} plus per-stage seconds from its job's
    start to its commit (0 for a stage the manifest skipped).
    """
    cfg = config or FlagshipConfig()
    manifest = PipelineManifest(cfg.out_root)
    outputs: dict[str, str] = {}
    metrics: dict[str, float] = {}

    def job(phases: list[dict[str, list[str]]], write_fn):
        _, walls = manifest.run_job(phases, fingerprint, write_fn)
        for stage in (stage for phase in phases for stage in phase):
            metrics[stage] = walls.get(stage, 0.0)
            outputs[stage] = manifest.stage_dir(stage)

    import ray as _ray

    n_buckets = cfg.n_buckets or max(
        128, int(_ray.cluster_resources().get("CPU", 8)) * 4
    )

    # job 1: the pipeline's only all-to-all (a manual hash exchange, no Ray
    # sort), ending in tasks that write each bucket's points, url
    # dictionary slice (co-partitioned with every later stage) and first
    # tier; job 2 is partition-aligned and shuffle-free
    first = cfg.tiers[0]

    def ingest(out_dirs, commit):
        # the pages are read in about 2 blocks per CPU (coarse_reads), both
        # where the factory builds the read and where the exchange runs it
        with coarse_reads():
            exchange_points(pages_ds_factory(), n_buckets, partial(
                _ingest_bucket, points_dir=out_dirs["points"],
                tier_dir=out_dirs[f"tier_{first}"], tier_us=TIERS_US[first]))

    job([{"points": ["pages"], f"tier_{first}": ["points"]}], ingest)
    outputs["url_dict"] = outputs["points"] + "/dict"
    outputs["points"] += "/data"

    # job 2: the coarser tiers commit first, then everything derived
    tiers = {f"tier_{t}": [f"tier_{finer}"] for finer, t in zip(cfg.tiers, cfg.tiers[1:])}
    at = cfg.analysis_tier
    derived = {f"blocks_{t}": [f"tier_{t}"] for t in cfg.tiers}
    if at in cfg.tiers:
        derived.update({f"{a}_{at}": [f"tier_{at}"] for a in ("changepoints", "smoothed", "forecast")})

    def post_1m(out_dirs, commit):
        fn = partial(_post_1m_buckets, cfg=cfg, src_dir=outputs[f"tier_{first}"],
                     dict_dir=outputs["url_dict"], stages=set(out_dirs))
        run_bucket_groups(fn, manifest.bucket_rows(f"tier_{first}"), out_dirs,
                          lambda i, steps: commit(tiers if i == 0 else derived, steps))

    job([tiers, derived], post_1m)
    return {"outputs": outputs, "metrics": metrics, "manifest": manifest.records()}


def run_flagship_synthetic(spec: WebPagesSpec | None = None, config: FlagshipConfig | None = None):
    spec = spec or WebPagesSpec()
    fingerprint = f"synth:{spec.seed}:{spec.n_rows}:{spec.n_hosts}:{spec.urls_per_host}"
    return run_flagship(lambda: generate_webpages_dataset(spec), fingerprint, config)
