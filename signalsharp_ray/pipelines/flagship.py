"""Flagship pipeline: web pages -> extract -> rollup tiers -> gap-fill ->
Gorilla/DoD encode -> changepoint analysis, with per-stage checkpointing.

Stage graph (three jobs; every output is hive-partitioned by
series_bucket = url_hash % n_buckets and recorded in the manifest, so a
killed run resumes at the first incomplete job):

    job 1: [pages] -> extract + dedup exchange -> points/data, points/dict
                      (url dictionary), rollup 1m -> tier_1m
    job 2: tier_1m      -> cascade 1h -> 1d    -> tier_1h, tier_1d
    job 3: tier_1m/1h/1d -> gap-fill + encode   -> blocks_1m, blocks_1h, blocks_1d
           tier_1d      -> PELT / EMA / forecast -> changepoints_1d,
                                                   smoothed_1d, forecast_1d

The exchange is the only shuffle, and job 1 ends in it: each reduce task
dedups its bucket's points and writes them, the bucket's dictionary slice
and its 1m tier, so points and tier_1m commit together (the freshness
point readers wait for). Jobs 2-3 are partition-aligned: each is one Ray
task per contiguous bucket group (run_bucket_groups) that reads its input
buckets once, runs the whole-partition kernels in memory and writes its
own buckets of every output stage. The tiers commit before any derived
output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from ..common import fsio
from ..common.raytools import run_bucket_groups
from ..sources.synth import WebPagesSpec, generate_webpages_dataset
from ..stages.analysis import (
    ChangepointConfig,
    ForecastConfig,
    SmoothingConfig,
    changepoints_partition_pandas,
    forecast_partition_pandas,
    smooth_partition_pandas,
)
from ..stages.encode import encode_partition_pandas
from ..stages.extract import dedup_bucket, exchange_points, url_dict_bucket
from ..stages.rollup import TIERS_US, cascade_partition_pandas, rollup_partition_pandas
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
    analyze: bool = True
    smooth: bool = True
    do_forecast: bool = True
    encode: bool = True


def _read_bucket(stage_dir: str, bucket: int):
    # the partition column lives in the directory name, not in the files
    return fsio.read_parquet_dir(fsio.join(stage_dir, f"series_bucket={bucket}"))


def _ingest_bucket(t, points_dir, tier_dir, tier_us):
    """The points exchange's reducer: a bucket's deduplicated points, its
    url dictionary slice and its first tier, each written to the bucket's
    file. Returns no rows."""
    points = dedup_bucket(t)
    if points.num_rows:
        b = t["__bucket"][0].as_py()
        fsio.write_bucket(points, fsio.join(points_dir, "data"), b)
        fsio.write_bucket(url_dict_bucket(t), fsio.join(points_dir, "dict"), b)
        fsio.write_bucket(rollup_partition_pandas(points.to_pandas(), tier_us), tier_dir, b)
    return points.slice(0, 0)


def _cascade_bucket(bucket, src_dir, tiers):
    df = _read_bucket(src_dir, bucket)
    out = {}
    for tier in tiers:
        df = out[f"tier_{tier}"] = cascade_partition_pandas(df, TIERS_US[tier])
    return out


def _derived_bucket(bucket, cfg, stages, tier_dirs, dict_dir):
    """Blocks per tier and the three analyses of the analysis tier, for one
    bucket; url/host strings attach to changepoints from the co-partitioned
    dictionary slice of the same bucket."""
    frames = {tier: _read_bucket(d, bucket) for tier, d in tier_dirs.items()}
    out = {}
    for tier, df in frames.items():
        if f"blocks_{tier}" in stages:
            out[f"blocks_{tier}"] = encode_partition_pandas(
                df, tier, TIERS_US[tier], cfg.gapfill_method, cfg.max_gap_buckets
            )
    at, col = cfg.analysis_tier, cfg.analysis_value_col
    df = frames.get(at)
    if f"changepoints_{at}" in stages:
        cps = changepoints_partition_pandas(df, cfg.changepoints, col, "url_hash")
        if len(cps):
            cps = cps.merge(_read_bucket(dict_dir, bucket), on="url_hash", how="left")
        out[f"changepoints_{at}"] = cps
    if f"smoothed_{at}" in stages:
        out[f"smoothed_{at}"] = smooth_partition_pandas(df, cfg.smoothing, col, "url_hash")
    if f"forecast_{at}" in stages:
        out[f"forecast_{at}"] = forecast_partition_pandas(
            df, cfg.forecast, TIERS_US[at], col, "url_hash"
        )
    return out


def run_flagship(pages_ds_factory, fingerprint: str, config: FlagshipConfig | None = None):
    """Run (or resume) the flagship pipeline.

    pages_ds_factory: () -> Dataset with the input_hint schema. A factory,
    not a Dataset, so skipped stages never even build the upstream graph.
    fingerprint: identifies the input (e.g. spec params or source path+mtime).
    Returns {stage_name: parquet_dir} plus timing metrics.
    """
    cfg = config or FlagshipConfig()
    manifest = PipelineManifest(cfg.out_root)
    outputs: dict[str, str] = {}
    metrics: dict[str, float] = {}

    def timed(stages: dict[str, list[str]], write_fn):
        t0 = time.time()
        dirs, _ = manifest.run_stages(stages, fingerprint, write_fn)
        for stage in stages:
            metrics[stage] = time.time() - t0
        outputs.update(dirs)

    def bucket_job(rows_of: str, fn):
        """write_fn running fn(bucket) over the buckets of `rows_of`."""
        return lambda out_dirs: run_bucket_groups(fn, manifest.bucket_rows(rows_of), out_dirs)

    import ray as _ray

    n_buckets = cfg.n_buckets or max(
        128, int(_ray.cluster_resources().get("CPU", 8)) * 4
    )

    # job 1: the pipeline's only all-to-all (a manual hash exchange, no Ray
    # sort), ending in tasks that write each bucket's points, url
    # dictionary slice (co-partitioned with every later stage) and first
    # tier; every later job is partition-aligned and shuffle-free
    first, rest = cfg.tiers[0], cfg.tiers[1:]

    def ingest(out_dirs):
        exchange_points(pages_ds_factory(), n_buckets, partial(
            _ingest_bucket, points_dir=out_dirs["points"],
            tier_dir=out_dirs[f"tier_{first}"], tier_us=TIERS_US[first]))

    timed({"points": ["pages"], f"tier_{first}": ["points"]}, ingest)
    points_dir = outputs["points"] + "/data"
    outputs["url_dict"] = outputs["points"] + "/dict"
    outputs["points"] = points_dir
    first_dir = outputs[f"tier_{first}"]

    # job 2: the coarser tiers, each cascaded in memory from the finer one
    if rest:
        lineage = dict(zip(rest, cfg.tiers))
        timed({f"tier_{t}": [f"tier_{lineage[t]}"] for t in rest},
              bucket_job(f"tier_{first}", partial(_cascade_bucket, src_dir=first_dir, tiers=rest)))

    # job 3: everything derived from the tiers
    at = cfg.analysis_tier
    analyses = [stage for stage, on in ((f"changepoints_{at}", cfg.analyze),
                                        (f"smoothed_{at}", cfg.smooth),
                                        (f"forecast_{at}", cfg.do_forecast))
                if on and at in cfg.tiers]
    derived = {f"blocks_{t}": [f"tier_{t}"] for t in cfg.tiers if cfg.encode}
    derived.update({stage: [f"tier_{at}"] for stage in analyses})
    if derived:
        read = [t for t in cfg.tiers if cfg.encode or t == at]
        fn = partial(_derived_bucket, cfg=cfg, stages=set(derived),
                     tier_dirs={t: outputs[f"tier_{t}"] for t in read},
                     dict_dir=outputs["url_dict"])
        timed(derived, bucket_job(f"tier_{first}", fn))

    return {"outputs": outputs, "metrics": metrics, "manifest": manifest.records()}


def run_flagship_synthetic(spec: WebPagesSpec | None = None, config: FlagshipConfig | None = None):
    spec = spec or WebPagesSpec()
    fingerprint = f"synth:{spec.seed}:{spec.n_rows}:{spec.n_hosts}:{spec.urls_per_host}"
    return run_flagship(lambda: generate_webpages_dataset(spec), fingerprint, config)
