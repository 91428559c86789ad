"""The traced run: the flagship stage graph rebuilt from each layer's public
functions, one stage at a time, with a span around every call into a layer.

Stages run in sequence (run_flagship overlaps some of them in threads), and
every Ray stage is materialized before its write so the stage and the
parquet write get separate spans. After the pipeline, the same partition
kernels run again in this process over the same partitions, without Ray,
so each stage's kernel time can be set against its Ray stage time.
"""

from __future__ import annotations

import os
import time

import numpy as np

from .corpus import TIERS, count_rows, manifest, partition_dirs, read_stage

ANALYSES = ("changepoints", "smooth", "forecast")
ANALYSIS_STAGE = {"changepoints": "changepoints", "smooth": "smoothed", "forecast": "forecast"}


def stage_names(cfg) -> list[str]:
    t = cfg.analysis_tier
    return (["points"] + [f"tier_{x}" for x in TIERS] + [f"blocks_{x}" for x in TIERS]
            + [f"{ANALYSIS_STAGE[a]}_{t}" for a in ANALYSES])


def n_buckets(cfg) -> int:
    """The hive bucket count run_flagship uses (its own default rule)."""
    import ray

    return cfg.n_buckets or max(128, int(ray.cluster_resources().get("CPU", 8)) * 4)


def _kernels(cfg):
    """layer name -> (source stage, whole-partition kernel), exactly the
    kernels run_flagship maps over each hive partition."""
    from signalsharp_ray.stages.analysis import (
        changepoints_partition_pandas,
        forecast_partition_pandas,
        smooth_partition_pandas,
    )
    from signalsharp_ray.stages.encode import encode_partition_pandas
    from signalsharp_ray.stages.rollup import (
        TIERS_US,
        cascade_partition_pandas,
        rollup_partition_pandas,
    )

    out = {}
    prev = None
    for tier in TIERS:
        tu = TIERS_US[tier]
        if prev is None:
            out[f"rollup.{tier}"] = ("points/data", lambda df, tu=tu: rollup_partition_pandas(df, tu))
        else:
            out[f"rollup.{tier}"] = (f"tier_{prev}", lambda df, tu=tu: cascade_partition_pandas(df, tu))
        prev = tier
    for tier in TIERS:
        out[f"encode.{tier}"] = (
            f"tier_{tier}",
            lambda df, tier=tier: encode_partition_pandas(
                df, tier, TIERS_US[tier], cfg.gapfill_method, cfg.max_gap_buckets
            ),
        )
    at, col = cfg.analysis_tier, cfg.analysis_value_col
    src = f"tier_{at}"
    out["analysis.changepoints"] = (
        src, lambda df: changepoints_partition_pandas(df, cfg.changepoints, col, "url_hash"))
    out["analysis.smooth"] = (
        src, lambda df: smooth_partition_pandas(df, cfg.smoothing, col, "url_hash"))
    out["analysis.forecast"] = (
        src, lambda df: forecast_partition_pandas(df, cfg.forecast, TIERS_US[at], col, "url_hash"))
    return out


def traced_pipeline(tracer, input_dir: str, fingerprint: str, out_root: str) -> dict:
    """Build the committed output under `out_root` layer by layer. Returns
    {stage: {"run_s", "write_fn_s"}} for the manifest metrics."""
    import ray.data as rd

    from signalsharp_ray.common.raytools import map_partition_tables
    from signalsharp_ray.pipelines.flagship import FlagshipConfig
    from signalsharp_ray.stages.extract import build_url_dict, extract_dedup_exchange
    from signalsharp_ray.state.manifest import PipelineManifest

    cfg = FlagshipConfig(out_root=out_root)
    man = PipelineManifest(out_root)
    buckets = n_buckets(cfg)
    kernels = _kernels(cfg)
    stages: dict[str, dict] = {}

    def write(ds, out_dir, stage):
        with tracer.span("fsio.write", stage=stage):
            ds.write_parquet(out_dir, partition_cols=["series_bucket"])

    def run_stage(stage, lineage, body):
        rec = {"write_fn_s": 0.0}

        def write_fn(out_dir):
            t0 = time.perf_counter()
            body(out_dir)
            rec["write_fn_s"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        with tracer.span("manifest.run_stage", stage=stage):
            man.run_stage(stage, fingerprint, lineage, write_fn)
        rec["run_s"] = time.perf_counter() - t0
        stages[stage] = rec

    def points(out_dir):
        with tracer.span("extract.exchange"):
            pts = extract_dedup_exchange(rd.read_parquet(input_dir), n_buckets=buckets).materialize()
        write(pts, out_dir + "/data", "points")
        with tracer.span("extract.url_dict"):
            udict = build_url_dict(rd.read_parquet(input_dir), n_buckets=buckets).materialize()
        write(udict, out_dir + "/dict", "points")

    def partition_stage(stage, layer, src_dir, attach=None):
        def body(out_dir):
            with tracer.span(layer):
                ds = map_partition_tables(src_dir, kernels[layer][1], attach_root=attach).materialize()
            write(ds, out_dir, stage)
        return body

    with tracer.span("flagship"):
        run_stage("points", ["pages"], points)
        prev = None
        for tier in TIERS:
            src = f"{out_root}/points/data" if prev is None else f"{out_root}/tier_{prev}"
            run_stage(f"tier_{tier}", ["points" if prev is None else f"tier_{prev}"],
                      partition_stage(f"tier_{tier}", f"rollup.{tier}", src))
            prev = tier
        for tier in TIERS:
            run_stage(f"blocks_{tier}", [f"tier_{tier}"],
                      partition_stage(f"blocks_{tier}", f"encode.{tier}", f"{out_root}/tier_{tier}"))
        at = cfg.analysis_tier
        for a in ANALYSES:
            attach = f"{out_root}/points/dict" if a == "changepoints" else None
            stage = f"{ANALYSIS_STAGE[a]}_{at}"
            run_stage(stage, [f"tier_{at}"],
                      partition_stage(stage, f"analysis.{a}", f"{out_root}/tier_{at}", attach))
    return stages


def kernel_passes(tracer, out_root: str) -> dict:
    """Re-run every partition kernel in this process, no Ray, over the same
    partitions the Ray stages read. Returns kernel seconds per layer."""
    from signalsharp_ray.common import fsio
    from signalsharp_ray.pipelines.flagship import FlagshipConfig

    cfg = FlagshipConfig(out_root=out_root)
    out = {}
    for layer, (src, fn) in _kernels(cfg).items():
        secs = 0.0
        with tracer.span(f"kernel.{layer}"):
            for d in partition_dirs(os.path.join(out_root, src)):
                with tracer.span("kernel.read"):
                    df = fsio.read_parquet_dir(d)
                    df = df.drop(columns=[c for c in ("series_bucket", "__bucket") if c in df.columns])
                t0 = time.perf_counter()
                fn(df)
                secs += time.perf_counter() - t0
        out[layer] = secs
    return out


def codec_pass(tracer, out_root: str) -> dict:
    """Decode every block of the three tiers, then encode the decoded
    arrays again: pure codec throughput on the corpus' own series."""
    from signalsharp_ray.codecs import (
        decode_timestamps_dod,
        decode_values_gorilla,
        encode_timestamps_dod,
        encode_values_gorilla,
    )

    points = 0
    dec_s = enc_s = 0.0
    for tier in TIERS:
        t = read_stage(os.path.join(out_root, f"blocks_{tier}"), ["ts_dod", "values_gorilla"])
        series = []
        with tracer.span("kernel.codecs.decode", tier=tier):
            t0 = time.perf_counter()
            for tsb, vb in zip(t["ts_dod"].to_pylist(), t["values_gorilla"].to_pylist()):
                series.append((decode_timestamps_dod(tsb), decode_values_gorilla(vb)))
            dec_s += time.perf_counter() - t0
        with tracer.span("kernel.codecs.encode", tier=tier):
            t0 = time.perf_counter()
            for ts, vals in series:
                encode_timestamps_dod(ts)
                encode_values_gorilla(vals)
            enc_s += time.perf_counter() - t0
        points += sum(ts.size for ts, _ in series)
    return {"points": points, "decode_s": dec_s, "encode_s": enc_s}


def ingest_layer_metrics(tracer, out_root: str, rows_in: int, stages: dict,
                         kernel_s: dict, codec: dict) -> dict:
    """Per-layer metrics of one traced build, from its spans and outputs."""
    import pyarrow.compute as pc

    from signalsharp_ray.pipelines.flagship import FlagshipConfig

    cfg = FlagshipConfig(out_root=out_root)
    span_s: dict[str, float] = {}
    write_s: dict[str, float] = {}
    for s in tracer.spans:
        dur = s["end"] - s["start"]
        if s["name"] == "fsio.write":
            write_s[s["attrs"]["stage"]] = write_s.get(s["attrs"]["stage"], 0.0) + dur
        else:
            span_s[s["name"]] = span_s.get(s["name"], 0.0) + dur

    man = manifest(out_root)
    m: dict[str, float] = {}
    per_bucket = [count_rows(d) for d in partition_dirs(os.path.join(out_root, "points", "data"))]
    rows_out = sum(per_bucket)
    m["extract.exchange_s"] = span_s["extract.exchange"]
    m["extract.rows_in"] = rows_in
    m["extract.rows_out"] = rows_out
    m["extract.dedup_ratio"] = rows_out / rows_in
    m["extract.bucket_skew"] = max(per_bucket) / (rows_out / n_buckets(cfg))
    m["raytools.exchange_rows_per_s"] = rows_in / span_s["extract.exchange"]
    m["extract.url_dict_s"] = span_s["extract.url_dict"]
    m["extract.url_dict_keys"] = count_rows(os.path.join(out_root, "points", "dict"))

    stage_s = 0.0
    kern_s = 0.0
    prev_rows = rows_out
    for tier in TIERS:
        layer = f"rollup.{tier}"
        m[f"rollup.{tier}_s"] = span_s[layer] + write_s[f"tier_{tier}"]
        m[f"rollup.{tier}_kernel_s"] = kernel_s[layer]
        rows = man[f"tier_{tier}"]["rows"]
        m[f"rollup.{tier}_ratio"] = rows / prev_rows
        prev_rows = rows
        stage_s += m[f"rollup.{tier}_s"]
        kern_s += kernel_s[layer]
    for tier in TIERS:
        layer = f"encode.{tier}"
        blocks = read_stage(os.path.join(out_root, f"blocks_{tier}"),
                            ["n_points", "ts_dod", "values_gorilla"])
        n_pts = pc.sum(blocks["n_points"]).as_py()
        payload = sum(pc.sum(pc.binary_length(blocks[c])).as_py() for c in ("ts_dod", "values_gorilla"))
        m[f"gapfill.{tier}_filled_share"] = (n_pts - man[f"tier_{tier}"]["rows"]) / n_pts
        m[f"encode.{tier}_s"] = span_s[layer] + write_s[f"blocks_{tier}"]
        m[f"encode.{tier}_kernel_s"] = kernel_s[layer]
        m[f"codecs.{tier}_bits_per_point"] = 8.0 * payload / n_pts
        stage_s += m[f"encode.{tier}_s"]
        kern_s += kernel_s[layer]
    m["codecs.encode_mpts_per_s"] = codec["points"] / codec["encode_s"] / 1e6
    m["codecs.ingest_decode_mpts_per_s"] = codec["points"] / codec["decode_s"] / 1e6
    an_kern = 0.0
    for a in ANALYSES:
        layer = f"analysis.{a}"
        m[f"analysis.{a}_s"] = span_s[layer] + write_s[f"{ANALYSIS_STAGE[a]}_{cfg.analysis_tier}"]
        m[f"analysis.{a}_kernel_s"] = kernel_s[layer]
        stage_s += m[f"analysis.{a}_s"]
        kern_s += kernel_s[layer]
        an_kern += kernel_s[layer]
    n_series = int(np.unique(read_stage(
        os.path.join(out_root, f"tier_{cfg.analysis_tier}"), ["url_hash"])["url_hash"].to_numpy()).size)
    m["analysis.series_per_s"] = n_series / an_kern
    m["manifest.commit_s"] = sum(r["run_s"] - r["write_fn_s"] for r in stages.values())
    for stage in stage_names(cfg):
        m[f"fsio.write_{stage}_s"] = write_s[stage]
        m[f"fsio.write_{stage}_bytes"] = man[stage]["bytes"]
    m["flagship.ray_overhead_share"] = 1.0 - kern_s / stage_s
    m["flagship.traced_wall_s"] = span_s["flagship"]
    return m

