"""Flagship pipeline end-to-end + resume-from-checkpoint tests."""

import os
import shutil

import pandas as pd
import pytest

from signalsharp_ray.pipelines.flagship import FlagshipConfig, run_flagship_synthetic
from signalsharp_ray.sources.synth import WebPagesSpec

SPEC = WebPagesSpec(n_rows=4_000, n_hosts=30, urls_per_host=4, rows_per_shard=1_000)


@pytest.fixture()
def out_root(tmp_path):
    return str(tmp_path / "flagship")


@pytest.mark.usefixtures("ray_session")
def test_flagship_end_to_end_and_resume(out_root):
    from signalsharp_ray.stages.analysis import ChangepointConfig

    cfg = FlagshipConfig(
        out_root=out_root,
        changepoints=ChangepointConfig(method="pelt", cost="l2", penalty=2.0, min_size=2),
    )
    res = run_flagship_synthetic(SPEC, cfg)
    outs = res["outputs"]
    # all stages produced parquet
    for stage in ["points", "tier_1m", "tier_1h", "tier_1d", "blocks_1m", "changepoints_1d"]:
        assert os.path.isdir(outs[stage]), stage
        has_parquet = any(
            f.endswith(".parquet")
            for _, _, files in os.walk(outs[stage])
            for f in files
        )
        assert has_parquet, stage

    # per-partition lineage: every stage records hive-partition rows/bytes
    # that sum to the stage totals
    for stage in ["tier_1m", "tier_1h", "tier_1d"]:
        rec = res["manifest"][stage]
        assert rec["partitions"], stage
        assert all(k.startswith("series_bucket=") for k in rec["partitions"])
        assert sum(p["rows"] for p in rec["partitions"].values()) == rec["rows"]
        assert sum(p["bytes"] for p in rec["partitions"].values()) == rec["bytes"]

    pts = pd.read_parquet(outs["points"])
    t1m = pd.read_parquet(outs["tier_1m"])
    t1h = pd.read_parquet(outs["tier_1h"])
    t1d = pd.read_parquet(outs["tier_1d"])
    assert len(pts) > 0
    assert len(t1m) >= len(t1h) >= len(t1d) > 0
    # exact cascade: per-(host,url) counts agree across tiers
    assert t1m["count"].sum() == t1h["count"].sum() == t1d["count"].sum() == len(pts)
    assert t1m["sum"].sum() == pytest.approx(t1h["sum"].sum())

    # blocks decode back to the dense gap-filled series
    from signalsharp_ray.stages.encode import decode_blocks

    blocks = pd.read_parquet(outs["blocks_1d"])
    dec = decode_blocks(blocks)
    assert dec.groupby(["url_hash"]).size().min() >= 1
    # changepoints carry the re-attached url/host strings
    cps = pd.read_parquet(outs["changepoints_1d"])
    assert {"host", "url", "url_hash"} <= set(cps.columns)
    assert cps["url"].notna().all()

    # resume: run again, every stage must be skipped (identical manifest)
    manifest_before = res["manifest"]
    res2 = run_flagship_synthetic(SPEC, cfg)
    for stage, rec in res2["manifest"].items():
        assert rec["completed_at"] == manifest_before[stage]["completed_at"], stage

    # kill-and-resume: delete one mid-pipeline stage output; only it and
    # nothing upstream reruns
    shutil.rmtree(outs["tier_1h"])
    res3 = run_flagship_synthetic(SPEC, cfg)
    assert res3["manifest"]["points"]["completed_at"] == manifest_before["points"]["completed_at"]
    assert res3["manifest"]["tier_1h"]["completed_at"] > manifest_before["tier_1h"]["completed_at"]
    t1h_again = pd.read_parquet(res3["outputs"]["tier_1h"])
    assert t1h_again["count"].sum() == t1h["count"].sum()


@pytest.mark.usefixtures("ray_session")
def test_flagship_fingerprint_invalidation(out_root):
    cfg = FlagshipConfig(out_root=out_root, tiers=("1m",))
    res1 = run_flagship_synthetic(SPEC, cfg)
    spec2 = WebPagesSpec(
        n_rows=2_000, n_hosts=30, urls_per_host=4, rows_per_shard=1_000
    )
    res2 = run_flagship_synthetic(spec2, cfg)  # different fingerprint
    assert (
        res2["manifest"]["points"]["completed_at"]
        > res1["manifest"]["points"]["completed_at"]
    )
    assert res2["manifest"]["points"]["rows"] < res1["manifest"]["points"]["rows"]


@pytest.mark.usefixtures("ray_session")
def test_flagship_smoothed_and_forecast_outputs(tmp_path):
    cfg = FlagshipConfig(out_root=str(tmp_path / "fs"))
    res = run_flagship_synthetic(SPEC, cfg)
    outs = res["outputs"]
    sm = pd.read_parquet(outs["smoothed_1d"])
    assert {"url_hash", "bucket_ts", "smoothed", "op"} <= set(sm.columns)
    assert (sm["op"] == "ema").all()
    fc = pd.read_parquet(outs["forecast_1d"])
    assert {"url_hash", "method", "h", "forecast_ts", "forecast"} <= set(fc.columns)
    assert set(fc["h"].unique()) == {1, 2, 3}
