"""The flagship's post-1m job (raytools.run_bucket_groups +
PipelineManifest.run_job) against the per-stage Dataset path it replaced,
and resume after a fault or a killed run inside it."""

import glob
import os
import signal
import subprocess
import sys

import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

from signalsharp_ray.common.raytools import bucket_groups
from signalsharp_ray.pipelines.flagship import FlagshipConfig, run_flagship_synthetic
from signalsharp_ray.sources.synth import WebPagesSpec
from signalsharp_ray.state.manifest import PipelineManifest

SPEC = WebPagesSpec(n_rows=3_000, n_hosts=12, urls_per_host=4, rows_per_shard=1_000)
N_BUCKETS = 16
TIER_STAGES = ["tier_1m", "tier_1h", "tier_1d"]
DERIVED_STAGES = ["blocks_1m", "blocks_1h", "blocks_1d",
                  "changepoints_1d", "smoothed_1d", "forecast_1d"]


def _cfg(root, **kw):
    return FlagshipConfig(out_root=str(root), n_buckets=N_BUCKETS, **kw)


@pytest.fixture(scope="module")
def clean(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("groups") / "clean"
    return run_flagship_synthetic(SPEC, _cfg(root)), root


def _stage_table(stage_dir):
    """All rows of a hive-partitioned stage, sorted by every column."""
    t = pds.dataset(str(stage_dir), format="parquet", partitioning="hive").to_table()
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _per_stage_dataset_path(cfg, out_root):
    """The stages after `points` as one Dataset job each: map_partition_tables
    over the upstream stage, then Dataset.write_parquet."""
    from signalsharp_ray.common.raytools import map_partition_tables
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

    src = f"{cfg.out_root}/points/data"
    col = cfg.analysis_value_col

    def write(stage, src_dir, fn, attach=None):
        out = map_partition_tables(src_dir, fn, attach_root=attach)
        out.write_parquet(f"{out_root}/{stage}", partition_cols=["series_bucket"])
        return f"{out_root}/{stage}"

    prev = write("tier_1m", src, lambda df: rollup_partition_pandas(df, TIERS_US["1m"]))
    for tier in ("1h", "1d"):
        prev = write(f"tier_{tier}", prev,
                     lambda df, tier=tier: cascade_partition_pandas(df, TIERS_US[tier]))
    for tier in ("1m", "1h", "1d"):
        write(f"blocks_{tier}", f"{out_root}/tier_{tier}",
              lambda df, tier=tier: encode_partition_pandas(
                  df, tier, TIERS_US[tier], cfg.gapfill_method, cfg.max_gap_buckets))
    t1d = f"{out_root}/tier_1d"
    write("changepoints_1d", t1d,
          lambda df: changepoints_partition_pandas(df, cfg.changepoints, col, "url_hash"),
          attach=f"{cfg.out_root}/points/dict")
    write("smoothed_1d", t1d,
          lambda df: smooth_partition_pandas(df, cfg.smoothing, col, "url_hash"))
    write("forecast_1d", t1d,
          lambda df: forecast_partition_pandas(df, cfg.forecast, TIERS_US["1d"], col, "url_hash"))


def test_bucket_groups_contiguous_and_balanced():
    rows = {0: 100, 1: 1, 2: 1, 5: 100, 7: 50, 9: 50}
    groups = bucket_groups(rows, 3)
    assert [b for g in groups for b in g] == sorted(rows)
    assert groups == [[0, 1], [2, 5], [7, 9]]
    assert bucket_groups(rows, 100) == [[b] for b in sorted(rows)]
    assert bucket_groups({}, 4) == []


def test_group_jobs_match_per_stage_dataset_path(clean, tmp_path):
    res, root = clean
    _per_stage_dataset_path(_cfg(root), tmp_path)
    for stage in TIER_STAGES + DERIVED_STAGES:
        new, old = _stage_table(root / stage), _stage_table(tmp_path / stage)
        assert new.num_rows > 0, stage
        assert new.schema.remove_metadata() == old.schema.remove_metadata(), stage
        assert new.equals(old), stage
        # same file schema, pandas metadata included, in every file
        old_schema = pq.read_schema(glob.glob(f"{tmp_path}/{stage}/*/*.parquet")[0])
        for f in glob.glob(f"{root}/{stage}/*/*.parquet"):
            assert pq.read_schema(f).equals(old_schema, check_metadata=True), (stage, f)
    # one job after the exchange, committing in two phases: tier_1m commits
    # alone (with points), then the coarser tiers together, then every
    # derived output together; each commit records its step seconds
    man = res["manifest"]
    assert man["tier_1m"]["completed_at"] < man["tier_1h"]["completed_at"]
    assert man["tier_1h"]["completed_at"] == man["tier_1d"]["completed_at"]
    assert man["tier_1d"]["completed_at"] < man["blocks_1m"]["completed_at"]
    assert len({man[s]["completed_at"] for s in DERIVED_STAGES}) == 1
    assert set(man["tier_1h"]["steps"]) == {"cascade_s", "write_s"}
    assert set(man["blocks_1m"]["steps"]) == {"encode_s", "analyses_s", "write_s"}
    assert all(v > 0 for s in ("tier_1d", "forecast_1d") for v in man[s]["steps"].values())
    assert man["tier_1m"]["steps"] == {}
    # counts are conserved through the in-memory cascade
    counts = [pc.sum(_stage_table(root / s)["count"]).as_py() for s in TIER_STAGES]
    assert counts[0] == counts[1] == counts[2] == man["points"]["partitions"]["data"]["rows"]


def test_fault_in_derived_job_resumes_after_tiers(clean, tmp_path):
    from signalsharp_ray.stages.analysis import ChangepointConfig

    res_clean, clean_root = clean
    root = tmp_path / "faulted"
    # an unknown changepoint method raises inside every derived task
    bad = _cfg(root, changepoints=ChangepointConfig(method="no-such-method"))
    with pytest.raises(Exception, match="no-such-method"):
        run_flagship_synthetic(SPEC, bad)
    res_fail = PipelineManifest(str(root)).records()
    assert set(res_fail) == {"points", *TIER_STAGES}

    # the rerun skips the committed tiers (recomputed in memory, not
    # written) and writes only the derived outputs
    res = run_flagship_synthetic(SPEC, _cfg(root))
    for stage in ["points", *TIER_STAGES]:
        assert res["manifest"][stage]["completed_at"] == res_fail[stage]["completed_at"], stage
        assert res["metrics"][stage] == 0.0, stage
    for stage in TIER_STAGES + DERIVED_STAGES:
        assert _stage_table(root / stage).equals(_stage_table(clean_root / stage)), stage


# Runs the flagship in a fresh Ray session (its main process, raylet and
# workers share one process group) whose forecast method name SIGKILLs
# that whole group the first time a task compares it: in the derived
# phase of the post-1m job, with its outputs half written, and no process
# of the killed run left to write after it.
KILLED_RUN = """
import os, signal, sys
import ray
ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
from signalsharp_ray.pipelines.flagship import FlagshipConfig, run_flagship_synthetic
from signalsharp_ray.sources.synth import WebPagesSpec
from signalsharp_ray.stages.analysis import ForecastConfig

GROUP = os.getpgid(0)


class KillOnCompare(str):
    def __eq__(self, other):
        os.killpg(GROUP, signal.SIGKILL)

    __hash__ = str.__hash__


spec = WebPagesSpec(n_rows={n_rows}, n_hosts={n_hosts}, urls_per_host={urls_per_host},
                    rows_per_shard={rows_per_shard})
run_flagship_synthetic(spec, FlagshipConfig(out_root=sys.argv[1], n_buckets={n_buckets},
                                            forecast=ForecastConfig(method=KillOnCompare("linear"))))
"""


def test_run_killed_mid_post_1m_job_resumes_to_clean_outputs(clean, tmp_path):
    res_clean, clean_root = clean
    root = tmp_path / "killed"
    code = KILLED_RUN.format(n_rows=SPEC.n_rows, n_hosts=SPEC.n_hosts, n_buckets=N_BUCKETS,
                             urls_per_host=SPEC.urls_per_host, rows_per_shard=SPEC.rows_per_shard)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-c", code, str(root)], cwd=repo, timeout=300,
                          env=dict(os.environ, PYTHONPATH=repo), capture_output=True,
                          start_new_session=True)
    assert proc.returncode == -signal.SIGKILL, proc.stderr[-2000:]
    killed = PipelineManifest(str(root)).records()
    # the kill lands in the derived phase: the tiers may have committed
    # before it or not, no derived output has, and its tmp dirs are left
    assert {"points", "tier_1m"} <= set(killed) <= {"points", *TIER_STAGES}
    assert glob.glob(f"{root}/forecast_1d.tmp-*")

    res = run_flagship_synthetic(SPEC, _cfg(root))
    for stage, rec in killed.items():
        assert res["manifest"][stage]["completed_at"] == rec["completed_at"], stage
        assert res["metrics"][stage] == 0.0, stage
    for stage in TIER_STAGES + DERIVED_STAGES:
        assert _stage_table(root / stage).equals(_stage_table(clean_root / stage)), stage
    assert not glob.glob(f"{root}/*.tmp-*")


def _skewed_pages():
    """One url crawled every day for 160 days (once a day, then three
    times a day: a 1d series longer than pelt._SMALL_N_FAST_PATH), a few
    urls seen on 12 days around a 10-day outage, and 60 urls seen once."""
    import numpy as np
    import pyarrow as pa

    day, base = 86_400_000_000, 1_704_067_200_000_000
    urls, ts = [], []
    for d in range(160):
        for k in range(1 if d < 80 else 3):
            urls.append("https://long.example.com/p")
            ts.append(base + d * day + k * 3_600_000_000)
    for i in range(4):
        for d in list(range(6)) + list(range(16, 22)):
            urls.append(f"https://mid{i}.example.com/p")
            ts.append(base + d * day + i * 60_000_000)
    for i in range(60):
        urls.append(f"https://one{i}.example.com/p/{i}")
        ts.append(base + (i % 30) * day)
    text = [f"{u}#{j % 7}" * (1 + j % 5) for j, u in enumerate(urls)]
    return pa.table({"url": urls, "warc_ts": pa.array(np.array(ts), pa.timestamp("us")),
                     "html": [t.encode() for t in text], "text": text, "lang": ["en"] * len(urls)})


def _per_bucket_reference(cfg, src_dir, dict_dir, bucket):
    """A bucket's post-1m outputs from the *_sorted kernels, bucket alone."""
    from signalsharp_ray.common import fsio
    from signalsharp_ray.stages.analysis import changepoints_tier, forecast_tier, smooth_tier
    from signalsharp_ray.stages.encode import encode_tier
    from signalsharp_ray.stages.rollup import TIERS_US, SortedTier, cascade_sorted

    tiers = {"1m": SortedTier.from_tables([fsio.read_bucket(src_dir, bucket)])}
    for finer, tier in (("1m", "1h"), ("1h", "1d")):
        tiers[tier], _ = cascade_sorted(tiers[finer], TIERS_US[tier])
    col, t1d = cfg.analysis_value_col, tiers["1d"]
    out = {f"tier_{t}": tiers[t].table() for t in ("1h", "1d")}
    out.update({f"blocks_{t}": encode_tier(rows, t, TIERS_US[t], cfg.gapfill_method,
                                           cfg.max_gap_buckets) for t, rows in tiers.items()})
    out["changepoints_1d"] = changepoints_tier(t1d, cfg.changepoints, col,
                                               url_dict=fsio.read_bucket(dict_dir, bucket))
    out["smoothed_1d"] = smooth_tier(t1d, cfg.smoothing, col)
    out["forecast_1d"] = forecast_tier(t1d, cfg.forecast, TIERS_US["1d"], col)
    return out


def _files(root, stage):
    return {os.path.relpath(f, root): open(f, "rb").read()
            for f in glob.glob(f"{root}/{stage}/*/*.parquet")}


def test_chunked_post_1m_outputs_match_per_bucket_files(ray_session, tmp_path, monkeypatch):
    """The post-1m kernels run once per chunk of buckets and cut their
    outputs back into buckets: with the chunk cap set so low that one
    group spans several chunks (the skewed bucket alone, small buckets
    together), every post-1m file is byte-identical to the one a
    per-bucket run of the *_sorted kernels writes, and so is the
    flagship's own output (one chunk per group)."""
    import ray.data as rd

    from signalsharp_ray.common import fsio
    from signalsharp_ray.pipelines import flagship
    from signalsharp_ray.pipelines.flagship import run_flagship

    pages = _skewed_pages()
    cfg = FlagshipConfig(out_root=str(tmp_path / "run"), n_buckets=6)
    res = run_flagship(lambda: rd.from_arrow(pages), "skewed", cfg)
    src, dicts = res["outputs"]["tier_1m"], res["outputs"]["url_dict"]
    rows = PipelineManifest(cfg.out_root).bucket_rows("tier_1m")
    buckets = sorted(rows)
    big = max(rows, key=rows.get)
    t1d = fsio.read_bucket(res["outputs"]["tier_1d"], big)
    days = pc.value_counts(t1d["url_hash"]).field("counts").to_pylist()
    assert max(days) == 160 and 1 in days  # the long series next to one-point ones

    monkeypatch.setattr(flagship, "_CHUNK_ROWS", rows[big] - 1)
    chunks = [c for c, _ in flagship._read_chunks(src, buckets)]
    assert [b for c in chunks for b in c] == buckets
    assert [big] in chunks and max(len(c) for c in chunks) >= 2

    stages = set(TIER_STAGES[1:] + DERIVED_STAGES)
    for i, out in enumerate(flagship._post_1m_buckets(buckets, cfg, src, dicts, stages)):
        assert set(out) - stages == ({"cascade_s"} if i == 0 else {"encode_s", "analyses_s"})
        for stage in stages & set(out):
            for b, t in out[stage].items():
                fsio.write_bucket(t, str(tmp_path / "chunked" / stage), b)
    for b in buckets:
        for stage, t in _per_bucket_reference(cfg, src, dicts, b).items():
            fsio.write_bucket(t, str(tmp_path / "ref" / stage), b)

    for stage in sorted(stages):
        ref = _files(tmp_path / "ref", stage)
        assert ref, stage
        assert _files(tmp_path / "chunked", stage) == ref, stage
        assert _files(cfg.out_root, stage) == ref, stage
