"""The flagship's first job: one points exchange whose reduce tasks write
each bucket's points/data, points/dict and tier_1m. Checked against the
separate path it replaced (extract_dedup_exchange and build_url_dict, each
written by Dataset.write_parquet, then rollup_partition_pandas over the
written points), and for resume after a fault inside the job."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq
import pytest

from perfbench.inputs import TINY, write_input
from signalsharp_ray.pipelines.flagship import FlagshipConfig, run_flagship
from signalsharp_ray.state.manifest import PipelineManifest

N_BUCKETS = 16
OUTPUTS = ["points/data", "points/dict", "tier_1m"]


def _cfg(root):
    # tiers=("1m",): the first job's outputs, then blocks_1m only
    return FlagshipConfig(out_root=str(root), n_buckets=N_BUCKETS, tiers=("1m",))


def _pages(path):
    import ray.data as rd

    return lambda: rd.read_parquet(path)


def _old_path(input_dir, out):
    """points, url dictionary and tier_1m as three separate Dataset writes."""
    import ray.data as rd

    from signalsharp_ray.common.raytools import map_partition_tables
    from signalsharp_ray.stages.extract import build_url_dict, extract_dedup_exchange
    from signalsharp_ray.stages.rollup import TIERS_US, rollup_partition_pandas

    for sub, build in (("data", extract_dedup_exchange), ("dict", build_url_dict)):
        build(rd.read_parquet(input_dir), n_buckets=N_BUCKETS).write_parquet(
            f"{out}/points/{sub}", partition_cols=["series_bucket"])
    map_partition_tables(
        f"{out}/points/data", lambda df: rollup_partition_pandas(df, TIERS_US["1m"])
    ).write_parquet(f"{out}/tier_1m", partition_cols=["series_bucket"])


def _bucket_files(stage_dir):
    """{series_bucket dir name: [parquet files]}"""
    out = {}
    for f in sorted(glob.glob(f"{stage_dir}/series_bucket=*/*.parquet")):
        out.setdefault(os.path.basename(os.path.dirname(f)), []).append(f)
    return out


def _sorted(t):
    return t.sort_by([(c, "ascending") for c in t.column_names])


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("shape", ["wide", "deep"])
def test_ingest_job_matches_separate_path_per_bucket(shape, tmp_path):
    gi = write_input(TINY[shape], 3, str(tmp_path / "in"))
    res = run_flagship(_pages(gi.path), f"ingest-test:{shape}", _cfg(tmp_path / "new"))
    _old_path(gi.path, tmp_path / "old")
    man = res["manifest"]
    # one job: points and tier_1m commit together
    assert man["points"]["completed_at"] == man["tier_1m"]["completed_at"]
    for out in OUTPUTS:
        new, old = _bucket_files(tmp_path / "new" / out), _bucket_files(tmp_path / "old" / out)
        assert len(new) >= 4, out
        assert new.keys() == old.keys(), out
        for bucket, files in new.items():
            assert len(files) == len(old[bucket]) == 1, (out, bucket)
            a, b = pq.read_table(files[0]), pq.read_table(old[bucket][0])
            # same file schema, pandas metadata included
            assert a.schema.equals(b.schema, check_metadata=True), (out, bucket)
            # row order follows the order the input blocks reach the
            # exchange, which Ray Data does not fix
            assert _sorted(a).equals(_sorted(b)), (out, bucket)
    rows = pds.dataset(str(tmp_path / "new" / "points" / "data")).count_rows()
    assert rows == gi.distinct_url_ts
    assert pds.dataset(str(tmp_path / "new" / "points" / "dict")).count_rows() == gi.distinct_urls


@pytest.mark.usefixtures("ray_session")
def test_fault_in_ingest_job_commits_nothing_and_rerun_matches_clean(tmp_path):
    import ray.data as rd

    gi = write_input(TINY["wide"], 4, str(tmp_path / "in"))
    clean = tmp_path / "clean"
    run_flagship(_pages(gi.path), "ingest-fault", _cfg(clean))

    last = os.path.basename(sorted(glob.glob(f"{gi.path}/*.parquet"))[-1])

    def failing_pages():
        import pyarrow.compute as pc

        def fail_on_last(batch):
            if pc.any(pc.ends_with(batch["path"], last)).as_py():
                raise RuntimeError("injected read fault")
            return batch.drop_columns(["path"])

        return rd.read_parquet(gi.path, include_paths=True).map_batches(
            fail_on_last, batch_format="pyarrow")

    root = tmp_path / "faulted"
    with pytest.raises(Exception, match="injected read fault"):
        run_flagship(failing_pages, "ingest-fault", _cfg(root))
    assert PipelineManifest(str(root)).records() == {}
    assert not os.path.exists(root / "points") and not os.path.exists(root / "tier_1m")

    run_flagship(_pages(gi.path), "ingest-fault", _cfg(root))
    for out in OUTPUTS:
        a = pds.dataset(str(root / out), partitioning="hive").to_table()
        b = pds.dataset(str(clean / out), partitioning="hive").to_table()
        assert _sorted(a).equals(_sorted(b)), out


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("runner", ["hash_exchange", "run_bucket_groups"])
def test_failed_job_returns_after_every_writer_task_ended(runner, tmp_path):
    """The error of one failed task surfaces only once every other task of
    the call has ended, so no writer task outlives the job and writes into
    the output of a retry."""
    import time

    import pyarrow as pa
    import ray.data as rd

    from signalsharp_ray.common import raytools

    n = 4

    def work(bucket):
        if bucket == 0:
            raise RuntimeError("injected task fault")
        time.sleep(1.0)
        open(f"{tmp_path}/done-{bucket}", "w").close()

    if runner == "hash_exchange":
        def reduce(t):
            if t.num_rows:
                work(t["__bucket"][0].as_py())
            return t

        ds = rd.from_arrow(pa.table({"__bucket": pa.array(range(n), pa.int64())}))
        call = lambda: raytools.hash_exchange(ds, n, reduce)  # noqa: E731
    else:
        def fn(buckets):
            for bucket in buckets:
                work(bucket)
            yield {}

        call = lambda: raytools.run_bucket_groups(fn, {b: 1 for b in range(n)}, {})  # noqa: E731
    with pytest.raises(Exception, match="injected task fault"):
        call()
    assert sorted(os.listdir(tmp_path)) == [f"done-{b}" for b in range(1, n)]


@pytest.mark.usefixtures("ray_session")
def test_a_phase_reports_once_its_writer_threads_wrote_it(tmp_path):
    """run_bucket_groups creates a task's files on writer threads: when a
    phase reports, every file of that phase is on disk, and a write that
    fails fails the call."""
    from signalsharp_ray.common import raytools

    n = 6

    def fn(buckets):
        yield {"a": {b: pa.table({"x": [b]}) for b in buckets}}
        yield {"b": {b: pa.table({"x": [b] * 2}) for b in buckets}}

    out_dirs = {"a": str(tmp_path / "a"), "b": str(tmp_path / "b")}
    seen = {}

    def on_phase(i, steps):
        seen[i] = sorted(glob.glob(f"{out_dirs['ab'[i]]}/series_bucket=*/part-0.parquet"))

    raytools.run_bucket_groups(fn, {b: 1 for b in range(n)}, out_dirs, on_phase)
    assert seen == {i: [f"{out_dirs[s]}/series_bucket={b}/part-0.parquet" for b in range(n)]
                    for i, s in enumerate("ab")}

    (tmp_path / "not_a_dir").write_text("")
    with pytest.raises(Exception):
        raytools.run_bucket_groups(fn, {b: 1 for b in range(n)},
                                   {"a": str(tmp_path / "not_a_dir")})


def test_write_s_is_a_phase_wall_not_the_sum_of_its_writes(tmp_path, monkeypatch):
    """A run_bucket_groups task writes a phase's files on its writer
    threads at once: `write_s` is the task's wall time over them, near one
    write's time, not the seconds of every write added up."""
    import time

    from signalsharp_ray.common import fsio, raytools

    monkeypatch.setattr(fsio, "write_bucket", lambda data, out_dir, b: time.sleep(0.3))

    def fn(buckets):
        yield {"a": {b: None for b in buckets}, "kernel_s": 1.5}

    n = raytools._WRITER_THREADS
    (steps,) = raytools._run_group._function(fn, list(range(n)), {"a": str(tmp_path)})
    assert steps["kernel_s"] == 1.5
    assert 0.3 <= steps["write_s"] < 0.3 * n / 2


def _edge_pages(warc_ts: list) -> pa.Table:
    """Eight urls crawled every 90 s, the rows at the end of the table
    replaced by `warc_ts`."""
    n = 400
    ts = (1_704_067_200_000_000 + np.arange(n) * 90_000_000).tolist()
    ts[n - len(warc_ts):] = warc_ts
    urls = [f"https://host{i % 3}.example.com/p/{i % 8}" for i in range(n)]
    text = [f"text-{i % 8}" * (1 + i % 8) for i in range(n)]
    return pa.table({"url": urls, "warc_ts": pa.array(ts, pa.timestamp("us")),
                     "html": pa.array([t.encode() for t in text]), "text": text,
                     "lang": ["en"] * n})


@pytest.mark.usefixtures("ray_session")
def test_null_warc_ts_stays_in_points_and_forms_no_tier_row(tmp_path):
    import ray.data as rd

    pages = _edge_pages([None] * 5)
    cfg = FlagshipConfig(out_root=str(tmp_path), n_buckets=4)
    res = run_flagship(lambda: rd.from_arrow(pages), "null-ts", cfg)
    points = pds.dataset(res["outputs"]["points"], partitioning="hive").to_table()
    assert points.num_rows == pages.num_rows
    assert points["ts"].null_count == 5
    for tier in cfg.tiers:
        t = pds.dataset(res["outputs"][f"tier_{tier}"], partitioning="hive").to_table()
        assert t["bucket_ts"].null_count == 0, tier
        assert pc.sum(t["count"]).as_py() == pages.num_rows - 5, tier
    assert set(res["manifest"]) == set(res["outputs"]) - {"url_dict"}


@pytest.mark.usefixtures("ray_session")
def test_warc_ts_past_ns_range_fails_job_1_and_commits_nothing(tmp_path):
    """A tier's bucket_ts is timestamp[ns], which ends on 2262-04-11."""
    import ray.data as rd

    pages = _edge_pages([9_300_000_000_000_000])  # in 2264
    with pytest.raises(Exception, match="out of bounds"):
        run_flagship(lambda: rd.from_arrow(pages), "late-ts",
                     FlagshipConfig(out_root=str(tmp_path), n_buckets=4))
    assert PipelineManifest(str(tmp_path)).records() == {}
    assert not os.path.exists(tmp_path / "points") and not os.path.exists(tmp_path / "tier_1m")
