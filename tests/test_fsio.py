"""Object-store-safety tests: tier roots as URIs instead of local paths.

Round-3 VERDICT item 2: partition-aligned stages used driver-side
glob.glob + local pd.read_parquet, which breaks when tier roots live on
S3/GCS. These tests drive the same code paths through pyarrow.fs with
(a) a file:// URI end-to-end through the full flagship (remote tasks
re-resolve the filesystem from the path string), and (b) an fsspec
memory:// filesystem for the driver-side pieces (manifest, listing) —
memory:// cannot cross Ray worker processes by nature, so it exercises
the fsspec fallback path only where the access is driver-local.
"""

import json

import numpy as np
import pandas as pd
import pyarrow.fs as pafs
import pytest

from signalsharp_ray.common import fsio


class TestResolveFs:
    def test_plain_path_is_local(self, tmp_path):
        fs, path = fsio.resolve_fs(str(tmp_path))
        assert isinstance(fs, pafs.LocalFileSystem)
        assert path == str(tmp_path)

    def test_file_uri(self, tmp_path):
        fs, path = fsio.resolve_fs(f"file://{tmp_path}")
        assert isinstance(fs, pafs.LocalFileSystem)
        assert path == str(tmp_path)

    def test_memory_uri_fsspec_fallback(self):
        fs, path = fsio.resolve_fs("memory://fsio_test/root")
        assert isinstance(fs, pafs.PyFileSystem)
        fsio.makedirs(fs, path)
        assert fsio.is_dir(fs, path)

    def test_list_partition_dirs_memory(self):
        root = "memory://fsio_list/tier"
        fs, path = fsio.resolve_fs(root)
        for b in (3, 1, 11):
            fsio.makedirs(fs, f"{path}/series_bucket={b}")
        fsio.makedirs(fs, f"{path}/unrelated")
        dirs = fsio.list_partition_dirs(root, "series_bucket=")
        assert [d.rsplit("/", 1)[-1] for d in dirs] == [
            "series_bucket=1", "series_bucket=11", "series_bucket=3",
        ]
        # URI form is preserved so remote tasks can re-resolve
        assert all(d.startswith("memory://") for d in dirs)

    def test_list_partition_dirs_missing_root(self, tmp_path):
        assert fsio.list_partition_dirs(str(tmp_path / "nope"), "x=") == []


class TestReadBucket:
    """fsio.read_bucket lists the bucket directory once and reads each
    file as it is (no dataset discovery)."""

    @staticmethod
    def _table(lo, hi):
        import pyarrow as pa

        return fsio.with_pandas_metadata(pa.table({"url_hash": np.arange(lo, hi, dtype=np.int64),
                                                   "mean": np.arange(lo, hi) / 2.0}))

    def test_single_file_keeps_schema_metadata(self, tmp_path):
        import pyarrow.parquet as pq

        t = self._table(0, 5)
        fsio.write_bucket(t, str(tmp_path), 3)
        got = fsio.read_bucket(str(tmp_path), 3)
        assert got.equals(t)
        assert got.schema.equals(t.schema, check_metadata=True)
        assert b"pandas" in got.schema.metadata
        want = pq.read_table(f"{tmp_path}/series_bucket=3")
        assert got.schema.equals(want.schema, check_metadata=True) and got.equals(want)

    def test_several_files_in_name_order(self, tmp_path):
        import pyarrow as pa
        import pyarrow.parquet as pq

        d = tmp_path / "series_bucket=0"
        d.mkdir()
        parts = [self._table(10, 12), self._table(0, 3), self._table(5, 6)]
        for name, t in zip(["part-1", "part-0", "part-2"], parts):
            pq.write_table(t, d / f"{name}.parquet")
        (d / "_SUCCESS").write_text("")
        (d / ".part-0.parquet.crc").write_text("")
        got = fsio.read_bucket(str(tmp_path), 0)
        assert got.equals(pa.concat_tables([parts[1], parts[0], parts[2]]))
        assert got.schema.equals(parts[0].schema, check_metadata=True)
        assert got.equals(pq.read_table(str(d)))

    def test_memory_uri(self):
        root = "memory://fsio_read_bucket/stage"
        t = self._table(0, 4)
        fsio.write_bucket(t, root, 7)
        got = fsio.read_bucket(root, 7)
        assert got.equals(t) and got.schema.equals(t.schema, check_metadata=True)

    def test_missing_bucket_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fsio.read_bucket(str(tmp_path), 1)


class TestManifestOnMemoryFs:
    def test_run_stage_and_resume(self):
        from signalsharp_ray.state.manifest import PipelineManifest

        root = "memory://fsio_manifest/run1"
        man = PipelineManifest(root)
        calls = []

        def write(out_dir):
            calls.append(out_dir)
            fs, path = fsio.resolve_fs(out_dir)
            df = pd.DataFrame({"x": np.arange(5, dtype=np.int64)})
            import pyarrow as pa
            import pyarrow.parquet as pq

            fsio.makedirs(fs, f"{path}/series_bucket=0")
            with fs.open_output_stream(
                f"{path}/series_bucket=0/part0.parquet"
            ) as f:
                pq.write_table(pa.Table.from_pandas(df), f)

        out, skipped = man.run_stage("stage_a", "fp1", ["pages"], write)
        assert not skipped and len(calls) == 1
        assert out == f"{root}/stage_a"  # URI form, written in place
        rec = man.records()["stage_a"]
        assert rec["rows"] == 5 and rec["partitions"]["series_bucket=0"]["rows"] == 5

        # fresh manifest instance sees the committed entry and skips
        man2 = PipelineManifest(root)
        out2, skipped2 = man2.run_stage("stage_a", "fp1", ["pages"], write)
        assert skipped2 and len(calls) == 1

        # fingerprint change re-runs (object-store protocol: in-place)
        out3, skipped3 = man2.run_stage("stage_a", "fp2", ["pages"], write)
        assert not skipped3 and len(calls) == 2

    def test_manifest_json_readable(self):
        from signalsharp_ray.state.manifest import PipelineManifest

        root = "memory://fsio_manifest/run2"
        man = PipelineManifest(root)

        def write(out_dir):
            fs, path = fsio.resolve_fs(out_dir)
            import pyarrow as pa
            import pyarrow.parquet as pq

            with fs.open_output_stream(f"{path}/p.parquet") as f:
                pq.write_table(pa.table({"x": [1]}), f)

        man.run_stage("s", "fp", [], write)
        fs, path = fsio.resolve_fs(root)
        data = json.loads(fsio.read_text(fs, f"{path}/MANIFEST.json"))
        assert data["s"]["fingerprint"] == "fp"
        assert data["s"]["partitions"]["."]["rows"] == 1


@pytest.fixture(scope="module")
def uri_flagship(ray_session, tmp_path_factory):
    """Full flagship with a file:// URI out_root — every partition-aligned
    stage lists and reads through pyarrow.fs, remote tasks included."""
    from signalsharp_ray.pipelines.flagship import (
        FlagshipConfig, run_flagship_synthetic,
    )
    from signalsharp_ray.sources.synth import WebPagesSpec

    local_root = tmp_path_factory.mktemp("flagship_uri")
    spec = WebPagesSpec(
        n_rows=6000, n_hosts=40, urls_per_host=3, rows_per_shard=2000
    )
    res = run_flagship_synthetic(
        spec, FlagshipConfig(out_root=f"file://{local_root}/out", n_buckets=16)
    )
    return res, str(local_root / "out"), spec


def test_flagship_uri_root_runs(uri_flagship):
    res, local_out, _ = uri_flagship
    assert set(res["outputs"]) >= {
        "points", "url_dict", "tier_1m", "tier_1h", "tier_1d",
        "blocks_1d", "changepoints_1d",
    }
    for stage, out in res["outputs"].items():
        assert out.startswith("file://"), (stage, out)


def test_flagship_uri_matches_plain_path(uri_flagship, ray_session, tmp_path_factory):
    """Same spec through a plain local root must produce identical tier
    rollups — the URI plumbing cannot change a single value."""
    from signalsharp_ray.pipelines.flagship import (
        FlagshipConfig, run_flagship_synthetic,
    )

    res_uri, local_out, spec = uri_flagship
    plain_root = tmp_path_factory.mktemp("flagship_plain") / "out"
    res_plain = run_flagship_synthetic(
        spec, FlagshipConfig(out_root=str(plain_root), n_buckets=16)
    )
    for tier in ("tier_1m", "tier_1h", "tier_1d"):
        a = pd.read_parquet(f"{local_out}/{tier}").sort_values(
            ["url_hash", "bucket_ts"]
        ).reset_index(drop=True)
        b = pd.read_parquet(res_plain["outputs"][tier]).sort_values(
            ["url_hash", "bucket_ts"]
        ).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            a[sorted(a.columns)], b[sorted(b.columns)], check_categorical=False
        )


def test_flagship_uri_resume_instant(uri_flagship):
    """Second run against the same file:// root must skip every stage."""
    from signalsharp_ray.pipelines.flagship import (
        FlagshipConfig, run_flagship_synthetic,
    )

    _, local_out, spec = uri_flagship
    res2 = run_flagship_synthetic(
        spec, FlagshipConfig(out_root=f"file://{local_out}", n_buckets=16)
    )
    assert all(v < 1.0 for v in res2["metrics"].values()), res2["metrics"]
