"""Every block out of a hash exchange carries one schema, empty buckets
included: Ray Data warns about (and must reconcile) blocks whose schema
differs from the previous one. Covers the points exchange, the url
dictionary, the flagship job whose reduce tasks write their own buckets,
and the three grouped helpers built on hash_exchange."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from signalsharp_ray.common import raytools
from signalsharp_ray.common.raytools import (
    bucketed_join,
    bucketed_map_groups,
    hash_bucket_aggregate,
    hash_exchange,
)
from signalsharp_ray.sources.synth import WebPagesSpec, generate_webpages_dataset
from signalsharp_ray.stages.extract import _hash_strings, build_url_dict, extract_dedup_exchange

# 4 urls over 16 buckets: at least 12 buckets are empty
SPEC = WebPagesSpec(n_rows=400, n_hosts=2, urls_per_host=2, rows_per_shard=100)
N_BUCKETS = 16


def _block_schemas(ds):
    import ray

    out = []
    for bundle in ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            out.append((meta.num_rows, ray.get(ref).schema))
    return out


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("build", [extract_dedup_exchange, build_url_dict])
def test_one_schema_per_output_with_empty_buckets(build):
    import ray

    blocks = _block_schemas(build(generate_webpages_dataset(SPEC), n_buckets=N_BUCKETS))
    # one block per reduce task: a contiguous group of buckets per CPU,
    # empty when none of its buckets holds a url
    groups = raytools.bucket_groups(dict.fromkeys(range(N_BUCKETS), 1),
                                    int(ray.cluster_resources()["CPU"]))
    pages = pa.concat_tables(ray.get(generate_webpages_dataset(SPEC).to_arrow_refs()))
    used = set((_hash_strings(pages["url"]).to_numpy().view(np.uint64) % np.uint64(N_BUCKETS)).tolist())
    assert len(blocks) == len(groups) == 4
    assert [rows == 0 for rows, _ in blocks] == [not used & set(g) for g in groups]
    schemas = {schema for _, schema in blocks}
    assert len(schemas) == 1, schemas
    (schema,) = schemas
    assert "series_bucket" in schema.names and "__bucket" not in schema.names
    assert schema.field("series_bucket").type == pa.int64()


@pytest.mark.usefixtures("ray_session")
def test_ingest_job_writes_no_empty_bucket_and_one_schema_per_output(tmp_path):
    import glob

    import pyarrow.parquet as pq

    from signalsharp_ray.pipelines.flagship import FlagshipConfig, run_flagship_synthetic

    cfg = FlagshipConfig(out_root=str(tmp_path), n_buckets=N_BUCKETS, tiers=("1m",), encode=False)
    res = run_flagship_synthetic(SPEC, cfg)
    bucket_dirs = None
    for out in ("points/data", "points/dict", "tier_1m"):
        dirs = sorted(glob.glob(f"{tmp_path}/{out}/series_bucket=*"))
        files = sorted(glob.glob(f"{tmp_path}/{out}/series_bucket=*/*.parquet"))
        # no directory or file for an empty bucket; one file per bucket
        assert 1 <= len(dirs) <= 4 and len(files) == len(dirs), out
        assert all(pq.read_metadata(f).num_rows for f in files), out
        names = [d.rsplit("/", 1)[1] for d in dirs]
        assert bucket_dirs in (None, names), out
        bucket_dirs = names
        schemas = [pq.read_schema(f) for f in files]
        assert all(s.equals(schemas[0], check_metadata=True) for s in schemas), out
        assert "series_bucket" not in schemas[0].names
    assert set(res["manifest"]["tier_1m"]["partitions"]) == set(bucket_dirs)


# 4 keys over 16 buckets, as pandas blocks (one of them a filtered frame
# with a non-range index): at least 12 buckets are empty
def _kv_dataset():
    import ray.data as rd

    df = pd.DataFrame(
        {
            "k": np.arange(40, dtype=np.int64) % 4,
            "name": [f"n{i % 4}" for i in range(40)],
            "v": np.arange(40, dtype=np.float64),
        }
    )
    return rd.from_pandas([df.iloc[:20], df.iloc[20:][df["v"].iloc[20:] % 3 != 0]])


def _aggregate(ds):
    return hash_bucket_aggregate(
        ds, ["k", "name"], [("v", "sum")], count_alias="n", n_buckets=N_BUCKETS
    )


def _map_groups(ds):
    def summary(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"name": [g["name"].iloc[0]], "v_mean": [g["v"].mean()]})

    return bucketed_map_groups(ds, ["name"], summary, n_buckets=N_BUCKETS)


def _join(ds, key_dtype=np.int64):
    import ray.data as rd

    right = pd.DataFrame({"k": np.arange(4, dtype=key_dtype), "label": list("abcd")})
    return bucketed_join(ds, rd.from_pandas(right), on=["k"], n_buckets=N_BUCKETS)


def _join_float_keys(ds):
    # int64 keys on the left, float64 on the right: one widened schema
    return _join(ds, np.float64)


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "build, n_rows",
    [(_aggregate, 4), (_map_groups, 4), (_join, 33), (_join_float_keys, 33)],
)
def test_grouped_helpers_one_schema_with_empty_buckets(build, n_rows):
    blocks = _block_schemas(build(_kv_dataset()))
    assert sum(rows for rows, _ in blocks) == n_rows
    schemas = {schema for _, schema in blocks}
    assert len(schemas) == 1, schemas
    (schema,) = schemas
    assert "__bucket" not in schema.names
    assert not any(pa.types.is_null(t) for t in schema.types)


@pytest.mark.usefixtures("ray_session")
def test_exchange_accepts_pandas_blocks_with_a_non_range_index():
    """A filtered pandas frame keeps its row labels as index; the map side
    must not turn that index into an extra column."""
    import ray.data as rd

    df = pd.DataFrame({"k": np.arange(30, dtype=np.int64), "v": np.arange(30.0)})
    df["__bucket"] = df["k"] % 3
    ds = rd.from_pandas([df.iloc[:10], df[df["k"] >= 20]])
    out = hash_exchange(ds, 3, lambda t: t).to_pandas()
    assert sorted(out.columns) == ["__bucket", "k", "v"]
    assert sorted(out["k"]) == list(range(10)) + list(range(20, 30))


@pytest.mark.usefixtures("ray_session")
def test_exchange_unifies_all_null_pandas_columns():
    """A pandas block whose object column is all None converts to an Arrow
    null column; the exchange concatenates it with string blocks."""
    import ray.data as rd

    a = pd.DataFrame({"k": np.arange(6, dtype=np.int64), "s": list("abcdef")})
    b = pd.DataFrame({"k": np.arange(6, 12, dtype=np.int64), "s": [None] * 6})
    ds = rd.from_pandas([a, b]).map_batches(
        lambda df: df.assign(__bucket=df["k"] % 2), batch_format="pandas"
    )
    out = hash_exchange(ds, 2, lambda t: t).to_pandas().sort_values("k")
    assert out["s"].tolist() == list("abcdef") + [None] * 6


@pytest.mark.usefixtures("ray_session")
def test_map_groups_over_int_column_with_nulls_in_some_blocks():
    """An int64 column that has nulls in one block only must reach the
    exchange with one type in every block (pandas would make it float64
    there and int64 elsewhere)."""
    import ray.data as rd

    a = pa.table({"k": pa.array([0, 1, 2, 3], pa.int64()), "x": pa.array([1, 2, 3, 4], pa.int64())})
    b = pa.table({"k": pa.array([0, 1, 2, 3], pa.int64()), "x": pa.array([None, 5, None, 6], pa.int64())})
    out = bucketed_map_groups(
        rd.from_arrow([a, b]), ["k"], None, n_buckets=2, whole_bucket_fn=lambda df: df
    ).to_pandas()
    assert len(out) == 8
    assert sorted(out["x"].dropna().tolist()) == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]


def _emptied_upstream(keep_from: float):
    """40 three-row blocks filtered to v >= keep_from, then mapped once
    more: Ray Data hands that second map's empty input blocks on untyped
    (zero columns), so with keep_from=36 the first 32-block split group
    carries no schema at all."""
    import pyarrow.compute as pc
    import ray.data as rd

    frames = [
        pa.table(
            {
                "k": pa.array([i % 4] * 3, pa.int64()),
                "name": [f"n{i % 4}"] * 3,
                "v": pa.array([float(i)] * 3),
            }
        )
        for i in range(40)
    ]
    return (
        rd.from_arrow(frames)
        .map_batches(lambda t: t.filter(pc.greater_equal(t["v"], keep_from)), batch_format="pyarrow")
        .map_batches(lambda t: t, batch_format="pyarrow")
    )


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("keep_from, rows", [(100.0, (0, 0, 0)), (36.0, (4, 4, 12))])
def test_grouped_helpers_over_blocks_emptied_upstream(keep_from, rows):
    """Empty buckets whose slices include untyped blocks reduce without
    error; a filter that keeps no rows gives an empty result."""
    got = tuple(
        len(build(_emptied_upstream(keep_from)).to_pandas())
        for build in (_aggregate, _map_groups, _join)
    )
    assert got == rows


@pytest.mark.usefixtures("ray_session")
def test_rollup_of_an_input_filtered_to_nothing_is_that_of_an_input_with_no_blocks():
    """A row filter that keeps no row leaves only untyped blocks; the
    exchange then returns what it returns for an input with no blocks: the
    input's columns, no rows."""
    import ray
    import ray.data as rd

    from signalsharp_ray.stages.rollup import rollup_tier

    points = pa.table(
        {
            "host": ["a", "b"],
            "url": ["u", "v"],
            "ts": pa.array([1, 2], pa.timestamp("us")),
            "value": [1.0, 2.0],
        }
    )
    want = ray.get(rollup_tier(rd.from_arrow(points).limit(0), "1h").to_arrow_refs())
    got = ray.get(rollup_tier(rd.from_arrow(points).filter(lambda r: False), "1h").to_arrow_refs())
    assert [t.schema for t in got] == [t.schema for t in want] == [points.schema]
    assert sum(t.num_rows for t in got) == 0
