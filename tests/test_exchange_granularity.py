"""How finely the hash exchange cuts its work: reads planned under it make
about 2 blocks per CPU (coarse_reads), and it runs one reduce task per
contiguous bucket group rather than one per bucket. Checked against a
per-bucket reference of the reduce, by the blocks the flagship's ingest
makes, and by the Ray Data read setting the flagship must leave as it
found it."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signalsharp_ray.common import raytools
from signalsharp_ray.pipelines.flagship import FlagshipConfig, run_flagship, run_flagship_synthetic
from signalsharp_ray.sources.synth import WebPagesSpec, generate_webpages_dataset
from signalsharp_ray.stages.extract import _hash_strings, extract_dedup_exchange

SPEC = WebPagesSpec(n_rows=4_000, n_hosts=30, urls_per_host=4, rows_per_shard=1_000)


def _cpus() -> int:
    import ray

    return int(ray.cluster_resources()["CPU"])


# -- grouped reduce vs one reduce per bucket --------------------------------------


@st.composite
def exchange_inputs(draw):
    """Input blocks for an exchange: untyped (zero-column) blocks, empty
    typed ones, and typed ones whose `s` column is a string in some and an
    all-null column in others. Rows go to a few of the buckets only."""
    n_buckets = draw(st.sampled_from([1, 3, 128]))
    used = draw(st.lists(st.integers(0, n_buckets - 1), min_size=1, max_size=4))
    blocks, row = [], 0
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["untyped", "string", "null"]))
        if kind == "untyped":
            blocks.append(pa.table({}))
            continue
        n = draw(st.integers(0, 12))
        buckets = draw(st.lists(st.sampled_from(used), min_size=n, max_size=n))
        s = (pa.nulls(n) if kind == "null" else
             pa.array(draw(st.lists(st.one_of(st.none(), st.text("ab", max_size=3)),
                                    min_size=n, max_size=n)), pa.string()))
        blocks.append(pa.table({"__bucket": pa.array(buckets, pa.int64()),
                                "k": pa.array(range(row, row + n), pa.int64()), "s": s}))
        row += n
    return n_buckets, blocks, draw(st.booleans())


def _per_bucket_reference(blocks, n_buckets, reduce_fn, drop_empty):
    """The exchange with one reduce per bucket: each input block is its own
    split group, a bucket reduces its typed slices (the non-empty ones, or
    the first when all are empty), a bucket with no typed slice gives an
    untyped block, and the result is the buckets' blocks in bucket order."""
    out = []
    for b in range(n_buckets):
        typed = [t.filter(pc.equal(t["__bucket"], b)) for t in blocks if t.num_columns]
        tables = [t for t in typed if t.num_rows] or typed[:1]
        if not tables:
            out.append(pa.table({}))
            continue
        out.append(reduce_fn(pa.concat_tables(tables, promote_options="permissive")))
    if drop_empty:
        out = [t for t in out if t.num_rows] or out[:1]
    return out


def _rows(tables) -> pa.Table:
    """Blocks as one table, as a Dataset reader unifies them."""
    typed = [t for t in tables if t.num_columns]
    return pa.concat_tables(typed, promote_options="permissive") if typed else pa.table({})


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(exchange_inputs())
def test_grouped_reduce_matches_one_reduce_per_bucket(case):
    """n_buckets 128 on a few CPUs gives fewer groups than buckets."""
    import ray
    import ray.data as rd

    n_buckets, blocks, drop_empty = case

    def reduce_fn(t: pa.Table) -> pa.Table:
        # the row count tells whether a call saw exactly one bucket
        return t.append_column("bucket_rows", pa.array([t.num_rows] * t.num_rows, pa.int64()))

    ds = rd.from_arrow(blocks)
    # one input block per split task
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(raytools, "_MAP_BLOCKS", 1)
        out = raytools._exchange([(ds, None)], n_buckets, reduce_fn, empty_like=ds,
                                 drop_empty=drop_empty)
    got = ray.get(out.to_arrow_refs())
    want = _rows(_per_bucket_reference(blocks, n_buckets, reduce_fn, drop_empty))
    # rows in bucket order, each bucket's rows in input order, same dtypes;
    # with drop_empty and no rows at all, the first GROUP's typed empty
    # block may stand where the first bucket's untyped one stood
    if drop_empty and not want.num_rows and not want.num_columns:
        assert _rows(got).num_rows == 0
    else:
        assert _rows(got).equals(want)
    if drop_empty:
        assert all(t.num_rows for t in got) or len(got) == 1
    elif any(t.num_columns for t in blocks):
        # one block per group: as many groups as CPUs, at most one per bucket
        assert len(got) == min(n_buckets, _cpus())
    else:
        # no typed block: no reduce runs, and one block holds no rows
        assert len(got) == 1


# -- the flagship's exchange -------------------------------------------------------


@pytest.mark.usefixtures("ray_session")
def test_points_exchange_returns_a_block_per_group_and_writes_a_file_per_bucket(tmp_path):
    import ray

    n_buckets = 128
    out = extract_dedup_exchange(generate_webpages_dataset(SPEC), n_buckets=n_buckets)
    blocks = ray.get(out.to_arrow_refs())
    # a 4000-row input is far below _MAP_BYTES: one group per CPU
    assert len(blocks) <= _cpus()
    assert sum(t.num_rows for t in blocks) > 0

    cfg = FlagshipConfig(out_root=str(tmp_path), n_buckets=n_buckets, tiers=("1m",))
    run_flagship_synthetic(SPEC, cfg)
    pages = pa.concat_tables(ray.get(generate_webpages_dataset(SPEC).to_arrow_refs()))
    url_hash = _hash_strings(pages["url"]).to_numpy().view(np.uint64)
    populated = sorted(set((url_hash % np.uint64(n_buckets)).tolist()))
    assert len(populated) > _cpus()
    for stage in ("points/data", "points/dict", "tier_1m"):
        files = sorted(glob.glob(f"{tmp_path}/{stage}/series_bucket=*/*.parquet"))
        buckets = sorted(int(os.path.basename(os.path.dirname(f)).split("=")[1]) for f in files)
        assert buckets == populated, stage


def _wide_parquet(path, files: int = 4) -> str:
    """`files` parquet files of ~6 MiB of text each: Ray's default read
    floor makes one block per MiB of it."""
    rng = np.random.default_rng(0)
    os.makedirs(path)
    for i in range(files):
        text = [rng.bytes(1500).hex() for _ in range(2000)]
        pq.write_table(pa.table({"k": pa.array(range(i * 2000, (i + 1) * 2000), pa.int64()),
                                 "text": text}), f"{path}/part-{i}.parquet")
    return path


@pytest.mark.usefixtures("ray_session")
def test_a_four_file_read_reaches_the_exchange_as_two_blocks_per_cpu(tmp_path):
    """Each block the exchange reads reaches its bucket function once, and
    leaves a marker file there."""
    import ray.data as rd

    src = _wide_parquet(str(tmp_path / "in"))
    marks = tmp_path / "marks"
    marks.mkdir()

    def bucket_fn(t: pa.Table) -> pa.Table:
        import uuid

        open(f"{marks}/{uuid.uuid4().hex}", "w").close()
        return t.append_column("__bucket", pa.array(np.zeros(t.num_rows, np.int64)))

    ds = rd.read_parquet(src)
    out = raytools._exchange([(ds, bucket_fn)], 2, lambda t: t.slice(0, 0), empty_like=ds)
    assert out.count() == 0
    assert 1 <= len(os.listdir(marks)) <= 2 * _cpus()


@pytest.mark.usefixtures("ray_session")
def test_the_helper_actors_the_exchange_waits_for_are_ray_datas():
    """After an exchange over a Dataset, every (name, namespace) it waits
    for names a live actor: a name Ray Data no longer uses would make the
    wait a silent no-op."""
    import ray
    import ray.data as rd

    out = raytools.hash_bucket_aggregate(rd.range(20), ["id"], [("id", "sum")], n_buckets=2)
    assert out.count() == 20
    for name, namespace in raytools._DATA_ACTORS:
        actor = ray.get_actor(name, namespace=namespace)
        ready, _ = ray.wait([actor.__ray_ready__.remote()], timeout=30)
        assert ready, name


def _edge_pages(late: list) -> pa.Table:
    """A day of 90 s crawls of eight urls, the last rows' warc_ts `late`."""
    n = 400
    ts = (1_704_067_200_000_000 + np.arange(n) * 90_000_000).tolist()
    ts[n - len(late):] = late
    text = [f"text-{i % 8}" for i in range(n)]
    return pa.table({"url": [f"https://host{i % 3}.example.com/p/{i % 8}" for i in range(n)],
                     "warc_ts": pa.array(ts, pa.timestamp("us")), "text": text,
                     "html": pa.array([t.encode() for t in text]), "lang": ["en"] * n})


@pytest.fixture
def read_floor():
    """A read_op_min_num_blocks other than Ray's default, restored after."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    before = ctx.read_op_min_num_blocks
    ctx.read_op_min_num_blocks = 37
    yield ctx
    ctx.read_op_min_num_blocks = before


@pytest.mark.usefixtures("ray_session")
def test_flagship_leaves_the_read_floor_as_it_found_it(read_floor, tmp_path):
    import ray.data as rd

    cfg = FlagshipConfig(out_root=str(tmp_path / "ok"), n_buckets=4, tiers=("1m",))
    run_flagship(lambda: rd.from_arrow(_edge_pages([])), "floor-ok", cfg)
    assert read_floor.read_op_min_num_blocks == 37

    # a warc_ts past 2262 fails the ingest job's reduce
    with pytest.raises(Exception, match="out of bounds"):
        run_flagship(lambda: rd.from_arrow(_edge_pages([9_300_000_000_000_000])), "floor-late",
                     FlagshipConfig(out_root=str(tmp_path / "late"), n_buckets=4))
    assert read_floor.read_op_min_num_blocks == 37
