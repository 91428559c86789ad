"""End-to-end tests: synth source -> extract -> rollup tiers vs a pandas
oracle (FIXTURES.md §3)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from signalsharp_ray.sources.synth import WebPagesSpec, generate_webpages_shard
from signalsharp_ray.stages.extract import _compact_bucket_batch, _hash_strings, _host, url_dict_bucket
from signalsharp_ray.stages.rollup import TIERS_US, partial_rollup_batch

SPEC = WebPagesSpec(n_rows=5_000, n_hosts=50, urls_per_host=5, rows_per_shard=2_500)


def _pages_table():
    return pa.concat_tables(
        [generate_webpages_shard(s, SPEC) for s in range(SPEC.n_shards)]
    )


def _points(pages: pa.Table) -> pa.Table:
    """Every page row as a (url, host, ts, value, text_hash, url_hash)
    point, without dedup: the input of the Dataset-form rollup."""
    url = pages["url"]
    value = pc.cast(pc.binary_length(pc.cast(pages["text"], pa.binary())), pa.float64())
    return pa.table({"url": url, "host": _host(url), "ts": pages["warc_ts"], "value": value,
                     "text_hash": _hash_strings(pages["text"]), "url_hash": _hash_strings(url)})


def test_synth_deterministic_and_schema():
    t1 = generate_webpages_shard(0, SPEC)
    t2 = generate_webpages_shard(0, SPEC)
    assert t1.equals(t2)
    assert t1.column_names == ["url", "warc_ts", "html", "text", "lang"]
    assert t1.num_rows == 2_500
    assert t1.schema.field("warc_ts").type == pa.timestamp("us")
    assert t1.schema.field("html").type == pa.binary()


def test_synth_text_byte_identical_per_url():
    df = _pages_table().to_pandas()
    variants = df.groupby("url")["text"].nunique()
    assert (variants == 1).all()


def test_synth_host_skew():
    df = _pages_table().to_pandas()
    counts = df["url"].str.extract(r"https://([^/]+)/")[0].value_counts()
    # Zipf: the hottest host should dominate the median host
    assert counts.iloc[0] > 5 * counts.median()


def test_extract_batch():
    """The extract kernels: the points exchange's map side and a bucket's
    dictionary slice."""
    pages = _pages_table()
    t = _compact_bucket_batch(pages, 16)
    assert t.column_names == ["url_hash", "ts", "value", "text_hash", "url", "__bucket"]
    # the synth rows have unique (url, warc_ts) keys: the pre-dedup keeps all
    assert t.num_rows == pages.num_rows
    df = t.to_pandas()
    np.testing.assert_array_equal(
        df["value"].to_numpy(),
        pages.to_pandas()["text"].str.encode("utf-8").str.len().to_numpy().astype(float),
    )
    assert (df["__bucket"] == df["url_hash"].to_numpy().view(np.uint64) % 16).all()
    # same url -> same hash; and hash collisions across urls are absent here
    assert (df.groupby("url_hash")["text_hash"].nunique() == 1).all()
    # the url rides on one row per url_hash
    assert df["url"].notna().sum() == df["url_hash"].nunique() == len(pc.unique(pages["url"]))
    d = url_dict_bucket(t).to_pandas()
    assert sorted(d["url"]) == sorted(pc.unique(pages["url"]).to_pylist())
    assert d["host"].str.match(r"host\d+\.example\.com").all()
    assert (d["url"].map(lambda u: _hash_strings(pa.array([u]))[0].as_py()) == d["url_hash"]).all()


def test_url_dict_bucket_ignores_row_order():
    """A bucket's dictionary slice is the same table, byte for byte once
    written, whatever order its exchange rows arrive in."""
    t = _compact_bucket_batch(_pages_table(), 16)
    want = url_dict_bucket(t)
    assert want["url_hash"].to_pylist() == sorted(want["url_hash"].to_pylist())
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(t.num_rows)
        assert url_dict_bucket(t.take(pa.array(perm))).equals(want)


def _pandas_rollup(points: pd.DataFrame, tier_us: int) -> pd.DataFrame:
    df = points.copy()
    df["bucket_ts"] = (df["ts"].astype("int64") // tier_us) * tier_us
    g = (
        df.groupby(["host", "url", "bucket_ts"])["value"]
        .agg(["count", "sum", "min", "max", "mean"])
        .reset_index()
    )
    g["bucket_ts"] = pd.to_datetime(g["bucket_ts"], unit="us")
    return g.sort_values(["host", "url", "bucket_ts"]).reset_index(drop=True)


def test_partial_rollup_batch_matches_pandas():
    pts = _points(_pages_table())
    tier_us = TIERS_US["1h"]
    got = (
        partial_rollup_batch(pts, tier_us)
        .to_pandas()
        .sort_values(["host", "url", "bucket_ts"])
        .reset_index(drop=True)
    )
    got["mean"] = got["sum"] / got["count"]
    exp = _pandas_rollup(pts.to_pandas(), tier_us)
    pd.testing.assert_frame_equal(
        got[["host", "url", "bucket_ts", "count", "sum", "min", "max", "mean"]],
        exp[["host", "url", "bucket_ts", "count", "sum", "min", "max", "mean"]],
        check_dtype=False,
    )


@pytest.mark.usefixtures("ray_session")
def test_ray_rollup_tiers_match_oracle():
    import ray.data as rd

    from signalsharp_ray.stages.rollup import cascade_tier, rollup_tier

    points = _points(_pages_table())
    pts = rd.from_arrow(points).repartition(8)
    tiers = {"1m": rollup_tier(pts, "1m")}
    tiers["1h"] = cascade_tier(tiers["1m"], "1h")
    tiers["1d"] = cascade_tier(tiers["1h"], "1d")

    oracle_pts = points.to_pandas()
    for tier in ("1m", "1h", "1d"):
        got = (
            tiers[tier]
            .to_pandas()
            .sort_values(["host", "url", "bucket_ts"])
            .reset_index(drop=True)
        )
        exp = _pandas_rollup(oracle_pts, TIERS_US[tier])
        assert len(got) == len(exp), tier
        pd.testing.assert_frame_equal(
            got[["host", "url", "bucket_ts", "count", "sum", "min", "max", "mean"]],
            exp[["host", "url", "bucket_ts", "count", "sum", "min", "max", "mean"]],
            check_dtype=False,
            check_exact=False,
            rtol=1e-12,
        )


@pytest.mark.usefixtures("ray_session")
def test_dedup_collapses_duplicate_crawls():
    import ray.data as rd

    from signalsharp_ray.stages.extract import extract_dedup_exchange

    pages = _pages_table()
    doubled = pa.concat_tables([pages, pages])  # every (url, warc_ts) twice
    ds = rd.from_arrow(doubled).repartition(4)
    pts = extract_dedup_exchange(ds, n_buckets=8)
    n_unique = (
        pages.to_pandas().drop_duplicates(["url", "warc_ts"]).shape[0]
    )
    assert pts.count() == n_unique


@pytest.mark.usefixtures("ray_session")
def test_hot_host_skew_rollup_exact():
    """Extreme skew: one url gets ~60% of all rows. Partial (in-batch)
    aggregation acts as the salt — each map task pre-combines the hot key —
    so the rollup stays exact and no single reduce group sees raw rows."""
    import ray.data as rd

    from signalsharp_ray.stages.rollup import TIERS_US, rollup_tier

    rng = np.random.default_rng(9)
    n = 20_000
    hot = rng.random(n) < 0.6
    host_id = np.where(hot, 0, rng.integers(1, 40, n))
    url_id = np.where(hot, 0, rng.integers(0, 5, n))
    t0 = 1_704_067_200_000_000
    ts = t0 + rng.integers(0, 3 * 24 * 3600 * 1_000_000, n)
    urls = [f"https://host{h}.example.com/p/{u}" for h, u in zip(host_id, url_id)]
    texts = [f"text-{h}-{u}" for h, u in zip(host_id, url_id)]
    pages = pa.table(
        {
            "url": pa.array(urls),
            "warc_ts": pa.array(ts, pa.timestamp("us")),
            "html": pa.array([t.encode() for t in texts], pa.binary()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * n),
        }
    )
    pts = rd.from_arrow(_points(pages)).repartition(8)
    out = rollup_tier(pts, "1h").to_pandas()

    oracle = pd.DataFrame(
        {
            "host": [f"host{h}.example.com" for h in host_id],
            "url": urls,
            "bucket": (ts // TIERS_US["1h"]) * TIERS_US["1h"],
            "value": [len(t.encode()) for t in texts],
        }
    )
    exp = (
        oracle.groupby(["host", "url", "bucket"])["value"]
        .agg(["count", "sum"])
        .reset_index()
    )
    assert out["count"].sum() == n
    got_hot = out[out["url"] == "https://host0.example.com/p/0"]["count"].sum()
    exp_hot = exp[exp["url"] == "https://host0.example.com/p/0"]["count"].sum()
    assert got_hot == exp_hot == hot.sum()


def _cascade_named_aggs(df, tier_us, key="url_hash"):
    """The cascade kernel as four named aggregations (the earlier form of
    cascade_partition_pandas), kept as its reference."""
    ts = df["bucket_ts"].astype("datetime64[us]").astype("int64")
    bucket = (ts // tier_us) * tier_us
    g = df.groupby([df[key], bucket], sort=False).agg(
        count=("count", "sum"), sum=("sum", "sum"), min=("min", "min"), max=("max", "max")
    )
    out = g.reset_index()
    out.columns = [key, "bucket_ts", "count", "sum", "min", "max"]
    out["bucket_ts"] = pd.to_datetime(out["bucket_ts"], unit="us")
    out["mean"] = out["sum"] / out["count"]
    return out


def test_cascade_kernel_matches_named_aggregations():
    from signalsharp_ray.stages.rollup import cascade_partition_pandas, rollup_partition_pandas

    pts = _points(_pages_table()).to_pandas()
    assert pts["url_hash"].nunique() > 100 and pts["value"].notna().all()
    finer = rollup_partition_pandas(pts.drop_duplicates(["url_hash", "ts"]), TIERS_US["1m"])
    # rows of one series out of bucket order, as a concatenated bucket has
    finer = finer.sample(frac=1.0, random_state=0).reset_index(drop=True)
    for tier in ("1h", "1d"):
        got = cascade_partition_pandas(finer, TIERS_US[tier])
        want = _cascade_named_aggs(finer, TIERS_US[tier])
        assert len(got) < len(finer)
        pd.testing.assert_frame_equal(got, want, check_exact=True)
        finer = got
