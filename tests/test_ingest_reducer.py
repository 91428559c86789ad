"""The points exchange's two kernels on adversarial input: the map side
(_compact_bucket_batch) on every string-array layout a read can hand it,
and the reducer (_ingest_bucket), whose points/data and tier_1m files must
equal an independent reference: pyarrow group_by dedup followed by the
pandas groupby rollup the sorted kernel replaced."""

import os
import tempfile

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signalsharp_ray.pipelines.flagship import _ingest_bucket
from signalsharp_ray.stages.extract import (
    _compact_bucket_batch,
    _first_per_key,
    _hash_distinct_strings,
    _hash_strings,
)
from signalsharp_ray.stages.rollup import TIERS_US, rollup_partition_pandas, rollup_points

SETTINGS = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
TIER_US = TIERS_US["1m"]
BUCKET = 5


# -- map side -------------------------------------------------------------------


def _pages(urls: pa.Array | pa.ChunkedArray) -> pa.Table:
    n = len(urls)
    text = pa.array([f"text-{i % 3}" for i in range(n)])
    return pa.table({"url": urls, "warc_ts": pa.array(np.arange(n) * 1_000_000, pa.timestamp("us")),
                     "text": text})


@pytest.mark.parametrize("layout", ["sliced", "chunked", "large_string"])
def test_compact_bucket_batch_on_any_string_layout(layout):
    """pc.if_else wrote invalid url offsets for a sliced string array; the
    map side must give valid columns, equal to those of a plain array."""
    base = pa.array([f"https://host{i % 4}.example.com/{'p' * i}" for i in range(40)])
    if layout == "sliced":
        urls = base.slice(3, 20)
    elif layout == "chunked":
        urls = pa.chunked_array([base.slice(3, 9), base.slice(17, 11)])
    else:
        urls = base.cast(pa.large_string()).slice(5, 20)
    got = _compact_bucket_batch(_pages(urls), 4)
    got.validate(full=True)
    plain = pa.array(urls.to_pylist(), urls.type)
    assert got.to_pylist() == _compact_bucket_batch(_pages(plain), 4).to_pylist()
    # one url string per url_hash, on its first row
    seen = {}
    for row in got.to_pylist():
        assert (row["url"] is not None) == (row["url_hash"] not in seen)
        seen.setdefault(row["url_hash"], row["url"])
    assert sorted(seen.values()) == sorted(set(urls.to_pylist()))


@pytest.mark.parametrize("layout", ["plain", "sliced", "chunked", "large_string", "nulls"])
def test_url_hash_is_the_per_row_hash_on_any_layout(layout):
    """The map side hashes each distinct url once; every row still gets
    _hash_strings of its own url, a null url pandas' hash of None."""
    base = pa.array([None if i % 7 == 3 else f"https://host{i % 4}.example.com/{'p' * (i % 5)}"
                     for i in range(40)])
    urls = {
        "plain": base,
        "sliced": base.slice(3, 20),
        "chunked": pa.chunked_array([base.slice(3, 9), base.slice(17, 11), base.slice(0, 0)]),
        "large_string": base.cast(pa.large_string()).slice(5, 20),
        "nulls": pa.array([None] * 6, pa.string()),
    }[layout]
    want = _hash_strings(urls)
    assert _hash_distinct_strings(urls).equals(want)
    # the pre-dedup keeps every row: each has its own warc_ts
    assert _compact_bucket_batch(_pages(urls), 4)["url_hash"].equals(pa.chunked_array([want]))
    assert want.null_count == 0


def test_pre_dedup_keys_are_exact_next_to_a_null_ts():
    """A null ts must not turn the batch's timestamps into float64, where
    2**53 and 2**53 + 1 microseconds (in 2255) are one value."""
    ts = pa.array([2**53, 2**53 + 1, None, 2**53, None], pa.timestamp("us"))
    batch = pa.table({"url_hash": pa.array([7] * 5, pa.int64()), "ts": ts})
    assert _first_per_key(batch)["ts"].to_pylist() == ts.to_pylist()[:3]


# -- reducer --------------------------------------------------------------------


@st.composite
def exchange_buckets(draw):
    """One bucket's exchange rows, shuffled: a few series with duplicate
    (url_hash, ts) keys carrying one payload, NaN values, negative and null
    timestamps; one-row and empty buckets come from the size draw."""
    n = draw(st.one_of(st.just(0), st.just(1), st.integers(2, 120)))
    keys = draw(st.lists(st.sampled_from([-(2**62), -7, 3, 11, 2**40]), min_size=n, max_size=n))
    minute = st.integers(-3000, 3000)
    ts = draw(st.lists(st.one_of(minute.map(lambda m: m * TIER_US),
                                 st.integers(-(10**11), 10**11), st.none()),
                       min_size=n, max_size=n))
    payload = {}
    for k, t in zip(keys, ts):
        if (k, t) not in payload:
            value = draw(st.one_of(st.integers(0, 10**6).map(float), st.just(np.nan)))
            payload[k, t] = (value, draw(st.integers(-(2**63), 2**63 - 1)))
    seen = set()
    urls = []
    for k in keys:  # the map side keeps a url on one row per url_hash
        urls.append(None if k in seen else f"https://h{k}.example.com/")
        seen.add(k)
    order = draw(st.permutations(range(n)))
    return pa.table({
        "url_hash": pa.array([keys[i] for i in order], pa.int64()),
        "ts": pa.array([ts[i] for i in order], pa.timestamp("us")),
        "value": pa.array([payload[keys[i], ts[i]][0] for i in order], pa.float64()),
        "text_hash": pa.array([payload[keys[i], ts[i]][1] for i in order], pa.int64()),
        "url": pa.array([urls[i] for i in order], pa.string()),
        "__bucket": pa.array([BUCKET] * n, pa.int64()),
    })


def _reference(t: pa.Table):
    """pyarrow group_by dedup, then the pandas groupby rollup (rows in
    first-appearance order; a point without a timestamp forms no row)."""
    points = t.group_by(["url_hash", "ts"], use_threads=False).aggregate(
        [("value", "min"), ("text_hash", "min")]
    ).rename_columns(["url_hash", "ts", "value", "text_hash"])
    df = points.to_pandas()
    df = df[df["ts"].notna()]
    us = df["ts"].astype("datetime64[us]").astype("int64")
    bucket = (us // TIER_US) * TIER_US
    g = df.groupby([df["url_hash"], bucket], sort=False)["value"].agg(["count", "sum", "min", "max"])
    tier = g.reset_index()
    tier.columns = ["url_hash", "bucket_ts", "count", "sum", "min", "max"]
    tier["bucket_ts"] = pd.to_datetime(tier["bucket_ts"], unit="us")
    tier["mean"] = tier["sum"] / tier["count"]
    return points, tier


@SETTINGS
@given(exchange_buckets())
def test_ingest_reducer_matches_groupby_reference(t):
    points, tier = _reference(t)
    with tempfile.TemporaryDirectory() as d:
        out = _ingest_bucket(t, f"{d}/points", f"{d}/tier_1m", TIER_US)
        assert out.num_rows == 0
        files = {sub: f"{d}/{sub}/series_bucket={BUCKET}/part-0.parquet"
                 for sub in ("points/data", "points/dict", "tier_1m")}
        if not points.num_rows:
            assert not os.path.exists(d + "/points") and not os.path.exists(d + "/tier_1m")
            return
        # points/data: the deduped points sorted by (url_hash, ts), null ts last
        got_points = pq.read_table(files["points/data"])
        assert got_points.equals(points.sort_by([("url_hash", "ascending"), ("ts", "ascending")]))
        # tier_1m: the reference's rows, sorted by (url_hash, bucket_ts)
        want = tier.sort_values(["url_hash", "bucket_ts"]).reset_index(drop=True)
        if want.empty:
            assert not os.path.exists(files["tier_1m"])
        else:
            pd.testing.assert_frame_equal(pq.read_table(files["tier_1m"]).to_pandas(), want,
                                          check_exact=True)
        assert sorted(pq.read_table(files["points/dict"])["url_hash"].to_pylist()) == sorted(
            set(t["url_hash"].to_pylist()))
    # the pandas adapter keeps the groupby's first-appearance row order
    pd.testing.assert_frame_equal(rollup_partition_pandas(points.to_pandas(), TIER_US), tier,
                                  check_exact=True)


def test_rollup_points_floors_ns_timestamps_to_microseconds():
    """A timestamp[ns] input rolls as its floor to microseconds, as the
    pandas rollup's datetime64[us] cast gives, not as an error."""
    ns = [-60_000_000_001, -1_500, -1, 59_999_999_999, 60_000_000_000_001]
    points = pa.table({"url_hash": pa.array([1] * 5, pa.int64()),
                       "ts": pa.array(ns, pa.timestamp("ns")),
                       "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0])})
    want = points.set_column(1, "ts", pa.array([t // 1000 for t in ns], pa.timestamp("us")))
    assert rollup_points(points, TIER_US)[0].table().equals(rollup_points(want, TIER_US)[0].table())
    assert rollup_partition_pandas(points.to_pandas(), TIER_US)["count"].tolist() == [1, 2, 1, 1]
