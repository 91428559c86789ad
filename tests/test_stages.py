"""Gap-fill, encode, and analysis stage tests (kernel level + through Ray)."""

import ast
import functools
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalsharp_ray.stages.analysis import (
    ChangepointConfig,
    ForecastConfig,
    SmoothingConfig,
    changepoints_tier,
    forecast_tier,
    smooth_tier,
)
from signalsharp_ray.stages.encode import decode_blocks, encode_partition_pandas
from signalsharp_ray.stages.gapfill import gapfill_arrays, gapfill_table
from signalsharp_ray.stages.rollup import TIERS_US, SortedTier


def _series_df(ts_minutes, values, host="h.example.com", url="https://h.example.com/p"):
    base = 1_704_067_200_000_000
    return pd.DataFrame(
        {
            "host": host,
            "url": url,
            "bucket_ts": pd.to_datetime(
                [base + m * 60_000_000 for m in ts_minutes], unit="us"
            ),
            "count": 1,
            "sum": np.asarray(values, dtype=float),
            "min": np.asarray(values, dtype=float),
            "max": np.asarray(values, dtype=float),
            "mean": np.asarray(values, dtype=float),
        }
    )


STAGES = pathlib.Path(__file__).resolve().parents[1] / "signalsharp_ray" / "stages"


def test_per_series_stages_have_no_per_group_form():
    """Gap-fill, encode and the analyses run every series of a table in
    one segmented kernel call: none of their modules groups a frame or
    runs a kernel per group through bucketed_map_groups."""
    sites = []
    for name in ("analysis.py", "gapfill.py", "encode.py"):
        path = STAGES / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            imported = isinstance(node, ast.ImportFrom) and any(
                a.name == "bucketed_map_groups" for a in node.names)
            grouped = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "groupby")
            if imported or grouped:
                sites.append(f"{name}:{node.lineno}")
    assert sites == []


def _gapfill(df, method, max_gap_buckets=None):
    """gapfill_tier's reducer over a 1m tier frame keyed by (host, url)."""
    t = pa.Table.from_pandas(df, preserve_index=False)
    return gapfill_table(t, ["host", "url"], TIERS_US["1m"], method, max_gap_buckets).to_pandas()


def _tier(df):
    """A one-key tier frame (keyed by url) as a SortedTier."""
    return SortedTier.from_frame(df, "url")


class TestGapfill:
    def test_locf(self):
        df = _series_df([0, 1, 4], [10.0, 20.0, 50.0])
        out = _gapfill(df, "locf")
        assert len(out) == 5
        np.testing.assert_allclose(out["value"], [10, 20, 20, 20, 50])
        np.testing.assert_array_equal(out["gap_filled"], [False, False, True, True, False])
        np.testing.assert_array_equal(out["count"], [1, 1, 0, 0, 1])
        assert out["sum"].isna().tolist() == [False, False, True, True, False]

    def test_linear(self):
        df = _series_df([0, 3], [0.0, 30.0])
        out = _gapfill(df, "linear")
        np.testing.assert_allclose(out["value"], [0, 10, 20, 30])
        np.testing.assert_array_equal(out["gap_filled"], [False, True, True, False])

    def test_no_gaps_passthrough(self):
        df = _series_df([0, 1, 2], [1.0, 2.0, 3.0])
        out = _gapfill(df, "locf")
        assert len(out) == 3
        assert not out["gap_filled"].any()

    def test_unsorted_input_sorted_inside(self):
        df = _series_df([4, 0, 1], [50.0, 10.0, 20.0])
        out = _gapfill(df, "locf")
        np.testing.assert_allclose(out["value"], [10, 20, 20, 20, 50])

    def test_matches_pandas_ffill_oracle(self):
        rng = np.random.default_rng(3)
        mins = np.sort(rng.choice(200, 40, replace=False))
        vals = rng.normal(size=40)
        df = _series_df(mins.tolist(), vals)
        out = _gapfill(df, "locf")
        oracle = (
            df.set_index("bucket_ts")["mean"]
            .resample("1min")
            .asfreq()
            .ffill()
        )
        np.testing.assert_allclose(out["value"].to_numpy(), oracle.to_numpy())


# fused gap-fill + encode over whole frames keyed by url (a partial of the
# library function, so Ray workers can unpickle it)
_encode = functools.partial(
    encode_partition_pandas, tier="1m", tier_us=TIERS_US["1m"], key_col="url"
)


class TestEncode:
    def test_encode_and_roundtrip(self):
        df = _series_df(range(100), np.sin(np.arange(100)) * 10 + 100)
        enc = _encode(df)
        assert len(enc) == 1
        dec = decode_blocks(enc)
        np.testing.assert_array_equal(
            dec["value"].to_numpy(), df["mean"].to_numpy()
        )
        np.testing.assert_array_equal(
            dec["bucket_ts"].to_numpy(), df["bucket_ts"].to_numpy()
        )

    def test_compression_on_regular_grid(self):
        df = _series_df(range(2000), np.full(2000, 7.25))
        enc = _encode(df)
        raw_bytes = 2000 * 16
        comp_bytes = len(enc["ts_dod"].iloc[0]) + len(enc["values_gorilla"].iloc[0])
        assert comp_bytes < raw_bytes / 20  # >20x on constant regular series


class TestAnalysisKernels:
    def test_pelt_changepoints_on_series(self):
        df = _series_df(range(9), [1, 1, 1, 5, 5, 5, 1, 1, 1])
        cfg = ChangepointConfig(method="pelt", cost="l2", penalty=2.0, min_size=1)
        out = changepoints_tier(_tier(df), cfg, key_col="url").to_pandas()
        np.testing.assert_array_equal(out["breakpoint_index"], [3, 6])
        # breakpoint_ts = ts of the first point after the change
        assert out["breakpoint_ts"].iloc[0] == df["bucket_ts"].iloc[3]

    def test_cusum_changepoints(self):
        df = _series_df(range(9), [0.2, 1.1, 0.2, 4.0, 0.1, 0.2, -2.0, 0.2, 0.1])
        from signalsharp_ray.kernels.cusum import CUSUMOptions

        cfg = ChangepointConfig(
            method="cusum",
            cusum=CUSUMOptions(threshold_factor=1.2, slack_factor=0.1),
        )
        out = changepoints_tier(_tier(df), cfg, key_col="url").to_pandas()
        np.testing.assert_array_equal(out["breakpoint_index"], [3, 6])

    def test_series_cap_enforced(self):
        df = _series_df(range(50), np.ones(50))
        cfg = ChangepointConfig(cost="rbf", max_series_len=10)
        with pytest.raises(ValueError, match="cap"):
            changepoints_tier(_tier(df), cfg, key_col="url")

    def test_smooth_sma(self):
        df = _series_df(range(5), [1, 2, 3, 4, 5])
        out = smooth_tier(_tier(df), SmoothingConfig(op="sma", window=3, padding="nearest"),
                          key_col="url").to_pandas()
        assert len(out) == 5
        # nearest padding: [1,1,1,2,3,4,5,5,5] windows -> first = (1+1+2)/3
        np.testing.assert_allclose(out["smoothed"].iloc[1:4], [2.0, 3.0, 4.0])

    def test_smooth_ema_matches_kernel(self):
        df = _series_df(range(5), [1, 2, 3, 4, 5])
        out = smooth_tier(_tier(df), SmoothingConfig(op="ema", alpha=0.5), key_col="url").to_pandas()
        np.testing.assert_allclose(out["smoothed"], [1, 1.5, 2.25, 3.125, 4.0625])

    def test_forecast_linear(self):
        df = _series_df(range(4), [1, 3, 5, 7])
        out = forecast_tier(_tier(df), ForecastConfig(method="linear", horizon=2), TIERS_US["1m"],
                            key_col="url").to_pandas()
        np.testing.assert_allclose(out["forecast"], [9.0, 11.0])
        assert (
            out["forecast_ts"].iloc[0] - df["bucket_ts"].iloc[-1]
        ) == pd.Timedelta(minutes=1)

    def test_forecast_too_short_series_empty(self):
        df = _series_df([0], [5.0])
        out = forecast_tier(_tier(df), ForecastConfig(method="linear", horizon=2), TIERS_US["1m"],
                            key_col="url").to_pandas()
        assert len(out) == 0


@pytest.mark.usefixtures("ray_session")
class TestThroughRay:
    def _tier_ds(self):
        import ray.data as rd

        frames = []
        rng = np.random.default_rng(0)
        for i in range(6):
            vals = np.concatenate([np.ones(20) * i, np.ones(20) * (i + 5)])
            frames.append(
                _series_df(
                    range(40),
                    vals + rng.normal(0, 0.01, 40),
                    host=f"h{i}.example.com",
                    url=f"https://h{i}.example.com/p",
                )
            )
        return rd.from_pandas(pd.concat(frames, ignore_index=True)).repartition(4)

    def test_gapfill_tier_distributed(self):
        from signalsharp_ray.stages.gapfill import gapfill_tier

        # every third minute missing: the exchange sends each series whole
        # to one bucket, whose reducer restores its dense grid
        tier = self._tier_ds().filter(lambda r: r["bucket_ts"].minute % 3 != 1)
        got = gapfill_tier(tier, "1m", "locf").to_pandas()
        assert len(got) == 240  # 6 series x 40 buckets
        assert got["gap_filled"].sum() == 6 * 13
        want = _gapfill(tier.to_pandas(), "locf")
        key = ["url", "bucket_ts"]
        pd.testing.assert_frame_equal(got.sort_values(key).reset_index(drop=True),
                                      want.sort_values(key).reset_index(drop=True))

    def test_gapfill_and_encode_distributed(self):
        from signalsharp_ray.common.raytools import bucketed_map_groups

        # every third minute missing: LOCF gap-fill restores the dense grid
        tier = self._tier_ds().filter(lambda r: r["bucket_ts"].minute % 3 != 1)
        blocks = bucketed_map_groups(tier, ["url"], None, whole_bucket_fn=_encode)
        pdf = blocks.to_pandas()
        assert len(pdf) == 6
        dec = decode_blocks(pdf)
        assert len(dec) == 240  # 6 series x 40 gap-filled buckets


class TestGapfillBounded:
    def test_max_gap_buckets_leaves_long_gaps(self):
        df = _series_df([0, 1, 2, 100, 101], [1.0, 2.0, 3.0, 4.0, 5.0])
        out = _gapfill(df, "locf", 5)
        # the 97-bucket gap is NOT filled; observed points all present
        assert len(out) == 5
        assert not out["gap_filled"].any()

    def test_max_gap_buckets_fills_short_gaps(self):
        df = _series_df([0, 1, 5, 100], [1.0, 2.0, 3.0, 4.0])
        out = _gapfill(df, "locf", 5)
        # gap 2..4 (3 buckets) filled, gap 6..99 (94) left out
        assert len(out) == 4 + 3
        import numpy as np
        np.testing.assert_allclose(
            out["value"], [1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0]
        )
        assert out["gap_filled"].sum() == 3


@pytest.mark.usefixtures("ray_session")
def test_read_blocks_roundtrip(tmp_path):
    import pyarrow.parquet as pq
    import ray.data as rd

    from signalsharp_ray.common.raytools import bucketed_map_groups

    frames = [
        _series_df(range(30), np.arange(30.0) + i, host=f"h{i}.example.com",
                   url=f"https://h{i}.example.com/p")
        for i in range(4)
    ]
    tier = rd.from_pandas(pd.concat(frames, ignore_index=True))
    blocks = bucketed_map_groups(tier, ["url"], None, whole_bucket_fn=_encode)
    out_dir = str(tmp_path / "blocks")
    blocks.write_parquet(out_dir)

    decoded = decode_blocks(pq.read_table(out_dir))
    assert len(decoded) == 4 * 30
    got = decoded.sort_values(["url", "bucket_ts"]).reset_index(drop=True)
    exp = (
        pd.concat(frames, ignore_index=True)
        .sort_values(["url", "bucket_ts"])
        .reset_index(drop=True)
    )
    np.testing.assert_array_equal(got["value"].to_numpy(), exp["mean"].to_numpy())


@pytest.mark.usefixtures("ray_session")
class TestEngineExactness:
    """Property tests for the core distributed primitives against local
    pandas oracles on randomized data: the bucketed C++ aggregation, the
    manual hash exchange, the bucketed join, and the fused whole-partition
    encode/analysis kernels must be EXACT re-expressions of their
    single-process counterparts regardless of block layout."""

    def _random_kv(self, seed, n=5_000, n_keys=400):
        rng = np.random.default_rng(seed)
        return pd.DataFrame(
            {
                "k": rng.integers(0, n_keys, n).astype(np.int64),
                "v": rng.normal(0, 10, n),
            }
        )

    def test_hash_bucket_aggregate_matches_pandas(self):
        import ray.data as rd

        from signalsharp_ray.common.raytools import hash_bucket_aggregate

        df = self._random_kv(1)
        ds = rd.from_pandas(df).repartition(13)  # adversarial block layout
        got = (
            hash_bucket_aggregate(
                ds, ["k"], [("v", "sum"), ("v", "min"), ("v", "max")],
                count_alias="n", n_buckets=7,
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = (
            df.groupby("k")
            .agg(v_sum=("v", "sum"), v_min=("v", "min"), v_max=("v", "max"), n=("v", "size"))
            .reset_index()
        )
        assert len(got) == len(want)
        np.testing.assert_array_equal(got["k"], want["k"])
        np.testing.assert_allclose(got["v_sum"], want["v_sum"], rtol=1e-12)
        np.testing.assert_array_equal(got["v_min"], want["v_min"])
        np.testing.assert_array_equal(got["v_max"], want["v_max"])
        np.testing.assert_array_equal(got["n"], want["n"])

    def test_hash_exchange_partitions_completely_and_exactly(self):
        import pyarrow as pa
        import ray.data as rd

        from signalsharp_ray.common.raytools import hash_exchange

        df = self._random_kv(2)
        df["__bucket"] = (df["k"].to_numpy() % 5).astype(np.int64)
        ds = rd.from_pandas(df).repartition(9)

        def reduce_fn(t: pa.Table) -> pa.Table:
            return t  # identity: verify routing only

        out = hash_exchange(ds, 5, reduce_fn).to_pandas()
        assert len(out) == len(df)
        # every row landed in the bucket its key hashes to
        assert (out["__bucket"] == out["k"] % 5).all()
        # content identical as a multiset
        a = out.sort_values(["k", "v"]).reset_index(drop=True)
        b = df.sort_values(["k", "v"]).reset_index(drop=True)
        np.testing.assert_allclose(a["v"], b["v"])

    def test_bucketed_join_matches_pandas_merge(self):
        import ray.data as rd

        from signalsharp_ray.common.raytools import bucketed_join

        left = self._random_kv(3, n=2_000, n_keys=150)
        right = pd.DataFrame(
            {"k": np.arange(100, dtype=np.int64), "w": np.arange(100) * 2.0}
        )
        got = (
            bucketed_join(
                rd.from_pandas(left).repartition(7),
                rd.from_pandas(right).repartition(3),
                on=["k"],
                n_buckets=5,
            )
            .to_pandas()
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        want = (
            left.merge(right, on="k", how="inner")
            .sort_values(["k", "v"])
            .reset_index(drop=True)
        )
        assert len(got) == len(want)
        np.testing.assert_allclose(got["v"], want["v"])
        np.testing.assert_allclose(got["w"], want["w"])

    def test_encode_partition_matches_per_series_path(self):
        from signalsharp_ray.stages.encode import (
            decode_blocks,
            encode_partition_pandas,
        )

        rng = np.random.default_rng(4)
        rows = []
        for uh in range(20):
            n = rng.integers(3, 40)
            ts = np.sort(rng.choice(np.arange(0, 500), size=n, replace=False))
            for t in ts:
                rows.append((uh, pd.Timestamp("2024-01-01") + pd.Timedelta(hours=int(t)),
                             float(rng.normal()), 1, 0.0, 0.0, 0.0))
        df = pd.DataFrame(rows, columns=["url_hash", "bucket_ts", "mean", "count", "sum", "min", "max"])

        tier_us = 3_600_000_000
        fused = encode_partition_pandas(df, "1h", tier_us, "locf", 60)
        dec = decode_blocks(fused).sort_values(["url_hash", "bucket_ts"]).reset_index(drop=True)

        # per-series reference: gapfill_arrays over each series alone
        want_ts, want_value = [], []
        for _, g in df.sort_values("bucket_ts").groupby("url_hash"):
            ts = g["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
            grid, value, _, _ = gapfill_arrays(ts, g["mean"].to_numpy(), tier_us, "locf", 60)
            want_ts.append(grid)
            want_value.append(value)
        got_ts = dec["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
        np.testing.assert_array_equal(got_ts, np.concatenate(want_ts))
        np.testing.assert_array_equal(dec["value"].to_numpy(), np.concatenate(want_value))

    def test_analysis_partition_kernels_match_per_series(self):
        from signalsharp_ray.kernels.pelt import PELT, PELTOptions
        from signalsharp_ray.kernels.smoothing import exponential_moving_average
        from signalsharp_ray.stages.analysis import (
            changepoints_partition_pandas,
            smooth_partition_pandas,
        )

        rng = np.random.default_rng(5)
        frames = []
        for uh in range(15):
            n = int(rng.integers(12, 60))
            vals = np.concatenate([rng.normal(0, 1, n // 2), rng.normal(8, 1, n - n // 2)])
            frames.append(
                pd.DataFrame(
                    {
                        "url_hash": np.int64(uh),
                        "bucket_ts": pd.date_range("2024-01-01", periods=n, freq="h"),
                        "mean": vals,
                    }
                )
            )
        df = pd.concat(frames, ignore_index=True).sample(frac=1.0, random_state=0)

        # per-series references, each series sorted by bucket_ts
        series = [(uh, g.sort_values("bucket_ts")["mean"].to_numpy())
                  for uh, g in df.groupby("url_hash")]

        ccfg = ChangepointConfig(method="pelt", cost="l2", penalty=5.0, min_size=2)
        got = changepoints_partition_pandas(df, ccfg, "mean", "url_hash")
        want = [(uh, bk) for uh, v in series
                for bk in PELT(PELTOptions(cost_function="l2", min_size=2)).fit_and_detect(v, 5.0)]
        assert len(want) >= len(series)
        assert sorted(zip(got["url_hash"], got["breakpoint_index"])) == want

        gs = smooth_partition_pandas(df, SmoothingConfig(op="ema", alpha=0.3), "mean", "url_hash")
        np.testing.assert_array_equal(gs["url_hash"], np.repeat([uh for uh, _ in series],
                                                                [v.size for _, v in series]))
        np.testing.assert_array_equal(
            gs["smoothed"], np.concatenate([exponential_moving_average(v, 0.3) for _, v in series]))


@pytest.mark.usefixtures("ray_session")
class TestIncrementalTierStore:
    def _points(self, n=3000, seed=4):
        rng = np.random.default_rng(seed)
        t0 = 1_704_067_200_000_000
        return pd.DataFrame(
            {
                "event_id": np.arange(n, dtype=np.int64),
                "event_type": rng.choice(["a", "b", "c", "d"], n),
                "ts": pd.to_datetime(
                    t0 + rng.integers(0, 5 * 86400 * 1_000_000, n), unit="us"
                ),
                "value": rng.integers(0, 10_000, n).astype(np.int64),
            }
        )

    def test_chunked_equals_batch(self, tmp_path):
        import ray.data as rd

        from signalsharp_ray.stages.incremental import IncrementalTierStore

        df = self._points()
        inc = IncrementalTierStore(str(tmp_path / "inc"), "1h", ("event_type",), 8)
        for i in range(3):
            inc.apply(rd.from_pandas(df[df["event_id"] % 3 == i]).repartition(3))
        bat = IncrementalTierStore(str(tmp_path / "bat"), "1h", ("event_type",), 8)
        bat.apply(rd.from_pandas(df).repartition(5))

        a = inc.read().sort_values(["event_type", "bucket_ts"]).reset_index(drop=True)
        b = bat.read().sort_values(["event_type", "bucket_ts"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)
        # and equals the plain pandas oracle
        ts_us = df["ts"].astype("datetime64[us]").astype("int64")
        bucket = pd.to_datetime((ts_us // 3_600_000_000) * 3_600_000_000, unit="us")
        oracle = (
            df.assign(bucket_ts=bucket)
            .groupby(["event_type", "bucket_ts"])["value"]
            .agg(["count", "sum", "min", "max"])
            .reset_index()
            .sort_values(["event_type", "bucket_ts"])
            .reset_index(drop=True)
        )
        np.testing.assert_array_equal(a["count"], oracle["count"])
        np.testing.assert_allclose(a["sum"], oracle["sum"])

    def test_untouched_buckets_not_rewritten(self, tmp_path):
        import os

        import ray.data as rd

        from signalsharp_ray.stages.incremental import IncrementalTierStore

        df = self._points()
        store = IncrementalTierStore(str(tmp_path / "s"), "1h", ("event_type",), 8)
        store.apply(rd.from_pandas(df))
        mtimes = {}
        for d in os.listdir(str(tmp_path / "s")):
            p = str(tmp_path / "s" / d / "part.parquet")
            mtimes[d] = os.path.getmtime(p)
        # an increment touching ONE key must rewrite only that key's bucket
        one = df[df["event_type"] == "a"].head(50)
        manifest = store.apply(rd.from_pandas(one))
        assert len(manifest) == 1  # exactly one affected bucket
        touched = f"bucket={manifest['bucket'].iloc[0]}"
        for d, old in mtimes.items():
            now = os.path.getmtime(str(tmp_path / "s" / d / "part.parquet"))
            if d == touched:
                assert now > old
            else:
                assert now == old


    def test_fingerprinted_apply_is_exactly_once(self, tmp_path):
        import ray.data as rd

        from signalsharp_ray.stages.incremental import IncrementalTierStore

        df = self._points(n=1000, seed=11)
        store = IncrementalTierStore(str(tmp_path / "x"), "1h", ("event_type",), 4)
        m1 = store.apply(rd.from_pandas(df), fingerprint="chunk-0")
        assert not m1["skipped"].any()
        state1 = store.read().sort_values(["event_type", "bucket_ts"]).reset_index(drop=True)
        # re-applying the SAME chunk (crash + retry) changes nothing
        m2 = store.apply(rd.from_pandas(df), fingerprint="chunk-0")
        assert m2["skipped"].all()
        state2 = store.read().sort_values(["event_type", "bucket_ts"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(state1, state2)
        # a NEW chunk still merges
        df2 = self._points(n=500, seed=12)
        m3 = store.apply(rd.from_pandas(df2), fingerprint="chunk-1")
        assert not m3["skipped"].any()
        assert store.read()["count"].sum() == 1500

    def test_unfingerprinted_apply_keeps_ledger(self, tmp_path):
        import ray.data as rd

        from signalsharp_ray.stages.incremental import IncrementalTierStore

        df = self._points(n=500, seed=13)
        store = IncrementalTierStore(str(tmp_path / "y"), "1h", ("event_type",), 2)
        store.apply(rd.from_pandas(df), fingerprint="chunk-0")
        store.apply(rd.from_pandas(df))  # at-least-once increment
        retry = store.apply(rd.from_pandas(df), fingerprint="chunk-0")
        assert retry["skipped"].all()
        assert store.read()["count"].sum() == 1000


class TestGapfillProperties:
    """Hypothesis invariants for the gap-fill kernel (north-rule operator)."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @staticmethod
    def _series(draw, st):
        tier = 3_600_000_000
        t0 = 1_704_067_200_000_000
        offs = draw(
            st.lists(st.integers(0, 500), min_size=1, max_size=40, unique=True)
        )
        ts = t0 + np.sort(np.array(offs, dtype=np.int64)) * tier
        means = np.array(
            draw(
                st.lists(
                    st.floats(-1e6, 1e6, allow_nan=False),
                    min_size=len(offs),
                    max_size=len(offs),
                )
            ),
            dtype=np.float64,
        )
        return ts, means, tier

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_locf_invariants(self, data):
        from signalsharp_ray.stages.gapfill import gapfill_arrays

        ts, means, tier = self._series(data.draw, self.st)
        grid, value, observed, pos = gapfill_arrays(ts, means, tier, "locf")
        # dense grid covering [first, last]
        assert grid[0] == ts[0] and grid[-1] == ts[-1]
        assert np.all(np.diff(grid) == tier)
        # observed slots keep their exact mean; filled slots carry the
        # most recent observed mean
        assert observed.sum() == len(ts)
        np.testing.assert_array_equal(value[observed], means)
        last = np.searchsorted(ts, grid, side="right") - 1
        np.testing.assert_array_equal(value, means[np.maximum(last, 0)])

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_linear_invariants(self, data):
        from signalsharp_ray.stages.gapfill import gapfill_arrays

        ts, means, tier = self._series(data.draw, self.st)
        grid, value, observed, _ = gapfill_arrays(ts, means, tier, "linear")
        np.testing.assert_array_equal(value[observed], means)
        # every interpolated slot lies within its neighbors' envelope
        left = np.searchsorted(ts, grid, side="right") - 1
        right = np.minimum(left + 1, len(ts) - 1)
        lo = np.minimum(means[left], means[right])
        hi = np.maximum(means[left], means[right])
        eps = 1e-9 * np.maximum(1.0, np.abs(hi))
        assert np.all(value >= lo - eps) and np.all(value <= hi + eps)

    @given(data=st.data(), max_gap=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_bounded_fill_skips_long_gaps(self, data, max_gap):
        from signalsharp_ray.stages.gapfill import gapfill_arrays

        ts, means, tier = self._series(data.draw, self.st)
        grid, value, observed, _ = gapfill_arrays(ts, means, tier, "locf", max_gap)
        # all observed points survive; no synthesized slot sits inside a
        # gap longer than max_gap
        assert observed.sum() == len(ts)
        gaps = np.diff(ts) // tier - 1
        synth = grid[~observed]
        for i, g in enumerate(gaps):
            inside = (synth > ts[i]) & (synth < ts[i + 1])
            assert inside.sum() == (g if g <= max_gap else 0)


_HOUR = TIERS_US["1h"]
_T0 = 1_704_067_200_000_000


@st.composite
def _tier_series(draw, n_keys: int):
    """1-5 series of distinct string keys (one or two columns, a null key
    value among the choices), each with unique hourly bucket_ts and its
    count/sum/min/max/mean, and a shuffled order of all their rows."""
    name = st.sampled_from(["x", "y", None])
    keys = draw(st.lists(st.tuples(*[name] * n_keys), min_size=1, max_size=5, unique=True))
    series = []
    for k in keys:
        slots = draw(st.lists(st.integers(0, 150), min_size=1, max_size=30, unique=True))
        n = len(slots)
        mean = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
        series.append((k, _T0 + np.sort(np.array(slots, np.int64)) * _HOUR, {
            "count": np.arange(1, n + 1, dtype=np.int64), "sum": mean * 2,
            "min": mean - 1, "max": mean + 1, "mean": mean}))
    order = draw(st.permutations(range(sum(ts.size for _, ts, _ in series))))
    return series, np.array(order, dtype=np.int64)


@pytest.mark.parametrize("unit", ["us", "ns"])
@pytest.mark.parametrize("key_cols", [["url"], ["host", "url"]])
@pytest.mark.parametrize("max_gap", [None, 5])
@pytest.mark.parametrize("method", ["locf", "linear"])
def test_gapfill_table_is_gapfill_arrays_per_series(method, max_gap, key_cols, unit):
    """gapfill_tier's reducer gives each series, rows in any order, what
    gapfill_arrays gives it alone: the grid, the values, the gap flags and
    the observed rows' aggregates (count 0, NaN stats on filled slots)."""

    @settings(max_examples=25, deadline=None)
    @given(_tier_series(len(key_cols)))
    def check(drawn):
        series, order = drawn
        n = [ts.size for _, ts, _ in series]
        cols = {c: pa.array(np.repeat([k[i] for k, _, _ in series], n)[order], pa.string())
                for i, c in enumerate(key_cols)}
        ts = np.concatenate([ts for _, ts, _ in series])[order]
        cols["bucket_ts"] = pa.array(ts, pa.timestamp("us")).cast(pa.timestamp(unit))
        for c in ("count", "sum", "min", "max", "mean"):
            cols[c] = np.concatenate([agg[c] for _, _, agg in series])[order]
        out = gapfill_table(pa.table(cols), key_cols, _HOUR, method, max_gap)
        assert out.schema.names == key_cols + [
            "bucket_ts", "value", "gap_filled", "count", "sum", "min", "max"]
        assert out.schema.field("bucket_ts").type == pa.timestamp("ns")
        got = out.to_pandas()
        rows = 0
        for k, ts, agg in series:
            sel = np.ones(len(got), dtype=bool)
            for c, v in zip(key_cols, k):
                sel &= got[c].isna().to_numpy() if v is None else (got[c] == v).to_numpy()
            g = got[sel]
            grid, value, observed, pos = gapfill_arrays(ts, agg["mean"], _HOUR, method, max_gap)
            rows += grid.size
            src = np.minimum(pos, ts.size - 1)
            np.testing.assert_array_equal(g["bucket_ts"].to_numpy().astype("datetime64[us]")
                                          .astype(np.int64), grid)
            assert g["value"].to_numpy().tobytes() == value.tobytes()
            np.testing.assert_array_equal(g["gap_filled"], ~observed)
            np.testing.assert_array_equal(g["count"], np.where(observed, agg["count"][src], 0))
            for c in ("sum", "min", "max"):
                np.testing.assert_array_equal(g[c], np.where(observed, agg[c][src], np.nan))
        assert len(got) == rows

    check()


def test_breakpoint_index_counts_observed_days_not_calendar_days():
    """The analysis tier holds the observed rows only (no gap-fill), so
    breakpoint_index counts observed 1d rows: a series with a 10-day
    outage before its level shift gets the same index as the same values
    without the outage, and breakpoint_ts is the first day after it."""
    from signalsharp_ray.stages.analysis import changepoints_tier
    from signalsharp_ray.stages.rollup import SortedTier

    day = TIERS_US["1d"]
    base = 1_704_067_200_000_000
    counts = np.array([1] * 5 + [50] * 5, np.int64)
    gap_days = np.r_[0:5, 15:20]  # days 5-14 missing
    key = np.repeat([11, 22], 10).astype(np.int64)
    ts = base + day * np.concatenate([gap_days, np.arange(10)])
    c = np.tile(counts, 2)
    tier = SortedTier(key, ts, {"count": c, "sum": c * 1.0, "min": c * 1.0, "max": c * 1.0,
                                "mean": c * 1.0})
    out = changepoints_tier(tier, ChangepointConfig(penalty=10.0), "count").to_pydict()
    assert out["url_hash"] == [11, 22]
    assert out["breakpoint_index"] == [5, 5]
    assert [t.value // 1000 for t in out["breakpoint_ts"]] == [base + 15 * day, base + 5 * day]
