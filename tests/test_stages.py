"""Gap-fill, encode, and analysis stage tests (kernel level + through Ray)."""

import functools

import numpy as np
import pandas as pd
import pytest

from signalsharp_ray.stages.analysis import (
    ChangepointConfig,
    ForecastConfig,
    SmoothingConfig,
    changepoints_kernel,
    forecast_kernel,
    smooth_kernel,
)
from signalsharp_ray.stages.encode import decode_blocks, encode_partition_pandas
from signalsharp_ray.stages.gapfill import gapfill_series
from signalsharp_ray.stages.rollup import TIERS_US


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


class TestGapfill:
    def test_locf(self):
        df = _series_df([0, 1, 4], [10.0, 20.0, 50.0])
        out = gapfill_series(df, TIERS_US["1m"], "locf")
        assert len(out) == 5
        np.testing.assert_allclose(out["value"], [10, 20, 20, 20, 50])
        np.testing.assert_array_equal(out["gap_filled"], [False, False, True, True, False])
        np.testing.assert_array_equal(out["count"], [1, 1, 0, 0, 1])
        assert out["sum"].isna().tolist() == [False, False, True, True, False]

    def test_linear(self):
        df = _series_df([0, 3], [0.0, 30.0])
        out = gapfill_series(df, TIERS_US["1m"], "linear")
        np.testing.assert_allclose(out["value"], [0, 10, 20, 30])
        np.testing.assert_array_equal(out["gap_filled"], [False, True, True, False])

    def test_no_gaps_passthrough(self):
        df = _series_df([0, 1, 2], [1.0, 2.0, 3.0])
        out = gapfill_series(df, TIERS_US["1m"], "locf")
        assert len(out) == 3
        assert not out["gap_filled"].any()

    def test_unsorted_input_sorted_inside(self):
        df = _series_df([4, 0, 1], [50.0, 10.0, 20.0])
        out = gapfill_series(df, TIERS_US["1m"], "locf")
        np.testing.assert_allclose(out["value"], [10, 20, 20, 20, 50])

    def test_matches_pandas_ffill_oracle(self):
        rng = np.random.default_rng(3)
        mins = np.sort(rng.choice(200, 40, replace=False))
        vals = rng.normal(size=40)
        df = _series_df(mins.tolist(), vals)
        out = gapfill_series(df, TIERS_US["1m"], "locf")
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
        out = changepoints_kernel(df, cfg)
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
        out = changepoints_kernel(df, cfg)
        np.testing.assert_array_equal(out["breakpoint_index"], [3, 6])

    def test_series_cap_enforced(self):
        df = _series_df(range(50), np.ones(50))
        cfg = ChangepointConfig(cost="rbf", max_series_len=10)
        with pytest.raises(ValueError, match="cap"):
            changepoints_kernel(df, cfg)

    def test_smooth_sma(self):
        df = _series_df(range(5), [1, 2, 3, 4, 5])
        out = smooth_kernel(df, SmoothingConfig(op="sma", window=3, padding="nearest"))
        assert len(out) == 5
        # nearest padding: [1,1,1,2,3,4,5,5,5] windows -> first = (1+1+2)/3
        np.testing.assert_allclose(out["smoothed"].iloc[1:4], [2.0, 3.0, 4.0])

    def test_smooth_ema_matches_kernel(self):
        df = _series_df(range(5), [1, 2, 3, 4, 5])
        out = smooth_kernel(df, SmoothingConfig(op="ema", alpha=0.5))
        np.testing.assert_allclose(out["smoothed"], [1, 1.5, 2.25, 3.125, 4.0625])

    def test_forecast_linear(self):
        df = _series_df(range(4), [1, 3, 5, 7])
        out = forecast_kernel(df, ForecastConfig(method="linear", horizon=2), TIERS_US["1m"])
        np.testing.assert_allclose(out["forecast"], [9.0, 11.0])
        assert (
            out["forecast_ts"].iloc[0] - df["bucket_ts"].iloc[-1]
        ) == pd.Timedelta(minutes=1)

    def test_forecast_too_short_series_empty(self):
        df = _series_df([0], [5.0])
        out = forecast_kernel(df, ForecastConfig(method="linear", horizon=2), TIERS_US["1m"])
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

    def test_detect_changepoints_distributed(self):
        from signalsharp_ray.stages.analysis import detect_changepoints

        cfg = ChangepointConfig(method="pelt", cost="l2", penalty=5.0, min_size=2)
        out = detect_changepoints(self._tier_ds(), cfg).to_pandas()
        assert set(out["host"].unique()) == {f"h{i}.example.com" for i in range(6)}
        for _, grp in out.groupby("host"):
            np.testing.assert_array_equal(grp["breakpoint_index"].to_numpy(), [20])

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
        out = gapfill_series(df, TIERS_US["1m"], "locf", max_gap_buckets=5)
        # the 97-bucket gap is NOT filled; observed points all present
        assert len(out) == 5
        assert not out["gap_filled"].any()

    def test_max_gap_buckets_fills_short_gaps(self):
        df = _series_df([0, 1, 5, 100], [1.0, 2.0, 3.0, 4.0])
        out = gapfill_series(df, TIERS_US["1m"], "locf", max_gap_buckets=5)
        # gap 2..4 (3 buckets) filled, gap 6..99 (94) left out
        assert len(out) == 4 + 3
        import numpy as np
        np.testing.assert_allclose(
            out["value"], [1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0]
        )
        assert out["gap_filled"].sum() == 3


@pytest.mark.usefixtures("ray_session")
def test_read_blocks_roundtrip(tmp_path):
    import ray.data as rd

    from signalsharp_ray.common.raytools import bucketed_map_groups
    from signalsharp_ray.stages.encode import read_blocks

    frames = [
        _series_df(range(30), np.arange(30.0) + i, host=f"h{i}.example.com",
                   url=f"https://h{i}.example.com/p")
        for i in range(4)
    ]
    tier = rd.from_pandas(pd.concat(frames, ignore_index=True))
    blocks = bucketed_map_groups(tier, ["url"], None, whole_bucket_fn=_encode)
    out_dir = str(tmp_path / "blocks")
    blocks.write_parquet(out_dir)

    decoded = read_blocks(out_dir).to_pandas()
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
        from signalsharp_ray.stages.gapfill import gapfill_series

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

        # per-series reference path: gapfill_series then raw values
        parts = []
        for uh, g in df.groupby("url_hash"):
            filled = gapfill_series(g, tier_us, "locf", 60, key_cols=("url_hash",))
            parts.append(filled[["url_hash", "bucket_ts", "value"]])
        want = (
            pd.concat(parts).sort_values(["url_hash", "bucket_ts"]).reset_index(drop=True)
        )
        assert len(dec) == len(want)
        np.testing.assert_array_equal(
            dec["bucket_ts"].to_numpy(), want["bucket_ts"].to_numpy()
        )
        np.testing.assert_array_equal(dec["value"].to_numpy(), want["value"].to_numpy())

    def test_analysis_partition_kernels_match_per_series(self):
        from signalsharp_ray.stages.analysis import (
            ChangepointConfig,
            SmoothingConfig,
            changepoints_kernel,
            changepoints_partition_pandas,
            smooth_kernel,
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

        ccfg = ChangepointConfig(method="pelt", cost="l2", penalty=5.0, min_size=2)
        got = changepoints_partition_pandas(df, ccfg, "mean", "url_hash")
        want = pd.concat(
            [
                changepoints_kernel(g, ccfg, "mean", ("url_hash",))
                for _, g in df.groupby("url_hash")
            ],
            ignore_index=True,
        )
        g2 = got.sort_values(["url_hash", "breakpoint_index"]).reset_index(drop=True)
        w2 = want.sort_values(["url_hash", "breakpoint_index"]).reset_index(drop=True)
        np.testing.assert_array_equal(g2["url_hash"], w2["url_hash"])
        np.testing.assert_array_equal(g2["breakpoint_index"], w2["breakpoint_index"])

        scfg = SmoothingConfig(op="ema", alpha=0.3)
        gs = smooth_partition_pandas(df, scfg, "mean", "url_hash")
        ws = pd.concat(
            [smooth_kernel(g, scfg, "mean") for _, g in df.groupby("url_hash")],
            ignore_index=True,
        )
        gs2 = gs.sort_values(["url_hash", "bucket_ts"]).reset_index(drop=True)
        ws2 = ws.sort_values(["url_hash", "bucket_ts"]).reset_index(drop=True)
        np.testing.assert_array_equal(gs2["smoothed"], ws2["smoothed"])


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
