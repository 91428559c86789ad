"""Windowed custom operators: sliding window, sessionization, as-of join."""

import numpy as np
import pandas as pd
import pytest

pytestmark = pytest.mark.usefixtures("ray_session")


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df).repartition(3)


def test_sliding_window_matches_pandas_rolling():
    from signalsharp_ray.stages.windows import sliding_window

    rng = np.random.default_rng(1)
    frames = []
    for k in ("a", "b"):
        frames.append(
            pd.DataFrame(
                {
                    "key": k,
                    "bucket_ts": pd.to_datetime(
                        np.sort(rng.choice(500, 60, replace=False)) * 3_600_000_000,
                        unit="us",
                    ),
                    "sum": rng.normal(size=60),
                }
            )
        )
    df = pd.concat(frames, ignore_index=True)
    out = (
        sliding_window(_ds(df), ["key"], window=3, value_col="sum")
        .to_pandas()
        .sort_values(["key", "bucket_ts"])
        .reset_index(drop=True)
    )
    for k, grp in df.groupby("key"):
        grp = grp.sort_values("bucket_ts")
        exp = grp["sum"].rolling(3, min_periods=1).sum().to_numpy()
        got = out[out["key"] == k]["window_sum"].to_numpy()
        np.testing.assert_allclose(got, exp)


def test_session_windows_gap_semantics():
    from signalsharp_ray.stages.windows import session_windows

    base = 1_700_000_000_000_000
    minute = 60_000_000
    df = pd.DataFrame(
        {
            "event_id": np.arange(6, dtype=np.int64),
            "user_id": np.int64(7),
            "ts": pd.to_datetime(
                [base, base + minute, base + 40 * minute, base + 45 * minute,
                 base + 120 * minute, base + 121 * minute],
                unit="us",
            ),
        }
    )
    out = (
        session_windows(_ds(df), "user_id", timeout_us=30 * minute)
        .to_pandas()
        .sort_values("session_id")
        .reset_index(drop=True)
    )
    assert len(out) == 3
    np.testing.assert_array_equal(out["n_events"], [2, 2, 2])
    assert out["session_start"].iloc[1] == df["ts"].iloc[2]


def test_asof_join_backward():
    from signalsharp_ray.stages.windows import asof_join

    left = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.int64(1),
            "ts": pd.to_datetime([100, 200, 300, 50], unit="s"),
        }
    )
    right = pd.DataFrame(
        {
            "user_id": np.int64(1),
            "ts": pd.to_datetime([90, 250], unit="s"),
            "payload": [10.0, 20.0],
        }
    )
    out = (
        asof_join(_ds(left), _ds(right), "user_id", right_cols=["payload"])
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # event at t=50 has no prior right row -> null; 100,200 -> 10; 300 -> 20
    np.testing.assert_array_equal(
        out["payload"].to_numpy(), [10.0, 10.0, 20.0, np.nan]
    )


def test_asof_join_right_only_keys_ignored():
    from signalsharp_ray.stages.windows import asof_join

    left = pd.DataFrame(
        {"event_id": [0], "user_id": np.int64(1), "ts": pd.to_datetime([100], unit="s")}
    )
    right = pd.DataFrame(
        {
            "user_id": np.array([1, 99], dtype=np.int64),
            "ts": pd.to_datetime([50, 60], unit="s"),
            "payload": [1.0, 2.0],
        }
    )
    out = asof_join(_ds(left), _ds(right), "user_id", right_cols=["payload"]).to_pandas()
    assert len(out) == 1
    assert out["payload"].iloc[0] == 1.0


@pytest.mark.usefixtures("ray_session")
def test_range_join_count_matches_bruteforce():
    import ray.data as rd

    from signalsharp_ray.stages.windows import range_join_count

    rng = np.random.default_rng(11)
    left = pd.DataFrame(
        {
            "event_id": np.arange(300, dtype=np.int64),
            "user_id": rng.integers(0, 20, 300).astype(np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 90 * 24, 300), unit="h"),
        }
    )
    right = pd.DataFrame(
        {
            "user_id": rng.integers(0, 25, 200).astype(np.int64),
            "ts": pd.Timestamp("2024-01-01")
            + pd.to_timedelta(rng.integers(0, 90 * 24, 200), unit="h"),
        }
    )
    window_us = 7 * 86_400_000_000
    out = (
        range_join_count(
            rd.from_pandas(left).repartition(5),
            rd.from_pandas(right).repartition(3),
            "user_id",
            window_us=window_us,
            count_col="n",
        )
        .to_pandas()
        .set_index("event_id")["n"]
    )
    lts = left["ts"].astype("datetime64[us]").astype("int64")
    rts = right["ts"].astype("datetime64[us]").astype("int64")
    for i, row in left.iterrows():
        t = lts[i]
        mask = (right["user_id"] == row["user_id"]) & (rts > t - window_us) & (rts <= t)
        assert out[row["event_id"]] == mask.sum(), row["event_id"]


def test_asof_join_tiebreak_independent_of_block_layout():
    """The round-1 regression class: duplicate (key, ts) right rows split
    across different blocks must still resolve to the MAX tiebreak row —
    the dedup happens inside the per-key kernel, never per batch."""
    import ray.data as rd

    from signalsharp_ray.stages.windows import asof_join

    rng = np.random.default_rng(13)
    n_keys = 8
    left = pd.DataFrame(
        {
            "k": np.repeat(np.arange(n_keys), 5),
            "ts": pd.to_datetime(rng.integers(100, 200, n_keys * 5), unit="s"),
        }
    )
    # every right (k, ts) appears 3x with different payloads; max wins
    base = pd.DataFrame(
        {
            "k": np.repeat(np.arange(n_keys), 4),
            "ts": pd.to_datetime(np.tile([90, 120, 150, 180], n_keys), unit="s"),
        }
    )
    right = pd.concat(
        [base.assign(payload=i * 1000 + np.arange(len(base))) for i in range(3)],
        ignore_index=True,
    )

    def run(left_parts, right_parts, shuffle_seed):
        r = right.sample(frac=1.0, random_state=shuffle_seed).reset_index(drop=True)
        out = asof_join(
            rd.from_pandas(left).repartition(left_parts),
            rd.from_pandas(r).repartition(right_parts),
            "k",
            right_cols=["payload"],
            right_tiebreak=["payload"],
        ).to_pandas()
        return out.sort_values(["k", "ts"]).reset_index(drop=True)

    a = run(2, 2, 0)
    b = run(7, 13, 1)  # different block layout AND row order
    c = run(1, 40, 2)  # right side shattered into ~1-row blocks
    pd.testing.assert_frame_equal(a, b)
    pd.testing.assert_frame_equal(a, c)
    # and the payload chosen is the maximum among the 3 duplicates
    oracle = (
        right.sort_values("payload").groupby(["k", "ts"], as_index=False).last()
    )
    merged = pd.merge_asof(
        left.sort_values("ts"),
        oracle.sort_values("ts"),
        by="k",
        on="ts",
        direction="backward",
    ).sort_values(["k", "ts"]).reset_index(drop=True)
    np.testing.assert_array_equal(
        a["payload"].fillna(-1).to_numpy(), merged["payload"].fillna(-1).to_numpy()
    )


def test_joins_never_probe_a_lazy_schema(monkeypatch):
    """asof_join and range_join_count read each side's schema from its
    first typed block: Dataset.schema() on a lazy input runs a limit(1)
    probe whose task cancellations have aborted the calling process under
    Ray 2.49."""
    import ray.data as rd

    from signalsharp_ray.stages.windows import asof_join, range_join_count

    left = pd.DataFrame({"k": np.arange(6, dtype=np.int64) % 2,
                         "ts": pd.to_datetime(np.arange(6) * 10, unit="s")})
    right = pd.DataFrame({"k": np.array([0, 1, 0], dtype=np.int64),
                          "ts": pd.to_datetime([5, 15, 35], unit="s"),
                          "payload": [1.0, 2.0, 3.0]})

    def lazy(df):
        # a lazy plan over a map, as the exchange's inputs usually are
        return rd.from_pandas(df).map_batches(lambda b: b, batch_format="pyarrow")

    def no_schema(self, *args, **kwargs):
        raise AssertionError("Dataset.schema() called on a join input")

    monkeypatch.setattr(rd.Dataset, "schema", no_schema)
    out = asof_join(lazy(left), lazy(right), "k", right_cols=["payload"]).to_pandas()
    got = out.sort_values(["k", "ts"])["payload"].fillna(-1).tolist()
    assert got == [-1.0, 1.0, 3.0, -1.0, 2.0, 2.0]
    counts = range_join_count(lazy(left), lazy(right), "k", window_us=20_000_000,
                              count_col="n").to_pandas()
    assert counts.sort_values(["k", "ts"])["n"].tolist() == [0, 1, 1, 0, 1, 0]
