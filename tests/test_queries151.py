"""Pipeline test for pipelines/queries151.py — BOCD over a constructed
events table whose hourly-bucket square wave has known flip indices."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.mark.usefixtures("ray_session")
def test_bocd_changepoints_pipeline(tmp_path):
    from signalsharp_ray.pipelines.queries151 import q_bocd_changepoints

    # 100 distinct hours for one event_type -> flips at 40 and 80.
    ts = pd.date_range("2024-01-01", periods=100, freq="1h").repeat(2)
    df = pd.DataFrame(
        {
            "ts": ts,
            "event_type": "click",
            "user_id": np.arange(200, dtype=np.int64),
            "value": np.ones(200),
        }
    )
    pq.write_table(pa.Table.from_pandas(df), tmp_path / "events.parquet")
    out = q_bocd_changepoints(str(tmp_path)).to_pandas()
    out = out.sort_values("changepoint_index").reset_index(drop=True)
    assert out["event_type"].eq("click").all()
    np.testing.assert_array_equal(
        out["changepoint_index"].to_numpy(np.int64), [40, 80]
    )


def _docs_table(texts):
    return pd.DataFrame(
        {
            "doc_id": np.arange(len(texts), dtype=np.int64),
            "text": texts,
        }
    )


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_equals_batch(tmp_path):
    """Increment-vs-batch equivalence (round-4 VERDICT item 8): applying
    the corpus in 3 chunks yields the identical index to one batch
    exact_dedup, including cross-chunk duplicates."""
    import ray.data as rd

    from signalsharp_ray.stages.dedup import exact_dedup
    from signalsharp_ray.stages.incremental_dedup import DedupIndexStore

    rng = np.random.default_rng(5)
    pool = [f"document body {i}" for i in range(40)]
    texts = [pool[i] for i in rng.integers(0, 40, 120)]
    df = _docs_table(texts)

    batch = (
        exact_dedup(rd.from_pandas(df))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    store = DedupIndexStore(str(tmp_path / "idx"), n_buckets=8)
    for i, chunk in enumerate(np.array_split(df, 3)):
        store.apply(rd.from_pandas(chunk.reset_index(drop=True)), fingerprint=f"c{i}")
    inc = (
        store.read_dataset()
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(inc[["doc_id", "n_copies"]], batch, check_dtype=False)


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_fingerprint_skip_and_probe(tmp_path):
    """A replayed increment (same fingerprint) is skipped per bucket —
    counts cannot double; probe_increment reads only touched buckets."""
    import ray.data as rd

    from signalsharp_ray.stages.incremental_dedup import DedupIndexStore

    df = _docs_table(["aaa", "bbb", "aaa", "ccc"])
    store = DedupIndexStore(str(tmp_path / "idx"), n_buckets=4)
    store.apply(rd.from_pandas(df), fingerprint="chunk-0")
    m = store.apply(rd.from_pandas(df), fingerprint="chunk-0")  # replay
    assert m["skipped"].all()
    state = store.read_dataset().to_pandas().sort_values("doc_id")
    np.testing.assert_array_equal(state["n_copies"].to_numpy(np.int64), [2, 1, 1])

    probe = (
        store.probe_increment(
            rd.from_pandas(
                pd.DataFrame(
                    {"doc_id": np.array([10, 11], dtype=np.int64),
                     "text": ["bbb", "zzz"]}
                )
            )
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    np.testing.assert_array_equal(probe["known"].to_numpy(np.int8), [1, 0])


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_unfingerprinted_apply_keeps_ledger(tmp_path):
    """An apply without a fingerprint must not erase the applied-chunks
    ledger: a later retry of a fingerprinted increment is still skipped."""
    import ray.data as rd

    from signalsharp_ray.stages.incremental_dedup import DedupIndexStore

    df = _docs_table(["aaa", "bbb", "ccc"])
    store = DedupIndexStore(str(tmp_path / "idx"), n_buckets=2)
    store.apply(rd.from_pandas(df), fingerprint="chunk-0")
    store.apply(rd.from_pandas(df))  # at-least-once increment
    retry = store.apply(rd.from_pandas(df), fingerprint="chunk-0")
    assert retry["skipped"].all()
    state = store.read_dataset().to_pandas()
    np.testing.assert_array_equal(state["n_copies"].to_numpy(np.int64), [2, 2, 2])


@pytest.mark.usefixtures("ray_session")
def test_incremental_dedup_untouched_buckets_not_rewritten(tmp_path):
    import os

    import ray.data as rd

    from signalsharp_ray.stages.incremental_dedup import DedupIndexStore

    root = tmp_path / "idx"
    store = DedupIndexStore(str(root), n_buckets=8)
    store.apply(rd.from_pandas(_docs_table([f"text {i}" for i in range(200)])))
    mtimes = {d: os.path.getmtime(root / d / "part.parquet") for d in os.listdir(root)}
    assert len(mtimes) == 8
    # an increment of ONE text must rewrite only that text's bucket
    manifest = store.apply(rd.from_pandas(_docs_table(["text 7"])))
    assert len(manifest) == 1
    touched = f"bucket={manifest['bucket'].iloc[0]}"
    for d, old in mtimes.items():
        now = os.path.getmtime(root / d / "part.parquet")
        assert (now > old) if d == touched else (now == old)
