"""Round-2 operator batch: OHLC candlesticks, derived-rate tiers, linear
gap-fill, anomaly flagging, exact histograms/quantiles/distinct counts,
deterministic sampling, and a TPC-H-Q1-style pricing summary.

Every operator here is DuckDB-oracle-verified (ORACLES2). Design rules are
the same as queries.py: partial+final aggregation before any shuffle,
pyarrow/pandas vectorized kernels, and float-op parity with the SQL oracle
(shared ROUND(x, 6) points, identical operation order) so the driver's
value-hash comparison matches bitwise.

No reference counterpart for most of these (the reference is a single-array
library); they are the distributed operations a production rollup engine
needs on top of SURVEY.md §2 — each docstring states the scale contract.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from ..stages.gapfill import gapfill_tier
from ..stages.rollup import rollup_tier

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000

EVENT_COLS = ["event_id", "ts", "user_id", "event_type", "value"]


def _events(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns or EVENT_COLS)


def event_tier(sf_dir: str, tier: str):
    """The events rolled up per event_type at `tier` resolution
    (event_type, bucket_ts, count, sum, min, max, mean): the shared input
    series of the per-type kernels. Rebuilt on every call."""
    return rollup_tier(
        _events(sf_dir, ["ts", "event_type", "value"]), tier, key_cols=["event_type"]
    )


def _documents(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def _r6(x):
    return np.round(np.asarray(x, dtype=np.float64), 6)


def _r6away(x):
    """Round-half-AWAY-FROM-ZERO to 6 decimals — verified to match DuckDB's
    ROUND(double, 6) on midpoints of both signs, where numpy's banker's
    rounding differs (rational midpoints occur whenever outputs are
    arithmetic on 6-dp-rounded inputs: deltas, interpolations, ratios)."""
    v = np.asarray(x, dtype=np.float64)
    return np.sign(v) * np.floor(np.abs(v) * 1e6 + 0.5) / 1e6


def _r6h(x):
    """Round-half-UP to 6 decimals (matches SQL ROUND's half-away-from-zero
    for non-negative values). Required for RATIONAL-valued outputs like
    Jaccard ratios, which land on exact decimal midpoints (e.g. 1/128 =
    0.0078125) where numpy's banker's rounding and SQL disagree."""
    v = np.asarray(x, dtype=np.float64)
    return np.floor(v * 1e6 + 0.5) / 1e6


# ---------------------------------------------------------------------------
# OHLC candlesticks (open/high/low/close per tier bucket)
# ---------------------------------------------------------------------------


def ohlc_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch OHLC combiner: one partial row per (event_type, bucket)
    carrying the extreme rows' (ts, event_id) keys so the final merge can
    re-resolve open/close across batches."""
    ts_us = batch["ts"].astype("datetime64[us]").astype("int64")
    df = pd.DataFrame(
        {
            "event_type": batch["event_type"],
            "bucket_ts": (ts_us // HOUR_US) * HOUR_US,
            "ts": ts_us,
            "event_id": batch["event_id"].astype(np.int64),
            "value": batch["value"].astype(np.float64),
        }
    )
    df = df.sort_values(["ts", "event_id"], kind="mergesort")
    g = df.groupby(["event_type", "bucket_ts"], sort=False)
    out = g.agg(
        open_ts=("ts", "first"),
        open_id=("event_id", "first"),
        open=("value", "first"),
        close_ts=("ts", "last"),
        close_id=("event_id", "last"),
        close=("value", "last"),
        low=("value", "min"),
        high=("value", "max"),
        cnt=("value", "size"),
    )
    return out.reset_index()


def ohlc_final(df: pd.DataFrame) -> pd.DataFrame:
    """Merge the partial rows of ONE (event_type, bucket) group."""
    first = df.sort_values(["open_ts", "open_id"], kind="mergesort").iloc[0]
    last = df.sort_values(["close_ts", "close_id"], kind="mergesort").iloc[-1]
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "bucket_ts": pd.to_datetime([df["bucket_ts"].iloc[0]], unit="us"),
            "open": _r6(first["open"]),
            "high": _r6(df["high"].max()),
            "low": _r6(df["low"].min()),
            "close": _r6(last["close"]),
            "cnt": np.int64(df["cnt"].sum()),
        }
    )


def q_ohlc_1h(sf_dir: str):
    """Hourly OHLC bars per event_type series.

    Scale design: open/close are arg-min/arg-max by the (ts, event_id)
    ordering key — an associative reduction — so each batch first collapses
    to one partial row per (event_type, bucket) carrying the extreme rows'
    keys, and the single shuffle moves partials only. The final kernel
    re-resolves the extremes across partials; ties are broken by event_id,
    which makes the result independent of block layout (the lesson of the
    round-1 asof_join bug: per-batch tie-breaks are only safe when the
    tie-break key is part of the reduction). Split-invariance is
    unit-tested in tests/test_queries2.py."""
    parts = _events(sf_dir).map_batches(ohlc_partial, batch_format="pandas")
    return bucketed_map_groups(parts, ["event_type", "bucket_ts"], ohlc_final)


# ---------------------------------------------------------------------------
# derived-rate tier: per-series first difference of the hourly means
# ---------------------------------------------------------------------------


def q_delta_1h(sf_dir: str):
    """Hourly mean delta (discrete rate) per event_type: the partial+final
    rollup produces the 1h tier, then a per-series shuffle-free diff inside
    the bucketed kernel. Means are rounded to 6 before differencing so both
    engine and oracle subtract the identical float64 values."""
    from .queries import _events_v100

    t1h = rollup_tier(_events_v100(sf_dir), "1h", key_cols=["event_type"])

    def round_mean(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        # centivalue sums -> the mean double is identical on both sides
        batch["mean"] = _r6away(
            (batch["sum"].to_numpy(np.float64) / 100.0) / batch["count"].to_numpy()
        )
        return batch

    t1h = t1h.map_batches(round_mean, batch_format="pandas")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        m = df["mean"].to_numpy(dtype=np.float64)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[1:],
                "bucket_ts": df["bucket_ts"].iloc[1:],
                # deltas of 6-dp means land on signed decimal midpoints:
                # round half-away to match SQL ROUND for both signs
                "delta": _r6away(m[1:] - m[:-1]),
            }
        )

    return bucketed_map_groups(t1h, ["event_type"], fn)


# ---------------------------------------------------------------------------
# linear-interpolation gap fill (north-rule: LOCF *and* linear)
# ---------------------------------------------------------------------------


def q_gapfill_linear_1h(sf_dir: str):
    """Same dense-grid contract as gapfill_locf_1h but with linear
    interpolation between neighboring observed hourly means
    (stages/gapfill.py linear path). The kernel's float ops —
    slope = (v1-v0)/(t1-t0); value = slope*(t-t0) + v0 over float64
    microsecond timestamps, as SEPARATE multiply/add ops — are replicated
    verbatim in the SQL oracle, so interpolated values match bitwise.
    The final display rounding is half-away-from-zero (SQL ROUND):
    interpolation midpoints between two 6-dp means land exactly on the
    7th decimal's 5, where numpy's banker's rounding disagrees."""
    from .queries import _events_v100

    t1h = rollup_tier(_events_v100(sf_dir), "1h", key_cols=["event_type"])

    def round_mean(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        # centivalue sums -> the mean double is identical on both sides
        batch["mean"] = _r6away(
            (batch["sum"].to_numpy(np.float64) / 100.0) / batch["count"].to_numpy()
        )
        return batch

    t1h = t1h.map_batches(round_mean, batch_format="pandas")
    filled = gapfill_tier(t1h, "1h", "linear", key_cols=("event_type",))

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bucket_ts": batch["bucket_ts"],
                "value": _r6away(batch["value"]),
                "gap_filled": batch["gap_filled"].astype(bool),
            }
        )

    return filled.map_batches(fmt, batch_format="pandas")


# ---------------------------------------------------------------------------
# Bollinger bands: rolling mean +- k * rolling population std per series
# ---------------------------------------------------------------------------


def q_bollinger_bands(sf_dir: str, window: int = 24, k: float = 2.0):
    """Rolling mean +- k*sigma envelope over each event_type series (the
    monitoring-dashboard smoothing band). Window sums of x and x^2 run in
    exact int64 centivalues — prefix-sum differences of float x^2 suffer
    catastrophic cancellation on long series and cannot match a SQL
    engine's windowed aggregates; integer sums are identical everywhere,
    and the float reconstruction + IEEE sqrt then match bitwise. Emits
    rows from index window-1 on (full windows only)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        v100 = np.rint(df["value"].to_numpy(dtype=np.float64) * 100).astype(np.int64)
        if v100.size < window:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "idx": pd.Series(dtype=np.int64),
                    "mid": pd.Series(dtype=np.float64),
                    "upper": pd.Series(dtype=np.float64),
                    "lower": pd.Series(dtype=np.float64),
                }
            )
        c1 = np.cumsum(np.concatenate(([0], v100)))  # int64: exact
        c2 = np.cumsum(np.concatenate(([0], v100 * v100)))
        s1 = (c1[window:] - c1[:-window]).astype(np.float64)
        s2 = (c2[window:] - c2[:-window]).astype(np.float64)
        mean = s1 / 100.0 / window
        ex2 = s2 / 10000.0 / window
        sd = np.sqrt(np.maximum(ex2 - mean * mean, 0.0))
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[window - 1 :].to_numpy(),
                "idx": np.arange(window - 1, v100.size, dtype=np.int64),
                "mid": _r6away(mean),
                "upper": _r6away(mean + k * sd),
                "lower": _r6away(mean - k * sd),
            }
        )

    return bucketed_map_groups(_events(sf_dir), ["event_type"], fn)


# ---------------------------------------------------------------------------
# JSON field extraction + rollup (semi-structured payload path)
# ---------------------------------------------------------------------------


def q_json_field_rollup(sf_dir: str):
    """Extract the integer field `k` from the JSON `props` payload and
    aggregate it per event_type — the semi-structured column path every
    event pipeline needs. Extraction is one vectorized C-regex pass per
    batch (the flat {"k": int} shape needs no parser; a nested payload
    would swap in an actor-pool json.loads stage), integer sums are exact,
    and the partial+final merge is the standard combiner."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        k = (
            batch["props"]
            .str.extract(r'"k"\s*:\s*(-?\d+)', expand=False)
            .astype("float64")  # NaN-able for malformed rows
        )
        df = pd.DataFrame({"event_type": batch["event_type"], "k": k}).dropna()
        df["k"] = df["k"].astype(np.int64)
        g = df.groupby("event_type", sort=False).agg(
            sum_k=("k", "sum"), n=("k", "size")
        )
        return g.reset_index()

    parts = _events(sf_dir, ["event_type", "props"]).map_batches(
        partial, batch_format="pandas"
    )
    agg = hash_bucket_aggregate(parts, ["event_type"], [("sum_k", "sum"), ("n", "sum")])

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["sum_k_sum"].astype(np.int64)
        n = batch["n_sum"].astype(np.int64)
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "sum_k": s,
                "n": n,
                "avg_k": _r6away(s.to_numpy(np.float64) / n.to_numpy()),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


# ---------------------------------------------------------------------------
# counter rate: per-second rate over a monotone counter with resets
# ---------------------------------------------------------------------------

_COUNTER_MOD = 10_000_000  # deterministic synthetic reset point


def q_counter_rate(sf_dir: str):
    """Monitoring-style rate(): per-second increase of a monotone counter,
    reset-aware (a decrease means the counter restarted; the post-reset
    value IS the increase — Prometheus rate semantics for the single-reset
    case). The counter is derived deterministically from the events table
    (running centivalue total per series, wrapped at 10^7) so both sides
    compute the identical integer series; the rate division and rounding
    then match bitwise. Per-series sequential state -> the same
    whole-series kernel contract as EMA/CUSUM."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        v100 = np.rint(df["value"].to_numpy(np.float64) * 100).astype(np.int64)
        counter = np.cumsum(v100) % _COUNTER_MOD
        ts_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        diff = counter[1:] - counter[:-1]
        inc = np.where(diff >= 0, diff, counter[1:])  # reset: post-reset value
        dt_s = (ts_us[1:] - ts_us[:-1]).astype(np.float64) / 1e6
        with np.errstate(divide="ignore", invalid="ignore"):
            rate = np.where(dt_s > 0, inc.astype(np.float64) / dt_s, 0.0)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[1:].to_numpy(),
                "idx": np.arange(1, len(df), dtype=np.int64),
                "rate": _r6away(rate),
            }
        )

    return bucketed_map_groups(_events(sf_dir), ["event_type"], fn)


# ---------------------------------------------------------------------------
# LTTB visual downsampling (dashboard path beside the rollup tiers)
# ---------------------------------------------------------------------------


def q_lttb_downsample(sf_dir: str, n_out: int = 100):
    """Largest-Triangle-Three-Buckets per event_type series: select n_out
    points preserving visual shape (kernels/lttb.py). Deterministic subset
    of the input rows; sequential bucket walk has no SQL ground truth, so
    rows-only — tests pin the kernel against a reference implementation
    and assert subset/endpoint/monotonicity invariants."""
    from ..kernels.lttb import lttb

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        ts_us = df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        idx = lttb(ts_us, df["value"].to_numpy(np.float64), n_out)
        out = df.iloc[idx]
        return pd.DataFrame(
            {
                "event_type": out["event_type"],
                "ts": out["ts"],
                "value": _r6(out["value"]),
            }
        )

    return bucketed_map_groups(_events(sf_dir), ["event_type"], fn)


# ---------------------------------------------------------------------------
# anomaly flagging: |zscore| threshold per series
# ---------------------------------------------------------------------------


def q_anomaly_zscore(sf_dir: str, threshold: float = 2.5):
    """Points whose per-series |z| exceeds the threshold. The filter is
    applied to the 6-rounded z on both sides so boundary membership is
    identical. Per-series mean/std require one pass over the series — the
    same bucketed exchange as the zscore query."""
    from ..kernels import stats

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        z = _r6(stats.zscore(df["value"].to_numpy(dtype=np.float64)))
        mask = np.abs(z) > threshold
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy()[mask],
                "event_type": df["event_type"].to_numpy()[mask],
                "zvalue": z[mask],
            }
        )

    return bucketed_map_groups(_events(sf_dir), ["event_type"], fn)


# ---------------------------------------------------------------------------
# exact histogram (two-pass: tiny bounds aggregate, then partial+final counts)
# ---------------------------------------------------------------------------


def q_value_histogram(sf_dir: str, n_bins: int = 10):
    """Equal-width histogram of `value` per event_type.

    Pass 1 computes per-type (min, max) — a bucketed C++ aggregate whose
    result is one row per event_type, small enough to broadcast into the
    binning closure (the broadcast is the aggregate, never the data).
    Pass 2 bins every row vectorized, pre-counts per batch, and merges the
    partial counts with one tiny shuffle. Bin arithmetic is
    floor((v - lo) / ((hi - lo) / n_bins)) clamped to n_bins-1, evaluated
    with the identical float64 ops in SQL."""
    bounds = hash_bucket_aggregate(
        _events(sf_dir, ["event_type", "value"]),
        ["event_type"],
        [("value", "min"), ("value", "max")],
    ).to_pandas()
    lo = dict(zip(bounds["event_type"], bounds["value_min"]))
    hi = dict(zip(bounds["event_type"], bounds["value_max"]))

    def binify(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["value"].to_numpy(dtype=np.float64)
        lo_v = batch["event_type"].map(lo).to_numpy(dtype=np.float64)
        hi_v = batch["event_type"].map(hi).to_numpy(dtype=np.float64)
        width = (hi_v - lo_v) / n_bins
        with np.errstate(divide="ignore", invalid="ignore"):
            idx = np.floor((v - lo_v) / width)
        idx = np.where(np.isfinite(idx), idx, 0.0)
        idx = np.minimum(idx, n_bins - 1).astype(np.int64)
        out = pd.DataFrame({"event_type": batch["event_type"], "bin": idx})
        return out.groupby(["event_type", "bin"], sort=False).size().rename("n").reset_index()

    parts = _events(sf_dir, ["event_type", "value"]).map_batches(
        binify, batch_format="pandas"
    )
    agg = hash_bucket_aggregate(parts, ["event_type", "bin"], [("n", "sum")])

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bin": batch["bin"].astype(np.int64),
                "n": batch["n_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


# ---------------------------------------------------------------------------
# exact quantiles per series (np.quantile linear == DuckDB quantile_cont)
# ---------------------------------------------------------------------------

QUANTILES = (0.25, 0.5, 0.75, 0.95)


def q_quantiles(sf_dir: str):
    """Exact linear-interpolation quantiles per event_type. numpy's default
    'linear' method computes the same value as DuckDB's quantile_cont
    (verified bitwise). Exact quantiles need the whole series in one
    kernel — the same per-series materialization contract (and per-series
    length cap) as the analysis stage; for sketch-sized memory at unbounded
    series lengths a t-digest would replace this kernel."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(dtype=np.float64)
        qs = np.array(QUANTILES)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "q": qs,
                "quantile_value": _r6(np.quantile(v, qs)),
            }
        )

    return bucketed_map_groups(
        _events(sf_dir, ["event_type", "value"]), ["event_type"], fn
    )


# ---------------------------------------------------------------------------
# exact distinct counts (daily active users per event_type)
# ---------------------------------------------------------------------------


def q_distinct_daily_users(sf_dir: str):
    """COUNT(DISTINCT user_id) per (event_type, day). Partial per-batch
    dedup (the combiner) shrinks the exchange to unique triples; the final
    kernel dedups across batches and counts. Exact at any scale because
    the triple (type, day, user) is hash-co-located."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts_us = batch["ts"].astype("datetime64[us]").astype("int64")
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bucket_ts": (ts_us // DAY_US) * DAY_US,
                "user_id": batch["user_id"].astype(np.int64),
            }
        )
        return df.drop_duplicates()

    def final(df: pd.DataFrame) -> pd.DataFrame:
        n = df["user_id"].nunique()
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "bucket_ts": pd.to_datetime([df["bucket_ts"].iloc[0]], unit="us"),
                "n_users": np.int64(n),
            }
        )

    parts = _events(sf_dir, ["event_type", "ts", "user_id"]).map_batches(
        partial, batch_format="pandas"
    )
    return bucketed_map_groups(parts, ["event_type", "bucket_ts"], final)


# ---------------------------------------------------------------------------
# deterministic sampling (hash-Bernoulli and per-stratum top-k)
# ---------------------------------------------------------------------------


def _md5_u64(strings) -> np.ndarray:
    """Little-endian uint64 of the first 8 md5 bytes — DuckDB's
    md5_number_upper. Content hash, not a security primitive."""
    import hashlib

    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "little")
            for s in strings
        ),
        dtype=np.uint64,
        count=len(strings),
    )


def q_hash_sample(sf_dir: str, modulus: int = 10):
    """Deterministic ~1/modulus Bernoulli sample of documents keyed on
    md5(doc_id). Embarrassingly parallel (no shuffle), reproducible across
    runs/cluster sizes — the sampling primitive every training-data
    pipeline needs for held-out splits. The hash is on the KEY, not the
    row position, so resharding the input cannot change membership."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        h = _md5_u64([str(i) for i in batch["doc_id"]])
        mask = (h % np.uint64(modulus)) == 0
        out = batch.loc[mask, ["doc_id", "lang", "n_chars"]].copy()
        out["doc_id"] = out["doc_id"].astype(np.int64)
        out["n_chars"] = out["n_chars"].astype(np.int64)
        return out

    return _documents(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        fn, batch_format="pandas"
    )


def q_stratified_sample(sf_dir: str, per_stratum: int = 5):
    """Per-language top-k sample ordered by (md5(text), doc_id) — a
    deterministic stratified sample. Top-k by a total order is an
    associative reduction: each batch keeps its k smallest per stratum
    (partial), the single shuffle moves k rows per (batch, stratum), and
    the final kernel re-selects k across partials."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "lang": batch["lang"],
                "doc_id": batch["doc_id"].astype(np.int64),
                "fp_u": _md5_u64(batch["text"].fillna("").tolist()),
            }
        )
        df = df.sort_values(["fp_u", "doc_id"], kind="mergesort")
        return df.groupby("lang", sort=False).head(per_stratum)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["fp_u", "doc_id"], kind="mergesort").head(per_stratum)
        return pd.DataFrame(
            {
                "lang": df["lang"],
                "doc_id": df["doc_id"],
                "fingerprint": df["fp_u"].to_numpy().view(np.int64),
            }
        )

    parts = _documents(sf_dir, ["doc_id", "lang", "text"]).map_batches(
        partial, batch_format="pandas"
    )
    return bucketed_map_groups(parts, ["lang"], final)


# ---------------------------------------------------------------------------
# SQL-verifiable MinHash signatures (md5 permutations over char shingles)
# ---------------------------------------------------------------------------

_MH_PERMS = 4
_MH_K = 5
_MH_PREFIX = 512


def minhash_sig_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch kernel: (doc_id, perm, sig) md5-permutation MinHash rows
    over distinct char 5-gram shingles of a bounded 512-char prefix. The
    per-doc shingle loop is bounded by the prefix (md5 runs at C speed);
    embarrassingly parallel, no shuffle. Shared by q_minhash_signatures
    and the banded-LSH candidate query (queries5.q_lsh_candidates)."""
    import hashlib

    ids, perms, sigs = [], [], []
    for doc_id, text in zip(batch["doc_id"], batch["text"].fillna("")):
        s = text[:_MH_PREFIX]
        if len(s) < _MH_K:
            continue
        shingles = {s[i : i + _MH_K] for i in range(len(s) - _MH_K + 1)}
        for pm in range(_MH_PERMS):
            salt = f"p{pm}:".encode()
            m = min(
                int.from_bytes(
                    hashlib.md5(salt + g.encode("utf-8")).digest()[:8], "little"
                )
                for g in shingles
            )
            ids.append(doc_id)
            perms.append(pm)
            sigs.append(m - (1 << 64) if m >= (1 << 63) else m)
    return pd.DataFrame(
        {
            "doc_id": np.asarray(ids, dtype=np.int64),
            "perm": np.asarray(perms, dtype=np.int64),
            "sig": np.asarray(sigs, dtype=np.int64),
        }
    )


def q_minhash_signatures(sf_dir: str):
    """MinHash signatures the DuckDB oracle can recompute: distinct char
    5-gram shingles of a bounded 512-char probe prefix, one md5-salted
    permutation per signature slot, sig = min hash over the shingle set.

    This gives the minhash FAMILY an independently verified member: the
    production near-dup path (stages/dedup.py MinHasher) uses numpy
    universal hashing (a*x+b) for throughput and stays rows-only; this
    operator proves the min-over-permuted-hashes construction itself
    against SQL."""
    return _documents(sf_dir, ["doc_id", "text"]).map_batches(
        minhash_sig_batch, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# canonical-representative dedup (keep the longest variant per prefix key)
# ---------------------------------------------------------------------------


def keep_longest_partial(batch: pd.DataFrame, prefix: int = 64) -> pd.DataFrame:
    """Per-batch best-row combiner: one candidate per prefix key, plus the
    batch-local variant count (counts merge by sum)."""
    df = pd.DataFrame(
        {
            "prefix": batch["text"].fillna("").str.slice(0, prefix),
            "doc_id": batch["doc_id"].astype(np.int64),
            "n_chars": batch["n_chars"].astype(np.int64),
        }
    )
    df = df.sort_values(["n_chars", "doc_id"], ascending=[False, True], kind="mergesort")
    g = df.groupby("prefix", sort=False)
    best = g.head(1).set_index("prefix")
    cnt = g.size().rename("n_variants")
    return best.join(cnt).reset_index()


def keep_longest_final(df: pd.DataFrame) -> pd.DataFrame:
    """Resolve one prefix group's candidates to the global best row."""
    df = df.sort_values(["n_chars", "doc_id"], ascending=[False, True], kind="mergesort")
    return pd.DataFrame(
        {
            "doc_id": [np.int64(df["doc_id"].iloc[0])],
            "n_chars": [np.int64(df["n_chars"].iloc[0])],
            "n_variants": [np.int64(df["n_variants"].sum())],
        }
    )


def q_dedup_keep_longest(sf_dir: str, prefix: int = 64):
    """Common-Crawl-style canonical selection: documents sharing the same
    64-char prefix are variants of one page; keep the LONGEST text (ties
    broken by min doc_id). 'Best row per group by a total order' is an
    associative reduction, so each batch reduces to one candidate per key
    (the combiner) and the shuffle moves candidates only — the policy
    cousin of exact_dedup's min-doc_id rule. Split-invariance is
    unit-tested in tests/test_queries2.py."""
    parts = _documents(sf_dir, ["doc_id", "text", "n_chars"]).map_batches(
        lambda b: keep_longest_partial(b, prefix), batch_format="pandas"
    )
    return bucketed_map_groups(parts, ["prefix"], keep_longest_final)


# ---------------------------------------------------------------------------
# TPC-H-Q1-style pricing summary (engine generality on lineitem)
# ---------------------------------------------------------------------------

_Q1_CUTOFF = "1999-12-31"


def q_pricing_summary(sf_dir: str):
    """The classic pricing-summary rollup (filter -> wide aggregate) over
    lineitem. All money sums run in scaled int64 (cents / basis-point
    products), which makes the distributed partial+final sums EXACT and
    order-independent — float SUM over 10^12 rows is not reproducible
    across block layouts, integer SUM is. Decimals are reconstructed once
    at the end. The shipdate predicate is pushed into the parquet read."""
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_shipdate",
        ],
        filter=pc.field("l_shipdate") <= pd.Timestamp(_Q1_CUTOFF),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["l_shipdate"] <= pd.Timestamp(_Q1_CUTOFF)]
        q100 = np.rint(batch["l_quantity"].to_numpy() * 100).astype(np.int64)
        p100 = np.rint(batch["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        d100 = np.rint((1.0 - batch["l_discount"].to_numpy()) * 100).astype(np.int64)
        t100 = np.rint((1.0 + batch["l_tax"].to_numpy()) * 100).astype(np.int64)
        disc100 = np.rint(batch["l_discount"].to_numpy() * 100).astype(np.int64)
        df = pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "q100": q100,
                "p100": p100,
                "dp": p100 * d100,
                "ch": p100 * d100 * t100,
                "disc100": disc100,
            }
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            q100=("q100", "sum"),
            p100=("p100", "sum"),
            dp=("dp", "sum"),
            ch=("ch", "sum"),
            disc100=("disc100", "sum"),
            n=("q100", "size"),
        )
        return g.reset_index()

    parts = ds.map_batches(partial, batch_format="pandas")
    agg = hash_bucket_aggregate(
        parts,
        ["l_returnflag", "l_linestatus"],
        [
            ("q100", "sum"),
            ("p100", "sum"),
            ("dp", "sum"),
            ("ch", "sum"),
            ("disc100", "sum"),
            ("n", "sum"),
        ],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_sum"].astype(np.int64)
        sum_qty = _r6(batch["q100_sum"].to_numpy(dtype=np.float64) / 100.0)
        sum_base = _r6(batch["p100_sum"].to_numpy(dtype=np.float64) / 100.0)
        sum_disc_price = _r6(batch["dp_sum"].to_numpy(dtype=np.float64) / 10000.0)
        sum_charge = _r6(batch["ch_sum"].to_numpy(dtype=np.float64) / 1000000.0)
        sum_disc = batch["disc100_sum"].to_numpy(dtype=np.float64) / 100.0
        return pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "l_linestatus": batch["l_linestatus"],
                "sum_qty": sum_qty,
                "sum_base_price": sum_base,
                "sum_disc_price": sum_disc_price,
                "sum_charge": sum_charge,
                "avg_qty": _r6(sum_qty / n.to_numpy()),
                "avg_price": _r6(sum_base / n.to_numpy()),
                "avg_disc": _r6(sum_disc / n.to_numpy()),
                "count_order": n,
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


# ---------------------------------------------------------------------------
# mergeable sketches: t-digest quantiles + HyperLogLog distinct counts
# ---------------------------------------------------------------------------


def q_quantiles_tdigest(sf_dir: str):
    """Approximate per-series quantiles via mergeable t-digest sketches —
    the fixed-memory scale path beside the exact `quantiles` operator.
    Each batch builds one small sketch per event_type (the combiner); the
    shuffle moves centroid blobs, never values; the final kernel merges.
    Approximate-by-design -> rows-only; tests bound rank error vs the
    exact answer and assert split-invariance within that bound."""
    from ..stages.sketches import TDigestLite

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in batch.groupby("event_type", sort=False):
            d = TDigestLite.of(g["value"].to_numpy(np.float64))
            rows.append((et, d.to_bytes()))
        return pd.DataFrame(rows, columns=["event_type", "sketch"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        acc = TDigestLite(100)
        for blob in df["sketch"]:
            acc = acc.merge(TDigestLite.from_bytes(blob))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]] * 3,
                "q": [0.5, 0.95, 0.99],
                "estimate": _r6([acc.quantile(q) for q in (0.5, 0.95, 0.99)]),
            }
        )

    parts = _events(sf_dir, ["event_type", "value"]).map_batches(
        partial, batch_format="pandas"
    )
    return bucketed_map_groups(parts, ["event_type"], final)


def q_distinct_users_hll(sf_dir: str):
    """Approximate distinct users per event_type via HyperLogLog (p=12,
    ~1.6% standard error, 4 KiB of state per group) — the sketch path
    beside the exact distinct_daily_users. Registers merge by elementwise
    max, so partial+final is exactly associative and idempotent (late or
    duplicated data cannot inflate the estimate)."""
    from ..stages.sketches import HyperLogLog

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in batch.groupby("event_type", sort=False):
            h = HyperLogLog(12)
            h.add_hashes(HyperLogLog.hash_keys(g["user_id"].tolist()))
            rows.append((et, h.to_bytes()))
        return pd.DataFrame(rows, columns=["event_type", "sketch"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        acc = HyperLogLog(12)
        for blob in df["sketch"]:
            acc = acc.merge(HyperLogLog.from_bytes(blob))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "distinct_users_est": [np.int64(round(acc.estimate()))],
            }
        )

    parts = _events(sf_dir, ["event_type", "user_id"]).map_batches(
        partial, batch_format="pandas"
    )
    return bucketed_map_groups(parts, ["event_type"], final)


# ---------------------------------------------------------------------------
# TF-IDF top terms per document (two-sided aggregation + co-partitioned join)
# ---------------------------------------------------------------------------

_TFIDF_TOKEN = r"[a-z0-9_]+"  # ASCII class: identical semantics in re and RE2


def q_tfidf_top_terms(sf_dir: str, k: int = 3):
    """Top-k TF-IDF terms per document: score = tf * ln(N / df).

    The canonical two-sided text aggregation: term frequencies are computed
    per doc inside map_batches (no raw text crosses a shuffle), document
    frequencies by a bucketed C++ count over the (doc, term) rows, the df
    side joins back via the co-partitioned bucketed_join (neither side ever
    collected on the driver — at web scale the vocabulary is ~10^8 terms),
    and the final top-k per doc is an associative reduction.

    Float parity: idf uses math.log (C libm — bitwise-equal to DuckDB's
    ln; numpy's SIMD log differs in ~24% of doubles), evaluated once per
    distinct df value. Ranking orders by the RAW score with a term
    tie-break, so order and rounded output match the SQL oracle exactly."""
    import math
    import re
    from collections import Counter

    from ..common.raytools import bucketed_join

    token_re = re.compile(_TFIDF_TOKEN)
    n_docs = _documents(sf_dir, ["doc_id"]).count()  # parquet metadata count

    import pyarrow as pa

    def tf_rows(batch: pd.DataFrame) -> "pa.Table":
        ids, terms, tfs = [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"].fillna("")):
            counts = Counter(token_re.findall(text.lower()))
            ids.extend([doc_id] * len(counts))
            terms.extend(counts.keys())
            tfs.extend(counts.values())
        # arrow output: bucketed_join unifies schemas at the arrow level
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(ids, dtype=np.int64)),
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(np.asarray(tfs, dtype=np.int64)),
            }
        )

    tf = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        tf_rows, batch_format="pandas"
    )
    # (doc, term) rows are unique by construction -> df = rows per term
    df_ds = hash_bucket_aggregate(tf, ["term"], [("tf", "min")], count_alias="df")

    def df_only(batch: "pa.Table") -> "pa.Table":
        return batch.select(["term", "df"])

    joined = bucketed_join(
        tf, df_ds.map_batches(df_only, batch_format="pyarrow"), on=["term"]
    )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        # libm log per DISTINCT df value, mapped back (bitwise == SQL ln)
        idf_map = {
            int(d): math.log(float(n_docs) / d) for d in df["df"].unique()
        }
        score = df["tf"].to_numpy(np.float64) * df["df"].map(idf_map).to_numpy()
        out = df.assign(score=score).sort_values(
            ["score", "term"], ascending=[False, True], kind="mergesort"
        ).head(k)
        return pd.DataFrame(
            {
                "doc_id": out["doc_id"].astype(np.int64),
                "term": out["term"],
                "tf": out["tf"].astype(np.int64),
                "score": _r6away(out["score"]),
                "rank": np.arange(1, len(out) + 1, dtype=np.int64),
            }
        )

    return bucketed_map_groups(joined, ["doc_id"], topk)


# ---------------------------------------------------------------------------
# incremental continuous-aggregate maintenance (arrival-chunked rollup)
# ---------------------------------------------------------------------------


def q_incremental_rollup_1h(sf_dir: str, n_chunks: int = 3):
    """The hourly tier built by INCREMENTAL application of three disjoint
    arrival chunks (event_id mod 3) to a persisted IncrementalTierStore —
    each chunk rewrites only its affected hash-bucket partitions. Held to
    the SAME DuckDB oracle as the batch rollup: the invariant is
    incremental == batch == SQL, which holds bitwise because the centivalue
    partials merge associatively."""
    import tempfile

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from ..stages.incremental import IncrementalTierStore

    root = tempfile.mkdtemp(prefix="inc_tier_")
    store = IncrementalTierStore(root, "1h", key_cols=("event_type",), n_buckets=16)

    def chunk_ds(i: int):
        def fn(batch: pa.Table) -> pa.Table:
            ev = batch["event_id"].to_numpy(zero_copy_only=False)
            b = batch.filter(pa.array(ev % n_chunks == i))
            return pa.table(
                {
                    "event_type": b["event_type"],
                    "ts": b["ts"],
                    "value": pc.cast(
                        pc.round(pc.multiply(b["value"], 100.0)), pa.int64()
                    ),
                }
            )

        return rd.read_parquet(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "event_type", "ts", "value"],
        ).map_batches(fn, batch_format="pyarrow")

    for i in range(n_chunks):
        store.apply(chunk_ds(i))

    out = store.read()
    cnt = out["count"].to_numpy(np.int64)
    sum_d = out["sum"].to_numpy(np.float64) / 100.0
    return pd.DataFrame(
        {
            "event_type": out["event_type"],
            "bucket_ts": out["bucket_ts"],
            "cnt": cnt,
            "sum_value": _r6away(sum_d),
            "min_value": _r6away(out["min"].to_numpy(np.float64) / 100.0),
            "max_value": _r6away(out["max"].to_numpy(np.float64) / 100.0),
            "mean_value": _r6away(sum_d / cnt),
        }
    )


# ---------------------------------------------------------------------------
# retention sweep: age-based survival per continuous-aggregate tier
# ---------------------------------------------------------------------------

_RETENTION_DAYS = {"1m": 7, "1h": 30, "1d": None}  # None = keep forever


def q_retention_tiers(sf_dir: str):
    """The retention policy of the rollup+downsample+RETENTION engine: fine
    tiers age out, coarse tiers persist (1m kept 7 days, 1h kept 30 days,
    1d forever), measured from the day-floor of the newest event. Returns
    the union of surviving buckets tagged by tier.

    Scale contract: tiers are hive-partitioned Parquet, so retention is a
    partition-level DELETE — whole directories older than the cutoff drop
    without reading a row (bucket_ts is monotone within a tier dir only at
    the day level, so sub-day boundaries filter row groups via parquet
    min/max stats). Here the filter runs inside map_batches over the tier
    datasets; cutoff arithmetic is integer microseconds (exact parity with
    the SQL oracle). The 'now' anchor comes from the tiny 1d tier — one
    driver-side scalar, never a data pass."""
    from ..stages.rollup import cascade_tier
    from .queries import _events_v100

    t1m = rollup_tier(_events_v100(sf_dir), "1m", key_cols=["event_type"])
    t1h = cascade_tier(t1m, "1h", key_cols=["event_type"])
    t1d = cascade_tier(t1h, "1d", key_cols=["event_type"])

    # newest day: max over the (tiny) 1d tier == day-floor of max event ts
    d1_pdf = t1d.to_pandas()
    now_day_us = int(d1_pdf["bucket_ts"].astype("datetime64[us]").astype("int64").max())

    def survivors(ds, tier: str):
        days = _RETENTION_DAYS[tier]
        cutoff = None if days is None else now_day_us - days * DAY_US

        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            ts_us = batch["bucket_ts"].astype("datetime64[us]").astype("int64")
            keep = np.ones(len(batch), dtype=bool) if cutoff is None else (
                ts_us.to_numpy() >= cutoff
            )
            b = batch[keep]
            return pd.DataFrame(
                {
                    "tier": tier,
                    "event_type": b["event_type"],
                    "bucket_ts": b["bucket_ts"],
                    "cnt": b["count"].astype(np.int64),
                    "sum_value": _r6away(b["sum"].to_numpy(np.float64) / 100.0),
                }
            )

        return ds.map_batches(fn, batch_format="pandas")

    out = survivors(t1m, "1m").union(survivors(t1h, "1h")).union(survivors(t1d, "1d"))
    return out


# ---------------------------------------------------------------------------
# broadcast dimension join (orders x customer x nation -> revenue per nation)
# ---------------------------------------------------------------------------


def q_revenue_by_nation(sf_dir: str):
    """Revenue per nation: the broadcast-join pattern — the small dimension
    side (customer -> nationkey -> nation name) is put in the object store
    ONCE via ray.put and mapped inside every fact batch; the fact table
    (orders) never shuffles. Money sums run in scaled int64 cents so the
    distributed partials are exact. Right when the dimension fits in
    worker memory; a dimension that doesn't (e.g. the url dictionary at
    10^12 pages) uses the co-partitioned bucketed_join instead."""
    import ray
    import ray.data as rd

    cust = (
        rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
        .to_pandas()
    )
    nation = rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    cust_to_nation = dict(
        zip(
            cust["c_custkey"].astype(np.int64),
            cust["c_nationkey"]
            .map(dict(zip(nation["n_nationkey"], nation["n_name"])))
            .astype(str),
        )
    )
    dim_ref = ray.put(cust_to_nation)

    class JoinAgg:
        def __init__(self):
            self.dim = ray.get(dim_ref)  # fetched once per actor

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            df = pd.DataFrame(
                {
                    "n_name": batch["o_custkey"].map(self.dim),
                    "cents": np.rint(batch["o_totalprice"].to_numpy() * 100).astype(
                        np.int64
                    ),
                }
            )
            g = df.groupby("n_name", sort=False).agg(
                cents=("cents", "sum"), n_orders=("cents", "size")
            )
            return g.reset_index()

    from ..common.raytools import pool_size

    parts = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(JoinAgg, batch_format="pandas", concurrency=pool_size(4), num_cpus=1)
    agg = hash_bucket_aggregate(
        parts, ["n_name"], [("cents", "sum"), ("n_orders", "sum")]
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_name": batch["n_name"],
                "revenue": _r6(batch["cents_sum"].to_numpy(dtype=np.float64) / 100.0),
                "n_orders": batch["n_orders_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


# ---------------------------------------------------------------------------
# top-k per group (largest orders per customer — associative partial top-k)
# ---------------------------------------------------------------------------


def topk_orders_partial(batch: pd.DataFrame, k: int = 3) -> pd.DataFrame:
    """Per-batch top-k combiner: at most k rows per customer survive."""
    df = batch[["o_custkey", "o_orderkey", "o_totalprice"]].copy()
    df = df.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort"
    )
    return df.groupby("o_custkey", sort=False).head(k)


def topk_orders_final(df: pd.DataFrame, k: int = 3) -> pd.DataFrame:
    """Re-select the global top-k from one customer's partial rows."""
    df = df.sort_values(
        ["o_totalprice", "o_orderkey"], ascending=[False, True], kind="mergesort"
    ).head(k)
    return pd.DataFrame(
        {
            "o_custkey": df["o_custkey"].astype(np.int64),
            "o_orderkey": df["o_orderkey"].astype(np.int64),
            "o_totalprice": _r6(df["o_totalprice"]),
            "rank": np.arange(1, len(df) + 1, dtype=np.int64),
        }
    )


def q_top_orders_per_customer(sf_dir: str, k: int = 3):
    """Top-k orders per customer by (totalprice DESC, orderkey ASC). The
    per-batch partial keeps k rows per customer, so the shuffle moves at
    most k rows per (batch, customer) — the same associative top-k shape
    as stratified_sample, on a numeric ordering over a second table.
    Split-invariance is unit-tested in tests/test_queries2.py."""
    import ray.data as rd

    parts = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderkey", "o_totalprice"],
    ).map_batches(lambda b: topk_orders_partial(b, k), batch_format="pandas")
    return bucketed_map_groups(parts, ["o_custkey"], lambda d: topk_orders_final(d, k))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

QUERIES2 = {
    "ohlc_1h": q_ohlc_1h,
    "delta_1h": q_delta_1h,
    "gapfill_linear_1h": q_gapfill_linear_1h,
    "anomaly_zscore": q_anomaly_zscore,
    "value_histogram": q_value_histogram,
    "quantiles": q_quantiles,
    "distinct_daily_users": q_distinct_daily_users,
    "hash_sample": q_hash_sample,
    "stratified_sample": q_stratified_sample,
    "pricing_summary": q_pricing_summary,
    "minhash_signatures": q_minhash_signatures,
    "dedup_keep_longest": q_dedup_keep_longest,
    "revenue_by_nation": q_revenue_by_nation,
    "top_orders_per_customer": q_top_orders_per_customer,
    "retention_tiers": q_retention_tiers,
    "incremental_rollup_1h": q_incremental_rollup_1h,
    "tfidf_top_terms": q_tfidf_top_terms,
    "quantiles_tdigest": q_quantiles_tdigest,
    "distinct_users_hll": q_distinct_users_hll,
    "bollinger_bands": q_bollinger_bands,
    "lttb_downsample": q_lttb_downsample,
    "counter_rate": q_counter_rate,
    "json_field_rollup": q_json_field_rollup,
}

_MD5_SIGNED = """CAST(CASE WHEN md5_number_upper(COALESCE(text, '')) >= 9223372036854775808
                 THEN md5_number_upper(COALESCE(text, ''))::HUGEINT
                      - 18446744073709551616::HUGEINT
                 ELSE md5_number_upper(COALESCE(text, ''))::HUGEINT END
            AS BIGINT)"""

ORACLES2 = {
    "ohlc_1h": """
WITH r AS (
  SELECT event_type, date_trunc('hour', ts) AS bucket_ts, value,
         row_number() OVER (PARTITION BY event_type, date_trunc('hour', ts)
                            ORDER BY ts, event_id) AS rn_a,
         row_number() OVER (PARTITION BY event_type, date_trunc('hour', ts)
                            ORDER BY ts DESC, event_id DESC) AS rn_d
  FROM events
)
SELECT event_type, bucket_ts,
       ROUND(MAX(CASE WHEN rn_a = 1 THEN value END), 6) AS open,
       ROUND(MAX(value), 6) AS high,
       ROUND(MIN(value), 6) AS low,
       ROUND(MAX(CASE WHEN rn_d = 1 THEN value END), 6) AS close,
       COUNT(*) AS cnt
FROM r GROUP BY 1, 2
""",
    "delta_1h": """
WITH r AS (
  SELECT event_type, date_trunc('hour', ts) AS bucket_ts,
         ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100
               / COUNT(*), 6) AS mean_v
  FROM events GROUP BY 1, 2
)
SELECT event_type, bucket_ts,
       ROUND(mean_v - lag(mean_v) OVER w, 6) AS delta
FROM r
WINDOW w AS (PARTITION BY event_type ORDER BY bucket_ts)
QUALIFY lag(mean_v) OVER w IS NOT NULL
""",
    # np.interp parity: slope = (v1-v0)/(t1-t0); value = slope*(t-t0) + v0
    # over float64 epoch-microseconds (exactly representable below 2^53).
    "gapfill_linear_1h": """
WITH r AS (
  SELECT event_type, date_trunc('hour', ts) AS bucket_ts,
         ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100
               / COUNT(*), 6) AS mean_v
  FROM events GROUP BY 1, 2
),
b AS (
  SELECT event_type, MIN(bucket_ts) AS lo, MAX(bucket_ts) AS hi FROM r GROUP BY 1
),
g AS (
  SELECT b.event_type, UNNEST(generate_series(b.lo, b.hi, INTERVAL 1 HOUR)) AS bucket_ts
  FROM b
)
SELECT g.event_type, g.bucket_ts,
       ROUND(CASE
         WHEN g.bucket_ts = p.bucket_ts THEN p.mean_v
         WHEN n.bucket_ts IS NULL THEN p.mean_v
         ELSE (n.mean_v - p.mean_v)
              / (CAST(epoch_us(n.bucket_ts) AS DOUBLE) - CAST(epoch_us(p.bucket_ts) AS DOUBLE))
              * (CAST(epoch_us(g.bucket_ts) AS DOUBLE) - CAST(epoch_us(p.bucket_ts) AS DOUBLE))
              + p.mean_v
       END, 6) AS value,
       (g.bucket_ts <> p.bucket_ts) AS gap_filled
FROM g
ASOF JOIN r p ON g.event_type = p.event_type AND g.bucket_ts >= p.bucket_ts
ASOF LEFT JOIN r n ON g.event_type = n.event_type AND g.bucket_ts < n.bucket_ts
""",
    "anomaly_zscore": """
SELECT event_id, event_type, zvalue FROM (
  SELECT event_id, event_type,
         ROUND((value - AVG(value) OVER w) / stddev_pop(value) OVER w, 6) AS zvalue
  FROM events
  WINDOW w AS (PARTITION BY event_type)
) WHERE ABS(zvalue) > 2.5
""",
    "value_histogram": """
WITH b AS (
  SELECT event_type, MIN(value) AS lo, MAX(value) AS hi FROM events GROUP BY 1
)
SELECT e.event_type,
       CAST(LEAST(FLOOR((e.value - b.lo) / ((b.hi - b.lo) / 10)), 9) AS BIGINT) AS bin,
       COUNT(*) AS n
FROM events e JOIN b ON e.event_type = b.event_type
GROUP BY 1, 2
""",
    "quantiles": """
SELECT event_type, 0.25 AS q, ROUND(quantile_cont(value, 0.25), 6) AS quantile_value
FROM events GROUP BY 1
UNION ALL
SELECT event_type, 0.5, ROUND(quantile_cont(value, 0.5), 6) FROM events GROUP BY 1
UNION ALL
SELECT event_type, 0.75, ROUND(quantile_cont(value, 0.75), 6) FROM events GROUP BY 1
UNION ALL
SELECT event_type, 0.95, ROUND(quantile_cont(value, 0.95), 6) FROM events GROUP BY 1
""",
    "distinct_daily_users": """
SELECT event_type, date_trunc('day', ts) AS bucket_ts,
       COUNT(DISTINCT user_id) AS n_users
FROM events GROUP BY 1, 2
""",
    "hash_sample": """
SELECT doc_id, lang, n_chars FROM documents
WHERE md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 = 0
""",
    "stratified_sample": f"""
SELECT lang, doc_id, {_MD5_SIGNED} AS fingerprint FROM (
  SELECT lang, doc_id, text,
         row_number() OVER (PARTITION BY lang
                            ORDER BY md5_number_upper(COALESCE(text, '')), doc_id) AS rn
  FROM documents
) WHERE rn <= 5
""",
    "json_field_rollup": """
WITH k AS (
  SELECT event_type, CAST(json_extract(props, '$.k') AS BIGINT) AS k
  FROM events WHERE json_extract(props, '$.k') IS NOT NULL
)
SELECT event_type,
       CAST(SUM(k) AS BIGINT) AS sum_k,
       COUNT(*) AS n,
       ROUND(CAST(SUM(k) AS DOUBLE) / COUNT(*), 6) AS avg_k
FROM k GROUP BY 1
""",
    "counter_rate": """
WITH v AS (
  SELECT event_type, ts, event_id,
         CAST(ROUND(value * 100) AS BIGINT) AS v100
  FROM events
),
c AS (
  SELECT event_type,
         row_number() OVER win - 1 AS idx,
         CAST(SUM(v100) OVER (win ROWS UNBOUNDED PRECEDING) % 10000000 AS BIGINT)
           AS counter,
         epoch_us(ts) AS t_us
  FROM v WINDOW win AS (PARTITION BY event_type ORDER BY ts, event_id)
),
d AS (
  SELECT event_type, idx, counter,
         counter - lag(counter) OVER w AS diff,
         t_us - lag(t_us) OVER w AS dt_us
  FROM c WINDOW w AS (PARTITION BY event_type ORDER BY idx)
)
SELECT event_type, idx,
       ROUND(CASE WHEN CAST(dt_us AS DOUBLE) / 1000000.0 > 0
                  THEN CAST(CASE WHEN diff >= 0 THEN diff ELSE counter END AS DOUBLE)
                       / (CAST(dt_us AS DOUBLE) / 1000000.0)
                  ELSE 0 END, 6) AS rate
FROM d WHERE dt_us IS NOT NULL
""",
    "bollinger_bands": """
WITH v AS (
  SELECT event_type, ts, event_id,
         CAST(ROUND(value * 100) AS BIGINT) AS v100
  FROM events
),
w AS (
  SELECT event_type,
         row_number() OVER win - 1 AS idx,
         SUM(v100) OVER (win ROWS BETWEEN 23 PRECEDING AND CURRENT ROW) AS s1,
         SUM(v100 * v100) OVER (win ROWS BETWEEN 23 PRECEDING AND CURRENT ROW) AS s2
  FROM v
  WINDOW win AS (PARTITION BY event_type ORDER BY ts, event_id)
),
m AS (
  SELECT event_type, idx,
         CAST(s1 AS DOUBLE) / 100 / 24 AS mid_raw,
         sqrt(GREATEST(CAST(s2 AS DOUBLE) / 10000 / 24
              - (CAST(s1 AS DOUBLE) / 100 / 24) * (CAST(s1 AS DOUBLE) / 100 / 24),
              0)) AS sd
  FROM w WHERE idx >= 23
)
SELECT event_type, idx,
       ROUND(mid_raw, 6) AS mid,
       ROUND(mid_raw + 2.0 * sd, 6) AS upper,
       ROUND(mid_raw - 2.0 * sd, 6) AS lower
FROM m
""",
    "tfidf_top_terms": """
WITH n AS (SELECT COUNT(*) AS n_docs FROM documents),
tok AS (
  SELECT doc_id,
         UNNEST(regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9_]+')) AS term
  FROM documents
),
tf AS (SELECT doc_id, term, COUNT(*) AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT term, COUNT(*) AS df FROM tf GROUP BY 1),
s AS (
  SELECT tf.doc_id, tf.term, tf.tf,
         tf.tf * ln(CAST(n.n_docs AS DOUBLE) / df.df) AS raw_score
  FROM tf JOIN df USING (term), n
),
r AS (
  SELECT doc_id, term, tf, raw_score,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY raw_score DESC, term) AS rank
  FROM s
)
SELECT doc_id, term, tf, ROUND(raw_score, 6) AS score, rank
FROM r WHERE rank <= 3
""",
    # identical to the batch hourly rollup oracle: incremental == batch == SQL
    "incremental_rollup_1h": """
WITH v AS (
  SELECT event_type, ts, CAST(ROUND(value * 100) AS BIGINT) AS v100 FROM events
)
SELECT event_type,
       date_trunc('hour', ts) AS bucket_ts,
       COUNT(*) AS cnt,
       ROUND(CAST(SUM(v100) AS DOUBLE) / 100, 6) AS sum_value,
       ROUND(CAST(MIN(v100) AS DOUBLE) / 100, 6) AS min_value,
       ROUND(CAST(MAX(v100) AS DOUBLE) / 100, 6) AS max_value,
       ROUND(CAST(SUM(v100) AS DOUBLE) / 100 / COUNT(*), 6) AS mean_value
FROM v GROUP BY 1, 2
""",
    "retention_tiers": """
WITH anchor AS (
  SELECT date_trunc('day', MAX(ts)) AS d0 FROM events
),
m AS (
  SELECT event_type, date_trunc('minute', ts) AS bucket_ts,
         COUNT(*) AS cnt,
         ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100, 6)
           AS sum_value
  FROM events GROUP BY 1, 2
),
h AS (
  SELECT event_type, date_trunc('hour', ts) AS bucket_ts,
         COUNT(*) AS cnt,
         ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100, 6)
           AS sum_value
  FROM events GROUP BY 1, 2
),
d AS (
  SELECT event_type, date_trunc('day', ts) AS bucket_ts,
         COUNT(*) AS cnt,
         ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100, 6)
           AS sum_value
  FROM events GROUP BY 1, 2
)
SELECT '1m' AS tier, m.* FROM m, anchor WHERE m.bucket_ts >= anchor.d0 - INTERVAL 7 DAY
UNION ALL
SELECT '1h' AS tier, h.* FROM h, anchor WHERE h.bucket_ts >= anchor.d0 - INTERVAL 30 DAY
UNION ALL
SELECT '1d' AS tier, d.* FROM d
""",
    "revenue_by_nation": """
SELECT n.n_name,
       ROUND(CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS DOUBLE) / 100.0, 6)
         AS revenue,
       COUNT(*) AS n_orders
FROM orders o
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1
""",
    "top_orders_per_customer": """
SELECT o_custkey, o_orderkey, ROUND(o_totalprice, 6) AS o_totalprice, rank FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rank
  FROM orders
) WHERE rank <= 3
""",
    "minhash_signatures": """
WITH t AS (
  SELECT doc_id, substr(COALESCE(text, ''), 1, 512) AS s FROM documents
  WHERE length(substr(COALESCE(text, ''), 1, 512)) >= 5
),
idx AS (
  SELECT doc_id, s, UNNEST(generate_series(1, length(s) - 4)) AS i FROM t
),
sh AS (
  SELECT DISTINCT doc_id, substr(s, CAST(i AS INT), 5) AS g5 FROM idx
),
p AS (SELECT UNNEST([0, 1, 2, 3]) AS perm),
m AS (
  SELECT sh.doc_id, p.perm,
         MIN(md5_number_upper('p' || p.perm || ':' || sh.g5)) AS sig_u
  FROM sh, p GROUP BY 1, 2
)
SELECT doc_id, perm,
       CAST(CASE WHEN sig_u >= 9223372036854775808
                 THEN sig_u::HUGEINT - 18446744073709551616::HUGEINT
                 ELSE sig_u::HUGEINT END AS BIGINT) AS sig
FROM m
""",
    "dedup_keep_longest": """
WITH k AS (
  SELECT doc_id, n_chars, substr(COALESCE(text, ''), 1, 64) AS p FROM documents
),
r AS (
  SELECT doc_id, n_chars,
         COUNT(*) OVER (PARTITION BY p) AS n_variants,
         row_number() OVER (PARTITION BY p ORDER BY n_chars DESC, doc_id) AS rn
  FROM k
)
SELECT doc_id, n_chars, n_variants FROM r WHERE rn = 1
""",
    "pricing_summary": f"""
WITH f AS (
  SELECT l_returnflag, l_linestatus,
         CAST(ROUND(l_quantity * 100) AS BIGINT) AS q100,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS p100,
         CAST(ROUND((1.0 - l_discount) * 100) AS BIGINT) AS d100,
         CAST(ROUND((1.0 + l_tax) * 100) AS BIGINT) AS t100,
         CAST(ROUND(l_discount * 100) AS BIGINT) AS disc100
  FROM lineitem WHERE l_shipdate <= TIMESTAMP '{_Q1_CUTOFF}'
),
a AS (
  SELECT l_returnflag, l_linestatus,
         CAST(SUM(q100) AS DOUBLE) AS sq, CAST(SUM(p100) AS DOUBLE) AS sp,
         CAST(SUM(p100 * d100) AS DOUBLE) AS sdp,
         CAST(SUM(p100 * d100 * t100) AS DOUBLE) AS sch,
         CAST(SUM(disc100) AS DOUBLE) AS sdisc,
         COUNT(*) AS n
  FROM f GROUP BY 1, 2
)
SELECT l_returnflag, l_linestatus,
       ROUND(sq / 100.0, 6) AS sum_qty,
       ROUND(sp / 100.0, 6) AS sum_base_price,
       ROUND(sdp / 10000.0, 6) AS sum_disc_price,
       ROUND(sch / 1000000.0, 6) AS sum_charge,
       ROUND(ROUND(sq / 100.0, 6) / n, 6) AS avg_qty,
       ROUND(ROUND(sp / 100.0, 6) / n, 6) AS avg_price,
       ROUND((sdisc / 100.0) / n, 6) AS avg_disc,
       n AS count_order
FROM a
""",
}
