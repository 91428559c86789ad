"""Round-2 batch 4: event-time semantics (time-weighted averages,
watermark late-data drop, session statistics), day-over-day movers, and
inter-arrival gap diagnostics.

Every operator here is DuckDB-oracle-verified (ORACLES4). Parity rules are
the house style (see queries2.py): money runs in exact int64 centivalues
(`CAST(ROUND(value*100) AS BIGINT)` == `np.rint(v*100)`), durations run in
exact int64 microseconds, every sum that crosses a shuffle is integer (so
partial+final merging is order-free at any block layout), and the float
expressions that follow are transcribed op-for-op into the SQL with a
shared final ROUND.

Scale contracts are stated per operator; the common one is the bucketed
exchange with per-key state bounded by one key's rows (a user's events, a
series-day's observations) — never the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, bucketed_map_groups, hash_bucket_aggregate
from ..stages.rollup import rollup_tier
from .queries2 import _documents, _events, _r6away, event_tier

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


def _ts_us(col) -> np.ndarray:
    return col.astype("datetime64[us]").astype("int64").to_numpy()


def _cents(col) -> np.ndarray:
    return np.rint(np.asarray(col, dtype=np.float64) * 100).astype(np.int64)


# ---------------------------------------------------------------------------
# Time-weighted average (LOCF weighting), per (event_type, day)
# ---------------------------------------------------------------------------


def twa_day_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE (event_type, day) group: LOCF
    time-weighted average with exact int64 cents x duration_us sums."""
    df = df.sort_values(["ts_us", "event_id"], kind="mergesort")
    ts = df["ts_us"].to_numpy()
    day_end = int(df["day_us"].iloc[0]) + DAY_US
    dur = np.diff(ts, append=day_end)
    cents = df["cents"].to_numpy()
    sum_cd = int(np.sum(cents * dur))
    sum_d = int(np.sum(dur))
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "day": pd.to_datetime([df["day_us"].iloc[0]], unit="us"),
            "twa_value": _r6away(float(sum_cd) / float(sum_d) / 100.0),
            "n_obs": np.array([len(df)], dtype=np.int64),
        }
    )


def q_time_weighted_avg(sf_dir: str):
    """TimescaleDB-style time-weighted average per (event_type, day):
    each observation's value holds (LOCF) until the next observation in
    the same series-day, the day's last observation holds until the day
    boundary, and the average weights each value by its holding duration.
    The plain mean answers "average of the samples"; the TWA answers
    "average of the signal" when sampling is irregular — the rollup-engine
    aggregate monitoring systems actually chart.

    Exactness: cents x duration_us products and their sums are exact
    int64 (the durations partition the day, so a group's weighted sum is
    bounded by 86.4e9 us * max cents ~ 4e15 — always inside int64; the
    SQL side's HUGEINT SUM is cast back down). The final division is one
    shared float expression. Per-key state = one series-day's rows
    (bounded); one bucketed exchange on (event_type, day).
    """
    ev = _events(sf_dir, ["event_id", "ts", "event_type", "value"])

    def add_day(batch: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(batch["ts"])
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "day_us": (ts // DAY_US) * DAY_US,
                "ts_us": ts,
                "event_id": batch["event_id"].astype(np.int64),
                "cents": _cents(batch["value"]),
            }
        )

    return bucketed_map_groups(
        ev.map_batches(add_day, batch_format="pandas"),
        ["event_type", "day_us"],
        twa_day_kernel,
    ).select_columns(["event_type", "day", "twa_value", "n_obs"])


TIME_WEIGHTED_AVG_SQL = """
WITH w AS (
  SELECT event_type,
         date_trunc('day', ts) AS day,
         CAST(ROUND(value * 100) AS BIGINT) AS cents,
         COALESCE(
           LEAD(epoch_us(ts)) OVER (PARTITION BY event_type, date_trunc('day', ts)
                                    ORDER BY ts, event_id),
           epoch_us(date_trunc('day', ts) + INTERVAL 1 DAY)
         ) - epoch_us(ts) AS dur_us
  FROM events
)
SELECT event_type, day,
       ROUND(CAST(SUM(cents * dur_us) AS DOUBLE)
             / CAST(SUM(dur_us) AS DOUBLE) / 100, 6) AS twa_value,
       COUNT(*) AS n_obs
FROM w GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Watermark late-data drop -> hourly aggregate
# ---------------------------------------------------------------------------


def watermark_keep_kernel(df: pd.DataFrame, lateness_us: int = 600_000_000) -> pd.DataFrame:
    """Per-user arrival-order watermark scan: keep an event iff its
    event-time is not older than (max event-time seen so far - lateness)."""
    df = df.sort_values("event_id", kind="mergesort")
    ts = _ts_us(df["ts"])
    prev_max = np.empty_like(ts)
    prev_max[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(ts[:-1], out=prev_max[1:])
    keep = (prev_max == np.iinfo(np.int64).min) | (ts >= prev_max - lateness_us)
    return df.loc[keep, ["ts", "event_type", "value"]]


def hourly_cents_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch combiner: (event_type, hour) -> exact cents sum + count."""
    ts = _ts_us(batch["ts"])
    g = (
        pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bucket_us": (ts // HOUR_US) * HOUR_US,
                "cents": _cents(batch["value"]),
            }
        )
        .groupby(["event_type", "bucket_us"], sort=False)
        .agg(cents=("cents", "sum"), count=("cents", "size"))
    )
    return g.reset_index()


def q_watermark_late_drop(sf_dir: str, lateness_us: int = 600_000_000):
    """Streaming event-time semantics in batch form: events are processed
    in arrival order (event_id) per user; each user's watermark is the
    max event-time seen so far minus the allowed lateness (10 min); an
    event older than the watermark at its arrival point is DROPPED (it
    missed its window). Survivors aggregate into hourly (count, sum)
    buckets — the deterministic replay of what a streaming engine with
    per-key watermarks would have emitted.

    The watermark scan is per-user sequential state (one bucketed
    exchange on user_id, np.maximum.accumulate inside the kernel); the
    surviving rows then take the standard partial+final combiner into the
    hourly tier. All comparisons are exact int64 microseconds.
    """
    ev = _events(sf_dir, ["event_id", "ts", "user_id", "event_type", "value"])

    def keep_on_time(df: pd.DataFrame) -> pd.DataFrame:
        return watermark_keep_kernel(df, lateness_us)

    kept = bucketed_map_groups(ev, ["user_id"], keep_on_time)

    agg = hash_bucket_aggregate(
        kept.map_batches(hourly_cents_partial, batch_format="pandas"),
        ["event_type", "bucket_us"],
        [("cents", "sum"), ("count", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bucket_ts": pd.to_datetime(batch["bucket_us"], unit="us"),
                "count": batch["count_sum"].astype(np.int64),
                "sum_value": _r6away(
                    batch["cents_sum"].to_numpy(np.float64) / 100.0
                ),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


WATERMARK_LATE_DROP_SQL = """
WITH m AS (
  SELECT event_type, ts, value,
         MAX(epoch_us(ts)) OVER (PARTITION BY user_id ORDER BY event_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING) AS wm_us
  FROM events
)
SELECT event_type,
       date_trunc('hour', ts) AS bucket_ts,
       COUNT(*) AS count,
       ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100, 6)
         AS sum_value
FROM m
WHERE wm_us IS NULL OR epoch_us(ts) >= wm_us - 600000000
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Session statistics (duration / size / value per session)
# ---------------------------------------------------------------------------


def session_stats_kernel(df: pd.DataFrame, timeout_us: int = 1_800_000_000) -> pd.DataFrame:
    """Whole-group kernel for ONE user's events: gap-sessionize, then
    per-session count / exact us duration / exact cents value sum."""
    df = df.sort_values(["ts", "event_id"], kind="mergesort")
    ts = _ts_us(df["ts"])
    gaps = np.diff(ts, prepend=ts[0])
    sid = np.cumsum(gaps > timeout_us)
    g = pd.DataFrame(
        {"sid": sid, "ts": ts, "cents": _cents(df["value"])}
    ).groupby("sid", sort=True)
    start = g["ts"].min().to_numpy()
    end = g["ts"].max().to_numpy()
    return pd.DataFrame(
        {
            "user_id": np.full(len(start), df["user_id"].iloc[0], dtype=np.int64),
            "session_id": np.arange(len(start), dtype=np.int64),
            "n_events": g.size().to_numpy().astype(np.int64),
            "duration_us": (end - start).astype(np.int64),
            "value_sum": _r6away(g["cents"].sum().to_numpy(np.float64) / 100.0),
        }
    )


def q_session_stats(sf_dir: str, timeout_us: int = 1_800_000_000):
    """Per-session statistics on top of 30-minute-gap sessionization:
    events per session, exact microsecond duration, and the session's
    centivalue-exact value sum — the "session table" an analytics engine
    derives before funnel/retention work. Same per-user kernel contract
    as session_windows (stages/windows.py); value aggregation rides in
    the same pass, so sessionize-then-aggregate costs ONE exchange.
    """
    ev = _events(sf_dir, ["event_id", "ts", "user_id", "value"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return session_stats_kernel(df, timeout_us)

    return bucketed_map_groups(ev, ["user_id"], fn)


SESSION_STATS_SQL = """
WITH g AS (
  SELECT user_id, ts, event_id, value,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT user_id, ts, value,
         CAST(SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
  FROM g
)
SELECT user_id, session_id,
       COUNT(*) AS n_events,
       epoch_us(MAX(ts)) - epoch_us(MIN(ts)) AS duration_us,
       ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100, 6)
         AS value_sum
FROM s GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Day-over-day movers (largest daily count changes)
# ---------------------------------------------------------------------------


def q_daily_movers(sf_dir: str, k: int = 20):
    """The "biggest movers" report: day-over-day change of each
    event_type's daily event count (over observed days, in day order),
    global top-20 by |delta| with a total tie-break order (abs_delta
    DESC, event_type, day) so the cut is deterministic. Counts and deltas
    are integers — exact under any layout. The daily tier comes from the
    standard partial+final rollup; the diff is a per-series kernel over
    the TINY tier rows; the top-k is a sort+limit over (types x days)
    rows — all post-shuffle state is tier-sized, never event-sized.
    """
    t = event_tier(sf_dir, "1d").select_columns(
        ["event_type", "bucket_ts", "count"]
    )

    def diff(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts", kind="mergesort")
        c = df["count"].to_numpy(np.int64)
        if len(c) < 2:
            return pd.DataFrame(
                columns=["event_type", "day", "delta", "abs_delta"]
            ).astype({"event_type": object, "delta": np.int64, "abs_delta": np.int64})
        delta = c[1:] - c[:-1]
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[0],
                "day": df["bucket_ts"].iloc[1:].to_numpy(),
                "delta": delta,
                "abs_delta": np.abs(delta),
            }
        )

    out = bucketed_map_groups(t, ["event_type"], diff)
    return out.sort(
        ["abs_delta", "event_type", "day"], descending=[True, False, False]
    ).limit(k)


DAILY_MOVERS_SQL = """
WITH d AS (
  SELECT event_type, date_trunc('day', ts) AS day, COUNT(*) AS c
  FROM events GROUP BY 1, 2
),
x AS (
  SELECT event_type, day,
         c - LAG(c) OVER (PARTITION BY event_type ORDER BY day) AS delta
  FROM d
)
SELECT event_type, day, delta, ABS(delta) AS abs_delta
FROM x WHERE delta IS NOT NULL
ORDER BY abs_delta DESC, event_type, day
LIMIT 20
"""


# ---------------------------------------------------------------------------
# Inter-arrival gap report (per-series freshness / cadence diagnostic)
# ---------------------------------------------------------------------------


def q_gap_report(sf_dir: str):
    """Per event_type ingestion-cadence diagnostic: event count, first
    and last timestamps, the largest inter-arrival gap, and the mean gap
    — the freshness report a telemetry pipeline runs before trusting its
    tiers. The gap sum telescopes to (last - first), so the mean is a
    ratio of exact int64s; only max_gap needs the sorted series (same
    whole-series-per-key contract as the quantiles kernel, bounded by one
    series' rows).
    """
    ev = _events(sf_dir, ["event_id", "ts", "event_type"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"], kind="mergesort")
        ts = _ts_us(df["ts"])
        n = len(ts)
        gaps = np.diff(ts)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_events": np.array([n], dtype=np.int64),
                "first_ts": pd.to_datetime([ts[0]], unit="us"),
                "last_ts": pd.to_datetime([ts[-1]], unit="us"),
                "max_gap_us": np.array(
                    [int(gaps.max()) if n > 1 else 0], dtype=np.int64
                ),
                "mean_gap_us": _r6away(
                    float(int(ts[-1]) - int(ts[0])) / float(n - 1)
                )
                if n > 1
                else np.zeros(1),
            }
        )

    return bucketed_map_groups(ev, ["event_type"], fn)


GAP_REPORT_SQL = """
WITH d AS (
  SELECT event_type, epoch_us(ts) AS ts_us,
         epoch_us(ts) - LAG(epoch_us(ts))
           OVER (PARTITION BY event_type ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT event_type,
       COUNT(*) AS n_events,
       make_timestamp(MIN(ts_us)) AS first_ts,
       make_timestamp(MAX(ts_us)) AS last_ts,
       CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_gap_us,
       CASE WHEN COUNT(*) > 1
            THEN ROUND(CAST(MAX(ts_us) - MIN(ts_us) AS DOUBLE)
                       / CAST(COUNT(*) - 1 AS DOUBLE), 6)
            ELSE 0.0 END AS mean_gap_us
FROM d GROUP BY 1
"""


QUERIES4 = {
    "time_weighted_avg": q_time_weighted_avg,
    "watermark_late_drop": q_watermark_late_drop,
    "session_stats": q_session_stats,
    "daily_movers": q_daily_movers,
    "gap_report": q_gap_report,
}

ORACLES4 = {
    "time_weighted_avg": TIME_WEIGHTED_AVG_SQL,
    "watermark_late_drop": WATERMARK_LATE_DROP_SQL,
    "session_stats": SESSION_STATS_SQL,
    "daily_movers": DAILY_MOVERS_SQL,
    "gap_report": GAP_REPORT_SQL,
}


# ---------------------------------------------------------------------------
# TPC-H-shaped join suite (engine generality: broadcast, semi, anti joins)
# ---------------------------------------------------------------------------


def _orders(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/orders.parquet", columns=columns)


def _customer(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/customer.parquet", columns=columns)


def _distinct_keys(ds, col: str):
    """Distinct values of an integer key column, fully distributed: per-batch
    dedup (the combiner) shrinks the exchange, the bucketed kernel dedups
    across batches. Only key integers ever cross the shuffle."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[[col]].drop_duplicates()

    return bucketed_map_groups(
        ds.map_batches(partial, batch_format="pandas"),
        [col],
        None,
        whole_bucket_fn=lambda df: df.drop_duplicates(),
    )


CUTOFF = "1998-06-01"
CUTOFF_US = int(pd.Timestamp(CUTOFF).value // 1000)


def q_shipping_priority(sf_dir: str, k: int = 10):
    """TPC-H-Q3-shaped shipping priority: revenue of each not-yet-shipped
    order for BUILDING-segment customers — top 10 by revenue. Three-table
    plan shaped for 100 TB: the qualifying customer keys (small side) are
    broadcast once via ray.put and probed inside every orders batch (no
    shuffle for the first join); orders<->lineitem co-partition through
    ONE bucketed exchange on orderkey; revenue partials sum in exact
    int64 micro-dollars (cents x basis points), so the merge is
    order-free. Both date predicates are pushed into the parquet scans.
    """
    import pyarrow.dataset as pds
    import ray
    import ray.data as rd

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey"],
        filter=pds.field("c_mktsegment") == "BUILDING",
    )
    keys = np.sort(
        np.concatenate(
            [
                b["c_custkey"].to_numpy()
                for b in cust.iter_batches(batch_size=65536, batch_format="pandas")
            ]
        )
    )
    keys_ref = ray.put(keys)

    def pick_orders(batch: pd.DataFrame) -> pd.DataFrame:
        wanted = ray.get(keys_ref)
        sel = batch["o_custkey"].isin(wanted)
        return batch.loc[sel, ["o_orderkey", "o_orderdate"]]

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=pds.field("o_orderdate") < pd.Timestamp(CUTOFF),
    ).map_batches(pick_orders, batch_format="pandas")

    def rev_partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = np.rint(batch["l_extendedprice"].to_numpy(np.float64) * 100).astype(
            np.int64
        )
        bp = np.rint(batch["l_discount"].to_numpy(np.float64) * 10000).astype(np.int64)
        df = pd.DataFrame(
            {"o_orderkey": batch["l_orderkey"].astype(np.int64),
             "rev_ud": cents * (10000 - bp)}
        )
        return df.groupby("o_orderkey", sort=False).agg(rev_ud=("rev_ud", "sum")).reset_index()

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=pds.field("l_shipdate") > pd.Timestamp(CUTOFF),
    ).map_batches(rev_partial, batch_format="pandas")

    joined = bucketed_join(line, orders, on=["o_orderkey"], how="inner")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["o_orderkey", "o_orderdate"], sort=False)["rev_ud"].sum()
        out = g.reset_index()
        return pd.DataFrame(
            {
                "o_orderkey": out["o_orderkey"].astype(np.int64),
                "o_orderdate": out["o_orderdate"],
                "revenue": _r6away(out["rev_ud"].to_numpy(np.float64) / 1000000.0),
            }
        )

    out = bucketed_map_groups(joined, ["o_orderkey"], None, whole_bucket_fn=final)
    return out.sort(
        ["revenue", "o_orderdate", "o_orderkey"], descending=[True, False, False]
    ).limit(k)


SHIPPING_PRIORITY_SQL = f"""
SELECT l.l_orderkey AS o_orderkey,
       o.o_orderdate,
       ROUND(CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                      * (10000 - CAST(ROUND(l.l_discount * 10000) AS BIGINT)))
                  AS DOUBLE) / 1000000, 6) AS revenue
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < TIMESTAMP '{CUTOFF}'
  AND l.l_shipdate > TIMESTAMP '{CUTOFF}'
GROUP BY 1, 2
ORDER BY revenue DESC, o_orderdate, o_orderkey
LIMIT 10
"""


def q_orders_with_returns(sf_dir: str):
    """Semi-join shape (TPC-H-Q4-like): count orders per priority class
    having at least one RETURNED line item. The returned orderkeys are
    deduped DISTRIBUTED (per-batch dedup combiner -> bucketed exchange),
    then co-partition with orders through one bucketed join — the
    right side never collects anywhere, so both sides may be arbitrarily
    large. The final per-priority count is the standard partial+final
    combiner (integer sums).
    """
    import pyarrow.dataset as pds
    import ray.data as rd

    returned = _distinct_keys(
        rd.read_parquet(
            f"{sf_dir}/lineitem.parquet",
            columns=["l_orderkey"],
            filter=pds.field("l_returnflag") == "R",
        ),
        "l_orderkey",
    )

    def as_key(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"o_orderkey": batch["l_orderkey"].astype(np.int64)})

    orders = _orders(sf_dir, ["o_orderkey", "o_orderpriority"])
    joined = bucketed_join(
        orders, returned.map_batches(as_key, batch_format="pandas"),
        on=["o_orderkey"], how="inner",
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby("o_orderpriority", sort=False).size()
        return pd.DataFrame(
            {"o_orderpriority": g.index, "n": g.to_numpy().astype(np.int64)}
        )

    agg = hash_bucket_aggregate(
        joined.map_batches(partial, batch_format="pandas"),
        ["o_orderpriority"],
        [("n", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "n_orders": batch["n_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


ORDERS_WITH_RETURNS_SQL = """
SELECT o_orderpriority, COUNT(*) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
GROUP BY 1
"""


def q_customers_without_orders(sf_dir: str):
    """Anti-join shape: customers who never placed an order, counted per
    market segment (segments with zero such customers report 0, so the
    result schema is stable even when no customer qualifies). The active
    custkeys are deduped distributed, the customer table LEFT-joins them
    through one bucketed exchange, and the null-marker rows (no order)
    are counted — the co-partitioned anti-join that never collects
    either side. Counts are integer partial+final.
    """

    def as_key(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": batch["o_custkey"].astype(np.int64),
                "has_order": np.ones(len(batch), dtype=np.int64),
            }
        )

    active = _distinct_keys(_orders(sf_dir, ["o_custkey"]), "o_custkey").map_batches(
        as_key, batch_format="pandas"
    )
    cust = _customer(sf_dir, ["c_custkey", "c_mktsegment"])
    joined = bucketed_join(cust, active, on=["c_custkey"], how="left")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = (
            batch.assign(miss=batch["has_order"].isna().astype(np.int64))
            .groupby("c_mktsegment", sort=False)["miss"]
            .sum()
        )
        return pd.DataFrame(
            {"c_mktsegment": g.index, "n": g.to_numpy().astype(np.int64)}
        )

    agg = hash_bucket_aggregate(
        joined.map_batches(partial, batch_format="pandas"),
        ["c_mktsegment"],
        [("n", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_mktsegment": batch["c_mktsegment"],
                "n_customers": batch["n_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT c_mktsegment,
       COUNT(*) FILTER (WHERE NOT EXISTS
         (SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey)) AS n_customers
FROM customer c
GROUP BY 1
"""


QUERIES4["shipping_priority"] = q_shipping_priority
QUERIES4["orders_with_returns"] = q_orders_with_returns
QUERIES4["customers_without_orders"] = q_customers_without_orders
ORACLES4["shipping_priority"] = SHIPPING_PRIORITY_SQL
ORACLES4["orders_with_returns"] = ORDERS_WITH_RETURNS_SQL
ORACLES4["customers_without_orders"] = CUSTOMERS_WITHOUT_ORDERS_SQL


# ---------------------------------------------------------------------------
# Token rarity (corpus-frequency join back to documents)
# ---------------------------------------------------------------------------


def token_rarity_doc_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch combiner over joined (doc_id, c) token rows: integer
    partials per doc (token count, frequency sum, hapax/rare counts)."""
    c = batch["c"].to_numpy(np.int64)
    df = pd.DataFrame(
        {
            "doc_id": batch["doc_id"].astype(np.int64),
            "n": np.ones(len(batch), dtype=np.int64),
            "sum_c": c,
            "hapax": (c == 1).astype(np.int64),
            "rare": (c <= 5).astype(np.int64),
        }
    )
    return (
        df.groupby("doc_id", sort=False)
        .agg(n=("n", "sum"), sum_c=("sum_c", "sum"),
             hapax=("hapax", "sum"), rare=("rare", "sum"))
        .reset_index()
    )


def q_token_rarity(sf_dir: str):
    """Per-document rarity signals under the corpus unigram distribution:
    token count, summed corpus frequency of the doc's tokens, hapax count
    (corpus frequency 1) and rare count (frequency <= 5), plus the mean
    token frequency — the integer-exact core of perplexity-style corpus
    filtering (a doc of hapaxes is gibberish or treasure; a doc of
    ubiquitous tokens is boilerplate).

    Fully distributed at corpus scale: tokens explode per batch; corpus
    counts are a per-batch-count combiner + one bucketed integer sum on
    token; frequencies join BACK to token rows through a co-partitioned
    bucketed join (no driver-side vocabulary — the vocabulary of a 10^12
    -token corpus doesn't fit anywhere); per-doc reduction is integer
    partial+final on doc_id. Three exchanges, all integer-summed, so the
    result is exact under any block layout.
    """

    def toks(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch["text"].fillna("").str.split()
        df = pd.DataFrame(
            {"doc_id": batch["doc_id"].astype(np.int64), "tok": s}
        ).explode("tok")
        return df[df["tok"].notna()]

    tok_rows = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        toks, batch_format="pandas"
    )

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["tok"].value_counts()
        return pd.DataFrame({"tok": vc.index, "c": vc.to_numpy().astype(np.int64)})

    counts = hash_bucket_aggregate(
        tok_rows.map_batches(count_partial, batch_format="pandas"),
        ["tok"],
        [("c", "sum")],
    ).map_batches(
        lambda b: pd.DataFrame({"tok": b["tok"], "c": b["c_sum"].astype(np.int64)}),
        batch_format="pandas",
    )

    joined = bucketed_join(tok_rows, counts, on=["tok"], how="inner")

    agg = hash_bucket_aggregate(
        joined.map_batches(token_rarity_doc_partial, batch_format="pandas"),
        ["doc_id"],
        [("n", "sum"), ("sum_c", "sum"), ("hapax", "sum"), ("rare", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_sum"].to_numpy(np.int64)
        sum_c = batch["sum_c_sum"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "n_tokens": n,
                "sum_freq": sum_c,
                "n_hapax": batch["hapax_sum"].astype(np.int64),
                "n_rare": batch["rare_sum"].astype(np.int64),
                "mean_freq": _r6away(
                    sum_c.astype(np.float64) / n.astype(np.float64)
                ),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


TOKEN_RARITY_SQL = """
WITH tok AS (
  SELECT doc_id,
         unnest(list_filter(regexp_split_to_array(text, '\\s+'), x -> x <> '')) AS tok
  FROM documents
),
cnt AS (SELECT tok, COUNT(*) AS c FROM tok GROUP BY 1)
SELECT t.doc_id,
       COUNT(*) AS n_tokens,
       CAST(SUM(c.c) AS BIGINT) AS sum_freq,
       CAST(SUM(CASE WHEN c.c = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_hapax,
       CAST(SUM(CASE WHEN c.c <= 5 THEN 1 ELSE 0 END) AS BIGINT) AS n_rare,
       ROUND(CAST(SUM(c.c) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6) AS mean_freq
FROM tok t JOIN cnt c USING (tok)
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Document length percentile (per-language percent_rank via histogram)
# ---------------------------------------------------------------------------


def q_doc_length_percentile(sf_dir: str):
    """Each document's length percentile (PERCENT_RANK: fraction of the
    language's documents strictly shorter, over n-1) within its language
    — the per-stratum normalization used to build length-balanced
    training mixes. The per-(lang, n_chars) histogram is a partial+final
    integer count whose cardinality is bounded by languages x distinct
    lengths (NOT corpus size), so the cumulative table is tiny; it
    broadcasts once via ray.put and every batch maps through it — the
    small-side-broadcast pattern, with the small side provably bounded.
    """
    import ray

    docs = _documents(sf_dir, ["doc_id", "lang", "n_chars"])

    def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["lang", "n_chars"], sort=False).size()
        out = g.reset_index()
        out.columns = ["lang", "n_chars", "cnt"]
        out["cnt"] = out["cnt"].astype(np.int64)
        return out

    hist = hash_bucket_aggregate(
        docs.map_batches(hist_partial, batch_format="pandas"),
        ["lang", "n_chars"],
        [("cnt", "sum")],
    )
    h = hist.to_pandas().sort_values(["lang", "n_chars"])
    h["cnt"] = h["cnt_sum"].astype(np.int64)
    lut = {}
    for lang, g in h.groupby("lang", sort=False):
        counts = g["cnt"].to_numpy()
        less = np.concatenate([[0], np.cumsum(counts)[:-1]])
        n = int(counts.sum())
        denom = float(n - 1) if n > 1 else 1.0
        lut[lang] = dict(
            zip(g["n_chars"].to_numpy(), (less.astype(np.float64) / denom))
        )
    lut_ref = ray.put(lut)

    def apply(batch: pd.DataFrame) -> pd.DataFrame:
        table = ray.get(lut_ref)
        pct = np.array(
            [
                table[l][c]
                for l, c in zip(batch["lang"], batch["n_chars"].astype(np.int64))
            ],
            dtype=np.float64,
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "lang": batch["lang"],
                "n_chars": batch["n_chars"].astype(np.int64),
                "len_pct": _r6away(pct),
            }
        )

    return docs.map_batches(apply, batch_format="pandas")


DOC_LENGTH_PERCENTILE_SQL = """
SELECT doc_id, lang, n_chars,
       ROUND(PERCENT_RANK() OVER (PARTITION BY lang ORDER BY n_chars), 6) AS len_pct
FROM documents
"""


# ---------------------------------------------------------------------------
# Embedding int8 quantization (exact-integer roundtrip summary)
# ---------------------------------------------------------------------------


def q_embedding_quantize(sf_dir: str):
    """Symmetric int8 quantization of each embedding (q_i = round(x_i /
    max|x| * 127), the scheme vector stores ship) summarized by
    exact-integer outputs: the quantized component sum and the count of
    saturated (+-127) components. Embarrassingly parallel — one batch
    pass, no shuffle; the float pipeline (float32 -> float64 division,
    scale, half-away round) is transcribed op-for-op in the SQL so the
    integers match exactly. All-zero vectors quantize to all zeros.
    """
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        vec_ids, sums, sats = [], [], []
        for vid, emb in zip(batch["vec_id"], batch["embedding"]):
            x32 = np.asarray(emb, dtype=np.float32)
            ma32 = np.abs(x32).max() if x32.size else np.float32(0)
            if ma32 == 0:
                q = np.zeros(x32.size, dtype=np.int64)
            else:
                r = x32.astype(np.float64) / float(ma32) * 127.0
                q = (np.sign(r) * np.floor(np.abs(r) + 0.5)).astype(np.int64)
            vec_ids.append(int(vid))
            sums.append(int(q.sum()))
            sats.append(int(np.count_nonzero(np.abs(q) == 127)))
        return pd.DataFrame(
            {
                "vec_id": np.asarray(vec_ids, dtype=np.int64),
                "sum_q": np.asarray(sums, dtype=np.int64),
                "n_saturated": np.asarray(sats, dtype=np.int64),
            }
        )

    return ds.map_batches(fn, batch_format="pandas")


EMBEDDING_QUANTIZE_SQL = """
WITH m AS (
  SELECT vec_id, embedding,
         list_max(list_transform(embedding, x -> abs(x))) AS ma
  FROM embeddings
)
SELECT vec_id,
       CAST(COALESCE(list_sum(list_transform(embedding,
         x -> CASE WHEN ma = 0 THEN 0
                   ELSE CAST(ROUND(CAST(x AS DOUBLE) / CAST(ma AS DOUBLE) * 127)
                             AS BIGINT) END)), 0) AS BIGINT) AS sum_q,
       CAST(COALESCE(list_sum(list_transform(embedding,
         x -> CASE WHEN ma = 0 THEN 0
                   WHEN ABS(CAST(ROUND(CAST(x AS DOUBLE) / CAST(ma AS DOUBLE) * 127)
                                 AS BIGINT)) = 127 THEN 1
                   ELSE 0 END)), 0) AS BIGINT) AS n_saturated
FROM m
"""


QUERIES4["token_rarity"] = q_token_rarity
QUERIES4["doc_length_percentile"] = q_doc_length_percentile
QUERIES4["embedding_quantize"] = q_embedding_quantize
ORACLES4["token_rarity"] = TOKEN_RARITY_SQL
ORACLES4["doc_length_percentile"] = DOC_LENGTH_PERCENTILE_SQL
ORACLES4["embedding_quantize"] = EMBEDDING_QUANTIZE_SQL


# ---------------------------------------------------------------------------
# Hourly percentile rollup (p50/p95/p99 telemetry tier)
# ---------------------------------------------------------------------------


def hourly_percentile_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE (event_type, hour): exact linear
    quantiles (np.quantile 'linear' == DuckDB quantile_cont bitwise)."""
    v = df["value"].to_numpy(np.float64)
    p50, p95, p99 = np.quantile(v, [0.50, 0.95, 0.99])
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "bucket_ts": pd.to_datetime([df["bucket_us"].iloc[0]], unit="us"),
            "count": np.array([len(v)], dtype=np.int64),
            "p50": _r6away(p50),
            "p95": _r6away(p95),
            "p99": _r6away(p99),
        }
    )


def q_percentile_rollup_1h(sf_dir: str):
    """The latency-percentile tier every telemetry engine serves: exact
    p50/p95/p99 of `value` per (event_type, hour). Exact quantiles need
    each (series, hour) group whole in one kernel — state bounded by one
    hour of one series (the same contract as the quantiles operator, but
    with a much tighter bound); one bucketed exchange on the composite
    key. The fixed-memory unbounded-group path is quantiles_tdigest.
    """
    ev = _events(sf_dir, ["ts", "event_type", "value"])

    def add_bucket_col(batch: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(batch["ts"])
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "bucket_us": (ts // HOUR_US) * HOUR_US,
                "value": batch["value"].astype(np.float64),
            }
        )

    return bucketed_map_groups(
        ev.map_batches(add_bucket_col, batch_format="pandas"),
        ["event_type", "bucket_us"],
        hourly_percentile_kernel,
    )


PERCENTILE_ROLLUP_1H_SQL = """
SELECT event_type,
       date_trunc('hour', ts) AS bucket_ts,
       COUNT(*) AS count,
       ROUND(quantile_cont(value, 0.50), 6) AS p50,
       ROUND(quantile_cont(value, 0.95), 6) AS p95,
       ROUND(quantile_cont(value, 0.99), 6) AS p99
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Apdex score per (event_type, day)
# ---------------------------------------------------------------------------


def apdex_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch combiner: satisfied/tolerating/total counts per
    (event_type, day) with the standard T / 4T thresholds on value."""
    ts = _ts_us(batch["ts"])
    v = batch["value"].to_numpy(np.float64)
    df = pd.DataFrame(
        {
            "event_type": batch["event_type"],
            "day_us": (ts // DAY_US) * DAY_US,
            "sat": (v <= 100.0).astype(np.int64),
            "tol": ((v > 100.0) & (v <= 400.0)).astype(np.int64),
            "n": np.ones(len(v), dtype=np.int64),
        }
    )
    return (
        df.groupby(["event_type", "day_us"], sort=False)
        .agg(sat=("sat", "sum"), tol=("tol", "sum"), n=("n", "sum"))
        .reset_index()
    )


def q_apdex(sf_dir: str):
    """Apdex (application performance index) per (event_type, day):
    (satisfied + tolerating/2) / n with the standard T=100 / 4T=400
    thresholds on `value` — the normalized satisfaction score SRE
    dashboards track beside percentiles. Pure integer partial+final
    counts (threshold comparisons on the raw parquet doubles are
    identical on both engines); the single float division happens once at
    the end, op-for-op shared with the SQL.
    """
    ev = _events(sf_dir, ["ts", "event_type", "value"])

    agg = hash_bucket_aggregate(
        ev.map_batches(apdex_partial, batch_format="pandas"),
        ["event_type", "day_us"],
        [("sat", "sum"), ("tol", "sum"), ("n", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        sat = batch["sat_sum"].to_numpy(np.int64)
        tol = batch["tol_sum"].to_numpy(np.int64)
        n = batch["n_sum"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "day": pd.to_datetime(batch["day_us"], unit="us"),
                "n_satisfied": sat,
                "n_tolerating": tol,
                "n_events": n,
                "apdex": _r6away(
                    (sat.astype(np.float64) * 2.0 + tol.astype(np.float64))
                    / (n.astype(np.float64) * 2.0)
                ),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


APDEX_SQL = """
SELECT event_type,
       date_trunc('day', ts) AS day,
       CAST(SUM(CASE WHEN value <= 100.0 THEN 1 ELSE 0 END) AS BIGINT) AS n_satisfied,
       CAST(SUM(CASE WHEN value > 100.0 AND value <= 400.0 THEN 1 ELSE 0 END)
            AS BIGINT) AS n_tolerating,
       COUNT(*) AS n_events,
       ROUND((CAST(SUM(CASE WHEN value <= 100.0 THEN 1 ELSE 0 END) AS DOUBLE) * 2.0
              + CAST(SUM(CASE WHEN value > 100.0 AND value <= 400.0 THEN 1 ELSE 0 END)
                     AS DOUBLE))
             / (CAST(COUNT(*) AS DOUBLE) * 2.0), 6) AS apdex
FROM events GROUP BY 1, 2
"""


QUERIES4["percentile_rollup_1h"] = q_percentile_rollup_1h
QUERIES4["apdex"] = q_apdex
ORACLES4["percentile_rollup_1h"] = PERCENTILE_ROLLUP_1H_SQL
ORACLES4["apdex"] = APDEX_SQL


# ---------------------------------------------------------------------------
# Winnowing document fingerprints (rolling k-gram hash + window minima)
# ---------------------------------------------------------------------------

WINNOW_K = 8
WINNOW_W = 16
WINNOW_PREFIX = 256


def winnow_doc(text: str):
    """Winnowing (Schleimer/Wilkerson/Aiken, SIGMOD'03) over a bounded
    256-char probe prefix: hash every 8-char gram, keep the minimum of
    each sliding 16-gram window. Returns (n_windows, n_fingerprints,
    min_fp) or None when the prefix is too short for one full window.
    Gram hash = DuckDB md5_number_upper reinterpreted signed, so the SQL
    oracle selects the identical minima."""
    from .queries2 import _md5_u64

    p = (text or "")[:WINNOW_PREFIX]
    n_grams = len(p) - WINNOW_K + 1
    if n_grams < WINNOW_W:
        return None
    h = _md5_u64([p[i : i + WINNOW_K] for i in range(n_grams)]).view(np.int64)
    wm = np.lib.stride_tricks.sliding_window_view(h, WINNOW_W).min(axis=1)
    return len(wm), int(np.unique(wm).size), int(wm.min())


def q_winnow_fingerprints(sf_dir: str):
    """Rolling-hash document fingerprinting by winnowing: per document,
    the count of sliding windows, the number of DISTINCT window-minimum
    fingerprints selected, and the smallest fingerprint — the
    plagiarism/near-dup fingerprint scheme whose guarantee (any shared
    substring of length w+k-1 yields a shared fingerprint) complements
    minhash's whole-document similarity. Per-document bounded state,
    embarrassingly parallel, integer-exact outputs.
    """

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        ids, nw, nf, mf = [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            r = winnow_doc(text)
            if r is None:
                continue
            ids.append(int(doc_id))
            nw.append(r[0])
            nf.append(r[1])
            mf.append(r[2])
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "n_windows": np.asarray(nw, dtype=np.int64),
                "n_fingerprints": np.asarray(nf, dtype=np.int64),
                "min_fp": np.asarray(mf, dtype=np.int64),
            }
        )

    return _documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas"
    )


WINNOW_FINGERPRINTS_SQL = f"""
WITH p AS (
  SELECT doc_id, substr(COALESCE(text, ''), 1, {WINNOW_PREFIX}) AS pre
  FROM documents
),
g AS (
  SELECT doc_id,
         unnest(range(1, len(pre) - {WINNOW_K - 1} + 1)) AS i,
         pre
  FROM p
  WHERE len(pre) >= {WINNOW_K}
),
h AS (
  SELECT doc_id, i,
         CAST(CASE WHEN md5_number_upper(substr(pre, CAST(i AS INTEGER), {WINNOW_K}))
                        >= 9223372036854775808
                   THEN md5_number_upper(substr(pre, CAST(i AS INTEGER), {WINNOW_K}))::HUGEINT
                        - 18446744073709551616::HUGEINT
                   ELSE md5_number_upper(substr(pre, CAST(i AS INTEGER), {WINNOW_K}))::HUGEINT
              END AS BIGINT) AS hv
  FROM g
),
w AS (
  SELECT doc_id, i,
         MIN(hv) OVER (PARTITION BY doc_id ORDER BY i
                       ROWS BETWEEN {WINNOW_W - 1} PRECEDING AND CURRENT ROW) AS wm
  FROM h
)
SELECT doc_id,
       COUNT(*) AS n_windows,
       COUNT(DISTINCT wm) AS n_fingerprints,
       MIN(wm) AS min_fp
FROM w WHERE i >= {WINNOW_W}
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Rolling 24-bucket median of the hourly count series
# ---------------------------------------------------------------------------


def rolling_median_kernel(df: pd.DataFrame, window: int = 24) -> pd.DataFrame:
    """Whole-series kernel: sliding-window median (np.quantile linear ==
    DuckDB quantile_cont bitwise) over the observed hourly buckets in
    bucket order; full windows only."""
    df = df.sort_values("bucket_ts", kind="mergesort")
    c = df["count"].to_numpy(np.float64)
    if len(c) < window:
        return pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "bucket_ts": pd.Series(dtype="datetime64[us]"),
             "count": pd.Series(dtype=np.int64),
             "rolling_median": pd.Series(dtype=np.float64)}
        )
    med = np.quantile(
        np.lib.stride_tricks.sliding_window_view(c, window), 0.5, axis=1
    )
    return pd.DataFrame(
        {
            "event_type": df["event_type"].iloc[window - 1 :].to_numpy(),
            "bucket_ts": df["bucket_ts"].iloc[window - 1 :].to_numpy(),
            "count": df["count"].iloc[window - 1 :].to_numpy(np.int64),
            "rolling_median": med,
        }
    )


def q_rolling_median_24h(sf_dir: str):
    """Rolling 24-bucket median of each event_type's hourly count series
    — the robust trend line dashboards draw where a rolling mean would
    chase spikes (the robust sibling of bollinger_bands' mean+-sigma).
    Same tier-series kernel contract: counts come from the distributed
    partial+final rollup; the sliding median runs per series inside one
    bucketed exchange; medians of integer counts are exact doubles (x.0
    or x.5), so no rounding is needed anywhere.
    """
    t = event_tier(sf_dir, "1h").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], rolling_median_kernel)


ROLLING_MEDIAN_24H_SQL = """
WITH c AS (
  SELECT event_type, date_trunc('hour', ts) AS bucket_ts, COUNT(*) AS count
  FROM events GROUP BY 1, 2
),
w AS (
  SELECT event_type, bucket_ts, count,
         quantile_cont(count, 0.5) OVER (PARTITION BY event_type ORDER BY bucket_ts
                                         ROWS BETWEEN 23 PRECEDING AND CURRENT ROW)
           AS rolling_median,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY bucket_ts) AS rn
  FROM c
)
SELECT event_type, bucket_ts, count, rolling_median
FROM w WHERE rn >= 24
"""


# ---------------------------------------------------------------------------
# Partition statistics (per-partition pruning metadata)
# ---------------------------------------------------------------------------


def partition_stats_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-partition kernel for ONE (event_type, day): the min/max/
    count/distinct stats a lakehouse keeps per data file for pruning."""
    ts = df["ts_us"].to_numpy()
    v = df["value"].to_numpy(np.float64)
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "day": pd.to_datetime([df["day_us"].iloc[0]], unit="us"),
            "n_rows": np.array([len(df)], dtype=np.int64),
            "n_users": np.array(
                [df["user_id"].nunique()], dtype=np.int64
            ),
            "min_ts": pd.to_datetime([int(ts.min())], unit="us"),
            "max_ts": pd.to_datetime([int(ts.max())], unit="us"),
            "min_value": np.array([v.min()], dtype=np.float64),
            "max_value": np.array([v.max()], dtype=np.float64),
            "cents_sum": np.array([int(_cents(df["value"]).sum())], dtype=np.int64),
        }
    )


def q_partition_stats(sf_dir: str):
    """Per-(event_type, day) partition statistics — row count, distinct
    users, timestamp bounds, value bounds, exact centivalue sum: the
    metadata a lakehouse writes per partition/file so readers can prune
    (the distributed analogue of parquet row-group stats, kept as a
    queryable table). One bucketed exchange on the partition key;
    per-kernel state bounded by one partition's rows; all outputs exact
    (raw-double extremes, integer counts/sums).
    """
    ev = _events(sf_dir, ["ts", "user_id", "event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(batch["ts"])
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "day_us": (ts // DAY_US) * DAY_US,
                "ts_us": ts,
                "user_id": batch["user_id"].astype(np.int64),
                "value": batch["value"].astype(np.float64),
            }
        )

    return bucketed_map_groups(
        ev.map_batches(prep, batch_format="pandas"),
        ["event_type", "day_us"],
        partition_stats_kernel,
    )


PARTITION_STATS_SQL = """
SELECT event_type,
       date_trunc('day', ts) AS day,
       COUNT(*) AS n_rows,
       COUNT(DISTINCT user_id) AS n_users,
       MIN(ts) AS min_ts,
       MAX(ts) AS max_ts,
       MIN(value) AS min_value,
       MAX(value) AS max_value,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS cents_sum
FROM events GROUP BY 1, 2
"""


QUERIES4["winnow_fingerprints"] = q_winnow_fingerprints
QUERIES4["rolling_median_24h"] = q_rolling_median_24h
QUERIES4["partition_stats"] = q_partition_stats
ORACLES4["winnow_fingerprints"] = WINNOW_FINGERPRINTS_SQL
ORACLES4["rolling_median_24h"] = ROLLING_MEDIAN_24H_SQL
ORACLES4["partition_stats"] = PARTITION_STATS_SQL


# ---------------------------------------------------------------------------
# Hour-of-day seasonal profile (dense grid phase means)
# ---------------------------------------------------------------------------


def hourly_profile_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-series kernel: zero-filled dense hourly grid (the exact
    densification for count series), then per hour-of-day phase: slot
    count, exact integer event sum, and their ratio."""
    from ..kernels.seasonal import dense_counts

    df = df.sort_values("bucket_ts", kind="mergesort")
    grid, dense = dense_counts(
        _ts_us(df["bucket_ts"]), df["count"].to_numpy(np.int64), HOUR_US
    )
    phase = ((grid // HOUR_US) % 24).astype(np.int64)
    n = np.bincount(phase, minlength=24).astype(np.int64)
    s = np.bincount(phase, weights=dense.astype(np.float64)).astype(np.int64)
    keep = n > 0
    hours = np.arange(24, dtype=np.int64)[keep]
    return pd.DataFrame(
        {
            "event_type": np.repeat(df["event_type"].iloc[0], hours.size),
            "hour_of_day": hours,
            "n_hours": n[keep],
            "sum_count": s[keep],
            "mean_count": _r6away(
                s[keep].astype(np.float64) / n[keep].astype(np.float64)
            ),
        }
    )


def q_hourly_profile(sf_dir: str):
    """Hour-of-day seasonality profile per event_type: over the dense
    (zero-filled) hourly grid, the number of grid slots at each hour of
    day, the exact event sum, and the mean hourly count — the "typical
    day" curve capacity planning reads, and the profile a seasonal-naive
    forecaster serves. Zero-filling matters: skipping silent hours would
    bias the phase means upward. Same tier-series kernel contract as
    acf/seasonal_decompose (one retention window of buckets per key).
    """
    t = event_tier(sf_dir, "1h").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], hourly_profile_kernel)


HOURLY_PROFILE_SQL = """
WITH c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(b) AS lo, MAX(b) AS hi FROM c GROUP BY 1),
g AS (
  SELECT bo.event_type,
         UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 HOUR)) AS b
  FROM bounds bo
),
d AS (
  SELECT g.event_type, g.b, COALESCE(c.x, 0) AS x
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
)
SELECT event_type,
       CAST(hour(b) AS BIGINT) AS hour_of_day,
       COUNT(*) AS n_hours,
       CAST(SUM(x) AS BIGINT) AS sum_count,
       ROUND(CAST(SUM(x) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6) AS mean_count
FROM d GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Exponentially weighted mean + variance (two-state recursion)
# ---------------------------------------------------------------------------


def ewm_var_kernel(df: pd.DataFrame, alpha: float = 0.2) -> pd.DataFrame:
    """Whole-series kernel: EW mean/variance recursion over the hourly
    count series in bucket order. m_0 = x_0, v_0 = 0; then
    m_t = m + a*d, v_t = (1-a)*(v + a*d*d) with d = x - m — the exact
    float expressions the recursive-CTE oracle replays."""
    df = df.sort_values("bucket_ts", kind="mergesort")
    x = df["count"].to_numpy(np.float64)
    m = np.empty_like(x)
    v = np.empty_like(x)
    mm = x[0]
    vv = 0.0
    m[0] = mm
    v[0] = vv
    for i in range(1, x.size):
        d = x[i] - mm
        mm = mm + alpha * d
        vv = (1.0 - alpha) * (vv + alpha * d * d)
        m[i] = mm
        v[i] = vv
    return pd.DataFrame(
        {
            "event_type": df["event_type"].to_numpy(),
            "bucket_ts": df["bucket_ts"].to_numpy(),
            "ewm_mean": _r6away(m),
            "ewm_var": _r6away(v),
        }
    )


def q_ewm_var(sf_dir: str):
    """Exponentially weighted mean AND variance of each event_type's
    hourly count series — the adaptive baseline + adaptive band that
    streaming anomaly detectors keep per series (EWMA control chart with
    a forgetting variance, two doubles of state per key). The recursion
    runs per series inside one bucketed exchange over TIER-resolution
    rows; the recursive-CTE oracle carries (mean, var) through the
    identical float64 expressions, so values match bitwise into the
    shared ROUND.
    """
    t = event_tier(sf_dir, "1h").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], ewm_var_kernel)


EWM_VAR_SQL = """
WITH RECURSIVE c AS MATERIALIZED (
  SELECT event_type, b, x,
         row_number() OVER (PARTITION BY event_type ORDER BY b) - 1 AS idx
  FROM (SELECT event_type, date_trunc('hour', ts) AS b,
               CAST(COUNT(*) AS DOUBLE) AS x
        FROM events GROUP BY 1, 2)
),
e AS (
  SELECT event_type, idx, b, x, x AS m, CAST(0.0 AS DOUBLE) AS v FROM c WHERE idx = 0
  UNION ALL
  SELECT c.event_type, c.idx, c.b, c.x,
         e.m + 0.2*(c.x - e.m),
         0.8*(e.v + 0.2*(c.x - e.m)*(c.x - e.m))
  FROM e JOIN c ON c.event_type = e.event_type AND c.idx = e.idx + 1
)
SELECT event_type, b AS bucket_ts,
       ROUND(m, 6) AS ewm_mean,
       ROUND(v, 6) AS ewm_var
FROM e
"""


QUERIES4["hourly_profile"] = q_hourly_profile
QUERIES4["ewm_var"] = q_ewm_var
ORACLES4["hourly_profile"] = HOURLY_PROFILE_SQL
ORACLES4["ewm_var"] = EWM_VAR_SQL


# ---------------------------------------------------------------------------
# Corpus mix report (per-source composition + duplication audit)
# ---------------------------------------------------------------------------


def q_corpus_mix_report(sf_dir: str):
    """The per-source composition table a training-mix owner reads before
    weighting sources: document count, exact char and whitespace-token
    totals, how many of the source's documents are exact duplicates of
    ANYTHING in the corpus (cross-source aware), and mean chars/doc.
    Plan: per-doc features in one batch pass; corpus-wide fingerprint
    counts via the partial+final combiner; counts join BACK to docs
    through a co-partitioned exchange on the fingerprint (never a driver
    lookup); per-source reduction is integer partial+final. All sums are
    int64 — exact at any block layout.
    """
    from .queries2 import _md5_u64

    def feat(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        return pd.DataFrame(
            {
                "source": batch["source"],
                "fp": _md5_u64(text.tolist()).view(np.int64),
                "chars": text.str.len().astype(np.int64),
                "tokens": text.str.split().str.len().fillna(0).astype(np.int64),
            }
        )

    docs = _documents(sf_dir, ["source", "text"]).map_batches(
        feat, batch_format="pandas"
    )

    def cnt_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["fp"].value_counts()
        return pd.DataFrame({"fp": vc.index.astype(np.int64),
                             "c": vc.to_numpy().astype(np.int64)})

    counts = hash_bucket_aggregate(
        docs.map_batches(cnt_partial, batch_format="pandas"), ["fp"], [("c", "sum")]
    ).map_batches(
        lambda b: pd.DataFrame({"fp": b["fp"].astype(np.int64),
                                "c": b["c_sum"].astype(np.int64)}),
        batch_format="pandas",
    )

    joined = bucketed_join(docs, counts, on=["fp"], how="inner")

    def src_partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = pd.DataFrame(
            {
                "source": batch["source"],
                "n": np.ones(len(batch), dtype=np.int64),
                "chars": batch["chars"].astype(np.int64),
                "tokens": batch["tokens"].astype(np.int64),
                "dup": (batch["c"].astype(np.int64) > 1).astype(np.int64),
            }
        )
        return (
            df.groupby("source", sort=False)
            .agg(n=("n", "sum"), chars=("chars", "sum"),
                 tokens=("tokens", "sum"), dup=("dup", "sum"))
            .reset_index()
        )

    agg = hash_bucket_aggregate(
        joined.map_batches(src_partial, batch_format="pandas"),
        ["source"],
        [("n", "sum"), ("chars", "sum"), ("tokens", "sum"), ("dup", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_sum"].to_numpy(np.int64)
        chars = batch["chars_sum"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "source": batch["source"],
                "n_docs": n,
                "total_chars": chars,
                "total_tokens": batch["tokens_sum"].astype(np.int64),
                "n_dup_docs": batch["dup_sum"].astype(np.int64),
                "mean_chars": _r6away(chars.astype(np.float64) / n.astype(np.float64)),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


CORPUS_MIX_REPORT_SQL = """
WITH f AS (
  SELECT source,
         md5_number_upper(COALESCE(text, '')) AS fp,
         length(COALESCE(text, '')) AS chars,
         len(list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'),
                         x -> x <> '')) AS tokens
  FROM documents
),
c AS (SELECT fp, COUNT(*) AS n_copies FROM f GROUP BY 1)
SELECT f.source,
       COUNT(*) AS n_docs,
       CAST(SUM(f.chars) AS BIGINT) AS total_chars,
       CAST(SUM(f.tokens) AS BIGINT) AS total_tokens,
       CAST(SUM(CASE WHEN c.n_copies > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_docs,
       ROUND(CAST(SUM(f.chars) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6) AS mean_chars
FROM f JOIN c USING (fp)
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Normalization-aware dedup (case/whitespace-insensitive variants)
# ---------------------------------------------------------------------------


def norm_dedup_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for docs sharing one normalized fingerprint:
    representative min doc_id, copy count, distinct RAW variants."""
    return pd.DataFrame(
        {
            "doc_id": np.array([int(df["doc_id"].min())], dtype=np.int64),
            "n_copies": np.array([len(df)], dtype=np.int64),
            "n_raw_variants": np.array([df["raw_fp"].nunique()], dtype=np.int64),
        }
    )


def q_norm_dedup(sf_dir: str):
    """Exact dedup AFTER text normalization (lowercase, collapse
    [ \\t\\n\\r]+ runs to one space, trim): one row per distinct
    normalized text with min-doc_id representative, copy count, and the
    number of distinct RAW texts merged — the measure of duplicates that
    only case/whitespace noise was hiding (Common Crawl's most common
    near-dup class). Same single-exchange shape as exact_dedup; only
    64-bit fingerprints cross the shuffle.
    """
    from .queries2 import _md5_u64

    def feat(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        norm = (
            text.str.lower()
            .str.replace(r"[ \t\n\r]+", " ", regex=True)
            .str.strip(" ")
        )
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "raw_fp": _md5_u64(text.tolist()).view(np.int64),
                "norm_fp": _md5_u64(norm.tolist()).view(np.int64),
            }
        )

    docs = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        feat, batch_format="pandas"
    )
    return bucketed_map_groups(docs, ["norm_fp"], norm_dedup_kernel)


NORM_DEDUP_SQL = """
WITH f AS (
  SELECT doc_id,
         md5_number_upper(COALESCE(text, '')) AS raw_fp,
         md5_number_upper(trim(regexp_replace(lower(COALESCE(text, '')),
                                              '[ \t\n\r]+', ' ', 'g'), ' ')) AS norm_fp
  FROM documents
)
SELECT MIN(doc_id) AS doc_id,
       COUNT(*) AS n_copies,
       COUNT(DISTINCT raw_fp) AS n_raw_variants
FROM f GROUP BY norm_fp
"""


QUERIES4["corpus_mix_report"] = q_corpus_mix_report
QUERIES4["norm_dedup"] = q_norm_dedup
ORACLES4["corpus_mix_report"] = CORPUS_MIX_REPORT_SQL
ORACLES4["norm_dedup"] = NORM_DEDUP_SQL


# ---------------------------------------------------------------------------
# Quality by language (exact aggregation of a derived float feature)
# ---------------------------------------------------------------------------


def q_quality_by_language(sf_dir: str):
    """Mean document quality score per language — the table a corpus
    curator reads to set per-language quality thresholds. Demonstrates
    the house rule for aggregating DERIVED FLOATS exactly: the per-doc
    score is fixed to 6 decimals (the same rounding the verified
    quality_scores operator emits), converted to exact int64 micro-units,
    summed associatively across the shuffle, and divided once at the end
    — float sums of raw doubles would be block-layout-dependent; integer
    sums are not. The oracle composes the registry's quality_scores SQL,
    so both sides share one definition of the score.
    """
    from ..stages.text import QualityScorer, pool_size

    class Score:
        def __init__(self):
            self.q = QualityScorer()

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            qdf = self.q(batch)
            micro = np.rint(
                np.round(qdf["quality_score"].to_numpy(np.float64), 6) * 1e6
            ).astype(np.int64)
            df = pd.DataFrame(
                {"lang": batch["lang"], "micro": micro,
                 "n": np.ones(len(batch), dtype=np.int64)}
            )
            return (
                df.groupby("lang", sort=False)
                .agg(micro=("micro", "sum"), n=("n", "sum"))
                .reset_index()
            )

    docs = _documents(sf_dir, ["doc_id", "lang", "text"])
    agg = hash_bucket_aggregate(
        docs.map_batches(
            Score, batch_format="pandas", concurrency=pool_size(4), num_cpus=1
        ),
        ["lang"],
        [("micro", "sum"), ("n", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_sum"].to_numpy(np.int64)
        micro = batch["micro_sum"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "lang": batch["lang"],
                "n_docs": n,
                "mean_quality": _r6away(
                    micro.astype(np.float64) / 1e6 / n.astype(np.float64)
                ),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


# composed at registry-build time from the verified quality_scores oracle
QUALITY_BY_LANGUAGE_SQL_TEMPLATE = """
WITH q AS (SELECT doc_id, quality_score FROM ({quality}))
SELECT d.lang,
       COUNT(*) AS n_docs,
       ROUND(CAST(SUM(CAST(ROUND(q.quality_score * 1000000) AS BIGINT)) AS DOUBLE)
             / 1000000 / CAST(COUNT(*) AS DOUBLE), 6) AS mean_quality
FROM q JOIN documents d USING (doc_id)
GROUP BY 1
"""


QUERIES4["quality_by_language"] = q_quality_by_language


# ---------------------------------------------------------------------------
# New vs returning daily actives
# ---------------------------------------------------------------------------


def q_new_vs_returning(sf_dir: str):
    """Daily active users split into NEW (first-ever activity that day)
    vs RETURNING — the growth-accounting table product analytics starts
    from. Plan: per-user first day is a min-reduction (per-batch combiner
    -> one bucketed exchange on user_id); distinct (user, day) actives
    dedup through the same exchange; the flag compare and per-day counts
    are integer partial+final. No driver-side state.
    """
    ev = _events(sf_dir, ["ts", "user_id"])

    def days(batch: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(batch["ts"])
        return (
            pd.DataFrame(
                {"user_id": batch["user_id"].astype(np.int64),
                 "day_us": (ts // DAY_US) * DAY_US}
            )
            .drop_duplicates()
        )

    pairs = ev.map_batches(days, batch_format="pandas")

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        first = int(df["day_us"].min())
        return pd.DataFrame(
            {
                "day_us": df["day_us"].astype(np.int64),
                "is_new": (df["day_us"].astype(np.int64) == first).astype(np.int64),
            }
        )

    flagged = bucketed_map_groups(pairs, ["user_id"], per_user)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = (
            batch.groupby("day_us", sort=False)
            .agg(new=("is_new", "sum"), n=("is_new", "size"))
            .reset_index()
        )
        g["new"] = g["new"].astype(np.int64)
        g["n"] = g["n"].astype(np.int64)
        return g

    agg = hash_bucket_aggregate(
        flagged.map_batches(partial, batch_format="pandas"),
        ["day_us"],
        [("new", "sum"), ("n", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_sum"].to_numpy(np.int64)
        new = batch["new_sum"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "day": pd.to_datetime(batch["day_us"], unit="us"),
                "new_users": new,
                "returning_users": n - new,
                "active_users": n,
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


NEW_VS_RETURNING_SQL = """
WITH a AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
),
f AS (SELECT user_id, MIN(day) AS first_day FROM a GROUP BY 1)
SELECT a.day,
       CAST(SUM(CASE WHEN a.day = f.first_day THEN 1 ELSE 0 END) AS BIGINT)
         AS new_users,
       CAST(SUM(CASE WHEN a.day <> f.first_day THEN 1 ELSE 0 END) AS BIGINT)
         AS returning_users,
       COUNT(*) AS active_users
FROM a JOIN f USING (user_id)
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Per-user activity histogram (power-user distribution)
# ---------------------------------------------------------------------------


def q_user_activity_histogram(sf_dir: str):
    """Distribution of per-user event counts in power-of-two bins — the
    "how skewed is my user base" histogram that sizes per-key state and
    flags hot keys before a shuffle. Per-user totals are an integer
    partial+final reduction; binning each total (bit_length - 1) and
    counting bins is a second tiny integer aggregate. The hot-key
    diagnostic for exactly the skew this engine's salting docs discuss.
    """
    ev = _events(sf_dir, ["user_id"])

    def cnt_partial(batch: pd.DataFrame) -> pd.DataFrame:
        vc = batch["user_id"].value_counts()
        return pd.DataFrame(
            {"user_id": vc.index.astype(np.int64),
             "c": vc.to_numpy().astype(np.int64)}
        )

    per_user = hash_bucket_aggregate(
        ev.map_batches(cnt_partial, batch_format="pandas"),
        ["user_id"],
        [("c", "sum")],
    )

    def bin_partial(batch: pd.DataFrame) -> pd.DataFrame:
        c = batch["c_sum"].to_numpy(np.int64)
        bins = np.floor(np.log2(c)).astype(np.int64)  # c >= 1 always
        g = pd.DataFrame({"bin": bins, "n": np.ones(c.size, dtype=np.int64),
                          "events": c})
        return (
            g.groupby("bin", sort=False)
            .agg(n=("n", "sum"), events=("events", "sum"))
            .reset_index()
        )

    agg = hash_bucket_aggregate(
        per_user.map_batches(bin_partial, batch_format="pandas"),
        ["bin"],
        [("n", "sum"), ("events", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch["bin"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "bin_lo": (2 ** b).astype(np.int64),
                "bin_hi": (2 ** (b + 1) - 1).astype(np.int64),
                "n_users": batch["n_sum"].astype(np.int64),
                "n_events": batch["events_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


USER_ACTIVITY_HISTOGRAM_SQL = """
WITH u AS (SELECT user_id, COUNT(*) AS c FROM events GROUP BY 1),
b AS (SELECT CAST(FLOOR(LOG2(c)) AS BIGINT) AS bin, c FROM u)
SELECT CAST(POWER(2, bin) AS BIGINT) AS bin_lo,
       CAST(POWER(2, bin + 1) - 1 AS BIGINT) AS bin_hi,
       COUNT(*) AS n_users,
       CAST(SUM(c) AS BIGINT) AS n_events
FROM b GROUP BY 1, 2
"""


QUERIES4["new_vs_returning"] = q_new_vs_returning
QUERIES4["user_activity_histogram"] = q_user_activity_histogram
ORACLES4["new_vs_returning"] = NEW_VS_RETURNING_SQL
ORACLES4["user_activity_histogram"] = USER_ACTIVITY_HISTOGRAM_SQL


# ---------------------------------------------------------------------------
# BM25 ranked search (fixed multi-term query over the corpus)
# ---------------------------------------------------------------------------

BM25_TERMS = ("query", "join", "sort")
BM25_K1 = 1.2
BM25_B = 0.75


def q_bm25_search(sf_dir: str, k: int = 20):
    """BM25-ranked retrieval for a fixed three-term query — the lexical
    search scoring every retrieval pipeline starts from. Plan: one batch
    pass extracts (doc length, per-term tf) with C-regex token-exact
    counts; the corpus constants (N, avg doclen, per-term df) reduce to
    FIVE integers through the standard combiner (driver state is O(1));
    the scoring pass is vectorized float64 with the BM25 expression tree
    transcribed op-for-op into the SQL (scalar idf uses math.log == ln
    bitwise); top-k is a deterministic sort on (rounded score DESC,
    doc_id). The tf table is materialized once (narrow int columns,
    object-store resident/spillable) so the corpus text streams exactly
    one pass.
    """
    import math
    import re

    pats = {
        t: rf"(?<!\S){re.escape(t)}(?!\S)" for t in BM25_TERMS
    }

    def feat(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        out = {
            "doc_id": batch["doc_id"].astype(np.int64),
            "dl": text.str.split().str.len().fillna(0).astype(np.int64),
        }
        for i, t in enumerate(BM25_TERMS):
            out[f"tf{i}"] = text.str.count(pats[t]).astype(np.int64)
        return pd.DataFrame(out)

    feats = (
        _documents(sf_dir, ["doc_id", "text"])
        .map_batches(feat, batch_format="pandas")
        .materialize()
    )

    def scal_partial(batch: pd.DataFrame) -> pd.DataFrame:
        row = {"n": np.int64(len(batch)), "sum_dl": batch["dl"].sum()}
        for i in range(len(BM25_TERMS)):
            row[f"df{i}"] = np.int64((batch[f"tf{i}"] > 0).sum())
        return pd.DataFrame([row])

    sc = feats.map_batches(scal_partial, batch_format="pandas").to_pandas().sum()
    n_docs = int(sc["n"])
    avgdl = float(int(sc["sum_dl"])) / float(n_docs)
    idf = [
        math.log((n_docs - int(sc[f"df{i}"]) + 0.5) / (int(sc[f"df{i}"]) + 0.5) + 1.0)
        for i in range(len(BM25_TERMS))
    ]

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        dl = batch["dl"].to_numpy(np.float64)
        ratio = dl / avgdl
        total = np.zeros(len(batch))
        for i in range(len(BM25_TERMS)):
            tf = batch[f"tf{i}"].to_numpy(np.float64)
            denom = tf + BM25_K1 * ((1.0 - BM25_B) + BM25_B * ratio)
            total = total + (idf[i] * (tf * (BM25_K1 + 1.0))) / denom
        out = pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "dl": batch["dl"].astype(np.int64),
                "tf_query": batch["tf0"].astype(np.int64),
                "tf_join": batch["tf1"].astype(np.int64),
                "tf_sort": batch["tf2"].astype(np.int64),
                "score": _r6away(total),
            }
        )
        return out[out["score"] > 0.0]

    return (
        feats.map_batches(score, batch_format="pandas")
        .sort(["score", "doc_id"], descending=[True, False])
        .limit(k)
    )


BM25_SEARCH_SQL = """
WITH f AS (
  SELECT doc_id,
         len(list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'),
                         x -> x <> '')) AS dl,
         len(list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'),
                         x -> x = 'query')) AS tf0,
         len(list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'),
                         x -> x = 'join')) AS tf1,
         len(list_filter(regexp_split_to_array(COALESCE(text, ''), '\\s+'),
                         x -> x = 'sort')) AS tf2
  FROM documents
),
c AS (
  SELECT COUNT(*) AS n,
         CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl,
         SUM(CASE WHEN tf0 > 0 THEN 1 ELSE 0 END) AS df0,
         SUM(CASE WHEN tf1 > 0 THEN 1 ELSE 0 END) AS df1,
         SUM(CASE WHEN tf2 > 0 THEN 1 ELSE 0 END) AS df2
  FROM f
),
s AS (
  SELECT f.doc_id, f.dl, f.tf0, f.tf1, f.tf2,
         ROUND(
           (ln((c.n - c.df0 + 0.5) / (c.df0 + 0.5) + 1.0)
              * (CAST(f.tf0 AS DOUBLE) * 2.2))
             / (CAST(f.tf0 AS DOUBLE)
                + 1.2 * ((1.0 - 0.75) + 0.75 * (CAST(f.dl AS DOUBLE) / c.avgdl)))
           + (ln((c.n - c.df1 + 0.5) / (c.df1 + 0.5) + 1.0)
              * (CAST(f.tf1 AS DOUBLE) * 2.2))
             / (CAST(f.tf1 AS DOUBLE)
                + 1.2 * ((1.0 - 0.75) + 0.75 * (CAST(f.dl AS DOUBLE) / c.avgdl)))
           + (ln((c.n - c.df2 + 0.5) / (c.df2 + 0.5) + 1.0)
              * (CAST(f.tf2 AS DOUBLE) * 2.2))
             / (CAST(f.tf2 AS DOUBLE)
                + 1.2 * ((1.0 - 0.75) + 0.75 * (CAST(f.dl AS DOUBLE) / c.avgdl))),
           6) AS score
  FROM f, c
)
SELECT doc_id, dl, tf0 AS tf_query, tf1 AS tf_join, tf2 AS tf_sort, score
FROM s WHERE score > 0.0
ORDER BY score DESC, doc_id
LIMIT 20
"""


QUERIES4["bm25_search"] = q_bm25_search
ORACLES4["bm25_search"] = BM25_SEARCH_SQL


# ---------------------------------------------------------------------------
# Per-label centroids over int8-quantized embeddings (exact aggregation)
# ---------------------------------------------------------------------------


def _quantize_rows(emb_col) -> np.ndarray:
    """Vectorized symmetric int8 quantization of a batch of embeddings
    (same math as embedding_quantize, matrix form): q = round_half_away(
    x/max|x| * 127) per row; all-zero rows -> zeros."""
    m = np.stack([np.asarray(e, dtype=np.float32) for e in emb_col])
    ma = np.abs(m).max(axis=1)
    safe = np.where(ma == 0, np.float32(1), ma)
    r = m.astype(np.float64) / safe.astype(np.float64)[:, None] * 127.0
    q = (np.sign(r) * np.floor(np.abs(r) + 0.5)).astype(np.int64)
    q[ma == 0] = 0
    return q


def q_label_centroids(sf_dir: str):
    """Per-label centroid of the int8-QUANTIZED embeddings, long format
    (label, dim, n_vecs, sum_q, mean_q) — the cluster-profile table a
    vector store keeps per partition. Quantizing FIRST makes the
    aggregation exact: float32 component sums are block-layout-dependent,
    int8 component sums are not (the house integer-sum rule applied to
    vectors). Per-batch matrix partials: each batch collapses to one
    64-int row per label, so the shuffle moves (labels x dims) integers,
    never vectors.
    """
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        q = _quantize_rows(batch["embedding"])
        labels = batch["label"].to_numpy(np.int64)
        rows = []
        for lab in np.unique(labels):
            sel = q[labels == lab]
            sums = sel.sum(axis=0)
            rows.append(
                pd.DataFrame(
                    {
                        "label": np.full(q.shape[1], lab, dtype=np.int64),
                        "dim": np.arange(q.shape[1], dtype=np.int64),
                        "n": np.full(q.shape[1], sel.shape[0], dtype=np.int64),
                        "sum_q": sums,
                    }
                )
            )
        return pd.concat(rows, ignore_index=True)

    agg = hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        ["label", "dim"],
        [("n", "sum"), ("sum_q", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        n = batch["n_sum"].to_numpy(np.int64)
        s = batch["sum_q_sum"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "label": batch["label"].astype(np.int64),
                "dim": batch["dim"].astype(np.int64),
                "n_vecs": n,
                "sum_q": s,
                "mean_q": _r6away(s.astype(np.float64) / n.astype(np.float64)),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


LABEL_CENTROIDS_SQL = """
WITH m AS (
  SELECT label, embedding,
         list_max(list_transform(embedding, x -> abs(x))) AS ma
  FROM embeddings
),
e AS (
  SELECT label,
         unnest(range(0, len(embedding))) AS dim,
         unnest(list_transform(embedding,
           x -> CASE WHEN ma = 0 THEN 0
                     ELSE CAST(ROUND(CAST(x AS DOUBLE) / CAST(ma AS DOUBLE) * 127)
                               AS BIGINT) END)) AS q
  FROM m
)
SELECT CAST(label AS BIGINT) AS label,
       CAST(dim AS BIGINT) AS dim,
       COUNT(*) AS n_vecs,
       CAST(SUM(q) AS BIGINT) AS sum_q,
       ROUND(CAST(SUM(q) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6) AS mean_q
FROM e GROUP BY 1, 2
"""


QUERIES4["label_centroids"] = q_label_centroids
ORACLES4["label_centroids"] = LABEL_CENTROIDS_SQL


# ---------------------------------------------------------------------------
# Time to conversion (first view -> first subsequent purchase)
# ---------------------------------------------------------------------------


def time_to_conversion_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE user: first view, first purchase
    strictly after it, exact microsecond latency; empty if either leg is
    missing."""
    ts = _ts_us(df["ts"])
    et = df["event_type"].to_numpy()
    views = ts[et == "view"]
    if views.size == 0:
        return _TTC_EMPTY.copy()
    fv = int(views.min())
    purch = ts[(et == "purchase") & (ts > fv)]
    if purch.size == 0:
        return _TTC_EMPTY.copy()
    fp = int(purch.min())
    return pd.DataFrame(
        {
            "user_id": np.array([int(df["user_id"].iloc[0])], dtype=np.int64),
            "first_view": pd.to_datetime([fv], unit="us"),
            "first_purchase": pd.to_datetime([fp], unit="us"),
            "latency_us": np.array([fp - fv], dtype=np.int64),
        }
    )


_TTC_EMPTY = pd.DataFrame(
    {
        "user_id": pd.Series(dtype=np.int64),
        "first_view": pd.Series(dtype="datetime64[us]"),
        "first_purchase": pd.Series(dtype="datetime64[us]"),
        "latency_us": pd.Series(dtype=np.int64),
    }
)


def q_time_to_conversion(sf_dir: str):
    """Conversion latency per user: the first view, the first purchase
    STRICTLY AFTER it, and the exact microsecond gap — the
    time-to-convert distribution behind funnel_conversion's counts. One
    bucketed exchange on user_id; per-kernel state bounded by one user's
    events; integer-exact output (users lacking either leg are omitted
    on both sides).
    """
    ev = _events(sf_dir, ["ts", "user_id", "event_type"])
    return bucketed_map_groups(ev, ["user_id"], time_to_conversion_kernel)


TIME_TO_CONVERSION_SQL = """
WITH v AS (
  SELECT user_id, MIN(ts) AS first_view FROM events
  WHERE event_type = 'view' GROUP BY 1
),
p AS (
  SELECT e.user_id, MIN(e.ts) AS first_purchase
  FROM events e JOIN v USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts > v.first_view
  GROUP BY 1
)
SELECT v.user_id, v.first_view, p.first_purchase,
       epoch_us(p.first_purchase) - epoch_us(v.first_view) AS latency_us
FROM v JOIN p USING (user_id)
"""


QUERIES4["time_to_conversion"] = q_time_to_conversion
ORACLES4["time_to_conversion"] = TIME_TO_CONVERSION_SQL


# ---------------------------------------------------------------------------
# Data-validation batch: referential audit, duplicate events, money audit
# ---------------------------------------------------------------------------


def q_referential_audit(sf_dir: str):
    """Cross-table referential-integrity audit: orders with zero line
    items and line-item orderkeys that don't exist in orders — the
    foreign-key check every ingestion pipeline runs before joining.
    Both tables project to tagged key rows with per-batch dedup (the
    combiner), meet in ONE bucketed exchange keyed on the orderkey, and
    the per-bucket kernel reduces straight to the three counts — a
    single shuffle of deduped int64 keys, no driver-side state.
    """
    import ray.data as rd

    def o_tag(b: pd.DataFrame) -> pd.DataFrame:
        k = b["o_orderkey"].drop_duplicates().astype(np.int64)
        return pd.DataFrame({"k": k, "side": np.zeros(len(k), dtype=np.int64)})

    def l_tag(b: pd.DataFrame) -> pd.DataFrame:
        k = b["l_orderkey"].drop_duplicates().astype(np.int64)
        return pd.DataFrame({"k": k, "side": np.ones(len(k), dtype=np.int64)})

    tagged = _orders(sf_dir, ["o_orderkey"]).map_batches(
        o_tag, batch_format="pandas"
    ).union(
        rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey"])
        .map_batches(l_tag, batch_format="pandas")
    )

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("k", sort=False)["side"].agg(["min", "max"])
        has_o = g["min"].to_numpy() == 0
        has_l = g["max"].to_numpy() == 1
        return pd.DataFrame(
            {
                "g": np.zeros(1, dtype=np.int64),
                "orders_no_items": np.array(
                    [int((has_o & ~has_l).sum())], dtype=np.int64
                ),
                "dangling_keys": np.array(
                    [int((~has_o & has_l).sum())], dtype=np.int64
                ),
                "matched": np.array([int((has_o & has_l).sum())], dtype=np.int64),
            }
        )

    agg = hash_bucket_aggregate(
        bucketed_map_groups(tagged, ["k"], None, whole_bucket_fn=per_bucket),
        ["g"],
        [("orders_no_items", "sum"), ("dangling_keys", "sum"), ("matched", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "orders_without_items": batch["orders_no_items_sum"].astype(np.int64),
                "dangling_orderkeys": batch["dangling_keys_sum"].astype(np.int64),
                "matched_orderkeys": batch["matched_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


REFERENTIAL_AUDIT_SQL = """
SELECT (SELECT COUNT(*) FROM orders o
        WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey))
         AS orders_without_items,
       (SELECT COUNT(DISTINCT l_orderkey) FROM lineitem l
        WHERE NOT EXISTS (SELECT 1 FROM orders o
                          WHERE o.o_orderkey = l.l_orderkey))
         AS dangling_orderkeys,
       (SELECT COUNT(*) FROM orders o
        WHERE EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey))
         AS matched_orderkeys
"""


def q_duplicate_events_rate(sf_dir: str):
    """Per-day event-duplication audit: events sharing an identical
    (user_id, ts, event_type) triple are ingestion duplicates; report
    each day's duplicated-event count and share. Triple counts take the
    per-batch-count combiner through one bucketed exchange; the per-day
    reduction is integer partial+final; the single share division is the
    shared float expression.
    """
    ev = _events(sf_dir, ["ts", "user_id", "event_type"])

    def triple_partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(batch["ts"])
        g = (
            pd.DataFrame(
                {"user_id": batch["user_id"].astype(np.int64),
                 "ts_us": ts, "event_type": batch["event_type"]}
            )
            .groupby(["user_id", "ts_us", "event_type"], sort=False)
            .size()
        )
        out = g.reset_index()
        out.columns = ["user_id", "ts_us", "event_type", "c"]
        out["c"] = out["c"].astype(np.int64)
        return out

    triples = hash_bucket_aggregate(
        ev.map_batches(triple_partial, batch_format="pandas"),
        ["user_id", "ts_us", "event_type"],
        [("c", "sum")],
    )

    def day_partial(batch: pd.DataFrame) -> pd.DataFrame:
        c = batch["c_sum"].to_numpy(np.int64)
        df = pd.DataFrame(
            {
                "day_us": (batch["ts_us"].to_numpy(np.int64) // DAY_US) * DAY_US,
                "dup": np.where(c > 1, c, 0),
                "n": c,
            }
        )
        return (
            df.groupby("day_us", sort=False)
            .agg(dup=("dup", "sum"), n=("n", "sum"))
            .reset_index()
        )

    agg = hash_bucket_aggregate(
        triples.map_batches(day_partial, batch_format="pandas"),
        ["day_us"],
        [("dup", "sum"), ("n", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        dup = batch["dup_sum"].to_numpy(np.int64)
        n = batch["n_sum"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "day": pd.to_datetime(batch["day_us"], unit="us"),
                "dup_events": dup,
                "n_events": n,
                "dup_share": _r6away(dup.astype(np.float64) / n.astype(np.float64)),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


DUPLICATE_EVENTS_RATE_SQL = """
WITH g AS (
  SELECT user_id, ts, event_type, COUNT(*) AS c
  FROM events GROUP BY 1, 2, 3
)
SELECT date_trunc('day', ts) AS day,
       CAST(SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS BIGINT) AS dup_events,
       CAST(SUM(c) AS BIGINT) AS n_events,
       ROUND(CAST(SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS DOUBLE)
             / CAST(SUM(c) AS DOUBLE), 6) AS dup_share
FROM g GROUP BY 1
"""


def q_money_rounding_audit(sf_dir: str):
    """Per-series float-money audit: how many `value`s are NOT exactly
    representable as cents (value*100 lands off-integer — the corruption
    the scaled-int64 money rule exists to contain). The flag is a pure
    float comparison both engines evaluate identically (exact-half cases
    flag on both sides under either rounding mode); counts are integer
    partial+final.
    """
    ev = _events(sf_dir, ["event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v100 = batch["value"].to_numpy(np.float64) * 100.0
        bad = (v100 != np.rint(v100)).astype(np.int64)
        df = pd.DataFrame(
            {"event_type": batch["event_type"], "bad": bad,
             "n": np.ones(len(batch), dtype=np.int64)}
        )
        return (
            df.groupby("event_type", sort=False)
            .agg(bad=("bad", "sum"), n=("n", "sum"))
            .reset_index()
        )

    agg = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type"],
        [("bad", "sum"), ("n", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        bad = batch["bad_sum"].to_numpy(np.int64)
        n = batch["n_sum"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "n_off_cents": bad,
                "n_events": n,
                "off_share": _r6away(bad.astype(np.float64) / n.astype(np.float64)),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


MONEY_ROUNDING_AUDIT_SQL = """
SELECT event_type,
       CAST(SUM(CASE WHEN value * 100 <> ROUND(value * 100) THEN 1 ELSE 0 END)
            AS BIGINT) AS n_off_cents,
       COUNT(*) AS n_events,
       ROUND(CAST(SUM(CASE WHEN value * 100 <> ROUND(value * 100)
                           THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS off_share
FROM events GROUP BY 1
"""


QUERIES4["referential_audit"] = q_referential_audit
QUERIES4["duplicate_events_rate"] = q_duplicate_events_rate
QUERIES4["money_rounding_audit"] = q_money_rounding_audit
ORACLES4["referential_audit"] = REFERENTIAL_AUDIT_SQL
ORACLES4["duplicate_events_rate"] = DUPLICATE_EVENTS_RATE_SQL
ORACLES4["money_rounding_audit"] = MONEY_ROUNDING_AUDIT_SQL


# ---------------------------------------------------------------------------
# Partitioned sink roundtrip (write_parquet -> read_parquet parity)
# ---------------------------------------------------------------------------


def q_tier_roundtrip(sf_dir: str):
    """The hourly tier written to hive-partitioned parquet (one directory
    per event_type — the resumable-output layout the flagship uses) and
    READ BACK, held to the same oracle as the in-memory rollup: proves
    the sink+source leg is lossless (doubles roundtrip bit-exact through
    parquet, partition keys restore with their dtypes). This is the
    query-level counterpart of the flagship's per-stage parquet contract.
    """
    import shutil
    import uuid

    import ray.data as rd

    from .queries import _events_v100, _finish_rollup

    out_dir = f"/tmp/signalsharp_ray/tier_roundtrip_{uuid.uuid4().hex[:8]}"
    shutil.rmtree(out_dir, ignore_errors=True)
    tier = _finish_rollup(
        rollup_tier(_events_v100(sf_dir), "1h", key_cols=["event_type"])
    )
    tier.write_parquet(out_dir, partition_cols=["event_type"])
    back = rd.read_parquet(out_dir)

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"].astype(str),
                "bucket_ts": batch["bucket_ts"].astype("datetime64[us]"),
                "cnt": batch["cnt"].astype(np.int64),
                "sum_value": batch["sum_value"].astype(np.float64),
                "min_value": batch["min_value"].astype(np.float64),
                "max_value": batch["max_value"].astype(np.float64),
                "mean_value": batch["mean_value"].astype(np.float64),
            }
        )

    return back.map_batches(fmt, batch_format="pandas")


QUERIES4["tier_roundtrip"] = q_tier_roundtrip


# ---------------------------------------------------------------------------
# Debounce (kept-state rate limiting per user)
# ---------------------------------------------------------------------------


def debounce_kernel(df: pd.DataFrame, gap_us: int = 60_000_000) -> pd.DataFrame:
    """Per-user greedy debounce: keep an event iff it is more than gap
    after the LAST KEPT event (ts, event_id order). The state depends on
    prior keep decisions, so this is a true sequential scan — the class
    of per-key streaming state (rate limiting, deduplication windows) a
    window function cannot express."""
    df = df.sort_values(["ts", "event_id"], kind="mergesort")
    ts = _ts_us(df["ts"])
    keep = np.zeros(len(ts), dtype=bool)
    last = None
    for i, t in enumerate(ts):
        if last is None or t - last > gap_us:
            keep[i] = True
            last = t
    return df.loc[keep, ["event_id", "user_id", "ts"]]


def q_debounce_events(sf_dir: str, gap_us: int = 60_000_000):
    """Debounced event stream: per user, keep an event only if more than
    60s have passed since the last KEPT event — the client-side
    rate-limit / notification-throttle semantics. Unlike session breaks
    (a window-function over gaps), the keep decision feeds back into the
    state, so the oracle is a recursive CTE carrying (last_kept) per
    user. One bucketed exchange on user_id; per-kernel state is one
    user's events; all comparisons exact int64 microseconds.
    """
    ev = _events(sf_dir, ["event_id", "ts", "user_id"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return debounce_kernel(df, gap_us)

    return bucketed_map_groups(ev, ["user_id"], fn)


DEBOUNCE_EVENTS_SQL = """
WITH RECURSIVE c AS MATERIALIZED (
  SELECT user_id, event_id, ts, epoch_us(ts) AS ts_us,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS idx
  FROM events
),
d AS (
  SELECT user_id, idx, event_id, ts, ts_us, TRUE AS kept, ts_us AS last_kept
  FROM c WHERE idx = 0
  UNION ALL
  SELECT c.user_id, c.idx, c.event_id, c.ts, c.ts_us,
         c.ts_us - d.last_kept > 60000000 AS kept,
         CASE WHEN c.ts_us - d.last_kept > 60000000
              THEN c.ts_us ELSE d.last_kept END
  FROM d JOIN c ON c.user_id = d.user_id AND c.idx = d.idx + 1
)
SELECT event_id, user_id, ts FROM d WHERE kept
"""


QUERIES4["debounce_events"] = q_debounce_events
ORACLES4["debounce_events"] = DEBOUNCE_EVENTS_SQL


# ---------------------------------------------------------------------------
# Longest consecutive-day streak per user (gaps and islands)
# ---------------------------------------------------------------------------


def longest_streak_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE user: longest run of consecutive active
    days (the gaps-and-islands reduction, vectorized)."""
    days = np.unique(df["day_us"].to_numpy(np.int64)) // DAY_US
    # island id = day - rank; runs of consecutive days share one id
    island = days - np.arange(days.size)
    _, counts = np.unique(island, return_counts=True)
    return pd.DataFrame(
        {
            "user_id": np.array([int(df["user_id"].iloc[0])], dtype=np.int64),
            "n_active_days": np.array([days.size], dtype=np.int64),
            "longest_streak": np.array([int(counts.max())], dtype=np.int64),
        }
    )


def q_longest_streak(sf_dir: str):
    """Longest consecutive-day activity streak per user — the
    gaps-and-islands pattern (day minus rank groups consecutive runs)
    every engagement model needs. Per-batch (user, day) dedup is the
    combiner; one bucketed exchange on user_id; the island reduction is
    vectorized integer arithmetic inside the kernel.
    """
    ev = _events(sf_dir, ["ts", "user_id"])

    def days(batch: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(batch["ts"])
        return pd.DataFrame(
            {"user_id": batch["user_id"].astype(np.int64),
             "day_us": (ts // DAY_US) * DAY_US}
        ).drop_duplicates()

    pairs = ev.map_batches(days, batch_format="pandas")
    return bucketed_map_groups(pairs, ["user_id"], longest_streak_kernel)


LONGEST_STREAK_SQL = """
WITH a AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(date_trunc('day', ts)) / 86400000000 AS BIGINT) AS d
  FROM events
),
i AS (
  SELECT user_id, d,
         d - (ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY d) - 1) AS island
  FROM a
),
runs AS (SELECT user_id, island, COUNT(*) AS run FROM i GROUP BY 1, 2)
SELECT user_id,
       CAST(SUM(run) AS BIGINT) AS n_active_days,
       CAST(MAX(run) AS BIGINT) AS longest_streak
FROM runs GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Difference variance ratio (stationarity diagnostic)
# ---------------------------------------------------------------------------


def diff_variance_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-series kernel: population variances of the level, first and
    second differences of the hourly count series, plus the d1/level
    variance ratio — all moment sums exact int64 (counts are integers),
    the float expressions shared with the SQL."""
    df = df.sort_values("bucket_ts", kind="mergesort")
    c = df["count"].to_numpy(np.int64)

    def pop_var(x: np.ndarray) -> float:
        n = x.size
        s = int(x.sum())
        ss = int((x * x).sum())
        # population variance from exact integer moments: (ss - s^2/n) / n
        return (float(ss) - float(s) * float(s) / float(n)) / float(n)

    if c.size < 3:
        return pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "var_level": pd.Series(dtype=np.float64),
             "var_d1": pd.Series(dtype=np.float64),
             "var_d2": pd.Series(dtype=np.float64),
             "d1_ratio": pd.Series(dtype=np.float64)}
        )
    d1 = np.diff(c)
    d2 = np.diff(d1)
    v0, v1, v2 = pop_var(c), pop_var(d1), pop_var(d2)
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "var_level": _r6away(v0),
            "var_d1": _r6away(v1),
            "var_d2": _r6away(v2),
            "d1_ratio": _r6away(v1 / v0),
        }
    )


def q_diff_variance_ratio(sf_dir: str):
    """Stationarity diagnostic per event_type: population variance of the
    hourly count series, of its first and second differences, and the
    d1/level variance ratio — the over/under-differencing check run
    before fitting AR/forecast models (ratio << 1: differencing helps;
    var_d2 > var_d1: over-differenced). All moment sums are exact int64;
    the SQL oracle reproduces the identical float expressions over
    window-lagged differences.
    """
    t = event_tier(sf_dir, "1h").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], diff_variance_kernel)


DIFF_VARIANCE_RATIO_SQL = """
WITH c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
d AS (
  SELECT event_type, x,
         x - LAG(x) OVER w AS d1,
         x - 2 * LAG(x) OVER w + LAG(x, 2) OVER w AS d2
  FROM c WINDOW w AS (PARTITION BY event_type ORDER BY b)
),
m AS (
  SELECT event_type,
         COUNT(x) AS n0, SUM(x) AS s0, SUM(x*x) AS ss0,
         COUNT(d1) AS n1, SUM(d1) AS s1, SUM(d1*d1) AS ss1,
         COUNT(d2) AS n2, SUM(d2) AS s2, SUM(d2*d2) AS ss2
  FROM d GROUP BY 1 HAVING COUNT(x) >= 3
)
SELECT event_type,
       ROUND((CAST(ss0 AS DOUBLE) - CAST(s0 AS DOUBLE)*CAST(s0 AS DOUBLE)/CAST(n0 AS DOUBLE)) / CAST(n0 AS DOUBLE), 6) AS var_level,
       ROUND((CAST(ss1 AS DOUBLE) - CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE)/CAST(n1 AS DOUBLE)) / CAST(n1 AS DOUBLE), 6) AS var_d1,
       ROUND((CAST(ss2 AS DOUBLE) - CAST(s2 AS DOUBLE)*CAST(s2 AS DOUBLE)/CAST(n2 AS DOUBLE)) / CAST(n2 AS DOUBLE), 6) AS var_d2,
       ROUND(((CAST(ss1 AS DOUBLE) - CAST(s1 AS DOUBLE)*CAST(s1 AS DOUBLE)/CAST(n1 AS DOUBLE)) / CAST(n1 AS DOUBLE))
             / ((CAST(ss0 AS DOUBLE) - CAST(s0 AS DOUBLE)*CAST(s0 AS DOUBLE)/CAST(n0 AS DOUBLE)) / CAST(n0 AS DOUBLE)), 6) AS d1_ratio
FROM m
"""


QUERIES4["longest_streak"] = q_longest_streak
QUERIES4["diff_variance_ratio"] = q_diff_variance_ratio
ORACLES4["longest_streak"] = LONGEST_STREAK_SQL
ORACLES4["diff_variance_ratio"] = DIFF_VARIANCE_RATIO_SQL


# ---------------------------------------------------------------------------
# Record highs (running-max breakers per series)
# ---------------------------------------------------------------------------


def record_highs_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-series kernel: events whose value strictly exceeds every
    earlier value of the series ((ts, event_id) order)."""
    df = df.sort_values(["ts", "event_id"], kind="mergesort")
    v = df["value"].to_numpy(np.float64)
    prev_max = np.empty_like(v)
    prev_max[0] = -np.inf
    np.maximum.accumulate(v[:-1], out=prev_max[1:])
    rec = v > prev_max
    out = df.loc[rec, ["event_type", "event_id", "ts", "value"]].copy()
    out["value"] = out["value"].astype(np.float64)
    return out


def q_record_highs(sf_dir: str):
    """Record highs per event_type: every event that set a new all-time
    maximum value at its moment — the "new peak traffic" alert stream.
    Strict-inequality comparisons on the raw parquet doubles are
    identical on both engines, so membership is exact with no rounding.
    One bucketed exchange; per-kernel state is one series.
    """
    ev = _events(sf_dir, ["event_id", "ts", "event_type", "value"])
    return bucketed_map_groups(ev, ["event_type"], record_highs_kernel)


RECORD_HIGHS_SQL = """
WITH m AS (
  SELECT event_type, event_id, ts, value,
         MAX(value) OVER (PARTITION BY event_type ORDER BY ts, event_id
                          ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prev_max
  FROM events
)
SELECT event_type, event_id, ts, value
FROM m WHERE prev_max IS NULL OR value > prev_max
"""


# ---------------------------------------------------------------------------
# Activity heatmap (day-of-week x hour-of-day)
# ---------------------------------------------------------------------------


def q_activity_heatmap(sf_dir: str):
    """The (day-of-week, hour-of-day) event-count heatmap every traffic
    dashboard opens with, plus exact centivalue sums per cell. Pure
    integer partial+final; the cell keys derive from epoch arithmetic
    (1970-01-01 was a Thursday, dow 4 ISO-agnostic convention: 0=Monday).
    """
    ev = _events(sf_dir, ["ts", "event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(batch["ts"])
        days = ts // DAY_US
        df = pd.DataFrame(
            {
                "dow": ((days + 3) % 7).astype(np.int64),  # 0 = Monday
                "hour": ((ts // HOUR_US) % 24).astype(np.int64),
                "n": np.ones(len(ts), dtype=np.int64),
                "cents": _cents(batch["value"]),
            }
        )
        return (
            df.groupby(["dow", "hour"], sort=False)
            .agg(n=("n", "sum"), cents=("cents", "sum"))
            .reset_index()
        )

    agg = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["dow", "hour"],
        [("n", "sum"), ("cents", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "dow": batch["dow"].astype(np.int64),
                "hour": batch["hour"].astype(np.int64),
                "n_events": batch["n_sum"].astype(np.int64),
                "sum_value": _r6away(
                    batch["cents_sum"].to_numpy(np.float64) / 100.0
                ),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


ACTIVITY_HEATMAP_SQL = """
SELECT CAST(isodow(ts) - 1 AS BIGINT) AS dow,
       CAST(hour(ts) AS BIGINT) AS hour,
       COUNT(*) AS n_events,
       ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) / 100, 6)
         AS sum_value
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Emerging terms (trend detection over the token stream)
# ---------------------------------------------------------------------------


def q_emerging_terms(sf_dir: str, k: int = 20, min_recent: int = 5):
    """Trending-token detection: tokens whose frequency among the MOST
    RECENT third of documents (by doc_id, the ingestion order) spikes
    against the earlier corpus, scored by the add-one-smoothed ratio
    (c_recent + 1)/(c_before + 1) — the emerging-topics report a corpus
    monitor runs per crawl increment. Token counts per period take the
    per-batch-count combiner through one bucketed exchange keyed on
    (token); the cutoff is a broadcast scalar; top-k is a deterministic
    sort on (rounded score DESC, token).
    """
    docs = _documents(sf_dir, ["doc_id", "text"])
    import ray

    bounds = docs.map_batches(
        lambda b: pd.DataFrame({"mx": [b["doc_id"].max()], "mn": [b["doc_id"].min()]}),
        batch_format="pandas",
    ).to_pandas()
    lo, hi = int(bounds["mn"].min()), int(bounds["mx"].max())
    cutoff = hi - (hi - lo + 1) // 3

    def count_partial(batch: pd.DataFrame) -> pd.DataFrame:
        recent = batch["doc_id"].astype(np.int64) > cutoff
        toks = batch["text"].fillna("").str.split()
        df = pd.DataFrame({"tok": toks, "recent": recent.astype(np.int64)}).explode(
            "tok"
        )
        df = df[df["tok"].notna()]
        g = (
            df.assign(n=1)
            .groupby(["tok", "recent"], sort=False)["n"]
            .sum()
            .reset_index()
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    counts = hash_bucket_aggregate(
        docs.map_batches(count_partial, batch_format="pandas"),
        ["tok", "recent"],
        [("n", "sum")],
    )

    def pivot(df: pd.DataFrame) -> pd.DataFrame:
        g = df.pivot_table(
            index="tok", columns="recent", values="n_sum", aggfunc="sum", fill_value=0
        )
        c_before = g[0].to_numpy(np.int64) if 0 in g.columns else np.zeros(len(g), np.int64)
        c_recent = g[1].to_numpy(np.int64) if 1 in g.columns else np.zeros(len(g), np.int64)
        out = pd.DataFrame(
            {
                "token": g.index.astype(str),
                "c_recent": c_recent,
                "c_before": c_before,
                "score": _r6away(
                    (c_recent.astype(np.float64) + 1.0)
                    / (c_before.astype(np.float64) + 1.0)
                ),
            }
        )
        return out[out["c_recent"] >= min_recent]

    scored = bucketed_map_groups(counts, ["tok"], None, whole_bucket_fn=pivot)
    return scored.sort(["score", "token"], descending=[True, False]).limit(k)


EMERGING_TERMS_SQL = """
WITH b AS (
  SELECT MIN(doc_id) AS lo, MAX(doc_id) AS hi FROM documents
),
t AS (
  SELECT CASE WHEN d.doc_id > b.hi - CAST((b.hi - b.lo + 1) // 3 AS BIGINT)
              THEN 1 ELSE 0 END AS recent,
         unnest(list_filter(regexp_split_to_array(COALESCE(d.text, ''), '\\s+'),
                            x -> x <> '')) AS tok
  FROM documents d, b
),
c AS (
  SELECT tok,
         CAST(SUM(recent) AS BIGINT) AS c_recent,
         CAST(SUM(1 - recent) AS BIGINT) AS c_before
  FROM t GROUP BY 1
)
SELECT tok AS token, c_recent, c_before,
       ROUND((CAST(c_recent AS DOUBLE) + 1.0) / (CAST(c_before AS DOUBLE) + 1.0), 6)
         AS score
FROM c WHERE c_recent >= 5
ORDER BY score DESC, token
LIMIT 20
"""


QUERIES4["record_highs"] = q_record_highs
QUERIES4["activity_heatmap"] = q_activity_heatmap
QUERIES4["emerging_terms"] = q_emerging_terms
ORACLES4["record_highs"] = RECORD_HIGHS_SQL
ORACLES4["activity_heatmap"] = ACTIVITY_HEATMAP_SQL
ORACLES4["emerging_terms"] = EMERGING_TERMS_SQL


# ---------------------------------------------------------------------------
# Forecasting feature matrix (lag/rolling features per series-day)
# ---------------------------------------------------------------------------


def feature_matrix_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-series kernel: per observed day (day order) the count, lag-1
    and lag-7 counts, and the trailing-7-observed-days mean — integer
    lags, ratio-of-int mean."""
    df = df.sort_values("bucket_ts", kind="mergesort")
    c = df["count"].to_numpy(np.int64)
    n = c.size
    lag1 = np.full(n, -1, dtype=np.int64)
    lag7 = np.full(n, -1, dtype=np.int64)
    lag1[1:] = c[:-1]
    if n > 7:
        lag7[7:] = c[:-7]
    csum = np.concatenate([[0], np.cumsum(c)])
    ma7 = np.full(n, np.nan)
    if n >= 7:
        w = (csum[7:] - csum[:-7]).astype(np.float64)
        ma7[6:] = _r6away(w / 7.0)
    keep = np.arange(n) >= 7
    return pd.DataFrame(
        {
            "event_type": df["event_type"].to_numpy()[keep],
            "day": df["bucket_ts"].to_numpy()[keep],
            "count": c[keep],
            "lag1": lag1[keep],
            "lag7": lag7[keep],
            "ma7": ma7[keep],
        }
    )


def q_feature_matrix_1d(sf_dir: str):
    """The forecasting feature matrix: per (event_type, observed day)
    the daily count with lag-1, lag-7 and trailing-7-day-mean features —
    the table a gradient-boosted or AR baseline trains on. Lags are over
    OBSERVED days in day order (rows before a full lag-7 history are
    dropped on both sides); counts and lags are exact integers, the
    rolling mean is a ratio of exact sums. Tier-series kernel contract.
    """
    t = event_tier(sf_dir, "1d").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], feature_matrix_kernel)


FEATURE_MATRIX_1D_SQL = """
WITH c AS (
  SELECT event_type, date_trunc('day', ts) AS day, COUNT(*) AS count
  FROM events GROUP BY 1, 2
),
f AS (
  SELECT event_type, day, count,
         LAG(count) OVER w AS lag1,
         LAG(count, 7) OVER w AS lag7,
         CAST(SUM(count) OVER (PARTITION BY event_type ORDER BY day
                               ROWS BETWEEN 6 PRECEDING AND CURRENT ROW)
              AS BIGINT) AS s7,
         ROW_NUMBER() OVER w AS rn
  FROM c WINDOW w AS (PARTITION BY event_type ORDER BY day)
)
SELECT event_type, day, count,
       CAST(lag1 AS BIGINT) AS lag1,
       CAST(lag7 AS BIGINT) AS lag7,
       ROUND(CAST(s7 AS DOUBLE) / 7.0, 6) AS ma7
FROM f WHERE rn >= 8
"""


# ---------------------------------------------------------------------------
# Seasonal-naive backtest (forecast evaluation)
# ---------------------------------------------------------------------------


def seasonal_naive_kernel(df: pd.DataFrame, period: int = 24) -> pd.DataFrame:
    """Whole-series kernel: seasonal-naive forecast (same hour yesterday)
    over the dense hourly grid, scored by exact-integer absolute errors."""
    from ..kernels.seasonal import dense_counts

    df = df.sort_values("bucket_ts", kind="mergesort")
    _, dense = dense_counts(
        _ts_us(df["bucket_ts"]), df["count"].to_numpy(np.int64), HOUR_US
    )
    if dense.size <= period:
        return pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_scored": pd.Series(dtype=np.int64),
             "sum_abs_err": pd.Series(dtype=np.int64),
             "mae": pd.Series(dtype=np.float64),
             "naive_hit_rate": pd.Series(dtype=np.float64)}
        )
    err = np.abs(dense[period:] - dense[:-period])
    n = err.size
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "n_scored": np.array([n], dtype=np.int64),
            "sum_abs_err": np.array([int(err.sum())], dtype=np.int64),
            "mae": _r6away(float(int(err.sum())) / float(n)),
            "naive_hit_rate": _r6away(
                float(int((err == 0).sum())) / float(n)
            ),
        }
    )


def q_seasonal_naive_backtest(sf_dir: str, period: int = 24):
    """Backtest of the seasonal-naive forecaster (predict each hour with
    the same hour one day earlier) on the dense hourly count grid: MAE
    and exact-hit rate per event_type — the baseline score every
    forecasting pipeline must beat before shipping a model. Errors are
    exact integers over the zero-filled grid; the two ratios are the
    shared float division.
    """
    t = event_tier(sf_dir, "1h").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], seasonal_naive_kernel)


SEASONAL_NAIVE_BACKTEST_SQL = """
WITH c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(b) AS lo, MAX(b) AS hi FROM c GROUP BY 1),
g AS (
  SELECT bo.event_type,
         UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 HOUR)) AS b
  FROM bounds bo
),
d AS (
  SELECT g.event_type, g.b, COALESCE(c.x, 0) AS x
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
),
e AS (
  SELECT event_type, x,
         LAG(x, 24) OVER (PARTITION BY event_type ORDER BY b) AS pred
  FROM d
)
SELECT event_type,
       COUNT(pred) AS n_scored,
       CAST(SUM(ABS(x - pred)) AS BIGINT) AS sum_abs_err,
       ROUND(CAST(SUM(ABS(x - pred)) AS DOUBLE) / CAST(COUNT(pred) AS DOUBLE), 6)
         AS mae,
       ROUND(CAST(SUM(CASE WHEN x = pred THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(pred) AS DOUBLE), 6) AS naive_hit_rate
FROM e WHERE pred IS NOT NULL
GROUP BY 1
"""


QUERIES4["feature_matrix_1d"] = q_feature_matrix_1d
QUERIES4["seasonal_naive_backtest"] = q_seasonal_naive_backtest
ORACLES4["feature_matrix_1d"] = FEATURE_MATRIX_1D_SQL
ORACLES4["seasonal_naive_backtest"] = SEASONAL_NAIVE_BACKTEST_SQL


# ---------------------------------------------------------------------------
# Inter-arrival gap quantiles (traffic-model fit input)
# ---------------------------------------------------------------------------


def gap_quantiles_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-series kernel: exact linear quantiles of the inter-arrival
    gaps ((ts, event_id) order; integer microsecond gaps, np.quantile ==
    quantile_cont bitwise)."""
    df = df.sort_values(["ts", "event_id"], kind="mergesort")
    ts = _ts_us(df["ts"])
    if ts.size < 2:
        return pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_gaps": pd.Series(dtype=np.int64),
             "p50_us": pd.Series(dtype=np.float64),
             "p90_us": pd.Series(dtype=np.float64),
             "p99_us": pd.Series(dtype=np.float64)}
        )
    gaps = np.diff(ts).astype(np.float64)
    # gaps are ~1e9-1e10 us: the lerp inside the quantile differs from the
    # SQL engine's at ~1 ulp, which IS the 6th decimal at this magnitude —
    # round to whole microseconds (half-up), far above the ulp noise
    p50, p90, p99 = np.floor(np.quantile(gaps, [0.50, 0.90, 0.99]) + 0.5)
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "n_gaps": np.array([gaps.size], dtype=np.int64),
            "p50_us": np.array([p50]),
            "p90_us": np.array([p90]),
            "p99_us": np.array([p99]),
        }
    )


def q_gap_quantiles(sf_dir: str):
    """Exact p50/p90/p99 of the inter-arrival gaps per event_type — the
    distribution a traffic model (Poisson? bursty?) is fitted against,
    and the counterpart of gap_report's max/mean. Same whole-series
    kernel contract as quantiles; integer gaps make the quantile inputs
    exact on both engines.
    """
    ev = _events(sf_dir, ["event_id", "ts", "event_type"])
    return bucketed_map_groups(ev, ["event_type"], gap_quantiles_kernel)


GAP_QUANTILES_SQL = """
WITH d AS (
  SELECT event_type,
         epoch_us(ts) - LAG(epoch_us(ts))
           OVER (PARTITION BY event_type ORDER BY ts, event_id) AS gap
  FROM events
)
SELECT event_type,
       COUNT(gap) AS n_gaps,
       ROUND(quantile_cont(gap, 0.50), 0) AS p50_us,
       ROUND(quantile_cont(gap, 0.90), 0) AS p90_us,
       ROUND(quantile_cont(gap, 0.99), 0) AS p99_us
FROM d WHERE gap IS NOT NULL
GROUP BY 1 HAVING COUNT(gap) >= 1
"""


QUERIES4["gap_quantiles"] = q_gap_quantiles
ORACLES4["gap_quantiles"] = GAP_QUANTILES_SQL
