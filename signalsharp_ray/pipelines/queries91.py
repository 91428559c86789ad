"""Round-3 batch 93: lifecycle-boundary and repeat-behaviour
operators — the (first event type, last event type) user matrix (where
journeys start and end at account granularity, the user-level
counterpart to session_entry_exit), the repeat-customer rate per
nation, and the weekend share of orders per market segment.

House parity: first/last selection is the integer (ts, event_id)
argmin/argmax per user; repeat and weekend shares are exact integer
ratios; the order day-of-week uses the house (epoch day + 3) % 7
convention on midnight order dates.

Scale contracts: first/last reduce per user inside bucketed_map_groups after
one exchange; the other two are bounded dimension-join aggregates.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries16 import _read

QUERIES91: dict = {}
ORACLES91: dict = {}

DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# User first -> last type matrix
# ---------------------------------------------------------------------------


def q_user_first_last_matrix(sf_dir: str):
    """Per (first_type, last_type): user count and share of all users —
    the journey boundary matrix. First/last by (ts, event_id) total
    order."""
    ev = _events(sf_dir, ["user_id", "event_type", "ts", "event_id"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "event_type": b["event_type"],
                "us": b["ts"].astype("datetime64[us]").astype("int64"),
                "event_id": b["event_id"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )

    def ends(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["us", "event_id"], kind="mergesort")
        return pd.DataFrame(
            {
                "first_type": [d["event_type"].iloc[0]],
                "last_type": [d["event_type"].iloc[-1]],
                "n": np.array([1], dtype=np.int64),
            }
        )

    agg = (
        hash_bucket_aggregate(
            bucketed_map_groups(ev, ["user_id"], ends),
            ["first_type", "last_type"],
            [("n", "sum")],
        )
        .to_pandas()
        .sort_values(["first_type", "last_type"])
    )
    tot = int(agg["n_sum"].sum())
    return pd.DataFrame(
        {
            "first_type": agg["first_type"].astype(str),
            "last_type": agg["last_type"].astype(str),
            "n_users": agg["n_sum"].astype(np.int64),
            "share": _r6away(agg["n_sum"].to_numpy(np.float64) / float(tot)),
        }
    ).reset_index(drop=True)


ORACLES91["user_first_last_matrix"] = """
WITH rk AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts ASC, event_id ASC) AS rf,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rl
  FROM events
),
ends AS (
  SELECT f.user_id, f.event_type AS first_type, l.event_type AS last_type
  FROM rk f JOIN rk l ON l.user_id = f.user_id AND l.rl = 1
  WHERE f.rf = 1
),
m AS (
  SELECT first_type, last_type, COUNT(*) AS n FROM ends GROUP BY 1, 2
),
t AS (SELECT SUM(n) AS tot FROM m)
SELECT m.first_type, m.last_type, CAST(m.n AS BIGINT) AS n_users,
       ROUND(CAST(m.n AS DOUBLE) / CAST(t.tot AS DOUBLE), 6) AS share
FROM m, t
"""


# ---------------------------------------------------------------------------
# Repeat-customer rate per nation
# ---------------------------------------------------------------------------


def q_repeat_rate_by_nation(sf_dir: str):
    """Per nation: customers with >= 1 order, customers with >= 2
    orders, and the repeat rate.

    Scale shape: per-customer order counts (|customer| rows max) attach
    the customer nationkey via one co-partitioned bucketed_join — never
    a driver dict (customer is O(sf)); only the 25-row nation name table
    broadcasts."""
    from ..common.raytools import bucketed_join

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nat_names = dict(
        zip(nation["n_nationkey"].astype(np.int64), nation["n_name"].astype(str))
    )

    per_cust = hash_bucket_aggregate(
        _read(sf_dir, "orders", ["o_custkey"]).map_batches(
            lambda b: pd.DataFrame(
                {
                    "custkey": b["o_custkey"].astype(np.int64),
                    "n": np.ones(len(b), dtype=np.int64),
                }
            )
            .groupby("custkey", sort=False)
            .sum()
            .reset_index(),
            batch_format="pandas",
        ),
        ["custkey"],
        [("n", "sum")],
    )
    dim = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["c_custkey"].astype(np.int64),
                "nationkey": b["c_nationkey"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    per_cust = bucketed_join(per_cust, dim, on=["custkey"])

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame(
                {
                    "nation": batch["nationkey"].astype(np.int64).map(nat_names),
                    "c": np.ones(len(batch), dtype=np.int64),
                    "r": (batch["n_sum"].astype(np.int64) >= 2).astype(
                        np.int64
                    ),
                }
            )
            .groupby("nation", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            per_cust.map_batches(tag, batch_format="pandas"),
            ["nation"],
            [("c", "sum"), ("r", "sum")],
        )
        .to_pandas()
        .sort_values("nation")
    )
    return pd.DataFrame(
        {
            "nation": agg["nation"].astype(str),
            "n_customers": agg["c_sum"].astype(np.int64),
            "n_repeat": agg["r_sum"].astype(np.int64),
            "repeat_rate": _r6away(
                agg["r_sum"].to_numpy(np.float64)
                / agg["c_sum"].to_numpy(np.float64)
            ),
        }
    ).reset_index(drop=True)


ORACLES91["repeat_rate_by_nation"] = """
WITH pc AS (
  SELECT o_custkey, COUNT(*) AS n FROM orders GROUP BY 1
),
tag AS (
  SELECT n.n_name AS nation,
         CASE WHEN pc.n >= 2 THEN 1 ELSE 0 END AS r
  FROM pc
  JOIN customer c ON c.c_custkey = pc.o_custkey
  JOIN nation n ON n.n_nationkey = c.c_nationkey
)
SELECT nation, CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(SUM(r) AS BIGINT) AS n_repeat,
       ROUND(CAST(SUM(r) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6)
         AS repeat_rate
FROM tag GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Weekend order share per segment
# ---------------------------------------------------------------------------


def q_weekend_order_share_by_segment(sf_dir: str):
    """Per c_mktsegment: order count and the share placed on weekends
    (Sat/Sun by order date).

    Scale shape: orders pre-reduce per custkey (only |customer| rows
    cross the join exchange), the segment attaches via one
    co-partitioned bucketed_join — never a driver dict (customer is
    O(sf))."""
    from ..common.raytools import bucketed_join

    def per_cust_partial(batch: pd.DataFrame) -> pd.DataFrame:
        us = batch["o_orderdate"].astype("datetime64[us]").astype("int64")
        wk = (((us // DAY_US) + 3) % 7 >= 5).astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "custkey": batch["o_custkey"].astype(np.int64),
                    "n": np.ones(len(batch), dtype=np.int64),
                    "wk": wk,
                }
            )
            .groupby("custkey", sort=False)
            .sum()
            .reset_index()
        )

    per_cust = hash_bucket_aggregate(
        _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]).map_batches(
            per_cust_partial, batch_format="pandas"
        ),
        ["custkey"],
        [("n", "sum"), ("wk", "sum")],
    )
    dim = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["c_custkey"].astype(np.int64),
                "segment": b["c_mktsegment"].astype(str),
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(per_cust, dim, on=["custkey"])

    def by_segment(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame(
                {
                    "segment": batch["segment"].astype(str),
                    "n": batch["n_sum"].astype(np.int64),
                    "wk": batch["wk_sum"].astype(np.int64),
                }
            )
            .groupby("segment", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        joined.map_batches(by_segment, batch_format="pandas")
        .to_pandas()
        .groupby("segment", sort=True)
        .sum()
        .reset_index()
        .rename(columns={"n": "n_sum", "wk": "wk_sum"})
        .sort_values("segment")
    )
    return pd.DataFrame(
        {
            "segment": agg["segment"].astype(str),
            "n_orders": agg["n_sum"].astype(np.int64),
            "n_weekend": agg["wk_sum"].astype(np.int64),
            "weekend_share": _r6away(
                agg["wk_sum"].to_numpy(np.float64)
                / agg["n_sum"].to_numpy(np.float64)
            ),
        }
    ).reset_index(drop=True)


ORACLES91["weekend_order_share_by_segment"] = """
SELECT c.c_mktsegment AS segment,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       CAST(COUNT(*) FILTER (
         WHERE (epoch_us(o.o_orderdate) // 86400000000 + 3) % 7 >= 5
       ) AS BIGINT) AS n_weekend,
       ROUND(CAST(COUNT(*) FILTER (
               WHERE (epoch_us(o.o_orderdate) // 86400000000 + 3) % 7 >= 5
             ) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6) AS weekend_share
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY 1
"""


QUERIES91["user_first_last_matrix"] = q_user_first_last_matrix
QUERIES91["repeat_rate_by_nation"] = q_repeat_rate_by_nation
QUERIES91["weekend_order_share_by_segment"] = q_weekend_order_share_by_segment
