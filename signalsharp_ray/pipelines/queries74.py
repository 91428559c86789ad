"""Round-3 batch 76: concentration and count-model operators — a
negative-binomial method-of-moments fit of per-customer order counts
(the overdispersion model behind demand forecasting), the share of
each event_type's traffic owned by its top-10 users, and per-nation
order-value medians and p90s.

House parity: per-entity counts are exact integers through one
exchange; the NB closed forms r = m^2/(v-m), p = m/v are transcribed
float expressions over exact sums; top-10 selection orders by
(count DESC, user ASC) on bitwise-identical integers; medians run
np.quantile == quantile_cont on integer cents (exact lerp anchors at
these magnitudes, the weighted_median_price precedent).

Scale contracts: NB fit and concentration pre-reduce per entity inside
the exchange and emit bounded rows; the nation median groups cents
inside bucketed_map_groups per nation (bounded by customers-per-nation at any
scale split)."""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries4 import _cents
from .queries16 import _read

QUERIES74: dict = {}
ORACLES74: dict = {}


# ---------------------------------------------------------------------------
# Negative-binomial fit of per-customer order counts
# ---------------------------------------------------------------------------


def q_nb_fit_order_counts(sf_dir: str):
    """Method-of-moments negative binomial over per-customer order
    counts (customers with >= 1 order): mean m, population variance v,
    r = m^2/(v - m), p = m/v. One row; requires v > m
    (overdispersion)."""
    orders = _read(sf_dir, "orders", ["o_custkey"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["o_custkey"].astype(np.int64),
                "n": np.ones(len(b), dtype=np.int64),
            }
        ),
        batch_format="pandas",
    )
    per_cust = hash_bucket_aggregate(orders, ["custkey"], [("n", "sum")])

    def moments(batch: pd.DataFrame) -> pd.DataFrame:
        c = batch["n_sum"].astype(np.int64).to_numpy()
        return pd.DataFrame(
            {
                "k": np.array([len(c)], dtype=np.int64),
                "s": np.array([int(c.sum())], dtype=np.int64),
                "ss": np.array([int((c * c).sum())], dtype=np.int64),
            }
        )

    parts = per_cust.map_batches(moments, batch_format="pandas").to_pandas()
    out_empty = pd.DataFrame(
        {"n_customers": pd.Series(dtype=np.int64),
         "mean_orders": pd.Series(dtype=np.float64),
         "var_orders": pd.Series(dtype=np.float64),
         "nb_r": pd.Series(dtype=np.float64),
         "nb_p": pd.Series(dtype=np.float64)}
    )
    k = int(parts["k"].sum())
    if k == 0:
        return out_empty
    s = int(parts["s"].sum())
    ss = int(parts["ss"].sum())
    m = float(s) / float(k)
    v = float(ss) / float(k) - m * m
    if v <= m:
        return out_empty
    return pd.DataFrame(
        {
            "n_customers": np.array([k], dtype=np.int64),
            "mean_orders": [float(_r6away(m))],
            "var_orders": [float(_r6away(v))],
            "nb_r": [float(_r6away(m * m / (v - m)))],
            "nb_p": [float(_r6away(m / v))],
        }
    )


ORACLES74["nb_fit_order_counts"] = """
WITH pc AS (SELECT o_custkey, COUNT(*) AS c FROM orders GROUP BY 1),
s AS (
  SELECT COUNT(*) AS k, CAST(SUM(c) AS BIGINT) AS s,
         CAST(SUM(c * c) AS BIGINT) AS ss
  FROM pc
),
f AS (
  SELECT k, s, ss,
         CAST(s AS DOUBLE) / CAST(k AS DOUBLE) AS m,
         CAST(ss AS DOUBLE) / CAST(k AS DOUBLE)
           - (CAST(s AS DOUBLE) / CAST(k AS DOUBLE))
             * (CAST(s AS DOUBLE) / CAST(k AS DOUBLE)) AS v
  FROM s WHERE k > 0
)
SELECT CAST(k AS BIGINT) AS n_customers,
       ROUND(m, 6) AS mean_orders, ROUND(v, 6) AS var_orders,
       ROUND(m * m / (v - m), 6) AS nb_r,
       ROUND(m / v, 6) AS nb_p
FROM f WHERE v > m
"""


# ---------------------------------------------------------------------------
# Top-10-user concentration per event_type
# ---------------------------------------------------------------------------


def q_type_user_concentration(sf_dir: str):
    """Per event_type: total events, events from its 10 busiest users
    (count DESC, user_id ASC ties), and the concentration share —
    integer selection, one transcribed division."""
    ev = _events(sf_dir, ["event_type", "user_id"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "event_type": b["event_type"],
                "user_id": b["user_id"].astype(np.int64),
                "n": np.ones(len(b), dtype=np.int64),
            }
        )
        .groupby(["event_type", "user_id"], sort=False)
        .sum()
        .reset_index(),
        batch_format="pandas",
    )
    agg = hash_bucket_aggregate(
        ev, ["event_type", "user_id"], [("n", "sum")]
    ).to_pandas()
    agg = agg.sort_values(
        ["event_type", "n_sum", "user_id"], ascending=[True, False, True]
    )
    rows = []
    for et, g in agg.groupby("event_type", sort=True):
        total = int(g["n_sum"].sum())
        top = int(g["n_sum"].head(10).sum())
        rows.append(
            (et, int(g["user_id"].nunique()), total, top,
             float(_r6away(float(top) / float(total))))
        )
    return pd.DataFrame(
        rows,
        columns=["event_type", "n_users", "n_events", "top10_events",
                 "top10_share"],
    ).astype({"n_users": np.int64, "n_events": np.int64,
              "top10_events": np.int64})


ORACLES74["type_user_concentration"] = """
WITH c AS (
  SELECT event_type, user_id, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
rk AS (
  SELECT event_type, n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY n DESC, user_id ASC) AS r
  FROM c
)
SELECT event_type,
       CAST(COUNT(*) AS BIGINT) AS n_users,
       CAST(SUM(n) AS BIGINT) AS n_events,
       CAST(SUM(n) FILTER (WHERE r <= 10) AS BIGINT) AS top10_events,
       ROUND(CAST(SUM(n) FILTER (WHERE r <= 10) AS DOUBLE)
             / CAST(SUM(n) AS DOUBLE), 6) AS top10_share
FROM rk GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Per-nation order-value median and p90
# ---------------------------------------------------------------------------


def q_median_order_value_by_nation(sf_dir: str):
    """Per nation: order count, median and p90 of order total value.
    Quantiles run over exact integer cents (np.quantile linear ==
    quantile_cont bitwise at these magnitudes); /100 on output.

    Customer attaches through ONE co-partitioned bucketed_join (customer
    is O(sf) — never a driver dict); only the 25-row nation table
    broadcasts as a plain dict."""
    from ..common.raytools import bucketed_join

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nat_names = dict(
        zip(nation["n_nationkey"].astype(np.int64), nation["n_name"].astype(str))
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["c_custkey"].astype(np.int64),
                "nationkey": b["c_nationkey"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    ord_proj = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["o_custkey"].astype(np.int64),
                "cents": _cents(b["o_totalprice"]),
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(ord_proj, cust, on=["custkey"])

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "nation": batch["nationkey"].astype(np.int64).map(nat_names),
                "cents": batch["cents"].astype(np.int64),
            }
        )

    orders = joined.map_batches(tag, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        c = df["cents"].to_numpy(np.float64)
        med = float(np.quantile(c, 0.5))
        p90 = float(np.quantile(c, 0.9))
        return pd.DataFrame(
            {
                "nation": [df["nation"].iloc[0]],
                "n_orders": np.array([len(df)], dtype=np.int64),
                "median_value": [float(_r6away(med / 100.0))],
                "p90_value": [float(_r6away(p90 / 100.0))],
            }
        )

    return bucketed_map_groups(orders, ["nation"], final)


ORACLES74["median_order_value_by_nation"] = """
WITH o AS (
  SELECT n.n_name AS nation,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS cents
  FROM orders
  JOIN customer c ON c.c_custkey = orders.o_custkey
  JOIN nation n ON n.n_nationkey = c.c_nationkey
)
SELECT nation, CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(quantile_cont(CAST(cents AS DOUBLE), 0.5) / 100.0, 6)
         AS median_value,
       ROUND(quantile_cont(CAST(cents AS DOUBLE), 0.9) / 100.0, 6)
         AS p90_value
FROM o GROUP BY 1
"""


QUERIES74["nb_fit_order_counts"] = q_nb_fit_order_counts
QUERIES74["type_user_concentration"] = q_type_user_concentration
QUERIES74["median_order_value_by_nation"] = q_median_order_value_by_nation
