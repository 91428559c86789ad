"""Round-3 batch 100: behavioural stickiness and concentration
operators — the type switch rate over consecutive same-user events
against its independence expectation (1 - sum p_i^2: are behaviours
sticky), the brand HHI per supplier (single-brand shippers vs
diversified), and the repeat-purchase rate by the priority of the
customer's FIRST order (does a rushed first order predict loyalty).

House parity: switch counts and marginals are exact integers; the
expectation folds p_i^2 ascending type; HHIs fold ascending brand;
first-order selection is the (o_orderdate, o_orderkey) argmin.

Scale contracts: switches reduce per user inside bucketed_map_groups;
the HHI collapses per (supplier, brand) in one exchange; first orders
reduce per customer then join order counts co-partitioned.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries14 import _fold
from .queries16 import _read

QUERIES98: dict = {}
ORACLES98: dict = {}


# ---------------------------------------------------------------------------
# Type switch rate vs independence expectation
# ---------------------------------------------------------------------------


def q_type_switch_rate(sf_dir: str):
    """One global row: observed share of consecutive same-user event
    pairs that SWITCH type, the independence expectation
    1 - sum p_i^2 over the to-event type mix of transitions, and the
    stickiness ratio observed/expected (< 1 = stickier than chance)."""
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

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["us", "event_id"], kind="mergesort")
        a = d["event_type"].to_numpy()
        if len(a) < 2:
            return pd.DataFrame(
                {"to_type": pd.Series(dtype=object),
                 "n": pd.Series(dtype=np.int64),
                 "sw": pd.Series(dtype=np.int64)}
            )
        return (
            pd.DataFrame(
                {
                    "to_type": a[1:],
                    "n": np.ones(len(a) - 1, dtype=np.int64),
                    "sw": (a[1:] != a[:-1]).astype(np.int64),
                }
            )
            .groupby("to_type", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            bucketed_map_groups(ev, ["user_id"], pairs),
            ["to_type"],
            [("n", "sum"), ("sw", "sum")],
        )
        .to_pandas()
        .sort_values("to_type")
    )
    out_empty = pd.DataFrame(
        {"n_transitions": pd.Series(dtype=np.int64),
         "switch_rate": pd.Series(dtype=np.float64),
         "expected_rate": pd.Series(dtype=np.float64),
         "stickiness": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    total = int(agg["n_sum"].sum())
    sw = int(agg["sw_sum"].sum())
    obs = float(sw) / float(total)
    exp = 1.0 - _fold(
        [
            (float(int(r["n_sum"])) / float(total))
            * (float(int(r["n_sum"])) / float(total))
            for _, r in agg.iterrows()
        ]
    )
    if exp == 0.0:
        return out_empty
    return pd.DataFrame(
        {
            "n_transitions": np.array([total], dtype=np.int64),
            "switch_rate": [float(_r6away(obs))],
            "expected_rate": [float(_r6away(exp))],
            "stickiness": [float(_r6away(obs / exp))],
        }
    )


ORACLES98["type_switch_rate"] = """
WITH seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) AS prev
  FROM events
),
tr AS (
  SELECT event_type AS to_type,
         COUNT(*) AS n,
         COUNT(*) FILTER (WHERE event_type != prev) AS sw
  FROM seq WHERE prev IS NOT NULL GROUP BY 1
),
t AS (SELECT SUM(n) AS total, SUM(sw) AS sw FROM tr),
e AS (
  SELECT 1.0 - list_sum(list(
           (CAST(n AS DOUBLE) / CAST(t.total AS DOUBLE))
           * (CAST(n AS DOUBLE) / CAST(t.total AS DOUBLE))
           ORDER BY to_type)) AS exp
  FROM tr, t GROUP BY t.total
)
SELECT CAST(t.total AS BIGINT) AS n_transitions,
       ROUND(CAST(t.sw AS DOUBLE) / CAST(t.total AS DOUBLE), 6)
         AS switch_rate,
       ROUND(e.exp, 6) AS expected_rate,
       ROUND((CAST(t.sw AS DOUBLE) / CAST(t.total AS DOUBLE)) / e.exp, 6)
         AS stickiness
FROM t, e WHERE e.exp != 0
"""


# ---------------------------------------------------------------------------
# Brand HHI per supplier
# ---------------------------------------------------------------------------


def q_supplier_brand_hhi(sf_dir: str):
    """Per supplier: shipments, distinct brands shipped, and the brand
    HHI (sum of squared brand shares, brand-ascending fold) — 1.0 =
    single-brand shipper.

    Scale shape: lineitem pre-reduces per (suppkey, partkey), the part
    brand attaches via one co-partitioned bucketed_join — never a driver
    dict (part is O(sf)) — and the per-supplier HHI folds run distributed
    in bucketed_map_groups (the result is per-supplier, so only the
    output rows reach the driver)."""
    from ..common.raytools import bucketed_join, bucketed_map_groups

    per_pair = hash_bucket_aggregate(
        _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"]).map_batches(
            lambda b: pd.DataFrame(
                {
                    "suppkey": b["l_suppkey"].astype(np.int64),
                    "partkey": b["l_partkey"].astype(np.int64),
                    "n": np.ones(len(b), dtype=np.int64),
                }
            )
            .groupby(["suppkey", "partkey"], sort=False)
            .sum()
            .reset_index(),
            batch_format="pandas",
        ),
        ["suppkey", "partkey"],
        [("n", "sum")],
    )
    dim = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "partkey": b["p_partkey"].astype(np.int64),
                "brand": b["p_brand"].astype(str),
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(per_pair, dim, on=["partkey"])
    per_brand = hash_bucket_aggregate(
        joined.map_batches(
            lambda b: pd.DataFrame(
                {
                    "suppkey": b["suppkey"].astype(np.int64),
                    "brand": b["brand"].astype(str),
                    "n": b["n_sum"].astype(np.int64),
                }
            ),
            batch_format="pandas",
        ),
        ["suppkey", "brand"],
        [("n", "sum")],
    )

    def hhi_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("brand")
        tot = int(g["n_sum"].sum())
        hhi = _fold(
            [
                (float(int(v)) / float(tot)) * (float(int(v)) / float(tot))
                for v in g["n_sum"]
            ]
        )
        return pd.DataFrame(
            {
                "suppkey": np.array([int(g["suppkey"].iloc[0])], dtype=np.int64),
                "n_items": np.array([tot], dtype=np.int64),
                "n_brands": np.array([len(g)], dtype=np.int64),
                "brand_hhi": [float(_r6away(hhi))],
            }
        )

    out = bucketed_map_groups(per_brand, ["suppkey"], hhi_group)
    return (
        out.to_pandas()
        .sort_values("suppkey")
        .reset_index(drop=True)
        .astype({"suppkey": np.int64, "n_items": np.int64,
                 "n_brands": np.int64})
    )


ORACLES98["supplier_brand_hhi"] = """
WITH c AS (
  SELECT l.l_suppkey AS suppkey, p.p_brand AS brand, COUNT(*) AS n
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
  GROUP BY 1, 2
),
t AS (SELECT suppkey, SUM(n) AS tot, COUNT(*) AS k FROM c GROUP BY 1)
SELECT CAST(c.suppkey AS BIGINT) AS suppkey,
       CAST(MAX(t.tot) AS BIGINT) AS n_items,
       CAST(MAX(t.k) AS BIGINT) AS n_brands,
       ROUND(list_sum(list(
         (CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE))
         * (CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE))
         ORDER BY c.brand)), 6) AS brand_hhi
FROM c JOIN t USING (suppkey)
GROUP BY c.suppkey
"""


# ---------------------------------------------------------------------------
# Repeat rate by first-order priority
# ---------------------------------------------------------------------------


def q_repeat_by_first_priority(sf_dir: str):
    """Per priority of the customer's FIRST order ((o_orderdate,
    o_orderkey) argmin): customer count and the share who ordered
    again."""
    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate",
                           "o_orderpriority"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["o_custkey"].astype(np.int64),
                "orderkey": b["o_orderkey"].astype(np.int64),
                "us": b["o_orderdate"].astype("datetime64[us]").astype("int64"),
                "priority": b["o_orderpriority"],
            }
        ),
        batch_format="pandas",
    )

    def firsts(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["us", "orderkey"], kind="mergesort")
        return pd.DataFrame(
            {
                "priority": [d["priority"].iloc[0]],
                "n": np.array([1], dtype=np.int64),
                "rep": np.array([1 if len(d) >= 2 else 0], dtype=np.int64),
            }
        )

    agg = (
        hash_bucket_aggregate(
            bucketed_map_groups(orders, ["custkey"], firsts),
            ["priority"],
            [("n", "sum"), ("rep", "sum")],
        )
        .to_pandas()
        .sort_values("priority")
    )
    return pd.DataFrame(
        {
            "priority": agg["priority"].astype(str),
            "n_customers": agg["n_sum"].astype(np.int64),
            "n_repeat": agg["rep_sum"].astype(np.int64),
            "repeat_rate": _r6away(
                agg["rep_sum"].to_numpy(np.float64)
                / agg["n_sum"].to_numpy(np.float64)
            ),
        }
    ).reset_index(drop=True)


ORACLES98["repeat_by_first_priority"] = """
WITH rk AS (
  SELECT o_custkey, o_orderpriority,
         row_number() OVER (PARTITION BY o_custkey
                            ORDER BY o_orderdate ASC, o_orderkey ASC) AS r,
         COUNT(*) OVER (PARTITION BY o_custkey) AS n
  FROM orders
)
SELECT o_orderpriority AS priority,
       CAST(COUNT(*) AS BIGINT) AS n_customers,
       CAST(COUNT(*) FILTER (WHERE n >= 2) AS BIGINT) AS n_repeat,
       ROUND(CAST(COUNT(*) FILTER (WHERE n >= 2) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS repeat_rate
FROM rk WHERE r = 1 GROUP BY 1
"""


QUERIES98["type_switch_rate"] = q_type_switch_rate
QUERIES98["supplier_brand_hhi"] = q_supplier_brand_hhi
QUERIES98["repeat_by_first_priority"] = q_repeat_by_first_priority
