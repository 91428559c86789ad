"""Round-3 batch 92: segment economics and robust-location operators —
mean and total order value by market segment, the modal event
centivalue per type (the most common exact value — heavy repeated
price points betray templated metrics), and the median inter-event gap
per type in whole seconds.

House parity: cents and counts are exact integers; the mode picks
(count DESC, centivalue ASC) on integers; the median gap quantile runs
over integer microseconds and rounds to WHOLE seconds on both sides
(floor(x + 0.5) == SQL ROUND at these magnitudes — the established
microsecond-quantile rule, since 1 ulp at 1e9 is the 6th decimal).

Scale contracts: all three pre-reduce through one exchange; gaps
derive per type inside bucketed_map_groups over (ts, event_id)-ordered events.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries4 import _cents
from .queries16 import _read

QUERIES90: dict = {}
ORACLES90: dict = {}


# ---------------------------------------------------------------------------
# Order value by market segment
# ---------------------------------------------------------------------------


def q_order_value_by_segment(sf_dir: str):
    """Per c_mktsegment: order count, total and mean order value —
    exact cents.

    Scale shape: orders pre-reduce per custkey (only |customer| rows
    cross the join exchange), the segment attaches via one
    co-partitioned bucketed_join — never a driver dict (customer is
    O(sf)) — and the 5-segment combine is bounded."""
    from ..common.raytools import bucketed_join

    per_cust = hash_bucket_aggregate(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]).map_batches(
            lambda b: pd.DataFrame(
                {
                    "custkey": b["o_custkey"].astype(np.int64),
                    "n": np.ones(len(b), dtype=np.int64),
                    "cents": _cents(b["o_totalprice"]),
                }
            )
            .groupby("custkey", sort=False)
            .sum()
            .reset_index(),
            batch_format="pandas",
        ),
        ["custkey"],
        [("n", "sum"), ("cents", "sum")],
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
                    "cents": batch["cents_sum"].astype(np.int64),
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
        .rename(columns={"n": "n_sum", "cents": "cents_sum"})
        .sort_values("segment")
    )
    return pd.DataFrame(
        {
            "segment": agg["segment"].astype(str),
            "n_orders": agg["n_sum"].astype(np.int64),
            "total_value": _r6away(
                agg["cents_sum"].to_numpy(np.float64) / 100.0
            ),
            "mean_value": _r6away(
                agg["cents_sum"].to_numpy(np.float64)
                / agg["n_sum"].to_numpy(np.float64)
                / 100.0
            ),
        }
    ).reset_index(drop=True)


ORACLES90["order_value_by_segment"] = """
SELECT c.c_mktsegment AS segment,
       CAST(COUNT(*) AS BIGINT) AS n_orders,
       ROUND(CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS DOUBLE)
             / 100.0, 6) AS total_value,
       ROUND(CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE) / 100.0, 6) AS mean_value
FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Modal event value per type
# ---------------------------------------------------------------------------


def q_value_mode_by_type(sf_dir: str):
    """Per event_type: the most frequent exact centivalue (ties break
    value-ascending), its count, and its share of the type's events."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame(
                {
                    "event_type": batch["event_type"],
                    "c": _cents(batch["value"]),
                    "n": np.ones(len(batch), dtype=np.int64),
                }
            )
            .groupby(["event_type", "c"], sort=False)
            .sum()
            .reset_index()
        )

    agg = hash_bucket_aggregate(
        _events(sf_dir, ["event_type", "value"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["event_type", "c"],
        [("n", "sum")],
    ).to_pandas()
    rows = []
    for et, g in agg.groupby("event_type", sort=True):
        g = g.sort_values(["n_sum", "c"], ascending=[False, True])
        tot = int(g["n_sum"].sum())
        top = g.iloc[0]
        rows.append(
            (
                et,
                float(_r6away(float(int(top["c"])) / 100.0)),
                int(top["n_sum"]),
                float(_r6away(float(int(top["n_sum"])) / float(tot))),
            )
        )
    return pd.DataFrame(
        rows, columns=["event_type", "modal_value", "n_modal", "modal_share"]
    ).astype({"n_modal": np.int64})


ORACLES90["value_mode_by_type"] = """
WITH c AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS cv,
         COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
t AS (SELECT event_type, SUM(n) AS tot FROM c GROUP BY 1)
SELECT c.event_type,
       ROUND(CAST(c.cv AS DOUBLE) / 100.0, 6) AS modal_value,
       CAST(c.n AS BIGINT) AS n_modal,
       ROUND(CAST(c.n AS DOUBLE) / CAST(t.tot AS DOUBLE), 6) AS modal_share
FROM c JOIN t USING (event_type)
QUALIFY row_number() OVER (PARTITION BY c.event_type
                           ORDER BY c.n DESC, c.cv ASC) = 1
"""


# ---------------------------------------------------------------------------
# Median inter-event gap per type
# ---------------------------------------------------------------------------


def q_median_gap_by_type(sf_dir: str):
    """Per event_type: number of gaps and the median inter-event gap in
    WHOLE seconds (quantile over integer microsecond gaps, half-up to
    whole seconds on both sides)."""
    ev = _events(sf_dir, ["event_type", "ts", "event_id"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "event_type": b["event_type"],
                "us": b["ts"].astype("datetime64[us]").astype("int64"),
                "event_id": b["event_id"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["us", "event_id"], kind="mergesort")
        us = d["us"].to_numpy(np.int64)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_gaps": pd.Series(dtype=np.int64),
             "median_gap_s": pd.Series(dtype=np.int64)}
        )
        if len(us) < 2:
            return empty
        g = (us[1:] - us[:-1]).astype(np.float64)
        med = float(np.quantile(g, 0.5))
        med_s = int(math.floor(med / 1000000.0 + 0.5))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_gaps": np.array([len(g)], dtype=np.int64),
                "median_gap_s": np.array([med_s], dtype=np.int64),
            }
        )

    return bucketed_map_groups(ev, ["event_type"], fn)


ORACLES90["median_gap_by_type"] = """
WITH seq AS (
  SELECT event_type, epoch_us(ts) AS us,
         lag(epoch_us(ts)) OVER (PARTITION BY event_type
                                 ORDER BY ts, event_id) AS prev
  FROM events
),
g AS (
  SELECT event_type, CAST(us - prev AS DOUBLE) AS gap
  FROM seq WHERE prev IS NOT NULL
)
SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n_gaps,
       CAST(FLOOR(quantile_cont(gap, 0.5) / 1000000.0 + 0.5) AS BIGINT)
         AS median_gap_s
FROM g GROUP BY 1
"""


QUERIES90["order_value_by_segment"] = q_order_value_by_segment
QUERIES90["value_mode_by_type"] = q_value_mode_by_type
QUERIES90["median_gap_by_type"] = q_median_gap_by_type
