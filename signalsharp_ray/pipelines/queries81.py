"""Round-3 batch 83: supply-chain latency, behavioural lift, and
inequality-drift operators — mean ship lead time per supplier (the
supplier SLA view next to priority_lead_time), the lift matrix of
consecutive same-user event-type transitions (P(to|from)/P(to) — which
follow-ups are over-represented), and the day-by-day trend of the user
traffic Gini (is load concentrating on fewer users).

House parity: lead times are exact integer day differences (midnight
timestamps divide exactly); transition counts and marginals are exact
integers with one transcribed lift division; the daily Gini uses the
gini_traffic integer rank-weighted sum per day and the entropy-trend
OLS folds ordered by day.

Scale contracts: lead time joins orders via the co-partitioned
bucketed exchange; transitions reduce per (from, to) after a per-user
ordered pass inside bucketed_map_groups; the Gini trend combines bounded
per-day integer triples on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries14 import _fold
from .queries16 import _read

QUERIES81: dict = {}
ORACLES81: dict = {}

DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# Mean ship lead time per supplier
# ---------------------------------------------------------------------------


def q_supplier_lead_time(sf_dir: str):
    """Per supplier: shipment count and mean lead time in days
    (l_shipdate - o_orderdate, exact integer days on midnight
    timestamps)."""
    li = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].astype(np.int64),
                "suppkey": b["l_suppkey"].astype(np.int64),
                "ship_us": b["l_shipdate"]
                .astype("datetime64[us]")
                .astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "l_orderkey": b["o_orderkey"].astype(np.int64),
                "ord_us": b["o_orderdate"]
                .astype("datetime64[us]")
                .astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(li, orders, on=["l_orderkey"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0 or "suppkey" not in batch.columns:
            return pd.DataFrame(
                {"suppkey": pd.Series(dtype=np.int64),
                 "n": pd.Series(dtype=np.int64),
                 "days": pd.Series(dtype=np.int64)}
            )
        b = batch.dropna(subset=["suppkey", "ord_us"])
        days = (
            b["ship_us"].astype(np.int64) - b["ord_us"].astype(np.int64)
        ) // DAY_US
        return (
            pd.DataFrame(
                {
                    "suppkey": b["suppkey"].astype(np.int64),
                    "n": np.ones(len(b), dtype=np.int64),
                    "days": days.astype(np.int64),
                }
            )
            .groupby("suppkey", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            joined.map_batches(partial, batch_format="pandas"),
            ["suppkey"],
            [("n", "sum"), ("days", "sum")],
        )
        .to_pandas()
        .sort_values("suppkey")
    )
    return pd.DataFrame(
        {
            "suppkey": agg["suppkey"].astype(np.int64),
            "n_shipments": agg["n_sum"].astype(np.int64),
            "mean_lead_days": _r6away(
                agg["days_sum"].to_numpy(np.float64)
                / agg["n_sum"].to_numpy(np.float64)
            ),
        }
    ).reset_index(drop=True)


ORACLES81["supplier_lead_time"] = """
SELECT l.l_suppkey AS suppkey,
       CAST(COUNT(*) AS BIGINT) AS n_shipments,
       ROUND(CAST(SUM(epoch_us(l.l_shipdate) // 86400000000
                      - epoch_us(o.o_orderdate) // 86400000000) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS mean_lead_days
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Transition lift matrix
# ---------------------------------------------------------------------------


def q_transition_lift(sf_dir: str):
    """Per (from_type, to_type) over consecutive same-user events
    ordered by (ts, event_id): transition count and the lift
    P(to|from) / P(to), where P(to) is the to-marginal over all
    transitions. Lift > 1 marks over-represented follow-ups."""
    ev = _events(sf_dir, ["user_id", "event_type", "ts", "event_id"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["ts", "event_id"], kind="mergesort")
        a = d["event_type"].to_numpy()
        if len(a) < 2:
            return pd.DataFrame(
                {"from_type": pd.Series(dtype=object),
                 "to_type": pd.Series(dtype=object),
                 "n": pd.Series(dtype=np.int64)}
            )
        return (
            pd.DataFrame(
                {
                    "from_type": a[:-1],
                    "to_type": a[1:],
                    "n": np.ones(len(a) - 1, dtype=np.int64),
                }
            )
            .groupby(["from_type", "to_type"], sort=False)
            .sum()
            .reset_index()
        )

    trans = hash_bucket_aggregate(
        bucketed_map_groups(ev, ["user_id"], pairs),
        ["from_type", "to_type"],
        [("n", "sum")],
    ).to_pandas()
    total = int(trans["n_sum"].sum())
    from_tot = (
        trans.groupby("from_type")["n_sum"].transform("sum").astype(np.int64)
    )
    to_map = trans.groupby("to_type")["n_sum"].sum().astype(np.int64)
    to_tot = trans["to_type"].map(to_map).astype(np.int64)
    tf = float(total)
    lift = []
    for n, ft, tt in zip(trans["n_sum"], from_tot, to_tot):
        p_cond = float(int(n)) / float(int(ft))
        p_to = float(int(tt)) / tf
        lift.append(p_cond / p_to)
    out = pd.DataFrame(
        {
            "from_type": trans["from_type"].astype(str),
            "to_type": trans["to_type"].astype(str),
            "n_transitions": trans["n_sum"].astype(np.int64),
            "lift": _r6away(np.array(lift)),
        }
    ).sort_values(["from_type", "to_type"])
    return out.reset_index(drop=True)


ORACLES81["transition_lift"] = """
WITH seq AS (
  SELECT user_id, event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events
),
tr AS (
  SELECT event_type AS from_type, nxt AS to_type, COUNT(*) AS n
  FROM seq WHERE nxt IS NOT NULL GROUP BY 1, 2
),
m AS (
  SELECT from_type, to_type, n,
         CAST(SUM(n) OVER (PARTITION BY from_type) AS BIGINT) AS ft,
         CAST(SUM(n) OVER (PARTITION BY to_type) AS BIGINT) AS tt,
         CAST(SUM(n) OVER () AS BIGINT) AS total
  FROM tr
)
SELECT from_type, to_type, CAST(n AS BIGINT) AS n_transitions,
       ROUND((CAST(n AS DOUBLE) / CAST(ft AS DOUBLE))
             / (CAST(tt AS DOUBLE) / CAST(total AS DOUBLE)), 6) AS lift
FROM m
"""


# ---------------------------------------------------------------------------
# Daily user-Gini trend
# ---------------------------------------------------------------------------


def q_user_gini_trend(sf_dir: str):
    """One global row: the per-day Gini of user event counts (the
    gini_traffic rank-weighted integer sum, per calendar day), its
    mean, and the OLS slope over day index — concentration drift."""
    ev = _events(sf_dir, ["user_id", "ts"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (
            batch["ts"].astype("datetime64[us]").astype("int64") // DAY_US
        )
        return (
            pd.DataFrame(
                {
                    "day": day.astype(np.int64),
                    "user_id": batch["user_id"].astype(np.int64),
                    "n": np.ones(len(batch), dtype=np.int64),
                }
            )
            .groupby(["day", "user_id"], sort=False)
            .sum()
            .reset_index()
        )

    per_day_user = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["day", "user_id"],
        [("n", "sum")],
    )

    def gini_day(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["n_sum", "user_id"], kind="mergesort")
        c = d["n_sum"].to_numpy(np.int64)
        n = int(c.size)
        s = int(c.sum())
        w = int(np.sum(np.arange(1, n + 1, dtype=np.int64) * c))
        g = (2.0 * float(w)) / (float(n) * float(s)) - float(n + 1) / float(n)
        return pd.DataFrame(
            {
                "day": np.array([int(df["day"].iloc[0])], dtype=np.int64),
                "g": [g],
            }
        )

    daily = (
        bucketed_map_groups(per_day_user, ["day"], gini_day)
        .to_pandas()
        .sort_values("day")
    )
    out_empty = pd.DataFrame(
        {"n_days": pd.Series(dtype=np.int64),
         "mean_gini": pd.Series(dtype=np.float64),
         "slope": pd.Series(dtype=np.float64)}
    )
    nd = len(daily)
    if nd < 2:
        return out_empty
    g = daily["g"].tolist()
    st = 0
    stt = 0
    for i in range(nd):
        st += i
        stt += i * i
    sy = _fold(g)
    sty = _fold([float(i) * v for i, v in enumerate(g)])
    dden = nd * stt - st * st
    if dden == 0:
        return out_empty
    slope = (float(nd) * sty - float(st) * sy) / float(dden)
    return pd.DataFrame(
        {
            "n_days": np.array([nd], dtype=np.int64),
            "mean_gini": [float(_r6away(sy / float(nd)))],
            "slope": [float(_r6away(slope))],
        }
    )


ORACLES81["user_gini_trend"] = """
WITH c AS (
  SELECT epoch_us(ts) // 86400000000 AS day, user_id, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
rk AS (
  SELECT day, n,
         row_number() OVER (PARTITION BY day ORDER BY n ASC, user_id ASC)
           AS r
  FROM c
),
g AS (
  SELECT day,
         (2.0 * CAST(SUM(r * n) AS DOUBLE))
           / (CAST(COUNT(*) AS DOUBLE) * CAST(SUM(n) AS DOUBLE))
         - CAST(COUNT(*) + 1 AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS g
  FROM rk GROUP BY 1
),
idx AS (SELECT g, row_number() OVER (ORDER BY day) - 1 AS i FROM g),
s AS (
  SELECT COUNT(*) AS nd, SUM(i) AS st, SUM(i * i) AS stt,
         list_sum(list(g ORDER BY i)) AS sy,
         list_sum(list(CAST(i AS DOUBLE) * g ORDER BY i)) AS sty
  FROM idx
)
SELECT CAST(nd AS BIGINT) AS n_days,
       ROUND(sy / CAST(nd AS DOUBLE), 6) AS mean_gini,
       ROUND((CAST(nd AS DOUBLE) * sty - CAST(st AS DOUBLE) * sy)
             / CAST(nd * stt - st * st AS DOUBLE), 6) AS slope
FROM s WHERE nd >= 2 AND nd * stt - st * st != 0
"""


QUERIES81["supplier_lead_time"] = q_supplier_lead_time
QUERIES81["transition_lift"] = q_transition_lift
QUERIES81["user_gini_trend"] = q_user_gini_trend
