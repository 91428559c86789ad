"""Round-3 batch 102: calendar effect-size, streak, and discount-mix
operators — the correlation ratio eta^2 of order value by day-of-week
(the orders-side companion to value_hod_eta2), the histogram of each
user's longest same-type event run (behavioural streakiness via
gaps-and-islands), and the share of undiscounted shipments per brand.

House parity: eta^2 combines exact cents sums (HUGEINT squares) with
the standard ascending-dow fold; runs are exact integer islands (the
rn - rn_by_type group key in SQL == the Python linear scan); zero
discounts are exact basis-point predicates.

Scale contracts: eta^2 and the brand share are bounded partial+final
aggregates; runs reduce per user inside bucketed_map_groups then histogram.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries4 import _cents
from .queries14 import _fold
from .queries16 import _read

QUERIES100: dict = {}
ORACLES100: dict = {}

DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# Order value by day-of-week eta^2
# ---------------------------------------------------------------------------


def q_order_value_dow_eta2(sf_dir: str):
    """One global row: eta^2 = SSB/SST of order value (cents) grouped
    by order-date day-of-week — how much weekday explains spend."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    LIMB = 1 << 32

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        # cents^2 of order totals overflow int64 when summed; carry the
        # squared sums as 2^32-base limbs (the weekend_effect pattern)
        us = batch["o_orderdate"].astype("datetime64[us]").astype("int64")
        c = _cents(batch["o_totalprice"])
        dow = (((us // DAY_US) + 3) % 7).astype(np.int64)
        rows = []
        for d in np.unique(dow):
            sel = dow == d
            ci = [int(x) for x in c[sel]]
            ss = sum(x * x for x in ci)
            rows.append(
                (int(d), len(ci), sum(ci), ss // LIMB, ss % LIMB)
            )
        return pd.DataFrame(
            rows, columns=["dow", "n", "s", "ss_hi", "ss_lo"]
        ).astype(np.int64)

    agg = (
        hash_bucket_aggregate(
            orders.map_batches(partial, batch_format="pandas"),
            ["dow"],
            [("n", "sum"), ("s", "sum"), ("ss_hi", "sum"), ("ss_lo", "sum")],
        )
        .to_pandas()
        .sort_values("dow")
    )
    out_empty = pd.DataFrame(
        {"n_orders": pd.Series(dtype=np.int64),
         "n_groups": pd.Series(dtype=np.int64),
         "eta2": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    n = int(agg["n_sum"].sum())
    S = int(agg["s_sum"].sum())
    SS = int(agg["ss_hi_sum"].sum()) * LIMB + int(agg["ss_lo_sum"].sum())
    corr = float(S) * float(S) / float(n)
    sst = float(SS) - corr
    if sst <= 0.0:
        return out_empty
    ssb = _fold(
        [
            float(int(r["s_sum"])) * float(int(r["s_sum"]))
            / float(int(r["n_sum"]))
            for _, r in agg.iterrows()
        ]
    ) - corr
    return pd.DataFrame(
        {
            "n_orders": np.array([n], dtype=np.int64),
            "n_groups": np.array([len(agg)], dtype=np.int64),
            "eta2": [float(_r6away(ssb / sst))],
        }
    )


ORACLES100["order_value_dow_eta2"] = """
WITH b AS (
  SELECT (epoch_us(o_orderdate) // 86400000000 + 3) % 7 AS dow,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c
  FROM orders
),
g AS (
  SELECT dow, COUNT(*) AS nh, CAST(SUM(c) AS BIGINT) AS sh,
         CAST(SUM(CAST(c AS HUGEINT) * c) AS HUGEINT) AS ssh
  FROM b GROUP BY 1
),
tot AS (
  SELECT SUM(nh) AS n, CAST(SUM(sh) AS BIGINT) AS s,
         CAST(SUM(ssh) AS HUGEINT) AS ss, COUNT(*) AS k
  FROM g
),
a AS (
  SELECT tot.n, tot.k, tot.s, tot.ss,
         (SELECT list_sum(list(CAST(sh AS DOUBLE) * CAST(sh AS DOUBLE)
                               / CAST(nh AS DOUBLE) ORDER BY dow))
          FROM g) AS fold
  FROM tot
)
SELECT CAST(n AS BIGINT) AS n_orders, CAST(k AS BIGINT) AS n_groups,
       ROUND((fold - CAST(s AS DOUBLE) * CAST(s AS DOUBLE)
                     / CAST(n AS DOUBLE))
             / (CAST(ss AS DOUBLE)
                - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)),
             6) AS eta2
FROM a
WHERE CAST(ss AS DOUBLE)
      - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE) > 0
"""


# ---------------------------------------------------------------------------
# Longest same-type run per user, histogrammed
# ---------------------------------------------------------------------------


def q_type_run_histogram(sf_dir: str):
    """How many users have a longest same-type event streak of exactly
    k (k capped at 10). Runs are exact islands over the per-user
    (ts, event_id) order."""
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

    def max_run(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["us", "event_id"], kind="mergesort")
        a = d["event_type"].to_numpy()
        best = 1
        run = 1
        for i in range(1, len(a)):
            if a[i] == a[i - 1]:
                run += 1
                if run > best:
                    best = run
            else:
                run = 1
        if best > 10:
            best = 10
        return pd.DataFrame(
            {
                "k": np.array([best], dtype=np.int64),
                "n": np.array([1], dtype=np.int64),
            }
        )

    hist = (
        hash_bucket_aggregate(
            bucketed_map_groups(ev, ["user_id"], max_run),
            ["k"],
            [("n", "sum")],
        )
        .to_pandas()
        .sort_values("k")
    )
    return pd.DataFrame(
        {
            "max_run": hist["k"].astype(np.int64),
            "n_users": hist["n_sum"].astype(np.int64),
        }
    ).reset_index(drop=True)


ORACLES100["type_run_histogram"] = """
WITH seq AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn,
         row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS rt
  FROM events
),
runs AS (
  SELECT user_id, COUNT(*) AS run_len
  FROM seq GROUP BY user_id, event_type, rn - rt
),
mx AS (
  SELECT user_id, LEAST(MAX(run_len), 10) AS k FROM runs GROUP BY 1
)
SELECT CAST(k AS BIGINT) AS max_run,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM mx GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Zero-discount share per brand
# ---------------------------------------------------------------------------


def q_zero_discount_share_by_brand(sf_dir: str):
    """Per p_brand: shipments and the share with zero discount — which
    brands never go on sale.

    Scale shape: lineitem pre-reduces per partkey FIRST (so only |part|
    rows cross the join exchange), then the part dimension attaches via
    one co-partitioned bucketed_join — never a driver dict (part is
    O(sf): 2e7 rows at sf100)."""
    from ..common.raytools import bucketed_join

    def per_part(batch: pd.DataFrame) -> pd.DataFrame:
        bp = np.rint(
            batch["l_discount"].to_numpy(np.float64) * 10000
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "partkey": batch["l_partkey"].astype(np.int64),
                    "n": np.ones(len(bp), dtype=np.int64),
                    "z": (bp == 0).astype(np.int64),
                }
            )
            .groupby("partkey", sort=False)
            .sum()
            .reset_index()
        )

    per_key = hash_bucket_aggregate(
        _read(sf_dir, "lineitem", ["l_partkey", "l_discount"]).map_batches(
            per_part, batch_format="pandas"
        ),
        ["partkey"],
        [("n", "sum"), ("z", "sum")],
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
    joined = bucketed_join(per_key, dim, on=["partkey"])

    def by_brand(batch: pd.DataFrame) -> pd.DataFrame:
        return (
            pd.DataFrame(
                {
                    "brand": batch["brand"].astype(str),
                    "n": batch["n_sum"].astype(np.int64),
                    "z": batch["z_sum"].astype(np.int64),
                }
            )
            .groupby("brand", sort=False)
            .sum()
            .reset_index()
        )

    # brand cardinality is bounded (25), so the driver-side combine is tiny
    agg = (
        joined.map_batches(by_brand, batch_format="pandas")
        .to_pandas()
        .groupby("brand", sort=True)
        .sum()
        .reset_index()
        .rename(columns={"n": "n_sum", "z": "z_sum"})
        .sort_values("brand")
    )
    return pd.DataFrame(
        {
            "brand": agg["brand"].astype(str),
            "n_items": agg["n_sum"].astype(np.int64),
            "n_zero_discount": agg["z_sum"].astype(np.int64),
            "zero_share": _r6away(
                agg["z_sum"].to_numpy(np.float64)
                / agg["n_sum"].to_numpy(np.float64)
            ),
        }
    ).reset_index(drop=True)


ORACLES100["zero_discount_share_by_brand"] = """
SELECT p.p_brand AS brand,
       CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(COUNT(*) FILTER (
         WHERE CAST(ROUND(l.l_discount * 10000) AS BIGINT) = 0
       ) AS BIGINT) AS n_zero_discount,
       ROUND(CAST(COUNT(*) FILTER (
               WHERE CAST(ROUND(l.l_discount * 10000) AS BIGINT) = 0
             ) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6) AS zero_share
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
GROUP BY 1
"""


QUERIES100["order_value_dow_eta2"] = q_order_value_dow_eta2
QUERIES100["type_run_histogram"] = q_type_run_histogram
QUERIES100["zero_discount_share_by_brand"] = q_zero_discount_share_by_brand
