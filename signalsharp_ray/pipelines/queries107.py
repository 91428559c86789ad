"""Round-3 batch 109: momentum and onboarding operators — the
order-value momentum (share of consecutive same-customer order pairs
that grow, plus the mean change), the short-document share per
language (sub-100-char fragments), and the mean share of a user's
events landing in their first 24 hours (onboarding burst intensity).

House parity: order pairs follow the (o_orderdate, o_orderkey) total
order with exact cents differences; short-doc predicates are exact
integer length comparisons; first-day shares are exact integer ratios
folded user-ascending.

Scale contracts: pairs and shares reduce per entity inside bucketed_map_groups
or one exchange; everything emitted is bounded.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _documents, _events, _r6away
from .queries4 import _cents
from .queries14 import _fold
from .queries16 import _read

QUERIES107: dict = {}
ORACLES107: dict = {}

DAY_US = 86_400_000_000
SHORT_LEN = 100


# ---------------------------------------------------------------------------
# Order value momentum
# ---------------------------------------------------------------------------


def q_order_value_momentum(sf_dir: str):
    """One global row: consecutive same-customer order pairs, the share
    where the later order is strictly larger, and the mean signed
    change in dollars."""
    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate",
                           "o_totalprice"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["o_custkey"].astype(np.int64),
                "orderkey": b["o_orderkey"].astype(np.int64),
                "us": b["o_orderdate"].astype("datetime64[us]").astype("int64"),
                "cents": _cents(b["o_totalprice"]),
            }
        ),
        batch_format="pandas",
    )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["us", "orderkey"], kind="mergesort")
        c = d["cents"].to_numpy(np.int64)
        if len(c) < 2:
            return pd.DataFrame(
                {"n": pd.Series(dtype=np.int64),
                 "up": pd.Series(dtype=np.int64),
                 "diff": pd.Series(dtype=np.int64)}
            )
        dv = c[1:] - c[:-1]
        return pd.DataFrame(
            {
                "n": np.array([len(dv)], dtype=np.int64),
                "up": np.array([int((dv > 0).sum())], dtype=np.int64),
                "diff": np.array([int(dv.sum())], dtype=np.int64),
            }
        )

    parts = (
        bucketed_map_groups(orders, ["custkey"], pairs)
        .to_pandas()
    )
    out_empty = pd.DataFrame(
        {"n_pairs": pd.Series(dtype=np.int64),
         "up_share": pd.Series(dtype=np.float64),
         "mean_change": pd.Series(dtype=np.float64)}
    )
    n = int(parts["n"].sum()) if len(parts) else 0
    if n == 0:
        return out_empty
    up = int(parts["up"].sum())
    diff = int(parts["diff"].sum())
    return pd.DataFrame(
        {
            "n_pairs": np.array([n], dtype=np.int64),
            "up_share": [float(_r6away(float(up) / float(n)))],
            "mean_change": [
                float(_r6away(float(diff) / float(n) / 100.0))
            ],
        }
    )


ORACLES107["order_value_momentum"] = """
WITH seq AS (
  SELECT o_custkey,
         CAST(ROUND(o_totalprice * 100) AS BIGINT) AS c,
         lag(CAST(ROUND(o_totalprice * 100) AS BIGINT))
           OVER (PARTITION BY o_custkey
                 ORDER BY o_orderdate, o_orderkey) AS prev
  FROM orders
),
p AS (SELECT c - prev AS dv FROM seq WHERE prev IS NOT NULL)
SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
       ROUND(CAST(COUNT(*) FILTER (WHERE dv > 0) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS up_share,
       ROUND(CAST(SUM(dv) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) / 100.0, 6)
         AS mean_change
FROM p
HAVING COUNT(*) > 0
"""


# ---------------------------------------------------------------------------
# Short-document share per language
# ---------------------------------------------------------------------------


def q_short_doc_share_by_lang(sf_dir: str):
    """Per language: docs, docs under 100 chars, and the share —
    fragment pollution by language."""
    docs = _documents(sf_dir, ["lang", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        L = batch["n_chars"].astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "lang": batch["lang"],
                    "n": np.ones(len(L), dtype=np.int64),
                    "s": (L < SHORT_LEN).astype(np.int64),
                }
            )
            .groupby("lang", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            docs.map_batches(partial, batch_format="pandas"),
            ["lang"],
            [("n", "sum"), ("s", "sum")],
        )
        .to_pandas()
        .sort_values("lang")
    )
    return pd.DataFrame(
        {
            "lang": agg["lang"].astype(str),
            "n_docs": agg["n_sum"].astype(np.int64),
            "n_short": agg["s_sum"].astype(np.int64),
            "short_share": _r6away(
                agg["s_sum"].to_numpy(np.float64)
                / agg["n_sum"].to_numpy(np.float64)
            ),
        }
    ).reset_index(drop=True)


ORACLES107["short_doc_share_by_lang"] = """
SELECT lang, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(COUNT(*) FILTER (WHERE n_chars < 100) AS BIGINT) AS n_short,
       ROUND(CAST(COUNT(*) FILTER (WHERE n_chars < 100) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS short_share
FROM documents GROUP BY 1
"""


# ---------------------------------------------------------------------------
# First-day activity share
# ---------------------------------------------------------------------------


def q_first_day_activity_share(sf_dir: str):
    """One global row: over users with >= 2 events, the mean share of
    their events inside the 24 hours after their first event —
    onboarding burst. User-ascending fold."""
    ev = _events(sf_dir, ["user_id", "ts"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "us": b["ts"].astype("datetime64[us]").astype("int64"),
            }
        ),
        batch_format="pandas",
    )

    def share(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) < 2:
            return pd.DataFrame(
                {"user_id": pd.Series(dtype=np.int64),
                 "sh": pd.Series(dtype=np.float64)}
            )
        us = df["us"].to_numpy(np.int64)
        first = int(us.min())
        n = len(us)
        inday = int((us < first + DAY_US).sum())
        return pd.DataFrame(
            {
                "user_id": np.array(
                    [int(df["user_id"].iloc[0])], dtype=np.int64
                ),
                "sh": [float(inday) / float(n)],
            }
        )

    per_user = (
        bucketed_map_groups(ev, ["user_id"], share)
        .to_pandas()
        .sort_values("user_id")
    )
    out_empty = pd.DataFrame(
        {"n_users": pd.Series(dtype=np.int64),
         "mean_first_day_share": pd.Series(dtype=np.float64)}
    )
    k = len(per_user)
    if k == 0:
        return out_empty
    return pd.DataFrame(
        {
            "n_users": np.array([k], dtype=np.int64),
            "mean_first_day_share": [
                float(_r6away(_fold(per_user["sh"].tolist()) / float(k)))
            ],
        }
    )


ORACLES107["first_day_activity_share"] = """
WITH u AS (
  SELECT user_id, epoch_us(ts) AS us,
         MIN(epoch_us(ts)) OVER (PARTITION BY user_id) AS first,
         COUNT(*) OVER (PARTITION BY user_id) AS n
  FROM events
),
s AS (
  SELECT user_id,
         CAST(COUNT(*) FILTER (WHERE us < first + 86400000000) AS DOUBLE)
           / CAST(MAX(n) AS DOUBLE) AS sh
  FROM u WHERE n >= 2 GROUP BY 1
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_users,
       ROUND(list_sum(list(sh ORDER BY user_id))
             / CAST(COUNT(*) AS DOUBLE), 6) AS mean_first_day_share
FROM s
HAVING COUNT(*) > 0
"""


QUERIES107["order_value_momentum"] = q_order_value_momentum
QUERIES107["short_doc_share_by_lang"] = q_short_doc_share_by_lang
QUERIES107["first_day_activity_share"] = q_first_day_activity_share
