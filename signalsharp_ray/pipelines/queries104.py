"""Round-3 batch 106: persistence-information and behavioural-focus
operators — the lag-1 binary mutual information of each type's hourly
load (MI of the 2x2 above/below-mean transition table, in nats — the
information-theoretic persistence measure next to value_autocorr), the
return rate by unit-price decade band (do pricey items come back), and
the mean per-user peak-hour concentration (how focused each user's
diurnal activity is).

House parity: the binarization threshold is the shared exact-sum mean;
the 2x2 counts are exact integers and the MI folds cell-ascending; the
price bands are half-away unit cents // 1000; the concentration folds
user-ascending rational shares.

Scale contracts: MI reduces per event_type inside bucketed_map_groups; the
band rates and per-user concentrations pre-reduce through one
exchange.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from ..kernels.seasonal import dense_counts
from .queries2 import _events, _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries14 import _fold
from .queries16 import _read
from .queries42 import _unit_cents

QUERIES104: dict = {}
ORACLES104: dict = {}

HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# Lag-1 binary MI of hourly load
# ---------------------------------------------------------------------------


def q_load_persistence_mi(sf_dir: str):
    """Per event_type: mutual information (nats) of the 2x2 table of
    (above-mean at t, above-mean at t+1) over the dense hourly grid —
    zero under independence. Above-mean uses the strict integer
    predicate x * n > S (cross-multiplied, division-free)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_pairs": pd.Series(dtype=np.int64),
             "mi": pd.Series(dtype=np.float64)}
        )
        if n < 3:
            return empty
        S = int(x.sum())
        above = (x.astype(np.int64) * n > S).astype(np.int64)
        a = above[:-1]
        b = above[1:]
        m = len(a)
        cells = {}
        for i_ in (0, 1):
            for j_ in (0, 1):
                cells[(i_, j_)] = int(((a == i_) & (b == j_)).sum())
        row = {i_: cells[(i_, 0)] + cells[(i_, 1)] for i_ in (0, 1)}
        col = {j_: cells[(0, j_)] + cells[(1, j_)] for j_ in (0, 1)}
        terms = []
        for i_ in (0, 1):
            for j_ in (0, 1):
                c = cells[(i_, j_)]
                if c == 0 or row[i_] == 0 or col[j_] == 0:
                    continue
                p = float(c) / float(m)
                terms.append(
                    p
                    * math.log(
                        (float(c) * float(m))
                        / (float(row[i_]) * float(col[j_]))
                    )
                )
        mi = _fold(terms)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_pairs": np.array([m], dtype=np.int64),
                "mi": [float(_r6away(mi))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES104["load_persistence_mi"] = """
WITH """ + _DENSE_1H + """,
s AS (SELECT event_type, COUNT(*) AS n, SUM(x) AS sx FROM d GROUP BY 1
      HAVING COUNT(*) >= 3),
lab AS (
  SELECT d.event_type, d.idx,
         CASE WHEN d.x * s.n > s.sx THEN 1 ELSE 0 END AS ab
  FROM d JOIN s USING (event_type)
),
pairs AS (
  SELECT a.event_type, a.ab AS i, b.ab AS j
  FROM lab a JOIN lab b ON b.event_type = a.event_type
                       AND b.idx = a.idx + 1
),
cells AS (
  SELECT event_type, i, j, COUNT(*) AS c FROM pairs GROUP BY 1, 2, 3
),
marg AS (
  SELECT event_type, i, j, c,
         CAST(SUM(c) OVER (PARTITION BY event_type, i) AS BIGINT) AS ri,
         CAST(SUM(c) OVER (PARTITION BY event_type, j) AS BIGINT) AS cj,
         CAST(SUM(c) OVER (PARTITION BY event_type) AS BIGINT) AS m
  FROM cells
)
SELECT event_type, CAST(MAX(m) AS BIGINT) AS n_pairs,
       ROUND(COALESCE(list_sum(list(
         (CAST(c AS DOUBLE) / CAST(m AS DOUBLE))
         * ln((CAST(c AS DOUBLE) * CAST(m AS DOUBLE))
              / (CAST(ri AS DOUBLE) * CAST(cj AS DOUBLE)))
         ORDER BY i, j)), 0.0), 6) AS mi
FROM marg GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Return rate by unit-price band
# ---------------------------------------------------------------------------


def q_return_rate_by_price_band(sf_dir: str):
    """Per $10 unit-price band (half-away unit cents // 1000): item
    count, returns, and the return rate."""
    li = _read(
        sf_dir, "lineitem",
        ["l_extendedprice", "l_quantity", "l_returnflag"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        up = _unit_cents(
            batch["l_extendedprice"].to_numpy(np.float64),
            batch["l_quantity"].to_numpy(np.float64),
        )
        return (
            pd.DataFrame(
                {
                    "band": up // 1000,
                    "n": np.ones(len(up), dtype=np.int64),
                    "r": (batch["l_returnflag"] == "R").astype(np.int64),
                }
            )
            .groupby("band", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            li.map_batches(partial, batch_format="pandas"),
            ["band"],
            [("n", "sum"), ("r", "sum")],
        )
        .to_pandas()
        .sort_values("band")
    )
    return pd.DataFrame(
        {
            "price_band": agg["band"].astype(np.int64),
            "n_items": agg["n_sum"].astype(np.int64),
            "n_returned": agg["r_sum"].astype(np.int64),
            "return_rate": _r6away(
                agg["r_sum"].to_numpy(np.float64)
                / agg["n_sum"].to_numpy(np.float64)
            ),
        }
    ).reset_index(drop=True)


ORACLES104["return_rate_by_price_band"] = """
WITH b AS (
  SELECT CAST(ROUND(l_extendedprice / l_quantity * 100.0) AS BIGINT) // 1000
           AS band,
         CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END AS r
  FROM lineitem
)
SELECT CAST(band AS BIGINT) AS price_band,
       CAST(COUNT(*) AS BIGINT) AS n_items,
       CAST(SUM(r) AS BIGINT) AS n_returned,
       ROUND(CAST(SUM(r) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE), 6)
         AS return_rate
FROM b GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Mean user peak-hour concentration
# ---------------------------------------------------------------------------


def q_user_peak_hour_share(sf_dir: str):
    """One global row: over users with >= 5 events, the mean share of
    a user's events falling in their single busiest hour-of-day
    (max hod count / total; earliest hod on ties is irrelevant to the
    max). User-ascending fold."""
    ev = _events(sf_dir, ["user_id", "ts"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "hod": (
                    (
                        b["ts"].astype("datetime64[us]").astype("int64")
                        // HOUR_US
                    )
                    % 24
                ).astype(np.int64),
                "n": np.ones(len(b), dtype=np.int64),
            }
        )
        .groupby(["user_id", "hod"], sort=False)
        .sum()
        .reset_index(),
        batch_format="pandas",
    )
    agg = hash_bucket_aggregate(
        ev, ["user_id", "hod"], [("n", "sum")]
    ).to_pandas()
    out_empty = pd.DataFrame(
        {"n_users": pd.Series(dtype=np.int64),
         "mean_peak_share": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    per_user = agg.groupby("user_id")["n_sum"].agg(["sum", "max"])
    per_user = per_user[per_user["sum"] >= 5].sort_index()
    k = len(per_user)
    if k == 0:
        return out_empty
    shares = [
        float(int(mx)) / float(int(tot))
        for tot, mx in zip(per_user["sum"], per_user["max"])
    ]
    return pd.DataFrame(
        {
            "n_users": np.array([k], dtype=np.int64),
            "mean_peak_share": [float(_r6away(_fold(shares) / float(k)))],
        }
    )


ORACLES104["user_peak_hour_share"] = """
WITH c AS (
  SELECT user_id, (epoch_us(ts) // 3600000000) % 24 AS hod,
         COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
u AS (
  SELECT user_id, SUM(n) AS tot, MAX(n) AS mx
  FROM c GROUP BY 1 HAVING SUM(n) >= 5
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_users,
       ROUND(list_sum(list(CAST(mx AS DOUBLE) / CAST(tot AS DOUBLE)
                           ORDER BY user_id))
             / CAST(COUNT(*) AS DOUBLE), 6) AS mean_peak_share
FROM u
"""


QUERIES104["load_persistence_mi"] = q_load_persistence_mi
QUERIES104["return_rate_by_price_band"] = q_return_rate_by_price_band
QUERIES104["user_peak_hour_share"] = q_user_peak_hour_share
