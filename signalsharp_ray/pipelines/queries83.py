"""Round-3 batch 85: calendar-effect and mix-entropy operators — the
weekend load lift per event_type (mean hourly count on weekends over
weekdays — the effect-size companion to mann_whitney_weekend), the
entropy of the customer base across nations and market segments (how
diversified is the book), and the median event value by day-of-week
(the robust location complement to the mean-based weekday views).

House parity: lifts divide two exact integer-ratio means; entropies
fold ln over integer shares ascending the category; medians run
np.quantile == quantile_cont over integer centivalues.

Scale contracts: all three pre-reduce through one exchange; the
day-of-week median groups centivalues inside bucketed_map_groups per dow.
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

QUERIES83: dict = {}
ORACLES83: dict = {}

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# Weekend load lift per event_type
# ---------------------------------------------------------------------------


def q_weekend_load_lift(sf_dir: str):
    """Per event_type over the dense hourly grid: mean weekend hourly
    count, mean weekday hourly count, and their ratio (the load lift;
    > 1 means busier weekends). Weekend = (epoch day + 3) % 7 >= 5."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "mean_weekday": pd.Series(dtype=np.float64),
             "mean_weekend": pd.Series(dtype=np.float64),
             "lift": pd.Series(dtype=np.float64)}
        )
        wk = ((grid // DAY_US + 3) % 7) >= 5
        n1 = int(wk.sum())
        n0 = int(x.size) - n1
        if n0 == 0 or n1 == 0:
            return empty
        s1 = int(x[wk].sum())
        s0 = int(x[~wk].sum())
        if s0 == 0:
            return empty
        m0 = float(s0) / float(n0)
        m1 = float(s1) / float(n1)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "mean_weekday": [float(_r6away(m0))],
                "mean_weekend": [float(_r6away(m1))],
                "lift": [float(_r6away(m1 / m0))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES83["weekend_load_lift"] = """
WITH """ + _DENSE_1H + """,
lab AS (
  SELECT event_type, x,
         CASE WHEN (epoch_us(b) // 86400000000 + 3) % 7 >= 5
              THEN 1 ELSE 0 END AS wk
  FROM d
),
a AS (
  SELECT event_type,
         COUNT(*) FILTER (WHERE wk = 0) AS n0,
         COUNT(*) FILTER (WHERE wk = 1) AS n1,
         COALESCE(SUM(x) FILTER (WHERE wk = 0), 0) AS s0,
         COALESCE(SUM(x) FILTER (WHERE wk = 1), 0) AS s1
  FROM lab GROUP BY 1
)
SELECT event_type,
       ROUND(CAST(s0 AS DOUBLE) / CAST(n0 AS DOUBLE), 6) AS mean_weekday,
       ROUND(CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE), 6) AS mean_weekend,
       ROUND((CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE))
             / (CAST(s0 AS DOUBLE) / CAST(n0 AS DOUBLE)), 6) AS lift
FROM a WHERE n0 > 0 AND n1 > 0 AND s0 > 0
"""


# ---------------------------------------------------------------------------
# Customer-base entropy across nations and segments
# ---------------------------------------------------------------------------


def q_nation_customer_entropy(sf_dir: str):
    """One global row: Shannon entropy (nats) of the customer
    distribution over nations and over market segments, plus their
    normalized (0-1) forms — concentration of the customer book.
    Entropy folds ascend the category key."""
    cust = _read(sf_dir, "customer", ["c_nationkey", "c_mktsegment"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        n = pd.DataFrame(
            {
                "kind": "n",
                "key": batch["c_nationkey"].astype(np.int64).astype(str),
                "c": np.ones(len(batch), dtype=np.int64),
            }
        )
        s = pd.DataFrame(
            {
                "kind": "s",
                "key": batch["c_mktsegment"].astype(str),
                "c": np.ones(len(batch), dtype=np.int64),
            }
        )
        return (
            pd.concat([n, s], ignore_index=True)
            .groupby(["kind", "key"], sort=False)
            .sum()
            .reset_index()
        )

    agg = hash_bucket_aggregate(
        cust.map_batches(partial, batch_format="pandas"),
        ["kind", "key"],
        [("c", "sum")],
    ).to_pandas()
    out_empty = pd.DataFrame(
        {"n_customers": pd.Series(dtype=np.int64),
         "nation_entropy": pd.Series(dtype=np.float64),
         "nation_entropy_norm": pd.Series(dtype=np.float64),
         "segment_entropy": pd.Series(dtype=np.float64),
         "segment_entropy_norm": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty

    def ent(kind: str):
        g = agg[agg["kind"] == kind].sort_values("key")
        tot = int(g["c_sum"].sum())
        terms = []
        for _, r in g.iterrows():
            p = float(int(r["c_sum"])) / float(tot)
            terms.append(p * math.log(p))
        e = -_fold(terms)
        k = len(g)
        norm = e / math.log(float(k)) if k > 1 else 0.0
        return tot, e, norm

    tot, en, en_n = ent("n")
    _, es, es_n = ent("s")
    return pd.DataFrame(
        {
            "n_customers": np.array([tot], dtype=np.int64),
            "nation_entropy": [float(_r6away(en))],
            "nation_entropy_norm": [float(_r6away(en_n))],
            "segment_entropy": [float(_r6away(es))],
            "segment_entropy_norm": [float(_r6away(es_n))],
        }
    )


ORACLES83["nation_customer_entropy"] = """
WITH n AS (
  SELECT CAST(c_nationkey AS VARCHAR) AS key, COUNT(*) AS c
  FROM customer GROUP BY 1
),
s AS (
  SELECT c_mktsegment AS key, COUNT(*) AS c FROM customer GROUP BY 1
),
tn AS (SELECT SUM(c) AS tot, COUNT(*) AS k FROM n),
ts AS (SELECT SUM(c) AS tot, COUNT(*) AS k FROM s),
en AS (
  SELECT -list_sum(list(
           (CAST(c AS DOUBLE) / CAST(tn.tot AS DOUBLE))
           * ln(CAST(c AS DOUBLE) / CAST(tn.tot AS DOUBLE))
           ORDER BY key)) AS e,
         MAX(tn.k) AS k, MAX(tn.tot) AS tot
  FROM n, tn
),
es AS (
  SELECT -list_sum(list(
           (CAST(c AS DOUBLE) / CAST(ts.tot AS DOUBLE))
           * ln(CAST(c AS DOUBLE) / CAST(ts.tot AS DOUBLE))
           ORDER BY key)) AS e,
         MAX(ts.k) AS k
  FROM s, ts
)
SELECT CAST(en.tot AS BIGINT) AS n_customers,
       ROUND(en.e, 6) AS nation_entropy,
       ROUND(CASE WHEN en.k > 1 THEN en.e / ln(CAST(en.k AS DOUBLE))
                  ELSE 0.0 END, 6) AS nation_entropy_norm,
       ROUND(es.e, 6) AS segment_entropy,
       ROUND(CASE WHEN es.k > 1 THEN es.e / ln(CAST(es.k AS DOUBLE))
                  ELSE 0.0 END, 6) AS segment_entropy_norm
FROM en, es
"""


# ---------------------------------------------------------------------------
# Median event value by day-of-week
# ---------------------------------------------------------------------------


def q_value_median_by_dow(sf_dir: str):
    """Per day-of-week (0=Mon): event count, median and p90 of the
    event value (np.quantile over integer centivalues ==
    quantile_cont, /100 on output)."""
    ev = _events(sf_dir, ["ts", "value"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "dow": (
                    (
                        b["ts"].astype("datetime64[us]").astype("int64")
                        // DAY_US
                        + 3
                    )
                    % 7
                ).astype(np.int64),
                "c": (
                    np.sign(b["value"].to_numpy(np.float64) * 100)
                    * np.floor(
                        np.abs(b["value"].to_numpy(np.float64) * 100) + 0.5
                    )
                ).astype(np.int64),
            }
        ),
        batch_format="pandas",
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        c = df["c"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "dow": np.array([int(df["dow"].iloc[0])], dtype=np.int64),
                "n_events": np.array([len(df)], dtype=np.int64),
                "median_value": [
                    float(_r6away(float(np.quantile(c, 0.5)) / 100.0))
                ],
                "p90_value": [
                    float(_r6away(float(np.quantile(c, 0.9)) / 100.0))
                ],
            }
        )

    return bucketed_map_groups(ev, ["dow"], final)


ORACLES83["value_median_by_dow"] = """
WITH b AS (
  SELECT (epoch_us(ts) // 86400000000 + 3) % 7 AS dow,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
)
SELECT CAST(dow AS BIGINT) AS dow,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(quantile_cont(CAST(c AS DOUBLE), 0.5) / 100.0, 6)
         AS median_value,
       ROUND(quantile_cont(CAST(c AS DOUBLE), 0.9) / 100.0, 6) AS p90_value
FROM b GROUP BY 1
"""


QUERIES83["weekend_load_lift"] = q_weekend_load_lift
QUERIES83["nation_customer_entropy"] = q_nation_customer_entropy
QUERIES83["value_median_by_dow"] = q_value_median_by_dow
