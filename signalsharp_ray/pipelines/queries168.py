"""Round-5 batch 168: drawdown anatomy and tail co-movement — the
duration structure of underwater periods (how LONG the daily load
stays below its running peak; max_drawdown already measures how DEEP),
and the empirical upper-tail dependence between the two busiest
streams (when one spikes past its p95, how often does the other? —
the co-failure number marginal quantiles cannot give you).

House parity strategy: both are integer-exact end-to-end — running
maxima, underwater run lengths (gaps-and-islands on integer indexes),
nearest-rank p95 thresholds and exceedance counts; each query has one
final float ratio shared verbatim.

Scale contracts: both ride the bounded per-type rollups; the island
grouping is a window computation inside a bounded series."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _r6, event_tier

QUERIES168: dict = {}
ORACLES168: dict = {}


def q_drawdown_durations(sf_dir: str):
    """Per event_type: duration anatomy of drawdowns in the daily
    count series — a day is underwater when its count is strictly
    below the running maximum so far; consecutive underwater days form
    a drawdown. Output (event_type, n_days, n_drawdowns, longest_days,
    total_underwater_days, underwater_share)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        run_max = np.maximum.accumulate(v)
        under = v < run_max
        n_dd = 0
        longest = 0
        cur = 0
        for u in under:
            if u:
                cur += 1
                if cur == 1:
                    n_dd += 1
                if cur > longest:
                    longest = cur
            else:
                cur = 0
        total = int(under.sum())
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_days": np.array([n], dtype=np.int64),
                "n_drawdowns": np.array([n_dd], dtype=np.int64),
                "longest_days": np.array([longest], dtype=np.int64),
                "total_underwater_days": np.array([total], dtype=np.int64),
                "underwater_share": _r6(
                    np.array([float(total) / float(n)])
                ),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


QUERIES168["drawdown_durations"] = q_drawdown_durations
ORACLES168["drawdown_durations"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, COUNT(*) AS v
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY d) AS k,
         MAX(v) OVER (PARTITION BY event_type ORDER BY d) AS run_max,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM s
),
u AS (
  SELECT event_type, k, n,
         CASE WHEN v < run_max THEN 1 ELSE 0 END AS under
  FROM r
),
isl AS (
  SELECT event_type, n, under,
         k - row_number() OVER (PARTITION BY event_type, under
                                ORDER BY k) AS grp
  FROM u
),
runs AS (
  SELECT event_type, ANY_VALUE(n) AS n, COUNT(*) AS len
  FROM isl WHERE under = 1 GROUP BY event_type, grp
),
agg AS (
  SELECT event_type, ANY_VALUE(n) AS n, COUNT(*) AS n_dd,
         MAX(len) AS longest, SUM(len) AS total
  FROM runs GROUP BY 1
),
allt AS (
  SELECT DISTINCT event_type, n FROM u
)
SELECT allt.event_type, CAST(allt.n AS BIGINT) AS n_days,
       CAST(COALESCE(agg.n_dd, 0) AS BIGINT) AS n_drawdowns,
       CAST(COALESCE(agg.longest, 0) AS BIGINT) AS longest_days,
       CAST(COALESCE(agg.total, 0) AS BIGINT) AS total_underwater_days,
       ROUND(CAST(COALESCE(agg.total, 0) AS DOUBLE)
             / CAST(allt.n AS DOUBLE), 6) AS underwater_share
FROM allt LEFT JOIN agg USING (event_type)
"""


def q_tail_dependence(sf_dir: str):
    """Empirical upper-tail dependence between the two busiest event
    types on their common hours: thresholds are each series' exact
    nearest-rank p95; lambda_u = P(both exceed) / P(busiest exceeds).
    Output (type_a, type_b, n_hours, qa, qb, n_a_exc, n_joint,
    lambda_u)."""
    hc = event_tier(sf_dir, "1h").to_pandas()
    totals = hc.groupby("event_type")["count"].sum().astype(np.int64)
    order = sorted(totals.index, key=lambda t: (-int(totals[t]), t))
    a, b = order[0], order[1]
    pa_ = hc[hc["event_type"] == a].set_index("bucket_ts")["count"]
    pb_ = hc[hc["event_type"] == b].set_index("bucket_ts")["count"]
    common = pa_.index.intersection(pb_.index).sort_values()
    x = pa_.loc[common].to_numpy(np.int64)
    y = pb_.loc[common].to_numpy(np.int64)
    n = len(x)
    qa = int(np.sort(x)[int(math.ceil(0.95 * n)) - 1])
    qb = int(np.sort(y)[int(math.ceil(0.95 * n)) - 1])
    n_a = int((x > qa).sum())
    n_joint = int(((x > qa) & (y > qb)).sum())
    lam = float(n_joint) / float(n_a) if n_a > 0 else 0.0
    return pd.DataFrame(
        {
            "type_a": [a],
            "type_b": [b],
            "n_hours": np.array([n], dtype=np.int64),
            "qa": np.array([qa], dtype=np.int64),
            "qb": np.array([qb], dtype=np.int64),
            "n_a_exc": np.array([n_a], dtype=np.int64),
            "n_joint": np.array([n_joint], dtype=np.int64),
            "lambda_u": _r6(np.array([lam])),
        }
    )


QUERIES168["tail_dependence"] = q_tail_dependence
ORACLES168["tail_dependence"] = """
WITH tc AS (SELECT event_type, COUNT(*) AS n FROM events GROUP BY 1),
t2 AS (
  SELECT event_type,
         row_number() OVER (ORDER BY n DESC, event_type ASC) AS rk
  FROM tc QUALIFY rk <= 2
),
hc AS (
  SELECT event_type, date_trunc('hour', ts) AS h, COUNT(*) AS v
  FROM events WHERE event_type IN (SELECT event_type FROM t2)
  GROUP BY 1, 2
),
j AS (
  SELECT a.h, a.v AS x, b.v AS y
  FROM (SELECT h, v FROM hc
        WHERE event_type = (SELECT event_type FROM t2 WHERE rk = 1)) a
  JOIN (SELECT h, v FROM hc
        WHERE event_type = (SELECT event_type FROM t2 WHERE rk = 2)) b
  USING (h)
),
nn AS (SELECT COUNT(*) AS n FROM j),
qa_ AS (
  SELECT x AS qa FROM (
    SELECT x, row_number() OVER (ORDER BY x) AS r FROM j
  ), nn WHERE r = CAST(CEIL(0.95 * nn.n) AS BIGINT)
),
qb_ AS (
  SELECT y AS qb FROM (
    SELECT y, row_number() OVER (ORDER BY y) AS r FROM j
  ), nn WHERE r = CAST(CEIL(0.95 * nn.n) AS BIGINT)
),
cnt AS (
  SELECT COUNT(*) FILTER (WHERE j.x > qa_.qa) AS n_a,
         COUNT(*) FILTER (WHERE j.x > qa_.qa AND j.y > qb_.qb) AS n_joint
  FROM j, qa_, qb_
)
SELECT (SELECT event_type FROM t2 WHERE rk = 1) AS type_a,
       (SELECT event_type FROM t2 WHERE rk = 2) AS type_b,
       CAST(nn.n AS BIGINT) AS n_hours,
       CAST(qa_.qa AS BIGINT) AS qa,
       CAST(qb_.qb AS BIGINT) AS qb,
       CAST(cnt.n_a AS BIGINT) AS n_a_exc,
       CAST(cnt.n_joint AS BIGINT) AS n_joint,
       ROUND(CASE WHEN cnt.n_a > 0
                  THEN CAST(cnt.n_joint AS DOUBLE) / CAST(cnt.n_a AS DOUBLE)
                  ELSE 0.0 END, 6) AS lambda_u
FROM nn, qa_, qb_, cnt
"""
