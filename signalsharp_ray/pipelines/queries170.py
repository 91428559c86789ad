"""Round-5 batch 170: cross-stream agreement — Kendall's coefficient of
concordance W (do ALL event types agree on which days were busy? the
k-judge generalization of rank correlation) and Cohen's kappa between
the two busiest streams' binarized busy-hours (above own median),
chance-corrected agreement.

House parity strategy: ranks are deterministic integers (count ASC,
day ASC row_number — ties broken identically on both engines), so
Kendall's S is exact up to dyadic .5 deviations; kappa is built from
four exact contingency counts with medians of integer counts (exact
half-integers) as thresholds; each query ends in one shared float
expression.

Scale contracts: both consume the bounded per-type rollups."""

from __future__ import annotations

import numpy as np
import pandas as pd

from .queries2 import _r6, event_tier

QUERIES170: dict = {}
ORACLES170: dict = {}


def q_kendall_w_types(sf_dir: str):
    """Kendall's W over the daily count rankings of all event types,
    restricted to days every type was active: rank days within each
    type by (count ASC, day ASC), sum ranks per day, W = 12 S /
    (k^2 (n^3 - n)) with S the squared deviation of rank sums from
    k(n+1)/2. W = 1 means every stream agrees on the busy-day order.
    Output (n_days, n_types, w, chi2)."""
    dc = event_tier(sf_dir, "1d").to_pandas()
    dc["day"] = dc["bucket_ts"].to_numpy("datetime64[us]").astype(
        "datetime64[D]"
    )
    k_types = dc["event_type"].nunique()
    day_counts = dc.groupby("day")["event_type"].nunique()
    full_days = set(day_counts[day_counts == k_types].index)
    dc = dc[dc["day"].isin(full_days)]
    n = len(full_days)
    if n < 3:
        return pd.DataFrame(
            {"n_days": [], "n_types": [], "w": [], "chi2": []}
        )
    dc = dc.sort_values(["event_type", "count", "day"])
    dc["rank"] = dc.groupby("event_type").cumcount() + 1
    rsum = dc.groupby("day")["rank"].sum().astype(np.int64)
    mean = float(k_types) * float(n + 1) / 2.0
    s = 0.0
    for d in sorted(rsum.index):  # ascending-day fold (dyadic exact)
        dev = float(rsum[d]) - mean
        s += dev * dev
    w = 12.0 * s / (
        float(k_types) * float(k_types) * (float(n) ** 3 - float(n))
    )
    chi2 = float(k_types) * float(n - 1) * w
    return pd.DataFrame(
        {
            "n_days": np.array([n], dtype=np.int64),
            "n_types": np.array([k_types], dtype=np.int64),
            "w": _r6(np.array([w])),
            "chi2": _r6(np.array([chi2])),
        }
    )


QUERIES170["kendall_w_types"] = q_kendall_w_types
ORACLES170["kendall_w_types"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, COUNT(*) AS v
  FROM events GROUP BY 1, 2
),
kt AS (SELECT COUNT(DISTINCT event_type) AS k FROM s),
fd AS (
  SELECT d FROM s, kt GROUP BY d, kt.k
  HAVING COUNT(DISTINCT event_type) = ANY_VALUE(kt.k)
),
r AS (
  SELECT s.event_type, s.d,
         row_number() OVER (PARTITION BY s.event_type
                            ORDER BY s.v ASC, s.d ASC) AS rnk
  FROM s JOIN fd USING (d)
),
rs AS (SELECT d, SUM(rnk) AS rsum FROM r GROUP BY 1),
nn AS (SELECT COUNT(*) AS n FROM rs),
dev AS (
  SELECT rs.d,
         (CAST(rs.rsum AS DOUBLE)
          - CAST(kt.k AS DOUBLE) * CAST(nn.n + 1 AS DOUBLE) / 2.0)
         * (CAST(rs.rsum AS DOUBLE)
            - CAST(kt.k AS DOUBLE) * CAST(nn.n + 1 AS DOUBLE) / 2.0)
           AS sq
  FROM rs, kt, nn
),
agg AS (SELECT list_sum(list(sq ORDER BY d)) AS s2 FROM dev)
SELECT CAST(nn.n AS BIGINT) AS n_days,
       CAST(kt.k AS BIGINT) AS n_types,
       ROUND(12.0 * agg.s2
             / (CAST(kt.k AS DOUBLE) * CAST(kt.k AS DOUBLE)
                * (pow(CAST(nn.n AS DOUBLE), 3) - CAST(nn.n AS DOUBLE))),
             6) AS w,
       ROUND(CAST(kt.k AS DOUBLE) * CAST(nn.n - 1 AS DOUBLE)
             * (12.0 * agg.s2
                / (CAST(kt.k AS DOUBLE) * CAST(kt.k AS DOUBLE)
                   * (pow(CAST(nn.n AS DOUBLE), 3)
                      - CAST(nn.n AS DOUBLE)))), 6) AS chi2
FROM nn, kt, agg
WHERE nn.n >= 3
"""


def q_cohens_kappa_busy(sf_dir: str):
    """Cohen's kappa between the two busiest streams' busy-hour
    indicators (count > own median over their common hours):
    chance-corrected agreement on WHEN the system is busy. Output
    (type_a, type_b, n_hours, p_observed, p_expected, kappa)."""
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
    ma = float(np.median(x))
    mb = float(np.median(y))
    ba = x > ma
    bb = y > mb
    n11 = int((ba & bb).sum())
    n00 = int((~ba & ~bb).sum())
    n1a = int(ba.sum())
    n1b = int(bb.sum())
    po = float(n11 + n00) / float(n)
    pe = (
        float(n1a) * float(n1b) / (float(n) * float(n))
        + float(n - n1a) * float(n - n1b) / (float(n) * float(n))
    )
    if pe == 1.0:
        return pd.DataFrame(
            {"type_a": [], "type_b": [], "n_hours": [], "p_observed": [],
             "p_expected": [], "kappa": []}
        )
    kappa = (po - pe) / (1.0 - pe)
    return pd.DataFrame(
        {
            "type_a": [a],
            "type_b": [b],
            "n_hours": np.array([n], dtype=np.int64),
            "p_observed": _r6(np.array([po])),
            "p_expected": _r6(np.array([pe])),
            "kappa": _r6(np.array([kappa])),
        }
    )


QUERIES170["cohens_kappa_busy"] = q_cohens_kappa_busy
ORACLES170["cohens_kappa_busy"] = """
WITH tc AS (SELECT event_type, COUNT(*) AS n FROM events GROUP BY 1),
t2 AS (
  SELECT event_type,
         row_number() OVER (ORDER BY n DESC, event_type ASC) AS rk
  FROM tc QUALIFY rk <= 2
),
hc AS (
  SELECT event_type, date_trunc('hour', ts) AS h,
         CAST(COUNT(*) AS DOUBLE) AS v
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
m AS (SELECT MEDIAN(x) AS ma, MEDIAN(y) AS mb, COUNT(*) AS n FROM j),
c AS (
  SELECT m.n,
         COUNT(*) FILTER (WHERE j.x > m.ma AND j.y > m.mb) AS n11,
         COUNT(*) FILTER (WHERE j.x <= m.ma AND j.y <= m.mb) AS n00,
         COUNT(*) FILTER (WHERE j.x > m.ma) AS n1a,
         COUNT(*) FILTER (WHERE j.y > m.mb) AS n1b
  FROM j, m GROUP BY m.n
),
p AS (
  SELECT n, CAST(n11 + n00 AS DOUBLE) / CAST(n AS DOUBLE) AS po,
         CAST(n1a AS DOUBLE) * CAST(n1b AS DOUBLE)
           / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE))
         + CAST(n - n1a AS DOUBLE) * CAST(n - n1b AS DOUBLE)
           / (CAST(n AS DOUBLE) * CAST(n AS DOUBLE)) AS pe
  FROM c
)
SELECT (SELECT event_type FROM t2 WHERE rk = 1) AS type_a,
       (SELECT event_type FROM t2 WHERE rk = 2) AS type_b,
       CAST(n AS BIGINT) AS n_hours,
       ROUND(po, 6) AS p_observed,
       ROUND(pe, 6) AS p_expected,
       ROUND((po - pe) / (1.0 - pe), 6) AS kappa
FROM p WHERE pe <> 1.0
"""
