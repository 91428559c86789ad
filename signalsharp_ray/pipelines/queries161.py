"""Round-5 batch 161: stationarity and tail-clustering diagnostics —
the Dickey-Fuller unit-root test (with constant) on each type's hourly
load, and the Ferro-Segers (2003) intervals estimator of the extremal
index (do load extremes arrive in clusters or singly? — the number
that converts a marginal tail quantile into a cluster-aware alerting
budget).

House parity strategy: the DF regression is 2-parameter OLS over
integer counts (exact normal-equation sums, shared float solve, RSS as
an ascending fold); the extremal index is built from integer
interexceedance times above an exact nearest-rank p95 threshold —
integer sums, one float expression, the two-case Ferro-Segers rule
decided on integer comparisons so both engines take the same branch.

Scale contracts: both ride the bounded per-type hourly rollup."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _r6, event_tier

QUERIES161: dict = {}
ORACLES161: dict = {}


def q_adf_level_test(sf_dir: str):
    """Per event_type: Dickey-Fuller test with constant on the hourly
    count series — regress diff(v) on lag(v), t-statistic of the lag
    coefficient (strongly negative = mean-reverting load, near 0 = unit
    root / drifting). Output (event_type, n_obs, gamma, adf_t)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"event_type": [], "n_obs": [], "gamma": [], "adf_t": []}
        )
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        if n < 5:
            return empty
        vl = v[:-1]
        dv = v[1:] - v[:-1]
        m = float(n - 1)
        sx = float(int(vl.sum()))
        sy = float(int(dv.sum()))
        sxx = float(int((vl * vl).sum()))
        sxy = float(int((vl * dv).sum()))
        den = m * sxx - sx * sx
        if den == 0.0:
            return empty
        gam = (m * sxy - sx * sy) / den
        a = (sy - gam * sx) / m
        r = dv.astype(np.float64) - (a + gam * vl.astype(np.float64))
        rss = float(np.cumsum(r * r)[-1])
        s2 = rss / (m - 2.0)
        sxx_c = sxx - sx * sx / m
        if s2 <= 0.0 or sxx_c <= 0.0:
            return empty
        t = gam / math.sqrt(s2 / sxx_c)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_obs": np.array([n - 1], dtype=np.int64),
                "gamma": _r6(np.array([gam])),
                "adf_t": _r6(np.array([t])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES161["adf_level_test"] = q_adf_level_test
ORACLES161["adf_level_test"] = """
WITH s AS (
  SELECT event_type, date_trunc('hour', ts) AS h, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY h) AS vs, COUNT(*) AS n
  FROM s GROUP BY 1 HAVING COUNT(*) >= 5
),
sums AS (
  SELECT event_type, n, vs,
         CAST(n - 1 AS DOUBLE) AS m,
         list_sum(list_transform(range(1, n), t -> vs[t])) AS sx,
         list_sum(list_transform(range(1, n), t -> vs[t + 1] - vs[t])) AS sy,
         list_sum(list_transform(range(1, n), t -> vs[t] * vs[t])) AS sxx,
         list_sum(list_transform(range(1, n),
           t -> vs[t] * (vs[t + 1] - vs[t]))) AS sxy
  FROM a
),
co AS (
  SELECT *,
         (m * sxy - sx * sy) / (m * sxx - sx * sx) AS gam
  FROM sums WHERE m * sxx - sx * sx <> 0
),
co2 AS (SELECT *, (sy - gam * sx) / m AS aa FROM co),
rs AS (
  SELECT event_type, n, m, gam, sx, sxx,
         list_sum(list_transform(range(1, n),
           t -> ((vs[t + 1] - vs[t]) - (aa + gam * vs[t]))
                * ((vs[t + 1] - vs[t]) - (aa + gam * vs[t])))) AS rss
  FROM co2
),
fin AS (
  SELECT event_type, n, gam,
         rss / (m - 2.0) AS s2,
         sxx - sx * sx / m AS sxx_c
  FROM rs
)
SELECT event_type, CAST(n - 1 AS BIGINT) AS n_obs,
       ROUND(gam, 6) AS gamma,
       ROUND(gam / sqrt(s2 / sxx_c), 6) AS adf_t
FROM fin WHERE s2 > 0 AND sxx_c > 0
"""


def q_extremal_index(sf_dir: str):
    """Per event_type: the Ferro-Segers intervals estimator of the
    extremal index over hourly counts exceeding the exact nearest-rank
    p95 threshold (an integer count, so the exceedance set is
    bitwise-identical on both engines). theta ~ 1 = isolated extremes,
    theta << 1 = extremes arrive in clusters of mean size 1/theta.
    Types with fewer than 3 exceedances or a degenerate denominator are
    skipped by BOTH engines. Output (event_type, threshold,
    n_exceedances, theta)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"event_type": [], "threshold": [], "n_exceedances": [],
             "theta": []}
        )
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        srt = np.sort(v)
        u = int(srt[int(math.ceil(0.95 * n)) - 1])  # nearest-rank p95
        pos = np.flatnonzero(v > u) + 1  # 1-based hour indexes
        m = len(pos)
        if m < 3:
            return empty
        T = np.diff(pos).astype(np.int64)  # interexceedance times
        if int(T.max()) <= 2:
            s1 = int(T.sum())
            s2 = int((T * T).sum())
            den = float(len(T)) * float(s2)
            if den == 0.0:
                return empty
            th = min(1.0, 2.0 * float(s1) * float(s1) / den)
        else:
            s1 = int((T - 1).sum())
            s2 = int(((T - 1) * (T - 2)).sum())
            den = float(len(T)) * float(s2)
            if den == 0.0:
                return empty
            th = min(1.0, 2.0 * float(s1) * float(s1) / den)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "threshold": np.array([u], dtype=np.int64),
                "n_exceedances": np.array([m], dtype=np.int64),
                "theta": _r6(np.array([th])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES161["extremal_index"] = q_extremal_index
ORACLES161["extremal_index"] = """
WITH s AS (
  SELECT event_type, date_trunc('hour', ts) AS h, COUNT(*) AS v
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY h) AS k,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM s
),
u AS (
  SELECT event_type, ANY_VALUE(n) AS n,
         MAX(CASE WHEN rr = CAST(CEIL(0.95 * n) AS BIGINT) THEN v END)
           AS thr
  FROM (SELECT event_type, v, n,
               row_number() OVER (PARTITION BY event_type ORDER BY v)
                 AS rr
        FROM r)
  GROUP BY 1
),
ex AS (
  SELECT r.event_type, r.k, u.thr,
         row_number() OVER (PARTITION BY r.event_type ORDER BY r.k) AS i,
         COUNT(*) OVER (PARTITION BY r.event_type) AS m
  FROM r JOIN u USING (event_type) WHERE r.v > u.thr
),
tt AS (
  SELECT event_type, thr, m,
         k - lag(k) OVER (PARTITION BY event_type ORDER BY i) AS t
  FROM ex
),
ag AS (
  SELECT event_type, ANY_VALUE(thr) AS thr, ANY_VALUE(m) AS m,
         COUNT(t) AS nt, MAX(t) AS tmax,
         SUM(t) AS s1a, SUM(t * t) AS s2a,
         SUM(t - 1) AS s1b, SUM((t - 1) * (t - 2)) AS s2b
  FROM tt GROUP BY 1 HAVING ANY_VALUE(m) >= 3
)
SELECT event_type, CAST(thr AS BIGINT) AS threshold,
       CAST(m AS BIGINT) AS n_exceedances,
       ROUND(LEAST(1.0,
         CASE WHEN tmax <= 2
              THEN 2.0 * CAST(s1a AS DOUBLE) * CAST(s1a AS DOUBLE)
                   / (CAST(nt AS DOUBLE) * CAST(s2a AS DOUBLE))
              ELSE 2.0 * CAST(s1b AS DOUBLE) * CAST(s1b AS DOUBLE)
                   / (CAST(nt AS DOUBLE) * CAST(s2b AS DOUBLE)) END), 6)
         AS theta
FROM ag
WHERE (tmax <= 2 AND s2a <> 0) OR (tmax > 2 AND s2b <> 0)
"""
