"""Round-5 batch 154: long-memory, control-chart and intermittent-demand
diagnostics on the event streams — Hurst exponent (aggregated-variance
method), EWMA control chart (the classic Roberts/Lucas-Saccucci chart
with exact time-varying limits), Croston's intermittent-demand forecast
(with the Syntetos-Boylan SBA correction), and the theta-method forecast
(Assimakopoulos & Nikolopoulos 2000, the M3 winner: average of the SES
forecast of the theta=2 line and the linear-trend extrapolation).

House parity strategy: hourly/daily counts are integer-valued doubles so
distributed sums are exact in any association; every float fold is an
ascending-index left fold (== DuckDB list_sum over an ordered list);
ln/sqrt/pow through libm (math.*); sequential recursions (EWMA, Croston,
theta's SES) replayed bitwise by recursive-CTE oracles (the EMA/Kalman
pattern); OLS slopes computed from exact integer sums with the identical
closed-form op order on both engines.

Scale contracts: all four ride bounded per-key rollup series (hourly or
daily counts per event_type — catalog x retention rows, never raw
events) built by the same streaming exchange as every other series
kernel; per-series work is O(n) or O(n log n); Croston's driver-side
recursion runs on the post-exchange (event_type, day) aggregate, which
is catalog x retention-bounded (150 rows here, never row-scaled).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _events, _r6, event_tier

QUERIES154: dict = {}
ORACLES154: dict = {}


_HURST_MS = (1, 2, 4, 8, 16)


def q_hurst_exponent(sf_dir: str):
    """Per event_type: Hurst exponent of the hourly count series by the
    aggregated-variance method — Var(X^(m)) ~ m^(2H-2), so H = 1 +
    slope/2 where slope is the OLS fit of ln Var(block means of size m)
    on ln m over m in {1,2,4,8,16}. Block sums are exact integers; block
    means are exact dyadic rationals (m is a power of two); the variance
    and OLS folds are ascending so the SQL list_sum transcription is
    bitwise. Groups where any block variance degenerates to <= 0 are
    skipped by BOTH engines."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        xs, ys = [], []
        for m in _HURST_MS:
            k = n // m
            if k < 2:
                return pd.DataFrame(
                    {"event_type": [], "hurst": []}
                )
            sums = v[: k * m].reshape(k, m).sum(axis=1)  # exact int64
            means = sums / float(m)  # dyadic => exact
            # ascending-j folds == list_sum over list(... ORDER BY j)
            ssq = float(np.cumsum(means * means)[-1])
            sm = float(np.cumsum(means)[-1])
            var = (ssq - sm * sm / float(k)) / float(k)
            if var <= 0.0:
                return pd.DataFrame({"event_type": [], "hurst": []})
            xs.append(math.log(float(m)))
            ys.append(math.log(var))
        sx = sy = sxy = sxx = 0.0
        for x in xs:  # ascending-m folds, mirrored by list_sum ORDER BY m
            sx += x
        for y in ys:
            sy += y
        for x, y in zip(xs, ys):
            sxy += x * y
        for x in xs:
            sxx += x * x
        slope = (sxy - sx * sy / 5.0) / (sxx - sx * sx / 5.0)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "hurst": _r6(np.array([1.0 + slope / 2.0])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES154["hurst_aggvar"] = q_hurst_exponent
ORACLES154["hurst_aggvar"] = """
WITH s AS (
  SELECT event_type, date_trunc('hour', ts) AS h, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (SELECT event_type, list(v ORDER BY h) AS vs, COUNT(*) AS n FROM s GROUP BY 1),
m AS (SELECT a.*, t.m FROM a, UNNEST([1, 2, 4, 8, 16]) AS t(m)),
b AS (
  SELECT event_type, m, n // m AS k,
         list_transform(range(0, n // m),
           j -> list_sum(list_transform(range(0, m), i -> vs[j * m + i + 1])) / m)
           AS means
  FROM m WHERE n // m >= 2
),
v AS (
  SELECT event_type, m, k,
         list_sum(list_transform(means, x -> x * x)) AS ssq,
         list_sum(means) AS sm
  FROM b
),
vr AS (SELECT event_type, m, (ssq - sm * sm / k) / k AS var FROM v),
g AS (
  SELECT event_type,
         list(ln(CAST(m AS DOUBLE)) ORDER BY m) AS xs,
         list(ln(var) ORDER BY m) AS ys
  FROM vr GROUP BY 1 HAVING MIN(var) > 0 AND COUNT(*) = 5
),
o AS (
  SELECT event_type,
         list_sum(xs) AS sx, list_sum(ys) AS sy,
         list_sum(list_transform(range(0, 5), i -> xs[i + 1] * ys[i + 1])) AS sxy,
         list_sum(list_transform(xs, x -> x * x)) AS sxx
  FROM g
)
SELECT event_type,
       ROUND(1.0 + ((sxy - sx * sy / 5.0) / (sxx - sx * sx / 5.0)) / 2.0, 6)
         AS hurst
FROM o
"""


def q_ewma_chart(sf_dir: str):
    """Per event_type: EWMA control chart (lambda=0.2, L=3) over the
    hourly count series. z_t = 0.2 v_t + 0.8 z_{t-1} with z_{-1} = the
    series mean; the control limits use the exact finite-t variance
    factor (1 - 0.8^(2(t+1))). Emits EVERY point with its chart state so
    the result is hash-stable regardless of how rare violations are:
    (event_type, idx, ewma, ucl, lcl, out_of_control)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        sv = int(v.sum())
        svv = int((v * v).sum())
        mu = sv / float(n)
        sigma = math.sqrt((svv - sv * float(sv) / n) / n)
        z = mu
        zs = np.empty(n)
        ucl = np.empty(n)
        lcl = np.empty(n)
        flag = np.empty(n, dtype=np.int64)
        for t in range(n):
            z = 0.2 * float(v[t]) + 0.8 * z
            hw = 3.0 * sigma * math.sqrt(
                (0.2 / 1.8) * (1.0 - math.pow(0.8, 2 * (t + 1)))
            )
            u, l = mu + hw, mu - hw
            zs[t] = z
            ucl[t] = u
            lcl[t] = l
            flag[t] = 1 if (z > u or z < l) else 0
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], n),
                "idx": np.arange(n, dtype=np.int64),
                "ewma": _r6(zs),
                "ucl": _r6(ucl),
                "lcl": _r6(lcl),
                "out_of_control": flag,
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES154["ewma_chart"] = q_ewma_chart
ORACLES154["ewma_chart"] = """
WITH RECURSIVE s AS MATERIALIZED (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY h) - 1 AS idx
  FROM (SELECT event_type, date_trunc('hour', ts) AS h,
               CAST(COUNT(*) AS DOUBLE) AS v
        FROM events GROUP BY 1, 2)
),
mu AS (
  SELECT event_type, COUNT(*) AS n, SUM(v) AS sv, SUM(v * v) AS svv,
         SUM(v) / COUNT(*) AS mu,
         sqrt((SUM(v * v) - SUM(v) * SUM(v) / COUNT(*)) / COUNT(*)) AS sigma
  FROM s GROUP BY 1
),
e AS (
  SELECT s.event_type, s.idx, 0.2 * s.v + 0.8 * mu.mu AS z
  FROM s JOIN mu USING (event_type) WHERE s.idx = 0
  UNION ALL
  SELECT s.event_type, s.idx, 0.2 * s.v + 0.8 * e.z
  FROM e JOIN s ON s.event_type = e.event_type AND s.idx = e.idx + 1
),
lim AS (
  SELECT e.event_type, e.idx, e.z,
         mu.mu + 3.0 * mu.sigma
           * sqrt((0.2 / 1.8) * (1.0 - pow(0.8, 2 * (e.idx + 1)))) AS u,
         mu.mu - 3.0 * mu.sigma
           * sqrt((0.2 / 1.8) * (1.0 - pow(0.8, 2 * (e.idx + 1)))) AS l
  FROM e JOIN mu USING (event_type)
)
SELECT event_type, CAST(idx AS BIGINT) AS idx,
       ROUND(z, 6) AS ewma, ROUND(u, 6) AS ucl, ROUND(l, 6) AS lcl,
       CAST(CASE WHEN z > u OR z < l THEN 1 ELSE 0 END AS BIGINT)
         AS out_of_control
FROM lim
"""


def q_croston_forecast(sf_dir: str, alpha: float = 0.1, thresh: float = 100.0):
    """Per event_type: Croston's method over the daily count of
    HIGH-VALUE events (value > 100) — an intermittent demand series at
    small scale. Demand sizes z and inter-demand intervals p are smoothed
    separately (alpha=0.1, initialised at the first demand size and the
    first demand's day position); forecast = z/p, plus the
    Syntetos-Boylan approximation (1 - alpha/2) z/p. Types with no
    qualifying day are skipped by BOTH engines. The recursion runs on the
    post-exchange (event_type, day) aggregate — catalog x retention
    rows, never event-scaled."""
    from ..common.raytools import hash_bucket_aggregate

    ev = _events(sf_dir, ["ts", "event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (
            batch["ts"].to_numpy("datetime64[us]").astype("datetime64[D]")
            .view(np.int64)
        )
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "dd": day,
                "q": (batch["value"].to_numpy(np.float64) > thresh).astype(
                    np.int64
                ),
            }
        )

    agg = (
        hash_bucket_aggregate(
            ev.map_batches(partial, batch_format="pandas"),
            ["event_type", "dd"],
            [("q", "sum")],
        )
        .to_pandas()
        .sort_values(["event_type", "dd"])
    )
    out = []
    for et, g in agg.groupby("event_type", sort=True):
        d0 = int(g["dd"].min())  # first EVENT day (zero-demand days included)
        dem = g[g["q_sum"] > 0]
        if len(dem) == 0:
            continue
        t = (dem["dd"].to_numpy(np.int64) - d0 + 1).astype(np.float64)
        d = dem["q_sum"].to_numpy(np.int64).astype(np.float64)
        z, p = d[0], t[0]
        for i in range(1, len(d)):
            z = z + alpha * (d[i] - z)
            p = p + alpha * ((t[i] - t[i - 1]) - p)
        fc = z / p
        out.append(
            {
                "event_type": et,
                "n_demands": np.int64(len(d)),
                "croston": float(_r6(np.array([fc]))[0]),
                "sba": float(_r6(np.array([(1.0 - alpha / 2.0) * fc]))[0]),
            }
        )
    return pd.DataFrame(out, columns=["event_type", "n_demands", "croston", "sba"])


QUERIES154["croston_high_value"] = q_croston_forecast
ORACLES154["croston_high_value"] = """
WITH RECURSIVE d AS (
  SELECT event_type, date_trunc('day', ts) AS dd,
         CAST(COUNT(*) FILTER (WHERE value > 100.0) AS DOUBLE) AS q
  FROM events GROUP BY 1, 2
),
d0 AS (SELECT event_type, MIN(dd) AS first_day FROM d GROUP BY 1),
r AS MATERIALIZED (
  SELECT d.event_type, d.q,
         CAST(date_diff('day', d0.first_day, d.dd) + 1 AS DOUBLE) AS t,
         row_number() OVER (PARTITION BY d.event_type ORDER BY d.dd) - 1 AS idx
  FROM d JOIN d0 USING (event_type) WHERE d.q > 0
),
c AS (
  SELECT event_type, idx, t, q AS z, t AS p FROM r WHERE idx = 0
  UNION ALL
  SELECT r.event_type, r.idx, r.t,
         c.z + 0.1 * (r.q - c.z),
         c.p + 0.1 * ((r.t - c.t) - c.p)
  FROM c JOIN r ON r.event_type = c.event_type AND r.idx = c.idx + 1
),
n AS (SELECT event_type, MAX(idx) AS mx, COUNT(*) AS nd FROM r GROUP BY 1)
SELECT c.event_type, CAST(n.nd AS BIGINT) AS n_demands,
       ROUND(c.z / c.p, 6) AS croston,
       ROUND(0.95 * (c.z / c.p), 6) AS sba
FROM c JOIN n ON c.event_type = n.event_type AND c.idx = n.mx
"""


def q_theta_forecast(sf_dir: str, horizon: int = 3):
    """Per event_type: theta-method 3-step forecast of the daily count
    series — OLS linear trend (exact integer sums), theta=2 line
    w_t = 2 v_t - (a + b t), SES (alpha=0.2, house init convention: the
    first point is smoothed into its own init level), and
    fc_h = (SES level + trend(n-1+h)) / 2."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        t = np.arange(n, dtype=np.int64)
        sv = int(v.sum())
        st = int(t.sum())
        stt = int((t * t).sum())
        stv = int((t * v).sum())
        b = float(n * stv - st * sv) / float(n * stt - st * st)
        a = (float(sv) - b * float(st)) / float(n)
        level = 2.0 * float(v[0]) - (a + b * 0.0)
        for i in range(n):
            level = 0.2 * (2.0 * float(v[i]) - (a + b * float(i))) + 0.8 * level
        fc = np.array(
            [
                0.5 * (level + (a + b * float(n - 1 + h)))
                for h in range(1, horizon + 1)
            ]
        )
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], horizon),
                "h": np.arange(1, horizon + 1, dtype=np.int64),
                "forecast": _r6(fc),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


QUERIES154["theta_forecast"] = q_theta_forecast
ORACLES154["theta_forecast"] = """
WITH RECURSIVE s AS (
  SELECT event_type, date_trunc('day', ts) AS d, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
r AS MATERIALIZED (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY d) - 1 AS t
  FROM s
),
o AS (
  SELECT event_type, COUNT(*) AS n,
         SUM(v) AS sv,
         SUM(CAST(t AS DOUBLE)) AS st,
         SUM(CAST(t AS DOUBLE) * CAST(t AS DOUBLE)) AS stt,
         SUM(CAST(t AS DOUBLE) * v) AS stv
  FROM r GROUP BY 1
),
ab AS (
  SELECT event_type, n,
         (n * stv - st * sv) / (n * stt - st * st) AS b,
         (sv - (n * stv - st * sv) / (n * stt - st * st) * st) / n AS a
  FROM o
),
e AS (
  SELECT r.event_type, r.t AS idx,
         0.2 * (2.0 * r.v - (ab.a + ab.b * r.t))
           + 0.8 * (2.0 * r.v - (ab.a + ab.b * r.t)) AS level
  FROM r JOIN ab USING (event_type) WHERE r.t = 0
  UNION ALL
  SELECT r.event_type, r.t,
         0.2 * (2.0 * r.v - (ab.a + ab.b * r.t)) + 0.8 * e.level
  FROM e
  JOIN r ON r.event_type = e.event_type AND r.t = e.idx + 1
  JOIN ab ON ab.event_type = e.event_type
),
lv AS (
  SELECT e.event_type, e.level, ab.a, ab.b, ab.n
  FROM e JOIN ab USING (event_type)
  WHERE e.idx = ab.n - 1
)
SELECT event_type, CAST(h.h AS BIGINT) AS h,
       ROUND(0.5 * (level + (a + b * (n - 1 + h.h))), 6) AS forecast
FROM lv CROSS JOIN (SELECT UNNEST([1, 2, 3]) AS h) h
"""
