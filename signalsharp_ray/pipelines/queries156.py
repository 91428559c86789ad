"""Round-5 batch 156: bivariate causality/cointegration diagnostics and
the integrated autocorrelation time — Granger causality (lag-1 F-test,
Granger 1969), Engle-Granger cointegration (1987: OLS residuals +
Dickey-Fuller t-statistic), and the integrated ACF time (the effective
decorrelation length used to size MCMC/bootstrap error bars).

The bivariate pair is deterministic: the two busiest event types
(total count DESC, type ASC), aligned on their COMMON hourly buckets.

House parity strategy: hourly counts are integers, so every OLS normal
equation entry (up to the 3x3 Cramer solve in the unrestricted Granger
regression) is an exact integer in double; the solve and all residual
folds are shared float expressions transcribed op-for-op into the
oracle, with ascending-index folds (list_sum over ordered lists).

Scale contracts: the hourly series are catalog x retention-bounded
rollups built by the streaming exchange (never raw events driver-side);
the pairwise algebra runs on two ~720-point vectors."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _r6, event_tier

QUERIES156: dict = {}
ORACLES156: dict = {}


def _top2_aligned(sf_dir: str):
    """((name_a, name_b), va, vb): the two busiest event types' hourly
    counts on their common hours (count DESC, type ASC; hour-ascending
    int64 vectors). The rollup is distributed; the two bounded series
    come to the driver, as in every per-series kernel."""
    hc = event_tier(sf_dir, "1h").to_pandas()
    totals = (
        hc.groupby("event_type")["count"].sum().astype(np.int64)
    )
    order = sorted(totals.index, key=lambda t: (-int(totals[t]), t))
    a, b = order[0], order[1]
    pa_ = hc[hc["event_type"] == a].set_index("bucket_ts")["count"]
    pb_ = hc[hc["event_type"] == b].set_index("bucket_ts")["count"]
    common = pa_.index.intersection(pb_.index).sort_values()
    return (a, b), pa_.loc[common].to_numpy(np.int64), pb_.loc[
        common
    ].to_numpy(np.int64)


def _ols3_cramer(m, s1, s2, sy, s11, s12, s22, s1y, s2y):
    """Solve [m s1 s2; s1 s11 s12; s2 s12 s22] [a b c]' = [sy s1y s2y]
    by Cramer's rule — every input is an exact integer in double, every
    float expression mirrored verbatim in the oracle."""
    det = (
        m * (s11 * s22 - s12 * s12)
        - s1 * (s1 * s22 - s12 * s2)
        + s2 * (s1 * s12 - s11 * s2)
    )
    da = (
        sy * (s11 * s22 - s12 * s12)
        - s1 * (s1y * s22 - s12 * s2y)
        + s2 * (s1y * s12 - s11 * s2y)
    )
    db = (
        m * (s1y * s22 - s12 * s2y)
        - sy * (s1 * s22 - s12 * s2)
        + s2 * (s1 * s2y - s1y * s2)
    )
    dc = (
        m * (s11 * s2y - s1y * s12)
        - s1 * (s1 * s2y - s1y * s2)
        + sy * (s1 * s12 - s11 * s2)
    )
    return det, da / det, db / det, dc / det


def _granger_f(x: np.ndarray, y: np.ndarray):
    """F-stat for 'x Granger-causes y' at lag 1."""
    yt = y[1:].astype(np.float64)
    yl = y[:-1].astype(np.float64)
    xl = x[:-1].astype(np.float64)
    m = float(len(yt))
    s1 = float(int(y[:-1].sum()))
    s2 = float(int(x[:-1].sum()))
    sy = float(int(y[1:].sum()))
    s11 = float(int((y[:-1] * y[:-1]).sum()))
    s12 = float(int((y[:-1] * x[:-1]).sum()))
    s22 = float(int((x[:-1] * x[:-1]).sum()))
    s1y = float(int((y[:-1] * y[1:]).sum()))
    s2y = float(int((x[:-1] * y[1:]).sum()))
    # restricted: y_t = a + b y_{t-1}
    br = (m * s1y - s1 * sy) / (m * s11 - s1 * s1)
    ar = (sy - br * s1) / m
    rr = yt - (ar + br * yl)
    rss_r = float(np.cumsum(rr * rr)[-1])
    # unrestricted: y_t = a + b y_{t-1} + c x_{t-1}
    det, a, b, c = _ols3_cramer(m, s1, s2, sy, s11, s12, s22, s1y, s2y)
    if det == 0.0:
        return None
    ru = yt - (a + b * yl + c * xl)
    rss_u = float(np.cumsum(ru * ru)[-1])
    if rss_u <= 0.0:
        return None
    return int(m), (rss_r - rss_u) / (rss_u / (m - 3.0))


def q_granger_causality(sf_dir: str):
    """Both directions between the two busiest event types' hourly
    count series: lag-1 Granger F-statistic — does adding the other
    stream's lag shrink the AR(1) residual? Output (cause, effect,
    n_obs, f_stat)."""
    (a, b), va, vb = _top2_aligned(sf_dir)
    rows = []
    for cause, effect, x, y in ((a, b, va, vb), (b, a, vb, va)):
        res = _granger_f(x, y)
        if res is None:
            continue
        n, f = res
        rows.append(
            (cause, effect, np.int64(n), float(_r6(np.array([f]))[0]))
        )
    return pd.DataFrame(
        rows, columns=["cause", "effect", "n_obs", "f_stat"]
    )


QUERIES156["granger_causality"] = q_granger_causality

_GRANGER_PAIR_SQL = """
tc AS (SELECT event_type, COUNT(*) AS n FROM events GROUP BY 1),
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
  SELECT a.h, a.v AS va, b.v AS vb
  FROM (SELECT h, v FROM hc
        WHERE event_type = (SELECT event_type FROM t2 WHERE rk = 1)) a
  JOIN (SELECT h, v FROM hc
        WHERE event_type = (SELECT event_type FROM t2 WHERE rk = 2)) b
  USING (h)
),
al AS (
  SELECT list(va ORDER BY h) AS la, list(vb ORDER BY h) AS lb,
         COUNT(*) AS n
  FROM j
),
dirs AS (
  SELECT (SELECT event_type FROM t2 WHERE rk = 1) AS cause,
         (SELECT event_type FROM t2 WHERE rk = 2) AS effect,
         la AS xs, lb AS ys, n FROM al
  UNION ALL
  SELECT (SELECT event_type FROM t2 WHERE rk = 2),
         (SELECT event_type FROM t2 WHERE rk = 1),
         lb, la, n FROM al
),
sums AS (
  SELECT cause, effect, xs, ys, n,
         CAST(n - 1 AS DOUBLE) AS m,
         list_sum(list_transform(range(1, n), t -> ys[t])) AS s1,
         list_sum(list_transform(range(1, n), t -> xs[t])) AS s2,
         list_sum(list_transform(range(1, n), t -> ys[t + 1])) AS sy,
         list_sum(list_transform(range(1, n), t -> ys[t] * ys[t])) AS s11,
         list_sum(list_transform(range(1, n), t -> ys[t] * xs[t])) AS s12,
         list_sum(list_transform(range(1, n), t -> xs[t] * xs[t])) AS s22,
         list_sum(list_transform(range(1, n), t -> ys[t] * ys[t + 1])) AS s1y,
         list_sum(list_transform(range(1, n), t -> xs[t] * ys[t + 1])) AS s2y
  FROM dirs
),
solved AS (
  SELECT *,
         (m * s1y - s1 * sy) / (m * s11 - s1 * s1) AS br,
         m * (s11 * s22 - s12 * s12)
           - s1 * (s1 * s22 - s12 * s2)
           + s2 * (s1 * s12 - s11 * s2) AS det
  FROM sums
),
coef AS (
  SELECT *,
         (sy - br * s1) / m AS ar,
         (sy * (s11 * s22 - s12 * s12)
           - s1 * (s1y * s22 - s12 * s2y)
           + s2 * (s1y * s12 - s11 * s2y)) / det AS a,
         (m * (s1y * s22 - s12 * s2y)
           - sy * (s1 * s22 - s12 * s2)
           + s2 * (s1 * s2y - s1y * s2)) / det AS b,
         (m * (s11 * s2y - s1y * s12)
           - s1 * (s1 * s2y - s1y * s2)
           + sy * (s1 * s12 - s11 * s2)) / det AS c
  FROM solved WHERE det <> 0
),
rss AS (
  SELECT cause, effect, n, m,
         list_sum(list_transform(range(1, n),
           t -> (ys[t + 1] - (ar + br * ys[t]))
                * (ys[t + 1] - (ar + br * ys[t])))) AS rss_r,
         list_sum(list_transform(range(1, n),
           t -> (ys[t + 1] - (a + b * ys[t] + c * xs[t]))
                * (ys[t + 1] - (a + b * ys[t] + c * xs[t])))) AS rss_u
  FROM coef
)
SELECT cause, effect, CAST(n - 1 AS BIGINT) AS n_obs,
       ROUND((rss_r - rss_u) / (rss_u / (m - 3.0)), 6) AS f_stat
FROM rss WHERE rss_u > 0
"""

ORACLES156["granger_causality"] = "WITH " + _GRANGER_PAIR_SQL


def q_engle_granger_coint(sf_dir: str):
    """Engle-Granger cointegration test between the two busiest event
    types' hourly series: OLS of the second-busiest on the busiest,
    then the Dickey-Fuller t-statistic of the residuals (regress the
    residual difference on the lagged residual, no constant, no lags).
    Output (x_type, y_type, n_obs, beta, rho, adf_t)."""
    (a, b), va, vb = _top2_aligned(sf_dir)
    x = va.astype(np.float64)
    y = vb.astype(np.float64)
    n = float(len(x))
    sx = float(int(va.sum()))
    sy = float(int(vb.sum()))
    sxx = float(int((va * va).sum()))
    sxy = float(int((va * vb).sum()))
    beta = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    alpha = (sy - beta * sx) / n
    e = y - (alpha + beta * x)
    el = e[:-1]
    de = e[1:] - e[:-1]
    s_ee = float(np.cumsum(el * el)[-1])
    s_ed = float(np.cumsum(el * de)[-1])
    rho = s_ed / s_ee
    r = de - rho * el
    s2 = float(np.cumsum(r * r)[-1]) / (float(len(de)) - 1.0)
    adf_t = rho * math.sqrt(s_ee) / math.sqrt(s2)
    return pd.DataFrame(
        {
            "x_type": [a],
            "y_type": [b],
            "n_obs": np.array([len(x)], dtype=np.int64),
            "beta": _r6(np.array([beta])),
            "rho": _r6(np.array([rho])),
            "adf_t": _r6(np.array([adf_t])),
        }
    )


QUERIES156["engle_granger_coint"] = q_engle_granger_coint
ORACLES156["engle_granger_coint"] = """
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
al AS (
  SELECT list(x ORDER BY h) AS xs, list(y ORDER BY h) AS ys,
         COUNT(*) AS n, CAST(COUNT(*) AS DOUBLE) AS nd,
         SUM(x) AS sx, SUM(y) AS sy, SUM(x * x) AS sxx, SUM(x * y) AS sxy
  FROM j
),
ab AS (
  SELECT *,
         (nd * sxy - sx * sy) / (nd * sxx - sx * sx) AS beta
  FROM al
),
ab2 AS (SELECT *, (sy - beta * sx) / nd AS alpha FROM ab),
res AS (
  SELECT *,
         list_transform(range(0, n),
           t -> ys[t + 1] - (alpha + beta * xs[t + 1])) AS e
  FROM ab2
),
f AS (
  SELECT *,
         list_sum(list_transform(range(1, n),
           t -> e[t] * e[t])) AS s_ee,
         list_sum(list_transform(range(1, n),
           t -> e[t] * (e[t + 1] - e[t]))) AS s_ed
  FROM res
),
rh AS (SELECT *, s_ed / s_ee AS rho FROM f),
sg AS (
  SELECT *,
         list_sum(list_transform(range(1, n),
           t -> ((e[t + 1] - e[t]) - rho * e[t])
                * ((e[t + 1] - e[t]) - rho * e[t])))
           / (CAST(n - 1 AS DOUBLE) - 1.0) AS s2
  FROM rh
)
SELECT (SELECT event_type FROM t2 WHERE rk = 1) AS x_type,
       (SELECT event_type FROM t2 WHERE rk = 2) AS y_type,
       CAST(n AS BIGINT) AS n_obs,
       ROUND(beta, 6) AS beta,
       ROUND(rho, 6) AS rho,
       ROUND(rho * sqrt(s_ee) / sqrt(s2), 6) AS adf_t
FROM sg
"""


def q_acf_integrated_time(sf_dir: str, k_max: int = 20):
    """Per event_type: integrated autocorrelation time of the hourly
    count series — tau = 1 + 2 * sum of acf_k up to (exclusive) the
    first negative lag, capped at 20 lags (Sokal's truncation rule in
    its simplest deterministic form). Output (event_type, n_terms,
    tau)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        if n <= k_max:
            return pd.DataFrame(
                {"event_type": [], "n_terms": [], "tau": []}
            )
        sv = int(v.sum())
        mu = float(sv) / float(n)
        c = v.astype(np.float64) - mu
        c0 = float(np.cumsum(c * c)[-1]) / float(n)
        acf = []
        for k in range(1, k_max + 1):
            ck = float(np.cumsum(c[: n - k] * c[k:])[-1]) / float(n)
            acf.append(ck / c0)
        n_terms = k_max
        for k, r in enumerate(acf, start=1):
            if r < 0.0:
                n_terms = k - 1
                break
        s = 0.0
        for r in acf[:n_terms]:  # ascending-k fold
            s += r
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_terms": np.array([n_terms], dtype=np.int64),
                "tau": _r6(np.array([1.0 + 2.0 * s])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES156["acf_integrated_time"] = q_acf_integrated_time
ORACLES156["acf_integrated_time"] = """
WITH s AS (
  SELECT event_type, date_trunc('hour', ts) AS h, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY h) AS vs, COUNT(*) AS n,
         SUM(v) / COUNT(*) AS mu
  FROM s GROUP BY 1 HAVING COUNT(*) > 20
),
c0 AS (
  SELECT event_type, vs, n, mu,
         list_sum(list_transform(range(0, n),
           t -> (vs[t + 1] - mu) * (vs[t + 1] - mu))) / n AS c0
  FROM a
),
ac AS (
  SELECT c.event_type, k.k,
         (list_sum(list_transform(range(0, c.n - k.k),
            t -> (c.vs[t + 1] - c.mu) * (c.vs[t + k.k + 1] - c.mu))) / c.n)
           / c.c0 AS r
  FROM c0 c, UNNEST(range(1, 21)) AS k(k)
),
nt AS (
  SELECT event_type,
         COALESCE(MIN(k) FILTER (WHERE r < 0) - 1, 20) AS n_terms
  FROM ac GROUP BY 1
),
tl AS (
  SELECT nt.event_type, nt.n_terms,
         list_sum(list(ac.r ORDER BY ac.k)) AS s
  FROM nt JOIN ac ON ac.event_type = nt.event_type
                 AND ac.k <= nt.n_terms
  GROUP BY 1, 2
)
SELECT nt.event_type, CAST(nt.n_terms AS BIGINT) AS n_terms,
       ROUND(1.0 + 2.0 * COALESCE(tl.s, 0.0), 6) AS tau
FROM nt LEFT JOIN tl USING (event_type, n_terms)
"""
