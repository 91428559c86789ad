"""Round-3 batch 71: tail and cross-series diagnostics on the hourly
tier — the mean-excess curve at thresholds mean + k*sd (the EVT
threshold-picking tool), a Granger-style lag-1 partial-correlation F
test for every ordered event_type pair (does yesterday's type A load
predict type B beyond B's own memory), and a Generalized Pareto
method-of-moments fit of the excesses over the 90th percentile.

House parity: exceedance counts and excess sums are exact integers
given a shared float threshold (both engines derive the identical
threshold from exact integer power sums / quantile_cont at ~1e2
magnitudes); the Pearson building blocks of the Granger test are
integer cross-products over the aligned dense grids; every float
combination is transcribed op-for-op.

Scale contracts: mean-excess and GPD reduce per event_type inside one
bucketed_map_groups kernel call. The Granger combine is bounded by
n_types x grid (the kruskal_wallis_daily pattern): the distributed
hourly rollup lands a calendar-bounded table on the driver and the T^2
pair loop runs over a few thousand integers per pair.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import dense_counts
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us

QUERIES69: dict = {}
ORACLES69: dict = {}

HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# Mean-excess curve at mean + k*sd
# ---------------------------------------------------------------------------


def q_mean_excess_curve(sf_dir: str):
    """Mean excess E[x - u | x > u] per event_type at the four
    thresholds u_k = mean + k*sd (k = 0..3, population sd): the
    exceedance count is exact, the excess sum is sum_gt - n_gt * u
    with sum_gt an exact integer."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "k": pd.Series(dtype=np.int64),
             "threshold": pd.Series(dtype=np.float64),
             "n_exceed": pd.Series(dtype=np.int64),
             "mean_excess": pd.Series(dtype=np.float64)}
        )
        if n < 2:
            return empty
        S = int(x.sum())
        SS = int((x * x).sum())
        m = float(S) / n
        var = float(SS) / n - m * m
        if var <= 0.0:
            return empty
        sd = math.sqrt(var)
        rows = []
        for k in range(4):
            u = m + float(k) * sd
            gt = x > u
            ne = int(gt.sum())
            if ne == 0:
                continue
            sg = int(x[gt].sum())
            me = (float(sg) - float(ne) * u) / float(ne)
            rows.append(
                (df["event_type"].iloc[0], k, float(_r6away(u)), ne,
                 float(_r6away(me)))
            )
        if not rows:
            return empty
        return pd.DataFrame(
            rows,
            columns=["event_type", "k", "threshold", "n_exceed",
                     "mean_excess"],
        ).astype({"k": np.int64, "n_exceed": np.int64})

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES69["mean_excess_curve"] = """
WITH """ + _DENSE_1H + """,
s AS (SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(x*x) AS sxx
      FROM d GROUP BY 1 HAVING COUNT(*) >= 2),
fit AS (
  SELECT event_type, n,
         CAST(sx AS DOUBLE) / n AS m,
         sqrt(CAST(sxx AS DOUBLE) / n
              - (CAST(sx AS DOUBLE) / n) * (CAST(sx AS DOUBLE) / n)) AS sd
  FROM s
  WHERE CAST(sxx AS DOUBLE) / n
        - (CAST(sx AS DOUBLE) / n) * (CAST(sx AS DOUBLE) / n) > 0
),
ks AS (SELECT UNNEST(generate_series(0, 3)) AS k),
u AS (
  SELECT event_type, ks.k,
         fit.m + CAST(ks.k AS DOUBLE) * fit.sd AS u
  FROM fit CROSS JOIN ks
),
exc AS (
  SELECT u.event_type, u.k, u.u,
         COUNT(*) AS ne, SUM(d.x) AS sg
  FROM u JOIN d ON d.event_type = u.event_type AND d.x > u.u
  GROUP BY 1, 2, 3
)
SELECT event_type, CAST(k AS BIGINT) AS k,
       ROUND(u, 6) AS threshold,
       CAST(ne AS BIGINT) AS n_exceed,
       ROUND((CAST(sg AS DOUBLE) - CAST(ne AS DOUBLE) * u)
             / CAST(ne AS DOUBLE), 6) AS mean_excess
FROM exc
"""


# ---------------------------------------------------------------------------
# Pairwise Granger lag-1 partial-correlation F test
# ---------------------------------------------------------------------------


def _pearson(n, sab, sa, sb, saa, sbb):
    """r from exact integer sums; None when a marginal is constant."""
    da = float(n * saa - sa * sa)
    db = float(n * sbb - sb * sb)
    if da <= 0.0 or db <= 0.0:
        return None
    return float(n * sab - sa * sb) / (math.sqrt(da) * math.sqrt(db))


def q_granger_pairwise(sf_dir: str):
    """For every ordered (cause, effect) event_type pair: the partial
    correlation of effect_t with cause_{t-1} controlling effect_{t-1}
    over the aligned dense hourly grids, and the Granger F statistic
    F = r_p^2 (n-3) / (1 - r_p^2). Bounded driver combine over the
    distributed hourly rollup."""
    agg = (
        event_tier(sf_dir, "1h")
        .to_pandas()
        .sort_values(["event_type", "bucket_ts"])
    )
    out_empty = pd.DataFrame(
        {"cause": pd.Series(dtype=object),
         "effect": pd.Series(dtype=object),
         "n_samples": pd.Series(dtype=np.int64),
         "r_partial": pd.Series(dtype=np.float64),
         "f_stat": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    series = {}
    for et, g in agg.groupby("event_type", sort=True):
        bu = g["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
        grid, x = dense_counts(bu, g["count"].to_numpy(), HOUR_US)
        series[et] = (int(grid[0]), int(grid[-1]), x)
    types = sorted(series)
    rows = []
    for c in types:
        for e in types:
            if c == e:
                continue
            c_lo, c_hi, xc = series[c]
            e_lo, e_hi, xe = series[e]
            # samples: every t with effect_t, effect_{t-1}, cause_{t-1}
            # all on their dense grids (mirrors the oracle's b-1h join)
            t_start = max(c_lo, e_lo) + HOUR_US
            t_end = min(e_hi, c_hi + HOUR_US)
            if t_end < t_start + 3 * HOUR_US:
                continue
            i0 = (t_start - e_lo) // HOUR_US
            i1 = (t_end - e_lo) // HOUR_US
            j0 = (t_start - c_lo) // HOUR_US
            j1 = (t_end - c_lo) // HOUR_US
            y = xe[i0:i1 + 1].astype(np.int64)      # effect_t
            y1 = xe[i0 - 1:i1].astype(np.int64)     # effect_{t-1}
            x1 = xc[j0 - 1:j1].astype(np.int64)     # cause_{t-1}
            n = int(y.size)
            if n <= 3:
                continue
            s_y, s_y1, s_x1 = int(y.sum()), int(y1.sum()), int(x1.sum())
            r_yx = _pearson(n, int((y * x1).sum()), s_y, s_x1,
                            int((y * y).sum()), int((x1 * x1).sum()))
            r_yy1 = _pearson(n, int((y * y1).sum()), s_y, s_y1,
                             int((y * y).sum()), int((y1 * y1).sum()))
            r_y1x = _pearson(n, int((y1 * x1).sum()), s_y1, s_x1,
                             int((y1 * y1).sum()), int((x1 * x1).sum()))
            if r_yx is None or r_yy1 is None or r_y1x is None:
                continue
            d1 = 1.0 - r_yy1 * r_yy1
            d2 = 1.0 - r_y1x * r_y1x
            if d1 <= 0.0 or d2 <= 0.0:
                continue
            rp = (r_yx - r_yy1 * r_y1x) / (math.sqrt(d1) * math.sqrt(d2))
            dd = 1.0 - rp * rp
            if dd == 0.0:
                continue
            f = rp * rp * float(n - 3) / dd
            rows.append((c, e, n, float(_r6away(rp)), float(_r6away(f))))
    if not rows:
        return out_empty
    return pd.DataFrame(
        rows, columns=["cause", "effect", "n_samples", "r_partial", "f_stat"]
    ).astype({"n_samples": np.int64})


ORACLES69["granger_pairwise"] = """
WITH """ + _DENSE_1H + """,
pairsrc AS (
  SELECT a.event_type AS cause, b.event_type AS effect
  FROM (SELECT DISTINCT event_type FROM d) a
  JOIN (SELECT DISTINCT event_type FROM d) b
    ON a.event_type != b.event_type
),
tri AS (
  SELECT p.cause, p.effect,
         de.x AS y, de1.x AS y1, dc1.x AS x1
  FROM pairsrc p
  JOIN d de  ON de.event_type = p.effect
  JOIN d de1 ON de1.event_type = p.effect AND de1.b = de.b - INTERVAL 1 HOUR
  JOIN d dc1 ON dc1.event_type = p.cause  AND dc1.b = de.b - INTERVAL 1 HOUR
),
s AS (
  SELECT cause, effect, COUNT(*) AS n,
         SUM(y) AS sy, SUM(y1) AS sy1, SUM(x1) AS sx1,
         SUM(y*y) AS syy, SUM(y1*y1) AS sy1y1, SUM(x1*x1) AS sx1x1,
         SUM(y*y1) AS syy1, SUM(y*x1) AS syx1, SUM(y1*x1) AS sy1x1
  FROM tri GROUP BY 1, 2 HAVING COUNT(*) > 3
),
r AS (
  SELECT cause, effect, n,
         CAST(n*syx1 - sy*sx1 AS DOUBLE)
           / (sqrt(CAST(n*syy - sy*sy AS DOUBLE))
              * sqrt(CAST(n*sx1x1 - sx1*sx1 AS DOUBLE))) AS r_yx,
         CAST(n*syy1 - sy*sy1 AS DOUBLE)
           / (sqrt(CAST(n*syy - sy*sy AS DOUBLE))
              * sqrt(CAST(n*sy1y1 - sy1*sy1 AS DOUBLE))) AS r_yy1,
         CAST(n*sy1x1 - sy1*sx1 AS DOUBLE)
           / (sqrt(CAST(n*sy1y1 - sy1*sy1 AS DOUBLE))
              * sqrt(CAST(n*sx1x1 - sx1*sx1 AS DOUBLE))) AS r_y1x
  FROM s
  WHERE n*syy - sy*sy > 0 AND n*sy1y1 - sy1*sy1 > 0
    AND n*sx1x1 - sx1*sx1 > 0
),
rp AS (
  SELECT cause, effect, n,
         (r_yx - r_yy1 * r_y1x)
           / (sqrt(1.0 - r_yy1 * r_yy1) * sqrt(1.0 - r_y1x * r_y1x)) AS rp
  FROM r
  WHERE 1.0 - r_yy1 * r_yy1 > 0 AND 1.0 - r_y1x * r_y1x > 0
)
SELECT cause, effect, CAST(n AS BIGINT) AS n_samples,
       ROUND(rp, 6) AS r_partial,
       ROUND(rp * rp * CAST(n - 3 AS DOUBLE) / (1.0 - rp * rp), 6) AS f_stat
FROM rp
WHERE 1.0 - rp * rp != 0
"""


# ---------------------------------------------------------------------------
# GPD peaks-over-threshold moment fit
# ---------------------------------------------------------------------------


def q_pot_gpd_fit(sf_dir: str):
    """Generalized Pareto method-of-moments fit per event_type of the
    excesses over u = quantile_cont(0.9) of the dense hourly counts:
    xi = 0.5 * (1 - mean^2/var), beta = 0.5 * mean * (mean^2/var + 1).
    Excess moments expand into exact integer sums minus threshold
    terms."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "threshold": pd.Series(dtype=np.float64),
             "n_exceed": pd.Series(dtype=np.int64),
             "xi": pd.Series(dtype=np.float64),
             "beta": pd.Series(dtype=np.float64)}
        )
        if n < 10:
            return empty
        u = float(np.quantile(x.astype(np.float64), 0.9))
        gt = x > u
        ne = int(gt.sum())
        if ne < 2:
            return empty
        sg = int(x[gt].sum())
        sg2 = int((x[gt] * x[gt]).sum())
        mean = (float(sg) - float(ne) * u) / float(ne)
        # E[(x-u)^2] = (S2 - 2u S + ne u^2)/ne, then var = that - mean^2
        m2 = (float(sg2) - 2.0 * u * float(sg) + float(ne) * u * u) / float(ne)
        var = m2 - mean * mean
        if var <= 0.0 or mean <= 0.0:
            return empty
        ratio = mean * mean / var
        xi = 0.5 * (1.0 - ratio)
        beta = 0.5 * mean * (ratio + 1.0)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "threshold": [float(_r6away(u))],
                "n_exceed": np.array([ne], dtype=np.int64),
                "xi": [float(_r6away(xi))],
                "beta": [float(_r6away(beta))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES69["pot_gpd_fit"] = """
WITH """ + _DENSE_1H + """,
q AS (
  SELECT event_type, COUNT(*) AS n,
         quantile_cont(CAST(x AS DOUBLE), 0.9) AS u
  FROM d GROUP BY 1 HAVING COUNT(*) >= 10
),
exc AS (
  SELECT q.event_type, q.u, COUNT(*) AS ne,
         SUM(d.x) AS sg, SUM(d.x * d.x) AS sg2
  FROM q JOIN d ON d.event_type = q.event_type AND d.x > q.u
  GROUP BY 1, 2 HAVING COUNT(*) >= 2
),
fit AS (
  SELECT event_type, u, ne,
         (CAST(sg AS DOUBLE) - CAST(ne AS DOUBLE) * u) / CAST(ne AS DOUBLE)
           AS mean,
         (CAST(sg2 AS DOUBLE) - 2.0 * u * CAST(sg AS DOUBLE)
          + CAST(ne AS DOUBLE) * u * u) / CAST(ne AS DOUBLE) AS m2
  FROM exc
),
ok AS (
  SELECT event_type, u, ne, mean,
         mean * mean / (m2 - mean * mean) AS ratio
  FROM fit
  WHERE m2 - mean * mean > 0 AND mean > 0
)
SELECT event_type, ROUND(u, 6) AS threshold,
       CAST(ne AS BIGINT) AS n_exceed,
       ROUND(0.5 * (1.0 - ratio), 6) AS xi,
       ROUND(0.5 * mean * (ratio + 1.0), 6) AS beta
FROM ok
"""


QUERIES69["mean_excess_curve"] = q_mean_excess_curve
QUERIES69["granger_pairwise"] = q_granger_pairwise
QUERIES69["pot_gpd_fit"] = q_pot_gpd_fit
