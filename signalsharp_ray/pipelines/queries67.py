"""Round-3 batch 69: model-based diagnostics on the hourly tier — the
Chow structural-break F test at the window midpoint (did the load trend
change regime), a Yule-Walker AR(2) fit from the exact ACF (the
two-coefficient memory model next to value_autocorr), and a Gumbel fit
of the daily block maxima by method of moments (the extreme-load model
behind capacity planning).

House parity: every OLS / ACF / moment building block is an exact int64
(or Python-int) power sum over the dense zero-filled hourly grid; the
float combinations (regression SSEs, the Yule-Walker ratios, the Gumbel
moment estimators) are transcribed op-for-op into the oracle, including
left-associative chains and the shared libm constants (sqrt(6)/pi, the
Euler-Mascheroni literal).

Scale contracts: all three reduce each event_type's calendar-bounded
dense hourly series inside one bucketed_map_groups kernel call after the
standard partial+final rollup exchange; daily block maxima shrink the
series ~24x before the fit.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import acf_exact, dense_counts
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us

QUERIES67: dict = {}
ORACLES67: dict = {}

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000

EULER_GAMMA = 0.5772156649015329


def _ols_sse(t: np.ndarray, y: np.ndarray):
    """(sse, ok): residual sum of squares of y ~ a + b*t with every sum
    an exact Python int and the float combination written exactly as
    the oracle's expression."""
    n = int(t.size)
    st = int(t.sum())
    stt = int((t * t).sum())
    sy = int(y.sum())
    syy = int((y * y).sum())
    sty = int((t * y).sum())
    dden = n * stt - st * st
    if dden == 0:
        return 0.0, False
    b = float(n * sty - st * sy) / float(dden)
    syy_c = float(syy) - float(sy) * float(sy) / float(n)
    sty_c = float(sty) - float(st) * float(sy) / float(n)
    return syy_c - b * sty_c, True


# ---------------------------------------------------------------------------
# Chow structural-break test at the midpoint
# ---------------------------------------------------------------------------


def q_chow_test_midpoint(sf_dir: str):
    """Chow F statistic per event_type splitting the dense hourly series
    at idx = n//2: F = ((SSE_pooled - SSE_1 - SSE_2)/2) /
    ((SSE_1 + SSE_2)/(n - 4)) for the linear model count ~ idx."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "sse_pooled": pd.Series(dtype=np.float64),
             "sse_split": pd.Series(dtype=np.float64),
             "f_stat": pd.Series(dtype=np.float64)}
        )
        if n < 6:
            return empty
        t = np.arange(n, dtype=np.int64)
        y = x.astype(np.int64)
        half = n // 2
        sse_p, ok_p = _ols_sse(t, y)
        sse_1, ok_1 = _ols_sse(t[:half], y[:half])
        sse_2, ok_2 = _ols_sse(t[half:], y[half:])
        if not (ok_p and ok_1 and ok_2):
            return empty
        den = (sse_1 + sse_2) / float(n - 4)
        if den <= 0.0:
            return empty
        f = (sse_p - sse_1 - sse_2) / 2.0 / den
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "sse_pooled": [float(_r6away(sse_p))],
                "sse_split": [float(_r6away(sse_1 + sse_2))],
                "f_stat": [float(_r6away(f))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


_CHOW_SEG = """
  SELECT event_type, COUNT(*) AS n, SUM(idx) AS st, SUM(idx * idx) AS stt,
         SUM(x) AS sy, SUM(x * x) AS syy, SUM(idx * x) AS sty
  FROM {src} GROUP BY 1
"""

_CHOW_SSE = """(
  (CAST({p}.syy AS DOUBLE)
   - CAST({p}.sy AS DOUBLE) * CAST({p}.sy AS DOUBLE) / CAST({p}.n AS DOUBLE))
  - (CAST({p}.n * {p}.sty - {p}.st * {p}.sy AS DOUBLE)
     / CAST({p}.n * {p}.stt - {p}.st * {p}.st AS DOUBLE))
    * (CAST({p}.sty AS DOUBLE)
       - CAST({p}.st AS DOUBLE) * CAST({p}.sy AS DOUBLE)
         / CAST({p}.n AS DOUBLE))
)"""

ORACLES67["chow_test_midpoint"] = (
    "WITH " + _DENSE_1H + """,
nn AS (SELECT event_type, COUNT(*) AS n FROM d GROUP BY 1),
d1 AS (SELECT d.* FROM d JOIN nn USING (event_type)
       WHERE d.idx < nn.n // 2),
d2 AS (SELECT d.* FROM d JOIN nn USING (event_type)
       WHERE d.idx >= nn.n // 2),
sp AS (""" + _CHOW_SEG.format(src="d") + """),
s1 AS (""" + _CHOW_SEG.format(src="d1") + """),
s2 AS (""" + _CHOW_SEG.format(src="d2") + """),
sse AS (
  SELECT sp.event_type, sp.n,
         """ + _CHOW_SSE.format(p="sp") + """ AS ssep,
         """ + _CHOW_SSE.format(p="s1") + """ AS sse1,
         """ + _CHOW_SSE.format(p="s2") + """ AS sse2
  FROM sp
  JOIN s1 USING (event_type)
  JOIN s2 USING (event_type)
  WHERE sp.n >= 6
    AND sp.n * sp.stt - sp.st * sp.st != 0
    AND s1.n * s1.stt - s1.st * s1.st != 0
    AND s2.n * s2.stt - s2.st * s2.st != 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_buckets,
       ROUND(ssep, 6) AS sse_pooled,
       ROUND(sse1 + sse2, 6) AS sse_split,
       ROUND((ssep - sse1 - sse2) / 2.0
             / ((sse1 + sse2) / CAST(n - 4 AS DOUBLE)), 6) AS f_stat
FROM sse
WHERE (sse1 + sse2) / CAST(n - 4 AS DOUBLE) > 0
"""
)


# ---------------------------------------------------------------------------
# Yule-Walker AR(2) fit from the exact ACF
# ---------------------------------------------------------------------------


def q_yule_walker_ar2(sf_dir: str):
    """AR(2) coefficients per event_type via Yule-Walker on the exact
    lag-1/lag-2 autocorrelations: phi1 = r1(1-r2)/(1-r1^2),
    phi2 = (r2-r1^2)/(1-r1^2), innovation variance ratio
    1 - phi1 r1 - phi2 r2."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "r1": pd.Series(dtype=np.float64),
             "r2": pd.Series(dtype=np.float64),
             "phi1": pd.Series(dtype=np.float64),
             "phi2": pd.Series(dtype=np.float64),
             "sigma_ratio": pd.Series(dtype=np.float64)}
        )
        if n < 3:
            return empty
        S = int(x.sum())
        SS = int((x * x).sum())
        m = float(S) / n
        den = float(SS) - m * float(S)
        if den == 0.0:
            return empty
        _, r = acf_exact(x, 2)
        r1 = float(r[0])
        r2 = float(r[1])
        d = 1.0 - r1 * r1
        if d == 0.0:
            return empty
        phi1 = r1 * (1.0 - r2) / d
        phi2 = (r2 - r1 * r1) / d
        sig = 1.0 - phi1 * r1 - phi2 * r2
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "r1": [float(_r6away(r1))],
                "r2": [float(_r6away(r2))],
                "phi1": [float(_r6away(phi1))],
                "phi2": [float(_r6away(phi2))],
                "sigma_ratio": [float(_r6away(sig))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES67["yule_walker_ar2"] = """
WITH """ + _DENSE_1H + """,
s AS (SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(x*x) AS sxx
      FROM d GROUP BY 1 HAVING COUNT(*) >= 3),
ks AS (SELECT UNNEST(generate_series(1, 2)) AS k),
pq AS (
  SELECT a.event_type, ks.k,
         SUM(a.x * b.x) AS p, SUM(a.x + b.x) AS q
  FROM d a
  CROSS JOIN ks
  JOIN d b ON b.event_type = a.event_type AND b.idx = a.idx + ks.k
  GROUP BY 1, 2
),
r AS (
  SELECT s.event_type, s.n, pq.k,
         (CAST(p AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(q AS DOUBLE)
          + (n - pq.k) * (CAST(sx AS DOUBLE)/n) * (CAST(sx AS DOUBLE)/n))
         / (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE))
           AS rk
  FROM pq JOIN s USING (event_type)
  WHERE (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE))
        != 0
),
piv AS (
  SELECT event_type, MAX(n) AS n,
         MAX(CASE WHEN k = 1 THEN rk END) AS r1,
         MAX(CASE WHEN k = 2 THEN rk END) AS r2
  FROM r GROUP BY 1
),
fit AS (
  SELECT event_type, n, r1, r2,
         r1 * (1.0 - r2) / (1.0 - r1 * r1) AS phi1,
         (r2 - r1 * r1) / (1.0 - r1 * r1) AS phi2
  FROM piv
  WHERE r1 IS NOT NULL AND r2 IS NOT NULL AND 1.0 - r1 * r1 != 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_buckets,
       ROUND(r1, 6) AS r1, ROUND(r2, 6) AS r2,
       ROUND(phi1, 6) AS phi1, ROUND(phi2, 6) AS phi2,
       ROUND(1.0 - phi1 * r1 - phi2 * r2, 6) AS sigma_ratio
FROM fit
"""


# ---------------------------------------------------------------------------
# Gumbel fit of daily block maxima
# ---------------------------------------------------------------------------


def q_block_maxima_gumbel(sf_dir: str):
    """Gumbel (EV1) fit of each event_type's daily maxima of hourly
    counts by method of moments: beta = sd * sqrt(6)/pi,
    mu = mean - gamma * beta, plus the 30-block return level
    mu - beta * ln(-ln(1 - 1/30)). Maxima and their power sums are
    exact integers; sd is the population sd."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_days": pd.Series(dtype=np.int64),
             "max_mean": pd.Series(dtype=np.float64),
             "gumbel_beta": pd.Series(dtype=np.float64),
             "gumbel_mu": pd.Series(dtype=np.float64),
             "return_level_30": pd.Series(dtype=np.float64)}
        )
        day = grid // DAY_US
        days, inv = np.unique(day, return_inverse=True)
        mx = np.zeros(days.size, dtype=np.int64)
        np.maximum.at(mx, inv, x)
        nd = int(days.size)
        if nd < 2:
            return empty
        S = int(mx.sum())
        SS = int((mx * mx).sum())
        mean = float(S) / nd
        var = float(SS) / nd - mean * mean
        if var <= 0.0:
            return empty
        sd = math.sqrt(var)
        beta = sd * (math.sqrt(6.0) / math.pi)
        mu = mean - EULER_GAMMA * beta
        rl = mu - beta * math.log(-math.log(1.0 - 1.0 / 30.0))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_days": np.array([nd], dtype=np.int64),
                "max_mean": [float(_r6away(mean))],
                "gumbel_beta": [float(_r6away(beta))],
                "gumbel_mu": [float(_r6away(mu))],
                "return_level_30": [float(_r6away(rl))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES67["block_maxima_gumbel"] = """
WITH """ + _DENSE_1H + """,
dm AS (
  SELECT event_type, epoch_us(b) // 86400000000 AS day, MAX(x) AS mx
  FROM d GROUP BY 1, 2
),
s AS (
  SELECT event_type, COUNT(*) AS nd, SUM(mx) AS s1, SUM(mx * mx) AS s2
  FROM dm GROUP BY 1 HAVING COUNT(*) >= 2
),
fit AS (
  SELECT event_type, nd,
         CAST(s1 AS DOUBLE) / nd AS mean,
         CAST(s2 AS DOUBLE) / nd
           - (CAST(s1 AS DOUBLE) / nd) * (CAST(s1 AS DOUBLE) / nd) AS var
  FROM s
),
gf AS (
  SELECT event_type, nd, mean,
         sqrt(var) * (sqrt(6.0) / pi()) AS beta
  FROM fit WHERE var > 0
)
SELECT event_type, CAST(nd AS BIGINT) AS n_days,
       ROUND(mean, 6) AS max_mean,
       ROUND(beta, 6) AS gumbel_beta,
       ROUND(mean - 0.5772156649015329 * beta, 6) AS gumbel_mu,
       ROUND((mean - 0.5772156649015329 * beta)
             - beta * ln(-ln(1.0 - 1.0 / 30.0)), 6) AS return_level_30
FROM gf
"""


QUERIES67["chow_test_midpoint"] = q_chow_test_midpoint
QUERIES67["yule_walker_ar2"] = q_yule_walker_ar2
QUERIES67["block_maxima_gumbel"] = q_block_maxima_gumbel
