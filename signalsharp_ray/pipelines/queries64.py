"""Round-3 batch 66: whiteness and periodicity diagnostics on the hourly
tier — the Ljung-Box portmanteau Q(12) statistic per event_type (is the
hourly count series white noise?), the Durbin-Watson statistic of the
OLS-detrended hourly series (first-order residual autocorrelation), and
the dominant ACF period (argmax autocorrelation over lags 2..48 — the
data's own cycle detector next to the fixed period-24 decomposition).

House parity: every ACF/OLS building block is an exact integer sum over
the dense zero-filled hourly grid (kernels/seasonal.py:acf_exact's
expansion), the float combinations are transcribed op-for-op, and every
multi-term float reduction is an ascending-index left fold
(list_sum(list(x ORDER BY idx)) == the Python loop, bitwise).

Scale contracts: all three reduce each event_type's calendar-bounded
dense hourly series (a few thousand points) inside one
bucketed_map_groups kernel call after the standard partial+final rollup
exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import acf_exact, dense_counts
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us

QUERIES64: dict = {}
ORACLES64: dict = {}

HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# Ljung-Box Q(12)
# ---------------------------------------------------------------------------


def q_ljung_box(sf_dir: str, max_lag: int = 12):
    """Ljung-Box portmanteau statistic Q(12) per event_type over the
    dense hourly count series: Q = n(n+2) * sum_k r_k^2/(n-k). The r_k
    come from the exact-integer ACF expansion; the lag sum is an
    ascending-k left fold."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "ljung_box_q": pd.Series(dtype=np.float64)}
        )
        if n <= max_lag:
            return empty
        S = int(x.sum())
        SS = int((x.astype(np.int64) * x.astype(np.int64)).sum())
        m = float(S) / n
        den = float(SS) - m * float(S)
        if den == 0.0:
            return empty
        _, r = acf_exact(x, max_lag)
        f = 0.0
        for k in range(1, max_lag + 1):
            rk = float(r[k - 1])
            f = f + (rk * rk) / (n - k)
        q = float(n) * (float(n) + 2.0) * f
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "ljung_box_q": [float(_r6away(q))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES64["ljung_box"] = """
WITH """ + _DENSE_1H + """,
s AS (SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(x*x) AS sxx
      FROM d GROUP BY 1),
ks AS (SELECT UNNEST(generate_series(1, 12)) AS k),
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
  WHERE s.n > 12
    AND (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE))
        != 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_buckets,
       ROUND(CAST(n AS DOUBLE) * (CAST(n AS DOUBLE) + 2.0)
             * list_sum(list(rk * rk / (n - k) ORDER BY k)), 6)
         AS ljung_box_q
FROM r GROUP BY event_type, n
"""


# ---------------------------------------------------------------------------
# Durbin-Watson on OLS residuals
# ---------------------------------------------------------------------------


def q_durbin_watson(sf_dir: str):
    """Durbin-Watson statistic per event_type: fit the OLS line
    count ~ hour_index over the dense hourly grid (exact integer power
    sums), then DW = sum (e_t - e_{t-1})^2 / sum e_t^2 over the
    residuals, both sums as ascending-index left folds."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "slope": pd.Series(dtype=np.float64),
             "dw": pd.Series(dtype=np.float64)}
        )
        if n < 3:
            return empty
        y = x.astype(np.int64)
        t = np.arange(n, dtype=np.int64)
        sy = int(y.sum())
        st = int(t.sum())
        stt = int((t * t).sum())
        sty = int((t * y).sum())
        dnum = n * sty - st * sy
        dden = n * stt - st * st
        b = float(dnum) / float(dden)
        a = (float(sy) - b * float(st)) / float(n)
        e = []
        for i in range(n):
            e.append(float(int(y[i])) - (a + b * float(i)))
        den = 0.0
        for i in range(n):
            den = den + e[i] * e[i]
        if den == 0.0:
            return empty
        num = 0.0
        for i in range(1, n):
            num = num + (e[i] - e[i - 1]) * (e[i] - e[i - 1])
        dw = num / den
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "slope": [float(_r6away(b))],
                "dw": [float(_r6away(dw))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES64["durbin_watson"] = """
WITH """ + _DENSE_1H + """,
s AS (
  SELECT event_type, COUNT(*) AS n, SUM(x) AS sy, SUM(idx) AS st,
         SUM(idx * idx) AS stt, SUM(idx * x) AS sty
  FROM d GROUP BY 1 HAVING COUNT(*) >= 3
),
fit AS (
  SELECT event_type, n,
         CAST(n * sty - st * sy AS DOUBLE)
           / CAST(n * stt - st * st AS DOUBLE) AS b,
         (CAST(sy AS DOUBLE)
          - (CAST(n * sty - st * sy AS DOUBLE)
             / CAST(n * stt - st * st AS DOUBLE)) * CAST(st AS DOUBLE))
           / CAST(n AS DOUBLE) AS a
  FROM s
),
e AS (
  SELECT d.event_type, d.idx,
         CAST(d.x AS DOUBLE) - (f.a + f.b * CAST(d.idx AS DOUBLE)) AS e
  FROM d JOIN fit f USING (event_type)
),
e2 AS (
  SELECT event_type, idx, e,
         lag(e) OVER (PARTITION BY event_type ORDER BY idx) AS ep
  FROM e
),
agg AS (
  SELECT event_type,
         list_sum(list(e * e ORDER BY idx)) AS den,
         list_sum(list((e - ep) * (e - ep) ORDER BY idx)
                  FILTER (WHERE ep IS NOT NULL)) AS num
  FROM e2 GROUP BY 1
)
SELECT f.event_type, CAST(f.n AS BIGINT) AS n_buckets,
       ROUND(f.b, 6) AS slope,
       ROUND(a2.num / a2.den, 6) AS dw
FROM fit f JOIN agg a2 USING (event_type)
WHERE a2.den != 0
"""


# ---------------------------------------------------------------------------
# Dominant ACF period
# ---------------------------------------------------------------------------


def q_dominant_period(sf_dir: str, max_lag: int = 48):
    """The dominant cycle per event_type: the lag in 2..48 with the
    highest autocorrelation of the dense hourly count series (lag 1
    excluded — trivial short-memory). First-ascending argmax on ties;
    the r_k are bitwise-shared with the ACF oracle so the argmax
    selection is identical on both sides."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "best_lag": pd.Series(dtype=np.int64),
             "acf": pd.Series(dtype=np.float64)}
        )
        if n <= max_lag:
            return empty
        S = int(x.sum())
        SS = int((x.astype(np.int64) * x.astype(np.int64)).sum())
        m = float(S) / n
        den = float(SS) - m * float(S)
        if den == 0.0:
            return empty
        _, r = acf_exact(x, max_lag)
        best_k = -1
        best_r = -np.inf
        for k in range(2, max_lag + 1):
            rk = float(r[k - 1])
            if rk > best_r:
                best_r = rk
                best_k = k
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "best_lag": np.array([best_k], dtype=np.int64),
                "acf": [float(_r6away(best_r))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES64["dominant_period"] = """
WITH """ + _DENSE_1H + """,
s AS (SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(x*x) AS sxx
      FROM d GROUP BY 1),
ks AS (SELECT UNNEST(generate_series(2, 48)) AS k),
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
  WHERE s.n > 48
    AND (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE))
        != 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_buckets,
       CAST(k AS BIGINT) AS best_lag, ROUND(rk, 6) AS acf
FROM r
QUALIFY row_number() OVER (PARTITION BY event_type
                           ORDER BY rk DESC, k ASC) = 1
"""


QUERIES64["ljung_box"] = q_ljung_box
QUERIES64["durbin_watson"] = q_durbin_watson
QUERIES64["dominant_period"] = q_dominant_period
