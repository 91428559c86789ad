"""Round-3 batch 73: distributional stability diagnostics — the CUSUM
of OLS residuals (max standardized cumulative residual of the linear
trend fit, a structural-drift detector complementary to
chow_test_midpoint), the Kolmogorov-Smirnov distance of each type's
hour-of-day distribution from uniform, and the Jensen-Shannon
divergence between weekday and weekend hour-of-day profiles.

House parity: the cumulative residual decomposes into EXACT integer
prefix sums — e_cum(t) = SY_t - (t+1)a - b*t(t+1)/2 with SY_t a
windowed integer sum (order-free) and a, b the shared OLS floats — so
no float accumulates sequentially; the KS numerator is max over 24
integers |24*cum - (h+1)*total|; JS folds ascend hour-of-day with the
shared ln. Day-of-week is (epoch_us // DAY_US + 3) % 7, weekend >= 5.

Scale contracts: all three reduce each event_type's bounded series /
24-cell profile inside one bucketed_map_groups kernel call after the
standard rollup exchange.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import dense_counts
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries14 import _fold

QUERIES71: dict = {}
ORACLES71: dict = {}

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# CUSUM of OLS residuals
# ---------------------------------------------------------------------------


def q_cusum_ols_residuals(sf_dir: str):
    """Max standardized cumulative OLS residual per event_type:
    fit count ~ idx, track |sum_{s<=t} e_s| via the exact integer
    prefix-sum identity, and report max / (sd_e * sqrt(n)) with the
    first-ascending peak index."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "peak_idx": pd.Series(dtype=np.int64),
             "cusum_stat": pd.Series(dtype=np.float64)}
        )
        if n < 3:
            return empty
        y = x.astype(np.int64)
        t = np.arange(n, dtype=np.int64)
        sy = int(y.sum())
        st = int(t.sum())
        stt = int((t * t).sum())
        sty = int((t * y).sum())
        syy = int((y * y).sum())
        dden = n * stt - st * st
        if dden == 0:
            return empty
        b = float(n * sty - st * sy) / float(dden)
        a = (float(sy) - b * float(st)) / float(n)
        syy_c = float(syy) - float(sy) * float(sy) / float(n)
        sty_c = float(sty) - float(st) * float(sy) / float(n)
        sse = syy_c - b * sty_c
        if sse <= 0.0:
            return empty
        best = -1
        best_a = -1.0
        syt = 0
        for i in range(n):
            syt += int(y[i])
            stl = i * (i + 1) // 2
            ec = float(syt) - float(i + 1) * a - b * float(stl)
            aec = abs(ec)
            if aec > best_a:
                best_a = aec
                best = i
        stat = best_a / (math.sqrt(sse / n) * math.sqrt(float(n)))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "peak_idx": np.array([best], dtype=np.int64),
                "cusum_stat": [float(_r6away(stat))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES71["cusum_ols_residuals"] = """
WITH """ + _DENSE_1H + """,
s AS (
  SELECT event_type, COUNT(*) AS n, SUM(idx) AS st, SUM(idx*idx) AS stt,
         SUM(x) AS sy, SUM(x*x) AS syy, SUM(idx*x) AS sty
  FROM d GROUP BY 1 HAVING COUNT(*) >= 3
),
fit AS (
  SELECT event_type, n,
         CAST(n * sty - st * sy AS DOUBLE)
           / CAST(n * stt - st * st AS DOUBLE) AS b,
         (CAST(sy AS DOUBLE)
          - (CAST(n * sty - st * sy AS DOUBLE)
             / CAST(n * stt - st * st AS DOUBLE)) * CAST(st AS DOUBLE))
           / CAST(n AS DOUBLE) AS a,
         (CAST(syy AS DOUBLE)
          - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE) / CAST(n AS DOUBLE))
         - (CAST(n * sty - st * sy AS DOUBLE)
            / CAST(n * stt - st * st AS DOUBLE))
           * (CAST(sty AS DOUBLE)
              - CAST(st AS DOUBLE) * CAST(sy AS DOUBLE) / CAST(n AS DOUBLE))
           AS sse
  FROM s WHERE n * stt - st * st != 0
),
cum AS (
  SELECT event_type, idx,
         SUM(x) OVER (PARTITION BY event_type ORDER BY idx) AS syt
  FROM d
),
ec AS (
  SELECT c.event_type, c.idx, f.n, f.sse,
         abs(CAST(c.syt AS DOUBLE) - CAST(c.idx + 1 AS DOUBLE) * f.a
             - f.b * CAST(c.idx * (c.idx + 1) // 2 AS DOUBLE)) AS aec
  FROM cum c JOIN fit f USING (event_type)
  WHERE f.sse > 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_buckets,
       CAST(idx AS BIGINT) AS peak_idx,
       ROUND(aec / (sqrt(sse / n) * sqrt(CAST(n AS DOUBLE))), 6)
         AS cusum_stat
FROM ec
QUALIFY row_number() OVER (PARTITION BY event_type
                           ORDER BY aec DESC, idx ASC) = 1
"""


# ---------------------------------------------------------------------------
# KS distance of hour-of-day distribution from uniform
# ---------------------------------------------------------------------------


def q_ks_uniform_hod(sf_dir: str):
    """KS statistic per event_type of the hour-of-day event
    distribution against uniform: D = max_h |ecdf(h) - (h+1)/24| with
    an all-integer numerator max |24*cum_h - (h+1)*total|; ties pick
    the earliest hour."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_events": pd.Series(dtype=np.int64),
             "worst_hour": pd.Series(dtype=np.int64),
             "ks_d": pd.Series(dtype=np.float64)}
        )
        hod = (grid // HOUR_US) % 24
        c = np.zeros(24, dtype=np.int64)
        np.add.at(c, hod, x)
        total = int(c.sum())
        if total == 0:
            return empty
        best_h = -1
        best_num = -1
        cum = 0
        for h in range(24):
            cum += int(c[h])
            num = abs(24 * cum - (h + 1) * total)
            if num > best_num:
                best_num = num
                best_h = h
        d = float(best_num) / float(24 * total)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_events": np.array([total], dtype=np.int64),
                "worst_hour": np.array([best_h], dtype=np.int64),
                "ks_d": [float(_r6away(d))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES71["ks_uniform_hod"] = """
WITH """ + _DENSE_1H + """,
hs AS (SELECT UNNEST(generate_series(0, 23)) AS h),
hc AS (
  SELECT et.event_type, hs.h, COALESCE(SUM(d.x), 0) AS c
  FROM (SELECT DISTINCT event_type FROM d) et
  CROSS JOIN hs
  LEFT JOIN d ON d.event_type = et.event_type
             AND (epoch_us(d.b) // 3600000000) % 24 = hs.h
  GROUP BY 1, 2
),
cum AS (
  SELECT event_type, h,
         SUM(c) OVER (PARTITION BY event_type ORDER BY h) AS cum,
         SUM(c) OVER (PARTITION BY event_type) AS total
  FROM hc
),
num AS (
  SELECT event_type, h, total,
         abs(24 * cum - (h + 1) * total) AS num
  FROM cum WHERE total > 0
)
SELECT event_type, CAST(total AS BIGINT) AS n_events,
       CAST(h AS BIGINT) AS worst_hour,
       ROUND(CAST(num AS DOUBLE) / CAST(24 * total AS DOUBLE), 6) AS ks_d
FROM num
QUALIFY row_number() OVER (PARTITION BY event_type
                           ORDER BY num DESC, h ASC) = 1
"""


# ---------------------------------------------------------------------------
# Weekday vs weekend hour-profile JS divergence
# ---------------------------------------------------------------------------


def q_weekday_profile_divergence(sf_dir: str):
    """Jensen-Shannon divergence (nats) per event_type between the
    weekday and weekend hour-of-day event distributions: JS =
    0.5 KL(p||m) + 0.5 KL(q||m), m = (p+q)/2, folds ascending hour."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_weekday": pd.Series(dtype=np.int64),
             "n_weekend": pd.Series(dtype=np.int64),
             "js_divergence": pd.Series(dtype=np.float64)}
        )
        hod = (grid // HOUR_US) % 24
        wk = ((grid // DAY_US + 3) % 7) >= 5
        wd = np.zeros(24, dtype=np.int64)
        we = np.zeros(24, dtype=np.int64)
        np.add.at(wd, hod[~wk], x[~wk])
        np.add.at(we, hod[wk], x[wk])
        twd = int(wd.sum())
        twe = int(we.sum())
        if twd == 0 or twe == 0:
            return empty
        kl1_terms = []
        kl2_terms = []
        for h in range(24):
            p = float(int(wd[h])) / float(twd)
            q = float(int(we[h])) / float(twe)
            m = (p + q) / 2.0
            if p > 0.0:
                kl1_terms.append(p * math.log(p / m))
            if q > 0.0:
                kl2_terms.append(q * math.log(q / m))
        js = 0.5 * _fold(kl1_terms) + 0.5 * _fold(kl2_terms)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_weekday": np.array([twd], dtype=np.int64),
                "n_weekend": np.array([twe], dtype=np.int64),
                "js_divergence": [float(_r6away(js))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES71["weekday_profile_divergence"] = """
WITH """ + _DENSE_1H + """,
hs AS (SELECT UNNEST(generate_series(0, 23)) AS h),
hc AS (
  SELECT et.event_type, hs.h,
         COALESCE(SUM(CASE WHEN (epoch_us(d.b) // 86400000000 + 3) % 7 < 5
                           THEN d.x END), 0) AS wd,
         COALESCE(SUM(CASE WHEN (epoch_us(d.b) // 86400000000 + 3) % 7 >= 5
                           THEN d.x END), 0) AS we
  FROM (SELECT DISTINCT event_type FROM d) et
  CROSS JOIN hs
  LEFT JOIN d ON d.event_type = et.event_type
             AND (epoch_us(d.b) // 3600000000) % 24 = hs.h
  GROUP BY 1, 2
),
tot AS (
  SELECT event_type, SUM(wd) AS twd, SUM(we) AS twe
  FROM hc GROUP BY 1 HAVING SUM(wd) > 0 AND SUM(we) > 0
),
pq2 AS (
  SELECT hc.event_type, hc.h,
         CAST(hc.wd AS DOUBLE) / CAST(t.twd AS DOUBLE) AS p,
         CAST(hc.we AS DOUBLE) / CAST(t.twe AS DOUBLE) AS q,
         t.twd, t.twe
  FROM hc JOIN tot t USING (event_type)
),
kl AS (
  SELECT event_type, MAX(twd) AS twd, MAX(twe) AS twe,
         COALESCE(list_sum(list(
           CASE WHEN p > 0 THEN p * ln(p / ((p + q) / 2.0)) END
           ORDER BY h)), 0.0) AS kl1,
         COALESCE(list_sum(list(
           CASE WHEN q > 0 THEN q * ln(q / ((p + q) / 2.0)) END
           ORDER BY h)), 0.0) AS kl2
  FROM pq2 GROUP BY 1
)
SELECT event_type, CAST(twd AS BIGINT) AS n_weekday,
       CAST(twe AS BIGINT) AS n_weekend,
       ROUND(0.5 * kl1 + 0.5 * kl2, 6) AS js_divergence
FROM kl
"""


QUERIES71["cusum_ols_residuals"] = q_cusum_ols_residuals
QUERIES71["ks_uniform_hod"] = q_ks_uniform_hod
QUERIES71["weekday_profile_divergence"] = q_weekday_profile_divergence
