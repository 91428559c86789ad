"""Round-4 batch 138: seasonality-strength and experiment sizing — the
Hyndman F-measures (F_seasonal / F_trend from the classical
decomposition: how much of the series variance the daily cycle and the
trend each explain), and prospective A/B power analysis (the
two-proportion sample-size formula evaluated at the observed arm
conversions).

House parity: decomposition components are ANCHORED at ROUND(,6) on
both sides before the variance folds (the iqr_outliers anchor pattern —
the components themselves are already oracle-verified to six decimals
in seasonal_decompose); every variance is Q/n - (S/n)^2 with S, Q folds
in ascending idx order; the power formula uses the shared literals
1.959964 / 0.841621 (z at 97.5% / 80%) and exact integer conversion
counts.

Scale contracts: decomposition folds run per type over the
retention-bounded dense series inside the rollup's bucketed_map_groups; power
ingredients are four integers through one user-keyed exchange."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import classical_decompose, dense_counts
from .queries2 import _r6away, event_tier
from .queries3 import _bucket_us
from .queries14 import _fold
from .queries137 import q_ab_test_srm

QUERIES138: dict = {}
ORACLES138: dict = {}

HOUR_US = 3_600_000_000
Z_ALPHA = 1.959964  # two-sided 5%
Z_BETA = 0.841621  # 80% power


# ---------------------------------------------------------------------------
# Seasonality / trend strength
# ---------------------------------------------------------------------------


def q_seasonality_strength(sf_dir: str, period: int = 24):
    """Per event_type: Hyndman's strength measures over the classical
    additive decomposition of the dense hourly series — F_seasonal =
    max(0, 1 - var(resid)/var(seasonal + resid)) and F_trend = max(0,
    1 - var(resid)/var(trend + resid)) — the two numbers that say
    whether modeling the daily cycle and the trend is worth anything.
    Components anchor at ROUND(,6) before the ascending-idx variance
    folds; types without a full centered window are excluded."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(
            _bucket_us(df), df["count"].to_numpy(), HOUR_US
        )
        trend, seasonal, resid, valid = classical_decompose(x, period)
        idx = np.flatnonzero(valid)
        empty = pd.DataFrame(
            {
                "event_type": pd.Series([], dtype=object),
                "n_valid": pd.Series([], dtype=np.int64),
                "f_seasonal": pd.Series([], dtype=np.float64),
                "f_trend": pd.Series([], dtype=np.float64),
            }
        )
        if idx.size < 2:
            return empty
        r = _r6away(resid[idx])
        sr = _r6away(seasonal[idx] + resid[idx])
        tr = _r6away(trend[idx] + resid[idx])

        def var(a) -> float:
            n = float(len(a))
            s = _fold(a)
            q = _fold([float(v) * float(v) for v in a])
            return q / n - (s / n) * (s / n)

        vr = var(list(r))
        vsr = var(list(sr))
        vtr = var(list(tr))
        if vsr <= 0.0 or vtr <= 0.0:
            return empty
        fs = 1.0 - vr / vsr
        ft = 1.0 - vr / vtr
        fs = fs if fs > 0.0 else 0.0
        ft = ft if ft > 0.0 else 0.0
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_valid": np.array([idx.size], dtype=np.int64),
                "f_seasonal": [float(_r6away(fs))],
                "f_trend": [float(_r6away(ft))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES138["seasonality_strength"] = """
WITH
c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(b) AS lo, MAX(b) AS hi FROM c GROUP BY 1),
g AS (
  SELECT bo.event_type, bo.lo,
         UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 HOUR)) AS b
  FROM bounds bo
),
d AS (
  SELECT g.event_type,
         CAST(date_diff('hour', g.lo, g.b) AS BIGINT) AS idx,
         g.b, COALESCE(c.x, 0) AS x
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
),
w AS (
  SELECT event_type, idx, x,
         lag(x, 12)  OVER wo AS xm12,
         lead(x, 12) OVER wo AS xp12,
         SUM(x) OVER (PARTITION BY event_type ORDER BY idx
                      ROWS BETWEEN 11 PRECEDING AND 11 FOLLOWING) AS s23,
         COUNT(*) OVER (PARTITION BY event_type ORDER BY idx
                        ROWS BETWEEN 11 PRECEDING AND 11 FOLLOWING) AS c23
  FROM d
  WINDOW wo AS (PARTITION BY event_type ORDER BY idx)
),
t AS (
  SELECT event_type, idx, x, xm12 + 2 * s23 + xp12 AS num2
  FROM w WHERE xm12 IS NOT NULL AND xp12 IS NOT NULL AND c23 = 23
),
p AS (
  SELECT event_type, idx % 24 AS phase,
         48 * SUM(x) - SUM(num2) AS dnum, COUNT(*) AS cnt
  FROM t GROUP BY 1, 2
),
se AS (
  SELECT event_type, phase, CAST(dnum AS DOUBLE) / 48.0 / cnt AS seas
  FROM p
),
comp AS (
  SELECT t.event_type, t.idx,
         ROUND(t.x - CAST(num2 AS DOUBLE) / 48.0 - seas, 6) AS r,
         ROUND(seas + (t.x - CAST(num2 AS DOUBLE) / 48.0 - seas), 6) AS sr,
         ROUND(CAST(num2 AS DOUBLE) / 48.0
               + (t.x - CAST(num2 AS DOUBLE) / 48.0 - seas), 6) AS tr
  FROM t JOIN se ON se.event_type = t.event_type
                AND se.phase = t.idx % 24
),
v AS (
  SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
         list_sum(list(r ORDER BY idx)) AS s_r,
         list_sum(list(r * r ORDER BY idx)) AS q_r,
         list_sum(list(sr ORDER BY idx)) AS s_sr,
         list_sum(list(sr * sr ORDER BY idx)) AS q_sr,
         list_sum(list(tr ORDER BY idx)) AS s_tr,
         list_sum(list(tr * tr ORDER BY idx)) AS q_tr
  FROM comp GROUP BY 1 HAVING COUNT(*) >= 2
),
f AS (
  SELECT event_type, n,
         q_r / n - (s_r / n) * (s_r / n) AS vr,
         q_sr / n - (s_sr / n) * (s_sr / n) AS vsr,
         q_tr / n - (s_tr / n) * (s_tr / n) AS vtr
  FROM v
)
SELECT event_type, n AS n_valid,
       ROUND(greatest(CAST(0.0 AS DOUBLE),
                      CAST(1.0 AS DOUBLE) - vr / vsr), 6) AS f_seasonal,
       ROUND(greatest(CAST(0.0 AS DOUBLE),
                      CAST(1.0 AS DOUBLE) - vr / vtr), 6) AS f_trend
FROM f WHERE vsr > 0 AND vtr > 0
"""


# ---------------------------------------------------------------------------
# A/B power analysis
# ---------------------------------------------------------------------------


def q_ab_power_analysis(sf_dir: str):
    """One row: the prospective per-arm sample size to detect the
    OBSERVED conversion delta between the id-parity arms at 5%
    two-sided alpha and 80% power — n = (z_a sqrt(2 p q) + z_b
    sqrt(pa qa + pb qb))^2 / (pb - pa)^2 — next to the users each arm
    actually has (is the experiment already big enough). Arms with an
    identical observed rate are excluded (infinite n)."""
    base = q_ab_test_srm(sf_dir)
    if len(base) == 0:
        return pd.DataFrame(
            {
                "n_a": pd.Series([], dtype=np.int64),
                "n_b": pd.Series([], dtype=np.int64),
                "conv_a": pd.Series([], dtype=np.float64),
                "conv_b": pd.Series([], dtype=np.float64),
                "n_required_per_arm": pd.Series([], dtype=np.float64),
            }
        )
    r = base.iloc[0]
    na, nb = int(r["n_a"]), int(r["n_b"])
    pa, pb = float(r["conv_a"]), float(r["conv_b"])
    if pa == pb:
        return pd.DataFrame(
            {
                "n_a": pd.Series([], dtype=np.int64),
                "n_b": pd.Series([], dtype=np.int64),
                "conv_a": pd.Series([], dtype=np.float64),
                "conv_b": pd.Series([], dtype=np.float64),
                "n_required_per_arm": pd.Series([], dtype=np.float64),
            }
        )
    pbar = (pa + pb) / 2.0
    num = Z_ALPHA * math.sqrt(2.0 * pbar * (1.0 - pbar)) + Z_BETA * math.sqrt(
        pa * (1.0 - pa) + pb * (1.0 - pb)
    )
    n_req = num * num / ((pb - pa) * (pb - pa))
    return pd.DataFrame(
        {
            "n_a": np.array([na], dtype=np.int64),
            "n_b": np.array([nb], dtype=np.int64),
            "conv_a": [pa],
            "conv_b": [pb],
            "n_required_per_arm": [float(_r6away(n_req))],
        }
    )


ORACLES138["ab_power_analysis"] = f"""
WITH u AS (
  SELECT user_id, user_id % 2 AS arm,
         MAX(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS conv
  FROM events GROUP BY 1, 2
),
g AS (
  SELECT arm, COUNT(*) AS users, SUM(conv) AS conv FROM u GROUP BY 1
),
t AS (
  SELECT CAST(MAX(CASE WHEN arm = 0 THEN users END) AS BIGINT) AS na,
         CAST(MAX(CASE WHEN arm = 0 THEN conv END) AS BIGINT) AS ca,
         CAST(MAX(CASE WHEN arm = 1 THEN users END) AS BIGINT) AS nb,
         CAST(MAX(CASE WHEN arm = 1 THEN conv END) AS BIGINT) AS cb
  FROM g
),
f AS (
  SELECT na, nb,
         ROUND(CAST(ca AS DOUBLE) / CAST(na AS DOUBLE), 6) AS pa,
         ROUND(CAST(cb AS DOUBLE) / CAST(nb AS DOUBLE), 6) AS pb
  FROM t WHERE na IS NOT NULL AND nb IS NOT NULL
),
c AS (
  SELECT na, nb, pa, pb, (pa + pb) / CAST(2.0 AS DOUBLE) AS pbar
  FROM f WHERE pa <> pb
)
SELECT na AS n_a, nb AS n_b, pa AS conv_a, pb AS conv_b,
       ROUND((CAST({Z_ALPHA} AS DOUBLE)
                * sqrt(CAST(2.0 AS DOUBLE) * pbar
                       * (CAST(1.0 AS DOUBLE) - pbar))
              + CAST({Z_BETA} AS DOUBLE)
                * sqrt(pa * (CAST(1.0 AS DOUBLE) - pa)
                       + pb * (CAST(1.0 AS DOUBLE) - pb)))
             * (CAST({Z_ALPHA} AS DOUBLE)
                * sqrt(CAST(2.0 AS DOUBLE) * pbar
                       * (CAST(1.0 AS DOUBLE) - pbar))
              + CAST({Z_BETA} AS DOUBLE)
                * sqrt(pa * (CAST(1.0 AS DOUBLE) - pa)
                       + pb * (CAST(1.0 AS DOUBLE) - pb)))
             / ((pb - pa) * (pb - pa)), 6) AS n_required_per_arm
FROM c
"""


QUERIES138["seasonality_strength"] = q_seasonality_strength
QUERIES138["ab_power_analysis"] = q_ab_power_analysis
