"""Round-5 batch 166: robust location and extreme-value shape — the
Huber M-estimator of the hourly-load level (5 IRLS sweeps, MAD-scaled
clipping: the location estimate incident spikes cannot drag), and the
GEV shape parameter from probability-weighted moments (Hosking 1985 —
does the daily-max distribution have a bounded, Gumbel or heavy tail?;
complements the existing Gumbel fit, which ASSUMES shape 0).

House parity strategy: medians/MAD over integer counts are exact
half-integers on both engines; the IRLS recursion carries one scalar
through a recursive CTE with CASE-weighted ascending folds; the PWM
sums weight SORTED exact-integer maxima by exact integer ratios
(i-1)/(n-1), and the shape uses only ln and polynomial arithmetic —
deliberately NO gamma() (DuckDB's gamma differs from libm by ~2 ulp,
so scale/location are left to the Gumbel query's moment method).

Scale contracts: both ride the bounded per-type hourly/daily rollups."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _r6, event_tier

QUERIES166: dict = {}
ORACLES166: dict = {}

_HUBER_K = 1.345
_HUBER_ITERS = 5


def q_huber_mean(sf_dir: str):
    """Per event_type: Huber M-estimate of the hourly count level —
    5 IRLS sweeps from the median, weights w = min(1, 1.345*s/|v-m|)
    with s = MAD, falling back to the mean absolute deviation when the
    MAD degenerates to 0 (over half the hours at the median — common
    for sparse streams); truly constant series are skipped by BOTH
    engines. Output (event_type, n, med, scale_s, huber_mean)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: [] for c in ["event_type", "n", "med", "scale_s",
                             "huber_mean"]}
        )
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64).astype(np.float64)
        n = len(v)
        med = float(np.median(v))
        mad = float(np.median(np.abs(v - med)))
        if mad > 0.0:
            s = mad
        else:
            acc = 0.0
            for x in v:  # ascending fold of exact dyadic |x - med|
                acc += abs(x - med)
            s = acc / float(n)
        if s <= 0.0:
            return empty
        k = _HUBER_K * s
        m = med
        for _ in range(_HUBER_ITERS):
            sw = swv = 0.0
            for x in v:  # ascending folds; CASE weights mirrored
                d = abs(x - m)
                w = 1.0 if d <= k else k / d
                sw += w
                swv += w * x
            m = swv / sw
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "med": _r6(np.array([med])),
                "scale_s": _r6(np.array([s])),
                "huber_mean": _r6(np.array([m])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES166["huber_mean"] = q_huber_mean
ORACLES166["huber_mean"] = """
WITH RECURSIVE s AS (
  SELECT event_type, date_trunc('hour', ts) AS h, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a0 AS (
  SELECT event_type, list(v ORDER BY h) AS vs, COUNT(*) AS n,
         MEDIAN(v) AS med, MAD(v) AS mad
  FROM s GROUP BY 1
),
a AS (
  SELECT event_type, vs, n, med,
         CASE WHEN mad > 0 THEN mad
              ELSE list_sum(list_transform(vs, x -> abs(x - med))) / n END
           AS sc
  FROM a0
),
it AS (
  SELECT 0 AS t, event_type, vs, n, med, sc,
         1.345 * sc AS k, med AS m
  FROM a WHERE sc > 0
  UNION ALL
  SELECT t + 1, event_type, vs, n, med, sc, k,
         list_sum(list_transform(vs, x ->
           (CASE WHEN abs(x - m) <= k THEN 1.0
                 ELSE k / abs(x - m) END) * x))
         / list_sum(list_transform(vs, x ->
             CASE WHEN abs(x - m) <= k THEN 1.0
                  ELSE k / abs(x - m) END))
  FROM it WHERE t < 5
)
SELECT event_type, CAST(n AS BIGINT) AS n,
       ROUND(med, 6) AS med, ROUND(sc, 6) AS scale_s,
       ROUND(m, 6) AS huber_mean
FROM it WHERE t = 5
"""


def q_gev_shape_pwm(sf_dir: str):
    """Per event_type: GEV shape from probability-weighted moments of
    the daily maxima of hourly counts — b_r = (1/n) sum over sorted
    maxima of [(i-1)...(i-r)/((n-1)...(n-r))] x_(i); c = (2b1-b0)/
    (3b2-b0) - ln2/ln3; shape k = 7.8590c + 2.9554c^2 (k ~ 0 Gumbel,
    k < 0 heavy/Frechet tail, k > 0 bounded). Output (event_type,
    n_blocks, b0, b1, b2, shape_k)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: [] for c in ["event_type", "n_blocks", "b0", "b1", "b2",
                             "shape_k"]}
        )
        df = df.sort_values("bucket_ts")
        us = df["bucket_ts"].to_numpy("datetime64[us]").view(np.int64)
        day = us // 86_400_000_000
        g = (
            pd.DataFrame({"day": day, "v": df["count"].to_numpy(np.int64)})
            .groupby("day", sort=True)["v"]
            .max()
        )
        x = np.sort(g.to_numpy(np.int64)).astype(np.float64)
        n = len(x)
        if n < 5:
            return empty
        b0 = b1 = b2 = 0.0
        for i in range(1, n + 1):  # ascending-rank folds
            b0 += x[i - 1]
            b1 += (float(i - 1) / float(n - 1)) * x[i - 1]
            b2 += (
                float((i - 1) * (i - 2)) / float((n - 1) * (n - 2))
            ) * x[i - 1]
        b0 /= float(n)
        b1 /= float(n)
        b2 /= float(n)
        den = 3.0 * b2 - b0
        if den == 0.0:
            return empty
        c = (2.0 * b1 - b0) / den - math.log(2.0) / math.log(3.0)
        k = 7.8590 * c + 2.9554 * c * c
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_blocks": np.array([n], dtype=np.int64),
                "b0": _r6(np.array([b0])),
                "b1": _r6(np.array([b1])),
                "b2": _r6(np.array([b2])),
                "shape_k": _r6(np.array([k])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES166["gev_shape_pwm"] = q_gev_shape_pwm
ORACLES166["gev_shape_pwm"] = """
WITH s AS (
  SELECT event_type, date_trunc('hour', ts) AS h, COUNT(*) AS v
  FROM events GROUP BY 1, 2
),
dm AS (
  SELECT event_type, date_trunc('day', h) AS d,
         CAST(MAX(v) AS DOUBLE) AS mx
  FROM s GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(mx ORDER BY mx) AS xs, COUNT(*) AS n
  FROM dm GROUP BY 1 HAVING COUNT(*) >= 5
),
pw AS (
  SELECT event_type, n,
         list_sum(list_transform(range(1, n + 1), i -> xs[i])) / n AS b0,
         list_sum(list_transform(range(1, n + 1),
           i -> (CAST(i - 1 AS DOUBLE) / CAST(n - 1 AS DOUBLE)) * xs[i]))
           / n AS b1,
         list_sum(list_transform(range(1, n + 1),
           i -> (CAST((i - 1) * (i - 2) AS DOUBLE)
                 / CAST((n - 1) * (n - 2) AS DOUBLE)) * xs[i]))
           / n AS b2
  FROM a
),
cc AS (
  SELECT event_type, n, b0, b1, b2,
         (2.0 * b1 - b0) / (3.0 * b2 - b0) - ln(2.0) / ln(3.0) AS c
  FROM pw WHERE 3.0 * b2 - b0 <> 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_blocks,
       ROUND(b0, 6) AS b0, ROUND(b1, 6) AS b1, ROUND(b2, 6) AS b2,
       ROUND(7.8590 * c + 2.9554 * c * c, 6) AS shape_k
FROM cc
"""
