"""Round-3 batch 79: robust-statistics and forecast-skill operators —
the 10% trimmed mean of event values per type (deterministic
rank-based trim), the seasonal-naive MAE ratio over daily counts (the
MASE denominator pair: does weekly seasonality beat persistence), and
the trend of the daily type-mix entropy (is traffic diversifying or
concentrating).

House parity: the trim drops exactly n//10 rows at each end of the
(centivalue, event_id) total order — integer selection, exact cents
sum of the middle; MAEs are integer absolute-difference sums; the
entropy trend folds daily entropies (shared ln over integer shares)
through transcribed OLS sums ordered by day.

Scale contracts: the trim runs per event_type inside
bucketed_map_groups after a lean (cents, event_id) projection; MAE and
entropy reduce the calendar-bounded daily rollup.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import dense_counts
from .queries2 import _events, _r6away, event_tier
from .queries3 import _bucket_us
from .queries14 import _fold

QUERIES77: dict = {}
ORACLES77: dict = {}

DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# 10% trimmed mean of event values per type
# ---------------------------------------------------------------------------


def q_trimmed_mean_value(sf_dir: str):
    """Per event_type: drop the k = n//10 smallest and largest
    centivalues (total order (cents, event_id) — deterministic under
    ties) and report the exact mean of the middle, next to the raw
    mean."""
    ev = _events(sf_dir, ["event_type", "event_id", "value"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "event_type": b["event_type"],
                "event_id": b["event_id"].astype(np.int64),
                "c": (
                    np.sign(b["value"].to_numpy(np.float64) * 100)
                    * np.floor(
                        np.abs(b["value"].to_numpy(np.float64) * 100) + 0.5
                    )
                ).astype(np.int64),
            }
        ),
        batch_format="pandas",
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["c", "event_id"], kind="mergesort")
        n = len(d)
        k = n // 10
        mid = d.iloc[k:n - k] if k > 0 else d
        m = len(mid)
        if m == 0:
            return pd.DataFrame(
                {"event_type": pd.Series(dtype=object),
                 "n_events": pd.Series(dtype=np.int64),
                 "n_trimmed": pd.Series(dtype=np.int64),
                 "mean_value": pd.Series(dtype=np.float64),
                 "trimmed_mean": pd.Series(dtype=np.float64)}
            )
        s_all = int(d["c"].sum())
        s_mid = int(mid["c"].sum())
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_events": np.array([n], dtype=np.int64),
                "n_trimmed": np.array([2 * k], dtype=np.int64),
                "mean_value": [
                    float(_r6away(float(s_all) / float(n) / 100.0))
                ],
                "trimmed_mean": [
                    float(_r6away(float(s_mid) / float(m) / 100.0))
                ],
            }
        )

    return bucketed_map_groups(ev, ["event_type"], fn)


ORACLES77["trimmed_mean_value"] = """
WITH b AS (
  SELECT event_type, event_id,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
),
rk AS (
  SELECT event_type, c,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY c ASC, event_id ASC) AS r,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM b
)
SELECT event_type, CAST(MAX(n) AS BIGINT) AS n_events,
       CAST(2 * (MAX(n) // 10) AS BIGINT) AS n_trimmed,
       ROUND(CAST(SUM(c) AS DOUBLE) / CAST(MAX(n) AS DOUBLE) / 100.0, 6)
         AS mean_value,
       ROUND(CAST(SUM(c) FILTER (WHERE r > n // 10 AND r <= n - n // 10)
                  AS DOUBLE)
             / CAST(MAX(n) - 2 * (MAX(n) // 10) AS DOUBLE) / 100.0, 6)
         AS trimmed_mean
FROM rk GROUP BY event_type
HAVING MAX(n) - 2 * (MAX(n) // 10) > 0
"""


# ---------------------------------------------------------------------------
# Seasonal-naive vs naive MAE ratio on daily counts
# ---------------------------------------------------------------------------


def q_naive_mae_ratio(sf_dir: str):
    """Per event_type over the dense daily series: MAE of the lag-1
    naive forecast, MAE of the lag-7 seasonal naive, and their ratio
    (seasonal / naive — below 1 means weekly seasonality wins). Both
    MAEs are exact integer absolute-difference sums over the t >= 7
    evaluation range shared by both forecasts."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), DAY_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_eval": pd.Series(dtype=np.int64),
             "mae_naive": pd.Series(dtype=np.float64),
             "mae_seasonal": pd.Series(dtype=np.float64),
             "mae_ratio": pd.Series(dtype=np.float64)}
        )
        if n <= 7:
            return empty
        y = x.astype(np.int64)
        m = n - 7
        a1 = int(np.abs(y[7:] - y[6:-1]).sum())
        a7 = int(np.abs(y[7:] - y[:-7]).sum())
        if a1 == 0:
            return empty
        mae1 = float(a1) / float(m)
        mae7 = float(a7) / float(m)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_eval": np.array([m], dtype=np.int64),
                "mae_naive": [float(_r6away(mae1))],
                "mae_seasonal": [float(_r6away(mae7))],
                "mae_ratio": [float(_r6away(mae7 / mae1))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


ORACLES77["naive_mae_ratio"] = """
WITH c AS (
  SELECT event_type, date_trunc('day', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(b) AS lo, MAX(b) AS hi FROM c GROUP BY 1),
g AS (
  SELECT bo.event_type, bo.lo,
         UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 DAY)) AS b
  FROM bounds bo
),
d AS (
  SELECT g.event_type,
         CAST(date_diff('day', g.lo, g.b) AS BIGINT) AS idx,
         COALESCE(c.x, 0) AS x
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
),
e AS (
  SELECT a.event_type,
         COUNT(*) AS m,
         SUM(abs(a.x - p1.x)) AS a1,
         SUM(abs(a.x - p7.x)) AS a7
  FROM d a
  JOIN d p1 ON p1.event_type = a.event_type AND p1.idx = a.idx - 1
  JOIN d p7 ON p7.event_type = a.event_type AND p7.idx = a.idx - 7
  WHERE a.idx >= 7
  GROUP BY 1
)
SELECT event_type, CAST(m AS BIGINT) AS n_eval,
       ROUND(CAST(a1 AS DOUBLE) / CAST(m AS DOUBLE), 6) AS mae_naive,
       ROUND(CAST(a7 AS DOUBLE) / CAST(m AS DOUBLE), 6) AS mae_seasonal,
       ROUND((CAST(a7 AS DOUBLE) / CAST(m AS DOUBLE))
             / (CAST(a1 AS DOUBLE) / CAST(m AS DOUBLE)), 6) AS mae_ratio
FROM e WHERE a1 > 0
"""


# ---------------------------------------------------------------------------
# Daily type-mix entropy trend
# ---------------------------------------------------------------------------


def q_type_mix_entropy_trend(sf_dir: str):
    """One global row: per-day Shannon entropy (nats) of the event-type
    mix, its mean, and the OLS slope over day index — positive slope
    means traffic is diversifying. Entropy folds ascend event_type;
    the OLS sums fold ascending day."""
    agg = event_tier(sf_dir, "1d").to_pandas()
    out_empty = pd.DataFrame(
        {"n_days": pd.Series(dtype=np.int64),
         "mean_entropy": pd.Series(dtype=np.float64),
         "slope": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    agg["day"] = (
        agg["bucket_ts"].astype("datetime64[us]").astype("int64") // DAY_US
    )
    days = sorted(agg["day"].unique().tolist())
    ents = []
    for day in days:
        g = agg[agg["day"] == day].sort_values("event_type")
        tot = int(g["count"].sum())
        terms = []
        for _, r in g.iterrows():
            p = float(int(r["count"])) / float(tot)
            terms.append(p * math.log(p))
        ents.append(-_fold(terms))
    nd = len(days)
    if nd < 2:
        return out_empty
    # OLS of entropy on day index 0..nd-1 (float y, integer t)
    st = 0
    stt = 0
    sy = _fold(ents)
    sty = _fold([float(i) * e for i, e in enumerate(ents)])
    for i in range(nd):
        st += i
        stt += i * i
    dden = nd * stt - st * st
    if dden == 0:
        return out_empty
    slope = (float(nd) * sty - float(st) * sy) / float(dden)
    return pd.DataFrame(
        {
            "n_days": np.array([nd], dtype=np.int64),
            "mean_entropy": [float(_r6away(sy / float(nd)))],
            "slope": [float(_r6away(slope))],
        }
    )


ORACLES77["type_mix_entropy_trend"] = """
WITH c AS (
  SELECT event_type, date_trunc('day', ts) AS day, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
dt AS (SELECT day, SUM(n) AS tot FROM c GROUP BY 1),
ent AS (
  SELECT c.day,
         -list_sum(list(
           (CAST(c.n AS DOUBLE) / CAST(dt.tot AS DOUBLE))
           * ln(CAST(c.n AS DOUBLE) / CAST(dt.tot AS DOUBLE))
           ORDER BY c.event_type)) AS e
  FROM c JOIN dt USING (day)
  GROUP BY c.day
),
idx AS (
  SELECT e, row_number() OVER (ORDER BY day) - 1 AS i FROM ent
),
s AS (
  SELECT COUNT(*) AS nd, SUM(i) AS st, SUM(i * i) AS stt,
         list_sum(list(e ORDER BY i)) AS sy,
         list_sum(list(CAST(i AS DOUBLE) * e ORDER BY i)) AS sty
  FROM idx
)
SELECT CAST(nd AS BIGINT) AS n_days,
       ROUND(sy / CAST(nd AS DOUBLE), 6) AS mean_entropy,
       ROUND((CAST(nd AS DOUBLE) * sty - CAST(st AS DOUBLE) * sy)
             / CAST(nd * stt - st * st AS DOUBLE), 6) AS slope
FROM s WHERE nd >= 2 AND nd * stt - st * st != 0
"""


QUERIES77["trimmed_mean_value"] = q_trimmed_mean_value
QUERIES77["naive_mae_ratio"] = q_naive_mae_ratio
QUERIES77["type_mix_entropy_trend"] = q_type_mix_entropy_trend
