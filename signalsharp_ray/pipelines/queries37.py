"""Round-3 batch 39: higher-moment and mix-shift diagnostics — the
variance F-ratio between window halves per event type (did volatility
change even if the mean didn't — the second-moment drift beside
halves_drift), order-priority mix by year (share within each year of
the multi-year history), and excess kurtosis of hourly load per type
(fat-tailed spikiness beyond what variance captures).

House parity: per-half and per-type power sums (through the fourth
power) are exact Python-int / HUGEINT reductions over integer counts;
every moment combination is one transcribed float expression; year
and priority counts are exact integers with one share division.

Scale contracts: per-type dense grids are retention-bounded; the year
x priority table is bounded; all reductions are single exchanges.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries16 import _read

QUERIES37: dict = {}
ORACLES37: dict = {}

HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# Variance F-ratio between window halves
# ---------------------------------------------------------------------------


def q_variance_ratio_halves(sf_dir: str):
    """Per event type: population variance of hourly load in the first
    vs second half of its dense grid (second half gets the odd middle
    hour) and the F-ratio var2/var1 — volatility drift that a mean
    test misses. All power sums exact integers; types with a
    zero-variance half are excluded identically."""
    from ..kernels.seasonal import dense_counts

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        h = n // 2
        if h < 2:
            return _VR_EMPTY.copy()
        a = x[:h].astype(np.int64)
        b = x[h:].astype(np.int64)

        def var_of(v):
            m = int(v.size)
            s = int(v.sum())
            ss = int((v * v).sum())
            mf = float(m)
            mu = float(s) / mf
            return m, float(ss) / mf - mu * mu

        na, va = var_of(a)
        nb, vb = var_of(b)
        if not (va > 0.0 and vb > 0.0):
            return _VR_EMPTY.copy()
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_first": np.array([na], dtype=np.int64),
                "n_second": np.array([nb], dtype=np.int64),
                "var_first": [float(_r6away(va))],
                "var_second": [float(_r6away(vb))],
                "f_ratio": [float(_r6away(vb / va))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


_VR_EMPTY = pd.DataFrame(
    {
        "event_type": pd.Series(dtype=object),
        "n_first": pd.Series(dtype=np.int64),
        "n_second": pd.Series(dtype=np.int64),
        "var_first": pd.Series(dtype=np.float64),
        "var_second": pd.Series(dtype=np.float64),
        "f_ratio": pd.Series(dtype=np.float64),
    }
)


ORACLES37["variance_ratio_halves"] = """
WITH """ + _DENSE_1H + """,
nn AS (SELECT event_type, COUNT(*) AS n FROM d GROUP BY 1),
lab AS (
  SELECT d.event_type, d.x,
         CASE WHEN d.idx < nn.n // 2 THEN 0 ELSE 1 END AS half
  FROM d JOIN nn USING (event_type)
  WHERE nn.n // 2 >= 2
),
a AS (
  SELECT event_type, half, COUNT(*) AS m,
         CAST(SUM(x) AS BIGINT) AS s,
         CAST(SUM(x::HUGEINT * x::HUGEINT) AS BIGINT) AS ss
  FROM lab GROUP BY 1, 2
),
v AS (
  SELECT event_type, half, m,
         CAST(ss AS DOUBLE) / CAST(m AS DOUBLE)
           - (CAST(s AS DOUBLE) / CAST(m AS DOUBLE))
             * (CAST(s AS DOUBLE) / CAST(m AS DOUBLE)) AS var
  FROM a
),
p AS (
  SELECT v1.event_type,
         v1.m AS n_first, v2.m AS n_second,
         v1.var AS va, v2.var AS vb
  FROM v v1 JOIN v v2
    ON v2.event_type = v1.event_type AND v1.half = 0 AND v2.half = 1
  WHERE v1.var > 0.0 AND v2.var > 0.0
)
SELECT event_type,
       CAST(n_first AS BIGINT) AS n_first,
       CAST(n_second AS BIGINT) AS n_second,
       ROUND(va, 6) AS var_first,
       ROUND(vb, 6) AS var_second,
       ROUND(vb / va, 6) AS f_ratio
FROM p
"""


# ---------------------------------------------------------------------------
# Order-priority mix by year
# ---------------------------------------------------------------------------


def q_priority_mix_by_year(sf_dir: str):
    """Order counts per (year, priority) with the share within each
    year — does urgency creep up over the multi-year history. Exact
    integer counts; one share division."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "year": pd.DatetimeIndex(b["o_orderdate"]).year.astype(np.int64),
                "priority": b["o_orderpriority"],
            }
        )
        .groupby(["year", "priority"], sort=False)
        .size()
        .reset_index(name="n")
        .astype({"n": np.int64}),
        batch_format="pandas",
    )
    agg = (
        hash_bucket_aggregate(orders, ["year", "priority"], [("n", "sum")])
        .to_pandas()
        .sort_values(["year", "priority"])
    )
    year_tot = agg.groupby("year")["n_sum"].transform("sum").astype(np.int64)
    share = [
        float(_r6away(float(int(n)) / float(int(t))))
        for n, t in zip(agg["n_sum"], year_tot)
    ]
    return pd.DataFrame(
        {
            "year": agg["year"].astype(np.int64),
            "priority": agg["priority"],
            "n_orders": agg["n_sum"].astype(np.int64),
            "year_share": share,
        }
    ).reset_index(drop=True)


ORACLES37["priority_mix_by_year"] = """
WITH a AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
         o_orderpriority AS priority,
         COUNT(*) AS n
  FROM orders GROUP BY 1, 2
)
SELECT year, priority,
       CAST(n AS BIGINT) AS n_orders,
       ROUND(CAST(n AS DOUBLE)
             / CAST(SUM(n) OVER (PARTITION BY year) AS DOUBLE), 6)
         AS year_share
FROM a
"""


# ---------------------------------------------------------------------------
# Excess kurtosis of hourly load
# ---------------------------------------------------------------------------


def q_load_kurtosis(sf_dir: str):
    """Per event type: excess kurtosis of hourly load on the dense
    grid — fat-tailed spike behaviour beyond variance (Gaussian load
    scores ~0; rare-huge-spike load scores high). Power sums through
    the fourth power are exact Python ints / HUGEINTs; one transcribed
    moment expression."""
    from ..kernels.seasonal import dense_counts

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        v = x.astype(np.int64)
        n = int(v.size)
        if n < 4:
            return _KT_EMPTY.copy()
        s1 = int(v.sum())
        s2 = sum(int(a) * int(a) for a in v)
        s3 = sum(int(a) ** 3 for a in v)
        s4 = sum(int(a) ** 4 for a in v)
        nf = float(n)
        mu = float(s1) / nf
        var = float(s2) / nf - mu * mu
        if var <= 0.0:
            return _KT_EMPTY.copy()
        m4 = (
            float(s4) / nf
            - 4.0 * mu * (float(s3) / nf)
            + 6.0 * mu * mu * (float(s2) / nf)
            - 3.0 * mu * mu * mu * mu
        )
        kurt = m4 / (var * var) - 3.0
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_hours": np.array([n], dtype=np.int64),
                "excess_kurtosis": [float(_r6away(kurt))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


_KT_EMPTY = pd.DataFrame(
    {
        "event_type": pd.Series(dtype=object),
        "n_hours": pd.Series(dtype=np.int64),
        "excess_kurtosis": pd.Series(dtype=np.float64),
    }
)


ORACLES37["load_kurtosis"] = """
WITH """ + _DENSE_1H + """,
a AS (
  SELECT event_type, COUNT(*) AS n,
         CAST(SUM(x) AS BIGINT) AS s1,
         SUM(x::HUGEINT * x::HUGEINT) AS s2,
         SUM(x::HUGEINT * x::HUGEINT * x::HUGEINT) AS s3,
         SUM(x::HUGEINT * x::HUGEINT * x::HUGEINT * x::HUGEINT) AS s4
  FROM d GROUP BY 1 HAVING COUNT(*) >= 4
),
m AS (
  SELECT event_type, n, s2, s3, s4,
         CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
         CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
           - (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE))
             * (CAST(s1 AS DOUBLE) / CAST(n AS DOUBLE)) AS var
  FROM a
)
SELECT event_type,
       CAST(n AS BIGINT) AS n_hours,
       ROUND((CAST(s4 AS DOUBLE) / CAST(n AS DOUBLE)
              - 4.0 * mu * (CAST(s3 AS DOUBLE) / CAST(n AS DOUBLE))
              + 6.0 * mu * mu * (CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE))
              - 3.0 * mu * mu * mu * mu)
             / (var * var) - 3.0, 6) AS excess_kurtosis
FROM m WHERE var > 0.0
"""


QUERIES37["variance_ratio_halves"] = q_variance_ratio_halves
QUERIES37["priority_mix_by_year"] = q_priority_mix_by_year
QUERIES37["load_kurtosis"] = q_load_kurtosis
