"""Round-3 batch 36: asymmetry and event-study diagnostics — the
time-reversibility statistic per event type (skewness of hourly load
changes: reversible/Gaussian dynamics score ~0, sawtooth climb-crash
dynamics don't — the third-moment twin of ramp_asymmetry), the
post-peak decay profile (mean total load at offsets +1..+6 hours after
a p99 load spike — the event-study curve capacity planners read), and
brand revenue share (exact revenue mix across part brands).

House parity: delta power sums (squares and cubes) are exact Python
ints / HUGEINTs; the skewness is one transcribed expression; spike
triggers use the exact nearest-rank p99 over present hours and all
offset sums are integer reductions on the dense grid; brand revenue is
the cents x discount-basis-points integer recipe.

Scale contracts: per-type grids are retention-bounded; the trigger set
and offset table are grid-bounded; brand revenue reduces through one
exchange with a part-side co-partitioned join.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries4 import _cents
from .queries6 import HOUR_US, _hourly_counts
from .queries14 import _dense_totals
from .queries16 import _read

QUERIES34: dict = {}
ORACLES34: dict = {}

DECAY_OFFSETS = (1, 2, 3, 4, 5, 6)


# ---------------------------------------------------------------------------
# Time-reversibility (delta skewness) per type
# ---------------------------------------------------------------------------


def q_time_reversibility(sf_dir: str):
    """Per event type: moment skewness of hour-over-hour load changes
    on the dense grid — a time-reversible (or Gaussian) process scores
    ~0; slow-climb/fast-crash load is negative. Delta power sums
    (sum d, sum d^2, sum d^3) are exact integers; one transcribed
    expression (types with zero delta variance excluded both sides)."""
    from ..kernels.seasonal import dense_counts

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        d = np.diff(x.astype(np.int64))
        n = int(d.size)
        if n < 2:
            return _TR_EMPTY.copy()
        s = int(d.sum())
        s2 = sum(int(v) * int(v) for v in d)
        s3 = sum(int(v) ** 3 for v in d)
        nf = float(n)
        mu = float(s) / nf
        var = float(s2) / nf - mu * mu
        if var <= 0.0:
            return _TR_EMPTY.copy()
        m3 = float(s3) / nf - 3.0 * mu * (float(s2) / nf) + 2.0 * mu * mu * mu
        skew = m3 / (math.sqrt(var) * math.sqrt(var) * math.sqrt(var))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_deltas": np.array([n], dtype=np.int64),
                "delta_skew": [float(_r6away(skew))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


_TR_EMPTY = pd.DataFrame(
    {
        "event_type": pd.Series(dtype=object),
        "n_deltas": pd.Series(dtype=np.int64),
        "delta_skew": pd.Series(dtype=np.float64),
    }
)


ORACLES34["time_reversibility"] = """
WITH """ + _DENSE_1H + """,
dd AS (
  SELECT event_type,
         x - LAG(x) OVER (PARTITION BY event_type ORDER BY idx) AS df
  FROM d
),
a AS (
  SELECT event_type, COUNT(*) AS n,
         CAST(SUM(df) AS BIGINT) AS s,
         CAST(SUM(df::HUGEINT * df::HUGEINT) AS BIGINT) AS s2,
         CAST(SUM(df::HUGEINT * df::HUGEINT * df::HUGEINT) AS BIGINT) AS s3
  FROM dd WHERE df IS NOT NULL
  GROUP BY 1 HAVING COUNT(*) >= 2
),
m AS (
  SELECT event_type, n, s3, s2,
         CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
         CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
           - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
             * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) AS var
  FROM a
)
SELECT event_type,
       CAST(n AS BIGINT) AS n_deltas,
       ROUND((CAST(s3 AS DOUBLE) / CAST(n AS DOUBLE)
              - 3.0 * mu * (CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE))
              + 2.0 * mu * mu * mu)
             / (sqrt(var) * sqrt(var) * sqrt(var)), 6) AS delta_skew
FROM m WHERE var > 0.0
"""


# ---------------------------------------------------------------------------
# Post-peak decay profile
# ---------------------------------------------------------------------------


def q_post_peak_decay(sf_dir: str):
    """Event-study curve of total load after a spike: for every hour
    whose load reaches the exact nearest-rank p99 of present hours,
    the mean load at offsets +1..+6 hours (offsets running past the
    grid end are dropped) against the global hourly mean — how fast
    spikes drain. Pure integer sums over the dense grid."""
    agg = _hourly_counts(sf_dir)
    per = agg.groupby("hour_us")["n_sum"].sum()
    present = np.sort(per.to_numpy(np.int64))
    npres = present.size
    thr = int(present[(99 * npres + 99) // 100 - 1])
    v = _dense_totals(sf_dir)
    n = v.size
    s_all = int(v.sum())
    triggers = np.flatnonzero(v >= thr)
    rows = []
    for off in DECAY_OFFSETS:
        idx = triggers + off
        idx = idx[idx < n]
        k = int(idx.size)
        if k == 0:
            continue
        tot = int(v[idx].sum())
        rows.append(
            (
                off,
                k,
                tot,
                float(_r6away(float(tot) / float(k))),
                float(_r6away(float(s_all) / float(n))),
            )
        )
    return pd.DataFrame(
        rows,
        columns=["offset_h", "n_triggers", "total_load", "mean_load", "grid_mean"],
    ).astype(
        {"offset_h": np.int64, "n_triggers": np.int64, "total_load": np.int64}
    )


ORACLES34["post_peak_decay"] = """
WITH h AS (
  SELECT date_trunc('hour', ts) AS bh, COUNT(*) AS n
  FROM events GROUP BY 1
),
thr AS (
  SELECT n AS thr FROM (
    SELECT n, ROW_NUMBER() OVER (ORDER BY n) AS rn, COUNT(*) OVER () AS cnt
    FROM h
  ) WHERE rn = (99 * cnt + 99) // 100
),
bounds AS (SELECT MIN(bh) AS lo, MAX(bh) AS hi FROM h),
grid AS (
  SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS bh FROM bounds
),
dense AS (
  SELECT CAST(COALESCE(h.n, 0) AS BIGINT) AS v,
         ROW_NUMBER() OVER (ORDER BY g.bh) - 1 AS idx
  FROM grid g LEFT JOIN h USING (bh)
),
st AS (SELECT COUNT(*) AS n, CAST(SUM(v) AS BIGINT) AS s FROM dense),
trig AS (SELECT d.idx FROM dense d CROSS JOIN thr WHERE d.v >= thr.thr),
offs AS (SELECT UNNEST([1, 2, 3, 4, 5, 6]) AS off),
hits AS (
  SELECT o.off, d.v
  FROM trig t CROSS JOIN offs o
  JOIN dense d ON d.idx = t.idx + o.off
),
a AS (
  SELECT off, COUNT(*) AS k, CAST(SUM(v) AS BIGINT) AS tot
  FROM hits GROUP BY 1
)
SELECT CAST(a.off AS BIGINT) AS offset_h,
       CAST(a.k AS BIGINT) AS n_triggers,
       a.tot AS total_load,
       ROUND(CAST(a.tot AS DOUBLE) / CAST(a.k AS DOUBLE), 6) AS mean_load,
       ROUND(CAST(st.s AS DOUBLE) / CAST(st.n AS DOUBLE), 6) AS grid_mean
FROM a CROSS JOIN st
"""


# ---------------------------------------------------------------------------
# Brand revenue share
# ---------------------------------------------------------------------------


def q_brand_revenue_share(sf_dir: str):
    """Per part brand: lineitem count, exact discounted revenue
    (cents x basis-points integer), and the revenue share — the
    assortment mix table beside brand_price_index. One co-partitioned
    part join; one exchange; one transcribed division."""
    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "partkey": b["l_partkey"].astype(np.int64),
                "rev": _cents(b["l_extendedprice"])
                * np.rint(
                    (1.0 - b["l_discount"].to_numpy(np.float64)) * 100
                ).astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    part = _read(sf_dir, "part", ["p_partkey", "p_brand"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "partkey": b["p_partkey"].astype(np.int64),
                "brand": b["p_brand"],
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(li, part, on=["partkey"], how="inner")
    agg = hash_bucket_aggregate(
        joined.map_batches(
            lambda b: b.assign(n=lambda d: np.ones(len(d), dtype=np.int64))
            .groupby("brand", sort=False)
            .agg(n=("n", "sum"), rev=("rev", "sum"))
            .reset_index(),
            batch_format="pandas",
        ),
        ["brand"],
        [("n", "sum"), ("rev", "sum")],
    ).to_pandas()
    tot = int(agg["rev_sum"].sum())
    share = [
        float(_r6away(float(int(r)) / float(tot))) for r in agg["rev_sum"]
    ]
    return (
        pd.DataFrame(
            {
                "brand": agg["brand"],
                "n_items": agg["n_sum"].astype(np.int64),
                "revenue": [
                    float(_r6away(float(int(r)) / 10000.0)) for r in agg["rev_sum"]
                ],
                "rev_share": share,
            }
        )
        .sort_values("brand")
        .reset_index(drop=True)
    )


ORACLES34["brand_revenue_share"] = """
WITH j AS (
  SELECT p.p_brand AS brand,
         CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
           * CAST(ROUND((1.0 - l.l_discount) * 100) AS BIGINT) AS rev
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
),
a AS (
  SELECT brand, COUNT(*) AS n, CAST(SUM(rev) AS BIGINT) AS rev
  FROM j GROUP BY 1
)
SELECT brand,
       CAST(n AS BIGINT) AS n_items,
       ROUND(CAST(rev AS DOUBLE) / 10000.0, 6) AS revenue,
       ROUND(CAST(rev AS DOUBLE) / CAST(SUM(rev) OVER () AS DOUBLE), 6)
         AS rev_share
FROM a
"""


QUERIES34["time_reversibility"] = q_time_reversibility
QUERIES34["post_peak_decay"] = q_post_peak_decay
QUERIES34["brand_revenue_share"] = q_brand_revenue_share
