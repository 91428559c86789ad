"""Round-3 batch 26: behavioural and decay diagnostics — mean per-user
activity-type entropy (how specialized vs diverse individual users
are), the autocorrelation decay time (first lag where the anchored ACF
drops below 1/e — the memory length in hours), central moments of
daily totals including skewness (exact integer power sums), and the
order-priority x market-segment contingency matrix.

House parity: per-user entropies fold over ascending event_type and the
cross-user mean folds over ascending user_id (nested list_sum
contract); the decay threshold exp(-1) is the same libm/DuckDB double
and compares against ROUND(,6)-anchored ACF values (the pacf pattern);
daily moment sums S/S2/S3 are exact integers (HUGEINT cubes) feeding
one transcribed skewness expression; the contingency matrix is pure
integer counts with one share division.

Scale contracts: per-user kernels run inside hash buckets (type
distributions are catalog-bounded per user); the user-entropy table is
the hill/theil driver-fold contract; daily grids are retention-bounded;
the matrix is |priorities| x |segments|.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries14 import _fold
from .queries16 import _read

QUERIES24: dict = {}
ORACLES24: dict = {}

DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# Mean per-user activity-type entropy
# ---------------------------------------------------------------------------


def q_user_type_entropy(sf_dir: str):
    """Mean Shannon entropy (nats) of each user's event-type
    distribution — 0 = every user does one thing, ln|types| = everyone
    does everything equally; the specialization gauge for audience
    modelling. Per-user entropies are exact-count folds over ascending
    type; the cross-user mean folds over ascending user_id."""
    ev = _events(sf_dir, ["user_id", "event_type"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "event_type": b["event_type"],
            }
        )
        .groupby(["user_id", "event_type"], sort=False)
        .size()
        .reset_index(name="n")
        .astype({"n": np.int64}),
        batch_format="pandas",
    )
    agg = hash_bucket_aggregate(ev, ["user_id", "event_type"], [("n", "sum")])

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("event_type")
        s = int(df["n_sum"].sum())
        f = _fold(
            [float(int(m)) * math.log(float(int(m))) for m in df["n_sum"]]
        )
        h = math.log(float(s)) - f / float(s)
        return pd.DataFrame(
            {
                "user_id": np.array([int(df["user_id"].iloc[0])], dtype=np.int64),
                "h": [h],
            }
        )

    per_user = (
        bucketed_map_groups(agg, ["user_id"], kernel)
        .to_pandas()
        .sort_values("user_id")
    )
    n = len(per_user)
    mean_h = _fold([float(x) for x in per_user["h"]]) / float(n)
    return pd.DataFrame(
        {
            "n_users": np.array([n], dtype=np.int64),
            "mean_entropy": [float(_r6away(mean_h))],
        }
    )


ORACLES24["user_type_entropy"] = """
WITH c AS (
  SELECT user_id, event_type, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
u AS (
  SELECT user_id,
         CAST(SUM(n) AS BIGINT) AS s,
         list_sum(list(CAST(n AS DOUBLE) * ln(CAST(n AS DOUBLE))
                       ORDER BY event_type)) AS f
  FROM c GROUP BY 1
),
h AS (
  SELECT user_id,
         ln(CAST(s AS DOUBLE)) - f / CAST(s AS DOUBLE) AS h
  FROM u
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_users,
       ROUND(list_sum(list(h ORDER BY user_id))
             / CAST(COUNT(*) AS DOUBLE), 6) AS mean_entropy
FROM h
"""


# ---------------------------------------------------------------------------
# Autocorrelation decay time
# ---------------------------------------------------------------------------


def q_acf_decay_time(sf_dir: str, max_lag: int = 12):
    """Per event type: the first lag (hours) where the ROUND-anchored
    ACF drops below 1/e — the stream's memory length (0 = never decays
    within max_lag). Consumes the exact-integer acf_exact kernel the
    `acf` query already verifies; the 1/e threshold is the same libm ==
    DuckDB exp(-1) double on both sides."""
    from ..kernels.seasonal import acf_exact, dense_counts

    HOUR_US = 3_600_000_000
    thr = math.exp(-1.0)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        if x.size <= max_lag:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "decay_lag_h": pd.Series(dtype=np.int64),
                    "acf_at_decay": pd.Series(dtype=np.float64),
                }
            )
        _, r = acf_exact(x, max_lag)
        anchored = [float(_r6away(v)) for v in r]
        lag = 0
        val = 0.0
        for k, v in enumerate(anchored, start=1):
            if v < thr:
                lag = k
                val = v
                break
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "decay_lag_h": np.array([lag], dtype=np.int64),
                "acf_at_decay": [val],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES24["acf_decay_time"] = """
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
acf AS (
  SELECT s.event_type, pq.k,
         ROUND((CAST(p AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(q AS DOUBLE)
                + (n - pq.k) * (CAST(sx AS DOUBLE)/n) * (CAST(sx AS DOUBLE)/n))
               / (CAST(sxx AS DOUBLE)
                  - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE)), 6) AS r
  FROM pq JOIN s USING (event_type)
  WHERE s.n > 12
),
hit AS (
  SELECT event_type, k, r,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY k) AS rn
  FROM acf WHERE r < exp(-1.0)
)
SELECT a.event_type,
       CAST(COALESCE(h.k, 0) AS BIGINT) AS decay_lag_h,
       COALESCE(h.r, 0.0) AS acf_at_decay
FROM (SELECT DISTINCT event_type FROM acf) a
LEFT JOIN hit h ON h.event_type = a.event_type AND h.rn = 1
"""


# ---------------------------------------------------------------------------
# Daily-total central moments (incl. skewness)
# ---------------------------------------------------------------------------


def q_daily_moments(sf_dir: str):
    """Mean, population variance and moment skewness of total DAILY
    event counts — the day-scale load shape (weekend_effect compares
    groups; this summarizes the whole distribution). Power sums
    S/S2/S3 are exact integers; the three moment expressions are
    transcribed once each."""
    ev = _events(sf_dir, ["ts"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "day_us": (
                    b["ts"].to_numpy("datetime64[us]").view(np.int64) // DAY_US
                )
                * DAY_US,
            }
        )
        .groupby("day_us", sort=False)
        .size()
        .reset_index(name="n"),
        batch_format="pandas",
    )
    per_day = hash_bucket_aggregate(ev, ["day_us"], [("n", "sum")]).to_pandas()
    v = per_day["n_sum"].to_numpy(np.int64)
    n = v.size
    s = int(v.sum())
    s2 = int((v * v).sum())
    s3 = 0
    for x in v:
        s3 += int(x) ** 3  # exact python ints
    nf = float(n)
    mu = float(s) / nf
    var = float(s2) / nf - mu * mu
    m3 = float(s3) / nf - 3.0 * mu * (float(s2) / nf) + 2.0 * mu * mu * mu
    skew = m3 / (math.sqrt(var) * math.sqrt(var) * math.sqrt(var))
    return pd.DataFrame(
        {
            "n_days": np.array([n], dtype=np.int64),
            "total": np.array([s], dtype=np.int64),
            "mean_daily": [float(_r6away(mu))],
            "var_daily": [float(_r6away(var))],
            "skew_daily": [float(_r6away(skew))],
        }
    )


ORACLES24["daily_moments"] = """
WITH d AS (
  SELECT date_trunc('day', ts) AS day, COUNT(*) AS n
  FROM events GROUP BY 1
),
a AS (
  SELECT COUNT(*) AS n,
         CAST(SUM(n) AS BIGINT) AS s,
         CAST(SUM(n::HUGEINT * n::HUGEINT) AS BIGINT) AS s2,
         CAST(SUM(n::HUGEINT * n::HUGEINT * n::HUGEINT) AS BIGINT) AS s3
  FROM d
),
m AS (
  SELECT n, s, s2, s3,
         CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mu,
         CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE)
           - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
             * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) AS var
  FROM a
)
SELECT CAST(n AS BIGINT) AS n_days,
       s AS total,
       ROUND(mu, 6) AS mean_daily,
       ROUND(var, 6) AS var_daily,
       ROUND((CAST(s3 AS DOUBLE) / CAST(n AS DOUBLE)
              - 3.0 * mu * (CAST(s2 AS DOUBLE) / CAST(n AS DOUBLE))
              + 2.0 * mu * mu * mu)
             / (sqrt(var) * sqrt(var) * sqrt(var)), 6) AS skew_daily
FROM m
"""


# ---------------------------------------------------------------------------
# Order-priority x market-segment contingency matrix
# ---------------------------------------------------------------------------


def q_priority_segment_matrix(sf_dir: str):
    """Order counts for every (priority, segment) cell with the share
    within the segment column — the cross-dimensional mix table (are
    urgent orders concentrated in one market?). One co-partitioned
    custkey join; pure integer counts plus one share division."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["o_custkey"].astype(np.int64),
                "priority": b["o_orderpriority"],
            }
        ),
        batch_format="pandas",
    )
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["c_custkey"].astype(np.int64),
                "segment": b["c_mktsegment"],
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(orders, cust, on=["custkey"], how="inner")
    agg = hash_bucket_aggregate(
        joined.map_batches(
            lambda b: b.groupby(["priority", "segment"], sort=False)
            .size()
            .reset_index(name="n")
            .astype({"n": np.int64}),
            batch_format="pandas",
        ),
        ["priority", "segment"],
        [("n", "sum")],
    ).to_pandas()
    seg_tot = agg.groupby("segment")["n_sum"].transform("sum").astype(np.int64)
    share = [
        float(_r6away(float(int(n)) / float(int(t))))
        for n, t in zip(agg["n_sum"], seg_tot)
    ]
    return (
        pd.DataFrame(
            {
                "priority": agg["priority"],
                "segment": agg["segment"],
                "n_orders": agg["n_sum"].astype(np.int64),
                "segment_share": share,
            }
        )
        .sort_values(["priority", "segment"])
        .reset_index(drop=True)
    )


ORACLES24["priority_segment_matrix"] = """
WITH j AS (
  SELECT o.o_orderpriority AS priority, c.c_mktsegment AS segment
  FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
),
a AS (
  SELECT priority, segment, COUNT(*) AS n FROM j GROUP BY 1, 2
)
SELECT priority, segment,
       CAST(n AS BIGINT) AS n_orders,
       ROUND(CAST(n AS DOUBLE)
             / CAST(SUM(n) OVER (PARTITION BY segment) AS DOUBLE), 6)
         AS segment_share
FROM a
"""


QUERIES24["user_type_entropy"] = q_user_type_entropy
QUERIES24["acf_decay_time"] = q_acf_decay_time
QUERIES24["daily_moments"] = q_daily_moments
QUERIES24["priority_segment_matrix"] = q_priority_segment_matrix
