"""Round-3 batch 23: structure-function and shape diagnostics — the
first-order variogram (madogram) of the hourly load at lags
{1,2,4,8,24} (the robust structure function geostatistics uses where
ACF is outlier-fragile), pairwise separation distances between
embedding label centroids (cluster quality over the exact quantized
sums label_centroids already exchanges), the repeat-purchase cadence
histogram (median inter-order days per customer, bucketed), and Bowley
quantile skewness per event type (the outlier-proof skew measure over
nearest-rank quartiles).

House parity: variogram numerators are exact integer |diff| sums over
the per-type dense grid (the acf _DENSE_1H contract); centroid means
divide exact int64 quantized-component sums (label_centroids recipe)
and distance folds run over ascending dim; cadence medians are exact
ceil(n/2)-th order statistics of integer day gaps with (date, orderkey)
tie order; Bowley is one transcribed expression over exact int64 cent
quartiles.

Scale contracts: per-type grids are retention-bounded; the centroid
exchange moves labels x dims integers, never vectors; per-customer
gap kernels run inside hash buckets with vectorized boundary masks;
the cadence histogram is day-bounded.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries4 import _cents, _quantize_rows
from .queries14 import _fold
from .queries16 import _read

QUERIES21: dict = {}
ORACLES21: dict = {}

VARIOGRAM_LAGS = (1, 2, 4, 8, 24)
DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# First-order variogram (madogram)
# ---------------------------------------------------------------------------


def q_variogram(sf_dir: str):
    """Per event type and lag k in {1,2,4,8,24}: the madogram
    gamma(k) = sum|x_{t+k} - x_t| / (2 (n-k)) over the dense hourly
    grid — the L1 structure function (rises with k until the
    correlation length, flattens at the sill). The numerator is an
    exact int64 sum; one transcribed division."""
    from ..kernels.seasonal import dense_counts

    HOUR_US = 3_600_000_000

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = x.size
        rows = []
        for k in VARIOGRAM_LAGS:
            if n <= k:
                continue
            d = int(np.abs(x[k:] - x[:-k]).sum())
            gamma = float(d) / (2.0 * float(n - k))
            rows.append((df["event_type"].iloc[0], k, n - k, d, float(_r6away(gamma))))
        return pd.DataFrame(
            rows, columns=["event_type", "lag", "n_pairs", "abs_sum", "gamma"]
        ).astype({"lag": np.int64, "n_pairs": np.int64, "abs_sum": np.int64})

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES21["variogram"] = """
WITH """ + _DENSE_1H + """,
ks AS (SELECT UNNEST([1, 2, 4, 8, 24]) AS k),
pq AS (
  SELECT a.event_type, ks.k,
         COUNT(*) AS n_pairs,
         CAST(SUM(ABS(b.x - a.x)) AS BIGINT) AS abs_sum
  FROM d a
  CROSS JOIN ks
  JOIN d b ON b.event_type = a.event_type AND b.idx = a.idx + ks.k
  GROUP BY 1, 2
)
SELECT event_type,
       CAST(k AS BIGINT) AS lag,
       CAST(n_pairs AS BIGINT) AS n_pairs,
       abs_sum,
       ROUND(CAST(abs_sum AS DOUBLE) / (2.0 * CAST(n_pairs AS DOUBLE)), 6)
         AS gamma
FROM pq
"""


# ---------------------------------------------------------------------------
# Label-centroid separation matrix
# ---------------------------------------------------------------------------


def q_centroid_separation(sf_dir: str):
    """Pairwise Euclidean distances between embedding label centroids
    (quantized units) — the between-class separation half of a cluster
    quality audit (label_centroids publishes the centroids; this
    measures how far apart they sit). Centroid means divide the same
    exact int64 quantized sums; the squared-difference fold runs over
    ascending dim on both engines."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        q = _quantize_rows(batch["embedding"])
        labels = batch["label"].to_numpy(np.int64)
        rows = []
        for lab in np.unique(labels):
            sel = q[labels == lab]
            rows.append(
                pd.DataFrame(
                    {
                        "label": np.full(q.shape[1], lab, dtype=np.int64),
                        "dim": np.arange(q.shape[1], dtype=np.int64),
                        "n": np.full(q.shape[1], sel.shape[0], dtype=np.int64),
                        "sum_q": sel.sum(axis=0),
                    }
                )
            )
        return pd.concat(rows, ignore_index=True)

    agg = (
        hash_bucket_aggregate(
            ds.map_batches(partial, batch_format="pandas"),
            ["label", "dim"],
            [("n", "sum"), ("sum_q", "sum")],
        )
        .to_pandas()  # labels x dims — bounded
        .sort_values(["label", "dim"])
    )
    labels = sorted(agg["label"].unique())
    means = {
        lab: [
            float(int(s)) / float(int(n))
            for s, n in zip(g["sum_q_sum"], g["n_sum"])
        ]
        for lab, g in agg.groupby("label")
    }
    counts = {lab: int(g["n_sum"].iloc[0]) for lab, g in agg.groupby("label")}
    rows = []
    for i, li in enumerate(labels):
        for lj in labels[i + 1 :]:
            terms = [
                (a - b) * (a - b) for a, b in zip(means[li], means[lj])
            ]  # ascending dim
            rows.append(
                (
                    int(li),
                    int(lj),
                    counts[li],
                    counts[lj],
                    float(_r6away(math.sqrt(_fold(terms)))),
                )
            )
    return pd.DataFrame(
        rows, columns=["label_i", "label_j", "n_i", "n_j", "dist_q"]
    ).astype(
        {"label_i": np.int64, "label_j": np.int64, "n_i": np.int64, "n_j": np.int64}
    )


ORACLES21["centroid_separation"] = """
WITH m AS (
  SELECT label, embedding,
         list_max(list_transform(embedding, x -> abs(x))) AS ma
  FROM embeddings
),
e AS (
  SELECT label,
         unnest(range(0, len(embedding))) AS dim,
         unnest(list_transform(embedding,
           x -> CASE WHEN ma = 0 THEN 0
                     ELSE CAST(ROUND(CAST(x AS DOUBLE) / CAST(ma AS DOUBLE) * 127)
                               AS BIGINT) END)) AS q
  FROM m
),
c AS (
  SELECT CAST(label AS BIGINT) AS label, dim,
         COUNT(*) AS n, CAST(SUM(q) AS BIGINT) AS sq
  FROM e GROUP BY 1, 2
),
p AS (
  SELECT a.label AS label_i, b.label AS label_j,
         MAX(a.n) AS n_i, MAX(b.n) AS n_j,
         list_sum(list(
           (CAST(a.sq AS DOUBLE) / CAST(a.n AS DOUBLE)
            - CAST(b.sq AS DOUBLE) / CAST(b.n AS DOUBLE))
           * (CAST(a.sq AS DOUBLE) / CAST(a.n AS DOUBLE)
              - CAST(b.sq AS DOUBLE) / CAST(b.n AS DOUBLE))
           ORDER BY a.dim)) AS ss
  FROM c a JOIN c b ON b.dim = a.dim AND a.label < b.label
  GROUP BY 1, 2
)
SELECT label_i, label_j,
       CAST(n_i AS BIGINT) AS n_i,
       CAST(n_j AS BIGINT) AS n_j,
       ROUND(sqrt(ss), 6) AS dist_q
FROM p
"""


# ---------------------------------------------------------------------------
# Repeat-purchase cadence histogram
# ---------------------------------------------------------------------------


def q_repeat_cadence(sf_dir: str):
    """Distribution of customer order cadence: per customer with >= 2
    orders, the nearest-rank median of inter-order gaps in whole days
    ((date, orderkey) tie order); the output histogram counts customers
    per median-gap day — the replenishment-cycle profile. Pure integer
    order statistics; the histogram is day-bounded."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["o_custkey"].astype(np.int64),
                "orderkey": b["o_orderkey"].astype(np.int64),
                "date_us": b["o_orderdate"].to_numpy("datetime64[us]").view(np.int64),
            }
        ),
        batch_format="pandas",
    )

    def bucket_kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["custkey", "date_us", "orderkey"])
        ck = df["custkey"].to_numpy(np.int64)
        ts = df["date_us"].to_numpy(np.int64)
        same = ck[1:] == ck[:-1]
        gaps_d = (ts[1:] - ts[:-1]) // DAY_US
        meds = []
        # walk customer segments (vector boundaries, python median pick)
        bounds = np.flatnonzero(~same)
        starts = np.concatenate(([0], bounds + 1))
        ends = np.concatenate((bounds, [len(ck) - 1]))
        for s, e in zip(starts, ends):
            ng = e - s
            if ng < 1:
                continue
            g = np.sort(gaps_d[s:e])
            meds.append(int(g[(ng + 1) // 2 - 1]))
        if not meds:
            return pd.DataFrame(
                {
                    "median_gap_d": pd.Series(dtype=np.int64),
                    "n_customers": pd.Series(dtype=np.int64),
                }
            )
        vc = pd.Series(meds).value_counts()
        return pd.DataFrame(
            {
                "median_gap_d": vc.index.to_numpy(np.int64),
                "n_customers": vc.to_numpy(np.int64),
            }
        )

    agg = hash_bucket_aggregate(
        bucketed_map_groups(orders, ["custkey"], None, whole_bucket_fn=bucket_kernel),
        ["median_gap_d"],
        [("n_customers", "sum")],
    ).to_pandas()
    return (
        pd.DataFrame(
            {
                "median_gap_d": agg["median_gap_d"].astype(np.int64),
                "n_customers": agg["n_customers_sum"].astype(np.int64),
            }
        )
        .sort_values("median_gap_d")
        .reset_index(drop=True)
    )


ORACLES21["repeat_cadence"] = """
WITH g AS (
  SELECT o_custkey AS ck,
         date_diff('day',
                   LAG(o_orderdate) OVER w,
                   o_orderdate) AS gap_d
  FROM orders
  WINDOW w AS (PARTITION BY o_custkey ORDER BY o_orderdate, o_orderkey)
),
v AS (SELECT ck, CAST(gap_d AS BIGINT) AS gap_d FROM g WHERE gap_d IS NOT NULL),
r AS (
  SELECT ck, gap_d,
         ROW_NUMBER() OVER (PARTITION BY ck ORDER BY gap_d) AS rn,
         COUNT(*) OVER (PARTITION BY ck) AS cnt
  FROM v
),
med AS (
  SELECT ck, gap_d AS median_gap_d
  FROM r WHERE rn = (cnt + 1) // 2
)
SELECT median_gap_d, CAST(COUNT(*) AS BIGINT) AS n_customers
FROM med GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Bowley quantile skewness
# ---------------------------------------------------------------------------


def q_bowley_skew(sf_dir: str):
    """Per event type: Bowley skewness (q3 + q1 - 2*q2)/(q3 - q1) of
    the value distribution over exact nearest-rank cent quartiles —
    the outlier-proof alternative to moment skewness (series_stats
    publishes G1; this bounds skew to [-1, 1]). Types with q3 == q1
    are excluded on both sides."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        c = np.sort(_cents(df["value"]))
        n = c.size
        q = lambda p: int(c[(p * n + 99) // 100 - 1])
        q1, q2, q3 = q(25), q(50), q(75)
        if q3 == q1:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "n": pd.Series(dtype=np.int64),
                    "q1_c": pd.Series(dtype=np.int64),
                    "q2_c": pd.Series(dtype=np.int64),
                    "q3_c": pd.Series(dtype=np.int64),
                    "bowley": pd.Series(dtype=np.float64),
                }
            )
        b = (float(q3) + float(q1) - 2.0 * float(q2)) / (float(q3) - float(q1))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "q1_c": np.array([q1], dtype=np.int64),
                "q2_c": np.array([q2], dtype=np.int64),
                "q3_c": np.array([q3], dtype=np.int64),
                "bowley": [float(_r6away(b))],
            }
        )

    return bucketed_map_groups(
        _events(sf_dir, ["event_type", "value"]), ["event_type"], fn
    )


ORACLES21["bowley_skew"] = """
WITH c AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
),
r AS (
  SELECT event_type, c,
         ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY c) AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS cnt
  FROM c
),
q AS (
  SELECT event_type,
         MAX(cnt) AS n,
         MAX(CASE WHEN rn = (25 * cnt + 99) // 100 THEN c END) AS q1,
         MAX(CASE WHEN rn = (50 * cnt + 99) // 100 THEN c END) AS q2,
         MAX(CASE WHEN rn = (75 * cnt + 99) // 100 THEN c END) AS q3
  FROM r GROUP BY 1
)
SELECT event_type,
       CAST(n AS BIGINT) AS n,
       q1 AS q1_c, q2 AS q2_c, q3 AS q3_c,
       ROUND((CAST(q3 AS DOUBLE) + CAST(q1 AS DOUBLE) - 2.0 * CAST(q2 AS DOUBLE))
             / (CAST(q3 AS DOUBLE) - CAST(q1 AS DOUBLE)), 6) AS bowley
FROM q WHERE q3 != q1
"""


QUERIES21["variogram"] = q_variogram
QUERIES21["centroid_separation"] = q_centroid_separation
QUERIES21["repeat_cadence"] = q_repeat_cadence
QUERIES21["bowley_skew"] = q_bowley_skew
