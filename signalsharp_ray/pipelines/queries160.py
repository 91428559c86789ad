"""Round-5 batch 160: stream-memory, spectral-shape, embedding-geometry
and threshold-picking diagnostics — the Goh-Barabasi MEMORY coefficient
of inter-arrival gaps (the companion to the existing burstiness B),
spectral flatness (Wiener entropy) of the hourly-load spectrum, the
embedding table's effective dimension (participation ratio — no
eigendecomposition needed: (tr C)^2 / tr(C^2) off the exact integer
Gram exchange), and knee-point detection (max perpendicular distance to
the chord, the standard "pick the elbow" rule) on each type's sorted
daily-count curve.

House parity strategy: gap sums accumulate in Python ints / SQL HUGEINT
(microsecond squares overflow int64) and cast to DOUBLE once in a
shared expression; spectral folds are the proven libm cos/sin DFT
pattern; the participation ratio reuses embedding_covariance's exact
integer Gram; the knee search is ALL integer arithmetic (cross products
of count deltas), ties to the smallest index.

Scale contracts: gaps/spectra ride per-type ordered streams or bounded
rollups (SMA/DFT precedents); the Gram exchange ships d(d+1)/2 integer
rows; the knee scan is a bounded per-type window computation."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _events, _r6, event_tier

QUERIES160: dict = {}
ORACLES160: dict = {}


def q_gap_memory_coefficient(sf_dir: str):
    """Per event_type: the Goh-Barabasi memory coefficient M — the
    Pearson correlation between consecutive inter-arrival gaps
    ((ts, event_id) order, exact microseconds). M > 0 means long gaps
    follow long gaps (clustered activity); M < 0 alternation. Types
    with fewer than 3 gaps or degenerate variance are skipped by BOTH
    engines. Output (event_type, n_gaps, memory_coef)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"event_type": [], "n_gaps": [], "memory_coef": []}
        )
        df = df.sort_values(["ts", "event_id"])
        us = df["ts"].to_numpy("datetime64[us]").view(np.int64)
        g = np.diff(us)
        m = len(g)
        if m < 3:
            return empty
        # exact integer sums in arbitrary-precision Python ints
        g1 = [int(x) for x in g[:-1]]
        g2 = [int(x) for x in g[1:]]
        s1 = sum(g1)
        s2 = sum(g2)
        q1 = sum(x * x for x in g1)
        q2 = sum(x * x for x in g2)
        p = sum(a * b for a, b in zip(g1, g2))
        md = float(m - 1)
        v1 = float(q1) - float(s1) * float(s1) / md
        v2 = float(q2) - float(s2) * float(s2) / md
        if v1 <= 0.0 or v2 <= 0.0:
            return empty
        mc = (float(p) - float(s1) * float(s2) / md) / (
            math.sqrt(v1) * math.sqrt(v2)
        )
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_gaps": np.array([m], dtype=np.int64),
                "memory_coef": _r6(np.array([mc])),
            }
        )

    return bucketed_map_groups(
        _events(sf_dir, ["event_id", "ts", "event_type"]), ["event_type"], fn
    )


QUERIES160["gap_memory_coefficient"] = q_gap_memory_coefficient
ORACLES160["gap_memory_coefficient"] = """
WITH r AS (
  SELECT event_type,
         epoch_us(ts)
           - lag(epoch_us(ts)) OVER (PARTITION BY event_type
                                     ORDER BY ts, event_id) AS g,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id)
           AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS cnt
  FROM events
),
gp AS (
  SELECT event_type, g,
         lead(g) OVER (PARTITION BY event_type ORDER BY rn) AS gn,
         cnt - 1 AS m
  FROM r WHERE g IS NOT NULL
),
s AS (
  SELECT event_type, ANY_VALUE(m) AS m,
         SUM(CAST(g AS HUGEINT)) AS s1,
         SUM(CAST(gn AS HUGEINT)) AS s2,
         SUM(CAST(g AS HUGEINT) * CAST(g AS HUGEINT)) AS q1,
         SUM(CAST(gn AS HUGEINT) * CAST(gn AS HUGEINT)) AS q2,
         SUM(CAST(g AS HUGEINT) * CAST(gn AS HUGEINT)) AS p
  FROM gp WHERE gn IS NOT NULL
  GROUP BY 1 HAVING ANY_VALUE(m) >= 3
),
v AS (
  SELECT event_type, m,
         CAST(q1 AS DOUBLE)
           - CAST(s1 AS DOUBLE) * CAST(s1 AS DOUBLE)
             / CAST(m - 1 AS DOUBLE) AS v1,
         CAST(q2 AS DOUBLE)
           - CAST(s2 AS DOUBLE) * CAST(s2 AS DOUBLE)
             / CAST(m - 1 AS DOUBLE) AS v2,
         CAST(p AS DOUBLE)
           - CAST(s1 AS DOUBLE) * CAST(s2 AS DOUBLE)
             / CAST(m - 1 AS DOUBLE) AS cxy
  FROM s
)
SELECT event_type, CAST(m AS BIGINT) AS n_gaps,
       ROUND(cxy / (sqrt(v1) * sqrt(v2)), 6) AS memory_coef
FROM v WHERE v1 > 0 AND v2 > 0
"""


def q_spectral_flatness(sf_dir: str, k_max: int = 12):
    """Per event_type: spectral flatness (Wiener entropy) of the hourly
    count spectrum — exp(mean ln p_k) / (mean p_k) over DFT powers
    k = 1..12. Near 1 = white (no structure); near 0 = tonal (strong
    cycles). Types with any zero power are skipped by BOTH engines."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"event_type": [], "n_points": [], "flatness": []}
        )
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64).astype(np.float64)
        n = len(v)
        if n <= 2 * k_max:
            return empty
        powers = []
        for k in range(1, k_max + 1):
            re = im = 0.0
            for i in range(n):  # ascending folds, libm trig
                ang = 2.0 * math.pi * k * i / n
                re += v[i] * math.cos(ang)
                im += v[i] * math.sin(ang)
            powers.append(re * re + im * im)
        if min(powers) <= 0.0:
            return empty
        sl = sa = 0.0
        for p in powers:  # ascending-k folds
            sl += math.log(p)
        for p in powers:
            sa += p
        flat = math.exp(sl / float(k_max)) / (sa / float(k_max))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_points": np.array([n], dtype=np.int64),
                "flatness": _r6(np.array([flat])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES160["spectral_flatness"] = q_spectral_flatness
ORACLES160["spectral_flatness"] = """
WITH s AS (
  SELECT event_type, date_trunc('hour', ts) AS h, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY h) AS vs, COUNT(*) AS n
  FROM s GROUP BY 1 HAVING COUNT(*) > 24
),
sp AS (
  SELECT a.event_type, a.n, t.k,
         list_sum(list_transform(range(0, a.n),
           i -> a.vs[i + 1] * cos(2.0 * pi() * t.k * i / a.n))) AS re,
         list_sum(list_transform(range(0, a.n),
           i -> a.vs[i + 1] * sin(2.0 * pi() * t.k * i / a.n))) AS im
  FROM a, UNNEST(range(1, 13)) AS t(k)
),
pw AS (SELECT event_type, n, k, re * re + im * im AS p FROM sp),
g AS (
  SELECT event_type, ANY_VALUE(n) AS n,
         list_sum(list(ln(p) ORDER BY k)) AS sl,
         list_sum(list(p ORDER BY k)) AS sa
  FROM pw GROUP BY 1 HAVING MIN(p) > 0
)
SELECT event_type, CAST(n AS BIGINT) AS n_points,
       ROUND(exp(sl / 12.0) / (sa / 12.0), 6) AS flatness
FROM g
"""


def q_embedding_effective_dim(sf_dir: str):
    """Effective dimension of the embedding cloud: the participation
    ratio (tr C)^2 / tr(C^2) of the covariance matrix — computed with
    NO eigendecomposition from the exact integer-quantized Gram
    exchange (embedding_covariance's machinery): tr C folds the
    diagonal ascending, tr(C^2) folds the upper triangle ascending
    (off-diagonals doubled). Output (n_vecs, n_dims, trace,
    effective_dim)."""
    import ray.data as rd

    from ..common.raytools import hash_bucket_aggregate

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        mat = np.vstack(batch["embedding"].to_numpy()).astype(np.float64)
        y = mat * 1e6
        q = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
        d = q.shape[1]
        g = q.T @ q
        iu = np.triu_indices(d)
        pair = pd.DataFrame(
            {
                "dim_i": iu[0].astype(np.int64),
                "dim_j": iu[1].astype(np.int64),
                "acc": g[iu],
            }
        )
        sums = pd.DataFrame(
            {
                "dim_i": np.arange(d, dtype=np.int64),
                "dim_j": np.full(d, -1, dtype=np.int64),
                "acc": q.sum(axis=0),
            }
        )
        cnt = pd.DataFrame(
            {
                "dim_i": np.array([-1], dtype=np.int64),
                "dim_j": np.array([-1], dtype=np.int64),
                "acc": np.array([q.shape[0]], dtype=np.int64),
            }
        )
        return pd.concat([pair, sums, cnt], ignore_index=True)

    agg = hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        ["dim_i", "dim_j"],
        [("acc", "sum")],
    ).to_pandas()
    n = int(agg.loc[(agg.dim_i == -1) & (agg.dim_j == -1), "acc_sum"].iloc[0])
    dim_sums = (
        agg[(agg.dim_j == -1) & (agg.dim_i >= 0)]
        .set_index("dim_i")["acc_sum"]
        .astype(np.int64)
    )
    d = len(dim_sums)
    pairs = agg[(agg.dim_i >= 0) & (agg.dim_j >= 0)].sort_values(
        ["dim_i", "dim_j"]
    )
    si = dim_sums.loc[pairs["dim_i"]].to_numpy(np.float64)
    sj = dim_sums.loc[pairs["dim_j"]].to_numpy(np.float64)
    sij = pairs["acc_sum"].to_numpy(np.int64).astype(np.float64)
    cv = (sij - si * sj / float(n)) / float(n) / 1.0e12
    ii = pairs["dim_i"].to_numpy(np.int64)
    jj = pairs["dim_j"].to_numpy(np.int64)
    tr = 0.0
    for c, i, j in zip(cv, ii, jj):  # (i, j)-ascending folds
        if i == j:
            tr += c
    tr2 = 0.0
    for c, i, j in zip(cv, ii, jj):
        tr2 += (c * c) if i == j else 2.0 * (c * c)
    eff = (tr * tr) / tr2
    return pd.DataFrame(
        {
            "n_vecs": np.array([n], dtype=np.int64),
            "n_dims": np.array([d], dtype=np.int64),
            "trace": _r6(np.array([tr])),
            "effective_dim": _r6(np.array([eff])),
        }
    )


QUERIES160["embedding_effective_dim"] = q_embedding_effective_dim
ORACLES160["embedding_effective_dim"] = """
WITH e AS (
  SELECT vec_id,
         unnest(range(0, len(embedding))) AS i,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000000.0) AS BIGINT)
           AS q
  FROM embeddings
),
p AS (
  SELECT a.i AS di, b.i AS dj, COUNT(*) AS n,
         CAST(SUM(a.q * b.q) AS BIGINT) AS sij,
         CAST(SUM(a.q) AS BIGINT) AS si,
         CAST(SUM(b.q) AS BIGINT) AS sj
  FROM e a JOIN e b ON a.vec_id = b.vec_id AND a.i <= b.i
  GROUP BY 1, 2
),
cv AS (
  SELECT di, dj, ANY_VALUE(n) AS n,
         (CAST(sij AS DOUBLE) - CAST(si AS DOUBLE) * CAST(sj AS DOUBLE)
          / CAST(n AS DOUBLE)) / CAST(n AS DOUBLE) / 1000000000000.0 AS c
  FROM p GROUP BY di, dj, sij, si, sj, n
),
f AS (
  SELECT ANY_VALUE(n) AS n,
         COUNT(*) FILTER (WHERE di = dj) AS d,
         list_sum(list(CASE WHEN di = dj THEN c ELSE 0.0 END
                       ORDER BY di, dj)) AS tr,
         list_sum(list(CASE WHEN di = dj THEN c * c
                            ELSE 2.0 * (c * c) END
                       ORDER BY di, dj)) AS tr2
  FROM cv
)
SELECT CAST(n AS BIGINT) AS n_vecs, CAST(d AS BIGINT) AS n_dims,
       ROUND(tr, 6) AS trace,
       ROUND((tr * tr) / tr2, 6) AS effective_dim
FROM f
"""


def q_knee_point(sf_dir: str):
    """Per event_type: the knee of the descending-sorted daily-count
    curve — the point with the maximum perpendicular distance to the
    chord from (1, v_1) to (n, v_n) (the standard elbow rule for
    picking thresholds), ALL in exact integer arithmetic: the distance
    numerator |(v_n - v_1)(x - 1) - (n - 1)(v_x - v_1)| is an integer
    cross product; ties take the smallest x. Output (event_type,
    knee_idx, knee_value, n_days)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        if n < 3:
            return pd.DataFrame(
                {"event_type": [], "knee_idx": [], "knee_value": [],
                 "n_days": []}
            )
        sv = np.sort(v)[::-1]  # descending counts
        x = np.arange(1, n + 1, dtype=np.int64)
        num = np.abs(
            (int(sv[-1]) - int(sv[0])) * (x - 1)
            - (n - 1) * (sv - int(sv[0]))
        )
        kidx = int(np.argmax(num)) + 1  # first max = smallest x
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "knee_idx": np.array([kidx], dtype=np.int64),
                "knee_value": np.array([int(sv[kidx - 1])], dtype=np.int64),
                "n_days": np.array([n], dtype=np.int64),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


QUERIES160["knee_point"] = q_knee_point
ORACLES160["knee_point"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, COUNT(*) AS v
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY v DESC, d ASC) AS x,
         COUNT(*) OVER (PARTITION BY event_type) AS n,
         first_value(v) OVER (PARTITION BY event_type
                              ORDER BY v DESC, d ASC) AS v1,
         last_value(v) OVER (PARTITION BY event_type
                             ORDER BY v DESC, d ASC
                             ROWS BETWEEN UNBOUNDED PRECEDING
                             AND UNBOUNDED FOLLOWING) AS vn
  FROM s
),
dist AS (
  SELECT event_type, x, v, n,
         abs((vn - v1) * (x - 1) - (n - 1) * (v - v1)) AS num
  FROM r WHERE n >= 3
),
k AS (
  SELECT event_type, x AS knee_idx, v AS knee_value, n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY num DESC, x ASC) AS rk
  FROM dist QUALIFY rk = 1
)
SELECT event_type, CAST(knee_idx AS BIGINT) AS knee_idx,
       CAST(knee_value AS BIGINT) AS knee_value,
       CAST(n AS BIGINT) AS n_days
FROM k
"""
