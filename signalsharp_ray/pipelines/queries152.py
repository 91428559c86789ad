"""Round-5 batch 152: the remaining reference-roadmap feature/resampling
items (/root/reference/docs/docs/future-plans.md) — DFT (FFT-family)
spectral features, ARIMA(2,1,0) forecasting, cubic-spline (Catmull-Rom)
resampling. Together with BOCD, Gaussian smoothing and Butterworth
(batch 151) this closes every algorithm on the reference's own roadmap
that is implementable without external libraries.

House parity strategy (shared with batch 151): every per-series sum is
an ascending-index left fold (== DuckDB list_sum over an ordered
list_transform), trig/exp through libm (math.*, never numpy SIMD), all
closed-form scalar algebra transcribed op-for-op into the oracle.

Scale contracts: all three ride the per-event_type daily rollup series
(bounded by catalog x retention — thousands of points, never raw rows)
built by the same streaming exchange as every other series kernel; the
kernels are O(n*k), O(n), O(n*factor) per series with no driver state.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _events, _r6, _r6away, event_tier

QUERIES152: dict = {}
ORACLES152: dict = {}


def q_dft_magnitudes(sf_dir: str, k_max: int = 8):
    """Per event_type: magnitude of DFT coefficients k=1..8 of the daily
    count series — the periodicity fingerprint (weekly traffic shows at
    k = n/7). Direct O(n*k) DFT so both engines fold identical libm
    cos/sin terms in identical order."""
    from ..kernels.spectral import dft_magnitudes

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        mags = dft_magnitudes(df["count"].to_numpy(np.float64), k_max)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], k_max),
                "k": np.arange(1, k_max + 1, dtype=np.int64),
                "magnitude": _r6(mags),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


QUERIES152["dft_magnitudes"] = q_dft_magnitudes
ORACLES152["dft_magnitudes"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY d) AS vs, COUNT(*) AS n FROM s GROUP BY 1
),
terms AS (
  SELECT a.event_type, t.k,
         list_sum(list_transform(range(0, a.n),
                  i -> a.vs[i + 1] * cos(2 * pi() * t.k * i / a.n))) AS re,
         list_sum(list_transform(range(0, a.n),
                  i -> a.vs[i + 1] * sin(2 * pi() * t.k * i / a.n))) AS im
  FROM a, UNNEST(range(1, 9)) AS t(k)
)
SELECT event_type, CAST(k AS BIGINT) AS k,
       ROUND(sqrt(re * re + im * im), 6) AS magnitude
FROM terms
"""


def _arima_group(df: pd.DataFrame) -> pd.DataFrame:
    """One event_type's ARIMA(2,1,0) level forecasts for h = 1..3.
    A series of fewer than 4 days cannot be differenced and fit, so it
    yields no rows (the oracle's HAVING COUNT(*) >= 4)."""
    from ..kernels.arima import arima_210_forecast

    df = df.sort_values("bucket_ts")
    if len(df) < 4:
        return pd.DataFrame(
            {
                "event_type": df["event_type"].iloc[:0],
                "h": np.array([], dtype=np.int64),
                "forecast": np.array([], dtype=np.float64),
            }
        )
    fc = arima_210_forecast(df["count"].to_numpy(np.float64), 3)
    return pd.DataFrame(
        {
            "event_type": np.repeat(df["event_type"].iloc[0], 3),
            "h": np.arange(1, 4, dtype=np.int64),
            "forecast": _r6(fc),
        }
    )


def q_arima_forecast(sf_dir: str):
    """Per event_type: 3-step ARIMA(2,1,0) forecast of the daily count
    series — difference, Yule-Walker AR(2) on the differences (biased
    autocovariances, closed-form Toeplitz solve), unrolled AR recursion,
    integrate back. Degenerate denominator (constant diffs) falls back to
    pure drift in BOTH engines; series of fewer than 4 days are dropped
    in both."""
    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], _arima_group)


QUERIES152["arima_forecast"] = q_arima_forecast
ORACLES152["arima_forecast"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY d) AS vs, COUNT(*) AS n FROM s GROUP BY 1
  HAVING COUNT(*) >= 4
),
dd AS (
  SELECT event_type, vs, n,
         list_transform(range(0, n - 1), i -> vs[i + 2] - vs[i + 1]) AS dif,
         n - 1 AS nd
  FROM a
),
mm AS (
  SELECT *, list_sum(dif) / nd AS m FROM dd
),
cc AS (
  SELECT *, list_transform(dif, x -> x - m) AS c FROM mm
),
rr AS (
  SELECT *,
         list_sum(list_transform(c, x -> x * x)) / nd AS r0,
         list_sum(list_transform(range(0, nd - 1),
                  i -> c[i + 1] * c[i + 2])) / nd AS r1,
         list_sum(list_transform(range(0, nd - 2),
                  i -> c[i + 1] * c[i + 3])) / nd AS r2
  FROM cc
),
ph AS (
  SELECT *,
         CASE WHEN r0 * r0 - r1 * r1 = 0.0 THEN 0.0
              ELSE (r1 * r0 - r1 * r2) / (r0 * r0 - r1 * r1) END AS phi1,
         CASE WHEN r0 * r0 - r1 * r1 = 0.0 THEN 0.0
              ELSE (r2 * r0 - r1 * r1) / (r0 * r0 - r1 * r1) END AS phi2
  FROM rr
),
f1 AS (
  SELECT *, m + phi1 * c[nd] + phi2 * c[nd - 1] AS fc1 FROM ph
),
f2 AS (
  SELECT *, m + phi1 * (fc1 - m) + phi2 * c[nd] AS fc2 FROM f1
),
f3 AS (
  SELECT *, m + phi1 * (fc2 - m) + phi2 * (fc1 - m) AS fc3 FROM f2
),
lv AS (
  SELECT event_type,
         vs[n] + fc1 AS l1,
         vs[n] + fc1 + fc2 AS l2,
         vs[n] + fc1 + fc2 + fc3 AS l3
  FROM f3
)
SELECT event_type, CAST(1 AS BIGINT) AS h, ROUND(l1, 6) AS forecast FROM lv
UNION ALL
SELECT event_type, CAST(2 AS BIGINT) AS h, ROUND(l2, 6) AS forecast FROM lv
UNION ALL
SELECT event_type, CAST(3 AS BIGINT) AS h, ROUND(l3, 6) AS forecast FROM lv
"""


def q_spline_resample(sf_dir: str, factor: int = 4):
    """Per event_type: Catmull-Rom cubic-spline upsampling (x4) of the
    daily count series to quarter-day resolution — local 4-point cubic,
    clamped endpoints, knots reproduced exactly. The closed-form segment
    polynomial is evaluated identically (same op order, exact dyadic u)
    by both engines."""
    from ..kernels.spline import catmull_rom_resample

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        y = catmull_rom_resample(df["count"].to_numpy(np.float64), factor)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], len(y)),
                "j": np.arange(len(y), dtype=np.int64),
                # dyadic u x integer counts => exact rationals with
                # denominator 128: 6-decimal midpoints are COMMON here, so
                # round half-away to match DuckDB's ROUND
                "value": _r6away(y),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


QUERIES152["spline_resample"] = q_spline_resample
ORACLES152["spline_resample"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY d) AS vs, COUNT(*) AS n FROM s GROUP BY 1
),
pts AS (
  SELECT a.event_type, t.j,
         t.j // 4 AS i,
         CAST(t.j % 4 AS DOUBLE) / 4.0 AS u,
         a.vs, a.n
  FROM a, UNNEST(range(0, (a.n - 1) * 4 + 1)) AS t(j)
),
seg AS (
  SELECT event_type, j, u,
         vs[GREATEST(i - 1, 0) + 1] AS p0,
         vs[LEAST(i, n - 1) + 1] AS p1,
         vs[LEAST(i + 1, n - 1) + 1] AS p2,
         vs[LEAST(i + 2, n - 1) + 1] AS p3
  FROM pts
)
SELECT event_type, CAST(j AS BIGINT) AS j,
       ROUND(0.5 * (2.0 * p1 + (-p0 + p2) * u
             + (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * (u * u)
             + (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * (u * u * u)), 6) AS value
FROM seg
"""


def q_pca_top_component(sf_dir: str, iters: int = 15):
    """Dominant PCA component of the embedding table: the distributed
    part is the EXACT integer-quantized Gram exchange (the proven
    embedding_covariance pattern — only d(d+1)/2 int64 pair rows cross
    the wire, never vectors); the 15-step power iteration then runs on
    the tiny d x d matrix driver-side, with every inner product an
    ascending fold so the recursive-CTE oracle replays it bitwise.
    Output: (dim, loading, eigenvalue)."""
    import ray.data as rd

    from ..common.raytools import hash_bucket_aggregate
    from ..kernels.pca import power_iteration_top

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
    pairs = agg[(agg.dim_i >= 0) & (agg.dim_j >= 0)]
    si = dim_sums.loc[pairs["dim_i"]].to_numpy(np.float64)
    sj = dim_sums.loc[pairs["dim_j"]].to_numpy(np.float64)
    sij = pairs["acc_sum"].to_numpy(np.int64).astype(np.float64)
    # the oracle's exact covariance expression (shared float ops over
    # exact integer sums), mirrored into the full symmetric matrix
    cv = (sij - si * sj / float(n)) / float(n) / 1.0e12
    C = np.zeros((d, d), dtype=np.float64)
    ii = pairs["dim_i"].to_numpy(np.int64)
    jj = pairs["dim_j"].to_numpy(np.int64)
    C[ii, jj] = cv
    C[jj, ii] = cv
    v, lam = power_iteration_top(C, iters)
    return pd.DataFrame(
        {
            "dim": np.arange(d, dtype=np.int64),
            "loading": _r6(v),
            "eigenvalue": np.repeat(_r6(np.array([lam])), d),
        }
    )


QUERIES152["pca_top_component"] = q_pca_top_component
ORACLES152["pca_top_component"] = """
WITH RECURSIVE e AS (
  SELECT vec_id,
         unnest(range(0, len(embedding))) AS i,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000000.0) AS BIGINT) AS q
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
fp AS (
  SELECT di, dj,
         (CAST(sij AS DOUBLE) - CAST(si AS DOUBLE) * CAST(sj AS DOUBLE)
          / CAST(n AS DOUBLE)) / CAST(n AS DOUBLE) / 1000000000000.0 AS cv
  FROM p
  UNION ALL
  SELECT dj, di,
         (CAST(sij AS DOUBLE) - CAST(si AS DOUBLE) * CAST(sj AS DOUBLE)
          / CAST(n AS DOUBLE)) / CAST(n AS DOUBLE) / 1000000000000.0 AS cv
  FROM p WHERE di < dj
),
rws AS (SELECT di, list(cv ORDER BY dj) AS r FROM fp GROUP BY di),
mat AS (SELECT list(r ORDER BY di) AS c, COUNT(*) AS d FROM rws),
it AS (
  SELECT 0 AS t, list_transform(range(0, d), x -> CAST(1.0 AS DOUBLE)) AS w,
         c, d
  FROM mat
  UNION ALL
  SELECT t + 1,
         list_transform(range(0, d), i -> list_sum(list_transform(range(0, d),
             j -> c[i + 1][j + 1]
                  * (w[j + 1] / sqrt(list_sum(list_transform(w, x -> x * x))))))),
         c, d
  FROM it WHERE t < 15
),
lamb AS (
  SELECT w, d, sqrt(list_sum(list_transform(w, x -> x * x))) AS lam
  FROM it WHERE t = 15
),
vv AS (SELECT d, lam, list_transform(w, x -> x / lam) AS v FROM lamb),
sg AS (
  SELECT d, lam,
         CASE WHEN list_sum(v) < 0.0
              THEN list_transform(v, x -> -x) ELSE v END AS v
  FROM vv
)
SELECT CAST(t.i AS BIGINT) AS dim,
       ROUND(v[t.i + 1], 6) AS loading,
       ROUND(lam, 6) AS eigenvalue
FROM sg, UNNEST(range(0, d)) AS t(i)
"""


def q_fourier_resample(sf_dir: str):
    """Per event_type: band-limited (trigonometric / zero-padded-DFT)
    x2 upsampling of the 24-point hour-of-day count profile to half-hour
    resolution — the Fourier-resampling roadmap item on the series shape
    it suits (a periodic profile). Missing hours are 0 (COALESCE mirror);
    analysis and synthesis sums are ascending libm cos/sin folds with the
    oracle's exact ((DC + inner) + Nyquist)/n association."""
    from ..kernels.fourier import fourier_resample

    ev = _events(sf_dir, ["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hod = (
            batch["ts"].to_numpy("datetime64[us]").astype("datetime64[h]")
            .view(np.int64) % 24
        )
        g = (
            pd.DataFrame({"event_type": batch["event_type"], "hod": hod})
            .groupby(["event_type", "hod"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return g

    from ..common.raytools import hash_bucket_aggregate

    counts = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "hod"],
        [("n", "sum")],
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        v = np.zeros(24, dtype=np.float64)
        v[df["hod"].to_numpy(np.int64)] = df["n_sum"].to_numpy(np.float64)
        y = fourier_resample(v, 2)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], 48),
                "j": np.arange(48, dtype=np.int64),
                "value": _r6(y),
            }
        )

    return bucketed_map_groups(counts, ["event_type"], fn)


QUERIES152["fourier_resample"] = q_fourier_resample
ORACLES152["fourier_resample"] = """
WITH s AS (
  SELECT event_type, CAST(EXTRACT(hour FROM ts) AS BIGINT) AS hod,
         CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
et AS (SELECT DISTINCT event_type FROM events),
grid AS (SELECT et.event_type, g.h FROM et, UNNEST(range(0, 24)) AS g(h)),
f AS (
  SELECT grid.event_type, grid.h, COALESCE(s.v, 0.0) AS v
  FROM grid LEFT JOIN s ON s.event_type = grid.event_type AND s.hod = grid.h
),
a AS (SELECT event_type, list(v ORDER BY h) AS vs FROM f GROUP BY 1),
sp AS (
  SELECT a.event_type, t.k,
         list_sum(list_transform(range(0, 24),
                  i -> a.vs[i + 1] * cos(2 * pi() * t.k * i / 24))) AS re,
         list_sum(list_transform(range(0, 24),
                  i -> a.vs[i + 1] * sin(2 * pi() * t.k * i / 24))) AS im
  FROM a, UNNEST(range(0, 13)) AS t(k)
),
spl AS (
  SELECT event_type, list(re ORDER BY k) AS res, list(im ORDER BY k) AS ims
  FROM sp GROUP BY 1
)
SELECT spl.event_type, CAST(t.j AS BIGINT) AS j,
       ROUND((res[1]
              + list_sum(list_transform(range(1, 12),
                  k -> 2.0 * (res[k + 1] * cos(2 * pi() * k * (t.j / 2.0) / 24)
                              + ims[k + 1] * sin(2 * pi() * k * (t.j / 2.0) / 24))))
              + res[13] * cos(pi() * (t.j / 2.0))) / 24, 6) AS value
FROM spl, UNNEST(range(0, 48)) AS t(j)
"""
