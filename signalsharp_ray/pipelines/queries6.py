"""Round-3 batch 6: paired-series dependence (rolling correlation), money-
weighted pricing (VWAP), robust anomaly fences (median/MAD), per-source
vocabulary ranking, and the RefinedWeb-style duplicated-n-gram corpus
signal.

Every operator is DuckDB-oracle-verified (ORACLES6). House parity style:
counts/money cross shuffles as exact int64, correlation/VWAP float
expressions are transcribed op-for-op over exact-integer window sums with
one shared final ROUND, medians of integer series are exact .5 rationals
on both engines, and the n-gram construction mirrors the jaccard oracle's
list_transform windows (engine hashes are 64-bit, so document-frequency
counts agree modulo negligible collisions — the same documented contract
as jaccard_pairs).

Scale contracts: hourly/daily count tables are bounded by catalog x
retention (never event volume) and may sit on the driver; n-gram document
frequencies reduce through bucketed int64 exchanges with per-doc state
bounded by one document's distinct grams.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _documents, _events, _r6away, _r6h, event_tier

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000

QUERIES6: dict = {}
ORACLES6: dict = {}


def _hourly_counts(sf_dir: str, types: tuple | None = None) -> pd.DataFrame:
    """(event_type, hour_us, n) — bounded by catalog x retention."""
    cols = ["ts", "event_type"]
    ev = _events(sf_dir, cols)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        df = batch
        if types is not None:
            df = df[df["event_type"].isin(types)]
        hour = (
            df["ts"].to_numpy("datetime64[us]").view(np.int64) // HOUR_US
        ) * HOUR_US
        g = (
            pd.DataFrame({"event_type": df["event_type"], "hour_us": hour})
            .groupby(["event_type", "hour_us"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    return hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "hour_us"],
        [("n", "sum")],
    ).to_pandas()


# ---------------------------------------------------------------------------
# Rolling 24h Pearson correlation between two streams
# ---------------------------------------------------------------------------


def q_rolling_corr_24h(sf_dir: str, type_x: str = "view", type_y: str = "click"):
    """Rolling 24-hour Pearson correlation between the zero-filled hourly
    count series of two event streams — the live dependence monitor behind
    composite alerting ("views and clicks decoupled at 14:00").
    type_correlation_matrix gives one contemporaneous number per pair;
    this tracks the relationship THROUGH time with a tumbling window.

    Parity: window sums sx/sy/sxx/syy/sxy are exact int64 over the shared
    dense hour grid, so corr is one shared float expression per window
    (transcribed op-for-op against the SQL), rounded once. Windows with a
    zero-variance side are omitted on both sides."""
    agg = _hourly_counts(sf_dir, (type_x, type_y))
    lo = int(agg["hour_us"].min())
    hi = int(agg["hour_us"].max())
    grid = np.arange(lo, hi + HOUR_US, HOUR_US, dtype=np.int64)

    def dense(t: str) -> np.ndarray:
        g = agg[agg["event_type"] == t]
        v = np.zeros(grid.size, dtype=np.int64)
        v[(g["hour_us"].to_numpy(np.int64) - lo) // HOUR_US] = g["n_sum"].to_numpy(
            np.int64
        )
        return v

    x, y = dense(type_x), dense(type_y)
    W = 24
    cx = np.concatenate([[0], np.cumsum(x)])
    cy = np.concatenate([[0], np.cumsum(y)])
    cxx = np.concatenate([[0], np.cumsum(x * x)])
    cyy = np.concatenate([[0], np.cumsum(y * y)])
    cxy = np.concatenate([[0], np.cumsum(x * y)])
    # windows ending at t for t in [W-1, n)
    sx = cx[W:] - cx[:-W]
    sy = cy[W:] - cy[:-W]
    sxx = cxx[W:] - cxx[:-W]
    syy = cyy[W:] - cyy[:-W]
    sxy = cxy[W:] - cxy[:-W]
    dxx = W * sxx - sx * sx
    dyy = W * syy - sy * sy
    num = W * sxy - sx * sy
    ok = (dxx > 0) & (dyy > 0)
    corr = num[ok].astype(np.float64) / (
        np.sqrt(dxx[ok].astype(np.float64)) * np.sqrt(dyy[ok].astype(np.float64))
    )
    return pd.DataFrame(
        {
            "hour_us": grid[W - 1 :][ok],
            "corr": _r6away(corr),
        }
    )


QUERIES6["rolling_corr_24h"] = q_rolling_corr_24h
ORACLES6["rolling_corr_24h"] = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS bh, COUNT(*) AS n
  FROM events WHERE event_type IN ('view', 'click') GROUP BY 1, 2
),
bounds AS (SELECT MIN(bh) AS lo, MAX(bh) AS hi FROM h),
grid AS (
  SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS bh FROM bounds
),
x AS (
  SELECT g.bh,
         COALESCE(hv.n, 0) AS xv,
         COALESCE(hc.n, 0) AS yv
  FROM grid g
  LEFT JOIN (SELECT bh, n FROM h WHERE event_type = 'view') hv USING (bh)
  LEFT JOIN (SELECT bh, n FROM h WHERE event_type = 'click') hc USING (bh)
),
w AS (
  SELECT bh, row_number() OVER (ORDER BY bh) AS rn,
         SUM(xv) OVER win AS sx, SUM(yv) OVER win AS sy,
         SUM(xv * xv) OVER win AS sxx, SUM(yv * yv) OVER win AS syy,
         SUM(xv * yv) OVER win AS sxy
  FROM x
  WINDOW win AS (ORDER BY bh ROWS BETWEEN 23 PRECEDING AND CURRENT ROW)
)
SELECT CAST(epoch_us(bh) AS BIGINT) AS hour_us,
       ROUND(CAST(24 * sxy - sx * sy AS DOUBLE)
             / (sqrt(CAST(24 * sxx - sx * sx AS DOUBLE))
                * sqrt(CAST(24 * syy - sy * sy AS DOUBLE))), 6) AS corr
FROM w
WHERE rn >= 24 AND 24 * sxx - sx * sx > 0 AND 24 * syy - sy * sy > 0
"""


# ---------------------------------------------------------------------------
# Daily VWAP (money-weighted average price) per return flag
# ---------------------------------------------------------------------------


def q_vwap_daily(sf_dir: str):
    """Daily volume-weighted average price per l_returnflag:
    sum(price_cents * qty) / sum(qty) / 100 — the money-weighted mean the
    plain AVG misstates whenever quantity and price correlate. Both the
    cents*qty cross-products and the quantity sums are exact int64
    (TPC-H quantities are whole numbers), so the single division is the
    only float op on either side."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_shipdate", "l_extendedprice", "l_quantity"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (
            batch["l_shipdate"].to_numpy("datetime64[us]").view(np.int64) // DAY_US
        ) * DAY_US
        p = batch["l_extendedprice"].to_numpy(np.float64) * 100.0
        cents = (np.sign(p) * np.floor(np.abs(p) + 0.5)).astype(np.int64)
        qty = batch["l_quantity"].to_numpy(np.float64).astype(np.int64)
        g = (
            pd.DataFrame(
                {
                    "l_returnflag": batch["l_returnflag"],
                    "day_us": day,
                    "pq": cents * qty,
                    "q": qty,
                }
            )
            .groupby(["l_returnflag", "day_us"], sort=False)
            .agg(pq=("pq", "sum"), q=("q", "sum"))
            .reset_index()
        )
        return g

    agg = hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "day_us"],
        [("pq", "sum"), ("q", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        pq = batch["pq_sum"].to_numpy(np.float64)
        q = batch["q_sum"].to_numpy(np.float64)
        return pd.DataFrame(
            {
                "l_returnflag": batch["l_returnflag"],
                "day_us": batch["day_us"].astype(np.int64),
                "total_qty": batch["q_sum"].astype(np.int64),
                "vwap": _r6away(pq / q / 100.0),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


QUERIES6["vwap_daily"] = q_vwap_daily
ORACLES6["vwap_daily"] = """
SELECT l_returnflag,
       CAST(epoch_us(date_trunc('day', l_shipdate)) AS BIGINT) AS day_us,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS total_qty,
       ROUND(CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                      * CAST(l_quantity AS BIGINT)) AS DOUBLE)
             / CAST(SUM(CAST(l_quantity AS BIGINT)) AS DOUBLE) / 100, 6) AS vwap
FROM lineitem
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Median/MAD anomaly fence (robust alternative to anomaly_zscore)
# ---------------------------------------------------------------------------


def q_mad_anomalies(sf_dir: str):
    """Hours whose count deviates from the series median by more than
    3 x MAD (median absolute deviation), per event_type — the robust
    anomaly fence that, unlike the z-score variant, one outage spike
    cannot widen (breakdown point 50% vs 0%). Medians of integer counts
    are exact .5 rationals in both engines and the output carries no
    floats at all, so the operator verifies with zero rounding surface."""
    agg = _hourly_counts(sf_dir)
    out = []
    for t, g in agg.groupby("event_type", sort=True):
        n = g["n_sum"].to_numpy(np.int64)
        med = np.median(n)
        mad = np.median(np.abs(n - med))
        keep = np.abs(n - med) > 3.0 * mad
        if keep.any():
            out.append(
                pd.DataFrame(
                    {
                        "event_type": t,
                        "hour_us": g["hour_us"].to_numpy(np.int64)[keep],
                        "cnt": n[keep],
                    }
                )
            )
    if not out:
        return pd.DataFrame(
            {
                "event_type": pd.Series(dtype="object"),
                "hour_us": pd.Series(dtype="int64"),
                "cnt": pd.Series(dtype="int64"),
            }
        )
    return pd.concat(out, ignore_index=True)


QUERIES6["mad_anomalies"] = q_mad_anomalies
ORACLES6["mad_anomalies"] = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS bh, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
m AS (SELECT event_type, MEDIAN(n) AS med FROM h GROUP BY 1),
m2 AS (
  SELECT h.event_type, MEDIAN(ABS(n - med)) AS mad
  FROM h JOIN m USING (event_type) GROUP BY 1
)
SELECT h.event_type,
       CAST(epoch_us(bh) AS BIGINT) AS hour_us,
       CAST(n AS BIGINT) AS cnt
FROM h JOIN m USING (event_type) JOIN m2 USING (event_type)
WHERE ABS(n - med) > 3 * mad
"""


# ---------------------------------------------------------------------------
# Per-source top-5 vocabulary
# ---------------------------------------------------------------------------


def q_topk_terms_by_source(sf_dir: str, k: int = 5):
    """Top-5 tokens per SOURCE by total occurrence count (ties broken by
    token ascending) — the per-feed vocabulary fingerprint used to spot a
    crawl feed gone off the rails. vocabulary ranks the global corpus;
    this partitions the ranking by provenance.

    Scale: per-batch (source, token) partial counts combine in one
    bucketed exchange keyed by token strings; per-source top-k needs only
    that aggregated table."""
    import re

    _TOKEN = re.compile(r"\w+")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        srcs, toks = [], []
        for s, t in zip(batch["source"], batch["text"]):
            words = _TOKEN.findall((t or "").lower())
            srcs.extend([s] * len(words))
            toks.extend(words)
        g = (
            pd.DataFrame({"source": srcs, "token": toks})
            .groupby(["source", "token"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    counts = hash_bucket_aggregate(
        _documents(sf_dir, ["source", "text"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["source", "token"],
        [("n", "sum")],
    )

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["n_sum", "token"], ascending=[False, True], kind="mergesort")
        out = df.head(k).copy()
        out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
        return pd.DataFrame(
            {
                "source": out["source"],
                "token": out["token"],
                "cnt": out["n_sum"].astype(np.int64),
                "rank": out["rank"],
            }
        )

    return bucketed_map_groups(counts, ["source"], topk)


QUERIES6["topk_terms_by_source"] = q_topk_terms_by_source
ORACLES6["topk_terms_by_source"] = """
WITH tok AS (
  SELECT source,
         unnest(regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+')) AS token
  FROM documents
),
c AS (SELECT source, token, COUNT(*) AS cnt FROM tok GROUP BY 1, 2)
SELECT source, token, CAST(cnt AS BIGINT) AS cnt,
       CAST(row_number() OVER (PARTITION BY source ORDER BY cnt DESC, token) AS BIGINT) AS rank
FROM c
QUALIFY row_number() OVER (PARTITION BY source ORDER BY cnt DESC, token) <= 5
"""


# ---------------------------------------------------------------------------
# Duplicated-8-gram fraction (RefinedWeb/Gopher substring-dedup signal)
# ---------------------------------------------------------------------------


def q_duplicate_ngram_fraction(sf_dir: str, k: int = 8):
    """Per document: the fraction of its DISTINCT word-8-grams that occur
    in at least one other document — the substring-level duplication
    signal (RefinedWeb / Gopher style, public) that exact- and near-dedup
    both miss: boilerplate headers, licence blocks, templated paragraphs.
    Corpus pipelines drop or trim docs above a dup-fraction cut.

    Scale: (gram_hash, doc_id) int64 rows explode once; document
    frequency is one bucketed count; the verdict joins df back per gram
    and reduces per doc. Engine hashes are 64-bit, so counts match the
    string-gram oracle modulo negligible collisions (the jaccard_pairs
    contract). Fraction is a rational rounded half-up on both sides."""
    from ..stages.dedup import _shingle_index

    index = _shingle_index(
        _documents(sf_dir, ["doc_id", "text"]), shingle_k=k
    ).materialize()
    dfreq = hash_bucket_aggregate(index, ["g"], [], count_alias="df")
    joined = bucketed_join(index, dfreq, on=["g"])

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False)["df"]
        tot = g.size()
        dup = g.apply(lambda s: int((s >= 2).sum()))
        return pd.DataFrame(
            {
                "doc_id": tot.index.to_numpy(np.int64),
                "n_grams": tot.to_numpy(np.int64),
                "n_dup": dup.to_numpy(np.int64),
                "dup_frac": _r6h(dup.to_numpy(np.float64) / tot.to_numpy(np.float64)),
            }
        )

    return bucketed_map_groups(joined, ["doc_id"], None, whole_bucket_fn=per_doc)


QUERIES6["duplicate_ngram_fraction"] = q_duplicate_ngram_fraction
ORACLES6["duplicate_ngram_fraction"] = """
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+') AS toks
  FROM documents
),
s AS (
  SELECT doc_id,
         CASE WHEN len(toks) = 0 THEN []
              WHEN len(toks) < 8 THEN [array_to_string(toks, ' ')]
              ELSE list_transform(range(len(toks) - 7),
                                  i -> toks[i+1] || ' ' || toks[i+2] || ' ' || toks[i+3]
                                       || ' ' || toks[i+4] || ' ' || toks[i+5]
                                       || ' ' || toks[i+6] || ' ' || toks[i+7]
                                       || ' ' || toks[i+8])
         END AS sh
  FROM t
),
d AS (SELECT doc_id, list_distinct(sh) AS sh FROM s WHERE len(sh) > 0),
ex AS (SELECT doc_id, UNNEST(sh) AS g FROM d),
dfreq AS (SELECT g, COUNT(*) AS df FROM ex GROUP BY 1)
SELECT ex.doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_grams,
       CAST(SUM(CASE WHEN df >= 2 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
       ROUND(FLOOR(SUM(CASE WHEN df >= 2 THEN 1 ELSE 0 END)
                   / COUNT(*)::DOUBLE * 1e6 + 0.5) / 1e6, 6) AS dup_frac
FROM ex JOIN dfreq USING (g)
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Binary segmentation (the classic greedy changepoint alternative to PELT)
# ---------------------------------------------------------------------------


def q_binseg_step_detection(sf_dir: str, step: int = 40):
    """SQL-verifiable binary segmentation: a noiseless STAIRCASE series
    (level 100*k on bucket-index block k of width `step`) is built per
    event_type from the distributed 1h rollup; greedy L2 BinSeg
    (kernels/binseg.py, penalty 5) must recover exactly the level-change
    indices — multiples of `step` — which the oracle derives in closed
    form. Same verification pattern as pelt_step_detection, covering the
    greedy split/recursion machinery (the cheap screen pipelines run
    before exact PELT)."""
    from ..kernels.binseg import binseg_breakpoints

    t1h = event_tier(sf_dir, "1h")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        idx = np.arange(len(df), dtype=np.int64)
        vals = 100.0 * (idx // step).astype(np.float64)
        bkps = binseg_breakpoints(vals, penalty=5.0, min_size=1)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], len(bkps)),
                "breakpoint_index": bkps,
            }
        )

    return bucketed_map_groups(t1h, ["event_type"], fn)


QUERIES6["binseg_step_detection"] = q_binseg_step_detection
ORACLES6["binseg_step_detection"] = """
WITH b AS (
  SELECT event_type, COUNT(DISTINCT date_trunc('hour', ts)) AS n
  FROM events GROUP BY 1
)
SELECT event_type, CAST(g AS BIGINT) AS breakpoint_index
FROM b, UNNEST(generate_series(40, CAST(n AS BIGINT) - 1, 40)) AS t(g)
"""


# ---------------------------------------------------------------------------
# Theil-Sen robust trend slope
# ---------------------------------------------------------------------------


def q_theil_sen_trend(sf_dir: str):
    """Theil-Sen robust trend of each event_type's daily count series: the
    MEDIAN of all pairwise slopes (n_j - n_i)/(d_j - d_i) — the slope
    estimator one spike day cannot bend (29.3% breakdown vs OLS's 0%;
    public estimator, Theil 1950/Sen 1968). Slopes are identical doubles
    on both engines (int deltas, one division), so the median is the same
    element of the same multiset; rounded once.

    Scale: the daily count table is bounded by catalog x retention; the
    O(days^2) pair set is per-series driver-free work inside the bucketed
    kernel (90 days -> ~4k slopes)."""
    ev = _events(sf_dir, ["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (
            batch["ts"].to_numpy("datetime64[us]").view(np.int64) // DAY_US
        )
        g = (
            pd.DataFrame({"event_type": batch["event_type"], "d": day})
            .groupby(["event_type", "d"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    daily = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "d"],
        [("n", "sum")],
    )

    def slope(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("d")
        d = df["d"].to_numpy(np.int64)
        n = df["n_sum"].to_numpy(np.int64)
        if d.size < 2:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype="object"),
                    "slope_per_day": pd.Series(dtype="float64"),
                }
            )
        i, j = np.triu_indices(d.size, k=1)
        slopes = (n[j] - n[i]).astype(np.float64) / (d[j] - d[i]).astype(np.float64)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "slope_per_day": [_r6away(np.median(slopes))],
            }
        )

    return bucketed_map_groups(daily, ["event_type"], slope)


QUERIES6["theil_sen_trend"] = q_theil_sen_trend
ORACLES6["theil_sen_trend"] = """
WITH daily AS (
  SELECT event_type,
         CAST(epoch_us(date_trunc('day', ts)) // 86400000000 AS BIGINT) AS d,
         COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
slopes AS (
  SELECT a.event_type,
         CAST(b.n - a.n AS DOUBLE) / CAST(b.d - a.d AS DOUBLE) AS s
  FROM daily a JOIN daily b
    ON b.event_type = a.event_type AND b.d > a.d
)
SELECT event_type, ROUND(MEDIAN(s), 6) AS slope_per_day
FROM slopes GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Hampel filter (rolling median/MAD outlier replacement)
# ---------------------------------------------------------------------------


def q_hampel_filter(sf_dir: str, half_window: int = 3):
    """Hampel filter over each event_type's hourly count series: replace a
    point with its +-3-row rolling median when it deviates from that
    median by more than 3x the window MAD — the standard despike pass a
    rollup engine offers before smoothing (public; Hampel 1974). Windows
    clip at series edges on both engines (ROWS BETWEEN mirrors the numpy
    slice). Medians of integer windows are exact .0/.5 rationals, so the
    output column carries ZERO rounding surface."""
    ev = _events(sf_dir, ["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hour = (
            batch["ts"].to_numpy("datetime64[us]").view(np.int64) // HOUR_US
        ) * HOUR_US
        g = (
            pd.DataFrame({"event_type": batch["event_type"], "hour_us": hour})
            .groupby(["event_type", "hour_us"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    hourly = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "hour_us"],
        [("n", "sum")],
    )

    def hampel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("hour_us")
        n = df["n_sum"].to_numpy(np.int64)
        m = n.size
        out = np.empty(m, dtype=np.float64)
        for i in range(m):
            w = n[max(0, i - half_window) : i + half_window + 1]
            med = np.median(w)
            mad = np.median(np.abs(w - med))
            out[i] = med if np.abs(n[i] - med) > 3.0 * mad else np.float64(n[i])
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "hour_us": df["hour_us"].to_numpy(np.int64),
                "filtered": out,
            }
        )

    return bucketed_map_groups(hourly, ["event_type"], hampel)


QUERIES6["hampel_filter"] = q_hampel_filter
ORACLES6["hampel_filter"] = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS bh, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT event_type, bh, n,
         row_number() OVER (PARTITION BY event_type ORDER BY bh) AS rn
  FROM h
),
med AS (
  SELECT event_type, rn, bh, n,
         MEDIAN(n) OVER (PARTITION BY event_type ORDER BY rn
                         ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS med
  FROM r
),
mad AS (
  SELECT a.event_type, a.rn, MEDIAN(ABS(b.n - a.med)) AS mad
  FROM med a JOIN r b
    ON b.event_type = a.event_type AND b.rn BETWEEN a.rn - 3 AND a.rn + 3
  GROUP BY 1, 2
)
SELECT a.event_type,
       CAST(epoch_us(a.bh) AS BIGINT) AS hour_us,
       CASE WHEN ABS(a.n - a.med) > 3 * m.mad THEN a.med
            ELSE CAST(a.n AS DOUBLE) END AS filtered
FROM med a JOIN mad m ON m.event_type = a.event_type AND m.rn = a.rn
"""


# ---------------------------------------------------------------------------
# Event-time decay EMA (irregular gaps; exp parity via libm == DuckDB exp)
# ---------------------------------------------------------------------------


def q_event_time_decay_ema(sf_dir: str, tau_hours: float = 24.0):
    """Irregular-gap exponential smoothing of each event_type's SPARSE
    hourly series: s_i = n_i + (s_{i-1} - n_i) * exp(-gap_hours/24) — the
    event-time EMA whose decay follows the CLOCK, not the sample count
    (a 6-hour outage decays 6 hours' worth, unlike row-based ema).
    Bitwise parity: whole-hour gaps are exact ints, math.exp == DuckDB
    exp bitwise (libm; probed), and the recurrence is transcribed
    op-for-op into the recursive CTE."""
    import math

    ev = _events(sf_dir, ["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hour = (
            batch["ts"].to_numpy("datetime64[us]").view(np.int64) // HOUR_US
        ) * HOUR_US
        g = (
            pd.DataFrame({"event_type": batch["event_type"], "hour_us": hour})
            .groupby(["event_type", "hour_us"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    hourly = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "hour_us"],
        [("n", "sum")],
    )

    def ema(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("hour_us")
        t = df["hour_us"].to_numpy(np.int64)
        n = df["n_sum"].to_numpy(np.int64)
        out = np.empty(t.size, dtype=np.float64)
        s = float(n[0])
        out[0] = s
        for i in range(1, t.size):
            gap = int(t[i] - t[i - 1]) // HOUR_US
            v = float(n[i])
            s = v + (s - v) * math.exp(-float(gap) / 24.0)
            out[i] = s
        return pd.DataFrame(
            {
                "event_type": df["event_type"],
                "hour_us": t,
                "ema": _r6away(out),
            }
        )

    return bucketed_map_groups(hourly, ["event_type"], ema)


QUERIES6["event_time_decay_ema"] = q_event_time_decay_ema
ORACLES6["event_time_decay_ema"] = """
WITH RECURSIVE h AS (
  SELECT event_type, date_trunc('hour', ts) AS bh, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
r0 AS (
  SELECT event_type, CAST(epoch_us(bh) AS BIGINT) AS tus, n,
         row_number() OVER (PARTITION BY event_type ORDER BY bh) AS rn
  FROM h
),
rec AS (
  SELECT event_type, rn, tus, CAST(n AS DOUBLE) AS s
  FROM r0 WHERE rn = 1
  UNION ALL
  SELECT r0.event_type, r0.rn, r0.tus,
         CAST(r0.n AS DOUBLE)
         + (rec.s - CAST(r0.n AS DOUBLE))
           * exp(-CAST((r0.tus - rec.tus) // 3600000000 AS DOUBLE) / 24.0)
  FROM rec JOIN r0 ON r0.event_type = rec.event_type AND r0.rn = rec.rn + 1
)
SELECT event_type, CAST(tus AS BIGINT) AS hour_us, ROUND(s, 6) AS ema
FROM rec
"""


# ---------------------------------------------------------------------------
# Unigram-LM document log-probability (perplexity-proxy quality score)
# ---------------------------------------------------------------------------


def q_doc_logprob_unigram(sf_dir: str):
    """Per-document mean unigram log-probability under the corpus's own
    unigram LM: mean over token OCCURRENCES of ln(count(token)/total) —
    the cheap perplexity proxy corpus pipelines use to rank fluency
    before any neural scoring (low = rare-token soup / garbled text).

    Parity: p = cnt/total is one shared double division; math.log ==
    DuckDB ln bitwise (libm); each doc's per-token terms
    occurrences*ln(p) fold in ascending-token order on both sides
    (list_sum(list(... ORDER BY token)) == Python left-fold). Scale:
    global token counts are one bucketed exchange; per-doc terms join
    frequency back co-partitioned by token, then reduce per doc."""
    import math

    import re

    _TOKEN = re.compile(r"\w+")

    def doc_tokens(batch: pd.DataFrame) -> pd.DataFrame:
        ids, toks = [], []
        for d, t in zip(batch["doc_id"], batch["text"]):
            words = _TOKEN.findall((t or "").lower())
            ids.extend([d] * len(words))
            toks.extend(words)
        g = (
            pd.DataFrame({"doc_id": np.asarray(ids, dtype=np.int64), "token": toks})
            .groupby(["doc_id", "token"], sort=False)
            .size()
            .reset_index(name="k")
        )
        g["k"] = g["k"].astype(np.int64)
        return g

    per_doc = hash_bucket_aggregate(
        _documents(sf_dir, ["doc_id", "text"]).map_batches(
            doc_tokens, batch_format="pandas"
        ),
        ["doc_id", "token"],
        [("k", "sum")],
    ).materialize()

    global_counts = hash_bucket_aggregate(
        per_doc.select_columns(["token", "k_sum"]).rename_columns(
            {"k_sum": "k"}
        ),
        ["token"],
        [("k", "sum")],
    )
    total = int(
        global_counts.rename_columns({"k_sum": "cnt"}).sum("cnt")
    )

    joined = bucketed_join(
        per_doc,
        global_counts.rename_columns({"k_sum": "cnt"}),
        on=["token"],
    )

    def reduce_doc(df: pd.DataFrame) -> pd.DataFrame:
        import math as _m

        df = df.sort_values("token", kind="mergesort")
        out_ids, out_n, out_lp = [], [], []
        for doc_id, g in df.groupby("doc_id", sort=True):
            s = 0.0
            n_tok = 0
            for k, cnt in zip(g["k_sum"].tolist(), g["cnt"].tolist()):
                p = float(cnt) / float(total)
                s = s + float(k) * _m.log(p)
                n_tok += int(k)
            out_ids.append(int(doc_id))
            out_n.append(n_tok)
            out_lp.append(s / float(n_tok))
        return pd.DataFrame(
            {
                "doc_id": np.asarray(out_ids, dtype=np.int64),
                "n_tokens": np.asarray(out_n, dtype=np.int64),
                "mean_logprob": _r6away(np.asarray(out_lp, dtype=np.float64)),
            }
        )

    return bucketed_map_groups(joined, ["doc_id"], None, whole_bucket_fn=reduce_doc)


QUERIES6["doc_logprob_unigram"] = q_doc_logprob_unigram
ORACLES6["doc_logprob_unigram"] = """
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+')) AS token
  FROM documents
),
per_doc AS (SELECT doc_id, token, COUNT(*) AS k FROM tok GROUP BY 1, 2),
gc AS (SELECT token, SUM(k) AS cnt FROM per_doc GROUP BY 1),
tot AS (SELECT SUM(cnt) AS total FROM gc),
terms AS (
  SELECT p.doc_id, p.token, p.k,
         CAST(p.k AS DOUBLE)
           * ln(CAST(g.cnt AS DOUBLE) / CAST(t.total AS DOUBLE)) AS term
  FROM per_doc p JOIN gc g USING (token) CROSS JOIN tot t
)
SELECT doc_id,
       CAST(SUM(k) AS BIGINT) AS n_tokens,
       ROUND(list_sum(list(term ORDER BY token)) / CAST(SUM(k) AS DOUBLE), 6)
         AS mean_logprob
FROM terms
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Chi-square hour-of-day uniformity
# ---------------------------------------------------------------------------


def q_chi2_hour_of_day(sf_dir: str):
    """Chi-square statistic of each event_type's hour-of-day histogram
    against the uniform baseline e = n/24 — "is this stream diurnal or
    flat", the screen that decides whether hour-of-day features matter.
    The 24 observed counts are exact ints; e and each (o-e)^2/e term are
    shared double expressions folded in ascending hour order (24 terms,
    list_sum == left-fold)."""
    ev = _events(sf_dir, ["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hod = (
            batch["ts"].to_numpy("datetime64[us]").view(np.int64) // HOUR_US
        ) % 24
        g = (
            pd.DataFrame({"event_type": batch["event_type"], "hod": hod})
            .groupby(["event_type", "hod"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    agg = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "hod"],
        [("n", "sum")],
    )

    def chi2(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("hod")
        o = np.zeros(24, dtype=np.int64)
        o[df["hod"].to_numpy(np.int64)] = df["n_sum"].to_numpy(np.int64)
        total = int(o.sum())
        e = float(total) / 24.0
        s = 0.0
        for v in o.tolist():  # ascending-hour left-fold (parity contract)
            d = float(v) - e
            s = s + d * d / e
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_events": [np.int64(total)],
                "chi2": [_r6away(s)],
            }
        )

    return bucketed_map_groups(agg, ["event_type"], chi2)


QUERIES6["chi2_hour_of_day"] = q_chi2_hour_of_day
ORACLES6["chi2_hour_of_day"] = """
WITH hods AS (
  SELECT event_type, g.hod
  FROM (SELECT DISTINCT event_type FROM events)
  CROSS JOIN (SELECT unnest(range(0, 24)) AS hod) g
),
o AS (
  SELECT event_type,
         CAST(epoch_us(ts) // 3600000000 % 24 AS BIGINT) AS hod,
         COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
x AS (
  SELECT h.event_type, h.hod, COALESCE(o.n, 0) AS n
  FROM hods h LEFT JOIN o ON o.event_type = h.event_type AND o.hod = h.hod
),
t AS (SELECT event_type, SUM(n) AS total FROM x GROUP BY 1),
terms AS (
  SELECT x.event_type, x.hod,
         (CAST(x.n AS DOUBLE) - CAST(t.total AS DOUBLE) / 24.0)
           * (CAST(x.n AS DOUBLE) - CAST(t.total AS DOUBLE) / 24.0)
           / (CAST(t.total AS DOUBLE) / 24.0) AS term
  FROM x JOIN t USING (event_type)
)
SELECT terms.event_type,
       CAST(t.total AS BIGINT) AS n_events,
       ROUND(list_sum(list(term ORDER BY hod)), 6) AS chi2
FROM terms JOIN t USING (event_type)
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Quantity-weighted median price (no-float output)
# ---------------------------------------------------------------------------


def q_weighted_median_price(sf_dir: str):
    """Quantity-weighted MEDIAN unit price per l_returnflag: the smallest
    price where the cumulative quantity (prices ascending, ties by price
    only — prices are already distinct per cent) reaches half the total —
    the 'typical traded price' robust to a few huge-quantity outlier
    lines. All comparisons are exact integers (2*cum >= total) and the
    output is a cent value: zero rounding surface."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_extendedprice", "l_quantity"],
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        p = batch["l_extendedprice"].to_numpy(np.float64) * 100.0
        cents = (np.sign(p) * np.floor(np.abs(p) + 0.5)).astype(np.int64)
        qty = batch["l_quantity"].to_numpy(np.float64).astype(np.int64)
        g = (
            pd.DataFrame(
                {"l_returnflag": batch["l_returnflag"], "price_c": cents, "q": qty}
            )
            .groupby(["l_returnflag", "price_c"], sort=False)["q"]
            .sum()
            .reset_index()
        )
        g["q"] = g["q"].astype(np.int64)
        return g

    agg = hash_bucket_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        ["l_returnflag", "price_c"],
        [("q", "sum")],
    )

    def wmed(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("price_c")
        q = df["q_sum"].to_numpy(np.int64)
        cum = np.cumsum(q)
        total = int(cum[-1])
        i = int(np.argmax(2 * cum >= total))
        return pd.DataFrame(
            {
                "l_returnflag": [df["l_returnflag"].iloc[0]],
                "total_qty": [np.int64(total)],
                "wmedian_price_c": [df["price_c"].to_numpy(np.int64)[i]],
            }
        )

    return bucketed_map_groups(agg, ["l_returnflag"], wmed)


QUERIES6["weighted_median_price"] = q_weighted_median_price
ORACLES6["weighted_median_price"] = """
WITH c AS (
  SELECT l_returnflag,
         CAST(ROUND(l_extendedprice * 100) AS BIGINT) AS price_c,
         CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS q
  FROM lineitem GROUP BY 1, 2
),
w AS (
  SELECT l_returnflag, price_c, q,
         SUM(q) OVER (PARTITION BY l_returnflag ORDER BY price_c
                      ROWS UNBOUNDED PRECEDING) AS cum,
         SUM(q) OVER (PARTITION BY l_returnflag) AS total
  FROM c
)
SELECT l_returnflag,
       CAST(total AS BIGINT) AS total_qty,
       CAST(MIN(price_c) AS BIGINT) AS wmedian_price_c
FROM w
WHERE 2 * cum >= total
GROUP BY 1, total
"""


# ---------------------------------------------------------------------------
# Burst detection (all-integer trailing-mean exceedance)
# ---------------------------------------------------------------------------


def q_burst_hours(sf_dir: str):
    """Hours whose event count exceeds TWICE the trailing-24h mean, per
    event_type — the Kleinberg-lite burst flag ops dashboards raise on
    viral spikes. The comparison is cross-multiplied to stay entirely in
    integers (n*24 > 2*sum24, over the zero-filled dense hour grid with a
    full 24-hour lookback), so the operator has no float anywhere."""
    agg = _hourly_counts(sf_dir)
    out = []
    for t, g in agg.groupby("event_type", sort=True):
        hr = g["hour_us"].to_numpy(np.int64)
        lo, hi = int(hr.min()), int(hr.max())
        grid = np.arange(lo, hi + HOUR_US, HOUR_US, dtype=np.int64)
        v = np.zeros(grid.size, dtype=np.int64)
        v[(hr - lo) // HOUR_US] = g["n_sum"].to_numpy(np.int64)
        if grid.size <= 24:
            continue
        cs = np.concatenate([[0], np.cumsum(v)])
        sum24 = cs[24:-1] - cs[:-25]  # trailing 24 BEFORE t, t in [24, n)
        n_t = v[24:]
        keep = n_t * 24 > 2 * sum24
        if keep.any():
            out.append(
                pd.DataFrame(
                    {
                        "event_type": t,
                        "hour_us": grid[24:][keep],
                        "cnt": n_t[keep],
                        "trailing_sum": sum24[keep],
                    }
                )
            )
    if not out:
        return pd.DataFrame(
            {
                "event_type": pd.Series(dtype="object"),
                "hour_us": pd.Series(dtype="int64"),
                "cnt": pd.Series(dtype="int64"),
                "trailing_sum": pd.Series(dtype="int64"),
            }
        )
    return pd.concat(out, ignore_index=True)


QUERIES6["burst_hours"] = q_burst_hours
ORACLES6["burst_hours"] = """
WITH h AS (
  SELECT event_type, date_trunc('hour', ts) AS bh, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(bh) AS lo, MAX(bh) AS hi FROM h GROUP BY 1),
grid AS (
  SELECT event_type, unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS bh
  FROM bounds
),
x AS (
  SELECT g.event_type, g.bh, COALESCE(h.n, 0) AS n,
         row_number() OVER (PARTITION BY g.event_type ORDER BY g.bh) AS rn
  FROM grid g LEFT JOIN h ON h.event_type = g.event_type AND h.bh = g.bh
),
w AS (
  SELECT event_type, bh, n, rn,
         SUM(n) OVER (PARTITION BY event_type ORDER BY rn
                      ROWS BETWEEN 24 PRECEDING AND 1 PRECEDING) AS sum24
  FROM x
)
SELECT event_type,
       CAST(epoch_us(bh) AS BIGINT) AS hour_us,
       CAST(n AS BIGINT) AS cnt,
       CAST(sum24 AS BIGINT) AS trailing_sum
FROM w
WHERE rn > 24 AND n * 24 > 2 * sum24
"""
