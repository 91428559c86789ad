"""Round-2 batch 3: seasonal / dependence diagnostics over the tier
count series (ACF, classical decomposition, Theil-Sen trend, rolling
correlation), robust MAD anomaly flagging, and Gopher-style repetition
quality signals over documents.

Every operator is DuckDB-oracle-verified (ORACLES3). Parity strategy (see
kernels/seasonal.py): count series are INTEGER, so every sum — window
sums, lagged cross-products, phase sums — runs in exact int64/HUGEINT
arithmetic on both engines (order-free), and the float expressions that
follow are transcribed op-for-op into the SQL, giving bitwise-equal
doubles into the shared final ROUND.

Scale contracts: the per-series kernels run on TIER-resolution series
(one retention window of buckets per key — bounded state, the same
contract as the EMA/CUSUM/PELT whole-series kernels); repetition signals
are per-doc with state bounded by document length.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import (
    acf_exact,
    classical_decompose,
    dense_counts,
    rolling_corr_exact,
    theil_sen,
)
from .queries2 import _documents, _events, _r6away, event_tier

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


def _bucket_us(df: pd.DataFrame) -> np.ndarray:
    return df["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()


# ---------------------------------------------------------------------------
# ACF: autocorrelation of the dense hourly count series
# ---------------------------------------------------------------------------


def q_acf(sf_dir: str, max_lag: int = 12):
    """Autocorrelation r_1..r_12 of each event_type's dense (zero-filled)
    hourly count series — the standard seasonality diagnostic a rollup
    engine serves next to its tiers.

    Exactness: all sums (S, SS, and the per-lag cross-products P_k, Q_k)
    are int64 reductions over integer counts — order-free, so the shuffle
    and batch layout cannot perturb them; the float combination is
    replicated verbatim in the oracle (kernels/seasonal.py:acf_exact).
    Series shorter than max_lag+1 buckets are dropped on both sides."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        if x.size <= max_lag:
            return pd.DataFrame(
                {"event_type": pd.Series(dtype=object),
                 "lag": pd.Series(dtype=np.int64),
                 "acf": pd.Series(dtype=np.float64)}
            )
        lags, r = acf_exact(x, max_lag)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], lags.size),
                "lag": lags,
                "acf": _r6away(r),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


# ---------------------------------------------------------------------------
# Classical additive seasonal decomposition (period 24 on the hourly tier)
# ---------------------------------------------------------------------------


def q_seasonal_decompose(sf_dir: str, period: int = 24):
    """Classical additive decomposition (trend = even-period centered MA,
    seasonal = phase mean of the detrended series, residual) of each
    event_type's dense hourly count series with daily period 24.

    Spec note: the seasonal component is the UNCENTERED phase mean — the
    phase means are computed exactly from integer sums (see
    kernels/seasonal.py:classical_decompose), whereas re-centering by the
    float mean-of-means would re-introduce summation-order sensitivity.
    Rows outside the full centered window are dropped on both sides."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        trend, seasonal, resid, valid = classical_decompose(x, period)
        idx = np.flatnonzero(valid)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], idx.size),
                "idx": idx.astype(np.int64),
                "bucket_ts": pd.to_datetime(grid[idx], unit="us"),
                "x": x[idx],
                "trend": _r6away(trend[idx]),
                "seasonal": _r6away(seasonal[idx]),
                "residual": _r6away(resid[idx]),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


# ---------------------------------------------------------------------------
# Theil-Sen robust trend on the daily tier
# ---------------------------------------------------------------------------


def q_theilsen_trend(sf_dir: str):
    """Theil-Sen robust trend (median of all pairwise slopes) of each
    event_type's dense daily count series. O(n^2) pairs is the documented
    cost — n is the number of retention DAYS (30 here, ~365 in
    production), so the pair set stays tiny; the medians are np.quantile
    linear == DuckDB quantile_cont bitwise."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), DAY_US)
        slope, intercept, n_pairs = theil_sen(x)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_days": np.int64(x.size),
                "n_pairs": np.int64(n_pairs),
                "slope": _r6away(slope),
                "intercept": _r6away(intercept),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


# ---------------------------------------------------------------------------
# MAD-based robust anomaly flags over raw event values
# ---------------------------------------------------------------------------


def q_mad_anomaly(sf_dir: str, k: float = 3.0):
    """Events whose robust z-score |value - median| / (1.4826 * MAD)
    exceeds k — the outlier-resistant sibling of anomaly_zscore (a single
    wild value inflates the stddev and hides later outliers; the median
    and MAD are immune). Both medians are quantile_cont-parity
    np.quantile calls; the score is a shared float expression and the
    k-boundary is compared on the 6-rounded score on both sides, so
    boundary membership is identical."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(dtype=np.float64)
        med = float(np.quantile(v, 0.5))
        dev = np.abs(v - med)
        mad = float(np.quantile(dev, 0.5))
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "event_id": pd.Series(dtype=np.int64),
             "value": pd.Series(dtype=np.float64),
             "score": pd.Series(dtype=np.float64)}
        )
        if mad <= 0.0:
            return empty
        score = _r6away(dev / (1.4826 * mad))
        sel = score > k
        if not sel.any():
            return empty
        return pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy()[sel],
                "event_id": df["event_id"].to_numpy(np.int64)[sel],
                "value": v[sel],
                "score": score[sel],
            }
        )

    return bucketed_map_groups(_events(sf_dir), ["event_type"], fn)


# ---------------------------------------------------------------------------
# Rolling correlation between two event-type series
# ---------------------------------------------------------------------------


def q_rolling_corr(sf_dir: str, type_a: str = "click", type_b: str = "view",
                   window: int = 24):
    """Rolling 24h Pearson correlation between the click and view hourly
    count series, aligned on a shared zero-filled global hour grid.

    The five window sums are exact integer window aggregates (order-free;
    HUGEINT on the SQL side), so the correlation is a shared float
    expression over identical operands (kernels/seasonal.py:
    rolling_corr_exact). The pair of series lives in ONE kernel — tier
    resolution, bounded by the retention window, the same single-series
    state contract as the forecast kernels."""

    counts = event_tier(sf_dir, "1h")

    def mark(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["event_type"].isin([type_a, type_b])].copy()
        batch["pair"] = np.int64(0)
        return batch

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        us = _bucket_us(df)
        lo, hi = int(us.min()), int(us.max())
        a = df[df["event_type"] == type_a]
        b = df[df["event_type"] == type_b]
        grid, x = dense_counts(_bucket_us(a), a["count"].to_numpy(), HOUR_US, lo, hi)
        _, y = dense_counts(_bucket_us(b), b["count"].to_numpy(), HOUR_US, lo, hi)
        r = rolling_corr_exact(x, y, window)
        sel = np.isfinite(r)
        return pd.DataFrame(
            {
                "bucket_ts": pd.to_datetime(grid[sel], unit="us"),
                "corr": _r6away(r[sel]),
            }
        )

    return (
        bucketed_map_groups(
            counts.map_batches(mark, batch_format="pandas"), ["pair"], fn
        )
        .select_columns(["bucket_ts", "corr"])
    )


# ---------------------------------------------------------------------------
# Gopher-style repetition signals per document
# ---------------------------------------------------------------------------


def repetition_row(text: str):
    """Per-doc repetition signals; state bounded by document length.
    Split on single spaces EXACTLY like DuckDB string_split(text, ' ')
    (no collapsing of runs, unlike str.split())."""
    words = (text or "").split(" ")
    nw = len(words)
    if nw < 5:
        return None
    c2 = Counter(zip(words, words[1:]))
    total2 = nw - 1
    top2 = max(c2.values())
    c5 = Counter(zip(words, words[1:], words[2:], words[3:], words[4:]))
    total5 = nw - 4
    dup5 = sum(c for c in c5.values() if c > 1)
    return nw, top2 / total2, dup5 / total5


def q_repetition_signals(sf_dir: str):
    """Gopher-style repetition quality signals per document: the fraction
    of word-2-gram occurrences claimed by the single most frequent 2-gram
    (top2_frac), and the fraction of word-5-gram occurrences that are
    duplicated within the document (dup5_frac) — the two filters used to
    drop boilerplate/spam pages from LLM training corpora.

    Per-doc UDF (bounded state), embarrassingly parallel — no shuffle.
    Documents with fewer than 5 space-separated tokens are dropped on
    both sides."""

    def batch_fn(batch: pd.DataFrame) -> pd.DataFrame:
        ids, nws, t2, d5 = [], [], [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            row = repetition_row(text)
            if row is None:
                continue
            ids.append(int(doc_id))
            nws.append(row[0])
            t2.append(row[1])
            d5.append(row[2])
        return pd.DataFrame(
            {
                "doc_id": np.asarray(ids, dtype=np.int64),
                "n_words": np.asarray(nws, dtype=np.int64),
                "top2_frac": _r6away(np.asarray(t2, dtype=np.float64)),
                "dup5_frac": _r6away(np.asarray(d5, dtype=np.float64)),
            }
        )

    return _documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        batch_fn, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

QUERIES3 = {
    "acf": q_acf,
    "seasonal_decompose": q_seasonal_decompose,
    "theilsen_trend": q_theilsen_trend,
    "mad_anomaly": q_mad_anomaly,
    "rolling_corr": q_rolling_corr,
    "repetition_signals": q_repetition_signals,
}

# dense zero-filled hourly count grid per event_type, with integer idx
_DENSE_1H = """
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
)
"""

ORACLES3 = {
    "acf": """
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
)
SELECT s.event_type, CAST(pq.k AS BIGINT) AS lag,
       ROUND((CAST(p AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(q AS DOUBLE)
              + (n - pq.k) * (CAST(sx AS DOUBLE)/n) * (CAST(sx AS DOUBLE)/n))
             / (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE)),
             6) AS acf
FROM pq JOIN s USING (event_type)
WHERE s.n > 12
""",
    "seasonal_decompose": """
WITH """ + _DENSE_1H + """,
w AS (
  SELECT event_type, idx, b, x,
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
  SELECT event_type, idx, b, x, xm12 + 2*s23 + xp12 AS num2
  FROM w WHERE xm12 IS NOT NULL AND xp12 IS NOT NULL AND c23 = 23
),
p AS (
  SELECT event_type, idx % 24 AS phase,
         48*SUM(x) - SUM(num2) AS dnum, COUNT(*) AS cnt
  FROM t GROUP BY 1, 2
),
se AS (SELECT event_type, phase, CAST(dnum AS DOUBLE)/48.0/cnt AS seas FROM p)
SELECT t.event_type, t.idx, t.b AS bucket_ts, t.x,
       ROUND(CAST(num2 AS DOUBLE)/48.0, 6) AS trend,
       ROUND(seas, 6) AS seasonal,
       ROUND(t.x - CAST(num2 AS DOUBLE)/48.0 - seas, 6) AS residual
FROM t JOIN se ON se.event_type = t.event_type AND se.phase = t.idx % 24
""",
    "theilsen_trend": """
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
pairs AS (
  SELECT a.event_type,
         CAST(b.x - a.x AS DOUBLE) / (b.idx - a.idx) AS sl
  FROM d a JOIN d b ON b.event_type = a.event_type AND b.idx > a.idx
),
m AS (SELECT event_type, quantile_cont(sl, 0.5) AS slope,
             COUNT(*) AS n_pairs FROM pairs GROUP BY 1),
mx AS (SELECT event_type, quantile_cont(CAST(x AS DOUBLE), 0.5) AS med_x,
              quantile_cont(CAST(idx AS DOUBLE), 0.5) AS med_i,
              COUNT(*) AS n_days FROM d GROUP BY 1)
SELECT event_type, n_days, n_pairs, ROUND(slope, 6) AS slope,
       ROUND(med_x - slope * med_i, 6) AS intercept
FROM m JOIN mx USING (event_type)
""",
    "mad_anomaly": """
WITH m AS (
  SELECT event_type, quantile_cont(value, 0.5) AS med FROM events GROUP BY 1
),
dv AS (
  SELECT e.event_type, e.event_id, e.value, ABS(e.value - m.med) AS dev
  FROM events e JOIN m USING (event_type)
),
md AS (SELECT event_type, quantile_cont(dev, 0.5) AS mad FROM dv GROUP BY 1)
SELECT dv.event_type, dv.event_id, dv.value,
       ROUND(dev / (1.4826 * mad), 6) AS score
FROM dv JOIN md USING (event_type)
WHERE mad > 0 AND ROUND(dev / (1.4826 * mad), 6) > 3.0
""",
    "rolling_corr": """
WITH c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events WHERE event_type IN ('click', 'view') GROUP BY 1, 2
),
bounds AS (SELECT MIN(b) AS lo, MAX(b) AS hi FROM c),
g AS (
  SELECT bo.lo, UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 HOUR)) AS b
  FROM bounds bo
),
p AS (
  SELECT CAST(date_diff('hour', g.lo, g.b) AS BIGINT) AS idx, g.b,
         COALESCE(MAX(CASE WHEN c.event_type = 'click' THEN c.x END), 0) AS x,
         COALESCE(MAX(CASE WHEN c.event_type = 'view'  THEN c.x END), 0) AS y
  FROM g LEFT JOIN c ON c.b = g.b
  GROUP BY 1, 2
),
w AS (
  SELECT b, COUNT(*) OVER win AS cw,
         SUM(x)   OVER win AS sx,  SUM(y)   OVER win AS sy,
         SUM(x*x) OVER win AS sxx, SUM(y*y) OVER win AS syy,
         SUM(x*y) OVER win AS sxy
  FROM p
  WINDOW win AS (ORDER BY idx ROWS BETWEEN 23 PRECEDING AND CURRENT ROW)
)
SELECT b AS bucket_ts,
       ROUND(CAST(24*sxy - sx*sy AS DOUBLE)
             / (sqrt(CAST(24*sxx - sx*sx AS DOUBLE))
                * sqrt(CAST(24*syy - sy*sy AS DOUBLE))), 6) AS corr
FROM w
WHERE cw = 24 AND 24*sxx - sx*sx > 0 AND 24*syy - sy*sy > 0
""",
    "repetition_signals": """
WITH w AS (
  SELECT doc_id, string_split(COALESCE(text, ''), ' ') AS ws FROM documents
),
n AS (SELECT doc_id, ws, len(ws) AS nw FROM w WHERE len(ws) >= 5),
i2 AS (SELECT doc_id, ws, UNNEST(generate_series(1, nw - 1)) AS i FROM n),
g2 AS (SELECT doc_id, ws[i] || ' ' || ws[i+1] AS gram FROM i2),
c2 AS (SELECT doc_id, gram, COUNT(*) AS c FROM g2 GROUP BY 1, 2),
a2 AS (SELECT doc_id, MAX(c) AS maxc, SUM(c) AS total2 FROM c2 GROUP BY 1),
i5 AS (SELECT doc_id, ws, UNNEST(generate_series(1, nw - 4)) AS i FROM n),
g5 AS (SELECT doc_id,
              ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' || ws[i+3]
                    || ' ' || ws[i+4] AS gram
       FROM i5),
c5 AS (SELECT doc_id, gram, COUNT(*) AS c FROM g5 GROUP BY 1, 2),
a5 AS (SELECT doc_id, SUM(CASE WHEN c > 1 THEN c ELSE 0 END) AS dup5,
              SUM(c) AS total5 FROM c5 GROUP BY 1)
SELECT n.doc_id, CAST(nw AS BIGINT) AS n_words,
       ROUND(CAST(maxc AS DOUBLE) / total2, 6) AS top2_frac,
       ROUND(CAST(dup5 AS DOUBLE) / total5, 6) AS dup5_frac
FROM n JOIN a2 USING (doc_id) JOIN a5 USING (doc_id)
""",
}


# ---------------------------------------------------------------------------
# Holt-Winters additive seasonal forecast (period 24 on the hourly tier)
# ---------------------------------------------------------------------------


def q_holt_winters(sf_dir: str, horizon: int = 6):
    """Additive Holt-Winters forecast (period 24, alpha=0.3, beta=0.1,
    gamma=0.2) of each event_type's dense hourly count series — completes
    the reference's exponential-smoothing family (SES -> Holt ->
    Holt-Winters; Extrapolation/HoltMethodExtrapolator.cs stops at double
    smoothing) with the seasonal member a telemetry rollup engine
    actually forecasts with.

    The recursive-CTE oracle replays the identical scalar recurrence,
    carrying the 24-element seasonal state as a SQL list; complements
    like (1-alpha) are written as the same (1.0 - 0.3) float expression
    on both sides (1.0-0.3 != literal 0.7 in IEEE doubles). Requires
    n >= 48 buckets; O(period) state per series."""
    from ..kernels.extrapolation import holt_winters_forecast

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "h": pd.Series(dtype=np.int64),
             "forecast": pd.Series(dtype=np.float64)}
        )
        if x.size < 48:
            return empty
        fc = holt_winters_forecast(x, horizon, period=24)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], horizon),
                "h": np.arange(1, horizon + 1, dtype=np.int64),
                "forecast": _r6away(fc),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES3["holt_winters"] = q_holt_winters

# the new level L' inlined (recursive CTEs cannot reference select aliases);
# phase index for step idx is (idx % 24) + 1 in 1-based SQL lists
_HW_SO = "hw.sl[(b.idx % 24) + 1]"
_HW_LP = f"(0.3*(b.v - {_HW_SO}) + (1.0 - 0.3)*(hw.level + hw.trend))"

ORACLES3["holt_winters"] = f"""
WITH RECURSIVE c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(b) AS lo, MAX(b) AS hi FROM c GROUP BY 1),
g AS (
  SELECT bo.event_type, bo.lo,
         UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 HOUR)) AS b
  FROM bounds bo
),
base AS MATERIALIZED (
  SELECT g.event_type,
         CAST(date_diff('hour', g.lo, g.b) AS BIGINT) AS idx,
         CAST(COALESCE(c.x, 0) AS DOUBLE) AS v
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
),
init AS (
  SELECT event_type,
         CAST(SUM(CASE WHEN idx < 24 THEN CAST(v AS BIGINT) END) AS DOUBLE)
           / 24 AS l0,
         (CAST(SUM(CASE WHEN idx >= 24 AND idx < 48
                        THEN CAST(v AS BIGINT) END) AS DOUBLE)
          - CAST(SUM(CASE WHEN idx < 24 THEN CAST(v AS BIGINT) END) AS DOUBLE))
           / 576 AS t0,
         MAX(idx) AS mx
  FROM base GROUP BY 1
  HAVING MAX(idx) >= 47
),
s0 AS (
  SELECT b.event_type, list(b.v - i.l0 ORDER BY b.idx) AS sl
  FROM base b JOIN init i USING (event_type)
  WHERE b.idx < 24
  GROUP BY 1
),
hw AS (
  SELECT i.event_type, CAST(23 AS BIGINT) AS idx, i.l0 AS level, i.t0 AS trend,
         s0.sl AS sl
  FROM init i JOIN s0 USING (event_type)
  UNION ALL
  SELECT b.event_type, b.idx,
         {_HW_LP} AS level,
         0.1*({_HW_LP} - hw.level) + (1.0 - 0.1)*hw.trend AS trend,
         [CASE WHEN j = (b.idx % 24) + 1
               THEN 0.2*(b.v - {_HW_LP}) + (1.0 - 0.2)*{_HW_SO}
               ELSE hw.sl[j] END
          FOR j IN generate_series(1, 24)] AS sl
  FROM hw JOIN base b
    ON b.event_type = hw.event_type AND b.idx = hw.idx + 1
)
SELECT hw.event_type, CAST(h.h AS BIGINT) AS h,
       ROUND(hw.level + h.h * hw.trend
             + hw.sl[((i.mx + h.h) % 24) + 1], 6) AS forecast
FROM hw
JOIN init i ON i.event_type = hw.event_type AND hw.idx = i.mx
CROSS JOIN (SELECT UNNEST([1, 2, 3, 4, 5, 6]) AS h) h
"""


# ---------------------------------------------------------------------------
# Heavy hitters: Misra-Gries sketch + exact sibling
# ---------------------------------------------------------------------------


def q_heavy_hitters(sf_dir: str, k: int = 256, threshold: int = 20):
    """Frequent users per event_type via mergeable Misra-Gries sketches —
    completes the sketch trio (t-digest quantiles, HLL distinct counts,
    MG heavy hitters). Each batch collapses to one O(k) sketch per
    event_type (the combiner); the shuffle moves counter blobs, never
    events; the final kernel merges with the mergeable-summaries rule.

    Guarantee (tested in tests/test_sketches.py): est <= true <= est +
    offset with offset <= N/(k+1), and any user whose upper bound est +
    offset reaches the threshold is emitted — no false negatives vs the
    exact sibling heavy_hitters_exact. Approximate-by-design ->
    rows-only."""
    import pickle

    from ..stages.sketches import MisraGries
    from ..common.raytools import bucketed_map_groups

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in batch.groupby("event_type", sort=False):
            mg = MisraGries(k)
            ks, cs = np.unique(g["user_id"].to_numpy(np.int64), return_counts=True)
            mg.add_counts(ks.tolist(), cs.tolist())
            rows.append((et, pickle.dumps((mg.counters, mg.offset))))
        return pd.DataFrame(rows, columns=["event_type", "sketch"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        acc = MisraGries(k)
        for blob in df["sketch"]:
            other = MisraGries(k)
            other.counters, other.offset = pickle.loads(blob)
            acc = acc.merge(other)
        cand = sorted(acc.candidates(threshold))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]] * len(cand),
                "user_id": np.asarray([c[0] for c in cand], dtype=np.int64),
                "count_est": np.asarray([c[1] for c in cand], dtype=np.int64),
                "count_upper": np.asarray([c[2] for c in cand], dtype=np.int64),
            }
        )

    parts = _events(sf_dir, columns=["event_type", "user_id"]).map_batches(
        partial, batch_format="pandas"
    )
    return bucketed_map_groups(parts, ["event_type"], final)


def q_heavy_hitters_exact(sf_dir: str, threshold: int = 20):
    """Exact frequent users per event_type (count >= threshold) — the
    SQL-verified sibling of the MG sketch. Classic combiner shape: each
    batch pre-counts (event_type, user_id) pairs, the shuffle moves
    per-batch counts, the final kernel sums and filters. Counts are
    integers, so the result is exact under any split."""
    from ..common.raytools import bucketed_map_groups

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        g = (
            batch.groupby(["event_type", "user_id"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        g["user_id"] = g["user_id"].astype(np.int64)
        g["n"] = g["n"].astype(np.int64)
        return g

    def final(df: pd.DataFrame) -> pd.DataFrame:
        total = int(df["n"].sum())
        if total < threshold:
            return pd.DataFrame(
                {"event_type": pd.Series(dtype=object),
                 "user_id": pd.Series(dtype=np.int64),
                 "count": pd.Series(dtype=np.int64)}
            )
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "user_id": np.int64(df["user_id"].iloc[0]),
                "count": np.int64(total),
            }
        )

    parts = _events(sf_dir, columns=["event_type", "user_id"]).map_batches(
        partial, batch_format="pandas"
    )
    return bucketed_map_groups(parts, ["event_type", "user_id"], final)


QUERIES3["heavy_hitters"] = q_heavy_hitters
QUERIES3["heavy_hitters_exact"] = q_heavy_hitters_exact

ORACLES3["heavy_hitters_exact"] = """
SELECT event_type, user_id, COUNT(*) AS count
FROM events
GROUP BY 1, 2
HAVING COUNT(*) >= 20
"""


# ---------------------------------------------------------------------------
# Event analytics: funnel conversion + cohort retention
# ---------------------------------------------------------------------------


def q_funnel_conversion(sf_dir: str):
    """Three-step funnel (view -> click after the first view -> purchase
    after that click): how many users complete each step, with strictly
    increasing timestamps between steps.

    Scale shape: the per-user sequential scan runs inside a bucketed
    exchange on user_id (bounded per-user state); the per-user 0/1 step
    flags then collapse through a partial-sum combiner, so the second
    exchange moves one tiny row per batch. Counts are integers — exact
    under any split."""
    from ..common.raytools import bucketed_map_groups

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].to_numpy()
        et = df["event_type"].to_numpy()
        s1 = s2 = s3 = 0
        tv = ts[et == "view"]
        if tv.size:
            s1 = 1
            t1 = tv.min()
            tc = ts[(et == "click") & (ts > t1)]
            if tc.size:
                s2 = 1
                t2 = tc.min()
                if ((et == "purchase") & (ts > t2)).any():
                    s3 = 1
        return pd.DataFrame({"s1": [s1], "s2": [s2], "s3": [s3]})

    flags = bucketed_map_groups(
        _events(sf_dir, columns=["user_id", "event_type", "ts"]),
        ["user_id"],
        per_user,
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"g": [0], "s1": [int(batch["s1"].sum())],
             "s2": [int(batch["s2"].sum())], "s3": [int(batch["s3"].sum())]}
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "step": ["view", "click_after_view", "purchase_after_click"],
                "users": np.asarray(
                    [df["s1"].sum(), df["s2"].sum(), df["s3"].sum()],
                    dtype=np.int64,
                ),
            }
        )

    parts = flags.map_batches(partial, batch_format="pandas")
    return bucketed_map_groups(parts, ["g"], final).select_columns(["step", "users"])


def q_cohort_retention(sf_dir: str):
    """Cohort retention matrix: users grouped by the day of their first
    event (the cohort), counted on each later day they were active —
    (cohort_day, day_offset, active_users).

    Scale shape: one bucketed exchange on user_id computes each user's
    cohort day and distinct active-day offsets (per-user bounded state,
    already deduplicated), so the second exchange counts unique rows with
    a per-batch pre-count combiner. Exact integer counts."""
    from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        days = np.unique(
            df["ts"].astype("datetime64[us]").astype("int64").to_numpy() // DAY_US
        )
        d0 = int(days.min())
        return pd.DataFrame(
            {
                "cohort_day": pd.to_datetime(
                    np.repeat(d0 * DAY_US, days.size), unit="us"
                ),
                "day_offset": (days - d0).astype(np.int64),
            }
        )

    rows = bucketed_map_groups(
        _events(sf_dir, columns=["user_id", "ts"]), ["user_id"], per_user
    )
    return hash_bucket_aggregate(
        rows, ["cohort_day", "day_offset"], aggs=[], count_alias="active_users"
    )


# ---------------------------------------------------------------------------
# Winsorization (percentile clipping) per series
# ---------------------------------------------------------------------------


def q_winsorize(sf_dir: str, lo: float = 0.05, hi: float = 0.95):
    """Values clipped to each event_type's [p5, p95] — the standard
    outlier-taming transform before model fitting. The quantiles are
    np.quantile linear == quantile_cont bitwise, and clipping either
    leaves the double unchanged or replaces it with that bitwise-equal
    quantile, so no rounding is needed anywhere. Exact per-group quantiles
    need the whole group in one kernel (documented; the sketch path is
    quantiles_tdigest)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        v = df["value"].to_numpy(np.float64)
        ql = float(np.quantile(v, lo))
        qh = float(np.quantile(v, hi))
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype(np.int64),
                "event_type": df["event_type"],
                "value": v,
                "winsorized": np.clip(v, ql, qh),
            }
        )

    return bucketed_map_groups(_events(sf_dir), ["event_type"], fn)


# ---------------------------------------------------------------------------
# Cross-correlation between two event-type series (lags -12..12)
# ---------------------------------------------------------------------------


def q_cross_correlation(sf_dir: str, type_a: str = "click",
                        type_b: str = "view", max_lag: int = 12):
    """Cross-correlation function between the click and view hourly count
    series at lags -12..+12 (positive lag = view shifted later): the
    lead/lag dependence diagnostic beside acf (self) and rolling_corr
    (contemporaneous). Same exactness contract: every overlap sum is
    exact integer arithmetic; the correlation is a shared float
    expression (the rolling_corr formula over the lag-k overlap)."""

    counts = event_tier(sf_dir, "1h")

    def mark(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["event_type"].isin([type_a, type_b])].copy()
        batch["pair"] = np.int64(0)
        return batch

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        us = _bucket_us(df)
        lo_us, hi_us = int(us.min()), int(us.max())
        a_rows = df[df["event_type"] == type_a]
        b_rows = df[df["event_type"] == type_b]
        _, x = dense_counts(_bucket_us(a_rows), a_rows["count"].to_numpy(),
                            HOUR_US, lo_us, hi_us)
        _, y = dense_counts(_bucket_us(b_rows), b_rows["count"].to_numpy(),
                            HOUR_US, lo_us, hi_us)
        n = x.size
        lags, ccfs = [], []
        for k in range(-max_lag, max_lag + 1):
            if k >= 0:
                a, b = x[: n - k], y[k:]
            else:
                a, b = x[-k:], y[: n + k]
            if a.size < 2:
                continue
            na = a.size
            sx, sy = int(a.sum()), int(b.sum())
            sxx, syy = int((a * a).sum()), int((b * b).sum())
            sxy = int((a * b).sum())
            vx = float(na * sxx - sx * sx)
            vy = float(na * syy - sy * sy)
            if vx <= 0.0 or vy <= 0.0:
                continue
            r = float(na * sxy - sx * sy) / (np.sqrt(vx) * np.sqrt(vy))
            lags.append(k)
            ccfs.append(r)
        return pd.DataFrame(
            {
                "lag": np.asarray(lags, dtype=np.int64),
                "ccf": _r6away(np.asarray(ccfs)),
            }
        )

    return (
        bucketed_map_groups(
            counts.map_batches(mark, batch_format="pandas"), ["pair"], fn
        )
        .select_columns(["lag", "ccf"])
    )


# ---------------------------------------------------------------------------
# Table profile (data-quality summary)
# ---------------------------------------------------------------------------


def q_profile_events(sf_dir: str):
    """One-row data-quality profile of the events table: row count, null
    count, value min/max, exact centivalue sum, and timestamp bounds —
    the pre-flight audit every ingestion pipeline runs. Every statistic
    is associative, so it runs as partial+final aggregation with one
    tiny row per batch crossing the shuffle.

    Hash-stable by construction (the round-2 driver red row was a type
    artifact on this query): every output column is int64 — min/max as
    centivalues (half-away rounding == SQL ROUND), timestamp bounds as
    epoch-microseconds — so no float or timestamp canonicalization can
    diverge between engine and oracle."""
    from ..common.raytools import bucketed_map_groups

    def _c100(x) -> np.int64:
        # half-away-from-zero centivalue, == CAST(ROUND(v*100) AS BIGINT)
        v = np.float64(x) * 100.0
        return np.int64(np.sign(v) * np.floor(np.abs(v) + 0.5))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["value"].to_numpy(np.float64)
        # n_null_value is in-contract: NULLs arrive here as NaN, and the
        # oracle's MIN/MAX/SUM skip them — mask before aggregating so an
        # all-NaN propagation can never poison min/max/sum
        vv = v[~np.isnan(v)]
        ts = batch["ts"]
        if len(vv) == 0:
            # neutral partials: max-int min / min-int max / zero sum fold
            # away in `final` against any batch that has real values
            mn, mx, sm = np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0
        else:
            vc = np.sign(vv * 100.0) * np.floor(np.abs(vv * 100.0) + 0.5)
            mn, mx, sm = _c100(vv.min()), _c100(vv.max()), np.int64(vc.sum())
        return pd.DataFrame(
            {
                "g": [0],
                "n_rows": [np.int64(len(batch))],
                "n_null_value": [np.int64(batch["value"].isna().sum())],
                "min_value_c": [np.int64(mn)],
                "max_value_c": [np.int64(mx)],
                "sum_value_c": [np.int64(sm)],
                "min_ts_us": [np.int64(ts.min().value // 1000)],
                "max_ts_us": [np.int64(ts.max().value // 1000)],
            }
        )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_rows": [np.int64(df["n_rows"].sum())],
                "n_null_value": [np.int64(df["n_null_value"].sum())],
                "min_value_c": [np.int64(df["min_value_c"].min())],
                "max_value_c": [np.int64(df["max_value_c"].max())],
                "sum_value_c": [np.int64(df["sum_value_c"].sum())],
                "min_ts_us": [np.int64(df["min_ts_us"].min())],
                "max_ts_us": [np.int64(df["max_ts_us"].max())],
            }
        )

    parts = _events(sf_dir).map_batches(partial, batch_format="pandas")
    return bucketed_map_groups(parts, ["g"], final).select_columns(
        ["n_rows", "n_null_value", "min_value_c", "max_value_c",
         "sum_value_c", "min_ts_us", "max_ts_us"]
    )


QUERIES3["funnel_conversion"] = q_funnel_conversion
QUERIES3["cohort_retention"] = q_cohort_retention
QUERIES3["winsorize"] = q_winsorize
QUERIES3["cross_correlation"] = q_cross_correlation
QUERIES3["profile_events"] = q_profile_events

ORACLES3["funnel_conversion"] = """
WITH v AS (
  SELECT user_id, MIN(ts) AS t1 FROM events WHERE event_type = 'view' GROUP BY 1
),
c AS (
  SELECT e.user_id, MIN(e.ts) AS t2
  FROM events e JOIN v USING (user_id)
  WHERE e.event_type = 'click' AND e.ts > v.t1 GROUP BY 1
),
p AS (
  SELECT e.user_id
  FROM events e JOIN c USING (user_id)
  WHERE e.event_type = 'purchase' AND e.ts > c.t2 GROUP BY 1
)
SELECT 'view' AS step, (SELECT COUNT(*) FROM v) AS users
UNION ALL SELECT 'click_after_view', (SELECT COUNT(*) FROM c)
UNION ALL SELECT 'purchase_after_click', (SELECT COUNT(*) FROM p)
"""

ORACLES3["cohort_retention"] = """
WITH f AS (
  SELECT user_id, MIN(date_trunc('day', ts)) AS d0 FROM events GROUP BY 1
),
a AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events
)
SELECT f.d0 AS cohort_day,
       CAST(date_diff('day', f.d0, a.d) AS BIGINT) AS day_offset,
       COUNT(*) AS active_users
FROM a JOIN f USING (user_id)
GROUP BY 1, 2
"""

ORACLES3["winsorize"] = """
WITH q AS (
  SELECT event_type, quantile_cont(value, 0.05) AS ql,
         quantile_cont(value, 0.95) AS qh
  FROM events GROUP BY 1
)
SELECT e.event_id, e.event_type, e.value,
       CASE WHEN e.value < ql THEN ql
            WHEN e.value > qh THEN qh
            ELSE e.value END AS winsorized
FROM events e JOIN q USING (event_type)
"""

ORACLES3["cross_correlation"] = """
WITH c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events WHERE event_type IN ('click', 'view') GROUP BY 1, 2
),
bounds AS (SELECT MIN(b) AS lo, MAX(b) AS hi FROM c),
g AS (
  SELECT bo.lo, UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 HOUR)) AS b
  FROM bounds bo
),
p AS (
  SELECT CAST(date_diff('hour', g.lo, g.b) AS BIGINT) AS idx,
         COALESCE(MAX(CASE WHEN c.event_type = 'click' THEN c.x END), 0) AS x,
         COALESCE(MAX(CASE WHEN c.event_type = 'view'  THEN c.x END), 0) AS y
  FROM g LEFT JOIN c ON c.b = g.b
  GROUP BY 1
),
ks AS (SELECT UNNEST(generate_series(-12, 12)) AS k),
s AS (
  SELECT ks.k, COUNT(*) AS na,
         SUM(a.x) AS sx, SUM(b.y) AS sy,
         SUM(a.x*a.x) AS sxx, SUM(b.y*b.y) AS syy, SUM(a.x*b.y) AS sxy
  FROM ks
  JOIN p a ON TRUE
  JOIN p b ON b.idx = a.idx + ks.k
  GROUP BY 1
)
SELECT CAST(k AS BIGINT) AS lag,
       ROUND(CAST(na*sxy - sx*sy AS DOUBLE)
             / (sqrt(CAST(na*sxx - sx*sx AS DOUBLE))
                * sqrt(CAST(na*syy - sy*sy AS DOUBLE))), 6) AS ccf
FROM s
WHERE na >= 2 AND na*sxx - sx*sx > 0 AND na*syy - sy*sy > 0
"""

ORACLES3["profile_events"] = """
SELECT COUNT(*) AS n_rows,
       COUNT(*) - COUNT(value) AS n_null_value,
       CAST(ROUND(MIN(value) * 100) AS BIGINT) AS min_value_c,
       CAST(ROUND(MAX(value) * 100) AS BIGINT) AS max_value_c,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_value_c,
       CAST(epoch_us(MIN(ts)) AS BIGINT) AS min_ts_us,
       CAST(epoch_us(MAX(ts)) AS BIGINT) AS max_ts_us
FROM events
"""


# ---------------------------------------------------------------------------
# Composed corpus filter (the webtext flagship: dedup + lang + quality +
# repetition -> keep/drop with reasons)
# ---------------------------------------------------------------------------


def q_corpus_filter(sf_dir: str, quality_min: float = 0.35,
                    top2_max: float = 0.06, allowed_langs: tuple = ("en",)):
    """End-to-end training-corpus filter: every document gets a keep/drop
    decision with the FIRST failing reason, in the priority order every
    production corpus pipeline uses — duplicate (md5 content fingerprint,
    keep min doc_id) -> language (heuristic id != en) -> quality
    (composite score < 0.35) -> repetition (top-2-gram fraction > 0.06)
    -> ok.

    Composition of already-verified components (QualityScorer,
    LanguageId, repetition_row, md5 fingerprints) in ONE fused actor-pool
    pass per document, then a single bucketed exchange on the fingerprint
    to resolve duplicates. The oracle is assembled from the SAME
    component SQL strings in the registry (build_oracle_sql), so the
    composition — not just the parts — is hash-verified. Thresholds
    compare the identical 6-rounded doubles on both sides."""
    from ..common.raytools import bucketed_map_groups
    from ..stages.text import LanguageId, QualityScorer, fingerprint_batch

    allowed = set(allowed_langs)

    class Featurize:
        def __init__(self):
            self.quality = QualityScorer()
            self.lang = LanguageId()

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            qdf = self.quality(batch)
            text = batch["text"].fillna("")
            t2 = np.zeros(len(batch))
            for i, t in enumerate(text):
                row = repetition_row(t)
                if row is not None:
                    t2[i] = row[1]
            return pd.DataFrame(
                {
                    "doc_id": batch["doc_id"].astype(np.int64).to_numpy(),
                    "fingerprint": fingerprint_batch(batch)["fingerprint"].to_numpy(),
                    "pred_lang": text.map(self.lang._predict).to_numpy(),
                    "quality_score": np.round(
                        qdf["quality_score"].to_numpy(np.float64), 6
                    ),
                    "top2_frac": _r6away(t2),
                }
            )

    def decide(df: pd.DataFrame) -> pd.DataFrame:
        rep_id = int(df["doc_id"].min())
        reasons = []
        for r in df.itertuples(index=False):
            if int(r.doc_id) != rep_id:
                reasons.append("duplicate")
            elif r.pred_lang not in allowed:
                reasons.append("language")
            elif r.quality_score < quality_min:
                reasons.append("quality")
            elif r.top2_frac > top2_max:
                reasons.append("repetition")
            else:
                reasons.append("ok")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype(np.int64).to_numpy(),
                "reason": reasons,
                "keep": np.asarray(
                    [1 if x == "ok" else 0 for x in reasons], dtype=np.int64
                ),
            }
        )

    from ..stages.text import pool_size

    feats = _documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        Featurize,
        batch_format="pandas",
        concurrency=pool_size(4),
        num_cpus=1,
    )
    return bucketed_map_groups(feats, ["fingerprint"], decide).select_columns(
        ["doc_id", "reason", "keep"]
    )


QUERIES3["corpus_filter"] = q_corpus_filter

# the corpus_filter oracle is COMPOSED from the component SQL at registry
# build time (see queries.build_oracle_sql) so both sides share one source
# of truth for each component's semantics
CORPUS_FILTER_SQL_TEMPLATE = """
WITH q AS (SELECT doc_id, quality_score FROM ({quality})),
l AS (SELECT doc_id, pred_lang FROM ({language})),
r AS (SELECT doc_id, top2_frac FROM ({repetition})),
f AS (SELECT doc_id, {md5signed} AS fp FROM documents),
d AS (SELECT doc_id, MIN(doc_id) OVER (PARTITION BY fp) AS rep_id FROM f)
SELECT q.doc_id,
       CASE WHEN d.doc_id <> d.rep_id THEN 'duplicate'
            WHEN l.pred_lang <> 'en' THEN 'language'
            WHEN q.quality_score < 0.35 THEN 'quality'
            WHEN COALESCE(r.top2_frac, 0) > 0.06 THEN 'repetition'
            ELSE 'ok' END AS reason,
       CAST(CASE WHEN d.doc_id = d.rep_id AND l.pred_lang = 'en'
                 AND q.quality_score >= 0.35
                 AND COALESCE(r.top2_frac, 0) <= 0.06
            THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM q
JOIN l USING (doc_id)
JOIN d USING (doc_id)
LEFT JOIN r USING (doc_id)
"""
