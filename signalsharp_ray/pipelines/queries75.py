"""Round-3 batch 77: cross-field dependence operators — the
correlation between the JSON props field k and the event value (does
the payload predict the metric), a one-way ANOVA of document length
across languages, and the lag-1/lag-7 autocorrelation of the dense
daily count series per event_type (weekly memory next to the hourly
ACF).

House parity: k and centivalues are exact integers (the
json_field_rollup regex + the _cents unit); ANOVA group sums are exact
integers with HUGEINT-safe squares; the daily ACF reuses
kernels/seasonal.acf_exact's integer expansion verbatim. Floats are
transcribed op-for-op with ascending-key folds.

Scale contracts: all three pre-reduce inside one exchange / one
bucketed_map_groups kernel call with bounded outputs.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from ..kernels.seasonal import acf_exact, dense_counts
from .queries2 import _documents, _events, _r6away, event_tier
from .queries3 import _bucket_us
from .queries14 import _fold

QUERIES75: dict = {}
ORACLES75: dict = {}

DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# props.k vs value correlation per event_type
# ---------------------------------------------------------------------------


def q_props_value_corr(sf_dir: str):
    """Pearson correlation per event_type between the JSON props field
    k and the event value in exact centivalues; rows with missing k
    drop on both sides. HUGEINT-safe normal-equation terms."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        k = (
            batch["props"]
            .str.extract(r'"k"\s*:\s*(-?\d+)', expand=False)
            .astype("float64")
        )
        v = batch["value"].to_numpy(np.float64)
        cv = (np.sign(v * 100) * np.floor(np.abs(v * 100) + 0.5)).astype(
            np.int64
        )
        df = pd.DataFrame(
            {"event_type": batch["event_type"], "k": k, "c": cv}
        ).dropna(subset=["k"])
        kk = df["k"].astype(np.int64)
        cc = df["c"].astype(np.int64)
        flat = pd.DataFrame(
            {
                "event_type": df["event_type"],
                "n": np.ones(len(df), dtype=np.int64),
                "sk": kk,
                "sc": cc,
                "skk": kk * kk,
                "scc": cc * cc,
                "skc": kk * cc,
            }
        )
        return (
            flat.groupby("event_type", sort=False).sum().reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            _events(sf_dir, ["event_type", "props", "value"]).map_batches(
                partial, batch_format="pandas"
            ),
            ["event_type"],
            [("n", "sum"), ("sk", "sum"), ("sc", "sum"),
             ("skk", "sum"), ("scc", "sum"), ("skc", "sum")],
        )
        .to_pandas()
        .sort_values("event_type")
    )
    rows = []
    for _, r in agg.iterrows():
        n = int(r["n_sum"])
        if n < 2:
            continue
        sk, sc = int(r["sk_sum"]), int(r["sc_sum"])
        skk, scc, skc = int(r["skk_sum"]), int(r["scc_sum"]), int(r["skc_sum"])
        dk = float(n * skk - sk * sk)
        dc = float(n * scc - sc * sc)
        if dk <= 0.0 or dc <= 0.0:
            continue
        rr = float(n * skc - sk * sc) / (math.sqrt(dk) * math.sqrt(dc))
        rows.append((r["event_type"], n, float(_r6away(rr))))
    return pd.DataFrame(
        rows, columns=["event_type", "n_events", "r"]
    ).astype({"n_events": np.int64})


ORACLES75["props_value_corr"] = """
WITH b AS (
  SELECT event_type,
         CAST(regexp_extract(props, '"k"\\s*:\\s*(-?\\d+)', 1) AS BIGINT) AS k,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
  WHERE regexp_extract(props, '"k"\\s*:\\s*(-?\\d+)', 1) != ''
),
s AS (
  SELECT event_type, COUNT(*) AS n,
         CAST(SUM(k) AS BIGINT) AS sk, CAST(SUM(c) AS BIGINT) AS sc,
         CAST(SUM(k*k) AS BIGINT) AS skk,
         CAST(SUM(CAST(c AS HUGEINT)*c) AS HUGEINT) AS scc,
         CAST(SUM(CAST(k AS HUGEINT)*c) AS HUGEINT) AS skc
  FROM b GROUP BY 1
)
SELECT event_type, CAST(n AS BIGINT) AS n_events,
       ROUND(CAST(CAST(n AS HUGEINT) * skc
                  - CAST(sk AS HUGEINT) * sc AS DOUBLE)
             / (sqrt(CAST(CAST(n AS HUGEINT) * skk
                          - CAST(sk AS HUGEINT) * sk AS DOUBLE))
                * sqrt(CAST(CAST(n AS HUGEINT) * scc
                            - CAST(sc AS HUGEINT) * sc AS DOUBLE))), 6) AS r
FROM s
WHERE n >= 2
  AND CAST(n AS HUGEINT) * skk - CAST(sk AS HUGEINT) * sk > 0
  AND CAST(n AS HUGEINT) * scc - CAST(sc AS HUGEINT) * sc > 0
"""


# ---------------------------------------------------------------------------
# Language x document-length ANOVA
# ---------------------------------------------------------------------------


def q_lang_doclen_anova(sf_dir: str):
    """One global row: one-way ANOVA F of document character length
    across languages — does language explain length variance. Exact
    integer length sums; HUGEINT-safe squares; folds ascend lang."""
    docs = _documents(sf_dir, ["lang", "n_chars"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        L = batch["n_chars"].astype(np.int64)
        df = pd.DataFrame(
            {
                "lang": batch["lang"],
                "n": np.ones(len(batch), dtype=np.int64),
                "s": L,
                "ss": L * L,
            }
        )
        return df.groupby("lang", sort=False).sum().reset_index()

    agg = (
        hash_bucket_aggregate(
            docs.map_batches(partial, batch_format="pandas"),
            ["lang"],
            [("n", "sum"), ("s", "sum"), ("ss", "sum")],
        )
        .to_pandas()
        .sort_values("lang")
    )
    out_empty = pd.DataFrame(
        {"n_docs": pd.Series(dtype=np.int64),
         "n_langs": pd.Series(dtype=np.int64),
         "f_stat": pd.Series(dtype=np.float64)}
    )
    k = len(agg)
    n = int(agg["n_sum"].sum())
    if k < 2 or n <= k:
        return out_empty
    S = int(agg["s_sum"].sum())
    SS = int(agg["ss_sum"].sum())
    corr = float(S) * float(S) / float(n)
    ssb = _fold(
        [
            float(int(r["s_sum"])) * float(int(r["s_sum"]))
            / float(int(r["n_sum"]))
            for _, r in agg.iterrows()
        ]
    ) - corr
    ssw = (float(SS) - corr) - ssb
    if ssw <= 0.0:
        return out_empty
    f = (ssb / float(k - 1)) / (ssw / float(n - k))
    return pd.DataFrame(
        {
            "n_docs": np.array([n], dtype=np.int64),
            "n_langs": np.array([k], dtype=np.int64),
            "f_stat": [float(_r6away(f))],
        }
    )


ORACLES75["lang_doclen_anova"] = """
WITH g AS (
  SELECT lang, COUNT(*) AS nh, CAST(SUM(n_chars) AS BIGINT) AS sh,
         CAST(SUM(CAST(n_chars AS HUGEINT) * n_chars) AS HUGEINT) AS ssh
  FROM documents GROUP BY 1
),
tot AS (
  SELECT SUM(nh) AS n, CAST(SUM(sh) AS BIGINT) AS s,
         CAST(SUM(ssh) AS HUGEINT) AS ss, COUNT(*) AS k
  FROM g
),
a AS (
  SELECT tot.n, tot.k, tot.s, tot.ss,
         (SELECT list_sum(list(CAST(sh AS DOUBLE) * CAST(sh AS DOUBLE)
                               / CAST(nh AS DOUBLE) ORDER BY lang))
          FROM g) AS fold
  FROM tot
),
f AS (
  SELECT n, k,
         fold - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
           AS ssb,
         (CAST(ss AS DOUBLE)
          - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
         - (fold - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
           AS ssw
  FROM a WHERE k >= 2 AND n > k
)
SELECT CAST(n AS BIGINT) AS n_docs, CAST(k AS BIGINT) AS n_langs,
       ROUND((ssb / CAST(k - 1 AS DOUBLE)) / (ssw / CAST(n - k AS DOUBLE)), 6)
         AS f_stat
FROM f WHERE ssw > 0
"""


# ---------------------------------------------------------------------------
# Daily lag-1 / lag-7 autocorrelation
# ---------------------------------------------------------------------------


def q_daily_acf7(sf_dir: str):
    """Lag-1 and lag-7 autocorrelations of each event_type's dense
    daily count series — day-to-day persistence vs weekly seasonality
    on the daily tier (acf_exact's integer expansion on the DAY
    grid)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), DAY_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_days": pd.Series(dtype=np.int64),
             "r1": pd.Series(dtype=np.float64),
             "r7": pd.Series(dtype=np.float64)}
        )
        if n <= 7:
            return empty
        S = int(x.sum())
        SS = int((x * x).sum())
        m = float(S) / n
        den = float(SS) - m * float(S)
        if den == 0.0:
            return empty
        _, r = acf_exact(x, 7)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_days": np.array([n], dtype=np.int64),
                "r1": [float(_r6away(float(r[0])))],
                "r7": [float(_r6away(float(r[6])))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


ORACLES75["daily_acf7"] = """
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
s AS (SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(x*x) AS sxx
      FROM d GROUP BY 1 HAVING COUNT(*) > 7),
ks AS (SELECT UNNEST([1, 7]) AS k),
pq AS (
  SELECT a.event_type, ks.k,
         SUM(a.x * b.x) AS p, SUM(a.x + b.x) AS q
  FROM d a
  CROSS JOIN ks
  JOIN d b ON b.event_type = a.event_type AND b.idx = a.idx + ks.k
  GROUP BY 1, 2
),
r AS (
  SELECT s.event_type, s.n, pq.k,
         (CAST(p AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(q AS DOUBLE)
          + (n - pq.k) * (CAST(sx AS DOUBLE)/n) * (CAST(sx AS DOUBLE)/n))
         / (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE))
           AS rk
  FROM pq JOIN s USING (event_type)
  WHERE (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE))
        != 0
)
SELECT event_type, CAST(MAX(n) AS BIGINT) AS n_days,
       ROUND(MAX(CASE WHEN k = 1 THEN rk END), 6) AS r1,
       ROUND(MAX(CASE WHEN k = 7 THEN rk END), 6) AS r7
FROM r GROUP BY 1
"""


QUERIES75["props_value_corr"] = q_props_value_corr
QUERIES75["lang_doclen_anova"] = q_lang_doclen_anova
QUERIES75["daily_acf7"] = q_daily_acf7
