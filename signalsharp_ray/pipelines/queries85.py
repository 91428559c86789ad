"""Round-3 batch 87: drift, independence, and intra-document
redundancy operators — the customer order-gap drift (mean inter-order
gap in the window's first half vs second half: is purchase cadence
accelerating), the chi-square independence of order value bands and
priorities, and the within-document duplicate-sentence rate per source
(template-heavy text detection at sentence granularity).

House parity: inter-order gaps are exact integer microseconds split by
the exact midpoint of the order-date span; chi2 margins are exact
integers with the standard transcribed fold; sentence sets use the
batch-70 splitter and reduce to exact distinct/total counts, with the
per-source mean folding doc_id-ascending rational rates.

Scale contracts: gaps reduce per customer inside bucketed_map_groups after one
exchange; chi2 and the sentence rate are bounded partial+final
aggregates.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _documents, _r6away
from .queries14 import _fold
from .queries16 import _read, _TOKEN_RE

QUERIES85: dict = {}
ORACLES85: dict = {}

_SENT_RE = re.compile(r"[.!?]+")


# ---------------------------------------------------------------------------
# Order-gap drift between window halves
# ---------------------------------------------------------------------------


def q_order_gap_drift(sf_dir: str):
    """One global row: mean inter-order gap (days, per customer,
    consecutive orders by (o_orderdate, o_orderkey)) among gaps whose
    LATER order falls in the first vs second half of the order-date
    span, and the second/first ratio (< 1 = cadence speeding up).
    The midpoint is (min_us + max_us) // 2 — exact integers."""
    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderkey", "o_orderdate"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["o_custkey"].astype(np.int64),
                "orderkey": b["o_orderkey"].astype(np.int64),
                "us": b["o_orderdate"].astype("datetime64[us]").astype("int64"),
            }
        ),
        batch_format="pandas",
    )
    bounds = orders.map_batches(
        lambda b: pd.DataFrame(
            {
                "lo": [int(b["us"].min())],
                "hi": [int(b["us"].max())],
            }
        ),
        batch_format="pandas",
    ).to_pandas()
    out_empty = pd.DataFrame(
        {"n_gaps_h1": pd.Series(dtype=np.int64),
         "n_gaps_h2": pd.Series(dtype=np.int64),
         "mean_days_h1": pd.Series(dtype=np.float64),
         "mean_days_h2": pd.Series(dtype=np.float64),
         "ratio": pd.Series(dtype=np.float64)}
    )
    if bounds.empty:
        return out_empty
    mid = (int(bounds["lo"].min()) + int(bounds["hi"].max())) // 2

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["us", "orderkey"], kind="mergesort")
        us = d["us"].to_numpy(np.int64)
        if len(us) < 2:
            return pd.DataFrame(
                {"half": pd.Series(dtype=np.int64),
                 "n": pd.Series(dtype=np.int64),
                 "s": pd.Series(dtype=np.int64)}
            )
        g = us[1:] - us[:-1]
        half = (us[1:] > mid).astype(np.int64)
        return (
            pd.DataFrame({"half": half, "n": np.ones(len(g), dtype=np.int64),
                          "s": g})
            .groupby("half", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        bucketed_map_groups(orders, ["custkey"], gaps)
        .to_pandas()
        .groupby("half")
        .sum()
    )
    if 0 not in agg.index or 1 not in agg.index:
        return out_empty
    n1, s1 = int(agg.loc[0, "n"]), int(agg.loc[0, "s"])
    n2, s2 = int(agg.loc[1, "n"]), int(agg.loc[1, "s"])
    if n1 == 0 or n2 == 0 or s1 == 0:
        return out_empty
    m1 = float(s1) / float(n1) / 86400000000.0
    m2 = float(s2) / float(n2) / 86400000000.0
    return pd.DataFrame(
        {
            "n_gaps_h1": np.array([n1], dtype=np.int64),
            "n_gaps_h2": np.array([n2], dtype=np.int64),
            "mean_days_h1": [float(_r6away(m1))],
            "mean_days_h2": [float(_r6away(m2))],
            "ratio": [float(_r6away(m2 / m1))],
        }
    )


ORACLES85["order_gap_drift"] = """
WITH b AS (
  SELECT o_custkey AS custkey, o_orderkey AS orderkey,
         epoch_us(o_orderdate) AS us
  FROM orders
),
mid AS (SELECT (MIN(us) + MAX(us)) // 2 AS mid FROM b),
seq AS (
  SELECT custkey, us,
         lag(us) OVER (PARTITION BY custkey ORDER BY us, orderkey) AS prev
  FROM b
),
g AS (
  SELECT CASE WHEN seq.us > mid.mid THEN 1 ELSE 0 END AS half,
         seq.us - seq.prev AS gap
  FROM seq, mid WHERE seq.prev IS NOT NULL
),
a AS (
  SELECT COUNT(*) FILTER (WHERE half = 0) AS n1,
         COUNT(*) FILTER (WHERE half = 1) AS n2,
         COALESCE(SUM(gap) FILTER (WHERE half = 0), 0) AS s1,
         COALESCE(SUM(gap) FILTER (WHERE half = 1), 0) AS s2
  FROM g
)
SELECT CAST(n1 AS BIGINT) AS n_gaps_h1, CAST(n2 AS BIGINT) AS n_gaps_h2,
       ROUND(CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE) / 86400000000.0, 6)
         AS mean_days_h1,
       ROUND(CAST(s2 AS DOUBLE) / CAST(n2 AS DOUBLE) / 86400000000.0, 6)
         AS mean_days_h2,
       ROUND((CAST(s2 AS DOUBLE) / CAST(n2 AS DOUBLE) / 86400000000.0)
             / (CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE) / 86400000000.0), 6)
         AS ratio
FROM a WHERE n1 > 0 AND n2 > 0 AND s1 > 0
"""


# ---------------------------------------------------------------------------
# Order value-band x priority chi-square
# ---------------------------------------------------------------------------


def q_value_priority_chi2(sf_dir: str):
    """One global row: chi-square independence of (order value band
    floor(cents/1000000), o_orderpriority) — does spend size drive
    urgency. Exact margins; fold ascends (band, priority)."""
    orders = _read(sf_dir, "orders", ["o_totalprice", "o_orderpriority"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["o_totalprice"].to_numpy(np.float64) * 100
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "band": cents // 1000000,
                    "priority": batch["o_orderpriority"],
                    "n": np.ones(len(batch), dtype=np.int64),
                }
            )
            .groupby(["band", "priority"], sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            orders.map_batches(partial, batch_format="pandas"),
            ["band", "priority"],
            [("n", "sum")],
        )
        .to_pandas()
        .sort_values(["band", "priority"])
    )
    out_empty = pd.DataFrame(
        {"n_orders": pd.Series(dtype=np.int64),
         "dof": pd.Series(dtype=np.int64),
         "chi2": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    total = int(agg["n_sum"].sum())
    row = agg.groupby("band")["n_sum"].transform("sum").astype(np.int64)
    col_map = agg.groupby("priority")["n_sum"].sum().astype(np.int64)
    col = agg["priority"].map(col_map).astype(np.int64)
    tf = float(total)
    terms = []
    for o, rx, cy in zip(agg["n_sum"], row, col):
        e = float(int(rx)) * float(int(cy)) / tf
        terms.append((float(int(o)) - e) * (float(int(o)) - e) / e)
    chi2 = _fold(terms)
    nr = int(agg["band"].nunique())
    nc = int(agg["priority"].nunique())
    return pd.DataFrame(
        {
            "n_orders": np.array([total], dtype=np.int64),
            "dof": np.array([(nr - 1) * (nc - 1)], dtype=np.int64),
            "chi2": [float(_r6away(chi2))],
        }
    )


ORACLES85["value_priority_chi2"] = """
WITH c AS (
  SELECT CAST(ROUND(o_totalprice * 100) AS BIGINT) // 1000000 AS band,
         o_orderpriority AS priority, COUNT(*) AS n
  FROM orders GROUP BY 1, 2
),
w AS (
  SELECT band, priority, n,
         CAST(SUM(n) OVER (PARTITION BY band) AS BIGINT) AS r,
         CAST(SUM(n) OVER (PARTITION BY priority) AS BIGINT) AS cl,
         CAST(SUM(n) OVER () AS BIGINT) AS total
  FROM c
)
SELECT CAST(MAX(total) AS BIGINT) AS n_orders,
       CAST((COUNT(DISTINCT band) - 1) * (COUNT(DISTINCT priority) - 1)
            AS BIGINT) AS dof,
       ROUND(list_sum(list(
         (CAST(n AS DOUBLE)
          - CAST(r AS DOUBLE) * CAST(cl AS DOUBLE) / CAST(total AS DOUBLE))
         * (CAST(n AS DOUBLE)
            - CAST(r AS DOUBLE) * CAST(cl AS DOUBLE) / CAST(total AS DOUBLE))
         / (CAST(r AS DOUBLE) * CAST(cl AS DOUBLE) / CAST(total AS DOUBLE))
         ORDER BY band, priority)), 6) AS chi2
FROM w
"""


# ---------------------------------------------------------------------------
# Within-document duplicate-sentence rate per source
# ---------------------------------------------------------------------------


def q_sentence_dup_rate(sf_dir: str):
    """Per source: total sentences, duplicate sentences (total -
    distinct, within each document), and the mean per-document
    duplicate rate over docs with >= 1 sentence (doc_id-ascending
    fold)."""
    docs = _documents(sf_dir, ["doc_id", "source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, src, text in zip(
            batch["doc_id"], batch["source"], batch["text"]
        ):
            sents = []
            for seg in _SENT_RE.split((text or "").lower()):
                toks = _TOKEN_RE.findall(seg)
                if toks:
                    sents.append(" ".join(toks))
            if not sents:
                continue
            tot = len(sents)
            dup = tot - len(set(sents))
            rows.append((int(did), src, tot, dup))
        return pd.DataFrame(
            rows, columns=["doc_id", "source", "tot", "dup"]
        ).astype({"doc_id": np.int64, "tot": np.int64, "dup": np.int64})

    per_doc = (
        docs.map_batches(partial, batch_format="pandas")
        .to_pandas()
        .sort_values("doc_id")
    )
    out_empty = pd.DataFrame(
        {"source": pd.Series(dtype=object),
         "n_docs": pd.Series(dtype=np.int64),
         "n_sentences": pd.Series(dtype=np.int64),
         "n_duplicates": pd.Series(dtype=np.int64),
         "mean_dup_rate": pd.Series(dtype=np.float64)}
    )
    if per_doc.empty:
        return out_empty
    rows = []
    for src, g in per_doc.groupby("source", sort=True):
        rates = [
            float(int(d)) / float(int(t)) for t, d in zip(g["tot"], g["dup"])
        ]
        rows.append(
            (
                src,
                len(g),
                int(g["tot"].sum()),
                int(g["dup"].sum()),
                float(_r6away(_fold(rates) / float(len(g)))),
            )
        )
    return pd.DataFrame(
        rows,
        columns=["source", "n_docs", "n_sentences", "n_duplicates",
                 "mean_dup_rate"],
    ).astype({"n_docs": np.int64, "n_sentences": np.int64,
              "n_duplicates": np.int64})


ORACLES85["sentence_dup_rate"] = """
WITH segs AS (
  SELECT doc_id, source,
         UNNEST(regexp_split_to_array(lower(COALESCE(text, '')), '[.!?]+'))
           AS seg
  FROM documents
),
norm AS (
  SELECT doc_id, source,
         array_to_string(regexp_extract_all(seg, '[\\p{L}\\p{N}_]+'), ' ')
           AS sent
  FROM segs
  WHERE len(regexp_extract_all(seg, '[\\p{L}\\p{N}_]+')) > 0
),
pd2 AS (
  SELECT doc_id, source, COUNT(*) AS tot,
         COUNT(*) - COUNT(DISTINCT sent) AS dup
  FROM norm GROUP BY 1, 2
)
SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(tot) AS BIGINT) AS n_sentences,
       CAST(SUM(dup) AS BIGINT) AS n_duplicates,
       ROUND(list_sum(list(CAST(dup AS DOUBLE) / CAST(tot AS DOUBLE)
                           ORDER BY doc_id))
             / CAST(COUNT(*) AS DOUBLE), 6) AS mean_dup_rate
FROM pd2 GROUP BY 1
"""


QUERIES85["order_gap_drift"] = q_order_gap_drift
QUERIES85["value_priority_chi2"] = q_value_priority_chi2
QUERIES85["sentence_dup_rate"] = q_sentence_dup_rate
