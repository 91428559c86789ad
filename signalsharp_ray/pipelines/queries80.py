"""Round-3 batch 82: sketch-quality audits and an order-shape
histogram — the recall of the production banded-MinHash LSH against
EXACT word-3-shingle near-duplicates by Jaccard band (the false
negatives lsh_verify cannot see), the MinHash Jaccard-estimate error
over candidate pairs (|#matching-slots/4 - exact|), and the
lines-per-order histogram.

House parity: both audits compose ALREADY-VERIFIED machinery — the
PPJoin exact inverted index (jaccard_pairs), the md5-permutation
signatures/banding (lsh_candidates / lsh_verify) — joined on integer
pair keys; estimates are quarter-rationals; folds ascend (doc_a,
doc_b); the histogram is pure integer counting.

Scale contracts: the recall join buckets exact pairs against candidate
pairs on the pair key (both bounded by their thresholds); signature
attach is a co-partitioned join on doc id; only band-level aggregates
reach the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, hash_bucket_aggregate
from .queries2 import _documents, _r6h, minhash_sig_batch
from .queries5 import LSH_CANDIDATES_SQL, q_lsh_candidates, q_lsh_verify
from .queries14 import _fold
from .queries16 import _read

QUERIES80: dict = {}
ORACLES80: dict = {}

_LSH_PREFIX = LSH_CANDIDATES_SQL.rsplit("SELECT a.doc_id", 1)[0].strip()
# _LSH_PREFIX = "WITH t AS (...) ... bands AS (...)" — reuse mid-WITH
_LSH_PREFIX_BODY = _LSH_PREFIX[len("WITH"):].rstrip()


# ---------------------------------------------------------------------------
# LSH recall against exact word-shingle near-dups, by Jaccard band
# ---------------------------------------------------------------------------


def q_lsh_recall_by_jaccard(sf_dir: str, threshold: float = 0.5):
    """Per Jaccard band (floor(10*j), clamped to 9) of the EXACT
    word-3-shingle near-dup pairs at j >= 0.5: how many pairs the
    banded char-5-gram MinHash LSH also surfaced — the recall curve of
    the approximate pipeline against exact ground truth."""
    from ..stages.dedup import exact_jaccard_pairs

    ex = exact_jaccard_pairs(_documents(sf_dir), threshold=threshold)

    def band_rows(batch: pd.DataFrame) -> pd.DataFrame:
        jr = _r6h(batch["jaccard"].to_numpy(np.float64))
        band = np.minimum(np.floor(jr * 10.0), 9.0).astype(np.int64)
        return pd.DataFrame(
            {
                "doc_a": batch["doc_a"].astype(np.int64),
                "doc_b": batch["doc_b"].astype(np.int64),
                "band": band,
            }
        )

    exb = ex.map_batches(band_rows, batch_format="pandas")
    cand = q_lsh_candidates(sf_dir).map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_a": b["doc_a"].astype(np.int64),
                "doc_b": b["doc_b"].astype(np.int64),
                "caught": np.ones(len(b), dtype=np.int64),
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(exb, cand, on=["doc_a", "doc_b"], how="left")

    def agg_band(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0 or "band" not in batch.columns:
            return pd.DataFrame(
                {"band": pd.Series(dtype=np.int64),
                 "n_pairs": pd.Series(dtype=np.int64),
                 "n_caught": pd.Series(dtype=np.int64)}
            )
        c = batch["caught"].fillna(0).astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "band": batch["band"].astype(np.int64),
                    "n_pairs": np.ones(len(batch), dtype=np.int64),
                    "n_caught": c,
                }
            )
            .groupby("band", sort=False)
            .sum()
            .reset_index()
        )

    out = (
        hash_bucket_aggregate(
            joined.map_batches(agg_band, batch_format="pandas"),
            ["band"],
            [("n_pairs", "sum"), ("n_caught", "sum")],
        )
        .to_pandas()
        .sort_values("band")
    )
    return pd.DataFrame(
        {
            "band": out["band"].astype(np.int64),
            "n_pairs": out["n_pairs_sum"].astype(np.int64),
            "n_caught": out["n_caught_sum"].astype(np.int64),
            "recall": np.round(
                np.floor(
                    out["n_caught_sum"].to_numpy(np.float64)
                    / out["n_pairs_sum"].to_numpy(np.float64)
                    * 1e6
                    + 0.5
                )
                / 1e6,
                6,
            ),
        }
    ).reset_index(drop=True)


ORACLES80["lsh_recall_by_jaccard"] = "WITH " + _LSH_PREFIX_BODY + """,
cand AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bands a
  JOIN bands b ON a.band = b.band AND a.s_lo = b.s_lo AND a.s_hi = b.s_hi
              AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
jt AS (
  SELECT doc_id,
         regexp_extract_all(lower(COALESCE(text, '')),
                            '[\\p{L}\\p{N}_]+') AS toks
  FROM documents
),
jsh AS (
  SELECT doc_id,
         CASE WHEN len(toks) = 0 THEN []
              WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
              ELSE list_transform(range(len(toks) - 2),
                                  i -> toks[i+1] || ' ' || toks[i+2] || ' '
                                       || toks[i+3])
         END AS sh2
  FROM jt
),
jd AS (SELECT doc_id, list_distinct(sh2) AS sh2 FROM jsh WHERE len(sh2) > 0),
jsz AS (SELECT doc_id, len(sh2) AS n FROM jd),
jex AS (SELECT doc_id, UNNEST(sh2) AS g FROM jd),
jinter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
  FROM jex a JOIN jex b ON a.g = b.g AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
jp AS (
  SELECT i.doc_a, i.doc_b,
         ROUND(i.i / (sa.n + sb.n - i.i)::DOUBLE, 6) AS j
  FROM jinter i
  JOIN jsz sa ON i.doc_a = sa.doc_id
  JOIN jsz sb ON i.doc_b = sb.doc_id
  WHERE ROUND(i.i / (sa.n + sb.n - i.i)::DOUBLE, 6) >= 0.5
),
lab AS (
  SELECT LEAST(CAST(FLOOR(jp.j * 10.0) AS BIGINT), 9) AS band,
         CASE WHEN c.doc_a IS NOT NULL THEN 1 ELSE 0 END AS caught
  FROM jp LEFT JOIN cand c
    ON c.doc_a = jp.doc_a AND c.doc_b = jp.doc_b
)
SELECT CAST(band AS BIGINT) AS band,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       CAST(SUM(caught) AS BIGINT) AS n_caught,
       ROUND(FLOOR(CAST(SUM(caught) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE)
                   * 1000000.0 + 0.5) / 1000000.0, 6) AS recall
FROM lab GROUP BY 1
"""


# ---------------------------------------------------------------------------
# MinHash Jaccard-estimate error over candidate pairs
# ---------------------------------------------------------------------------


def q_minhash_estimate_error(sf_dir: str):
    """One global row over the LSH candidate pairs: the mean MinHash
    Jaccard estimate (#matching signature slots / 4), the mean exact
    char-5-gram Jaccard (lsh_verify's space), and the mean absolute
    estimation error. Folds ascend (doc_a, doc_b)."""
    verified = q_lsh_verify(sf_dir)  # doc_a, doc_b, jaccard (rounded)
    sigs = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        minhash_sig_batch, batch_format="pandas"
    )

    def widen(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch.pivot(index="doc_id", columns="perm", values="sig")
        return pd.DataFrame(
            {
                "doc_id": w.index.to_numpy(np.int64),
                "s0": w[0].to_numpy(np.int64),
                "s1": w[1].to_numpy(np.int64),
                "s2": w[2].to_numpy(np.int64),
                "s3": w[3].to_numpy(np.int64),
            }
        )

    wide = sigs.map_batches(widen, batch_format="pandas")
    a_keyed = verified.map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["doc_a"].astype(np.int64),
                "doc_a": b["doc_a"].astype(np.int64),
                "doc_b": b["doc_b"].astype(np.int64),
                "jaccard": b["jaccard"].astype(np.float64),
            }
        ),
        batch_format="pandas",
    )
    with_a = bucketed_join(a_keyed, wide, on=["doc_id"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["doc_b"].astype(np.int64),
                "doc_a": b["doc_a"].astype(np.int64),
                "doc_b": b["doc_b"].astype(np.int64),
                "jaccard": b["jaccard"].astype(np.float64),
                "a0": b["s0"].astype(np.int64),
                "a1": b["s1"].astype(np.int64),
                "a2": b["s2"].astype(np.int64),
                "a3": b["s3"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    both = bucketed_join(with_a, wide, on=["doc_id"]).to_pandas()
    out_empty = pd.DataFrame(
        {"n_pairs": pd.Series(dtype=np.int64),
         "mean_est": pd.Series(dtype=np.float64),
         "mean_exact": pd.Series(dtype=np.float64),
         "mae": pd.Series(dtype=np.float64)}
    )
    if both.empty:
        return out_empty
    both = both.sort_values(["doc_a", "doc_b"])
    ests, exacts, errs = [], [], []
    for _, r in both.iterrows():
        match = sum(
            1 for i in range(4) if int(r[f"a{i}"]) == int(r[f"s{i}"])
        )
        est = float(match) / 4.0
        j = float(r["jaccard"])
        ests.append(est)
        exacts.append(j)
        errs.append(abs(est - j))
    n = len(ests)
    from .queries2 import _r6away

    return pd.DataFrame(
        {
            "n_pairs": np.array([n], dtype=np.int64),
            "mean_est": [float(_r6away(_fold(ests) / float(n)))],
            "mean_exact": [float(_r6away(_fold(exacts) / float(n)))],
            "mae": [float(_r6away(_fold(errs) / float(n)))],
        }
    )


ORACLES80["minhash_estimate_error"] = "WITH " + _LSH_PREFIX_BODY + """,
cand AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bands a
  JOIN bands b ON a.band = b.band AND a.s_lo = b.s_lo AND a.s_hi = b.s_hi
              AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
inter AS (
  SELECT c.doc_a, c.doc_b, COUNT(*) AS n_inter
  FROM cand c
  JOIN sh sa ON sa.doc_id = c.doc_a
  JOIN sh sb ON sb.doc_id = c.doc_b AND sb.g5 = sa.g5
  GROUP BY 1, 2
),
sizes AS (SELECT doc_id, COUNT(*) AS n_sh FROM sh GROUP BY 1),
scored AS (
  SELECT c.doc_a, c.doc_b,
         (CASE WHEN wa.s0 = wb.s0 THEN 1 ELSE 0 END
          + CASE WHEN wa.s1 = wb.s1 THEN 1 ELSE 0 END
          + CASE WHEN wa.s2 = wb.s2 THEN 1 ELSE 0 END
          + CASE WHEN wa.s3 = wb.s3 THEN 1 ELSE 0 END) / 4.0 AS est,
         ROUND(CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
               / CAST(za.n_sh + zb.n_sh - COALESCE(i.n_inter, 0) AS DOUBLE),
               6) AS j
  FROM cand c
  LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
  JOIN sizes za ON za.doc_id = c.doc_a
  JOIN sizes zb ON zb.doc_id = c.doc_b
  JOIN wide wa ON wa.doc_id = c.doc_a
  JOIN wide wb ON wb.doc_id = c.doc_b
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_pairs,
       ROUND(list_sum(list(est ORDER BY doc_a, doc_b))
             / CAST(COUNT(*) AS DOUBLE), 6) AS mean_est,
       ROUND(list_sum(list(j ORDER BY doc_a, doc_b))
             / CAST(COUNT(*) AS DOUBLE), 6) AS mean_exact,
       ROUND(list_sum(list(abs(est - j) ORDER BY doc_a, doc_b))
             / CAST(COUNT(*) AS DOUBLE), 6) AS mae
FROM scored
"""


# ---------------------------------------------------------------------------
# Lines-per-order histogram
# ---------------------------------------------------------------------------


def q_order_linecount_histogram(sf_dir: str):
    """How many orders have exactly k lineitems — the order-shape
    distribution. Exact integers through two exchanges."""
    li = _read(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "l_orderkey": b["l_orderkey"].astype(np.int64),
                "n": np.ones(len(b), dtype=np.int64),
            }
        )
        .groupby("l_orderkey", sort=False)
        .sum()
        .reset_index(),
        batch_format="pandas",
    )
    per_order = hash_bucket_aggregate(li, ["l_orderkey"], [("n", "sum")])
    hist = (
        hash_bucket_aggregate(
            per_order.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "k": b["n_sum"].astype(np.int64),
                        "c": np.ones(len(b), dtype=np.int64),
                    }
                )
                .groupby("k", sort=False)
                .sum()
                .reset_index(),
                batch_format="pandas",
            ),
            ["k"],
            [("c", "sum")],
        )
        .to_pandas()
        .sort_values("k")
    )
    return pd.DataFrame(
        {
            "lines_per_order": hist["k"].astype(np.int64),
            "n_orders": hist["c_sum"].astype(np.int64),
        }
    ).reset_index(drop=True)


ORACLES80["order_linecount_histogram"] = """
WITH po AS (SELECT l_orderkey, COUNT(*) AS k FROM lineitem GROUP BY 1)
SELECT CAST(k AS BIGINT) AS lines_per_order,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM po GROUP BY 1
"""


QUERIES80["lsh_recall_by_jaccard"] = q_lsh_recall_by_jaccard
QUERIES80["minhash_estimate_error"] = q_minhash_estimate_error
QUERIES80["order_linecount_histogram"] = q_order_linecount_histogram
