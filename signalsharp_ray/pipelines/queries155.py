"""Round-5 batch 155: training-data assembly operators — context-window
sequence packing, truncation loss accounting, and Kneser-Ney smoothed
bigram probabilities.

These are the steps between a filtered/deduplicated corpus and an
actual LM training run: pack documents into fixed-size context windows
(next-fit, the streaming-friendly packing rule), account for how many
tokens a per-document truncation policy would discard, and estimate
smoothed n-gram statistics (Kneser & Ney 1995, the absolute-discounting
interpolated form — the standard baseline LM smoother).

House parity strategy: packing state (bin fill, bin count) is all
integers — exact on any engine; truncation sums are exact int64;
Kneser-Ney works off exact bigram/continuation counts with one shared
float expression at the end, transcribed op-for-op into the oracle.

Scale contracts: token counting is a vectorized per-batch kernel;
bigram counting exchanges gram-keyed integer rows (the proven
top_bigrams pattern); the bigram type table flows through a scratch
parquet handoff (raytools.parquet_handoff) so its three consumers
(left-context stats, right-continuation stats, top-k) never pin it in
the object store; packing is inherently sequential per source, so it
runs as a per-source bucketed_map_groups over the (doc_id, n_tokens) pairs —
at real scale the unit would be (source, shard), same code shape.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _documents, _r6, _r6away

QUERIES155: dict = {}
ORACLES155: dict = {}

_PACK_CAP = 512
_TRUNC_LIMITS = (128, 512, 2048)
_KN_D = 0.75
_KN_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def _doc_tokens(sf_dir: str):
    """(doc_id, source, n_tok) — whitespace token counts, vectorized."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "source": batch["source"],
                "n_tok": text.str.split().str.len().fillna(0).astype(np.int64),
            }
        )

    return _documents(sf_dir, ["doc_id", "source", "text"]).map_batches(
        fn, batch_format="pandas"
    )


def q_sequence_packing(sf_dir: str, cap: int = _PACK_CAP):
    """Per source: next-fit packing of documents (doc_id order, token
    counts capped at the 512-token window) into 512-token context
    windows — open a new bin whenever the next document does not fit.
    Output: (source, n_docs, total_tokens, n_bins, fill_ratio) where
    fill_ratio = total_tokens / (n_bins * 512). All packing state is
    integer, so the recursive-CTE oracle replays it exactly."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("doc_id")
        toks = np.minimum(df["n_tok"].to_numpy(np.int64), cap)
        fill = 0
        bins = 0
        for t in toks:
            if bins == 0 or fill + int(t) > cap:
                bins += 1
                fill = int(t)
            else:
                fill += int(t)
        total = int(toks.sum())
        return pd.DataFrame(
            {
                "source": [df["source"].iloc[0]],
                "n_docs": np.array([len(toks)], dtype=np.int64),
                "total_tokens": np.array([total], dtype=np.int64),
                "n_bins": np.array([bins], dtype=np.int64),
                # total/(bins*512) can land on an EXACT dyadic 6-decimal
                # midpoint (512 is a power of two) — round half-away like
                # SQL ROUND, not numpy's half-even
                "fill_ratio": _r6away(
                    np.array([float(total) / float(bins * cap)])
                ),
            }
        )

    return bucketed_map_groups(_doc_tokens(sf_dir), ["source"], fn)


QUERIES155["sequence_packing"] = q_sequence_packing
ORACLES155["sequence_packing"] = """
WITH RECURSIVE d AS MATERIALIZED (
  SELECT source,
         LEAST(len(list_filter(regexp_split_to_array(text, '\\s+'),
                               x -> x <> '')), 512) AS t,
         row_number() OVER (PARTITION BY source ORDER BY doc_id) - 1 AS idx
  FROM documents
),
p AS (
  SELECT source, idx, t AS fill, 1 AS bins FROM d WHERE idx = 0
  UNION ALL
  SELECT d.source, d.idx,
         CASE WHEN p.fill + d.t > 512 THEN d.t ELSE p.fill + d.t END,
         CASE WHEN p.fill + d.t > 512 THEN p.bins + 1 ELSE p.bins END
  FROM p JOIN d ON d.source = p.source AND d.idx = p.idx + 1
),
agg AS (
  SELECT source, COUNT(*) AS n_docs, SUM(t) AS total FROM d GROUP BY 1
),
last AS (
  SELECT p.source, p.bins
  FROM p JOIN (SELECT source, MAX(idx) mx FROM d GROUP BY 1) n
    ON p.source = n.source AND p.idx = n.mx
)
SELECT agg.source,
       CAST(agg.n_docs AS BIGINT) AS n_docs,
       CAST(agg.total AS BIGINT) AS total_tokens,
       CAST(last.bins AS BIGINT) AS n_bins,
       ROUND(CAST(agg.total AS DOUBLE) / CAST(last.bins * 512 AS DOUBLE), 6)
         AS fill_ratio
FROM agg JOIN last USING (source)
"""


def q_truncation_loss(sf_dir: str):
    """Per source x max-length limit (128/512/2048 whitespace tokens):
    how many tokens a truncate-at-L policy keeps and the fraction it
    discards — the standard context-length ablation table. Exact int64
    sums cross the exchange; one shared float division at the end."""
    from ..common.raytools import hash_bucket_aggregate

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"].fillna("")
        n = text.str.split().str.len().fillna(0).to_numpy(np.int64)
        out = {"source": batch["source"], "total": n}
        for lim in _TRUNC_LIMITS:
            out[f"kept_{lim}"] = np.minimum(n, lim)
        return pd.DataFrame(out)

    agg = (
        hash_bucket_aggregate(
            _documents(sf_dir, ["source", "text"]).map_batches(
                partial, batch_format="pandas"
            ),
            ["source"],
            [("total", "sum")]
            + [(f"kept_{lim}", "sum") for lim in _TRUNC_LIMITS],
        )
        .to_pandas()
        .sort_values("source")
    )
    rows = []
    for _, r in agg.iterrows():
        total = int(r["total_sum"])
        for lim in _TRUNC_LIMITS:
            kept = int(r[f"kept_{lim}_sum"])
            rows.append(
                (
                    r["source"],
                    np.int64(lim),
                    np.int64(total),
                    np.int64(kept),
                    float(
                        _r6away(
                            np.array(
                                [float(total - kept) / float(total)]
                            )
                        )[0]
                    ),
                )
            )
    return pd.DataFrame(
        rows,
        columns=["source", "max_len", "total_tokens", "kept_tokens",
                 "loss_pct"],
    )


QUERIES155["truncation_loss"] = q_truncation_loss
ORACLES155["truncation_loss"] = """
WITH d AS (
  SELECT source,
         len(list_filter(regexp_split_to_array(text, '\\s+'),
                         x -> x <> '')) AS n
  FROM documents
),
a AS (
  SELECT source, lim.l AS max_len,
         SUM(n) AS total, SUM(LEAST(n, lim.l)) AS kept
  FROM d, (SELECT UNNEST([128, 512, 2048]) AS l) lim
  GROUP BY 1, 2
)
SELECT source, CAST(max_len AS BIGINT) AS max_len,
       CAST(total AS BIGINT) AS total_tokens,
       CAST(kept AS BIGINT) AS kept_tokens,
       ROUND(CAST(total - kept AS DOUBLE) / CAST(total AS DOUBLE), 6)
         AS loss_pct
FROM a
"""


def q_kneser_ney_bigram(sf_dir: str, k: int = 20):
    """Interpolated Kneser-Ney bigram probabilities (absolute discount
    D = 0.75) for the corpus's top-20 bigrams (count DESC, w1, w2):
    P(w2|w1) = max(c(w1,w2) - D, 0)/c(w1*) + (D*N1+(w1*)/c(w1*)) *
    (N1+(*w2)/n_bigram_types). Tokens are ASCII [a-z0-9_]+ on lowered
    text; every count is exact; the bigram type table flows through a
    parquet handoff so the three consumers never pin it."""
    from ..common.raytools import hash_bucket_aggregate, parquet_handoff

    docs = _documents(sf_dir, ["text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows: dict = {}
        for text in batch["text"]:
            toks = _KN_TOKEN_RE.findall((text or "").lower())
            for i in range(len(toks) - 1):
                key = (toks[i], toks[i + 1])
                rows[key] = rows.get(key, 0) + 1
        keys = list(rows)
        return pd.DataFrame(
            {
                "w1": [x[0] for x in keys],
                "w2": [x[1] for x in keys],
                "n": np.array([rows[x] for x in keys], dtype=np.int64),
            }
        )

    bigrams = parquet_handoff(
        hash_bucket_aggregate(
            docs.map_batches(partial, batch_format="pandas"),
            ["w1", "w2"],
            [("n", "sum")],
        ),
        "kn_bigrams",
    )
    n_types = bigrams.count()

    # global top-k: per-block partial top-k, tiny driver merge
    def block_topk(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.sort_values(
            ["n_sum", "w1", "w2"], ascending=[False, True, True]
        ).head(k)

    top = (
        bigrams.map_batches(block_topk, batch_format="pandas")
        .to_pandas()
        .sort_values(["n_sum", "w1", "w2"], ascending=[False, True, True])
        .head(k)
        .reset_index(drop=True)
    )
    import pyarrow as pa
    import pyarrow.compute as pc

    w1_arr = pa.array(sorted(set(top["w1"])))
    w2_arr = pa.array(sorted(set(top["w2"])))

    left = (
        hash_bucket_aggregate(
            bigrams, ["w1"], [("n_sum", "sum")], count_alias="types"
        )
        .map_batches(
            lambda b: b.filter(pc.is_in(b["w1"], value_set=w1_arr)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .set_index("w1")
    )
    right = (
        hash_bucket_aggregate(bigrams, ["w2"], [], count_alias="types")
        .map_batches(
            lambda b: b.filter(pc.is_in(b["w2"], value_set=w2_arr)),
            batch_format="pyarrow",
        )
        .to_pandas()
        .set_index("w2")
    )

    probs = []
    for _, r in top.iterrows():
        n = float(r["n_sum"])
        cw1 = float(left.loc[r["w1"], "n_sum_sum"])
        n1l = float(left.loc[r["w1"], "types"])
        n1r = float(right.loc[r["w2"], "types"])
        p = max(n - _KN_D, 0.0) / cw1 + ((_KN_D * n1l) / cw1) * (
            n1r / float(n_types)
        )
        probs.append(p)
    return pd.DataFrame(
        {
            "w1": top["w1"].astype(str),
            "w2": top["w2"].astype(str),
            "n": top["n_sum"].astype(np.int64),
            "kn_prob": _r6(np.array(probs)),
        }
    )


QUERIES155["kneser_ney_bigram"] = q_kneser_ney_bigram
ORACLES155["kneser_ney_bigram"] = """
WITH t AS (
  SELECT regexp_extract_all(lower(COALESCE(text, '')), '[a-z0-9_]+') AS toks
  FROM documents
),
bg AS (
  SELECT UNNEST(list_transform(range(len(toks) - 1), i -> toks[i + 1])) AS w1,
         UNNEST(list_transform(range(len(toks) - 1), i -> toks[i + 2])) AS w2
  FROM t WHERE len(toks) >= 2
),
c AS (SELECT w1, w2, COUNT(*) AS n FROM bg GROUP BY 1, 2),
l AS (SELECT w1, SUM(n) AS cw1, COUNT(*) AS n1l FROM c GROUP BY 1),
r AS (SELECT w2, COUNT(*) AS n1r FROM c GROUP BY 1),
tt AS (SELECT COUNT(*) AS ntypes FROM c),
top AS (
  SELECT w1, w2, n,
         row_number() OVER (ORDER BY n DESC, w1 ASC, w2 ASC) AS rk
  FROM c QUALIFY rk <= 20
)
SELECT top.w1, top.w2, CAST(top.n AS BIGINT) AS n,
       ROUND(GREATEST(CAST(top.n AS DOUBLE) - 0.75, 0.0)
               / CAST(l.cw1 AS DOUBLE)
             + ((0.75 * CAST(l.n1l AS DOUBLE)) / CAST(l.cw1 AS DOUBLE))
               * (CAST(r.n1r AS DOUBLE) / CAST(tt.ntypes AS DOUBLE)), 6)
         AS kn_prob
FROM top JOIN l USING (w1) JOIN r USING (w2), tt
"""
