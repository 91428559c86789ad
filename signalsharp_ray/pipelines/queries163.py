"""Round-5 batch 163: character-level near-dup verification and
stylometry — Levenshtein edit distance over deterministic template-
suspect pairs (same source, same character length — the cheap blocking
key for boilerplate detection).

House parity strategy: Levenshtein is ALL integer DP — DuckDB's
levenshtein() and the textbook two-row DP agree exactly by definition;
the pair set is blocked on exact integer keys and capped
deterministically (source, n_chars, doc_a, doc_b ascending, first 20).

Scale contracts: the pair probe is blocked + capped (never all-pairs);
pair generation runs inside the (source, n_chars) groups with 300-char
prefixes only, so no full text ever leaves the block."""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _documents, _r6

QUERIES163: dict = {}
ORACLES163: dict = {}

_ED_CAP_PAIRS = 20
_ED_PREFIX = 300


def _levenshtein(a: str, b: str) -> int:
    """Textbook two-row integer DP — exact, matches SQL levenshtein()."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if ca == cb else 1),
            )
        prev = cur
    return prev[-1]


def q_samelen_edit_distance(sf_dir: str):
    """Template-suspect verification: documents sharing (source,
    n_chars) are boilerplate candidates; compute the exact Levenshtein
    distance between their 300-char prefixes for the first 20 pairs
    (source, n_chars, doc_a, doc_b ascending). norm_sim = 1 - lev /
    max(prefix lengths). Output (doc_a, doc_b, source, n_chars, lev,
    norm_sim)."""
    def trunc(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "source": batch["source"],
                "n_chars": batch["n_chars"].astype(np.int64),
                "prefix": batch["text"].fillna("").str.slice(0, _ED_PREFIX),
            }
        )

    def emit_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].to_numpy(np.int64)
        if len(ids) < 2:
            return pd.DataFrame(
                {c: [] for c in ["source", "n_chars", "doc_a", "doc_b",
                                 "ta", "tb"]}
            )
        pre = g["prefix"].tolist()
        out = []
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                out.append(
                    (g["source"].iloc[0], int(g["n_chars"].iloc[0]),
                     int(ids[i]), int(ids[j]), pre[i], pre[j])
                )
        return pd.DataFrame(
            out, columns=["source", "n_chars", "doc_a", "doc_b", "ta", "tb"]
        )

    docs = _documents(sf_dir, ["doc_id", "source", "text", "n_chars"])
    pairs = (
        bucketed_map_groups(
            docs.map_batches(trunc, batch_format="pandas"), ["source", "n_chars"], emit_pairs
        )
        .to_pandas()  # bounded: blocking-collision pairs with 300-char prefixes
        .sort_values(["source", "n_chars", "doc_a", "doc_b"])
        .head(_ED_CAP_PAIRS)
    )
    rows = []
    for _, pr in pairs.iterrows():
        src, nc, a, b = pr["source"], int(pr["n_chars"]), int(pr["doc_a"]), int(pr["doc_b"])
        ta = pr["ta"] or ""
        tb = pr["tb"] or ""
        lev = _levenshtein(ta, tb)
        mx = max(len(ta), len(tb))
        sim = 1.0 - float(lev) / float(mx) if mx > 0 else 1.0
        rows.append(
            (
                np.int64(a),
                np.int64(b),
                src,
                np.int64(nc),
                np.int64(lev),
                float(_r6(np.array([sim]))[0]),
            )
        )
    return pd.DataFrame(
        rows,
        columns=["doc_a", "doc_b", "source", "n_chars", "lev", "norm_sim"],
    )


QUERIES163["samelen_edit_distance"] = q_samelen_edit_distance
ORACLES163["samelen_edit_distance"] = """
WITH p AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, a.source, a.n_chars,
         a.text AS ta, b.text AS tb,
         row_number() OVER (ORDER BY a.source, a.n_chars,
                            a.doc_id, b.doc_id) AS rk
  FROM documents a
  JOIN documents b
    ON a.source = b.source AND a.n_chars = b.n_chars
   AND a.doc_id < b.doc_id
  QUALIFY rk <= 20
),
e AS (
  SELECT doc_a, doc_b, source, n_chars,
         levenshtein(LEFT(COALESCE(ta, ''), 300),
                     LEFT(COALESCE(tb, ''), 300)) AS lev,
         GREATEST(length(LEFT(COALESCE(ta, ''), 300)),
                  length(LEFT(COALESCE(tb, ''), 300))) AS mx
  FROM p
)
SELECT doc_a, doc_b, source, CAST(n_chars AS BIGINT) AS n_chars,
       CAST(lev AS BIGINT) AS lev,
       ROUND(CASE WHEN mx > 0
                  THEN 1.0 - CAST(lev AS DOUBLE) / CAST(mx AS DOUBLE)
                  ELSE 1.0 END, 6) AS norm_sim
FROM e
"""
