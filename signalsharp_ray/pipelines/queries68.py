"""Round-3 batch 70: webtext-axis operators — Burrows' delta (the
classic stylometric distance between sources over the corpus's top-20
words), per-source sentence-length statistics, and a deterministic
cosine-similarity histogram over the embedding table (rank k paired
with rank k + n//2 under micro-unit integer quantization).

House parity: token and sentence counts are exact integers through one
bucketed exchange (the \\w+ <-> [\\p{L}\\p{N}_]+ pairing established by
word_length_stats); embedding dots/norms are exact int64 sums over
q = round_half_away(x * 1e6) (the embedding_covariance pattern); every
float combination (relative frequencies, z-scores, cosines, means) is
transcribed op-for-op with list_sum(list(x ORDER BY k)) folds.

Scale contracts: Burrows' delta reduces to (n_sources x 20) cells after
a distributed token count + a distributed top-k (Dataset.sort + limit);
only the bounded cell grid reaches the driver. Sentence stats are a
pure partial+final integer aggregate. The cosine histogram joins
vec_id k with k + n//2 through the co-partitioned bucketed_join — no
driver-side vector collection — and folds per histogram bucket inside
bucketed_map_groups.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _documents, _r6away
from .queries14 import _fold
from .queries16 import _TOKEN_RE

QUERIES68: dict = {}
ORACLES68: dict = {}

_SENT_SPLIT_RE = re.compile(r"[.!?]+")
TOPK_DELTA = 20


# ---------------------------------------------------------------------------
# Burrows' delta between sources
# ---------------------------------------------------------------------------


def q_burrows_delta(sf_dir: str):
    """Burrows' delta for every source pair: over the corpus's top-20
    tokens (by total count, token-ascending tie-break), z-score each
    source's relative token frequency against the across-source mean
    and population sd, then delta = mean |z_a - z_b| over the tokens
    with nonzero sd."""
    docs = _documents(sf_dir, ["source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        src, tok, n = [], [], []
        for s, text in zip(batch["source"], batch["text"]):
            counts: dict = {}
            for t in _TOKEN_RE.findall((text or "").lower()):
                counts[t] = counts.get(t, 0) + 1
            for t, c in counts.items():
                src.append(s)
                tok.append(t)
                n.append(c)
        return pd.DataFrame(
            {"source": src, "tok": tok, "n": np.array(n, dtype=np.int64)}
        )

    tok_counts = hash_bucket_aggregate(
        docs.map_batches(partial, batch_format="pandas"),
        ["source", "tok"],
        [("n", "sum")],
    )
    top = (
        hash_bucket_aggregate(tok_counts, ["tok"], [("n_sum", "sum")])
        .sort(["n_sum_sum", "tok"], descending=[True, False])
        .limit(TOPK_DELTA)
        .to_pandas()
    )
    top_toks = sorted(top["tok"].tolist())
    top_set = set(top_toks)
    cells = (
        tok_counts.map_batches(
            lambda b: b[b["tok"].isin(top_set)],
            batch_format="pandas",
        )
        .to_pandas()
    )
    totals = (
        hash_bucket_aggregate(tok_counts, ["source"], [("n_sum", "sum")])
        .to_pandas()
        .set_index("source")["n_sum_sum"]
        .astype(np.int64)
    )
    sources = sorted(totals.index.tolist())
    ns = len(sources)
    out_empty = pd.DataFrame(
        {"source_a": pd.Series(dtype=object),
         "source_b": pd.Series(dtype=object),
         "n_tokens": pd.Series(dtype=np.int64),
         "delta": pd.Series(dtype=np.float64)}
    )
    if ns < 2 or not top_toks:
        return out_empty
    cnt = {(r["source"], r["tok"]): int(r["n_sum"]) for _, r in cells.iterrows()}
    f = {
        (s, t): float(cnt.get((s, t), 0)) / float(int(totals.loc[s]))
        for s in sources
        for t in top_toks
    }
    z = {}
    used = []
    for t in top_toks:
        mu = _fold([f[(s, t)] for s in sources]) / float(ns)
        var = _fold(
            [(f[(s, t)] - mu) * (f[(s, t)] - mu) for s in sources]
        ) / float(ns)
        sd = math.sqrt(var)
        if sd == 0.0:
            continue
        used.append(t)
        for s in sources:
            z[(s, t)] = (f[(s, t)] - mu) / sd
    if not used:
        return out_empty
    rows = []
    for i, a in enumerate(sources):
        for b in sources[i + 1:]:
            d = _fold([abs(z[(a, t)] - z[(b, t)]) for t in used]) / float(
                len(used)
            )
            rows.append((a, b, len(used), float(_r6away(d))))
    return pd.DataFrame(
        rows, columns=["source_a", "source_b", "n_tokens", "delta"]
    ).astype({"n_tokens": np.int64})


ORACLES68["burrows_delta"] = """
WITH t AS (
  SELECT source,
         UNNEST(regexp_extract_all(lower(COALESCE(text, '')),
                                   '[\\p{L}\\p{N}_]+')) AS tok
  FROM documents
),
c AS (SELECT source, tok, COUNT(*) AS n FROM t GROUP BY 1, 2),
tots AS (SELECT source, SUM(n) AS tot FROM c GROUP BY 1),
topk AS (
  SELECT tok FROM (SELECT tok, SUM(n) AS cn FROM c GROUP BY 1)
  QUALIFY row_number() OVER (ORDER BY cn DESC, tok ASC) <= 20
),
grid AS (
  SELECT s.source, k.tok
  FROM (SELECT DISTINCT source FROM c) s CROSS JOIN topk k
),
f AS (
  SELECT g.source, g.tok,
         CAST(COALESCE(c.n, 0) AS DOUBLE) / CAST(t2.tot AS DOUBLE) AS f
  FROM grid g
  LEFT JOIN c ON c.source = g.source AND c.tok = g.tok
  JOIN tots t2 ON t2.source = g.source
),
mu AS (
  SELECT tok, COUNT(*) AS ns,
         list_sum(list(f ORDER BY source)) / CAST(COUNT(*) AS DOUBLE) AS mu
  FROM f GROUP BY 1
),
sd AS (
  SELECT f.tok,
         sqrt(list_sum(list((f.f - mu.mu) * (f.f - mu.mu) ORDER BY f.source))
              / CAST(mu.ns AS DOUBLE)) AS sd
  FROM f JOIN mu USING (tok)
  GROUP BY f.tok, mu.ns, mu.mu
),
z AS (
  SELECT f.source, f.tok, (f.f - mu.mu) / sd.sd AS z
  FROM f JOIN mu USING (tok) JOIN sd USING (tok)
  WHERE sd.sd != 0
)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(COUNT(*) AS BIGINT) AS n_tokens,
       ROUND(list_sum(list(abs(a.z - b.z) ORDER BY a.tok))
             / CAST(COUNT(*) AS DOUBLE), 6) AS delta
FROM z a
JOIN z b ON b.tok = a.tok AND a.source < b.source
GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Sentence length statistics per source
# ---------------------------------------------------------------------------


def q_sentence_length_stats(sf_dir: str):
    """Per source: number of sentences (split on [.!?]+ runs, keeping
    only segments with at least one token), total words, mean words per
    sentence, and the longest sentence in words."""
    docs = _documents(sf_dir, ["source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        src, n_sent, words, mx = [], [], [], []
        for s, text in zip(batch["source"], batch["text"]):
            ns = 0
            w = 0
            m = 0
            for seg in _SENT_SPLIT_RE.split((text or "").lower()):
                nw = len(_TOKEN_RE.findall(seg))
                if nw > 0:
                    ns += 1
                    w += nw
                    if nw > m:
                        m = nw
            src.append(s)
            n_sent.append(ns)
            words.append(w)
            mx.append(m)
        return pd.DataFrame(
            {
                "source": src,
                "n_sent": np.array(n_sent, dtype=np.int64),
                "words": np.array(words, dtype=np.int64),
                "mx": np.array(mx, dtype=np.int64),
            }
        )

    agg = hash_bucket_aggregate(
        docs.map_batches(partial, batch_format="pandas"),
        ["source"],
        [("n_sent", "sum"), ("words", "sum"), ("mx", "max")],
    ).to_pandas()
    rows = []
    for _, r in agg.iterrows():
        ns = int(r["n_sent_sum"])
        if ns == 0:
            continue
        w = int(r["words_sum"])
        rows.append(
            (
                r["source"],
                ns,
                w,
                float(_r6away(float(w) / float(ns))),
                int(r["mx_max"]),
            )
        )
    return (
        pd.DataFrame(
            rows,
            columns=["source", "n_sentences", "n_words", "mean_words",
                     "max_words"],
        )
        .astype({"n_sentences": np.int64, "n_words": np.int64,
                 "max_words": np.int64})
        .sort_values("source")
        .reset_index(drop=True)
    )


ORACLES68["sentence_length_stats"] = """
WITH segs AS (
  SELECT source,
         UNNEST(regexp_split_to_array(lower(COALESCE(text, '')), '[.!?]+'))
           AS seg
  FROM documents
),
w AS (
  SELECT source,
         len(regexp_extract_all(seg, '[\\p{L}\\p{N}_]+')) AS nw
  FROM segs
),
a AS (
  SELECT source, COUNT(*) AS n_sent, SUM(nw) AS words, MAX(nw) AS mx
  FROM w WHERE nw > 0 GROUP BY 1
)
SELECT source, CAST(n_sent AS BIGINT) AS n_sentences,
       CAST(words AS BIGINT) AS n_words,
       ROUND(CAST(words AS DOUBLE) / CAST(n_sent AS DOUBLE), 6) AS mean_words,
       CAST(mx AS BIGINT) AS max_words
FROM a WHERE n_sent > 0
"""


# ---------------------------------------------------------------------------
# Deterministic cosine pair histogram over embeddings
# ---------------------------------------------------------------------------


def q_cosine_pair_histogram(sf_dir: str):
    """Cosine similarity histogram over the deterministic pairing
    (vec k, vec k + n//2) for k < n//2: quantize each embedding to
    micro-units, take exact integer dots and norms, bucket cosines at
    0.1 resolution (bucket = min(floor(10 cos), 9)), and report per
    bucket the pair count and mean cosine (ascending-k fold)."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    n_vecs = ds.count()
    h = n_vecs // 2
    out_empty = pd.DataFrame(
        {"bucket": pd.Series(dtype=np.int64),
         "n_pairs": pd.Series(dtype=np.int64),
         "mean_cos": pd.Series(dtype=np.float64)}
    )
    if h == 0:
        return out_empty

    def explode(side: str):
        # (k, dim, q) scalar rows — arrays never cross an exchange, so
        # the join stays a plain int-keyed co-partitioned merge.
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            vid = batch["vec_id"].astype(np.int64).to_numpy()
            if side == "a":
                keep = vid < h
            else:
                keep = (vid >= h) & (vid < 2 * h)
            if not keep.any():
                return pd.DataFrame(
                    {"k": pd.Series(dtype=np.int64),
                     "dim": pd.Series(dtype=np.int64),
                     "q": pd.Series(dtype=np.int64)}
                )
            mat = np.vstack(
                batch["embedding"].to_numpy()[keep]
            ).astype(np.float64)
            y = mat * 1e6
            q = (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)
            n, d = q.shape
            k = vid[keep] if side == "a" else vid[keep] - h
            return pd.DataFrame(
                {
                    "k": np.repeat(k, d),
                    "dim": np.tile(np.arange(d, dtype=np.int64), n),
                    "q": q.ravel(),
                }
            )

        return ds.map_batches(fn, batch_format="pandas")

    joined = bucketed_join(explode("a"), explode("b"), on=["k", "dim"])

    def partial_sums(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0 or "q" not in batch.columns:
            return pd.DataFrame(
                {"k": pd.Series(dtype=np.int64),
                 "dot": pd.Series(dtype=np.int64),
                 "na": pd.Series(dtype=np.int64),
                 "nb": pd.Series(dtype=np.int64)}
            )
        qa = batch["q"].astype(np.int64)
        qb = batch["q_r"].astype(np.int64)
        g = pd.DataFrame(
            {"k": batch["k"].astype(np.int64), "dot": qa * qb,
             "na": qa * qa, "nb": qb * qb}
        ).groupby("k", sort=False).sum().reset_index()
        return g.astype(np.int64)

    sums = hash_bucket_aggregate(
        joined.map_batches(partial_sums, batch_format="pandas"),
        ["k"],
        [("dot", "sum"), ("na", "sum"), ("nb", "sum")],
    )

    def cos_rows(batch: pd.DataFrame) -> pd.DataFrame:
        ks, buckets, coss = [], [], []
        for k, dot, na, nb in zip(
            batch["k"], batch["dot_sum"], batch["na_sum"], batch["nb_sum"]
        ):
            na = int(na)
            nb = int(nb)
            if na == 0 or nb == 0:
                continue
            c = float(int(dot)) / (
                math.sqrt(float(na)) * math.sqrt(float(nb))
            )
            b = int(math.floor(c * 10.0))
            if b > 9:
                b = 9
            ks.append(int(k))
            buckets.append(b)
            coss.append(c)
        return pd.DataFrame(
            {
                "bucket": np.array(buckets, dtype=np.int64),
                "k": np.array(ks, dtype=np.int64),
                "cos": np.array(coss, dtype=np.float64),
            }
        )

    pairs = sums.map_batches(cos_rows, batch_format="pandas")

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("k")
        n = len(df)
        s = _fold(df["cos"].tolist())
        return pd.DataFrame(
            {
                "bucket": np.array([int(df["bucket"].iloc[0])], dtype=np.int64),
                "n_pairs": np.array([n], dtype=np.int64),
                "mean_cos": [float(_r6away(s / float(n)))],
            }
        )

    return bucketed_map_groups(pairs, ["bucket"], final)


ORACLES68["cosine_pair_histogram"] = """
WITH e AS (
  SELECT vec_id,
         unnest(range(0, len(embedding))) AS i,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000000.0) AS BIGINT)
           AS q
  FROM embeddings
),
nn AS (SELECT COUNT(*) // 2 AS h FROM embeddings),
v AS (SELECT vec_id, CAST(SUM(q * q) AS BIGINT) AS nrm FROM e GROUP BY 1),
p AS (
  SELECT a.vec_id AS k, CAST(SUM(a.q * b.q) AS BIGINT) AS dot
  FROM e a
  JOIN nn ON TRUE
  JOIN e b ON b.vec_id = a.vec_id + nn.h AND b.i = a.i
  WHERE a.vec_id < nn.h
  GROUP BY 1
),
c AS (
  SELECT p.k,
         CAST(p.dot AS DOUBLE)
           / (sqrt(CAST(va.nrm AS DOUBLE)) * sqrt(CAST(vb.nrm AS DOUBLE)))
           AS cos
  FROM p
  JOIN nn ON TRUE
  JOIN v va ON va.vec_id = p.k
  JOIN v vb ON vb.vec_id = p.k + nn.h
  WHERE va.nrm > 0 AND vb.nrm > 0
)
SELECT LEAST(CAST(FLOOR(cos * 10.0) AS BIGINT), 9) AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n_pairs,
       ROUND(list_sum(list(cos ORDER BY k)) / CAST(COUNT(*) AS DOUBLE), 6)
         AS mean_cos
FROM c GROUP BY 1
"""


QUERIES68["burrows_delta"] = q_burrows_delta
QUERIES68["sentence_length_stats"] = q_sentence_length_stats
QUERIES68["cosine_pair_histogram"] = q_cosine_pair_histogram
