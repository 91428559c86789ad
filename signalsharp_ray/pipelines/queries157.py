"""Round-5 batch 157: volatility filtering and tokenizer-training
primitives — a GARCH(1,1) conditional-volatility filter (Bollerslev
1986, variance-targeted) over the hourly load, and the first step of
BPE tokenizer training (Sennrich et al. 2016): the corpus's top
adjacent-character merge candidates.

House parity strategy: the GARCH state recursion is a single float
recurrence over integer-valued demeaned counts, replayed bitwise by a
recursive-CTE oracle (the EWMA/Kalman pattern) with the unconditional
variance computed from exact integer sums; BPE pair counts are exact
integers end-to-end.

Scale contracts: GARCH rides the bounded per-type hourly rollup; BPE
pair counting is a per-batch kernel that loops over the batch's
UNIQUE words (vocabulary-bounded, not token-bounded) and exchanges
(pair, count) integer rows — the same gram-keyed exchange as every
vocabulary query."""

from __future__ import annotations

import math
import re

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _documents, _r6, event_tier

QUERIES157: dict = {}
ORACLES157: dict = {}

_GARCH_A = 0.1
_GARCH_B = 0.8
_BPE_TOKEN_RE = re.compile(r"[a-z0-9_]+")


def q_garch_volatility(sf_dir: str):
    """Per event_type: GARCH(1,1) conditional volatility of the hourly
    count series with variance targeting — s2_t = (1-a-b)*c0 +
    a*r_{t-1}^2 + b*s2_{t-1}, a=0.1, b=0.8, s2_0 = c0 (the population
    variance), r_t = count_t - mean. Emits every point:
    (event_type, idx, cond_vol)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        sv = int(v.sum())
        svv = int((v * v).sum())
        mu = sv / float(n)
        c0 = (svv - sv * float(sv) / n) / n
        omega = (1.0 - _GARCH_A - _GARCH_B) * c0
        s2 = c0
        out = np.empty(n)
        out[0] = math.sqrt(s2)
        for t in range(1, n):
            r_prev = float(v[t - 1]) - mu
            s2 = omega + _GARCH_A * (r_prev * r_prev) + _GARCH_B * s2
            out[t] = math.sqrt(s2)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], n),
                "idx": np.arange(n, dtype=np.int64),
                "cond_vol": _r6(out),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


QUERIES157["garch_volatility"] = q_garch_volatility
ORACLES157["garch_volatility"] = """
WITH RECURSIVE s AS MATERIALIZED (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY h) - 1 AS idx
  FROM (SELECT event_type, date_trunc('hour', ts) AS h,
               CAST(COUNT(*) AS DOUBLE) AS v
        FROM events GROUP BY 1, 2)
),
mu AS (
  SELECT event_type,
         SUM(v) / COUNT(*) AS mu,
         (SUM(v * v) - SUM(v) * SUM(v) / COUNT(*)) / COUNT(*) AS c0
  FROM s GROUP BY 1
),
g AS (
  SELECT s.event_type, s.idx, s.v, mu.c0 AS s2
  FROM s JOIN mu USING (event_type) WHERE s.idx = 0
  UNION ALL
  SELECT s.event_type, s.idx, s.v,
         (1.0 - 0.1 - 0.8) * mu.c0
           + 0.1 * ((g.v - mu.mu) * (g.v - mu.mu))
           + 0.8 * g.s2
  FROM g
  JOIN s ON s.event_type = g.event_type AND s.idx = g.idx + 1
  JOIN mu ON mu.event_type = g.event_type
)
SELECT event_type, CAST(idx AS BIGINT) AS idx,
       ROUND(sqrt(s2), 6) AS cond_vol
FROM g
"""


def q_bpe_merge_candidates(sf_dir: str, k: int = 10):
    """The first BPE training step: top-10 adjacent-character pairs
    (count DESC, pair ASC) inside ASCII [a-z0-9_]+ words of the lowered
    corpus — the merges a byte-pair tokenizer would learn first. The
    per-batch kernel loops over the batch's UNIQUE words only
    (vocabulary-bounded); counts are exact integers."""
    from ..common.raytools import hash_bucket_aggregate

    docs = _documents(sf_dir, ["text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        words: dict = {}
        for text in batch["text"]:
            for w in _BPE_TOKEN_RE.findall((text or "").lower()):
                words[w] = words.get(w, 0) + 1
        pairs: dict = {}
        for w, c in words.items():  # vocabulary-bounded loop
            for i in range(len(w) - 1):
                p = w[i : i + 2]
                pairs[p] = pairs.get(p, 0) + c
        keys = list(pairs)
        return pd.DataFrame(
            {
                "pair": keys,
                "n": np.array([pairs[x] for x in keys], dtype=np.int64),
            }
        )

    agg = (
        hash_bucket_aggregate(
            docs.map_batches(partial, batch_format="pandas"),
            ["pair"],
            [("n", "sum")],
        )
        .to_pandas()
        .sort_values(["n_sum", "pair"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(agg) + 1, dtype=np.int64),
            "pair": agg["pair"].astype(str),
            "n": agg["n_sum"].astype(np.int64),
        }
    )


QUERIES157["bpe_merge_candidates"] = q_bpe_merge_candidates
ORACLES157["bpe_merge_candidates"] = """
WITH w AS (
  SELECT UNNEST(regexp_extract_all(lower(COALESCE(text, '')),
                                   '[a-z0-9_]+')) AS w
  FROM documents
),
p AS (
  SELECT UNNEST(list_transform(range(1, len(w)), i -> w[i] || w[i + 1]))
           AS pair
  FROM w WHERE len(w) >= 2
),
c AS (SELECT pair, COUNT(*) AS n FROM p GROUP BY 1),
rk AS (
  SELECT pair, n,
         row_number() OVER (ORDER BY n DESC, pair ASC) AS rank
  FROM c QUALIFY rank <= 10
)
SELECT CAST(rank AS BIGINT) AS rank, pair, CAST(n AS BIGINT) AS n
FROM rk
"""
