"""Round-3 batch 43: stuck-signal and template diagnostics — the
longest constant-value run per event type (the flatline / stuck-sensor
detector on the dense hourly grid), the top-10 document-opening tokens
(boilerplate headers surface immediately), and the top-5
highest-variance embedding dimensions (which axes carry signal, ranked
by the EXACT integer variance numerator so the order is
rounding-free).

House parity: flatline islands are pure integer run arithmetic;
first tokens use the house tokenizer with (count DESC, token ASC)
ties; dimension ranking compares n*sum(q^2) - sum(q)^2 as exact
integers (no float order surface), with the variance itself one
transcribed expression.

Scale contracts: per-type grids are retention-bounded; first-token
counts reduce through one exchange with per-batch top-k merge; the
dimension table is d-bounded.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _documents, _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries4 import _quantize_rows
from .queries16 import _TOKEN_RE

QUERIES41: dict = {}
ORACLES41: dict = {}

HOUR_US = 3_600_000_000
FIRST_TOKEN_K = 10
TOP_DIMS = 5


# ---------------------------------------------------------------------------
# Flatline runs per event type
# ---------------------------------------------------------------------------


def q_flatline_runs(sf_dir: str):
    """Per event type: the longest run of IDENTICAL consecutive hourly
    counts on the dense grid and how many runs of length >= 3 exist —
    the stuck-pipeline / frozen-counter detector (max_drought finds
    silence; this finds any frozen level). Pure integer run
    arithmetic."""
    from ..kernels.seasonal import dense_counts

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        v = x.astype(np.int64)
        n = v.size
        if n == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "n_hours": pd.Series(dtype=np.int64),
                    "max_flatline_h": pd.Series(dtype=np.int64),
                    "n_flat_runs_3plus": pd.Series(dtype=np.int64),
                }
            )
        change = np.concatenate(([True], v[1:] != v[:-1]))
        run_ids = np.cumsum(change)
        lengths = np.bincount(run_ids)[1:]
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_hours": np.array([n], dtype=np.int64),
                "max_flatline_h": np.array([int(lengths.max())], dtype=np.int64),
                "n_flat_runs_3plus": np.array(
                    [int((lengths >= 3).sum())], dtype=np.int64
                ),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES41["flatline_runs"] = """
WITH """ + _DENSE_1H + """,
w AS (
  SELECT event_type, idx, x,
         CASE WHEN LAG(x) OVER (PARTITION BY event_type ORDER BY idx) = x
              THEN 0 ELSE 1 END AS brk
  FROM d
),
r AS (
  SELECT event_type, idx,
         SUM(brk) OVER (PARTITION BY event_type ORDER BY idx) AS run_id
  FROM w
),
lens AS (
  SELECT event_type, run_id, COUNT(*) AS len
  FROM r GROUP BY 1, 2
)
SELECT event_type,
       CAST(SUM(len) AS BIGINT) AS n_hours,
       CAST(MAX(len) AS BIGINT) AS max_flatline_h,
       CAST(COUNT(*) FILTER (WHERE len >= 3) AS BIGINT) AS n_flat_runs_3plus
FROM lens GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Top-10 document-opening tokens
# ---------------------------------------------------------------------------


def q_first_token_topk(sf_dir: str, k: int = FIRST_TOKEN_K):
    """The 10 most common document-opening tokens ((count DESC, token
    ASC) ties) with their share of all documents that have a token —
    repeated openers flag boilerplate templates. One bounded exchange;
    per-batch top-k merge."""
    docs = _documents(sf_dir, ["text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows: dict = {}
        total = 0
        for text in batch["text"]:
            toks = _TOKEN_RE.findall((text or "").lower())
            if not toks:
                continue
            total += 1
            rows[toks[0]] = rows.get(toks[0], 0) + 1
        keys = list(rows)
        out = pd.DataFrame(
            {
                "tok": keys + ["__total__"],
                "m": np.array(
                    [rows[t] for t in keys] + [total], dtype=np.int64
                ),
            }
        )
        return out

    agg = hash_bucket_aggregate(
        docs.map_batches(partial, batch_format="pandas"), ["tok"], [("m", "sum")]
    ).to_pandas()
    total = int(agg.loc[agg["tok"] == "__total__", "m_sum"].iloc[0])
    toks = agg[agg["tok"] != "__total__"]
    top = (
        toks.sort_values(["m_sum", "tok"], ascending=[False, True])
        .head(k)
        .reset_index(drop=True)
    )
    share = [
        float(_r6away(float(int(m)) / float(total))) for m in top["m_sum"]
    ]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(top) + 1, dtype=np.int64),
            "token": top["tok"],
            "n_docs": top["m_sum"].astype(np.int64),
            "share": share,
        }
    )


ORACLES41["first_token_topk"] = f"""
WITH f AS (
  SELECT regexp_extract_all(lower(COALESCE(text, '')),
                            '[\\p{{L}}\\p{{N}}_]+') AS toks
  FROM documents
),
t AS (SELECT toks[1] AS tok FROM f WHERE len(toks) > 0),
c AS (SELECT tok, COUNT(*) AS m FROM t GROUP BY 1),
tot AS (SELECT CAST(COUNT(*) AS BIGINT) AS total FROM t),
r AS (
  SELECT tok, m,
         ROW_NUMBER() OVER (ORDER BY m DESC, tok ASC) AS rank
  FROM c
)
SELECT CAST(r.rank AS BIGINT) AS rank,
       r.tok AS token,
       CAST(r.m AS BIGINT) AS n_docs,
       ROUND(CAST(r.m AS DOUBLE) / CAST(tot.total AS DOUBLE), 6) AS share
FROM r CROSS JOIN tot
WHERE r.rank <= {FIRST_TOKEN_K}
"""


# ---------------------------------------------------------------------------
# Top-variance embedding dimensions
# ---------------------------------------------------------------------------


def q_top_variance_dims(sf_dir: str):
    """The 5 embedding dimensions with the highest variance of the
    quantized components — where the representation actually varies
    (flat dims are wasted width). Ranking compares the EXACT integer
    numerator n*sum(q^2) - sum(q)^2 (ties by dim), so the order has no
    float surface; the reported variance is one transcribed
    expression."""
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        q = _quantize_rows(batch["embedding"])
        d = q.shape[1]
        return pd.DataFrame(
            {
                "dim": np.arange(d, dtype=np.int64),
                "n": np.full(d, q.shape[0], dtype=np.int64),
                "s": q.sum(axis=0),
                "ss": (q * q).sum(axis=0),
            }
        )

    agg = (
        hash_bucket_aggregate(
            ds.map_batches(partial, batch_format="pandas"),
            ["dim"],
            [("n", "sum"), ("s", "sum"), ("ss", "sum")],
        )
        .to_pandas()
    )
    n = agg["n_sum"].astype(np.int64)
    s = agg["s_sum"].astype(np.int64)
    ss = agg["ss_sum"].astype(np.int64)
    num = [int(ni) * int(ssi) - int(si) * int(si) for ni, si, ssi in zip(n, s, ss)]
    agg = agg.assign(_num=num)
    top = (
        agg.sort_values(["_num", "dim"], ascending=[False, True])
        .head(TOP_DIMS)
        .reset_index(drop=True)
    )
    var = [
        float(
            _r6away(
                float(int(ssi)) / float(int(ni))
                - (float(int(si)) / float(int(ni)))
                  * (float(int(si)) / float(int(ni)))
            )
        )
        for ni, si, ssi in zip(
            top["n_sum"].astype(np.int64),
            top["s_sum"].astype(np.int64),
            top["ss_sum"].astype(np.int64),
        )
    ]
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(top) + 1, dtype=np.int64),
            "dim": top["dim"].astype(np.int64),
            "n_vecs": top["n_sum"].astype(np.int64),
            "var_q": var,
        }
    )


ORACLES41["top_variance_dims"] = f"""
WITH m AS (
  SELECT embedding,
         list_max(list_transform(embedding, x -> abs(x))) AS ma
  FROM embeddings
),
e AS (
  SELECT unnest(range(0, len(embedding))) AS dim,
         unnest(list_transform(embedding,
           x -> CASE WHEN ma = 0 THEN 0
                     ELSE CAST(ROUND(CAST(x AS DOUBLE) / CAST(ma AS DOUBLE) * 127)
                               AS BIGINT) END)) AS q
  FROM m
),
a AS (
  SELECT CAST(dim AS BIGINT) AS dim, COUNT(*) AS n,
         CAST(SUM(q) AS BIGINT) AS s,
         CAST(SUM(q * q) AS BIGINT) AS ss
  FROM e GROUP BY 1
),
r AS (
  SELECT dim, n, s, ss,
         ROW_NUMBER() OVER (
           ORDER BY n::HUGEINT * ss::HUGEINT - s::HUGEINT * s::HUGEINT DESC,
                    dim ASC) AS rank
  FROM a
)
SELECT CAST(rank AS BIGINT) AS rank,
       dim,
       CAST(n AS BIGINT) AS n_vecs,
       ROUND(CAST(ss AS DOUBLE) / CAST(n AS DOUBLE)
             - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
               * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)), 6) AS var_q
FROM r WHERE rank <= {TOP_DIMS}
"""


QUERIES41["flatline_runs"] = q_flatline_runs
QUERIES41["first_token_topk"] = q_first_token_topk
QUERIES41["top_variance_dims"] = q_top_variance_dims
