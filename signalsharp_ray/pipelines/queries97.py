"""Round-3 batch 99: regularity and catalog-concentration operators —
the 10 most metronomic users (lowest inter-event gap CV among users
with >= 20 events), the mean retail price of parts whose NAME contains
each of the 10 most common name terms (does naming vocabulary carry
price signal), and the revenue share of the top 1% of parts.

House parity: gap CVs combine exact integer microsecond sums
(HUGEINT-safe squares) in one shared float; selection orders by
(cv ASC, user ASC) on bitwise-identical values; name terms use the
house tokenizer; part revenue is the exact cents x bp unit with integer
top-k selection (revenue DESC, partkey ASC).

Scale contracts: gaps reduce per user inside bucketed_map_groups; name-term
stats broadcast the bounded part dimension; the top-share reduces per
part through one exchange and compares only the 1% head on the driver.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries4 import _cents
from .queries16 import _read, _TOKEN_RE

QUERIES97: dict = {}
ORACLES97: dict = {}

MIN_EVENTS = 20


# ---------------------------------------------------------------------------
# Most regular users (lowest gap CV)
# ---------------------------------------------------------------------------


def q_user_regularity_topk(sf_dir: str, k: int = 10):
    """Top-10 users by inter-event regularity: population CV of
    microsecond gaps (sd/mean) among users with >= 20 events; ties
    user-ascending."""
    ev = _events(sf_dir, ["user_id", "ts", "event_id"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "us": b["ts"].astype("datetime64[us]").astype("int64"),
                "event_id": b["event_id"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"user_id": pd.Series(dtype=np.int64),
             "n_gaps": pd.Series(dtype=np.int64),
             "cv": pd.Series(dtype=np.float64)}
        )
        if len(df) < MIN_EVENTS:
            return empty
        d = df.sort_values(["us", "event_id"], kind="mergesort")
        us = d["us"].to_numpy(np.int64)
        g = [int(x) for x in (us[1:] - us[:-1])]
        n = len(g)
        s1 = sum(g)
        s2 = sum(x * x for x in g)
        if s1 == 0:
            return empty
        m = float(s1) / n
        var = float(s2) / n - m * m
        if var < 0.0:
            var = 0.0
        cv = math.sqrt(var) / m
        return pd.DataFrame(
            {
                "user_id": np.array([int(d["user_id"].iloc[0])],
                                    dtype=np.int64),
                "n_gaps": np.array([n], dtype=np.int64),
                "cv": [cv],
            }
        )

    per_user = (
        bucketed_map_groups(ev, ["user_id"], gaps)
        .to_pandas()
    )
    out_empty = pd.DataFrame(
        {"user_id": pd.Series(dtype=np.int64),
         "n_gaps": pd.Series(dtype=np.int64),
         "gap_cv": pd.Series(dtype=np.float64)}
    )
    if per_user.empty:
        return out_empty
    per_user = per_user.sort_values(
        ["cv", "user_id"], ascending=[True, True]
    ).head(k)
    return pd.DataFrame(
        {
            "user_id": per_user["user_id"].astype(np.int64),
            "n_gaps": per_user["n_gaps"].astype(np.int64),
            "gap_cv": [float(_r6away(v)) for v in per_user["cv"]],
        }
    ).reset_index(drop=True)


ORACLES97["user_regularity_topk"] = """
WITH seq AS (
  SELECT user_id, epoch_us(ts) AS us,
         lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                 ORDER BY ts, event_id) AS prev,
         COUNT(*) OVER (PARTITION BY user_id) AS ne
  FROM events
),
g AS (
  SELECT user_id, us - prev AS gap
  FROM seq WHERE prev IS NOT NULL AND ne >= 20
),
s AS (
  SELECT user_id, COUNT(*) AS n,
         CAST(SUM(gap) AS BIGINT) AS s1,
         CAST(SUM(CAST(gap AS HUGEINT) * gap) AS HUGEINT) AS s2
  FROM g GROUP BY 1 HAVING SUM(gap) > 0
),
cv AS (
  SELECT user_id, n,
         sqrt(GREATEST(CAST(s2 AS DOUBLE) / n
                       - (CAST(s1 AS DOUBLE) / n) * (CAST(s1 AS DOUBLE) / n),
                       0.0))
         / (CAST(s1 AS DOUBLE) / n) AS cv
  FROM s
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(n AS BIGINT) AS n_gaps,
       ROUND(cv, 6) AS gap_cv
FROM cv
QUALIFY row_number() OVER (ORDER BY cv ASC, user_id ASC) <= 10
"""


# ---------------------------------------------------------------------------
# Part-name term price effect
# ---------------------------------------------------------------------------


def q_part_name_term_price(sf_dir: str, k: int = 10):
    """For the 10 most common part-name terms (count DESC, term ASC):
    how many parts carry the term and their mean retail price — exact
    cents, house tokenizer over lowered names.

    Scale shape: the term explode runs distributed over part batches and
    reduces per term through one bucketed exchange — the part table never
    touches the driver (O(sf): 2e7 rows at sf100); only the
    bounded-vocabulary per-term aggregate does."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(batch["p_retailprice"])
        terms, cnts, sums = [], [], []
        for name, c in zip(batch["p_name"], cents):
            for t in set(_TOKEN_RE.findall((name or "").lower())):
                terms.append(t)
                cnts.append(1)
                sums.append(int(c))
        return (
            pd.DataFrame(
                {
                    "term": terms,
                    "cnt": np.array(cnts, dtype=np.int64),
                    "s": np.array(sums, dtype=np.int64),
                }
            )
            .groupby("term", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            _read(
                sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"]
            ).map_batches(explode, batch_format="pandas"),
            ["term"],
            [("cnt", "sum"), ("s", "sum")],
        )
        .to_pandas()
        .sort_values(["cnt_sum", "term"], ascending=[False, True])
        .head(k)
    )
    return pd.DataFrame(
        {
            "term": agg["term"].astype(str),
            "n_parts": agg["cnt_sum"].astype(np.int64),
            "mean_price": _r6away(
                agg["s_sum"].to_numpy(np.float64)
                / agg["cnt_sum"].to_numpy(np.float64)
                / 100.0
            ),
        }
    ).reset_index(drop=True)


ORACLES97["part_name_term_price"] = """
WITH t AS (
  SELECT DISTINCT p_partkey,
         UNNEST(regexp_extract_all(lower(COALESCE(p_name, '')),
                                   '[\\p{L}\\p{N}_]+')) AS term
  FROM part
),
a AS (
  SELECT t.term, COUNT(*) AS n,
         CAST(SUM(CAST(ROUND(p.p_retailprice * 100) AS BIGINT)) AS BIGINT)
           AS s
  FROM t JOIN part p USING (p_partkey)
  GROUP BY 1
)
SELECT term, CAST(n AS BIGINT) AS n_parts,
       ROUND(CAST(s AS DOUBLE) / CAST(n AS DOUBLE) / 100.0, 6) AS mean_price
FROM a
QUALIFY row_number() OVER (ORDER BY n DESC, term ASC) <= 10
"""


# ---------------------------------------------------------------------------
# Top-1% part revenue share
# ---------------------------------------------------------------------------


def q_part_revenue_topshare(sf_dir: str):
    """One global row: the revenue share of the top 1% of parts (at
    least 1 part), by exact cents x bp revenue; ordering (revenue DESC,
    partkey ASC)."""
    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(batch["l_extendedprice"])
        bp = np.rint(
            batch["l_discount"].to_numpy(np.float64) * 10000
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "partkey": batch["l_partkey"].astype(np.int64),
                    "rcb": cents * (10000 - bp),
                }
            )
            .groupby("partkey", sort=False)
            .sum()
            .reset_index()
        )

    per_part = (
        hash_bucket_aggregate(
            li.map_batches(partial, batch_format="pandas"),
            ["partkey"],
            [("rcb", "sum")],
        )
        .to_pandas()
        .sort_values(["rcb_sum", "partkey"], ascending=[False, True])
    )
    out_empty = pd.DataFrame(
        {"n_parts": pd.Series(dtype=np.int64),
         "k_top": pd.Series(dtype=np.int64),
         "top_share": pd.Series(dtype=np.float64)}
    )
    n = len(per_part)
    if n == 0:
        return out_empty
    k = max(1, n // 100)
    total = int(per_part["rcb_sum"].sum())
    top = int(per_part["rcb_sum"].head(k).sum())
    if total == 0:
        return out_empty
    return pd.DataFrame(
        {
            "n_parts": np.array([n], dtype=np.int64),
            "k_top": np.array([k], dtype=np.int64),
            "top_share": [float(_r6away(float(top) / float(total)))],
        }
    )


ORACLES97["part_revenue_topshare"] = """
WITH pr AS (
  SELECT l_partkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                  * (10000 - CAST(ROUND(l_discount * 10000) AS BIGINT)))
              AS BIGINT) AS r
  FROM lineitem GROUP BY 1
),
rk AS (
  SELECT r, row_number() OVER (ORDER BY r DESC, l_partkey ASC) AS rn,
         COUNT(*) OVER () AS n
  FROM pr
)
SELECT CAST(MAX(n) AS BIGINT) AS n_parts,
       CAST(GREATEST(1, MAX(n) // 100) AS BIGINT) AS k_top,
       ROUND(CAST(SUM(r) FILTER (WHERE rn <= GREATEST(1, n // 100))
                  AS DOUBLE)
             / CAST(SUM(r) AS DOUBLE), 6) AS top_share
FROM rk
HAVING SUM(r) != 0
"""


QUERIES97["user_regularity_topk"] = q_user_regularity_topk
QUERIES97["part_name_term_price"] = q_part_name_term_price
QUERIES97["part_revenue_topshare"] = q_part_revenue_topshare
