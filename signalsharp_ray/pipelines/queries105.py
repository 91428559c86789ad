"""Round-3 batch 107: engine-invariant and concentration operators —
the tier value-conservation audit (the hourly cascade's exact
centivalue sums must equal a direct raw pass, exposed per type as a
driver-checkable invariant), the top-5 word bigrams per source (the
phrase-level counterpart to topk_terms_by_source), and the value share
of the 10 highest-spending users.

House parity: both sides of the conservation audit reduce to the same
exact integer sums (the engine side genuinely runs the rollup cascade;
the oracle recomputes the raw pass twice — equality is the invariant
under test); bigram counts are exact with (count DESC, bigram ASC)
selection; value concentration orders exact centivalue totals with
(sum DESC, user ASC).

Scale contracts: the audit is one rollup plus one raw aggregate;
bigrams reduce per (source, bigram) through one exchange; the
concentration pre-reduces per user.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import hash_bucket_aggregate
from .queries2 import _documents, _events, _r6away
from .queries16 import _read, _TOKEN_RE

QUERIES105: dict = {}
ORACLES105: dict = {}


# ---------------------------------------------------------------------------
# Tier value conservation audit
# ---------------------------------------------------------------------------


def q_tier_value_conservation(sf_dir: str):
    """Per event_type: the raw exact centivalue sum, the sum recovered
    from the 1m -> 1h cascade tiers, and the conservation flag (1 when
    bitwise equal). The engine side REALLY runs the cascade — a broken
    merge shows up as conserved = 0 rows the driver hash-catches."""
    from .queries import _events_v100
    from ..stages.rollup import cascade_tier, rollup_tier

    t1m = rollup_tier(_events_v100(sf_dir), "1m", key_cols=["event_type"])
    t1h = cascade_tier(t1m, "1h", key_cols=["event_type"])
    tier_sums = (
        hash_bucket_aggregate(
            t1h.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "event_type": b["event_type"],
                        "s": b["sum"].astype(np.int64),
                        "n": b["count"].astype(np.int64),
                    }
                )
                .groupby("event_type", sort=False)
                .sum()
                .reset_index(),
                batch_format="pandas",
            ),
            ["event_type"],
            [("s", "sum"), ("n", "sum")],
        )
        .to_pandas()
        .set_index("event_type")
    )

    def raw_partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["value"].to_numpy(np.float64) * 100
        c = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        return (
            pd.DataFrame(
                {
                    "event_type": batch["event_type"],
                    "s": c,
                    "n": np.ones(len(c), dtype=np.int64),
                }
            )
            .groupby("event_type", sort=False)
            .sum()
            .reset_index()
        )

    raw = (
        hash_bucket_aggregate(
            _events(sf_dir, ["event_type", "value"]).map_batches(
                raw_partial, batch_format="pandas"
            ),
            ["event_type"],
            [("s", "sum"), ("n", "sum")],
        )
        .to_pandas()
        .sort_values("event_type")
    )
    rows = []
    for _, r in raw.iterrows():
        et = r["event_type"]
        rs, rn = int(r["s_sum"]), int(r["n_sum"])
        ts_ = int(tier_sums.loc[et, "s_sum"]) if et in tier_sums.index else 0
        tn = int(tier_sums.loc[et, "n_sum"]) if et in tier_sums.index else 0
        rows.append(
            (
                et,
                rn,
                float(_r6away(float(rs) / 100.0)),
                float(_r6away(float(ts_) / 100.0)),
                int(rs == ts_ and rn == tn),
            )
        )
    return pd.DataFrame(
        rows,
        columns=["event_type", "n_events", "raw_sum", "tier_sum",
                 "conserved"],
    ).astype({"n_events": np.int64, "conserved": np.int64})


ORACLES105["tier_value_conservation"] = """
WITH r AS (
  SELECT event_type, COUNT(*) AS n,
         CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1
)
SELECT event_type, CAST(n AS BIGINT) AS n_events,
       ROUND(CAST(s AS DOUBLE) / 100.0, 6) AS raw_sum,
       ROUND(CAST(s AS DOUBLE) / 100.0, 6) AS tier_sum,
       CAST(1 AS BIGINT) AS conserved
FROM r
"""


# ---------------------------------------------------------------------------
# Top bigrams per source
# ---------------------------------------------------------------------------


def q_top_bigrams_by_source(sf_dir: str, k: int = 5):
    """Top-5 word bigrams per source (count DESC, bigram ASC), with
    ranks — phrase-level vocabulary fingerprint."""
    docs = _documents(sf_dir, ["source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows: dict = {}
        for s, text in zip(batch["source"], batch["text"]):
            toks = _TOKEN_RE.findall((text or "").lower())
            for i in range(len(toks) - 1):
                key = (s, toks[i] + " " + toks[i + 1])
                rows[key] = rows.get(key, 0) + 1
        keys = list(rows)
        return pd.DataFrame(
            {
                "source": [x[0] for x in keys],
                "bigram": [x[1] for x in keys],
                "n": np.array([rows[x] for x in keys], dtype=np.int64),
            }
        )

    agg = hash_bucket_aggregate(
        docs.map_batches(partial, batch_format="pandas"),
        ["source", "bigram"],
        [("n", "sum")],
    ).to_pandas()
    agg = agg.sort_values(
        ["source", "n_sum", "bigram"], ascending=[True, False, True]
    )
    top = agg.groupby("source", sort=False).head(k)
    top = top.assign(
        rank=top.groupby("source", sort=False).cumcount().to_numpy(np.int64)
        + 1
    )
    return pd.DataFrame(
        {
            "source": top["source"].astype(str),
            "rank": top["rank"].astype(np.int64),
            "bigram": top["bigram"].astype(str),
            "n": top["n_sum"].astype(np.int64),
        }
    ).reset_index(drop=True)


ORACLES105["top_bigrams_by_source"] = """
WITH t AS (
  SELECT source,
         regexp_extract_all(lower(COALESCE(text, '')),
                            '[\\p{L}\\p{N}_]+') AS toks
  FROM documents
),
bg AS (
  SELECT source,
         UNNEST(list_transform(range(len(toks) - 1),
                               i -> toks[i+1] || ' ' || toks[i+2])) AS bigram
  FROM t WHERE len(toks) >= 2
),
c AS (SELECT source, bigram, COUNT(*) AS n FROM bg GROUP BY 1, 2),
rk AS (
  SELECT source, bigram, n,
         row_number() OVER (PARTITION BY source
                            ORDER BY n DESC, bigram ASC) AS rank
  FROM c QUALIFY rank <= 5
)
SELECT source, CAST(rank AS BIGINT) AS rank, bigram, CAST(n AS BIGINT) AS n
FROM rk
"""


# ---------------------------------------------------------------------------
# User value concentration
# ---------------------------------------------------------------------------


def q_user_value_concentration(sf_dir: str):
    """One global row: the share of total event value carried by the 10
    highest-spending users ((centivalue sum DESC, user ASC) order)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["value"].to_numpy(np.float64) * 100
        c = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        return (
            pd.DataFrame(
                {"user_id": batch["user_id"].astype(np.int64), "s": c}
            )
            .groupby("user_id", sort=False)
            .sum()
            .reset_index()
        )

    per_user = (
        hash_bucket_aggregate(
            _events(sf_dir, ["user_id", "value"]).map_batches(
                partial, batch_format="pandas"
            ),
            ["user_id"],
            [("s", "sum")],
        )
        .to_pandas()
        .sort_values(["s_sum", "user_id"], ascending=[False, True])
    )
    out_empty = pd.DataFrame(
        {"n_users": pd.Series(dtype=np.int64),
         "top10_share": pd.Series(dtype=np.float64)}
    )
    n = len(per_user)
    if n == 0:
        return out_empty
    total = int(per_user["s_sum"].sum())
    if total == 0:
        return out_empty
    top = int(per_user["s_sum"].head(10).sum())
    return pd.DataFrame(
        {
            "n_users": np.array([n], dtype=np.int64),
            "top10_share": [float(_r6away(float(top) / float(total)))],
        }
    )


ORACLES105["user_value_concentration"] = """
WITH pu AS (
  SELECT user_id,
         CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS s
  FROM events GROUP BY 1
),
rk AS (
  SELECT s, row_number() OVER (ORDER BY s DESC, user_id ASC) AS r FROM pu
)
SELECT CAST(COUNT(*) AS BIGINT) AS n_users,
       ROUND(CAST(SUM(s) FILTER (WHERE r <= 10) AS DOUBLE)
             / CAST(SUM(s) AS DOUBLE), 6) AS top10_share
FROM rk
HAVING SUM(s) != 0
"""


QUERIES105["tier_value_conservation"] = q_tier_value_conservation
QUERIES105["top_bigrams_by_source"] = q_top_bigrams_by_source
QUERIES105["user_value_concentration"] = q_user_value_concentration
