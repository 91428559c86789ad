"""Round-3 batch 22: inequality / dependence diagnostics — Lorenz spend
deciles (the cumulative-share curve behind gini_traffic, with
deterministic strict-rank decile assignment), supplier revenue HHI per
nation (market concentration of the supply side), character-bigram
conditional entropy per language (the next-char predictability that
separates natural language from boilerplate), and closed-form partial
autocorrelation at lags 1-3 via the Durbin-Levinson recursion over
ROUND-anchored ACF values.

House parity: decile assignment is the rfm_scores strict-rank rule
1 + (10*strictly_poorer)//N over integer dollar buckets (ties share a
decile); every spend/revenue sum is exact int64 cents (or cents x
discount-basis-points, the nation_trade_flows recipe); HHI and entropy
reductions are ascending-key left-folds (list_sum contract); PACF is a
pure transcribed expression over ACF values anchored at ROUND(,6) on
both sides (iqr_outliers anchor pattern), with the ACF itself the
exact-integer acf_exact kernel already verified by the `acf` query.

Scale contracts: user spend reduces through one exchange and the
dollar-bucket LUT is bounded; the bigram table is alphabet^2-bounded;
per-nation supplier folds run through bucketed_map_groups.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_join, bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _documents, _events, _r6away, event_tier
from .queries4 import _cents
from .queries14 import _fold
from .queries16 import _read

QUERIES20: dict = {}
ORACLES20: dict = {}


# ---------------------------------------------------------------------------
# Lorenz spend deciles
# ---------------------------------------------------------------------------


def q_lorenz_deciles(sf_dir: str):
    """Per spend decile of users (strict-rank over whole-dollar spend
    buckets, poorest first): user count, exact spend cents, and the
    cumulative Lorenz share — the curve whose area gap is the Gini.
    Per-user totals reduce through one exchange; the dollar-bucket LUT
    is bounded; all shares are one transcribed division over exact
    integer cumulative sums."""
    ev = _events(sf_dir, ["user_id", "value"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "c": _cents(b["value"]),
            }
        )
        .groupby("user_id", sort=False)["c"]
        .sum()
        .reset_index(),
        batch_format="pandas",
    )
    per_user = hash_bucket_aggregate(ev, ["user_id"], [("c", "sum")])
    lut = (
        hash_bucket_aggregate(
            per_user.map_batches(
                lambda b: pd.DataFrame(
                    {
                        "dollar": b["c_sum"].astype(np.int64) // 100,
                        "nu": np.ones(len(b), dtype=np.int64),
                        "sc": b["c_sum"].astype(np.int64),
                    }
                ),
                batch_format="pandas",
            ),
            ["dollar"],
            [("nu", "sum"), ("sc", "sum")],
        )
        .to_pandas()
        .sort_values("dollar")
        .reset_index(drop=True)
    )
    n = int(lut["nu_sum"].sum())
    worse = np.concatenate(([0], np.cumsum(lut["nu_sum"].to_numpy(np.int64))[:-1]))
    decile = 1 + (10 * worse) // n
    g = (
        pd.DataFrame(
            {
                "decile": decile.astype(np.int64),
                "n_users": lut["nu_sum"].astype(np.int64),
                "spend_c": lut["sc_sum"].astype(np.int64),
            }
        )
        .groupby("decile", sort=True)
        .sum()
        .reset_index()
    )
    cum = np.cumsum(g["spend_c"].to_numpy(np.int64))
    tot = int(g["spend_c"].sum())
    g["cum_share"] = [
        float(_r6away(float(int(c)) / float(tot))) for c in cum
    ]
    return g.astype({"decile": np.int64, "n_users": np.int64, "spend_c": np.int64})


ORACLES20["lorenz_deciles"] = """
WITH u AS (
  SELECT user_id,
         CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS c
  FROM events GROUP BY 1
),
b AS (
  SELECT c // 100 AS dollar, COUNT(*) AS nu, CAST(SUM(c) AS BIGINT) AS sc
  FROM u GROUP BY 1
),
r AS (
  SELECT dollar, nu, sc,
         CAST(COALESCE(SUM(nu) OVER (ORDER BY dollar
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
           AS BIGINT) AS worse,
         CAST(SUM(nu) OVER () AS BIGINT) AS n
  FROM b
),
d AS (
  SELECT 1 + (10 * worse) // n AS decile,
         CAST(SUM(nu) AS BIGINT) AS n_users,
         CAST(SUM(sc) AS BIGINT) AS spend_c
  FROM r GROUP BY 1
)
SELECT CAST(decile AS BIGINT) AS decile, n_users, spend_c,
       ROUND(CAST(SUM(spend_c) OVER (ORDER BY decile) AS DOUBLE)
             / CAST(SUM(spend_c) OVER () AS DOUBLE), 6) AS cum_share
FROM d
"""


# ---------------------------------------------------------------------------
# Supplier revenue HHI per nation
# ---------------------------------------------------------------------------


def q_supplier_hhi(sf_dir: str):
    """Per nation: the Herfindahl-Hirschman concentration of lineitem
    revenue across its suppliers (1/n = perfectly even, 1 = monopoly).
    Revenue is the exact cents x discount-basis-points integer
    (nation_trade_flows recipe); the share-square fold runs over
    ascending suppkey on both engines."""
    import pyarrow.parquet as pq

    li = _read(
        sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "suppkey": b["l_suppkey"].astype(np.int64),
                "rev": _cents(b["l_extendedprice"])
                * np.rint(
                    (1.0 - b["l_discount"].to_numpy(np.float64)) * 100
                ).astype(np.int64),
            }
        )
        .groupby("suppkey", sort=False)["rev"]
        .sum()
        .reset_index(),
        batch_format="pandas",
    )
    per_supp = hash_bucket_aggregate(li, ["suppkey"], [("rev", "sum")])
    supp = _read(sf_dir, "supplier", ["s_suppkey", "s_nationkey"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "suppkey": b["s_suppkey"].astype(np.int64),
                "nationkey": b["s_nationkey"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(per_supp, supp, on=["suppkey"], how="inner")
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nmap = dict(zip(nation["n_nationkey"].astype(np.int64), nation["n_name"]))

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("suppkey")
        tot = int(df["rev_sum"].sum())
        shares = [
            (float(int(r)) / float(tot)) * (float(int(r)) / float(tot))
            for r in df["rev_sum"]
        ]
        return pd.DataFrame(
            {
                "n_name": [nmap[int(df["nationkey"].iloc[0])]],
                "n_suppliers": np.array([len(df)], dtype=np.int64),
                "revenue_total": [float(_r6away(float(tot) / 10000.0))],
                "hhi": [float(_r6away(_fold(shares)))],
            }
        )

    return bucketed_map_groups(joined, ["nationkey"], kernel)


ORACLES20["supplier_hhi"] = """
WITH rev AS (
  SELECT l_suppkey AS s,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                  * CAST(ROUND((1.0 - l_discount) * 100) AS BIGINT))
           AS BIGINT) AS r
  FROM lineitem GROUP BY 1
),
j AS (
  SELECT su.s_nationkey AS nk, rev.s, rev.r
  FROM rev JOIN supplier su ON su.s_suppkey = rev.s
),
t AS (
  SELECT nk, CAST(SUM(r) AS BIGINT) AS tot, COUNT(*) AS ns
  FROM j GROUP BY 1
),
h AS (
  SELECT j.nk,
         list_sum(list((CAST(j.r AS DOUBLE) / CAST(t.tot AS DOUBLE))
                       * (CAST(j.r AS DOUBLE) / CAST(t.tot AS DOUBLE))
                       ORDER BY j.s)) AS hhi
  FROM j JOIN t ON t.nk = j.nk
  GROUP BY j.nk
)
SELECT n.n_name,
       CAST(t.ns AS BIGINT) AS n_suppliers,
       ROUND(CAST(t.tot AS DOUBLE) / 10000.0, 6) AS revenue_total,
       ROUND(h.hhi, 6) AS hhi
FROM t JOIN h ON h.nk = t.nk
JOIN nation n ON n.n_nationkey = t.nk
"""


# ---------------------------------------------------------------------------
# Character-bigram conditional entropy per language
# ---------------------------------------------------------------------------


def q_char_cond_entropy(sf_dir: str):
    """Per language: H(next char | current char) = H(bigram) -
    H(first-char marginal) in nats, plus the per-char perplexity
    exp(H) — natural text sits far below the uniform ceiling while
    gibberish doesn't. One alphabet^2-bounded exchange of exact bigram
    counts; both entropies fold over ascending bigram key."""
    docs = _documents(sf_dir, ["lang", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        rows: dict = {}
        for lang, text in zip(batch["lang"], batch["text"]):
            t = text or ""
            for i in range(len(t) - 1):
                key = (lang, t[i : i + 2])
                rows[key] = rows.get(key, 0) + 1
        keys = list(rows)
        return pd.DataFrame(
            {
                "lang": [k[0] for k in keys],
                "bg": [k[1] for k in keys],
                "m": np.array([rows[k] for k in keys], dtype=np.int64),
            }
        )

    agg = hash_bucket_aggregate(
        docs.map_batches(partial, batch_format="pandas"),
        ["lang", "bg"],
        [("m", "sum")],
    ).to_pandas()
    rows = []
    for lang, g in agg.groupby("lang", sort=True):
        g = g.sort_values("bg")
        s = int(g["m_sum"].sum())
        f12 = _fold(
            [float(int(m)) * math.log(float(int(m))) for m in g["m_sum"]]
        )
        h12 = math.log(float(s)) - f12 / float(s)
        marg = (
            g.assign(c1=g["bg"].str[:1])
            .groupby("c1", sort=True)["m_sum"]
            .sum()
            .astype(np.int64)
        )
        f1 = _fold([float(int(m)) * math.log(float(int(m))) for m in marg])
        h1 = math.log(float(s)) - f1 / float(s)
        cond = h12 - h1
        rows.append(
            (
                lang,
                s,
                float(_r6away(h12)),
                float(_r6away(h1)),
                float(_r6away(cond)),
                float(_r6away(math.exp(cond))),
            )
        )
    return pd.DataFrame(
        rows,
        columns=["lang", "n_bigrams", "h_bigram", "h_marginal", "cond_entropy",
                 "perplexity"],
    ).astype({"n_bigrams": np.int64})


ORACLES20["char_cond_entropy"] = """
WITH bg AS (
  SELECT lang,
         UNNEST(list_transform(range(0, length(text) - 1),
                               i -> substr(text, CAST(i AS INT) + 1, 2))) AS bg
  FROM documents
),
c AS (SELECT lang, bg, COUNT(*) AS m FROM bg GROUP BY 1, 2),
a AS (
  SELECT lang,
         CAST(SUM(m) AS BIGINT) AS s,
         list_sum(list(CAST(m AS DOUBLE) * ln(CAST(m AS DOUBLE))
                       ORDER BY bg)) AS f12
  FROM c GROUP BY 1
),
mg AS (
  SELECT lang, substr(bg, 1, 1) AS c1, CAST(SUM(m) AS BIGINT) AS m
  FROM c GROUP BY 1, 2
),
a1 AS (
  SELECT lang,
         list_sum(list(CAST(m AS DOUBLE) * ln(CAST(m AS DOUBLE))
                       ORDER BY c1)) AS f1
  FROM mg GROUP BY 1
)
SELECT a.lang,
       a.s AS n_bigrams,
       ROUND(ln(CAST(a.s AS DOUBLE)) - a.f12 / CAST(a.s AS DOUBLE), 6)
         AS h_bigram,
       ROUND(ln(CAST(a.s AS DOUBLE)) - a1.f1 / CAST(a.s AS DOUBLE), 6)
         AS h_marginal,
       ROUND((ln(CAST(a.s AS DOUBLE)) - a.f12 / CAST(a.s AS DOUBLE))
             - (ln(CAST(a.s AS DOUBLE)) - a1.f1 / CAST(a.s AS DOUBLE)), 6)
         AS cond_entropy,
       ROUND(exp((ln(CAST(a.s AS DOUBLE)) - a.f12 / CAST(a.s AS DOUBLE))
                 - (ln(CAST(a.s AS DOUBLE)) - a1.f1 / CAST(a.s AS DOUBLE))), 6)
         AS perplexity
FROM a JOIN a1 USING (lang)
"""


# ---------------------------------------------------------------------------
# Closed-form PACF (lags 1-3)
# ---------------------------------------------------------------------------


def q_pacf(sf_dir: str):
    """Per event type: partial autocorrelation at lags 1-3 via the
    Durbin-Levinson closed forms over the SAME exact-integer ACF as the
    `acf` query, with each r_k anchored at ROUND(,6) before the
    recursion so both engines transform identical doubles:
    phi11 = r1; phi22 = (r2 - r1^2)/(1 - r1^2); phi21 = r1 - phi22*r1;
    phi33 = (r3 - phi21*r2 - phi22*r1)/(1 - phi21*r1 - phi22*r2)."""
    from ..kernels.seasonal import acf_exact, dense_counts
    from .queries3 import _bucket_us

    HOUR_US = 3_600_000_000

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        if x.size <= 3:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "pacf1": pd.Series(dtype=np.float64),
                    "pacf2": pd.Series(dtype=np.float64),
                    "pacf3": pd.Series(dtype=np.float64),
                }
            )
        _, r = acf_exact(x, 3)
        r1 = float(_r6away(r[0]))
        r2 = float(_r6away(r[1]))
        r3 = float(_r6away(r[2]))
        phi22 = (r2 - r1 * r1) / (1.0 - r1 * r1)
        phi21 = r1 - phi22 * r1
        phi33 = (r3 - phi21 * r2 - phi22 * r1) / (1.0 - phi21 * r1 - phi22 * r2)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "pacf1": [r1],
                "pacf2": [float(_r6away(phi22))],
                "pacf3": [float(_r6away(phi33))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


from .queries3 import _DENSE_1H  # noqa: E402  (per-type dense grid fragment)

ORACLES20["pacf"] = """
WITH """ + _DENSE_1H + """,
s AS (
  SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(x*x) AS sxx
  FROM d GROUP BY 1
),
ks AS (SELECT UNNEST(generate_series(1, 3)) AS k),
pq AS (
  SELECT a.event_type, ks.k,
         SUM(a.x * b.x) AS p, SUM(a.x + b.x) AS q
  FROM d a
  CROSS JOIN ks
  JOIN d b ON b.event_type = a.event_type AND b.idx = a.idx + ks.k
  GROUP BY 1, 2
),
acf AS (
  SELECT s.event_type, pq.k,
         ROUND((CAST(p AS DOUBLE) - (CAST(sx AS DOUBLE)/n) * CAST(q AS DOUBLE)
                + (n - pq.k) * (CAST(sx AS DOUBLE)/n) * (CAST(sx AS DOUBLE)/n))
               / (CAST(sxx AS DOUBLE)
                  - (CAST(sx AS DOUBLE)/n) * CAST(sx AS DOUBLE)), 6) AS r
  FROM pq JOIN s USING (event_type)
  WHERE s.n > 3
),
piv AS (
  SELECT event_type,
         MAX(CASE WHEN k = 1 THEN r END) AS r1,
         MAX(CASE WHEN k = 2 THEN r END) AS r2,
         MAX(CASE WHEN k = 3 THEN r END) AS r3
  FROM acf GROUP BY 1
),
lvl2 AS (
  SELECT event_type, r1, r2, r3,
         (r2 - r1 * r1) / (1.0 - r1 * r1) AS phi22
  FROM piv
),
lvl3 AS (
  SELECT event_type, r1, r2, r3, phi22,
         r1 - phi22 * r1 AS phi21
  FROM lvl2
)
SELECT event_type,
       r1 AS pacf1,
       ROUND(phi22, 6) AS pacf2,
       ROUND((r3 - phi21 * r2 - phi22 * r1)
             / (1.0 - phi21 * r1 - phi22 * r2), 6) AS pacf3
FROM lvl3
"""


QUERIES20["lorenz_deciles"] = q_lorenz_deciles
QUERIES20["supplier_hhi"] = q_supplier_hhi
QUERIES20["char_cond_entropy"] = q_char_cond_entropy
QUERIES20["pacf"] = q_pacf
