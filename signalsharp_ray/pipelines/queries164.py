"""Round-5 batch 164: nonparametric break/goodness-of-fit/survival
companions — the Pettitt test (1979: the rank-based changepoint test,
robust where cusum_break_ttest's means are not), the Anderson-Darling
statistic against a uniform time-of-day law (the tail-sensitive upgrade
of the existing KS uniformity check), and the Nelson-Aalen cumulative
hazard (the other canonical survival estimator beside the verified
kaplan_meier, same lifetimes, same censoring rule).

House parity strategy: Pettitt's U_k is a pure integer double sum
(sign comparisons) with an argmax tied to the smallest k; the AD fold
runs over the sorted fractional time-of-day (an exact microsecond
ratio) with libm ln in ascending rank order; Nelson-Aalen reuses the
KM oracle's risk-set construction with H(t) an ascending-death-time
fold of exact-count ratios.

Scale contracts: Pettitt rides the bounded daily rollup (O(n^2) on a
30-point series); AD is a per-series sorted fold; Nelson-Aalen's
per-user min/max is the same one bucketed exchange KM uses."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _events, _r6, event_tier
from .queries125 import DAY_US, KM_CENSOR_DAYS

QUERIES164: dict = {}
ORACLES164: dict = {}


def q_pettitt_test(sf_dir: str):
    """Per event_type: the Pettitt rank changepoint test on the daily
    count series — U_k = sum_{i<=k, j>k} sgn(v_j - v_i); the break is
    argmax |U_k| (smallest k on ties) and the approximate significance
    is p ~ 2 exp(-6 U^2 / (n^3 + n^2)). Output (event_type, k_star,
    u_stat, p_approx)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        if n < 4:
            return pd.DataFrame(
                {"event_type": [], "k_star": [], "u_stat": [],
                 "p_approx": []}
            )
        sgn = np.sign(v[None, :] - v[:, None]).astype(np.int64)  # [i, j]
        best_k, best_u, best_abs = 0, 0, -1
        for k in range(1, n):  # ascending k; first max wins
            u = int(sgn[:k, k:].sum())
            if abs(u) > best_abs:
                best_abs, best_u, best_k = abs(u), u, k
        p = 2.0 * math.exp(
            -6.0 * float(best_u) * float(best_u)
            / (float(n) ** 3 + float(n) ** 2)
        )
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "k_star": np.array([best_k], dtype=np.int64),
                "u_stat": np.array([best_u], dtype=np.int64),
                "p_approx": _r6(np.array([p])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


QUERIES164["pettitt_test"] = q_pettitt_test
ORACLES164["pettitt_test"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, COUNT(*) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY d) AS vs, COUNT(*) AS n
  FROM s GROUP BY 1 HAVING COUNT(*) >= 4
),
u AS (
  SELECT a.event_type, a.n, k.k,
         CAST(list_sum(list_transform(range(1, k.k + 1),
           i -> list_sum(list_transform(range(k.k + 1, a.n + 1),
             j -> CASE WHEN a.vs[j] > a.vs[i] THEN 1
                       WHEN a.vs[j] < a.vs[i] THEN -1 ELSE 0 END))))
           AS BIGINT) AS uk
  FROM a, UNNEST(range(1, a.n)) AS k(k)
),
b AS (
  SELECT event_type, n, k AS k_star, uk,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY abs(uk) DESC, k ASC) AS rk
  FROM u QUALIFY rk = 1
)
SELECT event_type, CAST(k_star AS BIGINT) AS k_star,
       CAST(uk AS BIGINT) AS u_stat,
       ROUND(2.0 * exp(-6.0 * CAST(uk AS DOUBLE) * CAST(uk AS DOUBLE)
             / (pow(CAST(n AS DOUBLE), 3)
                + pow(CAST(n AS DOUBLE), 2))), 6) AS p_approx
FROM b
"""


def q_anderson_darling_tod(sf_dir: str):
    """Per event_type: the Anderson-Darling statistic of fractional
    time-of-day against Uniform[0,1) — weights the tails (midnight/
    late-night deviations) where the existing KS check is blind.
    Events landing exactly on a day boundary (frac = 0) are excluded by
    BOTH engines (ln 0 guard). Output (event_type, n, ad_stat)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        us = df["ts"].to_numpy("datetime64[us]").view(np.int64)
        frac = (us % DAY_US) / float(DAY_US)
        frac = frac[frac > 0.0]
        n = len(frac)
        if n < 2:
            return pd.DataFrame({"event_type": [], "n": [], "ad_stat": []})
        x = np.sort(frac)
        s = 0.0
        for i in range(1, n + 1):  # ascending-rank fold, libm ln
            s += (2.0 * i - 1.0) * (
                math.log(x[i - 1]) + math.log(1.0 - x[n - i])
            )
        ad = -float(n) - s / float(n)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "ad_stat": _r6(np.array([ad])),
            }
        )

    return bucketed_map_groups(_events(sf_dir, ["ts", "event_type"]), ["event_type"], fn)


QUERIES164["anderson_darling_tod"] = q_anderson_darling_tod
ORACLES164["anderson_darling_tod"] = """
WITH f AS (
  SELECT event_type,
         CAST(epoch_us(ts) % 86400000000 AS DOUBLE) / 86400000000.0 AS x
  FROM events
  WHERE epoch_us(ts) % 86400000000 > 0
),
a AS (
  SELECT event_type, list(x ORDER BY x) AS xs, COUNT(*) AS n
  FROM f GROUP BY 1 HAVING COUNT(*) >= 2
),
s AS (
  SELECT event_type, n,
         list_sum(list_transform(range(1, n + 1),
           i -> (2.0 * i - 1.0)
                * (ln(xs[i]) + ln(1.0 - xs[n - i + 1])))) AS acc
  FROM a
)
SELECT event_type, CAST(n AS BIGINT) AS n,
       ROUND(-CAST(n AS DOUBLE) - acc / CAST(n AS DOUBLE), 6) AS ad_stat
FROM s
"""


def q_nelson_aalen(sf_dir: str):
    """Nelson-Aalen cumulative hazard over user lifetimes (same
    lifetimes and 3-day right-censoring rule as the verified
    kaplan_meier): H(t) = sum_{t_i <= t} d_i / n_i over ascending death
    times, with the Breslow survival exp(-H). Output (t_days, n_risk,
    n_deaths, cum_hazard, survival_breslow)."""
    from ..common.raytools import hash_bucket_aggregate

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (
            batch["ts"].to_numpy("datetime64[us]").view(np.int64) // DAY_US
        )
        return (
            pd.DataFrame(
                {
                    "user_id": batch["user_id"].to_numpy(np.int64),
                    "f": day,
                    "l": day,
                }
            )
            .groupby("user_id", sort=False)
            .agg(f=("f", "min"), l=("l", "max"))
            .reset_index()
        )

    users = hash_bucket_aggregate(
        _events(sf_dir, ["user_id", "ts"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["user_id"],
        [("f", "min"), ("l", "max")],
    )
    end_day = int(users.max("l_max"))

    def lifetimes(batch: pd.DataFrame) -> pd.DataFrame:
        lt = (batch["l_max"] - batch["f_min"]).to_numpy(np.int64)
        cens = (
            batch["l_max"].to_numpy(np.int64)
            >= end_day - (KM_CENSOR_DAYS - 1)
        ).astype(np.int64)
        return (
            pd.DataFrame(
                {"t": lt, "cens": cens,
                 "n": np.ones(len(batch), dtype=np.int64)}
            )
            .groupby(["t", "cens"], sort=False)
            .sum()
            .reset_index()
        )

    counts = (
        hash_bucket_aggregate(
            users.map_batches(lifetimes, batch_format="pandas"),
            ["t", "cens"],
            [("n", "sum")],
        )
        .to_pandas()
        .sort_values(["t", "cens"])
    )
    ts = sorted(counts["t"].unique())
    total_at = {
        int(t): int(counts[counts["t"] == t]["n_sum"].sum()) for t in ts
    }
    deaths_at = {
        int(t): int(
            counts[(counts["t"] == t) & (counts["cens"] == 0)]["n_sum"].sum()
        )
        for t in ts
    }
    total_users = sum(total_at.values())
    rows = []
    h = 0.0
    removed = 0
    for t in ts:
        n_risk = total_users - removed
        d = deaths_at[int(t)]
        if d > 0:
            h = h + float(d) / float(n_risk)
            rows.append(
                (
                    int(t),
                    n_risk,
                    d,
                    float(_r6(np.array([h]))[0]),
                    float(_r6(np.array([math.exp(-h)]))[0]),
                )
            )
        removed += total_at[int(t)]
    return pd.DataFrame(
        rows,
        columns=["t_days", "n_risk", "n_deaths", "cum_hazard",
                 "survival_breslow"],
    ).astype(
        {"t_days": np.int64, "n_risk": np.int64, "n_deaths": np.int64}
    )


QUERIES164["nelson_aalen"] = q_nelson_aalen
ORACLES164["nelson_aalen"] = f"""
WITH u AS (
  SELECT user_id,
         MIN(epoch_us(ts) // 86400000000) AS f,
         MAX(epoch_us(ts) // 86400000000) AS l
  FROM events GROUP BY 1
),
p AS (SELECT MAX(l) AS end_day FROM u),
lt AS (
  SELECT l - f AS t,
         CASE WHEN l >= p.end_day - {KM_CENSOR_DAYS - 1} THEN 1 ELSE 0 END
           AS cens
  FROM u CROSS JOIN p
),
d AS (
  SELECT t, COUNT(*) FILTER (WHERE cens = 0) AS deaths
  FROM lt GROUP BY 1
),
risk AS (
  SELECT d.t, d.deaths,
         (SELECT COUNT(*) FROM lt WHERE lt.t >= d.t) AS n_risk
  FROM d WHERE d.deaths > 0
),
hz AS (
  SELECT r.t, r.n_risk, r.deaths,
         (SELECT list_sum(list(
            CAST(r2.deaths AS DOUBLE) / CAST(r2.n_risk AS DOUBLE)
            ORDER BY r2.t))
          FROM risk r2 WHERE r2.t <= r.t) AS h
  FROM risk r
)
SELECT t AS t_days, CAST(n_risk AS BIGINT) AS n_risk,
       CAST(deaths AS BIGINT) AS n_deaths,
       ROUND(h, 6) AS cum_hazard,
       ROUND(exp(-h), 6) AS survival_breslow
FROM hz
"""
