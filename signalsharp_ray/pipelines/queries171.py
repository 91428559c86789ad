"""Round-5 batch 171: autocorrelation-robust uncertainty and a second
distribution distance — the Newey-West (1987, Bartlett kernel, lag 5)
long-run variance of the daily load with the effective sample size it
implies (how many INDEPENDENT days of data do we really have?), and
the Szekely energy distance between the two busiest types' value
distributions (the companion metric to the Wasserstein query: energy
weights squared CDF differences, so it is more sensitive to shape than
to location).

House parity strategy: autocovariances fold ascending over the bounded
daily series with an exact integer mean numerator; the Bartlett
weights (1 - k/6) are shared literals; the energy integrals reuse the
Wasserstein machinery — exact centivalue step CDFs, integer gaps,
ascending-value folds.

Scale contracts: NW rides the bounded daily rollup; energy distance's
merged support is the bounded distinct-centivalue exchange."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _events, _r6, event_tier

QUERIES171: dict = {}
ORACLES171: dict = {}

_NW_L = 5


def q_newey_west_lrv(sf_dir: str):
    """Per event_type: Newey-West long-run variance of the daily count
    series (Bartlett kernel, 5 lags) — lrv = c0 + 2 sum (1 - k/6) c_k —
    the autocorrelation-robust denominator for any mean comparison,
    plus the effective sample size n_eff = n c0 / lrv and the robust
    standard error of the mean. Output (event_type, n, c0, lrv, n_eff,
    se_mean)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: [] for c in ["event_type", "n", "c0", "lrv", "n_eff",
                             "se_mean"]}
        )
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        if n <= _NW_L + 1:
            return empty
        sv = int(v.sum())
        mu = float(sv) / float(n)
        c = v.astype(np.float64) - mu
        c0 = float(np.cumsum(c * c)[-1]) / float(n)
        if c0 <= 0.0:
            return empty
        lrv = c0
        for k in range(1, _NW_L + 1):  # ascending-k fold
            ck = float(np.cumsum(c[: n - k] * c[k:])[-1]) / float(n)
            lrv = lrv + 2.0 * (1.0 - float(k) / 6.0) * ck
        if lrv <= 0.0:
            return empty
        n_eff = float(n) * c0 / lrv
        se = math.sqrt(lrv / float(n))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n": np.array([n], dtype=np.int64),
                "c0": _r6(np.array([c0])),
                "lrv": _r6(np.array([lrv])),
                "n_eff": _r6(np.array([n_eff])),
                "se_mean": _r6(np.array([se])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


QUERIES171["newey_west_lrv"] = q_newey_west_lrv
ORACLES171["newey_west_lrv"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY d) AS vs, COUNT(*) AS n,
         SUM(v) / COUNT(*) AS mu
  FROM s GROUP BY 1 HAVING COUNT(*) > 6
),
c0 AS (
  SELECT event_type, vs, n, mu,
         list_sum(list_transform(range(0, n),
           t -> (vs[t + 1] - mu) * (vs[t + 1] - mu))) / n AS c0
  FROM a
),
ck AS (
  SELECT c.event_type, c.n, c.c0, k.k,
         list_sum(list_transform(range(0, c.n - k.k),
           t -> (c.vs[t + 1] - c.mu) * (c.vs[t + k.k + 1] - c.mu))) / c.n
           AS ckv
  FROM c0 c, UNNEST(range(1, 6)) AS k(k)
  WHERE c.c0 > 0
),
lr AS (
  SELECT event_type, ANY_VALUE(n) AS n, ANY_VALUE(c0) AS c0,
         ANY_VALUE(c0)
           + list_sum(list(2.0 * (1.0 - CAST(k AS DOUBLE) / 6.0) * ckv
                           ORDER BY k)) AS lrv
  FROM ck GROUP BY 1
)
SELECT event_type, CAST(n AS BIGINT) AS n,
       ROUND(c0, 6) AS c0, ROUND(lrv, 6) AS lrv,
       ROUND(CAST(n AS DOUBLE) * c0 / lrv, 6) AS n_eff,
       ROUND(sqrt(lrv / CAST(n AS DOUBLE)), 6) AS se_mean
FROM lr WHERE lrv > 0
"""


def q_energy_distance(sf_dir: str):
    """Szekely energy distance between the two busiest event types'
    value distributions over exact centivalues: D^2 = 2 E|X-Y| -
    E|X-X'| - E|Y-Y'|, each expectation an integral of CDF products
    over the merged support. Output (type_a, type_b, n_a, n_b, e_xy,
    e_xx, e_yy, energy_d2)."""
    from ..common.raytools import hash_bucket_aggregate

    ev = _events(sf_dir, ["event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["value"].to_numpy(np.float64) * 100.0
        cents = (np.sign(v) * np.floor(np.abs(v) + 0.5)).astype(np.int64)
        return pd.DataFrame(
            {"event_type": batch["event_type"], "cents": cents}
        )

    agg = (
        hash_bucket_aggregate(
            ev.map_batches(partial, batch_format="pandas"),
            ["event_type", "cents"],
            [],
            count_alias="n",
        )
        .to_pandas()
    )
    totals = agg.groupby("event_type")["n"].sum().astype(np.int64)
    order = sorted(totals.index, key=lambda t: (-int(totals[t]), t))
    a, b = order[0], order[1]
    na, nb = int(totals[a]), int(totals[b])
    ca = agg[agg["event_type"] == a].set_index("cents")["n"]
    cb = agg[agg["event_type"] == b].set_index("cents")["n"]
    support = sorted(set(ca.index) | set(cb.index))
    exy = exx = eyy = 0.0
    cum_a = 0
    cum_b = 0
    for i, x in enumerate(support[:-1]):  # ascending-value fold
        cum_a += int(ca.get(x, 0))
        cum_b += int(cb.get(x, 0))
        fa = float(cum_a) / float(na)
        fb = float(cum_b) / float(nb)
        gap = float(support[i + 1] - x)
        exy += (fa * (1.0 - fb) + fb * (1.0 - fa)) * gap
        exx += (2.0 * fa * (1.0 - fa)) * gap
        eyy += (2.0 * fb * (1.0 - fb)) * gap
    d2 = 2.0 * exy - exx - eyy
    return pd.DataFrame(
        {
            "type_a": [a],
            "type_b": [b],
            "n_a": np.array([na], dtype=np.int64),
            "n_b": np.array([nb], dtype=np.int64),
            "e_xy": _r6(np.array([exy / 100.0])),
            "e_xx": _r6(np.array([exx / 100.0])),
            "e_yy": _r6(np.array([eyy / 100.0])),
            "energy_d2": _r6(np.array([d2 / 100.0])),
        }
    )


QUERIES171["energy_distance"] = q_energy_distance
ORACLES171["energy_distance"] = """
WITH tc AS (SELECT event_type, COUNT(*) AS n FROM events GROUP BY 1),
t2 AS (
  SELECT event_type,
         row_number() OVER (ORDER BY n DESC, event_type ASC) AS rk
  FROM tc QUALIFY rk <= 2
),
c AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS cents,
         COUNT(*) AS n
  FROM events WHERE event_type IN (SELECT event_type FROM t2)
  GROUP BY 1, 2
),
sup AS (SELECT DISTINCT cents FROM c),
na_ AS (SELECT SUM(n) AS na FROM c
        WHERE event_type = (SELECT event_type FROM t2 WHERE rk = 1)),
nb_ AS (SELECT SUM(n) AS nb FROM c
        WHERE event_type = (SELECT event_type FROM t2 WHERE rk = 2)),
steps AS (
  SELECT sup.cents,
         SUM(CASE WHEN c.event_type =
                  (SELECT event_type FROM t2 WHERE rk = 1)
                  THEN c.n ELSE 0 END) AS da,
         SUM(CASE WHEN c.event_type =
                  (SELECT event_type FROM t2 WHERE rk = 2)
                  THEN c.n ELSE 0 END) AS db
  FROM sup LEFT JOIN c ON c.cents = sup.cents
  GROUP BY 1
),
cdf AS (
  SELECT cents,
         SUM(da) OVER (ORDER BY cents) AS cum_a,
         SUM(db) OVER (ORDER BY cents) AS cum_b,
         lead(cents) OVER (ORDER BY cents) AS nxt
  FROM steps
),
terms AS (
  SELECT cents,
         (CAST(cum_a AS DOUBLE) / CAST(na_.na AS DOUBLE)
            * (1.0 - CAST(cum_b AS DOUBLE) / CAST(nb_.nb AS DOUBLE))
          + CAST(cum_b AS DOUBLE) / CAST(nb_.nb AS DOUBLE)
            * (1.0 - CAST(cum_a AS DOUBLE) / CAST(na_.na AS DOUBLE)))
           * CAST(nxt - cents AS DOUBLE) AS txy,
         (2.0 * (CAST(cum_a AS DOUBLE) / CAST(na_.na AS DOUBLE))
              * (1.0 - CAST(cum_a AS DOUBLE) / CAST(na_.na AS DOUBLE)))
           * CAST(nxt - cents AS DOUBLE) AS txx,
         (2.0 * (CAST(cum_b AS DOUBLE) / CAST(nb_.nb AS DOUBLE))
              * (1.0 - CAST(cum_b AS DOUBLE) / CAST(nb_.nb AS DOUBLE)))
           * CAST(nxt - cents AS DOUBLE) AS tyy
  FROM cdf, na_, nb_ WHERE nxt IS NOT NULL
),
f AS (
  SELECT list_sum(list(txy ORDER BY cents)) AS exy,
         list_sum(list(txx ORDER BY cents)) AS exx,
         list_sum(list(tyy ORDER BY cents)) AS eyy
  FROM terms
)
SELECT (SELECT event_type FROM t2 WHERE rk = 1) AS type_a,
       (SELECT event_type FROM t2 WHERE rk = 2) AS type_b,
       CAST(na_.na AS BIGINT) AS n_a,
       CAST(nb_.nb AS BIGINT) AS n_b,
       ROUND(f.exy / 100.0, 6) AS e_xy,
       ROUND(f.exx / 100.0, 6) AS e_xx,
       ROUND(f.eyy / 100.0, 6) AS e_yy,
       ROUND((2.0 * f.exy - f.exx - f.eyy) / 100.0, 6) AS energy_d2
FROM f, na_, nb_
"""
