"""Round-3 batch 75: variance-decomposition operators — a one-way
ANOVA of hourly counts across the 24 hour-of-day groups per event_type
(is the diurnal pattern statistically real, the F complement to
chi2_hour_of_day), a one-way ANOVA of part retail prices across part
types, and the day-to-day volatility of each event_type's share of
total traffic.

House parity: every group sum is an exact integer (counts, cents);
SSB/SSW expand as S_g^2/n_g folds and S^2/n corrections transcribed
op-for-op; the share series folds ascend the calendar day. HUGEINT
promotion guards the squared cents sums.

Scale contracts: the hod ANOVA reduces per event_type in one
bucketed_map_groups kernel call; the price ANOVA and share volatility
are bounded partial+final combines (types x days, part types).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from ..kernels.seasonal import dense_counts
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries4 import _cents
from .queries14 import _fold
from .queries16 import _read

QUERIES73: dict = {}
ORACLES73: dict = {}

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


# ---------------------------------------------------------------------------
# Hour-of-day one-way ANOVA per event_type
# ---------------------------------------------------------------------------


def q_hod_anova(sf_dir: str):
    """One-way ANOVA F per event_type of dense hourly counts grouped by
    hour-of-day: SSB = sum_h S_h^2/n_h - S^2/n (ascending-h fold),
    SSW = SST - SSB, F = (SSB/(k-1)) / (SSW/(n-k))."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "n_groups": pd.Series(dtype=np.int64),
             "f_stat": pd.Series(dtype=np.float64)}
        )
        hod = (grid // HOUR_US) % 24
        S = int(x.sum())
        SS = int((x * x).sum())
        groups = []
        for h in range(24):
            sel = hod == h
            nh = int(sel.sum())
            if nh:
                groups.append((h, nh, int(x[sel].sum())))
        k = len(groups)
        if k < 2 or n <= k:
            return empty
        corr = float(S) * float(S) / float(n)
        ssb = _fold(
            [float(sh) * float(sh) / float(nh) for _, nh, sh in groups]
        ) - corr
        sst = float(SS) - corr
        ssw = sst - ssb
        if ssw <= 0.0:
            return empty
        f = (ssb / float(k - 1)) / (ssw / float(n - k))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "n_groups": np.array([k], dtype=np.int64),
                "f_stat": [float(_r6away(f))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES73["hod_anova"] = """
WITH """ + _DENSE_1H + """,
g2 AS (
  SELECT event_type, (epoch_us(b) // 3600000000) % 24 AS h,
         COUNT(*) AS nh, SUM(x) AS sh
  FROM d GROUP BY 1, 2
),
tot AS (
  SELECT event_type, COUNT(*) AS n, SUM(x) AS s, SUM(x*x) AS ss
  FROM d GROUP BY 1
),
a AS (
  SELECT g2.event_type,
         MAX(tot.n) AS n, COUNT(*) AS k,
         MAX(tot.s) AS s, MAX(tot.ss) AS ss,
         list_sum(list(CAST(sh AS DOUBLE) * CAST(sh AS DOUBLE)
                       / CAST(nh AS DOUBLE) ORDER BY h)) AS fold
  FROM g2 JOIN tot USING (event_type)
  GROUP BY 1
),
f AS (
  SELECT event_type, n, k,
         fold - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
           AS ssb,
         (CAST(ss AS DOUBLE)
          - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
         - (fold - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
           AS ssw
  FROM a WHERE k >= 2 AND n > k
)
SELECT event_type, CAST(n AS BIGINT) AS n_buckets,
       CAST(k AS BIGINT) AS n_groups,
       ROUND((ssb / CAST(k - 1 AS DOUBLE)) / (ssw / CAST(n - k AS DOUBLE)), 6)
         AS f_stat
FROM f WHERE ssw > 0
"""


# ---------------------------------------------------------------------------
# Part-type retail-price one-way ANOVA
# ---------------------------------------------------------------------------


def q_part_type_price_anova(sf_dir: str):
    """One global row: one-way ANOVA F of part retail prices (exact
    cents) across p_type groups — does the catalog type explain price
    variance. HUGEINT-safe squared-cents sums; folds ascend p_type."""
    part = _read(sf_dir, "part", ["p_type", "p_retailprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(batch["p_retailprice"])
        df = pd.DataFrame(
            {
                "p_type": batch["p_type"],
                "n": np.ones(len(batch), dtype=np.int64),
                "s": cents,
                "ss": cents * cents,
            }
        )
        return df.groupby("p_type", sort=False).sum().reset_index()

    agg = (
        hash_bucket_aggregate(
            part.map_batches(partial, batch_format="pandas"),
            ["p_type"],
            [("n", "sum"), ("s", "sum"), ("ss", "sum")],
        )
        .to_pandas()
        .sort_values("p_type")
    )
    out_empty = pd.DataFrame(
        {"n_parts": pd.Series(dtype=np.int64),
         "n_types": pd.Series(dtype=np.int64),
         "f_stat": pd.Series(dtype=np.float64)}
    )
    k = len(agg)
    n = int(agg["n_sum"].sum())
    if k < 2 or n <= k:
        return out_empty
    S = int(agg["s_sum"].sum())
    SS = int(agg["ss_sum"].sum())
    corr = float(S) * float(S) / float(n)
    ssb = _fold(
        [
            float(int(r["s_sum"])) * float(int(r["s_sum"]))
            / float(int(r["n_sum"]))
            for _, r in agg.iterrows()
        ]
    ) - corr
    sst = float(SS) - corr
    ssw = sst - ssb
    if ssw <= 0.0:
        return out_empty
    f = (ssb / float(k - 1)) / (ssw / float(n - k))
    return pd.DataFrame(
        {
            "n_parts": np.array([n], dtype=np.int64),
            "n_types": np.array([k], dtype=np.int64),
            "f_stat": [float(_r6away(f))],
        }
    )


ORACLES73["part_type_price_anova"] = """
WITH c AS (
  SELECT p_type, CAST(ROUND(p_retailprice * 100) AS BIGINT) AS cents
  FROM part
),
g AS (
  SELECT p_type, COUNT(*) AS nh, CAST(SUM(cents) AS BIGINT) AS sh,
         CAST(SUM(CAST(cents AS HUGEINT) * cents) AS HUGEINT) AS ssh
  FROM c GROUP BY 1
),
tot AS (
  SELECT SUM(nh) AS n, CAST(SUM(sh) AS BIGINT) AS s,
         CAST(SUM(ssh) AS HUGEINT) AS ss, COUNT(*) AS k
  FROM g
),
a AS (
  SELECT tot.n, tot.k, tot.s, tot.ss,
         (SELECT list_sum(list(CAST(sh AS DOUBLE) * CAST(sh AS DOUBLE)
                               / CAST(nh AS DOUBLE) ORDER BY p_type))
          FROM g) AS fold
  FROM tot
),
f AS (
  SELECT n, k,
         fold - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE)
           AS ssb,
         (CAST(ss AS DOUBLE)
          - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
         - (fold - CAST(s AS DOUBLE) * CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
           AS ssw
  FROM a WHERE k >= 2 AND n > k
)
SELECT CAST(n AS BIGINT) AS n_parts, CAST(k AS BIGINT) AS n_types,
       ROUND((ssb / CAST(k - 1 AS DOUBLE)) / (ssw / CAST(n - k AS DOUBLE)), 6)
         AS f_stat
FROM f WHERE ssw > 0
"""


# ---------------------------------------------------------------------------
# Daily type-share volatility
# ---------------------------------------------------------------------------


def q_type_share_volatility(sf_dir: str):
    """Per event_type: mean and population sd of its daily share of
    total events, over the calendar days where any event occurred.
    Shares are count ratios of exact integers; folds ascend the day."""
    agg = (
        event_tier(sf_dir, "1d")
        .to_pandas()
    )
    out_empty = pd.DataFrame(
        {"event_type": pd.Series(dtype=object),
         "n_days": pd.Series(dtype=np.int64),
         "mean_share": pd.Series(dtype=np.float64),
         "sd_share": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    agg["day"] = (
        agg["bucket_ts"].astype("datetime64[us]").astype("int64") // DAY_US
    )
    day_tot = agg.groupby("day")["count"].sum().astype(np.int64)
    days = sorted(day_tot.index.tolist())
    types = sorted(agg["event_type"].unique().tolist())
    cnt = {
        (r["event_type"], int(r["day"])): int(r["count"])
        for _, r in agg.iterrows()
    }
    rows = []
    nd = len(days)
    for et in types:
        shares = [
            float(cnt.get((et, d), 0)) / float(int(day_tot.loc[d]))
            for d in days
        ]
        mu = _fold(shares) / float(nd)
        var = _fold([(p - mu) * (p - mu) for p in shares]) / float(nd)
        rows.append(
            (et, nd, float(_r6away(mu)), float(_r6away(math.sqrt(var))))
        )
    return pd.DataFrame(
        rows, columns=["event_type", "n_days", "mean_share", "sd_share"]
    ).astype({"n_days": np.int64})


ORACLES73["type_share_volatility"] = """
WITH c AS (
  SELECT event_type, date_trunc('day', ts) AS day, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
dt AS (SELECT day, SUM(n) AS tot FROM c GROUP BY 1),
grid AS (
  SELECT t.event_type, dt.day, dt.tot, COALESCE(c.n, 0) AS n
  FROM (SELECT DISTINCT event_type FROM c) t
  CROSS JOIN dt
  LEFT JOIN c ON c.event_type = t.event_type AND c.day = dt.day
),
sh AS (
  SELECT event_type, day,
         CAST(n AS DOUBLE) / CAST(tot AS DOUBLE) AS p
  FROM grid
),
mu AS (
  SELECT event_type, COUNT(*) AS nd,
         list_sum(list(p ORDER BY day)) / CAST(COUNT(*) AS DOUBLE) AS mu
  FROM sh GROUP BY 1
)
SELECT sh.event_type, CAST(mu.nd AS BIGINT) AS n_days,
       ROUND(mu.mu, 6) AS mean_share,
       ROUND(sqrt(list_sum(list((sh.p - mu.mu) * (sh.p - mu.mu)
                                ORDER BY sh.day))
                  / CAST(mu.nd AS DOUBLE)), 6) AS sd_share
FROM sh JOIN mu USING (event_type)
GROUP BY sh.event_type, mu.nd, mu.mu
"""


QUERIES73["hod_anova"] = q_hod_anova
QUERIES73["part_type_price_anova"] = q_part_type_price_anova
QUERIES73["type_share_volatility"] = q_type_share_volatility
