"""Round-3 batch 68: nonparametric rank tests on the rollup tiers —
Mann-Whitney U (weekend vs weekday hourly load per event_type),
Kruskal-Wallis H (do the event types share one daily-count
distribution), and the Wilcoxon signed-rank test of each type's
hour-of-day profile between the first and second half of the window.

House parity: every rank statistic is derived from the integer VALUE
DISTRIBUTION (per distinct count value: group counts, total count,
cumulative count below), so average ranks are exact multiples of 0.5
and the rank sums are exactly representable doubles; tie corrections
sum t^3 - t in integers. The closing z / H expressions are transcribed
op-for-op and every multi-term float fold ascends a deterministic key
via list_sum(list(x ORDER BY k)).

Scale contracts: Mann-Whitney and Wilcoxon reduce each event_type's
bounded dense hourly grid in one bucketed_map_groups kernel call after
the standard partial+final rollup exchange; Kruskal-Wallis combines the
distributed daily rollup (n_types x n_days rows, calendar-bounded) on
the driver — the same bounded-combine pattern as lang_source_chi2.

Day-of-week on both sides is (epoch_us // DAY_US + 3) % 7 (0=Mon,
1970-01-01 was a Thursday), the repo's weekend_effect convention;
weekend = dow >= 5 (Sat, Sun).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import dense_counts
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries14 import _fold

QUERIES66: dict = {}
ORACLES66: dict = {}

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000


def _rank_sum(values: np.ndarray, flags: np.ndarray):
    """(rank_sum_of_flagged, tie_term): average-rank sum of the flagged
    subsample plus sum(t^3 - t) over ties, from the exact integer value
    distribution. Terms are exact 0.5-multiples; the fold ascends by
    value to mirror list_sum(list(... ORDER BY v))."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    f = flags[order]
    uniq, start = np.unique(v, return_index=True)
    ct = np.diff(np.append(start, v.size))
    below = np.concatenate(([0], np.cumsum(ct)[:-1]))
    tie = 0
    terms = []
    for i in range(uniq.size):
        c = int(ct[i])
        tie += c * c * c - c
        cf = int(f[start[i]:start[i] + c].sum())
        if cf:
            terms.append(
                float(cf) * (float(int(below[i])) + (float(c) + 1.0) / 2.0)
            )
    return _fold(terms), tie


# ---------------------------------------------------------------------------
# Mann-Whitney U: weekend vs weekday hourly load
# ---------------------------------------------------------------------------


def q_mann_whitney_weekend(sf_dir: str):
    """Mann-Whitney U per event_type comparing weekend vs weekday hourly
    counts over the dense grid: R1 = average-rank sum of the weekend
    sample, U = R1 - n1(n1+1)/2, z = (U - n1 n2/2) / sqrt(tie-corrected
    variance). Positive z means weekends rank higher."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_weekend": pd.Series(dtype=np.int64),
             "n_weekday": pd.Series(dtype=np.int64),
             "r_weekend": pd.Series(dtype=np.float64),
             "u_stat": pd.Series(dtype=np.float64),
             "z_score": pd.Series(dtype=np.float64)}
        )
        wk = ((grid // DAY_US + 3) % 7) >= 5
        n1 = int(wk.sum())
        n2 = int(x.size) - n1
        if n1 == 0 or n2 == 0:
            return empty
        r1, tie = _rank_sum(x, wk)
        nn = n1 + n2
        u = r1 - float(n1) * (float(n1) + 1.0) / 2.0
        mu = float(n1) * float(n2) / 2.0
        var = (float(n1) * float(n2) / 12.0) * (
            float(nn + 1) - float(tie) / (float(nn) * float(nn - 1))
        )
        if var <= 0.0:
            return empty
        z = (u - mu) / math.sqrt(var)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_weekend": np.array([n1], dtype=np.int64),
                "n_weekday": np.array([n2], dtype=np.int64),
                "r_weekend": [float(_r6away(r1))],
                "u_stat": [float(_r6away(u))],
                "z_score": [float(_r6away(z))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES66["mann_whitney_weekend"] = """
WITH """ + _DENSE_1H + """,
lab AS (
  SELECT event_type, x,
         CASE WHEN (epoch_us(b) // 86400000000 + 3) % 7 >= 5
              THEN 1 ELSE 0 END AS wk
  FROM d
),
dist AS (
  SELECT event_type, x, COUNT(*) AS ct, SUM(wk) AS cw
  FROM lab GROUP BY 1, 2
),
cum AS (
  SELECT event_type, x, ct, cw,
         SUM(ct) OVER (PARTITION BY event_type ORDER BY x
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS below
  FROM dist
),
agg AS (
  SELECT event_type,
         SUM(cw * 1) AS n1, SUM(ct - cw) AS n2,
         SUM(ct * ct * ct - ct) AS tie,
         list_sum(list(
           CASE WHEN cw > 0 THEN
             CAST(cw AS DOUBLE)
             * (CAST(COALESCE(below, 0) AS DOUBLE)
                + (CAST(ct AS DOUBLE) + 1.0) / 2.0)
           END ORDER BY x)) AS r1
  FROM cum GROUP BY 1
),
st AS (
  SELECT event_type, n1, n2, r1,
         r1 - CAST(n1 AS DOUBLE) * (CAST(n1 AS DOUBLE) + 1.0) / 2.0 AS u,
         CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE) / 2.0 AS mu,
         (CAST(n1 AS DOUBLE) * CAST(n2 AS DOUBLE) / 12.0)
         * (CAST(n1 + n2 + 1 AS DOUBLE)
            - CAST(tie AS DOUBLE)
              / (CAST(n1 + n2 AS DOUBLE) * CAST(n1 + n2 - 1 AS DOUBLE)))
           AS var
  FROM agg WHERE n1 > 0 AND n2 > 0
)
SELECT event_type, CAST(n1 AS BIGINT) AS n_weekend,
       CAST(n2 AS BIGINT) AS n_weekday,
       ROUND(r1, 6) AS r_weekend, ROUND(u, 6) AS u_stat,
       ROUND((u - mu) / sqrt(var), 6) AS z_score
FROM st WHERE var > 0
"""


# ---------------------------------------------------------------------------
# Kruskal-Wallis H across event types on daily counts
# ---------------------------------------------------------------------------


def q_kruskal_wallis_daily(sf_dir: str):
    """Kruskal-Wallis H across the event types' dense daily count
    series (each type zero-filled over its own calendar span): pooled
    average ranks, H = 12/(N(N+1)) * sum R_g^2/n_g - 3(N+1), and the
    tie-corrected H / (1 - sum(t^3-t)/(N^3-N)). One global row; the
    daily rollup is distributed and the combine is bounded by
    n_types x n_days."""
    agg = (
        event_tier(sf_dir, "1d")
        .to_pandas()
        .sort_values(["event_type", "bucket_ts"])
    )
    out_empty = pd.DataFrame(
        {"n_total": pd.Series(dtype=np.int64),
         "n_groups": pd.Series(dtype=np.int64),
         "h_stat": pd.Series(dtype=np.float64),
         "h_corrected": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    vals = []
    types = []
    for et, g in agg.groupby("event_type", sort=True):
        _, x = dense_counts(
            g["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy(),
            g["count"].to_numpy(),
            DAY_US,
        )
        vals.append(x)
        types.append(et)
    x_all = np.concatenate(vals)
    n_total = int(x_all.size)
    if n_total < 2:
        return out_empty
    s_terms = []
    tie = 0
    for i, et in enumerate(types):
        flags = np.concatenate(
            [np.full(v.size, j == i) for j, v in enumerate(vals)]
        )
        rg, tie_i = _rank_sum(x_all, flags)
        if i == 0:
            tie = tie_i
        s_terms.append(rg * rg / float(int(vals[i].size)))
    s = _fold(s_terms)
    nf = float(n_total)
    h = (12.0 / (nf * (nf + 1.0))) * s - 3.0 * (nf + 1.0)
    c = 1.0 - float(tie) / (nf * nf * nf - nf)
    if c == 0.0:
        return out_empty
    return pd.DataFrame(
        {
            "n_total": np.array([n_total], dtype=np.int64),
            "n_groups": np.array([len(types)], dtype=np.int64),
            "h_stat": [float(_r6away(h))],
            "h_corrected": [float(_r6away(h / c))],
        }
    )


ORACLES66["kruskal_wallis_daily"] = """
WITH c AS (
  SELECT event_type, date_trunc('day', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(b) AS lo, MAX(b) AS hi FROM c GROUP BY 1),
g AS (
  SELECT bo.event_type,
         UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 DAY)) AS b
  FROM bounds bo
),
d2 AS (
  SELECT g.event_type, g.b, COALESCE(c.x, 0) AS x
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
),
dist AS (SELECT x, COUNT(*) AS ct FROM d2 GROUP BY 1),
cum AS (
  SELECT x, ct,
         SUM(ct) OVER (ORDER BY x
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS below
  FROM dist
),
gd AS (SELECT event_type, x, COUNT(*) AS cg FROM d2 GROUP BY 1, 2),
rg AS (
  SELECT gd.event_type, SUM(cg) AS ng,
         list_sum(list(
           CAST(cg AS DOUBLE)
           * (CAST(COALESCE(cum.below, 0) AS DOUBLE)
              + (CAST(cum.ct AS DOUBLE) + 1.0) / 2.0)
           ORDER BY gd.x)) AS r
  FROM gd JOIN cum ON cum.x = gd.x
  GROUP BY 1
),
tot AS (
  SELECT SUM(ct) AS n, SUM(ct * ct * ct - ct) AS tie FROM dist
),
s AS (
  SELECT list_sum(list(r * r / CAST(ng AS DOUBLE) ORDER BY event_type)) AS s,
         COUNT(*) AS n_groups
  FROM rg
)
SELECT CAST(tot.n AS BIGINT) AS n_total,
       CAST(s.n_groups AS BIGINT) AS n_groups,
       ROUND((12.0 / (CAST(tot.n AS DOUBLE) * (CAST(tot.n AS DOUBLE) + 1.0)))
             * s.s - 3.0 * (CAST(tot.n AS DOUBLE) + 1.0), 6) AS h_stat,
       ROUND(((12.0 / (CAST(tot.n AS DOUBLE) * (CAST(tot.n AS DOUBLE) + 1.0)))
              * s.s - 3.0 * (CAST(tot.n AS DOUBLE) + 1.0))
             / (1.0 - CAST(tot.tie AS DOUBLE)
                / (CAST(tot.n AS DOUBLE) * CAST(tot.n AS DOUBLE)
                   * CAST(tot.n AS DOUBLE) - CAST(tot.n AS DOUBLE))), 6)
         AS h_corrected
FROM tot, s
WHERE tot.n >= 2
  AND (1.0 - CAST(tot.tie AS DOUBLE)
       / (CAST(tot.n AS DOUBLE) * CAST(tot.n AS DOUBLE)
          * CAST(tot.n AS DOUBLE) - CAST(tot.n AS DOUBLE))) != 0
"""


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank: first-half vs second-half hour-of-day profile
# ---------------------------------------------------------------------------


def q_wilcoxon_halves(sf_dir: str):
    """Wilcoxon signed-rank per event_type on the 24 paired hour-of-day
    totals between the first floor(n/2) and last floor(n/2) hourly
    buckets of the dense grid. Zero differences drop; |d| gets average
    ranks; W+ / W- are the signed rank sums and z uses the
    tie-corrected variance m(m+1)(2m+1)/24 - sum(t^3-t)/48."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        grid, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_pairs": pd.Series(dtype=np.int64),
             "w_plus": pd.Series(dtype=np.float64),
             "w_minus": pd.Series(dtype=np.float64),
             "z_score": pd.Series(dtype=np.float64)}
        )
        half = n // 2
        if half == 0:
            return empty
        hod = (grid // HOUR_US) % 24
        c1 = np.zeros(24, dtype=np.int64)
        c2 = np.zeros(24, dtype=np.int64)
        np.add.at(c1, hod[:half], x[:half])
        np.add.at(c2, hod[n - half:], x[n - half:])
        dvec = c1 - c2
        nz = dvec != 0
        m = int(nz.sum())
        if m == 0:
            return empty
        absd = np.abs(dvec[nz])
        pos = dvec[nz] > 0
        w_plus, tie = _rank_sum(absd, pos)
        w_minus, _ = _rank_sum(absd, ~pos)
        mf = float(m)
        mu = mf * (mf + 1.0) / 4.0
        var = mf * (mf + 1.0) * (2.0 * mf + 1.0) / 24.0 - float(tie) / 48.0
        if var <= 0.0:
            return empty
        z = (w_plus - mu) / math.sqrt(var)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_pairs": np.array([m], dtype=np.int64),
                "w_plus": [float(_r6away(w_plus))],
                "w_minus": [float(_r6away(w_minus))],
                "z_score": [float(_r6away(z))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES66["wilcoxon_halves"] = """
WITH """ + _DENSE_1H + """,
nn AS (SELECT event_type, COUNT(*) AS n FROM d GROUP BY 1),
lab AS (
  SELECT d.event_type, (epoch_us(d.b) // 3600000000) % 24 AS hod,
         CASE WHEN d.idx < nn.n // 2 THEN d.x ELSE 0 END AS x1,
         CASE WHEN d.idx >= nn.n - nn.n // 2 THEN d.x ELSE 0 END AS x2
  FROM d JOIN nn USING (event_type)
  WHERE nn.n // 2 > 0
),
prof AS (
  SELECT event_type, hod, SUM(x1) - SUM(x2) AS dv
  FROM lab GROUP BY 1, 2
),
nzd AS (SELECT event_type, abs(dv) AS ad, dv > 0 AS pos
        FROM prof WHERE dv != 0),
dist AS (
  SELECT event_type, ad, COUNT(*) AS ct,
         SUM(CASE WHEN pos THEN 1 ELSE 0 END) AS cp
  FROM nzd GROUP BY 1, 2
),
cum AS (
  SELECT event_type, ad, ct, cp,
         SUM(ct) OVER (PARTITION BY event_type ORDER BY ad
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS below
  FROM dist
),
agg AS (
  SELECT event_type, SUM(ct) AS m, SUM(ct * ct * ct - ct) AS tie,
         list_sum(list(
           CASE WHEN cp > 0 THEN
             CAST(cp AS DOUBLE)
             * (CAST(COALESCE(below, 0) AS DOUBLE)
                + (CAST(ct AS DOUBLE) + 1.0) / 2.0)
           END ORDER BY ad)) AS wp,
         list_sum(list(
           CASE WHEN ct - cp > 0 THEN
             CAST(ct - cp AS DOUBLE)
             * (CAST(COALESCE(below, 0) AS DOUBLE)
                + (CAST(ct AS DOUBLE) + 1.0) / 2.0)
           END ORDER BY ad)) AS wm
  FROM cum GROUP BY 1
),
st AS (
  SELECT event_type, m, COALESCE(wp, 0.0) AS wp, COALESCE(wm, 0.0) AS wm,
         CAST(m AS DOUBLE) * (CAST(m AS DOUBLE) + 1.0) / 4.0 AS mu,
         CAST(m AS DOUBLE) * (CAST(m AS DOUBLE) + 1.0)
           * (2.0 * CAST(m AS DOUBLE) + 1.0) / 24.0
           - CAST(tie AS DOUBLE) / 48.0 AS var
  FROM agg WHERE m > 0
)
SELECT event_type, CAST(m AS BIGINT) AS n_pairs,
       ROUND(wp, 6) AS w_plus, ROUND(wm, 6) AS w_minus,
       ROUND((wp - mu) / sqrt(var), 6) AS z_score
FROM st WHERE var > 0
"""


QUERIES66["mann_whitney_weekend"] = q_mann_whitney_weekend
QUERIES66["kruskal_wallis_daily"] = q_kruskal_wallis_daily
QUERIES66["wilcoxon_halves"] = q_wilcoxon_halves
