"""Round-3 batch 30: dependence and asymmetry diagnostics — the mutual
information between event type and hour-of-day (how much knowing the
clock tells you about the action mix, in nats — the dependence twin of
chi2_hour_of_day), ramp asymmetry per event type (total rise vs total
fall magnitude of hourly deltas — the rise-fast/fall-slow load
signature), and per-hour-of-day value variance (heteroscedasticity of
transaction values across the day).

House parity: MI folds (p_xy ln(p_xy/(p_x p_y))) over ascending
(type, hour) with every probability a ratio of exact integer counts;
ramp sums are exact int64 |delta| reductions over the per-type dense
grid; per-hour variance uses exact centi-value sums and HUGEINT squares
in one transcribed expression each.

Scale contracts: the (type, hour-of-day) table is catalog x 24 bounded
after one exchange; per-type grids are retention-bounded; hour-of-day
value moments reduce through one 24-row exchange.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries4 import _cents
from .queries14 import _fold

QUERIES28: dict = {}
ORACLES28: dict = {}

HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# Mutual information: event type x hour-of-day
# ---------------------------------------------------------------------------


def q_type_hour_mi(sf_dir: str):
    """Mutual information I(type; hour-of-day) in nats over the joint
    count table — 0 = the action mix ignores the clock, higher = the
    clock predicts behaviour (chi2_hour_of_day tests one margin; this
    measures the shared information). One catalog x 24 bounded
    exchange; the fold runs over ascending (type, hour)."""
    ev = _events(sf_dir, ["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hod = (
            batch["ts"].to_numpy("datetime64[us]").view(np.int64) // HOUR_US
        ) % 24
        g = (
            pd.DataFrame({"event_type": batch["event_type"], "hod": hod})
            .groupby(["event_type", "hod"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype(np.int64)
        return g

    agg = (
        hash_bucket_aggregate(
            ev.map_batches(partial, batch_format="pandas"),
            ["event_type", "hod"],
            [("n", "sum")],
        )
        .to_pandas()
        .sort_values(["event_type", "hod"])
    )
    total = int(agg["n_sum"].sum())
    row_tot = agg.groupby("event_type")["n_sum"].transform("sum").astype(np.int64)
    col_tot_map = agg.groupby("hod")["n_sum"].sum().astype(np.int64)
    col_tot = agg["hod"].map(col_tot_map).astype(np.int64)
    tf = float(total)
    terms = [
        (float(int(nxy)) / tf)
        * math.log(
            (float(int(nxy)) / tf)
            / ((float(int(nx)) / tf) * (float(int(ny)) / tf))
        )
        for nxy, nx, ny in zip(agg["n_sum"], row_tot, col_tot)
    ]
    mi = _fold(terms)
    return pd.DataFrame(
        {
            "n_events": np.array([total], dtype=np.int64),
            "n_cells": np.array([len(agg)], dtype=np.int64),
            "mi": [float(_r6away(mi))],
        }
    )


ORACLES28["type_hour_mi"] = """
WITH j AS (
  SELECT event_type,
         (epoch_us(ts) // 3600000000) % 24 AS hod
  FROM events
),
c AS (SELECT event_type, hod, COUNT(*) AS n FROM j GROUP BY 1, 2),
w AS (
  SELECT event_type, hod, n,
         CAST(SUM(n) OVER (PARTITION BY event_type) AS BIGINT) AS nx,
         CAST(SUM(n) OVER (PARTITION BY hod) AS BIGINT) AS ny,
         CAST(SUM(n) OVER () AS BIGINT) AS total
  FROM c
)
SELECT CAST(MAX(total) AS BIGINT) AS n_events,
       CAST(COUNT(*) AS BIGINT) AS n_cells,
       ROUND(list_sum(list(
         (CAST(n AS DOUBLE) / CAST(total AS DOUBLE))
         * ln((CAST(n AS DOUBLE) / CAST(total AS DOUBLE))
              / ((CAST(nx AS DOUBLE) / CAST(total AS DOUBLE))
                 * (CAST(ny AS DOUBLE) / CAST(total AS DOUBLE))))
         ORDER BY event_type, hod)), 6) AS mi
FROM w
"""


# ---------------------------------------------------------------------------
# Ramp asymmetry per event type
# ---------------------------------------------------------------------------


def q_ramp_asymmetry(sf_dir: str):
    """Per event type: total rise vs total fall magnitude of
    hour-over-hour load changes on the dense grid, with the up/down
    ratio — load that climbs slowly and crashes fast (or vice versa)
    needs asymmetric autoscaling. Exact int64 sums; one transcribed
    division (types with zero fall excluded on both sides)."""
    from ..kernels.seasonal import dense_counts

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        d = np.diff(x.astype(np.int64))
        up = int(d[d > 0].sum())
        down = int(-d[d < 0].sum())
        n_up = int((d > 0).sum())
        n_down = int((d < 0).sum())
        if down == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "n_up": pd.Series(dtype=np.int64),
                    "n_down": pd.Series(dtype=np.int64),
                    "rise_total": pd.Series(dtype=np.int64),
                    "fall_total": pd.Series(dtype=np.int64),
                    "up_down_ratio": pd.Series(dtype=np.float64),
                }
            )
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_up": np.array([n_up], dtype=np.int64),
                "n_down": np.array([n_down], dtype=np.int64),
                "rise_total": np.array([up], dtype=np.int64),
                "fall_total": np.array([down], dtype=np.int64),
                "up_down_ratio": [
                    float(_r6away(float(up) / float(down)))
                ],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES28["ramp_asymmetry"] = """
WITH """ + _DENSE_1H + """,
dd AS (
  SELECT event_type,
         x - LAG(x) OVER (PARTITION BY event_type ORDER BY idx) AS df
  FROM d
),
a AS (
  SELECT event_type,
         CAST(COUNT(*) FILTER (WHERE df > 0) AS BIGINT) AS n_up,
         CAST(COUNT(*) FILTER (WHERE df < 0) AS BIGINT) AS n_down,
         CAST(COALESCE(SUM(df) FILTER (WHERE df > 0), 0) AS BIGINT)
           AS rise_total,
         CAST(COALESCE(SUM(-df) FILTER (WHERE df < 0), 0) AS BIGINT)
           AS fall_total
  FROM dd WHERE df IS NOT NULL
  GROUP BY 1
)
SELECT event_type, n_up, n_down, rise_total, fall_total,
       ROUND(CAST(rise_total AS DOUBLE) / CAST(fall_total AS DOUBLE), 6)
         AS up_down_ratio
FROM a WHERE fall_total > 0
"""


# ---------------------------------------------------------------------------
# Value variance by hour-of-day
# ---------------------------------------------------------------------------


def q_value_variance_by_hour(sf_dir: str):
    """Per hour-of-day: count, mean and population variance of event
    values (dollars) — value heteroscedasticity across the day
    (hourly_profile shows volume; this shows stake size stability).
    Exact centi-value sums and HUGEINT squares; two transcribed
    expressions."""
    ev = _events(sf_dir, ["ts", "value"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "hod": (
                    b["ts"].to_numpy("datetime64[us]").view(np.int64) // HOUR_US
                )
                % 24,
                "c": _cents(b["value"]),
            }
        )
        .assign(
            n=lambda d: np.ones(len(d), dtype=np.int64),
            c2=lambda d: d["c"] * d["c"],
        )
        .groupby("hod", sort=False)
        .agg(n=("n", "sum"), s=("c", "sum"), ss=("c2", "sum"))
        .reset_index(),
        batch_format="pandas",
    )
    agg = hash_bucket_aggregate(
        ev, ["hod"], [("n", "sum"), ("s", "sum"), ("ss", "sum")]
    ).to_pandas()
    rows = []
    for _, r in agg.iterrows():
        n, s, ss = int(r["n_sum"]), int(r["s_sum"]), int(r["ss_sum"])
        nf = float(n)
        mean = float(s) / nf / 100.0
        var = (float(ss) / nf - (float(s) / nf) * (float(s) / nf)) / 10000.0
        rows.append((int(r["hod"]), n, float(_r6away(mean)), float(_r6away(var))))
    return (
        pd.DataFrame(rows, columns=["hod", "n_events", "mean_value", "var_value"])
        .astype({"hod": np.int64, "n_events": np.int64})
        .sort_values("hod")
        .reset_index(drop=True)
    )


ORACLES28["value_variance_by_hour"] = """
WITH v AS (
  SELECT (epoch_us(ts) // 3600000000) % 24 AS hod,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
),
a AS (
  SELECT hod, COUNT(*) AS n,
         CAST(SUM(c) AS BIGINT) AS s,
         CAST(SUM(c::HUGEINT * c::HUGEINT) AS BIGINT) AS ss
  FROM v GROUP BY 1
)
SELECT CAST(hod AS BIGINT) AS hod,
       CAST(n AS BIGINT) AS n_events,
       ROUND(CAST(s AS DOUBLE) / CAST(n AS DOUBLE) / 100.0, 6) AS mean_value,
       ROUND((CAST(ss AS DOUBLE) / CAST(n AS DOUBLE)
              - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))) / 10000.0, 6)
         AS var_value
FROM a
"""


QUERIES28["type_hour_mi"] = q_type_hour_mi
QUERIES28["ramp_asymmetry"] = q_ramp_asymmetry
QUERIES28["value_variance_by_hour"] = q_value_variance_by_hour
