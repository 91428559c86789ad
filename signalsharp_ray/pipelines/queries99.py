"""Round-3 batch 101: survival, tail, and growth operators — the
discrete hazard curve of inter-event gaps (P(next event in minute band
b | survived to b) — the arrival-process view behind exp_gof), the
p99/p50 tail ratio of event values per type, and month-over-month
order revenue growth.

House parity: hazard bands are exact integer minute floors with exact
at-risk/death counts (one division per band); tail quantiles run over
integer centivalues (np.quantile == quantile_cont at these
magnitudes); revenue is exact cents with one growth division per
month pair.

Scale contracts: gaps reduce per type inside bucketed_map_groups then band;
quantiles group per type; monthly revenue is a bounded calendar
aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries4 import _cents
from .queries16 import _read

QUERIES99: dict = {}
ORACLES99: dict = {}

MIN_US = 60_000_000
MAX_BAND = 10


# ---------------------------------------------------------------------------
# Gap hazard curve
# ---------------------------------------------------------------------------


def q_gap_hazard_curve(sf_dir: str):
    """Global discrete hazard over inter-event gaps (per event_type
    streams, pooled): band b = min(gap // 1min, 10); hazard(b) =
    gaps in band b / gaps with band >= b. Bands 0..9 (10+ pools the
    tail and is omitted — its hazard is 1 by construction)."""
    ev = _events(sf_dir, ["event_type", "ts", "event_id"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "event_type": b["event_type"],
                "us": b["ts"].astype("datetime64[us]").astype("int64"),
                "event_id": b["event_id"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )

    def gaps(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values(["us", "event_id"], kind="mergesort")
        us = d["us"].to_numpy(np.int64)
        if len(us) < 2:
            return pd.DataFrame(
                {"band": pd.Series(dtype=np.int64),
                 "n": pd.Series(dtype=np.int64)}
            )
        g = us[1:] - us[:-1]
        band = np.minimum(g // MIN_US, MAX_BAND).astype(np.int64)
        return (
            pd.DataFrame({"band": band, "n": np.ones(len(g), dtype=np.int64)})
            .groupby("band", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            bucketed_map_groups(ev, ["event_type"], gaps),
            ["band"],
            [("n", "sum")],
        )
        .to_pandas()
        .set_index("band")["n_sum"]
        .astype(np.int64)
    )
    out_empty = pd.DataFrame(
        {"band_min": pd.Series(dtype=np.int64),
         "n_in_band": pd.Series(dtype=np.int64),
         "n_at_risk": pd.Series(dtype=np.int64),
         "hazard": pd.Series(dtype=np.float64)}
    )
    total = int(agg.sum()) if len(agg) else 0
    if total == 0:
        return out_empty
    rows = []
    survived = total
    for b in range(MAX_BAND):
        d = int(agg.get(b, 0))
        if survived > 0:
            rows.append(
                (b, d, survived,
                 float(_r6away(float(d) / float(survived))))
            )
        survived -= d
    return pd.DataFrame(
        rows, columns=["band_min", "n_in_band", "n_at_risk", "hazard"]
    ).astype({"band_min": np.int64, "n_in_band": np.int64,
              "n_at_risk": np.int64})


ORACLES99["gap_hazard_curve"] = """
WITH seq AS (
  SELECT event_type, epoch_us(ts) AS us,
         lag(epoch_us(ts)) OVER (PARTITION BY event_type
                                 ORDER BY ts, event_id) AS prev
  FROM events
),
g AS (
  SELECT LEAST((us - prev) // 60000000, 10) AS band
  FROM seq WHERE prev IS NOT NULL
),
bc AS (SELECT band, COUNT(*) AS n FROM g GROUP BY 1),
grid AS (
  SELECT gb.b AS band, COALESCE(bc.n, 0) AS n
  FROM (SELECT UNNEST(generate_series(0, 10)) AS b) gb
  LEFT JOIN bc ON bc.band = gb.b
),
cum AS (
  SELECT band, n,
         SUM(n) OVER (ORDER BY band DESC) AS at_risk
  FROM grid
)
SELECT CAST(band AS BIGINT) AS band_min,
       CAST(n AS BIGINT) AS n_in_band,
       CAST(at_risk AS BIGINT) AS n_at_risk,
       ROUND(CAST(n AS DOUBLE) / CAST(at_risk AS DOUBLE), 6) AS hazard
FROM cum
WHERE band < 10 AND at_risk > 0
"""


# ---------------------------------------------------------------------------
# Tail ratio p99/p50 per type
# ---------------------------------------------------------------------------


def q_tail_ratio_by_type(sf_dir: str):
    """Per event_type: p50 and p99 of event value and their ratio —
    the tail-heaviness summary. Quantiles over integer centivalues."""
    ev = _events(sf_dir, ["event_type", "value"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "event_type": b["event_type"],
                "c": _cents(b["value"]),
            }
        ),
        batch_format="pandas",
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        c = df["c"].to_numpy(np.float64)
        p50 = float(np.quantile(c, 0.5))
        p99 = float(np.quantile(c, 0.99))
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_events": pd.Series(dtype=np.int64),
             "p50": pd.Series(dtype=np.float64),
             "p99": pd.Series(dtype=np.float64),
             "tail_ratio": pd.Series(dtype=np.float64)}
        )
        if p50 == 0.0:
            return empty
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_events": np.array([len(df)], dtype=np.int64),
                "p50": [float(_r6away(p50 / 100.0))],
                "p99": [float(_r6away(p99 / 100.0))],
                "tail_ratio": [float(_r6away(p99 / p50))],
            }
        )

    return bucketed_map_groups(ev, ["event_type"], fn)


ORACLES99["tail_ratio_by_type"] = """
WITH b AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS c FROM events
),
q AS (
  SELECT event_type, COUNT(*) AS n,
         quantile_cont(CAST(c AS DOUBLE), 0.5) AS p50,
         quantile_cont(CAST(c AS DOUBLE), 0.99) AS p99
  FROM b GROUP BY 1
)
SELECT event_type, CAST(n AS BIGINT) AS n_events,
       ROUND(p50 / 100.0, 6) AS p50,
       ROUND(p99 / 100.0, 6) AS p99,
       ROUND(p99 / p50, 6) AS tail_ratio
FROM q WHERE p50 != 0
"""


# ---------------------------------------------------------------------------
# Month-over-month revenue growth
# ---------------------------------------------------------------------------


def q_revenue_mom_growth(sf_dir: str):
    """Per consecutive calendar month pair: order revenue in each and
    the growth rate (m2 - m1)/m1. Exact cents; months as year*12+month
    integers."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = (
            batch["o_orderdate"].dt.year.astype(np.int64) * 12
            + batch["o_orderdate"].dt.month.astype(np.int64)
        )
        return (
            pd.DataFrame({"m": m, "cents": _cents(batch["o_totalprice"])})
            .groupby("m", sort=False)
            .sum()
            .reset_index()
        )

    agg = (
        hash_bucket_aggregate(
            orders.map_batches(partial, batch_format="pandas"),
            ["m"],
            [("cents", "sum")],
        )
        .to_pandas()
        .set_index("m")["cents_sum"]
        .astype(np.int64)
        .sort_index()
    )
    rows = []
    for m in agg.index:
        if m + 1 not in agg.index:
            continue
        r1 = int(agg.loc[m])
        r2 = int(agg.loc[m + 1])
        if r1 == 0:
            continue
        rows.append(
            (
                int(m),
                float(_r6away(float(r1) / 100.0)),
                float(_r6away(float(r2) / 100.0)),
                float(_r6away((float(r2) - float(r1)) / float(r1))),
            )
        )
    return pd.DataFrame(
        rows,
        columns=["month_key", "revenue", "revenue_next", "growth"],
    ).astype({"month_key": np.int64})


ORACLES99["revenue_mom_growth"] = """
WITH m AS (
  SELECT CAST(year(o_orderdate) * 12 + month(o_orderdate) AS BIGINT) AS mk,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT)
           AS cents
  FROM orders GROUP BY 1
)
SELECT a.mk AS month_key,
       ROUND(CAST(a.cents AS DOUBLE) / 100.0, 6) AS revenue,
       ROUND(CAST(b.cents AS DOUBLE) / 100.0, 6) AS revenue_next,
       ROUND((CAST(b.cents AS DOUBLE) - CAST(a.cents AS DOUBLE))
             / CAST(a.cents AS DOUBLE), 6) AS growth
FROM m a JOIN m b ON b.mk = a.mk + 1
WHERE a.cents != 0
"""


QUERIES99["gap_hazard_curve"] = q_gap_hazard_curve
QUERIES99["tail_ratio_by_type"] = q_tail_ratio_by_type
QUERIES99["revenue_mom_growth"] = q_revenue_mom_growth
