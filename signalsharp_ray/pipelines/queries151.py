"""Round-5 batch 151: Bayesian online changepoint detection (BOCD).

BOCD is the one algorithm on the reference's own roadmap
(/root/reference/docs/docs/future-plans.md:18 "Bayesian Online
Changepoint Detection") that the reference has not implemented; adding
it completes the changepoint family next to PELT
(/root/reference/SignalSharp/Detection/PELT/PELTAlgorithm.cs) and CUSUM
(/root/reference/SignalSharp/Detection/CUSUM/CUSUMAlgorithm.cs).
Algorithm: Adams & MacKay 2007 (arXiv:0710.3742, public) run-length
posterior recursion, constant hazard, Normal-Gamma conjugate model.

Verification pattern mirrors binseg_step_detection /
pelt_step_detection (queries6.py:445): a deterministic SQUARE-WAVE
series (level 100*((k//step)%2) on hour-bucket index k) is built per
event_type from the distributed 1h rollup; the run-length posterior of
a noiseless square wave is sharply peaked, so the MAP-drop detector
must recover exactly the level flips — multiples of `step` — which the
oracle derives in closed form. (A monotone staircase is deliberately
NOT used: under unknown-variance BOCD the first point of each new
level inflates the variance posterior by (level - mu0)^2, so at high
absolute levels a fixed 100-unit step stops being surprising; the
bounded square wave keeps the posterior geometry identical at every
flip, which is what makes the recovery exact at any series length —
tested to 8761 hourly buckets, the sf0.1 horizon.)

Scale contracts: the hour series per event_type is bounded by the
retention window (8.8k buckets/year), built by the same streaming
rollup exchange every other per-series kernel rides; BOCD itself is
O(n * active run lengths) inside the bucket — no driver state.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _documents, _events, _r6, event_tier

QUERIES151: dict = {}
ORACLES151: dict = {}


def q_bocd_changepoints(sf_dir: str, step: int = 40):
    """Per event_type: BOCD-detected changepoint indices of the
    square-wave series over that type's hourly buckets. Closed-form
    expectation: every multiple of `step` below the bucket count."""
    from ..kernels.bocd import BOCDOptions, bocd_changepoints

    t1h = event_tier(sf_dir, "1h")
    opts = BOCDOptions(hazard=1.0 / step, beta0=1.0)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        idx = np.arange(len(df), dtype=np.int64)
        vals = 100.0 * ((idx // step) % 2).astype(np.float64)
        cps = bocd_changepoints(vals, opts)
        return pd.DataFrame(
            {
                "event_type": np.repeat(df["event_type"].iloc[0], len(cps)),
                "changepoint_index": cps,
            }
        )

    return bucketed_map_groups(t1h, ["event_type"], fn)


QUERIES151["bocd_changepoints"] = q_bocd_changepoints
ORACLES151["bocd_changepoints"] = """
WITH b AS (
  SELECT event_type, COUNT(DISTINCT date_trunc('hour', ts)) AS n
  FROM events GROUP BY 1
)
SELECT event_type, CAST(g AS BIGINT) AS changepoint_index
FROM b, UNNEST(generate_series(40, CAST(n AS BIGINT) - 1, 40)) AS t(g)
"""


# ---------------------------------------------------------------------------
# Incremental cross-snapshot dedup (round-4 VERDICT item 8)
# ---------------------------------------------------------------------------


def q_dedup_incremental(sf_dir: str):
    """Incremental exact dedup: the corpus arrives as TWO snapshots (a
    deterministic doc_id % 3 split — the 'existing corpus' then the 'new
    crawl increment'); each is applied to a persisted hive-partitioned
    content-hash index (stages/incremental_dedup.py) that merges only the
    touched bucket files and never re-reads the historical corpus. Because
    min(doc_id)/count merge associatively, the final index equals the
    batch exact_dedup of the UNIONED corpus — which is the oracle."""
    import os
    import uuid

    from ..stages.incremental_dedup import DedupIndexStore

    docs = _documents(sf_dir, ["doc_id", "text"])

    def keep(is_increment: bool):
        def fn(batch: pd.DataFrame) -> pd.DataFrame:
            mask = (batch["doc_id"].to_numpy(np.int64) % 3 == 2) == is_increment
            return batch[mask]

        return fn

    root = (
        os.environ.get("SIGNALSHARP_HANDOFF_ROOT", "/tmp/signalsharp_ray/handoff")
        + f"/dedup-index-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )
    store = DedupIndexStore(root, n_buckets=64)
    store.apply(docs.map_batches(keep(False), batch_format="pandas"), fingerprint="base")
    store.apply(docs.map_batches(keep(True), batch_format="pandas"), fingerprint="increment")
    return store.read_dataset()


QUERIES151["dedup_incremental"] = q_dedup_incremental
ORACLES151["dedup_incremental"] = """
SELECT MIN(doc_id) AS doc_id, COUNT(*) AS n_copies FROM documents GROUP BY text
"""


# ---------------------------------------------------------------------------
# Gaussian smoothing + Butterworth low-pass (reference-roadmap items:
# /root/reference/docs/docs/future-plans.md "Gaussian smoothing",
# "Butterworth filter")
# ---------------------------------------------------------------------------


def q_gaussian_smooth(sf_dir: str):
    """Per event_type: Gaussian-weighted smoothing (sigma=2, radius=6,
    nearest-edge clamp) of the hourly count series. Bitwise SQL parity:
    libm exp weights, ascending-j left-fold accumulation (==
    list_sum(list_transform(...))), shared normalizer division."""
    from ..kernels.filters import gaussian_smooth

    t1h = event_tier(sf_dir, "1h")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.float64)
        sm = gaussian_smooth(v, sigma=2.0, radius=6)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy(),
                "idx": np.arange(len(v), dtype=np.int64),
                "smoothed": _r6(sm),
            }
        )

    return bucketed_map_groups(t1h, ["event_type"], fn)


QUERIES151["gaussian_smooth"] = q_gaussian_smooth
ORACLES151["gaussian_smooth"] = """
WITH s AS (
  SELECT event_type, date_trunc('hour', ts) AS h, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events GROUP BY 1, 2
),
a AS (
  SELECT event_type, list(v ORDER BY h) AS vs, COUNT(*) AS n
  FROM s GROUP BY 1
),
wt AS (
  SELECT list_transform(range(-6, 7), j -> exp(-CAST(j*j AS DOUBLE) / 8.0)) AS w
),
wn AS (
  SELECT list_transform(w, x -> x / list_sum(w)) AS w FROM wt
)
SELECT a.event_type,
       CAST(t.i AS BIGINT) AS idx,
       ROUND(list_sum(list_transform(range(0, 13),
             jj -> wn.w[jj + 1] * a.vs[GREATEST(1, LEAST(a.n, t.i + jj - 5))])),
             6) AS smoothed
FROM a, wn, UNNEST(range(0, CAST(a.n AS BIGINT))) AS t(i)
"""


def q_butterworth_lowpass(sf_dir: str):
    """Per event_type: causal order-2 Butterworth low-pass (normalized
    cutoff 0.05 cycles/sample, zero initial state) over the event value
    series ordered by (ts, event_id) — the Kalman query's series contract.
    The biquad recursion replays in SQL as a recursive CTE carrying
    (xcur, xprev, y, yprev); coefficients are shared libm tan/sqrt
    expressions."""
    from ..kernels.filters import butterworth_lowpass

    ev = _events(sf_dir, ["ts", "event_id", "event_type", "value"])

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        y = butterworth_lowpass(df["value"].to_numpy(np.float64), cutoff=0.05)
        return pd.DataFrame(
            {
                "event_type": df["event_type"].to_numpy(),
                "idx": np.arange(len(df), dtype=np.int64),
                "filtered": _r6(y),
            }
        )

    return bucketed_map_groups(ev, ["event_type"], fn)


QUERIES151["butterworth_lowpass"] = q_butterworth_lowpass
ORACLES151["butterworth_lowpass"] = """
WITH RECURSIVE r AS MATERIALIZED (
  SELECT event_type, value,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id) - 1 AS idx
  FROM events
),
co AS (
  SELECT c,
         1.0 + sqrt(2.0) * c + c * c AS d
  FROM (SELECT 1.0 / tan(pi() * 0.05) AS c)
),
bw AS (
  SELECT event_type, -1 AS idx,
         CAST(0.0 AS DOUBLE) AS xcur, CAST(0.0 AS DOUBLE) AS xprev,
         CAST(0.0 AS DOUBLE) AS y, CAST(0.0 AS DOUBLE) AS yprev
  FROM r WHERE idx = 0
  UNION ALL
  SELECT r.event_type, r.idx,
         r.value, bw.xcur,
         (1.0 / co.d) * r.value + (2.0 / co.d) * bw.xcur
           + (1.0 / co.d) * bw.xprev
           - ((2.0 - 2.0 * co.c * co.c) / co.d) * bw.y
           - ((1.0 - sqrt(2.0) * co.c + co.c * co.c) / co.d) * bw.yprev,
         bw.y
  FROM bw JOIN r ON r.event_type = bw.event_type AND r.idx = bw.idx + 1
  CROSS JOIN co
)
SELECT event_type, CAST(idx AS BIGINT) AS idx, ROUND(y, 6) AS filtered
FROM bw WHERE idx >= 0
"""
