"""Round-5 batch 159: structural-break inference, irregular-sampling
spectral analysis, and evaluation-split infrastructure — a CUSUM-located
break with a Welch two-sample t-test across it, the Lomb-Scargle
periodogram (Lomb 1976 / Scargle 1982: the spectral tool for IRREGULAR
sample times, which raw event streams are), and a deterministic
hash-gated k-fold assignment audit (the reproducible train/eval split a
100-TB corpus needs — no RNG, stable under re-runs and re-sharding).

House parity strategy: the CUSUM argmax compares identical float
expressions (ties broken by smallest index on both engines); the
Lomb-Scargle folds run ascending (ts, event_id) with libm trig and a
centivalue-exact mean; the k-fold gate is pure integer arithmetic.

Scale contracts: the break test rides the bounded daily rollup;
Lomb-Scargle is a per-series O(n * n_periods) kernel over the raw
per-type event stream (the SMA/EMA precedent); the k-fold audit is a
stateless hash gate plus one tiny keyed exchange."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _documents, _events, _r6, event_tier

QUERIES159: dict = {}
ORACLES159: dict = {}

_LS_PERIODS_H = (24.0, 168.0)
_FOLD_K = 5
_FOLD_MIX = np.uint64(1_000_003)


def q_cusum_break_ttest(sf_dir: str):
    """Per event_type: locate the strongest mean break in the daily
    count series by the CUSUM statistic (argmax_k |S_k - k/n * S_n|,
    smallest k on ties), then Welch's t across the split. Types whose
    split leaves fewer than 2 points on either side, or with zero
    pooled variance, are skipped by BOTH engines. Output (event_type,
    break_idx, n_pre, n_post, mean_pre, mean_post, t_stat)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {c: [] for c in ["event_type", "break_idx", "n_pre", "n_post",
                             "mean_pre", "mean_post", "t_stat"]}
        )
        df = df.sort_values("bucket_ts")
        v = df["count"].to_numpy(np.int64)
        n = len(v)
        if n < 4:
            return empty
        s = np.cumsum(v)  # exact int64 prefix sums
        total = int(s[-1])
        # stat_k for k = 1..n-1; identical float expression in SQL
        ks = np.arange(1, n, dtype=np.int64)
        stat = np.abs(
            s[:-1].astype(np.float64)
            - ks.astype(np.float64) * float(total) / float(n)
        )
        k_star = int(ks[int(np.argmax(stat))])  # argmax takes first max
        n1, n2 = k_star, n - k_star
        if n1 < 2 or n2 < 2:
            return empty
        sv1 = int(s[k_star - 1])
        sv2 = total - sv1
        svv1 = int((v[:k_star] * v[:k_star]).sum())
        svv2 = int((v[k_star:] * v[k_star:]).sum())
        m1 = float(sv1) / float(n1)
        m2 = float(sv2) / float(n2)
        var1 = (float(svv1) - float(sv1) * float(sv1) / float(n1)) / float(
            n1 - 1
        )
        var2 = (float(svv2) - float(sv2) * float(sv2) / float(n2)) / float(
            n2 - 1
        )
        den = var1 / float(n1) + var2 / float(n2)
        if den <= 0.0:
            return empty
        t = (m2 - m1) / math.sqrt(den)
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "break_idx": np.array([k_star], dtype=np.int64),
                "n_pre": np.array([n1], dtype=np.int64),
                "n_post": np.array([n2], dtype=np.int64),
                "mean_pre": _r6(np.array([m1])),
                "mean_post": _r6(np.array([m2])),
                "t_stat": _r6(np.array([t])),
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1d"), ["event_type"], fn)


QUERIES159["cusum_break_ttest"] = q_cusum_break_ttest
ORACLES159["cusum_break_ttest"] = """
WITH s AS (
  SELECT event_type, date_trunc('day', ts) AS d, COUNT(*) AS v
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT event_type, v,
         row_number() OVER (PARTITION BY event_type ORDER BY d) AS k,
         SUM(v) OVER (PARTITION BY event_type ORDER BY d) AS sk,
         SUM(v) OVER (PARTITION BY event_type) AS total,
         COUNT(*) OVER (PARTITION BY event_type) AS n
  FROM s
),
st AS (
  SELECT event_type, k, n,
         abs(CAST(sk AS DOUBLE)
             - CAST(k AS DOUBLE) * CAST(total AS DOUBLE) / CAST(n AS DOUBLE))
           AS stat
  FROM r WHERE k < n AND n >= 4
),
brk AS (
  SELECT event_type, k AS k_star, n,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY stat DESC, k ASC) AS rk
  FROM st QUALIFY rk = 1
),
parts AS (
  SELECT r.event_type, brk.k_star, brk.n,
         SUM(r.v) FILTER (WHERE r.k <= brk.k_star) AS sv1,
         SUM(r.v) FILTER (WHERE r.k > brk.k_star) AS sv2,
         SUM(r.v * r.v) FILTER (WHERE r.k <= brk.k_star) AS svv1,
         SUM(r.v * r.v) FILTER (WHERE r.k > brk.k_star) AS svv2
  FROM r JOIN brk USING (event_type)
  GROUP BY 1, 2, 3
),
calc AS (
  SELECT event_type, k_star,
         k_star AS n1, n - k_star AS n2,
         CAST(sv1 AS DOUBLE) / CAST(k_star AS DOUBLE) AS m1,
         CAST(sv2 AS DOUBLE) / CAST(n - k_star AS DOUBLE) AS m2,
         (CAST(svv1 AS DOUBLE) - CAST(sv1 AS DOUBLE) * CAST(sv1 AS DOUBLE)
            / CAST(k_star AS DOUBLE)) / CAST(k_star - 1 AS DOUBLE) AS var1,
         (CAST(svv2 AS DOUBLE) - CAST(sv2 AS DOUBLE) * CAST(sv2 AS DOUBLE)
            / CAST(n - k_star AS DOUBLE)) / CAST(n - k_star - 1 AS DOUBLE)
           AS var2
  FROM parts WHERE k_star >= 2 AND n - k_star >= 2
)
SELECT event_type, CAST(k_star AS BIGINT) AS break_idx,
       CAST(n1 AS BIGINT) AS n_pre, CAST(n2 AS BIGINT) AS n_post,
       ROUND(m1, 6) AS mean_pre, ROUND(m2, 6) AS mean_post,
       ROUND((m2 - m1) / sqrt(var1 / CAST(n1 AS DOUBLE)
                              + var2 / CAST(n2 AS DOUBLE)), 6) AS t_stat
FROM calc
WHERE var1 / CAST(n1 AS DOUBLE) + var2 / CAST(n2 AS DOUBLE) > 0
"""


def q_lomb_scargle(sf_dir: str):
    """Per event_type: Lomb-Scargle periodogram power of the (irregular)
    event-value series at 24 h and 168 h periods — the classical
    spectral estimator that needs NO resampling of irregular timestamps.
    t_i = hours since the type's first event ((ts, event_id) ascending),
    y_i = value minus the centivalue-exact mean. Output (event_type,
    period_h, power, power_norm)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        ts_us = df["ts"].to_numpy("datetime64[us]").view(np.int64)
        t0 = int(ts_us.min())
        th = (ts_us - t0) / 3600000000.0
        vals = df["value"].to_numpy(np.float64)
        n = len(vals)
        cents = (
            np.sign(vals * 100.0)
            * np.floor(np.abs(vals * 100.0) + 0.5)
        ).astype(np.int64)
        mu = (float(int(cents.sum())) / 100.0) / float(n)
        y = vals - mu
        rows = []
        for period in _LS_PERIODS_H:
            w = 2.0 * math.pi / period
            c2 = s2 = 0.0
            for t in th:  # ascending folds, libm trig
                c2 += math.cos(2.0 * w * t)
                s2 += math.sin(2.0 * w * t)
            tau = math.atan2(s2, c2) / (2.0 * w)
            yc = ys = cc = ss = 0.0
            for t, yv in zip(th, y):
                c = math.cos(w * (t - tau))
                sn = math.sin(w * (t - tau))
                yc += yv * c
                ys += yv * sn
                cc += c * c
                ss += sn * sn
            if cc == 0.0 or ss == 0.0:
                continue
            p = 0.5 * (yc * yc / cc + ys * ys / ss)
            sy2 = 0.0
            for yv in y:
                sy2 += yv * yv
            var = sy2 / float(n)
            rows.append(
                (
                    df["event_type"].iloc[0],
                    period,
                    float(_r6(np.array([p]))[0]),
                    float(_r6(np.array([p / var]))[0]),
                )
            )
        return pd.DataFrame(
            rows, columns=["event_type", "period_h", "power", "power_norm"]
        )

    return bucketed_map_groups(
        _events(sf_dir, ["event_id", "ts", "event_type", "value"]), ["event_type"], fn
    )


QUERIES159["lomb_scargle"] = q_lomb_scargle
ORACLES159["lomb_scargle"] = """
WITH r AS (
  SELECT event_type, value,
         CAST(epoch_us(ts)
              - MIN(epoch_us(ts)) OVER (PARTITION BY event_type) AS DOUBLE)
           / 3600000000.0 AS th,
         row_number() OVER (PARTITION BY event_type ORDER BY ts, event_id)
           AS rn
  FROM events
),
a AS (
  SELECT event_type,
         list(th ORDER BY rn) AS ths,
         list(value ORDER BY rn) AS vs,
         COUNT(*) AS n,
         CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE) AS cents
  FROM r GROUP BY 1
),
m AS (SELECT *, (cents / 100.0) / n AS mu FROM a),
p AS (
  SELECT m.*, pp.period, 2.0 * pi() / pp.period AS w
  FROM m, (SELECT UNNEST([24.0, 168.0]) AS period) pp
),
tau AS (
  SELECT *,
         atan2(
           list_sum(list_transform(ths, t -> sin(2.0 * w * t))),
           list_sum(list_transform(ths, t -> cos(2.0 * w * t)))
         ) / (2.0 * w) AS tau
  FROM p
),
f AS (
  SELECT event_type, period, n, mu, tau, w,
         list_sum(list_transform(range(0, n),
           i -> (vs[i + 1] - mu) * cos(w * (ths[i + 1] - tau)))) AS yc,
         list_sum(list_transform(range(0, n),
           i -> (vs[i + 1] - mu) * sin(w * (ths[i + 1] - tau)))) AS ys,
         list_sum(list_transform(range(0, n),
           i -> cos(w * (ths[i + 1] - tau))
                * cos(w * (ths[i + 1] - tau)))) AS cc,
         list_sum(list_transform(range(0, n),
           i -> sin(w * (ths[i + 1] - tau))
                * sin(w * (ths[i + 1] - tau)))) AS ss,
         list_sum(list_transform(range(0, n),
           i -> (vs[i + 1] - mu) * (vs[i + 1] - mu))) AS sy2
  FROM tau
)
SELECT event_type, period AS period_h,
       ROUND(0.5 * (yc * yc / cc + ys * ys / ss), 6) AS power,
       ROUND((0.5 * (yc * yc / cc + ys * ys / ss)) / (sy2 / n), 6)
         AS power_norm
FROM f WHERE cc <> 0 AND ss <> 0
"""


def q_kfold_assignment(sf_dir: str, k: int = _FOLD_K):
    """Deterministic 5-fold split audit: fold = (doc_id * 1000003) % 5
    (a pure hash gate — reproducible across runs, shards and cluster
    sizes), with the per-source balance deviation from the ideal 1/5.
    Output (source, fold, n_docs, dev_pct)."""
    from ..common.raytools import hash_bucket_aggregate

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        fold = (
            batch["doc_id"].to_numpy(np.int64).view(np.uint64) * _FOLD_MIX
        ) % np.uint64(k)
        return pd.DataFrame(
            {"source": batch["source"], "fold": fold.astype(np.int64)}
        )

    agg = (
        hash_bucket_aggregate(
            _documents(sf_dir, ["doc_id", "source"]).map_batches(
                partial, batch_format="pandas"
            ),
            ["source", "fold"],
            [],
            count_alias="n",
        )
        .to_pandas()
        .sort_values(["source", "fold"])
        .reset_index(drop=True)
    )
    totals = agg.groupby("source")["n"].transform("sum").astype(np.int64)
    dev = agg["n"].to_numpy(np.float64) / totals.to_numpy(
        np.float64
    ) - 1.0 / float(k)
    return pd.DataFrame(
        {
            "source": agg["source"].astype(str),
            "fold": agg["fold"].astype(np.int64),
            "n_docs": agg["n"].astype(np.int64),
            "dev_pct": _r6(dev),
        }
    )


QUERIES159["kfold_assignment"] = q_kfold_assignment
ORACLES159["kfold_assignment"] = """
WITH f AS (
  SELECT source,
         CAST((CAST(doc_id AS UBIGINT) * 1000003) % 5 AS BIGINT) AS fold
  FROM documents
),
c AS (SELECT source, fold, COUNT(*) AS n FROM f GROUP BY 1, 2),
t AS (SELECT source, SUM(n) AS total FROM c GROUP BY 1)
SELECT c.source, c.fold, CAST(c.n AS BIGINT) AS n_docs,
       ROUND(CAST(c.n AS DOUBLE) / CAST(t.total AS DOUBLE) - 1.0 / 5.0, 6)
         AS dev_pct
FROM c JOIN t USING (source)
"""
