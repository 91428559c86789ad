"""Round-3 batch 28: trend and divergence diagnostics — the
Mann-Kendall monotone-trend test per event type (the nonparametric
'is load drifting' answer with exact integer S and tie-corrected
variance), the cross-entropy / KL divergence of each source's token
distribution against the corpus (which sources sound least like the
whole — the data-mixing gauge beside js_divergence_sources), and the
session-count sensitivity curve at inactivity thresholds
{15, 30, 60} minutes (how session analytics depend on the timeout
knob).

House parity: Mann-Kendall S is a pure integer pairwise sign sum over
the dense per-type grid (O(n^2) bounded by retention) with the exact
tie-corrected variance from integer value-group counts and the
standard continuity-corrected z (CASE on integer S); cross-entropy
terms fold over ascending token per source (list_sum contract) over
exact integer counts; session counts are exact integer gap threshold
counts per user summed globally.

Scale contracts: per-type grids are retention-bounded (n ~ 720, so the
pairwise sum is ~260k integer ops per type); token folds reuse the one
(source, token) exchange plus a token-level corpus exchange; session
gap counts reduce through per-user bucket kernels into 3-row output.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries14 import _fold
from .queries17 import _per_token_counts

QUERIES26: dict = {}
ORACLES26: dict = {}

SESSION_THRESHOLDS_MIN = (15, 30, 60)
MINUTE_US = 60_000_000


# ---------------------------------------------------------------------------
# Mann-Kendall trend test
# ---------------------------------------------------------------------------


def q_mann_kendall(sf_dir: str):
    """Per event type: the Mann-Kendall trend statistic over the dense
    hourly grid — S = sum over i<j of sign(x_j - x_i) (exact integer),
    tie-corrected variance [n(n-1)(2n+5) - sum t(t-1)(2t+5)]/18, and
    the continuity-corrected z — the distribution-free monotone-trend
    test (theil_sen gives the slope; this gives the significance)."""
    from ..kernels.seasonal import dense_counts

    HOUR_US = 3_600_000_000

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        if n < 3:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "n_hours": pd.Series(dtype=np.int64),
                    "s_stat": pd.Series(dtype=np.int64),
                    "zscore": pd.Series(dtype=np.float64),
                }
            )
        s = 0
        for i in range(n - 1):
            d = x[i + 1 :] - x[i]
            s += int((d > 0).sum()) - int((d < 0).sum())
        _, tie_counts = np.unique(x, return_counts=True)
        tie_term = 0
        for t in tie_counts:
            t = int(t)
            tie_term += t * (t - 1) * (2 * t + 5)
        var_num = n * (n - 1) * (2 * n + 5) - tie_term
        var = float(var_num) / 18.0
        if var <= 0.0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series(dtype=object),
                    "n_hours": pd.Series(dtype=np.int64),
                    "s_stat": pd.Series(dtype=np.int64),
                    "zscore": pd.Series(dtype=np.float64),
                }
            )
        sd = math.sqrt(var)
        if s > 0:
            z = (float(s) - 1.0) / sd
        elif s < 0:
            z = (float(s) + 1.0) / sd
        else:
            z = 0.0
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_hours": np.array([n], dtype=np.int64),
                "s_stat": np.array([s], dtype=np.int64),
                "zscore": [float(_r6away(z))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES26["mann_kendall"] = """
WITH """ + _DENSE_1H + """,
s AS (
  SELECT a.event_type,
         CAST(SUM(CASE WHEN b.x > a.x THEN 1
                       WHEN b.x < a.x THEN -1 ELSE 0 END) AS BIGINT) AS s
  FROM d a JOIN d b ON b.event_type = a.event_type AND b.idx > a.idx
  GROUP BY 1
),
nn AS (SELECT event_type, COUNT(*) AS n FROM d GROUP BY 1),
ties AS (
  SELECT event_type, x, COUNT(*) AS t FROM d GROUP BY 1, 2
),
tt AS (
  SELECT event_type,
         CAST(SUM(t * (t - 1) * (2 * t + 5)) AS BIGINT) AS tie_term
  FROM ties GROUP BY 1
),
v AS (
  SELECT nn.event_type, nn.n, s.s,
         CAST(nn.n * (nn.n - 1) * (2 * nn.n + 5) - tt.tie_term AS DOUBLE)
           / 18.0 AS var
  FROM nn JOIN s USING (event_type) JOIN tt USING (event_type)
  WHERE nn.n >= 3
)
SELECT event_type,
       CAST(n AS BIGINT) AS n_hours,
       s AS s_stat,
       ROUND(CASE WHEN s > 0 THEN (CAST(s AS DOUBLE) - 1.0) / sqrt(var)
                  WHEN s < 0 THEN (CAST(s AS DOUBLE) + 1.0) / sqrt(var)
                  ELSE 0.0 END, 6) AS zscore
FROM v WHERE var > 0.0
"""


# ---------------------------------------------------------------------------
# Source-vs-corpus cross entropy / KL divergence
# ---------------------------------------------------------------------------


def q_source_cross_entropy(sf_dir: str):
    """Per source: cross-entropy of its token distribution against the
    whole-corpus unigram model and the KL divergence (cross - own
    entropy) — which sources a corpus-level language model represents
    worst. Every count is an exact integer through two exchanges; all
    three entropy folds run over ascending token per source."""
    per_tok = _per_token_counts(sf_dir).to_pandas()  # (source, tok, m_sum)
    corpus = (
        per_tok.groupby("tok", sort=True)["m_sum"].sum().astype(np.int64)
    )
    t_corpus = int(corpus.sum())
    rows = []
    for src, g in per_tok.groupby("source", sort=True):
        g = g.sort_values("tok")
        t_src = int(g["m_sum"].sum())
        gl = corpus.loc[g["tok"]].to_numpy(np.int64)
        # H(src) = ln T_s - (sum m ln m)/T_s
        f_own = _fold(
            [float(int(m)) * math.log(float(int(m))) for m in g["m_sum"]]
        )
        h_own = math.log(float(t_src)) - f_own / float(t_src)
        # cross = ln T_c - (sum m ln g)/T_s
        f_cross = _fold(
            [
                float(int(m)) * math.log(float(int(gc)))
                for m, gc in zip(g["m_sum"], gl)
            ]
        )
        cross = math.log(float(t_corpus)) - f_cross / float(t_src)
        kl = cross - h_own
        rows.append(
            (
                src,
                t_src,
                float(_r6away(h_own)),
                float(_r6away(cross)),
                float(_r6away(kl)),
            )
        )
    return pd.DataFrame(
        rows, columns=["source", "n_tokens", "h_source", "cross_entropy", "kl"]
    ).astype({"n_tokens": np.int64})


ORACLES26["source_cross_entropy"] = """
WITH t AS (
  SELECT source,
         UNNEST(regexp_extract_all(lower(COALESCE(text, '')),
                                   '[\\p{L}\\p{N}_]+')) AS tok
  FROM documents
),
c AS (SELECT source, tok, COUNT(*) AS m FROM t GROUP BY 1, 2),
g AS (SELECT tok, CAST(SUM(m) AS BIGINT) AS gm FROM c GROUP BY 1),
tc AS (SELECT CAST(SUM(gm) AS BIGINT) AS t_corpus FROM g),
a AS (
  SELECT c.source,
         CAST(SUM(c.m) AS BIGINT) AS t_src,
         list_sum(list(CAST(c.m AS DOUBLE) * ln(CAST(c.m AS DOUBLE))
                       ORDER BY c.tok)) AS f_own,
         list_sum(list(CAST(c.m AS DOUBLE) * ln(CAST(g.gm AS DOUBLE))
                       ORDER BY c.tok)) AS f_cross
  FROM c JOIN g USING (tok)
  GROUP BY 1
)
SELECT a.source,
       a.t_src AS n_tokens,
       ROUND(ln(CAST(a.t_src AS DOUBLE)) - a.f_own / CAST(a.t_src AS DOUBLE), 6)
         AS h_source,
       ROUND(ln(CAST(tc.t_corpus AS DOUBLE))
             - a.f_cross / CAST(a.t_src AS DOUBLE), 6) AS cross_entropy,
       ROUND((ln(CAST(tc.t_corpus AS DOUBLE))
              - a.f_cross / CAST(a.t_src AS DOUBLE))
             - (ln(CAST(a.t_src AS DOUBLE))
                - a.f_own / CAST(a.t_src AS DOUBLE)), 6) AS kl
FROM a CROSS JOIN tc
"""


# ---------------------------------------------------------------------------
# Session-count threshold sensitivity
# ---------------------------------------------------------------------------


def q_session_threshold_curve(sf_dir: str):
    """Total session count at inactivity thresholds {15, 30, 60}
    minutes: sessions = n_users + number of per-user gaps exceeding the
    threshold — how sensitive session analytics are to the timeout
    knob (session_windows materializes one choice; this sweeps it).
    Pure integer gap threshold counts through per-user bucket
    kernels."""
    ev = _events(sf_dir, ["event_id", "ts", "user_id"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "user_id": b["user_id"].astype(np.int64),
                "ts_us": b["ts"].to_numpy("datetime64[us]").view(np.int64),
                "event_id": b["event_id"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )

    def bucket_kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts_us", "event_id"])
        uid = df["user_id"].to_numpy(np.int64)
        ts = df["ts_us"].to_numpy(np.int64)
        same = uid[1:] == uid[:-1]
        gaps = ts[1:] - ts[:-1]
        n_users = int(np.unique(uid).size)
        rows = []
        for thr_min in SESSION_THRESHOLDS_MIN:
            thr = thr_min * MINUTE_US
            breaks = int((same & (gaps > thr)).sum())
            rows.append((thr_min, n_users + breaks, n_users))
        return pd.DataFrame(
            rows, columns=["threshold_min", "n_sessions", "n_users"]
        ).astype(
            {
                "threshold_min": np.int64,
                "n_sessions": np.int64,
                "n_users": np.int64,
            }
        )

    agg = hash_bucket_aggregate(
        bucketed_map_groups(ev, ["user_id"], None, whole_bucket_fn=bucket_kernel),
        ["threshold_min"],
        [("n_sessions", "sum"), ("n_users", "sum")],
    ).to_pandas()
    return (
        pd.DataFrame(
            {
                "threshold_min": agg["threshold_min"].astype(np.int64),
                "n_sessions": agg["n_sessions_sum"].astype(np.int64),
                "n_users": agg["n_users_sum"].astype(np.int64),
            }
        )
        .sort_values("threshold_min")
        .reset_index(drop=True)
    )


ORACLES26["session_threshold_curve"] = f"""
WITH s AS (
  SELECT user_id,
         epoch_us(ts) - LAG(epoch_us(ts))
           OVER (PARTITION BY user_id ORDER BY ts, event_id) AS gap
  FROM events
),
u AS (SELECT COUNT(DISTINCT user_id) AS n_users FROM events),
th AS (SELECT UNNEST([{", ".join(str(t) for t in SESSION_THRESHOLDS_MIN)}])
         AS threshold_min),
b AS (
  SELECT th.threshold_min,
         CAST(COUNT(*) FILTER (WHERE s.gap IS NOT NULL
               AND s.gap > CAST(th.threshold_min AS BIGINT) * {MINUTE_US})
           AS BIGINT) AS breaks
  FROM s CROSS JOIN th
  GROUP BY 1
)
SELECT CAST(b.threshold_min AS BIGINT) AS threshold_min,
       CAST(u.n_users + b.breaks AS BIGINT) AS n_sessions,
       CAST(u.n_users AS BIGINT) AS n_users
FROM b CROSS JOIN u
"""


QUERIES26["mann_kendall"] = q_mann_kendall
QUERIES26["source_cross_entropy"] = q_source_cross_entropy
QUERIES26["session_threshold_curve"] = q_session_threshold_curve
