"""Round-3 batch 67: complexity and outlier diagnostics on the hourly
tier — permutation (ordinal-pattern) entropy, sample entropy (SampEn,
m=2 with a data-driven integer tolerance), and the Grubbs max-outlier
statistic, each per event_type over the dense zero-filled hourly count
grid.

House parity: ordinal patterns and SampEn template matches are pure
integer predicates over int64 counts (order-free, shuffle-immune); the
only float expressions (entropy folds, the SampEn tolerance, the Grubbs
studentized deviation) are transcribed op-for-op into the DuckDB oracle
so both engines evaluate identical IEEE-754 operations. Entropy folds
ascend a deterministic key (pattern code) via
list_sum(list(x ORDER BY code)) == the Python ascending loop, bitwise.

Scale contracts: each event_type's calendar-bounded dense hourly series
is a few thousand points, reduced inside ONE bucketed_map_groups kernel
call after the standard partial+final rollup exchange; the SampEn O(n^2)
template comparison is bounded per series (720 points -> 0.26M pairs as
a numpy broadcast), never corpus-wide.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from ..kernels.seasonal import dense_counts
from .queries2 import _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us

QUERIES65: dict = {}
ORACLES65: dict = {}

HOUR_US = 3_600_000_000


# ---------------------------------------------------------------------------
# Permutation (ordinal-pattern) entropy, m=3
# ---------------------------------------------------------------------------


def q_permutation_entropy(sf_dir: str):
    """Ordinal-pattern entropy (Bandt-Pompe, m=3) per event_type: encode
    every consecutive hourly-count triple by its stable ordinal pattern
    (position i sorts before j>i iff x_i <= x_j, so ties keep time
    order), count the 6 possible patterns, and report the Shannon
    entropy of the pattern distribution in nats plus the modal pattern.

    The pattern code is 4*(a<=b) + 2*(a<=c) + (b<=c) — a pure integer
    predicate shared bitwise with the oracle; two of the 8 codes are
    logically impossible. Entropy is an ascending-code left fold."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_triples": pd.Series(dtype=np.int64),
             "n_patterns": pd.Series(dtype=np.int64),
             "modal_pattern": pd.Series(dtype=np.int64),
             "perm_entropy": pd.Series(dtype=np.float64)}
        )
        if n < 3:
            return empty
        a = x[:-2]
        b = x[1:-1]
        c = x[2:]
        code = (
            4 * (a <= b).astype(np.int64)
            + 2 * (a <= c).astype(np.int64)
            + (b <= c).astype(np.int64)
        )
        counts = np.bincount(code, minlength=8)
        total = n - 2
        ent = 0.0
        modal = -1
        modal_cnt = -1
        npat = 0
        for pc in range(8):
            cnt = int(counts[pc])
            if cnt == 0:
                continue
            npat += 1
            p = float(cnt) / float(total)
            ent = ent + p * math.log(p)
            if cnt > modal_cnt:
                modal_cnt = cnt
                modal = pc
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_triples": np.array([total], dtype=np.int64),
                "n_patterns": np.array([npat], dtype=np.int64),
                "modal_pattern": np.array([modal], dtype=np.int64),
                "perm_entropy": [float(_r6away(-ent))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES65["permutation_entropy"] = """
WITH """ + _DENSE_1H + """,
t AS (
  SELECT event_type, idx, x,
         lead(x, 1) OVER w AS x1, lead(x, 2) OVER w AS x2
  FROM d WINDOW w AS (PARTITION BY event_type ORDER BY idx)
),
codes AS (
  SELECT event_type,
         4 * CASE WHEN x <= x1 THEN 1 ELSE 0 END
         + 2 * CASE WHEN x <= x2 THEN 1 ELSE 0 END
         + CASE WHEN x1 <= x2 THEN 1 ELSE 0 END AS code
  FROM t WHERE x2 IS NOT NULL
),
pc AS (
  SELECT event_type, code, COUNT(*) AS cnt
  FROM codes GROUP BY 1, 2
),
tot AS (SELECT event_type, SUM(cnt) AS total FROM pc GROUP BY 1),
modal AS (
  SELECT event_type, code AS modal_pattern
  FROM pc
  QUALIFY row_number() OVER (PARTITION BY event_type
                             ORDER BY cnt DESC, code ASC) = 1
)
SELECT pc.event_type,
       CAST(MAX(tot.total) AS BIGINT) AS n_triples,
       CAST(COUNT(*) AS BIGINT) AS n_patterns,
       CAST(MAX(modal.modal_pattern) AS BIGINT) AS modal_pattern,
       ROUND(-list_sum(list(
           (CAST(cnt AS DOUBLE) / CAST(tot.total AS DOUBLE))
           * ln(CAST(cnt AS DOUBLE) / CAST(tot.total AS DOUBLE))
           ORDER BY pc.code)), 6) AS perm_entropy
FROM pc
JOIN tot ON tot.event_type = pc.event_type
JOIN modal ON modal.event_type = pc.event_type
GROUP BY pc.event_type
"""


# ---------------------------------------------------------------------------
# Sample entropy (SampEn, m=2)
# ---------------------------------------------------------------------------


def q_sample_entropy(sf_dir: str):
    """Sample entropy SampEn(m=2, r) per event_type over the dense
    hourly counts, with the conventional data-driven tolerance
    r = max(1, half-up-round(0.2 * population sd)) computed from exact
    integer power sums so both engines derive the identical integer r.

    Template starts are 0..n-3 on BOTH the m=2 and m=3 counts (the
    self-consistent Richman-Moorman variant): B counts ordered pairs
    i<j whose length-2 templates match within Chebyshev distance r, A
    additionally requires the third element to match; SampEn =
    -ln(A/B). A and B are pure integer counts — the O(n^2) comparison
    is one numpy broadcast bounded by the per-series grid (~720
    points), mirrored by a per-type self-join in the oracle."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "tolerance_r": pd.Series(dtype=np.int64),
             "b_pairs": pd.Series(dtype=np.int64),
             "a_pairs": pd.Series(dtype=np.int64),
             "sampen": pd.Series(dtype=np.float64)}
        )
        if n < 4:
            return empty
        S = int(x.sum())
        SS = int((x * x).sum())
        m = float(S) / n
        den = float(SS) - m * float(S)
        if den == 0.0:
            return empty
        sd = math.sqrt(den / n)
        r = int(math.floor(0.2 * sd + 0.5))
        if r < 1:
            r = 1
        diff = np.abs(x[:, None] - x[None, :])
        T = n - 2
        ok2 = (diff[:T, :T] <= r) & (diff[1:T + 1, 1:T + 1] <= r)
        ok3 = ok2 & (diff[2:T + 2, 2:T + 2] <= r)
        iu = np.triu_indices(T, k=1)
        B = int(ok2[iu].sum())
        A = int(ok3[iu].sum())
        if A == 0 or B == 0:
            return empty
        sampen = -math.log(float(A) / float(B))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "tolerance_r": np.array([r], dtype=np.int64),
                "b_pairs": np.array([B], dtype=np.int64),
                "a_pairs": np.array([A], dtype=np.int64),
                "sampen": [float(_r6away(sampen))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES65["sample_entropy"] = """
WITH """ + _DENSE_1H + """,
s AS (
  SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(x*x) AS sxx
  FROM d GROUP BY 1 HAVING COUNT(*) >= 4
),
p AS (
  SELECT event_type, n,
         GREATEST(1, CAST(FLOOR(
           0.2 * sqrt((CAST(sxx AS DOUBLE)
                       - (CAST(sx AS DOUBLE) / n) * CAST(sx AS DOUBLE)) / n)
           + 0.5) AS BIGINT)) AS r
  FROM s
  WHERE (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE) / n) * CAST(sx AS DOUBLE))
        != 0
),
t AS (
  SELECT event_type, idx, x,
         lead(x, 1) OVER w AS x1, lead(x, 2) OVER w AS x2
  FROM d WINDOW w AS (PARTITION BY event_type ORDER BY idx)
),
tt AS (SELECT * FROM t WHERE x2 IS NOT NULL),
agg AS (
  SELECT a.event_type,
         SUM(CASE WHEN GREATEST(abs(a.x - b.x), abs(a.x1 - b.x1)) <= p.r
                  THEN 1 ELSE 0 END) AS b_pairs,
         SUM(CASE WHEN GREATEST(abs(a.x - b.x), abs(a.x1 - b.x1),
                                abs(a.x2 - b.x2)) <= p.r
                  THEN 1 ELSE 0 END) AS a_pairs
  FROM tt a
  JOIN tt b ON b.event_type = a.event_type AND b.idx > a.idx
  JOIN p ON p.event_type = a.event_type
  GROUP BY 1
)
SELECT p.event_type, CAST(p.n AS BIGINT) AS n_buckets,
       CAST(p.r AS BIGINT) AS tolerance_r,
       CAST(agg.b_pairs AS BIGINT) AS b_pairs,
       CAST(agg.a_pairs AS BIGINT) AS a_pairs,
       ROUND(-ln(CAST(agg.a_pairs AS DOUBLE) / CAST(agg.b_pairs AS DOUBLE)),
             6) AS sampen
FROM p JOIN agg USING (event_type)
WHERE agg.a_pairs > 0 AND agg.b_pairs > 0
"""


# ---------------------------------------------------------------------------
# Grubbs max-outlier statistic
# ---------------------------------------------------------------------------


def q_grubbs_test(sf_dir: str):
    """Grubbs statistic per event_type: G = max |x - mean| / sd over the
    dense hourly counts (population sd from exact integer sums), with
    the winning bucket index and raw count. First-ascending bucket wins
    float ties — both engines order by the bitwise-identical G so the
    winner is deterministic."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        n = int(x.size)
        empty = pd.DataFrame(
            {"event_type": pd.Series(dtype=object),
             "n_buckets": pd.Series(dtype=np.int64),
             "peak_idx": pd.Series(dtype=np.int64),
             "peak_count": pd.Series(dtype=np.int64),
             "grubbs_g": pd.Series(dtype=np.float64)}
        )
        if n < 3:
            return empty
        S = int(x.sum())
        SS = int((x * x).sum())
        m = float(S) / n
        den = float(SS) - m * float(S)
        if den == 0.0:
            return empty
        sd = math.sqrt(den / n)
        g = np.abs(x.astype(np.float64) - m) / sd
        best = -1
        best_g = -np.inf
        for i in range(n):
            gi = float(g[i])
            if gi > best_g:
                best_g = gi
                best = i
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_buckets": np.array([n], dtype=np.int64),
                "peak_idx": np.array([best], dtype=np.int64),
                "peak_count": np.array([int(x[best])], dtype=np.int64),
                "grubbs_g": [float(_r6away(best_g))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


ORACLES65["grubbs_test"] = """
WITH """ + _DENSE_1H + """,
s AS (
  SELECT event_type, COUNT(*) AS n, SUM(x) AS sx, SUM(x*x) AS sxx
  FROM d GROUP BY 1 HAVING COUNT(*) >= 3
),
fit AS (
  SELECT event_type, n,
         CAST(sx AS DOUBLE) / n AS m,
         sqrt((CAST(sxx AS DOUBLE)
               - (CAST(sx AS DOUBLE) / n) * CAST(sx AS DOUBLE)) / n) AS sd
  FROM s
  WHERE (CAST(sxx AS DOUBLE) - (CAST(sx AS DOUBLE) / n) * CAST(sx AS DOUBLE))
        != 0
)
SELECT d.event_type, CAST(f.n AS BIGINT) AS n_buckets,
       CAST(d.idx AS BIGINT) AS peak_idx,
       CAST(d.x AS BIGINT) AS peak_count,
       ROUND(abs(CAST(d.x AS DOUBLE) - f.m) / f.sd, 6) AS grubbs_g
FROM d JOIN fit f USING (event_type)
QUALIFY row_number() OVER (
    PARTITION BY d.event_type
    ORDER BY abs(CAST(d.x AS DOUBLE) - f.m) / f.sd DESC, d.idx ASC) = 1
"""


QUERIES65["permutation_entropy"] = q_permutation_entropy
QUERIES65["sample_entropy"] = q_sample_entropy
QUERIES65["grubbs_test"] = q_grubbs_test
