"""Round-5 batch 158: iterative ML and cross-spectral diagnostics —
a 5-iteration EM fit of a two-component 1-D Gaussian mixture over the
busiest stream's hourly load (Dempster-Laird-Rubin 1977), and Welch
segment-averaged spectral coherence between the two busiest streams.

House parity strategy (the PCA power-iteration pattern): the EM
recursion carries the mixture parameters through a recursive CTE; each
iteration needs only THREE ascending folds (sum of responsibilities r,
sum r*v, sum r*v^2) because the complement sums follow from the exact
integer totals (n, sum v, sum v^2) and the M-step variance expands as
srq - 2*mu'*srv + mu'^2*sr — no fold depends on another fold's result.
Responsibilities use libm exp/sqrt with the identical expression tree
on both engines. Coherence folds libm cos/sin per segment and averages
across segments in ascending-segment order.

Scale contracts: both ride the bounded per-type hourly rollups; EM is
O(iters * n) per series, coherence O(S * L * K)."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from .queries2 import _r6, event_tier

QUERIES158: dict = {}
ORACLES158: dict = {}

_EM_ITERS = 5
_COH_L = 128  # Welch segment length
_COH_K = 4  # frequencies 1..4 (per-segment cycles)


def _busiest_series(sf_dir: str, k: int = 1):
    """Hourly count vectors of the k busiest event types
    (count DESC, type ASC), hour-ascending."""
    hc = event_tier(sf_dir, "1h").to_pandas()
    totals = hc.groupby("event_type")["count"].sum().astype(np.int64)
    order = sorted(totals.index, key=lambda t: (-int(totals[t]), t))
    out = []
    for et in order[:k]:
        s = (
            hc[hc["event_type"] == et]
            .sort_values("bucket_ts")["count"]
            .to_numpy(np.int64)
        )
        out.append((et, s))
    return out


def q_gmm2_em(sf_dir: str):
    """Two-component 1-D Gaussian mixture over the busiest event
    type's hourly counts, 5 EM iterations from a deterministic init
    (means at the 1/4 and 3/4 points of the range, variances at the
    population variance, weight 0.5). Output one row per component:
    (event_type, component, weight, mu, sigma)."""
    (et, v), = _busiest_series(sf_dir, 1)
    vf = v.astype(np.float64)
    n = float(len(v))
    sv = float(int(v.sum()))
    svv = float(int((v * v).sum()))
    mn = float(int(v.min()))
    mx = float(int(v.max()))
    c0 = (svv - sv * sv / n) / n
    mu1 = mn + (mx - mn) / 4.0
    mu2 = mn + 3.0 * (mx - mn) / 4.0
    s21 = c0
    s22 = c0
    p2 = 0.5
    for _ in range(_EM_ITERS):
        # ascending-index folds with libm exp/sqrt per element — the
        # oracle's list_sum/list_transform replays these bitwise
        sr = srv = srq = 0.0
        for x in vf:
            n1 = math.exp(-((x - mu1) * (x - mu1)) / (2.0 * s21)) / math.sqrt(
                2.0 * math.pi * s21
            )
            n2 = math.exp(-((x - mu2) * (x - mu2)) / (2.0 * s22)) / math.sqrt(
                2.0 * math.pi * s22
            )
            r = (p2 * n2) / ((1.0 - p2) * n1 + p2 * n2)
            sr += r
            srv += r * x
            srq += r * x * x
        mu2 = srv / sr
        mu1 = (sv - srv) / (n - sr)
        s22 = max(
            (srq - 2.0 * mu2 * srv + mu2 * mu2 * sr) / sr, 1e-12
        )
        s21 = max(
            ((svv - srq) - 2.0 * mu1 * (sv - srv) + mu1 * mu1 * (n - sr))
            / (n - sr),
            1e-12,
        )
        p2 = sr / n
    return pd.DataFrame(
        {
            "event_type": [et, et],
            "component": np.array([1, 2], dtype=np.int64),
            "weight": _r6(np.array([1.0 - p2, p2])),
            "mu": _r6(np.array([mu1, mu2])),
            "sigma": _r6(np.array([math.sqrt(s21), math.sqrt(s22)])),
        }
    )


QUERIES158["gmm2_em"] = q_gmm2_em
# the responsibility / M-step expression trees are transcribed verbatim;
# all exp/sqrt go through libm on both engines (math.* per element).
ORACLES158["gmm2_em"] = """
WITH RECURSIVE tc AS (SELECT event_type, COUNT(*) AS n FROM events GROUP BY 1),
t1 AS (
  SELECT event_type,
         row_number() OVER (ORDER BY n DESC, event_type ASC) AS rk
  FROM tc QUALIFY rk = 1
),
s AS (
  SELECT date_trunc('hour', ts) AS h, CAST(COUNT(*) AS DOUBLE) AS v
  FROM events WHERE event_type = (SELECT event_type FROM t1)
  GROUP BY 1
),
a AS (
  SELECT list(v ORDER BY h) AS vs,
         CAST(COUNT(*) AS DOUBLE) AS n,
         SUM(v) AS sv, SUM(v * v) AS svv,
         MIN(v) AS mn, MAX(v) AS mx
  FROM s
),
init AS (
  SELECT vs, n, sv, svv,
         mn + (mx - mn) / 4.0 AS mu1,
         mn + 3.0 * (mx - mn) / 4.0 AS mu2,
         (svv - sv * sv / n) / n AS s21,
         (svv - sv * sv / n) / n AS s22,
         CAST(0.5 AS DOUBLE) AS p2
  FROM a
),
em AS (
  SELECT 0 AS it, vs, n, sv, svv, mu1, mu2, s21, s22, p2 FROM init
  UNION ALL
  SELECT it + 1, vs, n, sv, svv,
         (sv - srv) / (n - sr) AS mu1,
         srv / sr AS mu2,
         GREATEST(((svv - srq)
                   - 2.0 * ((sv - srv) / (n - sr)) * (sv - srv)
                   + ((sv - srv) / (n - sr)) * ((sv - srv) / (n - sr))
                     * (n - sr)) / (n - sr), 1e-12) AS s21,
         GREATEST((srq - 2.0 * (srv / sr) * srv
                   + (srv / sr) * (srv / sr) * sr) / sr, 1e-12) AS s22,
         sr / n AS p2
  FROM (
    SELECT it, vs, n, sv, svv, mu1, mu2, s21, s22, p2,
           list_sum(list_transform(vs, v ->
             (p2 * (exp(-((v - mu2) * (v - mu2)) / (2.0 * s22))
                    / sqrt(2.0 * pi() * s22)))
             / ((1.0 - p2) * (exp(-((v - mu1) * (v - mu1)) / (2.0 * s21))
                              / sqrt(2.0 * pi() * s21))
                + p2 * (exp(-((v - mu2) * (v - mu2)) / (2.0 * s22))
                        / sqrt(2.0 * pi() * s22))))) AS sr,
           list_sum(list_transform(vs, v ->
             ((p2 * (exp(-((v - mu2) * (v - mu2)) / (2.0 * s22))
                     / sqrt(2.0 * pi() * s22)))
              / ((1.0 - p2) * (exp(-((v - mu1) * (v - mu1)) / (2.0 * s21))
                               / sqrt(2.0 * pi() * s21))
                 + p2 * (exp(-((v - mu2) * (v - mu2)) / (2.0 * s22))
                         / sqrt(2.0 * pi() * s22)))) * v)) AS srv,
           list_sum(list_transform(vs, v ->
             ((p2 * (exp(-((v - mu2) * (v - mu2)) / (2.0 * s22))
                     / sqrt(2.0 * pi() * s22)))
              / ((1.0 - p2) * (exp(-((v - mu1) * (v - mu1)) / (2.0 * s21))
                               / sqrt(2.0 * pi() * s21))
                 + p2 * (exp(-((v - mu2) * (v - mu2)) / (2.0 * s22))
                         / sqrt(2.0 * pi() * s22)))) * v * v)) AS srq
    FROM em WHERE it < 5
  )
),
fin AS (SELECT * FROM em WHERE it = 5)
SELECT (SELECT event_type FROM t1) AS event_type,
       CAST(1 AS BIGINT) AS component,
       ROUND(1.0 - p2, 6) AS weight,
       ROUND(mu1, 6) AS mu,
       ROUND(sqrt(s21), 6) AS sigma
FROM fin
UNION ALL
SELECT (SELECT event_type FROM t1), CAST(2 AS BIGINT),
       ROUND(p2, 6), ROUND(mu2, 6), ROUND(sqrt(s22), 6)
FROM fin
"""


def q_welch_coherence(sf_dir: str):
    """Welch segment-averaged magnitude-squared coherence between the
    two busiest streams' hourly counts: 128-hour segments, per-segment
    raw DFT at k = 1..4 cycles/segment, cross/auto spectra averaged
    across segments, coherence = |Sxy|^2 / (Sxx * Syy). Segment count
    S = n // 128 (types with n < 128 common hours yield no rows).
    Output (k, n_segments, coherence)."""
    pair = _busiest_series(sf_dir, 2)
    if len(pair) < 2:
        return pd.DataFrame({"k": [], "n_segments": [], "coherence": []})
    # align on common hours via the shared helper logic
    hc = event_tier(sf_dir, "1h").to_pandas()
    totals = hc.groupby("event_type")["count"].sum().astype(np.int64)
    order = sorted(totals.index, key=lambda t: (-int(totals[t]), t))
    a, b = order[0], order[1]
    pa_ = hc[hc["event_type"] == a].set_index("bucket_ts")["count"]
    pb_ = hc[hc["event_type"] == b].set_index("bucket_ts")["count"]
    common = pa_.index.intersection(pb_.index).sort_values()
    x = pa_.loc[common].to_numpy(np.int64).astype(np.float64)
    y = pb_.loc[common].to_numpy(np.int64).astype(np.float64)
    n = len(x)
    S = n // _COH_L
    rows = []
    for k in range(1, _COH_K + 1):
        sxx = syy = sxy_re = sxy_im = 0.0
        for s in range(S):  # ascending-segment fold
            xr = xi = yr = yi = 0.0
            for t in range(_COH_L):  # ascending-t fold, libm trig
                ang = 2.0 * math.pi * k * t / _COH_L
                c, sn = math.cos(ang), math.sin(ang)
                xv = x[s * _COH_L + t]
                yv = y[s * _COH_L + t]
                xr += xv * c
                xi += xv * sn
                yr += yv * c
                yi += yv * sn
            sxx += xr * xr + xi * xi
            syy += yr * yr + yi * yi
            sxy_re += xr * yr + xi * yi
            sxy_im += xi * yr - xr * yi
        if S == 0 or sxx == 0.0 or syy == 0.0:
            continue
        coh = (sxy_re * sxy_re + sxy_im * sxy_im) / (sxx * syy)
        rows.append((np.int64(k), np.int64(S), float(_r6(np.array([coh]))[0])))
    return pd.DataFrame(rows, columns=["k", "n_segments", "coherence"])


QUERIES158["welch_coherence"] = q_welch_coherence
ORACLES158["welch_coherence"] = """
WITH tc AS (SELECT event_type, COUNT(*) AS n FROM events GROUP BY 1),
t2 AS (
  SELECT event_type,
         row_number() OVER (ORDER BY n DESC, event_type ASC) AS rk
  FROM tc QUALIFY rk <= 2
),
hc AS (
  SELECT event_type, date_trunc('hour', ts) AS h,
         CAST(COUNT(*) AS DOUBLE) AS v
  FROM events WHERE event_type IN (SELECT event_type FROM t2)
  GROUP BY 1, 2
),
j AS (
  SELECT a.h, a.v AS x, b.v AS y
  FROM (SELECT h, v FROM hc
        WHERE event_type = (SELECT event_type FROM t2 WHERE rk = 1)) a
  JOIN (SELECT h, v FROM hc
        WHERE event_type = (SELECT event_type FROM t2 WHERE rk = 2)) b
  USING (h)
),
al AS (
  SELECT list(x ORDER BY h) AS xs, list(y ORDER BY h) AS ys, COUNT(*) AS n
  FROM j
),
seg AS (
  SELECT al.*, al.n // 128 AS ns, kk.k
  FROM al, UNNEST(range(1, 5)) AS kk(k)
  WHERE al.n // 128 > 0
),
dft AS (
  SELECT k, ns, s.s,
         list_sum(list_transform(range(0, 128),
           t -> xs[s.s * 128 + t + 1]
                * cos(2.0 * pi() * k * t / 128))) AS xr,
         list_sum(list_transform(range(0, 128),
           t -> xs[s.s * 128 + t + 1]
                * sin(2.0 * pi() * k * t / 128))) AS xi,
         list_sum(list_transform(range(0, 128),
           t -> ys[s.s * 128 + t + 1]
                * cos(2.0 * pi() * k * t / 128))) AS yr,
         list_sum(list_transform(range(0, 128),
           t -> ys[s.s * 128 + t + 1]
                * sin(2.0 * pi() * k * t / 128))) AS yi
  FROM seg, UNNEST(range(0, seg.ns)) AS s(s)
),
sp AS (
  SELECT k, ns,
         list_sum(list(xr * xr + xi * xi ORDER BY s)) AS sxx,
         list_sum(list(yr * yr + yi * yi ORDER BY s)) AS syy,
         list_sum(list(xr * yr + xi * yi ORDER BY s)) AS sxy_re,
         list_sum(list(xi * yr - xr * yi ORDER BY s)) AS sxy_im
  FROM dft GROUP BY 1, 2
)
SELECT CAST(k AS BIGINT) AS k, CAST(ns AS BIGINT) AS n_segments,
       ROUND((sxy_re * sxy_re + sxy_im * sxy_im) / (sxx * syy), 6)
         AS coherence
FROM sp WHERE sxx <> 0 AND syy <> 0
"""
