"""Round-3 batch 80: embedding-quality and calendar-interaction
operators — the label confusion rate (share of vectors whose nearest
label centroid is foreign — the clusterability audit on top of
label_centroids), the chi-square independence test of (day-of-week x
hour-of-day) event counts (is the diurnal shape weekday-invariant),
and per-label embedding norm statistics.

House parity: vectors quantize to micro-units (the
embedding_covariance unit); centroids are s/n rationals whose float
form both engines derive identically from exact integer per-(label,
dim) sums; squared distances are LEFT FOLDS over ascending dim (a
64-step vectorized accumulation in numpy == list_sum(list(...
ORDER BY dim))); the chi2 margins are exact integers.

Scale contracts: the confusion pass is two map_batches sweeps (sum
exchange -> bounded centroid broadcast -> count exchange); the chi2 is
one bounded 7x24 aggregate; norms fold per label inside bucketed_map_groups of
per-vector integer norm rows.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from .queries2 import _events, _r6away
from .queries14 import _fold

QUERIES78: dict = {}
ORACLES78: dict = {}

DAY_US = 86_400_000_000
HOUR_US = 3_600_000_000


def _quantize(batch: pd.DataFrame) -> np.ndarray:
    mat = np.vstack(batch["embedding"].to_numpy()).astype(np.float64)
    y = mat * 1e6
    return (np.sign(y) * np.floor(np.abs(y) + 0.5)).astype(np.int64)


# ---------------------------------------------------------------------------
# Label confusion rate (nearest-centroid misassignment)
# ---------------------------------------------------------------------------


def q_label_confusion_rate(sf_dir: str):
    """Per label: vector count and the share of vectors strictly closer
    (squared euclidean, ascending-dim left fold) to some OTHER label's
    centroid than to their own. Centroids are per-(label, dim) exact
    integer sums / counts."""
    import ray
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )

    def sums(batch: pd.DataFrame) -> pd.DataFrame:
        q = _quantize(batch)
        lab = batch["label"].astype(np.int64).to_numpy()
        n, d = q.shape
        return pd.DataFrame(
            {
                "label": np.repeat(lab, d),
                "dim": np.tile(np.arange(d, dtype=np.int64), n),
                "s": q.ravel(),
                "n": np.where(
                    np.tile(np.arange(d, dtype=np.int64), n) == 0, 1, 0
                ).astype(np.int64),
            }
        )

    agg = hash_bucket_aggregate(
        ds.map_batches(sums, batch_format="pandas"),
        ["label", "dim"],
        [("s", "sum"), ("n", "sum")],
    ).to_pandas()
    labels = sorted(agg["label"].unique().tolist())
    dims = int(agg["dim"].max()) + 1
    cnt = {
        int(l): int(
            agg.loc[(agg.label == l) & (agg.dim == 0), "n_sum"].iloc[0]
        )
        for l in labels
    }
    cent = np.zeros((len(labels), dims), dtype=np.float64)
    for li, l in enumerate(labels):
        g = agg[agg.label == l].set_index("dim")["s_sum"]
        for d in range(dims):
            cent[li, d] = float(int(g.loc[d])) / float(cnt[int(l)])
    cent_ref = ray.put((labels, cent))

    def confuse(batch: pd.DataFrame) -> pd.DataFrame:
        labs, c = ray.get(cent_ref)
        q = _quantize(batch).astype(np.float64)
        lab = batch["label"].astype(np.int64).to_numpy()
        n = q.shape[0]
        # ascending-dim left fold of squared distances to every centroid
        d2 = np.zeros((n, len(labs)), dtype=np.float64)
        for d in range(q.shape[1]):
            diff = q[:, d:d + 1] - c[:, d][None, :]
            d2 = d2 + diff * diff
        own_idx = np.searchsorted(np.array(labs), lab)
        own = d2[np.arange(n), own_idx]
        masked = d2.copy()
        masked[np.arange(n), own_idx] = np.inf
        other = masked.min(axis=1)
        mis = (other < own).astype(np.int64)
        return pd.DataFrame(
            {"label": lab, "n": np.ones(n, dtype=np.int64), "mis": mis}
        ).groupby("label", sort=False).sum().reset_index()

    out = (
        hash_bucket_aggregate(
            ds.map_batches(confuse, batch_format="pandas"),
            ["label"],
            [("n", "sum"), ("mis", "sum")],
        )
        .to_pandas()
        .sort_values("label")
    )
    return pd.DataFrame(
        {
            "label": out["label"].astype(np.int64),
            "n_vecs": out["n_sum"].astype(np.int64),
            "n_confused": out["mis_sum"].astype(np.int64),
            "confusion_rate": _r6away(
                out["mis_sum"].to_numpy(np.float64)
                / out["n_sum"].to_numpy(np.float64)
            ),
        }
    ).reset_index(drop=True)


ORACLES78["label_confusion_rate"] = """
WITH e AS (
  SELECT vec_id, label,
         unnest(range(0, len(embedding))) AS dim,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000000.0) AS BIGINT)
           AS q
  FROM embeddings
),
cs AS (
  SELECT label, dim, CAST(SUM(q) AS BIGINT) AS s, COUNT(*) AS n
  FROM e GROUP BY 1, 2
),
cent AS (
  SELECT label, dim, CAST(s AS DOUBLE) / CAST(n AS DOUBLE) AS mu FROM cs
),
d2 AS (
  SELECT e.vec_id, e.label AS own_label, cent.label AS cand,
         list_sum(list(
           (CAST(e.q AS DOUBLE) - cent.mu) * (CAST(e.q AS DOUBLE) - cent.mu)
           ORDER BY e.dim)) AS dist2
  FROM e JOIN cent ON cent.dim = e.dim
  GROUP BY 1, 2, 3
),
verdict AS (
  SELECT vec_id, own_label,
         MAX(CASE WHEN cand = own_label THEN dist2 END) AS own,
         MIN(CASE WHEN cand != own_label THEN dist2 END) AS other
  FROM d2 GROUP BY 1, 2
)
SELECT CAST(own_label AS BIGINT) AS label,
       CAST(COUNT(*) AS BIGINT) AS n_vecs,
       CAST(COUNT(*) FILTER (WHERE other < own) AS BIGINT) AS n_confused,
       ROUND(CAST(COUNT(*) FILTER (WHERE other < own) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS confusion_rate
FROM verdict GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Day-of-week x hour-of-day chi-square independence
# ---------------------------------------------------------------------------


def q_dow_hod_chi2(sf_dir: str):
    """One global row: chi-square independence of the 7x24 (day-of-week,
    hour-of-day) event count table — a significant value means the
    diurnal profile changes across weekdays. Margins are exact
    integers; the fold ascends (dow, hod)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts = batch["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        dow = ((ts // DAY_US) + 3) % 7
        hod = (ts // HOUR_US) % 24
        df = pd.DataFrame(
            {"dow": dow, "hod": hod, "n": np.ones(len(ts), dtype=np.int64)}
        )
        return df.groupby(["dow", "hod"], sort=False).sum().reset_index()

    agg = (
        hash_bucket_aggregate(
            _events(sf_dir, ["ts"]).map_batches(partial, batch_format="pandas"),
            ["dow", "hod"],
            [("n", "sum")],
        )
        .to_pandas()
        .sort_values(["dow", "hod"])
    )
    out_empty = pd.DataFrame(
        {"n_events": pd.Series(dtype=np.int64),
         "dof": pd.Series(dtype=np.int64),
         "chi2": pd.Series(dtype=np.float64)}
    )
    if agg.empty:
        return out_empty
    total = int(agg["n_sum"].sum())
    row = agg.groupby("dow")["n_sum"].transform("sum").astype(np.int64)
    col_map = agg.groupby("hod")["n_sum"].sum().astype(np.int64)
    col = agg["hod"].map(col_map).astype(np.int64)
    tf = float(total)
    terms = []
    for o, rx, cy in zip(agg["n_sum"], row, col):
        e = float(int(rx)) * float(int(cy)) / tf
        terms.append((float(int(o)) - e) * (float(int(o)) - e) / e)
    chi2 = _fold(terms)
    nr = int(agg["dow"].nunique())
    nc = int(agg["hod"].nunique())
    return pd.DataFrame(
        {
            "n_events": np.array([total], dtype=np.int64),
            "dof": np.array([(nr - 1) * (nc - 1)], dtype=np.int64),
            "chi2": [float(_r6away(chi2))],
        }
    )


ORACLES78["dow_hod_chi2"] = """
WITH c AS (
  SELECT (epoch_us(ts) // 86400000000 + 3) % 7 AS dow,
         (epoch_us(ts) // 3600000000) % 24 AS hod,
         COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
w AS (
  SELECT dow, hod, n,
         CAST(SUM(n) OVER (PARTITION BY dow) AS BIGINT) AS r,
         CAST(SUM(n) OVER (PARTITION BY hod) AS BIGINT) AS cl,
         CAST(SUM(n) OVER () AS BIGINT) AS total
  FROM c
)
SELECT CAST(MAX(total) AS BIGINT) AS n_events,
       CAST((COUNT(DISTINCT dow) - 1) * (COUNT(DISTINCT hod) - 1) AS BIGINT)
         AS dof,
       ROUND(list_sum(list(
         (CAST(n AS DOUBLE)
          - CAST(r AS DOUBLE) * CAST(cl AS DOUBLE) / CAST(total AS DOUBLE))
         * (CAST(n AS DOUBLE)
            - CAST(r AS DOUBLE) * CAST(cl AS DOUBLE) / CAST(total AS DOUBLE))
         / (CAST(r AS DOUBLE) * CAST(cl AS DOUBLE) / CAST(total AS DOUBLE))
         ORDER BY dow, hod)), 6) AS chi2
FROM w
"""


# ---------------------------------------------------------------------------
# Per-label embedding norm statistics
# ---------------------------------------------------------------------------


def q_embedding_norm_by_label(sf_dir: str):
    """Per label: vector count, mean and max euclidean norm in
    micro-units/1e6 — do labels live on different shells. Squared
    norms are exact integers; the mean folds sqrt(ss) ascending
    vec_id."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )

    def pervec(batch: pd.DataFrame) -> pd.DataFrame:
        q = _quantize(batch)
        return pd.DataFrame(
            {
                "label": batch["label"].astype(np.int64),
                "vec_id": batch["vec_id"].astype(np.int64),
                "ss": (q * q).sum(axis=1),
            }
        )

    def fold_label(df: pd.DataFrame) -> pd.DataFrame:
        d = df.sort_values("vec_id")
        norms = [math.sqrt(float(int(s))) for s in d["ss"]]
        n = len(norms)
        return pd.DataFrame(
            {
                "label": np.array([int(d["label"].iloc[0])], dtype=np.int64),
                "n_vecs": np.array([n], dtype=np.int64),
                "mean_norm": [
                    float(_r6away(_fold(norms) / float(n) / 1.0e6))
                ],
                "max_norm": [float(_r6away(max(norms) / 1.0e6))],
            }
        )

    return bucketed_map_groups(
        ds.map_batches(pervec, batch_format="pandas"), ["label"], fold_label
    )


ORACLES78["embedding_norm_by_label"] = """
WITH e AS (
  SELECT vec_id, label,
         CAST(ROUND(CAST(unnest(embedding) AS DOUBLE) * 1000000.0) AS BIGINT)
           AS q
  FROM embeddings
),
v AS (
  SELECT vec_id, label, CAST(SUM(q * q) AS BIGINT) AS ss
  FROM e GROUP BY 1, 2
)
SELECT CAST(label AS BIGINT) AS label,
       CAST(COUNT(*) AS BIGINT) AS n_vecs,
       ROUND(list_sum(list(sqrt(CAST(ss AS DOUBLE)) ORDER BY vec_id))
             / CAST(COUNT(*) AS DOUBLE) / 1000000.0, 6) AS mean_norm,
       ROUND(MAX(sqrt(CAST(ss AS DOUBLE))) / 1000000.0, 6) AS max_norm
FROM v GROUP BY 1
"""


QUERIES78["label_confusion_rate"] = q_label_confusion_rate
QUERIES78["dow_hod_chi2"] = q_dow_hod_chi2
QUERIES78["embedding_norm_by_label"] = q_embedding_norm_by_label
