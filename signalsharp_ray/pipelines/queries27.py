"""Round-3 batch 29: model-eval and volatility diagnostics —
leave-one-out 1-NN label accuracy over the quantized embeddings (the
zero-training cluster-label quality check beside calinski_harabasz),
volatility clustering per event type (lag-1 autocorrelation of SQUARED
hourly load changes — GARCH-style 'do shocks cluster'), and the Gini
coefficient of document lengths per source (length inequality as a
quality signal).

House parity: 1-NN distances are exact integer sums of squared
quantized component diffs with deterministic (distance, vec_id) ties;
volatility power sums are exact Python-int / HUGEINT reductions feeding
the transcribed Pearson expression (the gap_autocorr recipe); the Gini
numerator is the house integer formula sum((2i-n-1) x_(i)) under a
deterministic (length, doc_id) sort.

Scale contracts: the quantized matrix broadcasts once via ray.put (the
knn_cosine contract; the IVF/LSH entries are the documented big-corpus
path); per-type grids are retention-bounded; per-source length tables
reduce through bucketed_map_groups.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups
from .queries2 import _documents, _r6away, event_tier
from .queries3 import _DENSE_1H, _bucket_us
from .queries4 import _quantize_rows

QUERIES27: dict = {}
ORACLES27: dict = {}


# ---------------------------------------------------------------------------
# Leave-one-out 1-NN label accuracy
# ---------------------------------------------------------------------------


def q_knn_loo_accuracy(sf_dir: str):
    """Leave-one-out 1-nearest-neighbour label accuracy over the
    quantized embeddings: for every vector, the label of its nearest
    OTHER vector by exact integer squared distance ((dist, vec_id)
    ties), scored against its own label — the classic 'are these
    labels learnable' probe. The quantized matrix broadcasts once;
    per-batch integer matmuls compute exact distances."""
    import ray
    import ray.data as rd

    import pyarrow.parquet as pq

    ref_tbl = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label", "embedding"]
    ).to_pandas()
    q_all = _quantize_rows(ref_tbl["embedding"])
    ids_all = ref_tbl["vec_id"].to_numpy(np.int64)
    labels_all = ref_tbl["label"].to_numpy(np.int64)
    norms_all = (q_all * q_all).sum(axis=1)
    ref = ray.put((q_all, ids_all, labels_all, norms_all))

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "label", "embedding"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qa, ida, laba, norma = ray.get(ref)
        qb = _quantize_rows(batch["embedding"])
        idb = batch["vec_id"].to_numpy(np.int64)
        labb = batch["label"].to_numpy(np.int64)
        normb = (qb * qb).sum(axis=1)
        # exact int64 squared distances
        d = normb[:, None] - 2 * (qb @ qa.T) + norma[None, :]
        # deterministic (dist, vec_id) key; exclude self by vec_id
        key = d * 10_000_000 + ida[None, :]
        key[idb[:, None] == ida[None, :]] = np.iinfo(np.int64).max
        nn = key.argmin(axis=1)
        correct = int((laba[nn] == labb).sum())
        return pd.DataFrame(
            {
                "n": np.array([len(batch)], dtype=np.int64),
                "correct": np.array([correct], dtype=np.int64),
            }
        )

    agg = ds.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(agg["n"].sum())
    c = int(agg["correct"].sum())
    return pd.DataFrame(
        {
            "n_vecs": np.array([n], dtype=np.int64),
            "n_correct": np.array([c], dtype=np.int64),
            "accuracy": [float(_r6away(float(c) / float(n)))],
        }
    )


ORACLES27["knn_loo_accuracy"] = """
WITH m AS (
  SELECT vec_id, label, embedding,
         list_max(list_transform(embedding, x -> abs(x))) AS ma
  FROM embeddings
),
q AS (
  SELECT vec_id, CAST(label AS BIGINT) AS label,
         list_transform(embedding,
           x -> CASE WHEN ma = 0 THEN 0
                     ELSE CAST(ROUND(CAST(x AS DOUBLE) / CAST(ma AS DOUBLE) * 127)
                               AS BIGINT) END) AS qv
  FROM m
),
p AS (
  SELECT a.vec_id AS va, a.label AS la, b.vec_id AS vb, b.label AS lb,
         list_sum(list_transform(range(0, len(a.qv)),
           i -> (a.qv[CAST(i AS INT) + 1] - b.qv[CAST(i AS INT) + 1])
                * (a.qv[CAST(i AS INT) + 1] - b.qv[CAST(i AS INT) + 1])))
           AS dist
  FROM q a JOIN q b ON a.vec_id != b.vec_id
),
nn AS (
  SELECT va, la, lb,
         ROW_NUMBER() OVER (PARTITION BY va ORDER BY dist, vb) AS rn
  FROM p
),
acc AS (
  SELECT COUNT(*) AS n,
         CAST(COUNT(*) FILTER (WHERE la = lb) AS BIGINT) AS c
  FROM nn WHERE rn = 1
)
SELECT CAST(n AS BIGINT) AS n_vecs,
       c AS n_correct,
       ROUND(CAST(c AS DOUBLE) / CAST(n AS DOUBLE), 6) AS accuracy
FROM acc
"""


# ---------------------------------------------------------------------------
# Volatility clustering (lag-1 ACF of squared changes)
# ---------------------------------------------------------------------------


def q_volatility_clustering(sf_dir: str):
    """Per event type: lag-1 Pearson correlation of SQUARED hour-over-
    hour load changes on the dense grid — the GARCH-style volatility
    clustering gauge (large shocks following large shocks) that raw
    ACF cannot see. All power sums are exact Python ints / HUGEINTs;
    one transcribed expression."""
    from ..kernels.seasonal import dense_counts

    HOUR_US = 3_600_000_000

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        _, x = dense_counts(_bucket_us(df), df["count"].to_numpy(), HOUR_US)
        d = np.diff(x.astype(np.int64))
        y = d * d
        if y.size < 2:
            return _VC_EMPTY.copy()
        a = y[:-1]
        b = y[1:]
        n = int(a.size)
        sx = int(a.sum())
        sy = int(b.sum())
        sxx = sum(int(v) * int(v) for v in a)
        syy = sum(int(v) * int(v) for v in b)
        sxy = sum(int(u) * int(v) for u, v in zip(a, b))
        num = float(n) * float(sxy) - float(sx) * float(sy)
        dx = float(n) * float(sxx) - float(sx) * float(sx)
        dy = float(n) * float(syy) - float(sy) * float(sy)
        if not (dx > 0.0 and dy > 0.0):
            return _VC_EMPTY.copy()
        r = num / (math.sqrt(dx) * math.sqrt(dy))
        return pd.DataFrame(
            {
                "event_type": [df["event_type"].iloc[0]],
                "n_pairs": np.array([n], dtype=np.int64),
                "vol_autocorr": [float(_r6away(r))],
            }
        )

    return bucketed_map_groups(event_tier(sf_dir, "1h"), ["event_type"], fn)


_VC_EMPTY = pd.DataFrame(
    {
        "event_type": pd.Series(dtype=object),
        "n_pairs": pd.Series(dtype=np.int64),
        "vol_autocorr": pd.Series(dtype=np.float64),
    }
)


ORACLES27["volatility_clustering"] = """
WITH """ + _DENSE_1H + """,
dd AS (
  SELECT event_type, idx,
         x - LAG(x) OVER (PARTITION BY event_type ORDER BY idx) AS df
  FROM d
),
y AS (
  SELECT event_type, idx, df * df AS y,
         LEAD(df * df) OVER (PARTITION BY event_type ORDER BY idx) AS ny
  FROM dd WHERE df IS NOT NULL
),
p AS (SELECT event_type, y AS a, ny AS b FROM y WHERE ny IS NOT NULL),
agg AS (
  SELECT event_type, COUNT(*) AS n,
         CAST(SUM(a) AS BIGINT) AS sx,
         CAST(SUM(b) AS BIGINT) AS sy,
         SUM(a::HUGEINT * a::HUGEINT) AS sxx,
         SUM(b::HUGEINT * b::HUGEINT) AS syy,
         SUM(a::HUGEINT * b::HUGEINT) AS sxy
  FROM p GROUP BY 1 HAVING COUNT(*) >= 2
),
dd2 AS (
  SELECT event_type, n,
         CAST(n AS DOUBLE) * CAST(sxy AS DOUBLE)
           - CAST(sx AS DOUBLE) * CAST(sy AS DOUBLE) AS num,
         CAST(n AS DOUBLE) * CAST(sxx AS DOUBLE)
           - CAST(sx AS DOUBLE) * CAST(sx AS DOUBLE) AS dx,
         CAST(n AS DOUBLE) * CAST(syy AS DOUBLE)
           - CAST(sy AS DOUBLE) * CAST(sy AS DOUBLE) AS dy
  FROM agg
)
SELECT event_type,
       CAST(n AS BIGINT) AS n_pairs,
       ROUND(num / (sqrt(dx) * sqrt(dy)), 6) AS vol_autocorr
FROM dd2 WHERE dx > 0.0 AND dy > 0.0
"""


# ---------------------------------------------------------------------------
# Document-length Gini per source
# ---------------------------------------------------------------------------


def q_doclen_gini(sf_dir: str):
    """Per source: the Gini coefficient of document lengths — a
    length-inequality quality signal (boilerplate-heavy sources are
    near-equal; organic ones are heavy-tailed). The house integer
    numerator sum((2i-n-1) x_(i)) under a deterministic
    (length, doc_id) sort; one division by n*S."""
    docs = _documents(sf_dir, ["doc_id", "source", "n_chars"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "source": batch["source"],
                "doc_id": batch["doc_id"].astype(np.int64),
                "length": batch["n_chars"].astype(np.int64),
            }
        )

    def kernel(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["length", "doc_id"])
        v = df["length"].to_numpy(np.int64)
        n = v.size
        i = np.arange(1, n + 1, dtype=np.int64)
        num = int(np.sum((2 * i - n - 1) * v))
        s = int(v.sum())
        return pd.DataFrame(
            {
                "source": [df["source"].iloc[0]],
                "n_docs": np.array([n], dtype=np.int64),
                "gini_num": np.array([num], dtype=np.int64),
                "gini": [float(_r6away(float(num) / (float(n) * float(s))))],
            }
        )

    return bucketed_map_groups(
        docs.map_batches(prep, batch_format="pandas"), ["source"], kernel
    )


ORACLES27["doclen_gini"] = """
WITH r AS (
  SELECT source, n_chars,
         ROW_NUMBER() OVER (PARTITION BY source ORDER BY n_chars, doc_id) AS i,
         COUNT(*) OVER (PARTITION BY source) AS cnt
  FROM documents
),
a AS (
  SELECT source,
         MAX(cnt) AS n,
         CAST(SUM((2 * i - cnt - 1) * n_chars) AS BIGINT) AS num,
         CAST(SUM(n_chars) AS BIGINT) AS s
  FROM r GROUP BY 1
)
SELECT source,
       CAST(n AS BIGINT) AS n_docs,
       num AS gini_num,
       ROUND(CAST(num AS DOUBLE) / (CAST(n AS DOUBLE) * CAST(s AS DOUBLE)), 6)
         AS gini
FROM a
"""


QUERIES27["knn_loo_accuracy"] = q_knn_loo_accuracy
QUERIES27["volatility_clustering"] = q_volatility_clustering
QUERIES27["doclen_gini"] = q_doclen_gini
