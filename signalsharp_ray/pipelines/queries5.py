"""Round-2 batch 5: behavioural sequence models (Markov transitions),
information-theoretic text quality (token entropy), symbolic series
representation (SAX), robust outlier fences (IQR), churn diagnostics
(dormant users), corpus bigram statistics, a TPC-H Q6-shaped filter
aggregate, and CSV/JSON interchange sink+source roundtrips.

Every operator here is DuckDB-oracle-verified (ORACLES5). Parity rules are
the house style (see queries2.py/queries4.py): money and counts cross
shuffles as exact int64 (order-free merges at any block layout), durations
are int64 microseconds, and float expressions are transcribed op-for-op
with one shared final ROUND. Two new parity tools this batch:

- ordered float reductions: DuckDB `list_sum(list(term ORDER BY k))` sums
  the ordered list sequentially left-to-right, bitwise-equal to a Python
  left-fold over the same ascending-k terms (probed; locked in by the
  token_entropy oracle at every sf).
- no-float outputs: sax_symbols emits SYMBOLS cut from bitwise-shared
  z-score expressions, so the whole operator verifies with zero rounding.

Scale contracts are stated per operator; the common one is the bucketed
exchange with per-key state bounded by one key's rows (one user's events,
one series' retention window of hourly buckets) — never the corpus.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate
from ..stages.rollup import rollup_tier
from .queries2 import _documents, _events, _r6away, _r6h, event_tier
from .queries4 import _cents, _ts_us, hourly_cents_partial

HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000

QUERIES5: dict = {}
ORACLES5: dict = {}


# ---------------------------------------------------------------------------
# Markov transition matrix over per-user event sequences
# ---------------------------------------------------------------------------


def markov_user_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE user: consecutive event_type pairs in
    (ts, event_id) order, reduced to per-user pair counts (int64)."""
    df = df.sort_values(["ts_us", "event_id"], kind="mergesort")
    et = df["event_type"].to_numpy()
    if et.size < 2:
        return pd.DataFrame(
            {"from_type": [], "to_type": [], "n": np.array([], dtype=np.int64)}
        )
    pairs = pd.DataFrame({"from_type": et[:-1], "to_type": et[1:]})
    g = pairs.groupby(["from_type", "to_type"], sort=False).size()
    out = g.reset_index(name="n")
    out["n"] = out["n"].astype(np.int64)
    return out


def markov_bucket_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-BUCKET kernel, vectorized across every user in the bucket:
    one sort by (user_id, ts_us, event_id), one shift, a boundary mask —
    pair-for-pair identical to mapping markov_user_kernel over each user
    (the per-user contract stays unit-tested), without per-key Python."""
    d = df.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
    uid = d["user_id"].to_numpy()
    et = d["event_type"].to_numpy()
    if uid.size < 2:
        return pd.DataFrame(
            {"from_type": [], "to_type": [], "n": np.array([], dtype=np.int64)}
        )
    same = uid[:-1] == uid[1:]
    pairs = pd.DataFrame({"from_type": et[:-1][same], "to_type": et[1:][same]})
    g = pairs.groupby(["from_type", "to_type"], sort=False).size()
    out = g.reset_index(name="n")
    out["n"] = out["n"].astype(np.int64)
    return out


def q_markov_transitions(sf_dir: str):
    """First-order Markov transition matrix of user behaviour: for every
    (from_type, to_type) pair of CONSECUTIVE events of the same user
    (event-time order, event_id tiebreak), the global transition count and
    the conditional probability P(to | from) — the session-flow model
    behind next-action prediction and funnel-anomaly alerts.

    Scale: one bucketed exchange on user_id; the bucket kernel is
    vectorized across users (sort + shift + boundary mask, no per-key
    Python). Per-bucket pair counts are exact int64 partials, so the
    second (tiny: |types|^2 rows) exchange merges order-free; the only
    float is the shared probability division, rounded once on both sides.
    """
    ev = _events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "ts_us": _ts_us(batch["ts"]),
                "event_id": batch["event_id"].astype(np.int64),
                "event_type": batch["event_type"],
            }
        )

    pairs = bucketed_map_groups(
        ev.map_batches(prep, batch_format="pandas"),
        ["user_id"],
        None,
        whole_bucket_fn=markov_bucket_kernel,
    )
    agg = hash_bucket_aggregate(pairs, ["from_type", "to_type"], [("n", "sum")])
    out = agg.to_pandas()  # |event_types|^2 rows — tiny
    tot = out.groupby("from_type")["n_sum"].transform("sum")
    return pd.DataFrame(
        {
            "from_type": out["from_type"],
            "to_type": out["to_type"],
            "n": out["n_sum"].astype(np.int64),
            "prob": _r6away(
                out["n_sum"].to_numpy(np.float64) / tot.to_numpy(np.float64)
            ),
        }
    )


MARKOV_TRANSITIONS_SQL = """
WITH s AS (
  SELECT user_id, event_type,
         LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
),
t AS (
  SELECT event_type AS from_type, nxt AS to_type, COUNT(*) AS n
  FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2
)
SELECT from_type, to_type, CAST(n AS BIGINT) AS n,
       ROUND(CAST(n AS DOUBLE)
             / CAST(SUM(n) OVER (PARTITION BY from_type) AS DOUBLE), 6) AS prob
FROM t
"""

QUERIES5["markov_transitions"] = q_markov_transitions
ORACLES5["markov_transitions"] = MARKOV_TRANSITIONS_SQL


# ---------------------------------------------------------------------------
# TPC-H Q6-shaped filter aggregate (forecasting revenue change)
# ---------------------------------------------------------------------------


def q_tpch_q6_revenue(sf_dir: str):
    """TPC-H-Q6-shaped revenue-change forecast: total discount revenue of
    1996 shipments with discount in [0.05, 0.07] and quantity < 24. The
    canonical scan-dominated query: NO shuffle at all — the date predicate
    is pushed into the parquet row-group scan, the discount/quantity
    predicates are vectorized per batch, and each batch reduces to one
    exact int64 (cents x basis-points) partial that sums order-free.

    Emits one row even over an empty match set (zero-count row contract).
    """
    import pyarrow.dataset as pads
    import ray.data as rd

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_shipdate", "l_extendedprice", "l_discount", "l_quantity"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        bp = np.rint(batch["l_discount"].to_numpy(np.float64) * 10000).astype(np.int64)
        keep = (bp >= 500) & (bp <= 700) & (batch["l_quantity"].to_numpy() < 24)
        cents = _cents(batch["l_extendedprice"][keep])
        return pd.DataFrame(
            {
                "rev_cents_bp": np.array([int(np.sum(cents * bp[keep]))], dtype=np.int64),
                "n_items": np.array([int(keep.sum())], dtype=np.int64),
            }
        )

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()  # 1 row/batch
    total = int(parts["rev_cents_bp"].sum()) if len(parts) else 0
    n = int(parts["n_items"].sum()) if len(parts) else 0
    return pd.DataFrame(
        {
            "revenue": _r6away(float(total) / 1000000.0),
            "n_items": np.array([n], dtype=np.int64),
        }
    )


TPCH_Q6_REVENUE_SQL = """
SELECT ROUND(CAST(COALESCE(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
                               * CAST(ROUND(l_discount * 10000) AS BIGINT)), 0)
                  AS DOUBLE) / 1000000.0, 6) AS revenue,
       COUNT(*) AS n_items
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1996-01-01' AND l_shipdate < TIMESTAMP '1997-01-01'
  AND CAST(ROUND(l_discount * 10000) AS BIGINT) BETWEEN 500 AND 700
  AND l_quantity < 24
"""

QUERIES5["tpch_q6_revenue"] = q_tpch_q6_revenue
ORACLES5["tpch_q6_revenue"] = TPCH_Q6_REVENUE_SQL


# ---------------------------------------------------------------------------
# Token (Shannon) entropy per document — ordered-float-reduction parity
# ---------------------------------------------------------------------------


def token_entropy_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch kernel (embarrassingly parallel): Shannon entropy of each
    document's token distribution in nats.

    H = ln(n) - (sum_k m_k * k * ln k) / n over the count histogram
    {k: m_k} (m_k = number of distinct tokens occurring k times), so every
    sum except the final ~10-term float reduction is exact-integer, and
    that reduction runs as a strict left-fold over ascending k — bitwise
    equal to the oracle's list_sum(list(term ORDER BY k))."""
    words = batch["text"].fillna("").str.lower().str.findall(r"\w+")
    ids, ns, ds_, ents = [], [], [], []
    for doc_id, toks in zip(batch["doc_id"], words):
        n = len(toks)
        if n == 0:
            continue
        vc = pd.Series(toks).value_counts()
        kh = vc.value_counts().sort_index()  # k -> m_k, ascending k
        s = 0.0
        for k, m in kh.items():
            s = s + float(m * k) * math.log(float(k))
        ids.append(doc_id)
        ns.append(n)
        ds_.append(int(vc.size))
        ents.append(math.log(float(n)) - s / float(n))
    return pd.DataFrame(
        {
            "doc_id": np.asarray(ids, dtype=np.int64),
            "n_tokens": np.asarray(ns, dtype=np.int64),
            "n_distinct": np.asarray(ds_, dtype=np.int64),
            "entropy": _r6away(np.asarray(ents, dtype=np.float64)),
        }
    )


def q_token_entropy(sf_dir: str):
    """Shannon entropy (nats) of each document's unigram distribution plus
    token/distinct counts — the information-density quality signal that
    separates boilerplate (low entropy: few tokens repeated) from natural
    prose, complementing token_rarity's corpus-frequency view with a
    purely local one. No shuffle; per-doc state only.
    """
    return _documents(sf_dir, ["doc_id", "text"]).map_batches(
        token_entropy_batch, batch_format="pandas"
    )


TOKEN_ENTROPY_SQL = """
WITH tk AS (
  SELECT doc_id,
         UNNEST(regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+')) AS w
  FROM documents
),
wc AS (SELECT doc_id, w, COUNT(*) AS c FROM tk GROUP BY 1, 2),
kh AS (SELECT doc_id, c AS k, COUNT(*) AS m FROM wc GROUP BY 1, 2),
ag AS (
  SELECT doc_id,
         CAST(SUM(m * k) AS BIGINT) AS n_tokens,
         CAST(SUM(m) AS BIGINT) AS n_distinct,
         list_sum(list(CAST(m * k AS DOUBLE) * ln(CAST(k AS DOUBLE)) ORDER BY k)) AS s
  FROM kh GROUP BY 1
)
SELECT doc_id, n_tokens, n_distinct,
       ROUND(ln(CAST(n_tokens AS DOUBLE)) - s / CAST(n_tokens AS DOUBLE), 6) AS entropy
FROM ag
"""

QUERIES5["token_entropy"] = q_token_entropy
ORACLES5["token_entropy"] = TOKEN_ENTROPY_SQL


# ---------------------------------------------------------------------------
# SAX symbolic series representation (z-normalized PAA -> alphabet)
# ---------------------------------------------------------------------------

_SAX_SEG = 24  # PAA window: one symbol per day of hourly buckets
_SAX_BP = (-0.6745, 0.0, 0.6745)  # N(0,1) quartile breakpoints, alphabet abcd


def sax_series_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-series kernel: zero-filled dense hourly count grid ->
    population z-normalization -> 24-slot PAA -> 4-letter SAX word.

    Every float (mean, E[x^2], variance, PAA mean, z) is a shared
    expression over exact int64 sums, and the OUTPUT is symbols cut at
    those shared doubles — no rounding anywhere."""
    from ..kernels.seasonal import dense_counts

    df = df.sort_values("bucket_ts", kind="mergesort")
    _, x = dense_counts(
        _ts_us(df["bucket_ts"]), df["count"].to_numpy(np.int64), HOUR_US
    )
    n = int(x.size)
    s = int(x.sum())
    q = int(np.sum(x * x))
    mean = float(s) / float(n)
    msq = float(q) / float(n)
    var = msq - mean * mean
    std = math.sqrt(var) if var > 0 else 0.0
    segs, lens, syms = [], [], []
    for i, start in enumerate(range(0, n, _SAX_SEG)):
        seg = x[start : start + _SAX_SEG]
        paa = float(int(seg.sum())) / float(int(seg.size))
        if std == 0.0:
            c = "b"
        else:
            z = (paa - mean) / std
            if z < _SAX_BP[0]:
                c = "a"
            elif z < _SAX_BP[1]:
                c = "b"
            elif z < _SAX_BP[2]:
                c = "c"
            else:
                c = "d"
        segs.append(i)
        lens.append(int(seg.size))
        syms.append(c)
    return pd.DataFrame(
        {
            "event_type": np.repeat(df["event_type"].iloc[0], len(segs)),
            "seg_idx": np.asarray(segs, dtype=np.int64),
            "seg_len": np.asarray(lens, dtype=np.int64),
            "sax": syms,
        }
    )


def q_sax_symbols(sf_dir: str):
    """SAX (Symbolic Aggregate approXimation) of each event_type's hourly
    count series: z-normalize the zero-filled dense grid with population
    moments, average 24-hour PAA frames, and cut each frame's z-score at
    the N(0,1) quartile breakpoints into letters a-d — the classic
    Lin/Keogh symbolic representation behind motif discovery and
    similarity indexing on massive series archives. One bucketed exchange
    on event_type; per-key state is one retention window of buckets;
    symbol output means ZERO float-rounding surface in the oracle.
    """
    t = event_tier(sf_dir, "1h").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], sax_series_kernel)


SAX_SYMBOLS_SQL = """
WITH c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(b) AS lo, MAX(b) AS hi FROM c GROUP BY 1),
g AS (
  SELECT bo.event_type,
         UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 HOUR)) AS b
  FROM bounds bo
),
d AS (
  SELECT g.event_type, g.b, COALESCE(c.x, 0) AS x,
         epoch_us(g.b) AS bus
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
),
st AS (
  SELECT event_type, MIN(bus) AS lo_us, COUNT(*) AS n,
         CAST(SUM(x) AS BIGINT) AS s, CAST(SUM(x * x) AS BIGINT) AS q
  FROM d GROUP BY 1
),
seg AS (
  SELECT d.event_type,
         ((d.bus - st.lo_us) // 3600000000) // 24 AS seg_idx,
         COUNT(*) AS seg_len, CAST(SUM(d.x) AS BIGINT) AS seg_sum
  FROM d JOIN st USING (event_type) GROUP BY 1, 2
),
z AS (
  SELECT seg.event_type, seg.seg_idx, seg.seg_len,
         CAST(st.s AS DOUBLE) / CAST(st.n AS DOUBLE) AS mean,
         CAST(st.q AS DOUBLE) / CAST(st.n AS DOUBLE)
           - (CAST(st.s AS DOUBLE) / CAST(st.n AS DOUBLE))
             * (CAST(st.s AS DOUBLE) / CAST(st.n AS DOUBLE)) AS var,
         CAST(seg.seg_sum AS DOUBLE) / CAST(seg.seg_len AS DOUBLE) AS paa
  FROM seg JOIN st USING (event_type)
)
SELECT event_type, seg_idx, seg_len,
       CASE
         WHEN var <= 0 THEN 'b'
         WHEN (paa - mean) / sqrt(var) < -0.6745 THEN 'a'
         WHEN (paa - mean) / sqrt(var) < 0.0 THEN 'b'
         WHEN (paa - mean) / sqrt(var) < 0.6745 THEN 'c'
         ELSE 'd'
       END AS sax
FROM z
"""

QUERIES5["sax_symbols"] = q_sax_symbols
ORACLES5["sax_symbols"] = SAX_SYMBOLS_SQL


# ---------------------------------------------------------------------------
# IQR (Tukey fence) outlier report per event_type
# ---------------------------------------------------------------------------


def iqr_outliers_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel: q1/q3 quantiles ROUNDED to 6 dp before use —
    numpy lerps a+(b-a)*t while DuckDB lerps a*(1-t)+b*t, which can
    differ by 1 ulp, so the rounded quantiles are the shared anchor
    (the anomaly_zscore boundary-membership rule) and the Tukey fences
    and outlier count derive from them identically on both sides."""
    v = df["value"].to_numpy(np.float64)
    q1 = float(_r6away(np.quantile(v, 0.25)))
    q3 = float(_r6away(np.quantile(v, 0.75)))
    lo = q1 - 1.5 * (q3 - q1)
    hi = q3 + 1.5 * (q3 - q1)
    n_out = int(np.sum((v < lo) | (v > hi)))
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "q1": [q1],
            "q3": [q3],
            "n_outliers": np.array([n_out], dtype=np.int64),
            "n_events": np.array([v.size], dtype=np.int64),
            "outlier_pct": _r6away(float(n_out) / float(v.size)),
        }
    )


def q_iqr_outliers(sf_dir: str):
    """Tukey-fence outlier report per event_type: exact q1/q3, the
    1.5*IQR fences, and the count/share of events outside them — the
    robust complement to anomaly_zscore (fences from quartiles survive
    the very outliers a sigma-based rule lets inflate its own threshold).
    Same whole-group quantile contract as winsorize (documented; the
    sketch path is quantiles_tdigest); one bucketed exchange on
    event_type.
    """
    ev = _events(sf_dir, ["event_type", "value"])
    return bucketed_map_groups(ev, ["event_type"], iqr_outliers_kernel)


IQR_OUTLIERS_SQL = """
WITH q AS (
  SELECT event_type,
         ROUND(quantile_cont(value, 0.25), 6) AS q1,
         ROUND(quantile_cont(value, 0.75), 6) AS q3
  FROM events GROUP BY 1
)
SELECT e.event_type, q.q1, q.q3,
       CAST(SUM(CASE WHEN e.value < q.q1 - 1.5 * (q.q3 - q.q1)
                       OR e.value > q.q3 + 1.5 * (q.q3 - q.q1)
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_outliers,
       COUNT(*) AS n_events,
       ROUND(CAST(SUM(CASE WHEN e.value < q.q1 - 1.5 * (q.q3 - q.q1)
                             OR e.value > q.q3 + 1.5 * (q.q3 - q.q1)
                           THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS outlier_pct
FROM events e JOIN q USING (event_type)
GROUP BY 1, 2, 3
"""

QUERIES5["iqr_outliers"] = q_iqr_outliers
ORACLES5["iqr_outliers"] = IQR_OUTLIERS_SQL


# ---------------------------------------------------------------------------
# Dormant-user churn report (per-user recency vs corpus watermark)
# ---------------------------------------------------------------------------

_DORMANT_US = 7 * DAY_US


def q_dormant_users(sf_dir: str):
    """Churn diagnostic: every user's event count, last-seen timestamp,
    exact microsecond recency gap to the corpus watermark (global max
    event time), and a dormant flag (gap > 7 days) — the retention
    denominator feeding new_vs_returning and cohort_retention.

    Scale: per-user (max ts, count) reduces through ONE bucketed exchange;
    the corpus watermark is the max of the per-user maxima — a tiny
    driver-side scalar over the already-aggregated table (never the raw
    events), broadcast into the final stateless map. Output is
    integer-exact throughout.
    """
    ev = _events(sf_dir, ["user_id", "ts"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "ts_us": _ts_us(batch["ts"]),
            }
        )

    agg = hash_bucket_aggregate(
        ev.map_batches(prep, batch_format="pandas"),
        ["user_id"],
        [("ts_us", "max")],
        count_alias="n_events",
    ).materialize()  # post-aggregate (one row per user), consumed twice
    gmax = int(agg.max("ts_us_max"))

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        last = batch["ts_us_max"].to_numpy(np.int64)
        gap = gmax - last
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "n_events": batch["n_events"].astype(np.int64),
                "last_seen": pd.to_datetime(last, unit="us"),
                "gap_us": gap,
                "dormant": (gap > _DORMANT_US).astype(np.int64),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


DORMANT_USERS_SQL = """
WITH u AS (
  SELECT user_id, MAX(ts) AS last_seen, COUNT(*) AS n_events FROM events GROUP BY 1
),
g AS (SELECT MAX(last_seen) AS gmax FROM u)
SELECT u.user_id, u.n_events, u.last_seen,
       epoch_us(g.gmax) - epoch_us(u.last_seen) AS gap_us,
       CAST(CASE WHEN epoch_us(g.gmax) - epoch_us(u.last_seen) > 604800000000
                 THEN 1 ELSE 0 END AS BIGINT) AS dormant
FROM u, g
"""

QUERIES5["dormant_users"] = q_dormant_users
ORACLES5["dormant_users"] = DORMANT_USERS_SQL


# ---------------------------------------------------------------------------
# Corpus bigram vocabulary (top-K adjacent-token pairs)
# ---------------------------------------------------------------------------

_BIGRAM_K = 100


def bigram_partial(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch combiner: adjacent-token-pair counts (int64). Tokens
    explode to one row per position; the within-document successor comes
    from a grouped shift, so pairs never cross document boundaries."""
    words = batch["text"].fillna("").str.lower().str.findall(r"\w+")
    ex = words.explode().dropna()
    if ex.empty:
        return pd.DataFrame({"bigram": [], "n": np.array([], dtype=np.int64)})
    df = pd.DataFrame({"doc": ex.index, "w": ex.to_numpy()})
    nxt = df.groupby("doc", sort=False)["w"].shift(-1)
    big = (df["w"] + " " + nxt).dropna()
    vc = big.value_counts()
    return pd.DataFrame(
        {"bigram": vc.index.astype(str), "n": vc.to_numpy(np.int64)}
    )


def q_bigram_vocabulary(sf_dir: str, k: int = _BIGRAM_K):
    """Global top-K adjacent-token bigrams — the phrase-level counterpart
    of `vocabulary` (and the df table a phrase-aware tokenizer or
    collocation miner starts from). Same exact top-K shape: in-batch
    partial counts (pairs never cross documents, so batch splits cannot
    change any count) -> bucketed exact sum (each bigram lives in exactly
    one hash bucket) -> per-bucket top-K -> tiny driver merge of
    K x n_buckets rows; ties break (count DESC, bigram ASC).
    """
    parts = _documents(sf_dir, ["text"]).map_batches(
        bigram_partial, batch_format="pandas"
    )
    agg = hash_bucket_aggregate(parts, ["bigram"], [("n", "sum")])

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(["n_sum", "bigram"], ascending=[False, True]).head(k)

    tops = bucketed_map_groups(agg, ["bigram"], None, whole_bucket_fn=bucket_topk)
    out = tops.to_pandas()  # K x n_buckets rows — tiny
    out = out.sort_values(["n_sum", "bigram"], ascending=[False, True]).head(k)
    return pd.DataFrame(
        {
            "bigram": out["bigram"].to_numpy(),
            "n": out["n_sum"].to_numpy(np.int64),
        }
    )


BIGRAM_VOCABULARY_SQL = """
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(COALESCE(text, '')), '[\\p{L}\\p{N}_]+') AS toks
  FROM documents
),
u AS (
  SELECT doc_id, UNNEST(toks) AS tok, generate_subscripts(toks, 1) AS pos FROM t
),
b AS (
  SELECT doc_id, tok,
         LEAD(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS nxt
  FROM u
)
SELECT tok || ' ' || nxt AS bigram, CAST(COUNT(*) AS BIGINT) AS n
FROM b WHERE nxt IS NOT NULL
GROUP BY 1 ORDER BY n DESC, bigram ASC LIMIT 100
"""

QUERIES5["bigram_vocabulary"] = q_bigram_vocabulary
ORACLES5["bigram_vocabulary"] = BIGRAM_VOCABULARY_SQL


# ---------------------------------------------------------------------------
# CSV / JSON interchange roundtrips (sink + source parity)
# ---------------------------------------------------------------------------


def _hourly_cents_tier(sf_dir: str):
    """The hourly (event_type, bucket) tier in interchange-safe integer
    units: bucket_us/cnt/sum_cents are all int64, so CSV and JSON carry
    them losslessly (no float-formatting surface)."""
    parts = _events(sf_dir, ["ts", "event_type", "value"]).map_batches(
        hourly_cents_partial, batch_format="pandas"
    )
    agg = hash_bucket_aggregate(
        parts,
        ["event_type", "bucket_us"],
        [("cents", "sum"), ("count", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"].astype(str),
                "bucket_us": batch["bucket_us"].astype(np.int64),
                "cnt": batch["count_sum"].astype(np.int64),
                "sum_cents": batch["cents_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


_ROUNDTRIP_SQL = """
SELECT event_type,
       epoch_us(date_trunc('hour', ts)) AS bucket_us,
       COUNT(*) AS cnt,
       CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS sum_cents
FROM events GROUP BY 1, 2
"""


def _interchange_roundtrip(sf_dir: str, fmt: str):
    import os
    import shutil
    import time
    import uuid

    import ray.data as rd

    # unique path per run (concurrent runs can never collide), plus a
    # stale-sibling sweep so repeated verification runs don't accumulate
    # /tmp copies: siblings older than an hour cannot still be streaming
    base = "/tmp/signalsharp_ray"
    prefix = f"{fmt}_roundtrip_"
    if os.path.isdir(base):
        cutoff = time.time() - 3600
        for d in os.listdir(base):
            p = os.path.join(base, d)
            if d.startswith(prefix) and os.path.isdir(p):
                try:
                    if os.path.getmtime(p) < cutoff:
                        shutil.rmtree(p, ignore_errors=True)
                except OSError:
                    pass
    out_dir = f"{base}/{prefix}{uuid.uuid4().hex[:8]}"
    tier = _hourly_cents_tier(sf_dir)
    if fmt == "csv":
        tier.write_csv(out_dir)
        back = rd.read_csv(out_dir)
    else:
        tier.write_json(out_dir)
        back = rd.read_json(out_dir)

    def norm(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"].astype(str),
                "bucket_us": batch["bucket_us"].astype(np.int64),
                "cnt": batch["cnt"].astype(np.int64),
                "sum_cents": batch["sum_cents"].astype(np.int64),
            }
        )

    return back.map_batches(norm, batch_format="pandas")


def q_csv_roundtrip(sf_dir: str):
    """The hourly integer tier written to CSV and READ BACK through Ray's
    CSV source, held to the same oracle as the direct rollup: proves the
    CSV sink+source leg end-to-end (types survive inference because the
    tier is integer-exact by construction — the same reason the tier is
    safe to hand to non-Parquet consumers). Interchange cousin of
    tier_roundtrip (Parquet)."""
    return _interchange_roundtrip(sf_dir, "csv")


def q_json_roundtrip(sf_dir: str):
    """The hourly integer tier through Ray's JSON-lines sink+source, held
    to the direct-rollup oracle — the log-pipeline interchange check
    (JSONL is what fluentd/vector-style shippers emit)."""
    return _interchange_roundtrip(sf_dir, "json")


QUERIES5["csv_roundtrip"] = q_csv_roundtrip
QUERIES5["json_roundtrip"] = q_json_roundtrip
ORACLES5["csv_roundtrip"] = _ROUNDTRIP_SQL
ORACLES5["json_roundtrip"] = _ROUNDTRIP_SQL


# ---------------------------------------------------------------------------
# LTTB on the dense hourly grid — recursive-CTE-verified downsampling
# ---------------------------------------------------------------------------

_LTTB_N_OUT = 50


def lttb_grid_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-series kernel: LTTB over the zero-filled hourly count grid
    with x = 0..n-1. On grid coordinates every centroid sum is a sum of
    small exact integers (float64-exact regardless of summation order),
    so the triangle-area floats are shared expressions and the selection
    is bitwise-reproducible in SQL."""
    from ..kernels.lttb import lttb

    df = df.sort_values("bucket_ts", kind="mergesort")
    from ..kernels.seasonal import dense_counts

    _, y = dense_counts(
        _ts_us(df["bucket_ts"]), df["count"].to_numpy(np.int64), HOUR_US
    )
    n = int(y.size)
    idx = lttb(np.arange(n, dtype=np.float64), y.astype(np.float64), _LTTB_N_OUT)
    return pd.DataFrame(
        {
            "event_type": np.repeat(df["event_type"].iloc[0], idx.size),
            "idx": idx.astype(np.int64),
            "y": y[idx].astype(np.int64),
        }
    )


def q_lttb_grid(sf_dir: str):
    """Largest-Triangle-Three-Buckets downsample of each event_type's
    dense hourly count series to 50 points — the SQL-verified member of
    the LTTB family (q_lttb_downsample keeps the raw-timestamp variant,
    rows-only: float means over ~1e15-microsecond x values cannot hold
    bitwise parity, grid coordinates can). The oracle replays the full
    sequential selection — bucket edges via np.linspace truncation,
    next-bucket centroids, triangle-area argmax with first-wins ties —
    as a recursive CTE advancing one bucket per iteration with a QUALIFY
    row_number() argmax, which pins the DP exactly, not just its output
    shape. Series shorter than 50 buckets pass through whole (kernel and
    oracle agree on the n <= n_out identity branch).

    Scale: one bucketed exchange on event_type; per-key state is one
    retention window of hourly buckets; the DP is O(n) per series and
    sequential per series / parallel across series — the same contract
    as the PELT/forecast kernels.
    """
    t = event_tier(sf_dir, "1h").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], lttb_grid_kernel)


LTTB_GRID_SQL = f"""
WITH RECURSIVE
c AS (
  SELECT event_type, date_trunc('hour', ts) AS b, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, MIN(b) AS lo, MAX(b) AS hi FROM c GROUP BY 1),
g AS (
  SELECT bo.event_type,
         UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 HOUR)) AS b
  FROM bounds bo
),
d0 AS (
  SELECT g.event_type, g.b, COALESCE(c.x, 0) AS y
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
),
st AS (SELECT event_type, MIN(epoch_us(b)) AS lo_us FROM d0 GROUP BY 1),
d AS (
  SELECT d0.event_type,
         (epoch_us(d0.b) - st.lo_us) // 3600000000 AS idx,
         d0.y
  FROM d0 JOIN st USING (event_type)
),
p AS (SELECT event_type, COUNT(*) AS n FROM d GROUP BY 1),
small AS (
  SELECT d.event_type, d.idx, d.y FROM d JOIN p USING (event_type)
  WHERE p.n <= {_LTTB_N_OUT}
),
big AS (SELECT event_type, n FROM p WHERE n > {_LTTB_N_OUT}),
e AS (
  SELECT bg.event_type, j,
         CASE WHEN j = {_LTTB_N_OUT} - 2 THEN bg.n - 1
              ELSE CAST(trunc(CAST(j AS DOUBLE)
                              * (CAST(bg.n - 2 AS DOUBLE)
                                 / CAST({_LTTB_N_OUT} - 2 AS DOUBLE))
                              + 1.0) AS BIGINT) END AS e
  FROM big bg, UNNEST(range(0, {_LTTB_N_OUT} - 1)) AS t(j)
),
bkt AS (
  SELECT a.event_type, a.j AS i, a.e AS lo, b.e AS hi
  FROM e a JOIN e b ON a.event_type = b.event_type AND b.j = a.j + 1
),
cent AS (
  SELECT k.event_type, k.i,
         CAST(SUM(d.idx) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS cx,
         CAST(SUM(d.y) AS DOUBLE) / CAST(COUNT(*) AS DOUBLE) AS cy
  FROM (
    SELECT b1.event_type, b1.i, b1.hi AS nlo,
           CASE WHEN b1.i + 1 < {_LTTB_N_OUT} - 2 THEN b2.hi ELSE bg.n END AS nhi
    FROM bkt b1
    JOIN big bg ON bg.event_type = b1.event_type
    LEFT JOIN bkt b2 ON b2.event_type = b1.event_type AND b2.i = b1.i + 1
  ) k
  JOIN d ON d.event_type = k.event_type AND d.idx >= k.nlo AND d.idx < k.nhi
  GROUP BY 1, 2
),
sel AS (
  SELECT bg.event_type, CAST(-1 AS BIGINT) AS i, CAST(0 AS BIGINT) AS a_idx,
         CAST(0 AS DOUBLE) AS ax,
         (SELECT CAST(y AS DOUBLE) FROM d
          WHERE d.event_type = bg.event_type AND d.idx = 0) AS ay
  FROM big bg
  UNION ALL
  SELECT s.event_type, s.i + 1, d.idx,
         CAST(d.idx AS DOUBLE), CAST(d.y AS DOUBLE)
  FROM sel s
  JOIN bkt b ON b.event_type = s.event_type AND b.i = s.i + 1
  JOIN cent c ON c.event_type = s.event_type AND c.i = s.i + 1
  JOIN d ON d.event_type = s.event_type AND d.idx >= b.lo AND d.idx < b.hi
  QUALIFY row_number() OVER (
    PARTITION BY s.event_type
    ORDER BY abs((s.ax - c.cx) * (CAST(d.y AS DOUBLE) - s.ay)
               - (s.ax - CAST(d.idx AS DOUBLE)) * (c.cy - s.ay)) DESC,
             d.idx ASC) = 1
),
picks AS (
  SELECT s.event_type, s.a_idx AS idx FROM sel s
  UNION ALL
  SELECT bg.event_type, bg.n - 1 FROM big bg
)
SELECT p2.event_type, p2.idx, d.y
FROM picks p2 JOIN d USING (event_type, idx)
UNION ALL
SELECT event_type, idx, y FROM small
"""

QUERIES5["lttb_grid"] = q_lttb_grid
ORACLES5["lttb_grid"] = LTTB_GRID_SQL


# ---------------------------------------------------------------------------
# Banded-LSH candidate pairs over the verified MinHash signatures
# ---------------------------------------------------------------------------


def lsh_band_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch kernel: (doc_id, band, s_lo, s_hi) band keys from the
    md5-permutation MinHash signatures — band 0 = (perm0, perm1),
    band 1 = (perm2, perm3). Signature rows of one doc always share a
    batch (minhash_sig_batch emits them together)."""
    from .queries2 import minhash_sig_batch

    sig = minhash_sig_batch(batch)
    if sig.empty:
        return pd.DataFrame(
            {
                "band": np.array([], dtype=np.int64),
                "s_lo": np.array([], dtype=np.int64),
                "s_hi": np.array([], dtype=np.int64),
                "doc_id": np.array([], dtype=np.int64),
            }
        )
    wide = sig.pivot(index="doc_id", columns="perm", values="sig")
    out = []
    for band, (lo, hi) in enumerate([(0, 1), (2, 3)]):
        out.append(
            pd.DataFrame(
                {
                    "band": np.int64(band),
                    "s_lo": wide[lo].to_numpy(np.int64),
                    "s_hi": wide[hi].to_numpy(np.int64),
                    "doc_id": wide.index.to_numpy(np.int64),
                }
            )
        )
    return pd.concat(out, ignore_index=True)


def lsh_bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE (band, s_lo, s_hi) bucket: all ordered
    doc pairs. Both 64-bit minhash slots agreeing is itself a strong
    similarity certificate, so buckets hold genuine near-dup clusters —
    bucket size is bounded by the largest duplicate cluster, not the
    corpus (exact duplicates should be removed upstream by exact_dedup)."""
    ids = np.sort(df["doc_id"].to_numpy(np.int64))
    if ids.size < 2:
        return pd.DataFrame(
            {
                "doc_a": np.array([], dtype=np.int64),
                "doc_b": np.array([], dtype=np.int64),
                "n": np.array([], dtype=np.int64),
            }
        )
    a, b = np.triu_indices(ids.size, k=1)
    return pd.DataFrame(
        {"doc_a": ids[a], "doc_b": ids[b], "n": np.ones(a.size, dtype=np.int64)}
    )


def q_lsh_candidates(sf_dir: str):
    """MinHash-LSH banded candidate pairs, SQL-verified end-to-end: the
    4-slot md5-permutation signatures (the verified minhash_signatures
    construction) band into 2 bands x 2 rows; documents sharing EITHER
    band become a candidate pair, reported with the number of agreeing
    bands — the exact banding step the production near-dup pipeline
    (stages/dedup.py, rows-only) applies at throughput with numpy
    universal hashing. Integer-only output: zero float surface.

    Scale: one bucketed exchange on the band key; in-bucket pair
    generation is bounded by the near-dup cluster size (both 64-bit
    slots must agree); the per-pair band count merges as an int sum.
    """
    bands = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        lsh_band_batch, batch_format="pandas"
    )
    pairs = bucketed_map_groups(bands, ["band", "s_lo", "s_hi"], lsh_bucket_pairs)
    agg = hash_bucket_aggregate(pairs, ["doc_a", "doc_b"], [("n", "sum")])

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_a": batch["doc_a"].astype(np.int64),
                "doc_b": batch["doc_b"].astype(np.int64),
                "n_shared_bands": batch["n_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


LSH_CANDIDATES_SQL = """
WITH t AS (
  SELECT doc_id, substr(COALESCE(text, ''), 1, 512) AS s FROM documents
  WHERE length(substr(COALESCE(text, ''), 1, 512)) >= 5
),
idx AS (
  SELECT doc_id, s, UNNEST(generate_series(1, length(s) - 4)) AS i FROM t
),
sh AS (
  SELECT DISTINCT doc_id, substr(s, CAST(i AS INT), 5) AS g5 FROM idx
),
p AS (SELECT UNNEST([0, 1, 2, 3]) AS perm),
m AS (
  SELECT sh.doc_id, p.perm,
         MIN(md5_number_upper('p' || p.perm || ':' || sh.g5)) AS sig_u
  FROM sh, p GROUP BY 1, 2
),
sig AS (
  SELECT doc_id, perm,
         CAST(CASE WHEN sig_u >= 9223372036854775808
                   THEN sig_u::HUGEINT - 18446744073709551616::HUGEINT
                   ELSE sig_u::HUGEINT END AS BIGINT) AS sig
  FROM m
),
wide AS (
  SELECT doc_id,
         MAX(CASE WHEN perm = 0 THEN sig END) AS s0,
         MAX(CASE WHEN perm = 1 THEN sig END) AS s1,
         MAX(CASE WHEN perm = 2 THEN sig END) AS s2,
         MAX(CASE WHEN perm = 3 THEN sig END) AS s3
  FROM sig GROUP BY 1
),
bands AS (
  SELECT doc_id, 0 AS band, s0 AS s_lo, s1 AS s_hi FROM wide
  UNION ALL
  SELECT doc_id, 1 AS band, s2 AS s_lo, s3 AS s_hi FROM wide
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(COUNT(*) AS BIGINT) AS n_shared_bands
FROM bands a
JOIN bands b ON a.band = b.band AND a.s_lo = b.s_lo AND a.s_hi = b.s_hi
            AND a.doc_id < b.doc_id
GROUP BY 1, 2
"""

QUERIES5["lsh_candidates"] = q_lsh_candidates
ORACLES5["lsh_candidates"] = LSH_CANDIDATES_SQL


# ---------------------------------------------------------------------------
# Gini concentration of traffic across users, per event_type
# ---------------------------------------------------------------------------


def gini_type_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE event_type: Gini coefficient of the
    per-user count distribution. Ranks follow (count, user_id) ascending
    — a total order, so the int64 weighted sum W = sum(rank * count) is
    reproducible; G = 2W/(nS) - (n+1)/n is the single float expression."""
    d = df.sort_values(["cnt", "user_id"], kind="mergesort")
    c = d["cnt"].to_numpy(np.int64)
    n = int(c.size)
    s = int(c.sum())
    w = int(np.sum((np.arange(1, n + 1, dtype=np.int64)) * c))
    gini = (2.0 * float(w)) / (float(n) * float(s)) - float(n + 1) / float(n)
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "n_users": np.array([n], dtype=np.int64),
            "n_events": np.array([s], dtype=np.int64),
            "gini": _r6away(gini),
        }
    )


def _type_user_counts(sf_dir: str):
    """Shared first stage of the concentration diagnostics (gini_traffic,
    pareto_share): per-(event_type, user) event counts as exact int64,
    reduced through one bucketed exchange."""
    ev = _events(sf_dir, ["user_id", "event_type"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        g = batch.groupby(["event_type", "user_id"], sort=False).size()
        out = g.reset_index(name="cnt")
        out["cnt"] = out["cnt"].astype(np.int64)
        out["user_id"] = out["user_id"].astype(np.int64)
        return out

    return hash_bucket_aggregate(
        ev.map_batches(prep, batch_format="pandas"),
        ["event_type", "user_id"],
        [("cnt", "sum")],
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "event_type": b["event_type"],
                "user_id": b["user_id"].astype(np.int64),
                "cnt": b["cnt_sum"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


def q_gini_traffic(sf_dir: str):
    """Gini coefficient of per-user event counts within each event_type —
    the standard 0 (uniform) .. 1 (one user is all the traffic)
    concentration index, quantifying exactly the key skew this engine's
    salting docs plan for (user_activity_histogram shows the shape; Gini
    reduces it to one comparable number per type).

    Scale: per-(type, user) counts reduce through one bucketed exchange;
    the rank-weighted sum needs the type's user counts sorted in one
    kernel (same whole-group contract as winsorize — the bounded-memory
    path at extreme cardinality is the value-histogram rank formula,
    since counts are small ints).
    """
    return bucketed_map_groups(
        _type_user_counts(sf_dir), ["event_type"], gini_type_kernel
    )


GINI_TRAFFIC_SQL = """
WITH u AS (
  SELECT event_type, user_id, COUNT(*) AS cnt FROM events GROUP BY 1, 2
),
r AS (
  SELECT event_type, cnt,
         row_number() OVER (PARTITION BY event_type ORDER BY cnt, user_id) AS rk
  FROM u
)
SELECT event_type,
       COUNT(*) AS n_users,
       CAST(SUM(cnt) AS BIGINT) AS n_events,
       ROUND(2.0 * CAST(SUM(rk * cnt) AS DOUBLE)
               / (CAST(COUNT(*) AS DOUBLE) * CAST(SUM(cnt) AS DOUBLE))
             - CAST(COUNT(*) + 1 AS DOUBLE) / CAST(COUNT(*) AS DOUBLE),
             6) AS gini
FROM r GROUP BY 1
"""

QUERIES5["gini_traffic"] = q_gini_traffic
ORACLES5["gini_traffic"] = GINI_TRAFFIC_SQL


# ---------------------------------------------------------------------------
# Inter-arrival burstiness per event_type
# ---------------------------------------------------------------------------


def burstiness_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE event_type: Goh-Barabasi burstiness
    B = (sigma - mu)/(sigma + mu) of the inter-arrival gaps. Gaps are
    exact int64 microseconds; the squared-gap sum runs in PYTHON ints
    (gap^2 up to ~1e20 overflows int64; the oracle's HUGEINT matches),
    and both engines round the exact integer to the nearest double the
    same way before the shared float expression."""
    d = df.sort_values(["ts_us", "event_id"], kind="mergesort")
    ts = d["ts_us"].to_numpy()
    if ts.size < 2:
        # the oracle's LAG/WHERE drops gap-less series entirely
        return pd.DataFrame(
            {
                "event_type": [],
                "n_gaps": np.array([], dtype=np.int64),
                "mean_gap_us": np.array([], dtype=np.float64),
                "burstiness": np.array([], dtype=np.float64),
            }
        )
    gaps = np.diff(ts)
    n = int(gaps.size)
    s = int(gaps.sum())
    if s == 0:
        # all events share one timestamp: B = 0/0; the oracle drops the
        # row (WHERE s > 0) and so do we
        return pd.DataFrame(
            {
                "event_type": [],
                "n_gaps": np.array([], dtype=np.int64),
                "mean_gap_us": np.array([], dtype=np.float64),
                "burstiness": np.array([], dtype=np.float64),
            }
        )
    q = sum(int(g) * int(g) for g in gaps)
    mean = float(s) / float(n)
    msq = float(q) / float(n)
    var = msq - mean * mean
    sigma = math.sqrt(var) if var > 0 else 0.0
    b = (sigma - mean) / (sigma + mean)
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "n_gaps": np.array([n], dtype=np.int64),
            "mean_gap_us": _r6away(mean),
            "burstiness": _r6away(b),
        }
    )


def q_interarrival_burstiness(sf_dir: str):
    """Goh-Barabasi burstiness B = (sigma-mu)/(sigma+mu) of each
    event_type's inter-arrival gap distribution: B -> -1 for a metronome,
    ~0 for a Poisson stream, -> +1 for extreme bursts — the one-number
    answer to "is this stream bursty or steady" that sizes buffers and
    autoscaling headroom (gap_quantiles shows the distribution; this
    scores it). One bucketed exchange on event_type; whole-series kernel.
    """
    ev = _events(sf_dir, ["event_id", "ts", "event_type"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "ts_us": _ts_us(batch["ts"]),
                "event_id": batch["event_id"].astype(np.int64),
            }
        )

    return bucketed_map_groups(
        ev.map_batches(prep, batch_format="pandas"), ["event_type"], burstiness_kernel
    )


INTERARRIVAL_BURSTINESS_SQL = """
WITH s AS (
  SELECT event_type,
         epoch_us(ts) - LAG(epoch_us(ts))
           OVER (PARTITION BY event_type ORDER BY ts, event_id) AS gap
  FROM events
),
g AS (SELECT event_type, gap FROM s WHERE gap IS NOT NULL),
a AS (
  SELECT event_type, COUNT(*) AS n,
         CAST(SUM(gap) AS BIGINT) AS s,
         SUM(gap::HUGEINT * gap::HUGEINT) AS q
  FROM g GROUP BY 1
  HAVING CAST(SUM(gap) AS BIGINT) > 0
)
SELECT event_type, n AS n_gaps,
       ROUND(CAST(s AS DOUBLE) / CAST(n AS DOUBLE), 6) AS mean_gap_us,
       ROUND((
          (CASE WHEN CAST(q AS DOUBLE) / CAST(n AS DOUBLE)
                     - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                       * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) > 0
                THEN sqrt(CAST(q AS DOUBLE) / CAST(n AS DOUBLE)
                          - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                            * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)))
                ELSE 0.0 END) - CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
        / ((CASE WHEN CAST(q AS DOUBLE) / CAST(n AS DOUBLE)
                      - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                        * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)) > 0
                 THEN sqrt(CAST(q AS DOUBLE) / CAST(n AS DOUBLE)
                           - (CAST(s AS DOUBLE) / CAST(n AS DOUBLE))
                             * (CAST(s AS DOUBLE) / CAST(n AS DOUBLE)))
                 ELSE 0.0 END) + CAST(s AS DOUBLE) / CAST(n AS DOUBLE)), 6)
         AS burstiness
FROM a
"""

QUERIES5["interarrival_burstiness"] = q_interarrival_burstiness
ORACLES5["interarrival_burstiness"] = INTERARRIVAL_BURSTINESS_SQL


# ---------------------------------------------------------------------------
# RFM scores (quantized-metric strict-rank quintiles)
# ---------------------------------------------------------------------------


def _strict_rank_score(values: np.ndarray, counts: np.ndarray, n: int,
                       better_desc: bool) -> dict:
    """Score LUT for one metric: value -> 1 + (5 * #strictly-worse) // n.
    values must be sorted ascending with their user counts; better_desc
    means HIGHER values are better (worse = lower)."""
    cum = np.concatenate([[0], np.cumsum(counts)])
    lut = {}
    for i, v in enumerate(values):
        worse = int(cum[i]) if better_desc else int(n - cum[i + 1])
        lut[int(v)] = 1 + (5 * worse) // n
    return lut


def q_rfm_scores(sf_dir: str):
    """RFM (recency / frequency / monetary) customer scoring, the classic
    segmentation behind lifecycle marketing: per user, days since last
    event, total events, and whole-dollar spend, each scored 1-5 by
    strict-rank quintile — score = 1 + (5 * #users strictly worse) // n,
    so ties share a score and the result is deterministic (SQL NTILE is
    NOT deterministic under ties; strict-rank quintiles are).

    Scale: metrics are QUANTIZED (day-granularity recency, dollar
    spend, event counts) so each score LUT is bounded by the metric's
    value cardinality — retention-window days, dollar range — never user
    count; the LUTs broadcast once via ray.put (the
    doc_length_percentile histogram pattern) and the scoring pass is a
    stateless vectorized map. Integer-only output.
    """
    import ray

    ev = _events(sf_dir, ["user_id", "ts", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "ts_us": _ts_us(batch["ts"]),
                "cents": _cents(batch["value"]),
            }
        )

    per_user = hash_bucket_aggregate(
        ev.map_batches(prep, batch_format="pandas"),
        ["user_id"],
        [("ts_us", "max"), ("cents", "sum")],
        count_alias="freq",
    ).materialize()  # one row per user, consumed three times below
    gmax = int(per_user.max("ts_us_max"))

    def metrics(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "recency_day": (gmax - batch["ts_us_max"].to_numpy(np.int64))
                // DAY_US,
                "freq": batch["freq"].astype(np.int64),
                "dollars": batch["cents_sum"].to_numpy(np.int64) // 100,
            }
        )

    m = per_user.map_batches(metrics, batch_format="pandas").materialize()

    # bounded-cardinality histograms -> score LUTs (driver state is the
    # number of DISTINCT quantized values, not users)
    luts = {}
    n_users = m.count()
    for col, better_desc in [("recency_day", False), ("freq", True),
                             ("dollars", True)]:
        hist = (
            hash_bucket_aggregate(
                m.map_batches(
                    lambda b, c=col: pd.DataFrame({c: b[c].astype(np.int64)}),
                    batch_format="pandas",
                ),
                [col],
                [],
                count_alias="cnt",
            )
            .to_pandas()
            .sort_values(col)
        )
        luts[col] = _strict_rank_score(
            hist[col].to_numpy(np.int64), hist["cnt"].to_numpy(np.int64),
            n_users, better_desc
        )
    lut_ref = ray.put(luts)

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        tabs = ray.get(lut_ref)
        out = batch.copy()
        out["r_score"] = batch["recency_day"].map(tabs["recency_day"]).astype(np.int64)
        out["f_score"] = batch["freq"].map(tabs["freq"]).astype(np.int64)
        out["m_score"] = batch["dollars"].map(tabs["dollars"]).astype(np.int64)
        return out

    return m.map_batches(score, batch_format="pandas")


RFM_SCORES_SQL = """
WITH u AS (
  SELECT user_id, MAX(ts) AS last_ts, COUNT(*) AS freq,
         CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM events GROUP BY 1
),
g AS (SELECT MAX(last_ts) AS gmax FROM u),
m AS (
  SELECT u.user_id,
         (epoch_us(g.gmax) - epoch_us(u.last_ts)) // 86400000000 AS recency_day,
         u.freq, u.cents // 100 AS dollars
  FROM u, g
),
r AS (
  SELECT user_id, recency_day, freq, dollars,
         RANK() OVER (ORDER BY recency_day DESC) - 1 AS worse_r,
         RANK() OVER (ORDER BY freq ASC) - 1 AS worse_f,
         RANK() OVER (ORDER BY dollars ASC) - 1 AS worse_m,
         COUNT(*) OVER () AS n
  FROM m
)
SELECT user_id, recency_day, freq, dollars,
       1 + (5 * worse_r) // n AS r_score,
       1 + (5 * worse_f) // n AS f_score,
       1 + (5 * worse_m) // n AS m_score
FROM r
"""

QUERIES5["rfm_scores"] = q_rfm_scores
ORACLES5["rfm_scores"] = RFM_SCORES_SQL


# ---------------------------------------------------------------------------
# Revenue by part type (broadcast dimension join)
# ---------------------------------------------------------------------------


def q_part_type_revenue(sf_dir: str):
    """Gross revenue (sum of extendedprice) and item count per part TYPE —
    the product-mix rollup. Plan shaped for 100 TB: `part` is a dimension
    table (bounded by catalog size, not fact volume), so its
    partkey -> type mapping broadcasts ONCE via ray.put and every
    lineitem batch probes it vectorized (pandas map on int64 keys) — no
    shuffle touches the fact table; per-type cents partials sum exactly
    through the tiny final exchange.
    """
    import ray
    import ray.data as rd

    part = (
        rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
        .to_pandas()
    )
    lut_ref = ray.put(
        pd.Series(part["p_type"].to_numpy(), index=part["p_partkey"].to_numpy())
    )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_extendedprice"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(lut_ref)
        df = pd.DataFrame(
            {
                "p_type": batch["l_partkey"].astype(np.int64).map(lut),
                "cents": _cents(batch["l_extendedprice"]),
            }
        )
        g = df.groupby("p_type", sort=False).agg(
            cents=("cents", "sum"), n_items=("cents", "size")
        )
        return g.reset_index()

    agg = hash_bucket_aggregate(
        li.map_batches(partial, batch_format="pandas"),
        ["p_type"],
        [("cents", "sum"), ("n_items", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "p_type": batch["p_type"].astype(str),
                "revenue": _r6away(
                    batch["cents_sum"].to_numpy(np.float64) / 100.0
                ),
                "n_items": batch["n_items_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


PART_TYPE_REVENUE_SQL = """
SELECT p.p_type,
       ROUND(CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)) AS DOUBLE)
             / 100.0, 6) AS revenue,
       COUNT(*) AS n_items
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
GROUP BY 1
"""

QUERIES5["part_type_revenue"] = q_part_type_revenue
ORACLES5["part_type_revenue"] = PART_TYPE_REVENUE_SQL


# ---------------------------------------------------------------------------
# Nation-to-nation trade flows (TPC-H Q7 shape, 5-table plan)
# ---------------------------------------------------------------------------


def q_nation_trade_flows(sf_dir: str):
    """TPC-H-Q7-shaped trade-flow matrix: discounted revenue and item
    count for every (supplier nation -> customer nation) pair — the
    full-star exercise touching lineitem, orders, customer, supplier and
    nation in one plan.

    Plan shaped for 100 TB: the two FACT-side joins co-partition through
    bucketed exchanges (customer<->orders on custkey, then that result
    <->lineitem on orderkey — the shipping_priority pattern); the two
    DIMENSION sides (supplier -> nation name, 10^4-ish rows; nation, 25
    rows) broadcast once via ray.put and resolve vectorized inside each
    batch. Revenue partials are exact int64 cents x (100 - disc) so the
    final tiny (|nations|^2) merge is order-free.
    """
    import ray
    import ray.data as rd

    from ..common.raytools import bucketed_join

    nation = rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    nat_name = pd.Series(
        nation["n_name"].to_numpy(), index=nation["n_nationkey"].to_numpy()
    )
    supp = rd.read_parquet(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    ).to_pandas()
    supp_nat_ref = ray.put(
        pd.Series(
            nat_name.loc[supp["s_nationkey"]].to_numpy(),
            index=supp["s_suppkey"].to_numpy(),
        )
    )

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "custkey": b["c_custkey"].astype(np.int64),
                "cust_nation": nat_name.loc[b["c_nationkey"]].to_numpy(),
            }
        ),
        batch_format="pandas",
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "orderkey": b["o_orderkey"].astype(np.int64),
                "custkey": b["o_custkey"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    ord_nat = bucketed_join(orders, cust, on=["custkey"]).select_columns(
        ["orderkey", "cust_nation"]
    )

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "orderkey": b["l_orderkey"].astype(np.int64),
                "suppkey": b["l_suppkey"].astype(np.int64),
                "rev": _cents(b["l_extendedprice"])
                * np.rint(
                    (1.0 - b["l_discount"].to_numpy(np.float64)) * 100
                ).astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(li, ord_nat, on=["orderkey"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(supp_nat_ref)
        df = pd.DataFrame(
            {
                "supp_nation": batch["suppkey"].map(lut),
                "cust_nation": batch["cust_nation"],
                "rev": batch["rev"].astype(np.int64),
            }
        )
        g = df.groupby(["supp_nation", "cust_nation"], sort=False).agg(
            rev=("rev", "sum"), n_items=("rev", "size")
        )
        return g.reset_index()

    agg = hash_bucket_aggregate(
        joined.map_batches(partial, batch_format="pandas"),
        ["supp_nation", "cust_nation"],
        [("rev", "sum"), ("n_items", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "supp_nation": batch["supp_nation"].astype(str),
                "cust_nation": batch["cust_nation"].astype(str),
                "revenue": _r6away(
                    batch["rev_sum"].to_numpy(np.float64) / 10000.0
                ),
                "n_items": batch["n_items_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


NATION_TRADE_FLOWS_SQL = """
SELECT ns.n_name AS supp_nation, nc.n_name AS cust_nation,
       ROUND(CAST(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                      * CAST(ROUND((1.0 - l.l_discount) * 100) AS BIGINT))
                  AS DOUBLE) / 10000.0, 6) AS revenue,
       COUNT(*) AS n_items
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation nc ON nc.n_nationkey = c.c_nationkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation ns ON ns.n_nationkey = s.s_nationkey
GROUP BY 1, 2
"""

QUERIES5["nation_trade_flows"] = q_nation_trade_flows
ORACLES5["nation_trade_flows"] = NATION_TRADE_FLOWS_SQL


# ---------------------------------------------------------------------------
# Revenue by REGION (snowflake dimension chain customer -> nation -> region)
# ---------------------------------------------------------------------------


def q_region_revenue(sf_dir: str):
    """Order revenue rolled up to sales REGION through the full snowflake
    chain customer -> nation -> region — the last dimension table in the
    star, closing whole-schema coverage. The three dimension levels
    COLLAPSE on the driver into one custkey -> region name map (composing
    broadcast joins of bounded tables costs nothing extra), broadcast
    once via ray.put; the fact table never shuffles and cents partials
    are exact int64 (the revenue_by_nation pattern, one level deeper).
    """
    import ray
    import ray.data as rd

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = rd.read_parquet(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    ).to_pandas()
    region = rd.read_parquet(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    ).to_pandas()
    nat_to_reg = dict(
        zip(
            nation["n_nationkey"],
            nation["n_regionkey"].map(
                dict(zip(region["r_regionkey"], region["r_name"]))
            ),
        )
    )
    cust_to_region = dict(
        zip(
            cust["c_custkey"].astype(np.int64),
            cust["c_nationkey"].map(nat_to_reg).astype(str),
        )
    )
    dim_ref = ray.put(cust_to_region)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        dim = ray.get(dim_ref)
        df = pd.DataFrame(
            {
                "r_name": batch["o_custkey"].astype(np.int64).map(dim),
                "cents": _cents(batch["o_totalprice"]),
            }
        )
        g = df.groupby("r_name", sort=False).agg(
            cents=("cents", "sum"), n_orders=("cents", "size")
        )
        return g.reset_index()

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    )
    agg = hash_bucket_aggregate(
        orders.map_batches(partial, batch_format="pandas"),
        ["r_name"],
        [("cents", "sum"), ("n_orders", "sum")],
    )

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "r_name": batch["r_name"].astype(str),
                "revenue": _r6away(batch["cents_sum"].to_numpy(np.float64) / 100.0),
                "n_orders": batch["n_orders_sum"].astype(np.int64),
            }
        )

    return agg.map_batches(fmt, batch_format="pandas")


REGION_REVENUE_SQL = """
SELECT r.r_name,
       ROUND(CAST(SUM(CAST(ROUND(o.o_totalprice * 100) AS BIGINT)) AS DOUBLE)
             / 100.0, 6) AS revenue,
       COUNT(*) AS n_orders
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY 1
"""

QUERIES5["region_revenue"] = q_region_revenue
ORACLES5["region_revenue"] = REGION_REVENUE_SQL


# ---------------------------------------------------------------------------
# Customer distribution by order count (TPC-H Q13 shape, zero-inclusive)
# ---------------------------------------------------------------------------


def q_custdist(sf_dir: str):
    """TPC-H-Q13-shaped customer distribution: how many customers placed
    exactly k orders, INCLUDING k = 0 — the left-join histogram whose
    zero bucket (customers with no orders at all) is the part a naive
    fact-side groupby silently drops (customers_without_orders lists
    them; this query counts the whole distribution).

    Plan: per-customer order counts reduce through one bucketed exchange
    on custkey; the customer table LEFT-joins those counts through the
    same co-partitioned exchange (missing -> 0); the final histogram over
    k is a tiny integer aggregate. All counts int64 end-to-end.
    """
    import ray.data as rd

    from ..common.raytools import bucketed_join

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"]
    ).map_batches(
        lambda b: (
            b.groupby("o_custkey", sort=False)
            .size()
            .reset_index(name="n")
            .astype({"o_custkey": np.int64, "n": np.int64})
            .rename(columns={"o_custkey": "custkey"})
        ),
        batch_format="pandas",
    )
    per_cust = hash_bucket_aggregate(orders, ["custkey"], [("n", "sum")])
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey"]
    ).map_batches(
        lambda b: pd.DataFrame({"custkey": b["c_custkey"].astype(np.int64)}),
        batch_format="pandas",
    )
    joined = bucketed_join(cust, per_cust, on=["custkey"], how="left")

    def hist_partial(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["n_sum"].fillna(0).astype(np.int64)
        g = k.value_counts()
        return pd.DataFrame(
            {
                "n_orders": g.index.to_numpy(np.int64),
                "n_customers": g.to_numpy(np.int64),
            }
        )

    agg = hash_bucket_aggregate(
        joined.map_batches(hist_partial, batch_format="pandas"),
        ["n_orders"],
        [("n_customers", "sum")],
    )
    return agg.map_batches(
        lambda b: pd.DataFrame(
            {
                "n_orders": b["n_orders"].astype(np.int64),
                "n_customers": b["n_customers_sum"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


CUSTDIST_SQL = """
WITH pc AS (
  SELECT c.c_custkey, COUNT(o.o_orderkey) AS n_orders
  FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
  GROUP BY 1
)
SELECT n_orders, COUNT(*) AS n_customers
FROM pc GROUP BY 1
"""

QUERIES5["custdist"] = q_custdist
ORACLES5["custdist"] = CUSTDIST_SQL


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distribution drift (first half vs second half)
# ---------------------------------------------------------------------------


def ks_drift_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE event_type: two-sample KS statistic
    between the first and second time-half of the series' value
    distribution. The D statistic is computed as an exact INTEGER
    numerator max|c1*n2 - c2*n1| over the merged support (centivalue
    ECDFs share the denominator n1*n2), so the only float is the final
    shared division."""
    t = df["ts_us"].to_numpy(np.int64)
    mid = (int(t.min()) + int(t.max())) // 2
    c = df["cents"].to_numpy(np.int64)
    s1 = np.sort(c[t <= mid])
    s2 = np.sort(c[t > mid])
    n1, n2 = int(s1.size), int(s2.size)
    if n1 == 0 or n2 == 0:
        return pd.DataFrame(
            {
                "event_type": [],
                "n1": np.array([], dtype=np.int64),
                "n2": np.array([], dtype=np.int64),
                "d_num": np.array([], dtype=np.int64),
                "ks_d": np.array([], dtype=np.float64),
            }
        )
    support = np.unique(np.concatenate([s1, s2]))
    c1 = np.searchsorted(s1, support, side="right").astype(np.int64)
    c2 = np.searchsorted(s2, support, side="right").astype(np.int64)
    d_num = int(np.max(np.abs(c1 * n2 - c2 * n1)))
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "n1": np.array([n1], dtype=np.int64),
            "n2": np.array([n2], dtype=np.int64),
            "d_num": np.array([d_num], dtype=np.int64),
            "ks_d": _r6away(float(d_num) / (float(n1) * float(n2))),
        }
    )


def q_ks_drift(sf_dir: str):
    """Data-drift detector: the two-sample Kolmogorov-Smirnov statistic
    between each event_type's value distribution in the FIRST and SECOND
    half of its time range — the standard "did the input distribution
    shift under me" gate a production scoring/training pipeline runs
    before trusting a window of data. The D statistic is exact: both
    ECDFs are put over the common n1*n2 denominator so the max runs over
    integers (no float ECDF subtraction), then ONE shared division. One
    bucketed exchange on event_type; whole-series kernel (the two-pass
    streaming alternative — min/max then merge-count — shares the same
    exchange shape).
    """
    ev = _events(sf_dir, ["ts", "event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "ts_us": _ts_us(batch["ts"]),
                "cents": _cents(batch["value"]),
            }
        )

    return bucketed_map_groups(
        ev.map_batches(prep, batch_format="pandas"), ["event_type"], ks_drift_kernel
    )


KS_DRIFT_SQL = """
WITH e AS (
  SELECT event_type, epoch_us(ts) AS t,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
),
b AS (SELECT event_type, (MIN(t) + MAX(t)) // 2 AS mid FROM e GROUP BY 1),
s AS (
  SELECT e.event_type, e.c,
         CASE WHEN e.t <= b.mid THEN 1 ELSE 2 END AS half
  FROM e JOIN b USING (event_type)
),
n AS (
  SELECT event_type,
         SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS n1,
         SUM(CASE WHEN half = 2 THEN 1 ELSE 0 END) AS n2
  FROM s GROUP BY 1
),
cv AS (
  SELECT event_type, c,
         SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS a1,
         SUM(CASE WHEN half = 2 THEN 1 ELSE 0 END) AS a2
  FROM s GROUP BY 1, 2
),
cum AS (
  SELECT event_type, c,
         SUM(a1) OVER (PARTITION BY event_type ORDER BY c) AS c1,
         SUM(a2) OVER (PARTITION BY event_type ORDER BY c) AS c2
  FROM cv
),
d AS (
  SELECT cum.event_type,
         MAX(ABS(cum.c1 * n.n2 - cum.c2 * n.n1)) AS d_num
  FROM cum JOIN n USING (event_type)
  GROUP BY 1
)
SELECT d.event_type,
       CAST(n.n1 AS BIGINT) AS n1, CAST(n.n2 AS BIGINT) AS n2,
       CAST(d.d_num AS BIGINT) AS d_num,
       ROUND(CAST(d.d_num AS DOUBLE)
             / (CAST(n.n1 AS DOUBLE) * CAST(n.n2 AS DOUBLE)), 6) AS ks_d
FROM d JOIN n USING (event_type)
WHERE n.n1 > 0 AND n.n2 > 0
"""

QUERIES5["ks_drift"] = q_ks_drift
ORACLES5["ks_drift"] = KS_DRIFT_SQL


# ---------------------------------------------------------------------------
# Benford first-digit audit
# ---------------------------------------------------------------------------


def q_benford_digits(sf_dir: str):
    """Benford's-law first-digit audit of `value` per event_type: the
    observed count and share of each leading digit 1-9 (of the exact
    centivalue integer — string leading digit, identical extraction in
    both engines) next to the Benford expectation log10(1 + 1/d) — the
    classic fabricated-data / instrumentation-bug screen. Per-digit rows
    keep the output float surface to two SHARED expressions per row (no
    cross-row float sums at all). In-batch integer partials, one tiny
    exchange.
    """
    ev = _events(sf_dir, ["event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        cents = _cents(batch["value"])
        keep = cents > 0
        if not keep.any():
            return pd.DataFrame(
                {
                    "event_type": [],
                    "digit": np.array([], dtype=np.int64),
                    "n": np.array([], dtype=np.int64),
                }
            )
        digit = (
            pd.Series(cents[keep]).astype(str).str.slice(0, 1).astype(np.int64)
        )
        df = pd.DataFrame(
            {"event_type": batch["event_type"].to_numpy()[keep], "digit": digit}
        )
        g = df.groupby(["event_type", "digit"], sort=False).size()
        out = g.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    agg = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["event_type", "digit"],
        [("n", "sum")],
    ).to_pandas()  # |types| x 9 rows — tiny
    tot = agg.groupby("event_type")["n_sum"].transform("sum")
    d = agg["digit"].to_numpy(np.float64)
    return pd.DataFrame(
        {
            "event_type": agg["event_type"],
            "digit": agg["digit"].astype(np.int64),
            "n": agg["n_sum"].astype(np.int64),
            "share": _r6away(agg["n_sum"].to_numpy(np.float64) / tot.to_numpy(np.float64)),
            "benford_expected": _r6away(np.log10(1.0 + 1.0 / d)),
        }
    )


BENFORD_DIGITS_SQL = """
WITH e AS (
  SELECT event_type, CAST(ROUND(value * 100) AS BIGINT) AS c FROM events
),
d AS (
  SELECT event_type,
         CAST(substr(CAST(c AS VARCHAR), 1, 1) AS BIGINT) AS digit,
         COUNT(*) AS n
  FROM e WHERE c > 0 GROUP BY 1, 2
)
SELECT event_type, digit, CAST(n AS BIGINT) AS n,
       ROUND(CAST(n AS DOUBLE)
             / CAST(SUM(n) OVER (PARTITION BY event_type) AS DOUBLE), 6) AS share,
       ROUND(log10(1.0 + 1.0 / CAST(digit AS DOUBLE)), 6) AS benford_expected
FROM d
"""

QUERIES5["benford_digits"] = q_benford_digits
ORACLES5["benford_digits"] = BENFORD_DIGITS_SQL


# ---------------------------------------------------------------------------
# Pareto share (top-decile users' share of traffic)
# ---------------------------------------------------------------------------


def pareto_type_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE event_type: share of events produced by
    the top 10% of users (by count DESC, user_id ASC — a total order, so
    the decile cut is deterministic). k = max(1, n_users // 10)."""
    d = df.sort_values(["cnt", "user_id"], ascending=[False, True], kind="mergesort")
    c = d["cnt"].to_numpy(np.int64)
    n_users = int(c.size)
    k = max(1, n_users // 10)
    top = int(c[:k].sum())
    tot = int(c.sum())
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "n_users": np.array([n_users], dtype=np.int64),
            "k_top": np.array([k], dtype=np.int64),
            "top_events": np.array([top], dtype=np.int64),
            "total_events": np.array([tot], dtype=np.int64),
            "top_decile_share": _r6away(float(top) / float(tot)),
        }
    )


def q_pareto_share(sf_dir: str):
    """The 80/20 check: what share of each event_type's traffic comes
    from its top 10% of users — the concentration companion to
    gini_traffic that answers the operational question directly ("how
    hot are the hot keys"). Same plan as gini (the shared
    _type_user_counts stage): one exchange for per-(type, user) counts,
    whole-group decile cut; exact integer sums, one shared division.
    """
    return bucketed_map_groups(
        _type_user_counts(sf_dir), ["event_type"], pareto_type_kernel
    )


PARETO_SHARE_SQL = """
WITH u AS (
  SELECT event_type, user_id, COUNT(*) AS cnt FROM events GROUP BY 1, 2
),
r AS (
  SELECT event_type, cnt,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY cnt DESC, user_id ASC) AS rn,
         COUNT(*) OVER (PARTITION BY event_type) AS n_users
  FROM u
)
SELECT event_type,
       CAST(n_users AS BIGINT) AS n_users,
       CAST(GREATEST(1, n_users // 10) AS BIGINT) AS k_top,
       CAST(SUM(CASE WHEN rn <= GREATEST(1, n_users // 10)
                     THEN cnt ELSE 0 END) AS BIGINT) AS top_events,
       CAST(SUM(cnt) AS BIGINT) AS total_events,
       ROUND(CAST(SUM(CASE WHEN rn <= GREATEST(1, n_users // 10)
                           THEN cnt ELSE 0 END) AS DOUBLE)
             / CAST(SUM(cnt) AS DOUBLE), 6) AS top_decile_share
FROM r GROUP BY 1, n_users
"""

QUERIES5["pareto_share"] = q_pareto_share
ORACLES5["pareto_share"] = PARETO_SHARE_SQL


# ---------------------------------------------------------------------------
# Cumulative order backlog (daily running totals)
# ---------------------------------------------------------------------------


def q_cumulative_orders(sf_dir: str):
    """Daily new-order counts with the running cumulative total — the
    backlog/growth curve every ops dashboard draws. Daily counts reduce
    through one exchange to a table bounded by the calendar (one row per
    day); the prefix sum over that tiny sorted table is a driver-side
    cumsum (at any scale the day table stays thousands of rows).
    Integer-only output.
    """
    import ray.data as rd

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = batch["o_orderdate"].astype("datetime64[us]").dt.floor("D")
        g = day.value_counts()
        return pd.DataFrame(
            {"day": g.index, "n": g.to_numpy(np.int64)}
        )

    agg = (
        hash_bucket_aggregate(
            orders.map_batches(partial, batch_format="pandas"),
            ["day"],
            [("n", "sum")],
        )
        .to_pandas()  # one row per calendar day — tiny
        .sort_values("day")
    )
    return pd.DataFrame(
        {
            "day": agg["day"].astype("datetime64[us]"),
            "n_orders": agg["n_sum"].astype(np.int64),
            "cum_orders": agg["n_sum"].astype(np.int64).cumsum(),
        }
    )


CUMULATIVE_ORDERS_SQL = """
WITH d AS (
  SELECT date_trunc('day', o_orderdate) AS day, COUNT(*) AS n
  FROM orders GROUP BY 1
)
SELECT day, CAST(n AS BIGINT) AS n_orders,
       CAST(SUM(n) OVER (ORDER BY day) AS BIGINT) AS cum_orders
FROM d
"""

QUERIES5["cumulative_orders"] = q_cumulative_orders
ORACLES5["cumulative_orders"] = CUMULATIVE_ORDERS_SQL


# ---------------------------------------------------------------------------
# SCD Type-2 temporal snapshot (validity intervals per key)
# ---------------------------------------------------------------------------

_SCD2_OPEN_US = 253_370_764_800_000_000  # TIMESTAMP '9999-01-01' in us


def scd2_bucket_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-BUCKET kernel, vectorized across keys: each observation of
    (user_id, event_type) becomes a validity interval [ts, next ts) with
    the key's last observation open-ended at the 9999-01-01 sentinel —
    the standard slowly-changing-dimension Type-2 build."""
    d = df.sort_values(
        ["user_id", "event_type", "ts_us", "event_id"], kind="mergesort"
    )
    uid = d["user_id"].to_numpy()
    et = d["event_type"].to_numpy()
    ts = d["ts_us"].to_numpy()
    nxt = np.empty_like(ts)
    if ts.size:
        nxt[:-1] = ts[1:]
        nxt[-1] = _SCD2_OPEN_US
        boundary = np.ones(ts.size, dtype=bool)
        boundary[:-1] = (uid[:-1] != uid[1:]) | (et[:-1] != et[1:])
        nxt[boundary] = _SCD2_OPEN_US
    # year-9999 sentinel only fits a datetime64[us] column (ns overflows)
    return pd.DataFrame(
        {
            "user_id": d["user_id"].to_numpy(np.int64),
            "event_type": et,
            "value": d["value"].to_numpy(np.float64),
            "valid_from": ts.astype("datetime64[us]"),
            "valid_to": nxt.astype("datetime64[us]"),
            "is_current": (nxt == _SCD2_OPEN_US).astype(np.int64),
        }
    )


def q_scd2_snapshot(sf_dir: str):
    """Slowly-changing-dimension Type-2 build: each (user_id, event_type)
    observation becomes a row with [valid_from, valid_to) validity and an
    is_current flag (open rows end at the 9999-01-01 sentinel) — the
    temporal-table construction a warehouse derives so point-in-time
    joins ("what was the value AS OF t") become range lookups; the asof
    join consumes exactly this shape. One bucketed exchange on user_id;
    the bucket kernel is vectorized across keys (sort + shift + boundary
    mask, the markov pattern). Values pass through as raw parquet doubles
    (bit-identical on both sides); everything else is integer/timestamp.
    """
    ev = _events(sf_dir, ["event_id", "ts", "user_id", "event_type", "value"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "event_type": batch["event_type"],
                "ts_us": _ts_us(batch["ts"]),
                "event_id": batch["event_id"].astype(np.int64),
                "value": batch["value"].astype(np.float64),
            }
        )

    return bucketed_map_groups(
        ev.map_batches(prep, batch_format="pandas"),
        ["user_id"],
        None,
        whole_bucket_fn=scd2_bucket_kernel,
    )


SCD2_SNAPSHOT_SQL = """
SELECT user_id, event_type, value,
       ts AS valid_from,
       COALESCE(LEAD(ts) OVER (PARTITION BY user_id, event_type
                               ORDER BY ts, event_id),
                TIMESTAMP '9999-01-01') AS valid_to,
       CAST(CASE WHEN LEAD(ts) OVER (PARTITION BY user_id, event_type
                                     ORDER BY ts, event_id) IS NULL
                 THEN 1 ELSE 0 END AS BIGINT) AS is_current
FROM events
"""

QUERIES5["scd2_snapshot"] = q_scd2_snapshot
ORACLES5["scd2_snapshot"] = SCD2_SNAPSHOT_SQL


# ---------------------------------------------------------------------------
# Edit-distance pairs (prefix-blocked fuzzy dedup verification)
# ---------------------------------------------------------------------------

_ED_PREFIX = 16
_ED_CMP = 64


def levenshtein_int(a: str, b: str) -> int:
    """Standard integer Levenshtein DP (insert/delete/substitute, unit
    costs) — semantics verified identical to DuckDB's levenshtein()."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def edit_pairs_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE 16-char-prefix block: exact edit
    distance over the 64-char comparison window for every ordered doc
    pair in the block. Block sizes are bounded by the duplicate-cluster
    size (same contract as lsh_bucket_pairs); the DP is O(64^2) per
    pair."""
    d = df.sort_values("doc_id", kind="mergesort")
    ids = d["doc_id"].to_numpy(np.int64)
    txt = d["cmp"].tolist()
    out_a, out_b, out_d = [], [], []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            out_a.append(ids[i])
            out_b.append(ids[j])
            out_d.append(levenshtein_int(txt[i], txt[j]))
    return pd.DataFrame(
        {
            "doc_a": np.asarray(out_a, dtype=np.int64),
            "doc_b": np.asarray(out_b, dtype=np.int64),
            "edit_distance": np.asarray(out_d, dtype=np.int64),
        }
    )


def q_edit_distance_pairs(sf_dir: str):
    """Fuzzy near-dup verification by exact edit distance: documents
    sharing a 16-char text prefix (the dedup_keep_longest blocking key,
    shorter so variants with late edits still collide) are compared over
    their first 64 chars with the full Levenshtein DP — the
    character-level confirmation pass a dedup pipeline runs on its
    cheap-blocking candidates, complementing set-based Jaccard (word
    shingles) with order-sensitive edit similarity. Integer-only output;
    one bucketed exchange on the prefix; per-block pair count bounded by
    the variant-cluster size.
    """

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        t = batch["text"].fillna("")
        return pd.DataFrame(
            {
                "prefix": t.str.slice(0, _ED_PREFIX),
                "cmp": t.str.slice(0, _ED_CMP),
                "doc_id": batch["doc_id"].astype(np.int64),
            }
        )

    docs = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        prep, batch_format="pandas"
    )
    return bucketed_map_groups(docs, ["prefix"], edit_pairs_kernel)


EDIT_DISTANCE_PAIRS_SQL = f"""
WITH d AS (
  SELECT doc_id,
         substr(COALESCE(text, ''), 1, {_ED_PREFIX}) AS prefix,
         substr(COALESCE(text, ''), 1, {_ED_CMP}) AS cmp
  FROM documents
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(levenshtein(a.cmp, b.cmp) AS BIGINT) AS edit_distance
FROM d a JOIN d b ON a.prefix = b.prefix AND a.doc_id < b.doc_id
"""

QUERIES5["edit_distance_pairs"] = q_edit_distance_pairs
ORACLES5["edit_distance_pairs"] = EDIT_DISTANCE_PAIRS_SQL


# ---------------------------------------------------------------------------
# Pairwise correlation matrix of daily count series
# ---------------------------------------------------------------------------


def q_type_correlation_matrix(sf_dir: str):
    """Pearson correlation matrix of the event types' DAILY count series
    over the global zero-filled day grid — "which streams move together",
    the dependence summary behind composite alerting and capacity
    models (cross_correlation studies one pair at lags; this covers all
    pairs contemporaneously). Every sum in r's numerator and both
    variance terms is exact int64 over the shared grid, so r is a single
    shared float expression per pair; pairs with a zero-variance side
    are omitted on both sides.

    Scale: daily counts reduce through one exchange to |types| x |days|
    rows (bounded by catalog x retention, never event volume); the pair
    matrix is computed from that tiny table.
    """
    ev = _events(sf_dir, ["ts", "event_type"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (_ts_us(batch["ts"]) // DAY_US) * DAY_US
        g = (
            pd.DataFrame({"event_type": batch["event_type"], "day_us": day})
            .groupby(["event_type", "day_us"], sort=False)
            .size()
        )
        out = g.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    agg = (
        hash_bucket_aggregate(
            ev.map_batches(partial, batch_format="pandas"),
            ["event_type", "day_us"],
            [("n", "sum")],
        ).to_pandas()  # |types| x |days| — tiny
    )
    lo, hi = int(agg["day_us"].min()), int(agg["day_us"].max())
    grid = np.arange(lo, hi + DAY_US, DAY_US, dtype=np.int64)
    types = sorted(agg["event_type"].unique())
    dense = {}
    for t in types:
        g = agg[agg["event_type"] == t]
        v = np.zeros(grid.size, dtype=np.int64)
        v[(g["day_us"].to_numpy(np.int64) - lo) // DAY_US] = g["n_sum"].to_numpy(
            np.int64
        )
        dense[t] = v
    n = int(grid.size)
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1 :]:
            x, y = dense[a], dense[b]
            sx, sy = int(x.sum()), int(y.sum())
            sxx, syy = int(np.sum(x * x)), int(np.sum(y * y))
            sxy = int(np.sum(x * y))
            denx = n * sxx - sx * sx
            deny = n * syy - sy * sy
            if denx <= 0 or deny <= 0:
                continue
            r = float(n * sxy - sx * sy) / (
                math.sqrt(float(denx)) * math.sqrt(float(deny))
            )
            rows.append((a, b, n, r))
    return pd.DataFrame(
        {
            "type_a": [r[0] for r in rows],
            "type_b": [r[1] for r in rows],
            "n_days": np.array([r[2] for r in rows], dtype=np.int64),
            "pearson_r": _r6away(np.array([r[3] for r in rows])),
        }
    )


TYPE_CORRELATION_MATRIX_SQL = """
WITH c AS (
  SELECT event_type, date_trunc('day', ts) AS d, COUNT(*) AS x
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT MIN(d) AS lo, MAX(d) AS hi FROM c),
days AS (
  SELECT UNNEST(generate_series(bo.lo, bo.hi, INTERVAL 1 DAY)) AS d
  FROM bounds bo
),
types AS (SELECT DISTINCT event_type FROM c),
g AS (
  SELECT t.event_type, dy.d, COALESCE(c.x, 0) AS x
  FROM types t CROSS JOIN days dy
  LEFT JOIN c ON c.event_type = t.event_type AND c.d = dy.d
),
s AS (
  SELECT event_type, COUNT(*) AS n,
         CAST(SUM(x) AS BIGINT) AS sx,
         CAST(SUM(x * x) AS BIGINT) AS sxx
  FROM g GROUP BY 1
),
xy AS (
  SELECT ga.event_type AS type_a, gb.event_type AS type_b,
         CAST(SUM(ga.x * gb.x) AS BIGINT) AS sxy
  FROM g ga JOIN g gb ON ga.d = gb.d AND ga.event_type < gb.event_type
  GROUP BY 1, 2
)
SELECT xy.type_a, xy.type_b, sa.n AS n_days,
       ROUND(CAST(sa.n * xy.sxy - sa.sx * sb.sx AS DOUBLE)
             / (sqrt(CAST(sa.n * sa.sxx - sa.sx * sa.sx AS DOUBLE))
                * sqrt(CAST(sb.n * sb.sxx - sb.sx * sb.sx AS DOUBLE))), 6)
         AS pearson_r
FROM xy
JOIN s sa ON sa.event_type = xy.type_a
JOIN s sb ON sb.event_type = xy.type_b
WHERE sa.n * sa.sxx - sa.sx * sa.sx > 0
  AND sb.n * sb.sxx - sb.sx * sb.sx > 0
"""

QUERIES5["type_correlation_matrix"] = q_type_correlation_matrix
ORACLES5["type_correlation_matrix"] = TYPE_CORRELATION_MATRIX_SQL


# ---------------------------------------------------------------------------
# Bloom-filter membership probe (verified sketch with exact FP accounting)
# ---------------------------------------------------------------------------

_BLOOM_M = 4096  # bits
_BLOOM_K = 3  # salted md5 hash functions


def _bloom_positions(texts: pd.Series) -> list[np.ndarray]:
    """k salted-md5 bit positions per text — the md5_number_upper parity
    construction (little-endian u64 of the first 8 md5 bytes, mod m)."""
    from .queries2 import _md5_u64

    t = texts.fillna("").tolist()
    return [
        (_md5_u64([f"b{i}:{s}" for s in t]) % np.uint64(_BLOOM_M)).astype(np.int64)
        for i in range(_BLOOM_K)
    ]


def q_bloom_dedup_probe(sf_dir: str):
    """Bloom-filter dedup pre-screen, verified end-to-end with EXACT
    false-positive accounting: even-doc_id documents build a 4096-bit /
    3-hash Bloom filter over content md5 positions; every odd-doc_id
    document probes it. Output per probe doc: the bloom verdict
    (all k bits set) and the exact truth (content match against any even
    doc), so the driver-verified result pins both the filter construction
    AND its false positives — the sketch contract ("no false negatives,
    quantified false positives") becomes a checkable table instead of a
    claim.

    Scale: the built filter is BOUNDED state (m bits regardless of corpus
    size) — it reduces through one exchange to <= m distinct positions
    and broadcasts via ray.put; the exact-truth side co-partitions
    content hashes through a bucketed exchange (never the driver). At
    10^12 docs you'd size m up and shard the build the same way.
    """
    import ray

    from ..common.raytools import bucketed_join

    docs = _documents(sf_dir, ["doc_id", "text"])

    def build_positions(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch[batch["doc_id"].astype(np.int64) % 2 == 0]
        if not len(b):
            return pd.DataFrame({"pos": np.array([], dtype=np.int64)})
        pos = np.unique(np.concatenate(_bloom_positions(b["text"])))
        return pd.DataFrame({"pos": pos})

    bits_df = (
        hash_bucket_aggregate(
            docs.map_batches(build_positions, batch_format="pandas"),
            ["pos"],
            [],
            count_alias="n",
        ).to_pandas()  # <= m rows — bounded by filter size, not corpus
    )
    bitarr = np.zeros(_BLOOM_M, dtype=bool)
    bitarr[bits_df["pos"].to_numpy(np.int64)] = True
    bitset_ref = ray.put(bitarr)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        from .queries2 import _md5_u64

        bits = ray.get(bitset_ref)
        b = batch[batch["doc_id"].astype(np.int64) % 2 == 1]
        if not len(b):
            return pd.DataFrame(
                {
                    "doc_id": np.array([], dtype=np.int64),
                    "h": np.array([], dtype=np.int64),
                    "bloom_hit": np.array([], dtype=np.int64),
                }
            )
        pos = _bloom_positions(b["text"])
        hit = np.ones(len(b), dtype=bool)
        for p in pos:
            hit &= bits[p]
        return pd.DataFrame(
            {
                "doc_id": b["doc_id"].to_numpy(np.int64),
                "h": _md5_u64(b["text"].fillna("").tolist()).view(np.int64),
                "bloom_hit": hit.astype(np.int64),
            }
        )

    def even_hashes(batch: pd.DataFrame) -> pd.DataFrame:
        from .queries2 import _md5_u64

        b = batch[batch["doc_id"].astype(np.int64) % 2 == 0]
        h = np.unique(_md5_u64(b["text"].fillna("").tolist()).view(np.int64))
        return pd.DataFrame({"h": h, "present": np.ones(h.size, dtype=np.int64)})

    probes = docs.map_batches(probe, batch_format="pandas")
    evens = hash_bucket_aggregate(
        docs.map_batches(even_hashes, batch_format="pandas"),
        ["h"],
        [("present", "max")],
    )
    joined = bucketed_join(probes, evens, on=["h"], how="left")

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype(np.int64),
                "bloom_hit": batch["bloom_hit"].astype(np.int64),
                "true_dup": batch["present_max"].fillna(0).astype(np.int64),
            }
        )

    return joined.map_batches(fmt, batch_format="pandas")


BLOOM_DEDUP_PROBE_SQL = f"""
WITH evens AS (
  SELECT doc_id, COALESCE(text, '') AS t FROM documents WHERE doc_id % 2 = 0
),
odds AS (
  SELECT doc_id, COALESCE(text, '') AS t FROM documents WHERE doc_id % 2 = 1
),
bits AS (
  SELECT DISTINCT md5_number_upper('b0:' || t) % {_BLOOM_M} AS pos FROM evens
  UNION
  SELECT DISTINCT md5_number_upper('b1:' || t) % {_BLOOM_M} FROM evens
  UNION
  SELECT DISTINCT md5_number_upper('b2:' || t) % {_BLOOM_M} FROM evens
),
eh AS (SELECT DISTINCT md5_number_upper(t) AS h FROM evens)
SELECT o.doc_id,
       CAST(CASE WHEN md5_number_upper('b0:' || o.t) % {_BLOOM_M} IN (SELECT pos FROM bits)
                  AND md5_number_upper('b1:' || o.t) % {_BLOOM_M} IN (SELECT pos FROM bits)
                  AND md5_number_upper('b2:' || o.t) % {_BLOOM_M} IN (SELECT pos FROM bits)
                 THEN 1 ELSE 0 END AS BIGINT) AS bloom_hit,
       CAST(CASE WHEN EXISTS (SELECT 1 FROM eh
                              WHERE eh.h = md5_number_upper(o.t))
                 THEN 1 ELSE 0 END AS BIGINT) AS true_dup
FROM odds o
"""

QUERIES5["bloom_dedup_probe"] = q_bloom_dedup_probe
ORACLES5["bloom_dedup_probe"] = BLOOM_DEDUP_PROBE_SQL


# ---------------------------------------------------------------------------
# Session entry/exit flow matrix (landing -> exit analysis)
# ---------------------------------------------------------------------------

_SESSION_GAP_US = 1_800_000_000


def session_entry_exit_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE user: gap-sessionize (the session_stats
    contract), then each session's first and last event_type — per-user
    (entry, exit) pair counts as int64 partials."""
    d = df.sort_values(["ts_us", "event_id"], kind="mergesort")
    ts = d["ts_us"].to_numpy()
    gaps = np.diff(ts, prepend=ts[0])
    sid = np.cumsum(gaps > _SESSION_GAP_US)
    et = d["event_type"].to_numpy()
    first = np.concatenate([[True], sid[1:] != sid[:-1]])
    last = np.concatenate([sid[1:] != sid[:-1], [True]])
    pairs = pd.DataFrame({"entry_type": et[first], "exit_type": et[last]})
    g = pairs.groupby(["entry_type", "exit_type"], sort=False).size()
    out = g.reset_index(name="n")
    out["n"] = out["n"].astype(np.int64)
    return out


def q_session_entry_exit(sf_dir: str):
    """Landing/exit flow matrix: for every session (30-minute-gap
    sessionization, the session_stats contract), the (first event_type,
    last event_type) pair, counted over all sessions — "what do visits
    start and end with", the session-flow summary product analytics reads
    next to funnel_conversion. One bucketed exchange on user_id; per-user
    int64 pair partials merge order-free through a tiny second exchange.
    """
    ev = _events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "ts_us": _ts_us(batch["ts"]),
                "event_id": batch["event_id"].astype(np.int64),
                "event_type": batch["event_type"],
            }
        )

    pairs = bucketed_map_groups(
        ev.map_batches(prep, batch_format="pandas"),
        ["user_id"],
        session_entry_exit_kernel,
    )
    agg = hash_bucket_aggregate(pairs, ["entry_type", "exit_type"], [("n", "sum")])
    return agg.map_batches(
        lambda b: pd.DataFrame(
            {
                "entry_type": b["entry_type"],
                "exit_type": b["exit_type"],
                "n_sessions": b["n_sum"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )


SESSION_ENTRY_EXIT_SQL = """
WITH g AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT user_id, ts, event_id, event_type,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS sid
  FROM g
),
r AS (
  SELECT user_id, sid, event_type,
         row_number() OVER (PARTITION BY user_id, sid ORDER BY ts, event_id) AS rn_f,
         row_number() OVER (PARTITION BY user_id, sid ORDER BY ts DESC, event_id DESC) AS rn_l
  FROM s
),
p AS (
  SELECT f.user_id, f.sid,
         f.event_type AS entry_type, l.event_type AS exit_type
  FROM r f JOIN r l ON f.user_id = l.user_id AND f.sid = l.sid
  WHERE f.rn_f = 1 AND l.rn_l = 1
)
SELECT entry_type, exit_type, COUNT(*) AS n_sessions
FROM p GROUP BY 1, 2
"""

QUERIES5["session_entry_exit"] = q_session_entry_exit
ORACLES5["session_entry_exit"] = SESSION_ENTRY_EXIT_SQL


# ---------------------------------------------------------------------------
# Croston intermittent-demand forecast (per-user daily activity)
# ---------------------------------------------------------------------------

_CROSTON_ALPHA = 0.2


def croston_user_kernel(df: pd.DataFrame, alpha: float = _CROSTON_ALPHA):
    """Whole-group kernel for ONE user: Croston's method over the user's
    daily event-count series on the shared [0, n_days) grid. Demand size
    z and inter-demand interval p follow twin SES recursions updated only
    on demand days (gap measured from the virtual day -1, so the first
    demand initializes p = its day index + 1); forecast = z / p."""
    idx = df["day_idx"].to_numpy(np.int64)
    cnt = df["n"].to_numpy(np.int64)
    order = np.argsort(idx, kind="stable")
    idx, cnt = idx[order], cnt[order]
    last_t = -1
    started = False
    z = 0.0
    p = 0.0
    for t, d in zip(idx, cnt):
        gap = float(t - last_t)
        dd = float(d)
        if started:
            z = z + alpha * (dd - z)
            p = p + alpha * (gap - p)
        else:
            z = dd
            p = gap
            started = True
        last_t = int(t)
    return pd.DataFrame(
        {
            "user_id": [np.int64(df["user_id"].iloc[0])],
            "n_demand_days": np.array([idx.size], dtype=np.int64),
            "z_level": _r6away(z),
            "p_interval": _r6away(p),
            "croston_forecast": _r6away(z / p),
        }
    )


def q_croston_forecast(sf_dir: str):
    """Croston's intermittent-demand forecast of each user's daily
    activity: most users are inactive most days, which breaks plain SES
    (it decays toward zero between demands) — Croston instead smooths
    demand SIZE and demand INTERVAL separately and forecasts their ratio,
    the standard method for sparse/spiky demand (spare parts, long-tail
    users). Extends the forecast family (linear/SES/Holt/Holt-Winters/
    seasonal-naive) with the sparse regime; the oracle replays both SES
    recursions in one multi-state recursive CTE over demand days only.

    Scale: daily counts reduce through one exchange to (user, day) rows
    bounded by users x retention days; the per-user recursion state is
    O(1).
    """
    ev = _events(sf_dir, ["ts", "user_id"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        day = (_ts_us(batch["ts"]) // DAY_US) * DAY_US
        g = (
            pd.DataFrame({"user_id": batch["user_id"].astype(np.int64), "day_us": day})
            .groupby(["user_id", "day_us"], sort=False)
            .size()
        )
        out = g.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    daily = hash_bucket_aggregate(
        ev.map_batches(partial, batch_format="pandas"),
        ["user_id", "day_us"],
        [("n", "sum")],
    ).materialize()  # (user, day) rows — bounded; consumed twice below
    lo = int(daily.min("day_us"))

    def add_idx(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "day_idx": (batch["day_us"].to_numpy(np.int64) - lo) // DAY_US,
                "n": batch["n_sum"].astype(np.int64),
            }
        )

    return bucketed_map_groups(
        daily.map_batches(add_idx, batch_format="pandas"),
        ["user_id"],
        croston_user_kernel,
    )


CROSTON_FORECAST_SQL = f"""
WITH RECURSIVE
d AS (
  SELECT user_id, date_trunc('day', ts) AS day, COUNT(*) AS n
  FROM events GROUP BY 1, 2
),
b AS (SELECT MIN(day) AS lo FROM d),
i AS (
  SELECT d.user_id,
         CAST((epoch_us(d.day) - epoch_us(b.lo)) // 86400000000 AS BIGINT) AS t,
         CAST(d.n AS BIGINT) AS n,
         row_number() OVER (PARTITION BY d.user_id ORDER BY d.day) AS rn,
         COUNT(*) OVER (PARTITION BY d.user_id) AS n_demand
  FROM d, b
),
rec AS (
  SELECT user_id, rn, n_demand,
         CAST(n AS DOUBLE) AS z,
         CAST(t + 1 AS DOUBLE) AS p,
         t AS last_t
  FROM i WHERE rn = 1
  UNION ALL
  SELECT i.user_id, i.rn, i.n_demand,
         r.z + {_CROSTON_ALPHA} * (CAST(i.n AS DOUBLE) - r.z) AS z,
         r.p + {_CROSTON_ALPHA} * (CAST(i.t - r.last_t AS DOUBLE) - r.p) AS p,
         i.t AS last_t
  FROM rec r JOIN i ON i.user_id = r.user_id AND i.rn = r.rn + 1
)
SELECT user_id, CAST(n_demand AS BIGINT) AS n_demand_days,
       ROUND(z, 6) AS z_level,
       ROUND(p, 6) AS p_interval,
       ROUND(z / p, 6) AS croston_forecast
FROM rec WHERE rn = n_demand
"""

QUERIES5["croston_forecast"] = q_croston_forecast
ORACLES5["croston_forecast"] = CROSTON_FORECAST_SQL


# ---------------------------------------------------------------------------
# Bigram PMI collocations
# ---------------------------------------------------------------------------

_PMI_MIN_N = 5


def q_bigram_pmi(sf_dir: str, min_n: int = _PMI_MIN_N):
    """Collocation mining: pointwise mutual information of adjacent-token
    bigrams, PMI = ln(N * c_ab / (c_a * c_b)) with N = total token count
    — the statistic that separates true phrases ("exhaust manifold") from
    merely-frequent pairs ("of the"), standard preprocessing for
    phrase-aware tokenizers. Bigrams below min_n occurrences are dropped
    (PMI is noise at tiny counts).

    All four counts are exact int64 corpus aggregates (the vocabulary /
    bigram_vocabulary combiners); the PMI is ONE shared float expression
    per surviving bigram. Unigram counts broadcast once via ray.put
    (bounded by vocabulary, documented; the co-partitioned alternative is
    token_rarity's join) — here the min_n-filtered bigram table is small
    enough that the scoring pass is driver-side over a tiny frame.
    """
    from ..stages.text import token_count_partial

    docs = _documents(sf_dir, ["text"])
    uni = (
        hash_bucket_aggregate(
            docs.map_batches(token_count_partial, batch_format="pandas"),
            ["word"],
            [("n", "sum")],
        ).to_pandas()  # corpus vocabulary — bounded
    )
    n_total = int(uni["n_sum"].sum())
    uni_map = pd.Series(uni["n_sum"].to_numpy(np.int64), index=uni["word"].to_numpy())

    big = (
        hash_bucket_aggregate(
            docs.map_batches(bigram_partial, batch_format="pandas"),
            ["bigram"],
            [("n", "sum")],
        ).to_pandas()
    )
    big = big[big["n_sum"] >= min_n].copy()
    if big.empty:
        # str.split(expand=True) on an empty series yields zero columns
        return pd.DataFrame(
            {
                "bigram": [],
                "n_ab": np.array([], dtype=np.int64),
                "n_a": np.array([], dtype=np.int64),
                "n_b": np.array([], dtype=np.int64),
                "pmi": np.array([], dtype=np.float64),
            }
        )
    parts = big["bigram"].str.split(" ", n=1, expand=True)
    c_a = parts[0].map(uni_map).to_numpy(np.int64)
    c_b = parts[1].map(uni_map).to_numpy(np.int64)
    c_ab = big["n_sum"].to_numpy(np.int64)
    ratio = (float(n_total) * c_ab.astype(np.float64)) / (
        c_a.astype(np.float64) * c_b.astype(np.float64)
    )
    # math.log, not np.log: numpy's SIMD log diverges from libm (== DuckDB
    # ln) in the last ulp; the table is min_n-filtered and tiny
    pmi = np.array([math.log(x) for x in ratio], dtype=np.float64)
    return pd.DataFrame(
        {
            "bigram": big["bigram"].to_numpy(),
            "n_ab": c_ab,
            "n_a": c_a,
            "n_b": c_b,
            "pmi": _r6away(pmi),
        }
    )


BIGRAM_PMI_SQL = f"""
WITH t AS (
  SELECT doc_id,
         regexp_extract_all(lower(COALESCE(text, '')), '[\\p{{L}}\\p{{N}}_]+') AS toks
  FROM documents
),
u AS (
  SELECT doc_id, UNNEST(toks) AS tok, generate_subscripts(toks, 1) AS pos FROM t
),
uni AS (SELECT tok, COUNT(*) AS n FROM u GROUP BY 1),
tot AS (SELECT CAST(SUM(n) AS BIGINT) AS n_total FROM uni),
b AS (
  SELECT doc_id, tok,
         LEAD(tok) OVER (PARTITION BY doc_id ORDER BY pos) AS nxt
  FROM u
),
big AS (
  SELECT tok AS w_a, nxt AS w_b, COUNT(*) AS n_ab
  FROM b WHERE nxt IS NOT NULL GROUP BY 1, 2
  HAVING COUNT(*) >= {_PMI_MIN_N}
)
SELECT big.w_a || ' ' || big.w_b AS bigram,
       CAST(big.n_ab AS BIGINT) AS n_ab,
       CAST(ua.n AS BIGINT) AS n_a,
       CAST(ub.n AS BIGINT) AS n_b,
       ROUND(ln((CAST(tot.n_total AS DOUBLE) * CAST(big.n_ab AS DOUBLE))
                / (CAST(ua.n AS DOUBLE) * CAST(ub.n AS DOUBLE))), 6) AS pmi
FROM big
CROSS JOIN tot
JOIN uni ua ON ua.tok = big.w_a
JOIN uni ub ON ub.tok = big.w_b
"""

QUERIES5["bigram_pmi"] = q_bigram_pmi
ORACLES5["bigram_pmi"] = BIGRAM_PMI_SQL


# ---------------------------------------------------------------------------
# Audience overlap (per-type user-set Jaccard)
# ---------------------------------------------------------------------------


def q_audience_overlap(sf_dir: str):
    """Audience overlap matrix: for every pair of event types, the exact
    distinct-user counts of each, of their intersection, and the Jaccard
    overlap — "do purchasers and error-reporters come from the same
    users", the segmentation question behind cross-feature targeting.

    Exact at scale without an all-pairs self-join of users: the distinct
    (user, type) pairs reduce through one exchange; each user's type SET
    then compresses to a BITMASK (|types| bits), whose histogram is at
    most 2^|types| rows — pair intersections are integer sums over that
    tiny histogram, never a second pass over users. Jaccard is the one
    shared float per pair.
    """
    import ray

    ev = _events(sf_dir, ["user_id", "event_type"])

    def distinct_partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["user_id", "event_type"]].drop_duplicates()

    pairs = hash_bucket_aggregate(
        ev.map_batches(distinct_partial, batch_format="pandas"),
        ["user_id", "event_type"],
        [],
        count_alias="n",
    ).materialize()  # distinct (user, type) — bounded; consumed twice below
    # the type catalog is tiny; fix the bit assignment once and broadcast
    types = sorted(
        hash_bucket_aggregate(pairs, ["event_type"], [], count_alias="n")
        .to_pandas()["event_type"]
        .tolist()
    )
    bit = {t: 1 << i for i, t in enumerate(types)}
    bit_ref = ray.put(bit)

    def user_mask_bucket(df: pd.DataFrame) -> pd.DataFrame:
        b = ray.get(bit_ref)
        m = (
            df.assign(bb=df["event_type"].map(b))
            .groupby("user_id", sort=False)["bb"]
            .sum()
        )
        vc = m.value_counts()
        return pd.DataFrame(
            {"mask": vc.index.to_numpy(np.int64), "n": vc.to_numpy(np.int64)}
        )

    # distributed: per-user masks inside user-bucketed kernels, then the
    # tiny (<= 2^|types| rows) mask histogram merges exactly
    hist = (
        hash_bucket_aggregate(
            bucketed_map_groups(pairs, ["user_id"], None,
                                whole_bucket_fn=user_mask_bucket),
            ["mask"],
            [("n", "sum")],
        ).to_pandas()
    )
    masks = hist["mask"].to_numpy(np.int64)
    counts = hist["n_sum"].to_numpy(np.int64)
    rows = []
    for i, a in enumerate(types):
        for b_t in types[i + 1 :]:
            ba, bb = bit[a], bit[b_t]
            n_a = int(counts[(masks & ba) > 0].sum())
            n_b = int(counts[(masks & bb) > 0].sum())
            n_both = int(counts[((masks & ba) > 0) & ((masks & bb) > 0)].sum())
            union = n_a + n_b - n_both
            rows.append(
                (a, b_t, n_a, n_b, n_both, float(n_both) / float(union))
            )
    return pd.DataFrame(
        {
            "type_a": [r[0] for r in rows],
            "type_b": [r[1] for r in rows],
            "n_users_a": np.array([r[2] for r in rows], dtype=np.int64),
            "n_users_b": np.array([r[3] for r in rows], dtype=np.int64),
            "n_both": np.array([r[4] for r in rows], dtype=np.int64),
            "jaccard": _r6away(np.array([r[5] for r in rows])),
        }
    )


AUDIENCE_OVERLAP_SQL = """
WITH d AS (SELECT DISTINCT user_id, event_type FROM events),
n AS (SELECT event_type, COUNT(*) AS n_users FROM d GROUP BY 1),
x AS (
  SELECT a.event_type AS type_a, b.event_type AS type_b, COUNT(*) AS n_both
  FROM d a JOIN d b ON a.user_id = b.user_id AND a.event_type < b.event_type
  GROUP BY 1, 2
)
SELECT na.event_type AS type_a, nb.event_type AS type_b,
       CAST(na.n_users AS BIGINT) AS n_users_a,
       CAST(nb.n_users AS BIGINT) AS n_users_b,
       CAST(COALESCE(x.n_both, 0) AS BIGINT) AS n_both,
       ROUND(CAST(COALESCE(x.n_both, 0) AS DOUBLE)
             / CAST(na.n_users + nb.n_users - COALESCE(x.n_both, 0) AS DOUBLE),
             6) AS jaccard
FROM n na
JOIN n nb ON na.event_type < nb.event_type
LEFT JOIN x ON x.type_a = na.event_type AND x.type_b = nb.event_type
"""

QUERIES5["audience_overlap"] = q_audience_overlap
ORACLES5["audience_overlap"] = AUDIENCE_OVERLAP_SQL


# ---------------------------------------------------------------------------
# Market-basket co-purchase pairs (same-order part pairs)
# ---------------------------------------------------------------------------

_COPURCHASE_K = 100


def copurchase_bucket_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-BUCKET kernel, vectorized across every order in the bucket:
    distinct (order, part) rows self-merge on orderkey (C-level pandas
    hash join) and keep part_a < part_b — identical pairs to a per-order
    triu loop without 10^5 Python kernel invocations. Pairs per order are
    C(lines, 2) with lines bounded by the order's line count."""
    d = df[["orderkey", "partkey"]].drop_duplicates()
    m = d.merge(d, on="orderkey", suffixes=("_a", "_b"))
    m = m[m["partkey_a"] < m["partkey_b"]]
    g = m.groupby(["partkey_a", "partkey_b"], sort=False).size()
    out = g.reset_index(name="n")
    return pd.DataFrame(
        {
            "part_a": out["partkey_a"].to_numpy(np.int64),
            "part_b": out["partkey_b"].to_numpy(np.int64),
            "n": out["n"].to_numpy(np.int64),
        }
    )


def q_copurchase_pairs(sf_dir: str, k: int = _COPURCHASE_K):
    """Market-basket analysis: the top-K part pairs bought together in
    the same order ("customers who bought A also bought B"), ranked by
    co-occurrence count with (count DESC, part_a, part_b) determinism —
    the co-purchase graph edge list recommendation systems start from.

    Scale: one bucketed exchange on orderkey; per-order pair generation
    is bounded by the order's line count; pair counts merge as int sums
    through a second exchange, and the top-K uses the associative
    per-bucket-topK + tiny-driver-merge shape (vocabulary pattern).
    """
    import ray.data as rd

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "orderkey": b["l_orderkey"].astype(np.int64),
                "partkey": b["l_partkey"].astype(np.int64),
            }
        ),
        batch_format="pandas",
    )
    pairs = bucketed_map_groups(
        li, ["orderkey"], None, whole_bucket_fn=copurchase_bucket_kernel
    )
    agg = hash_bucket_aggregate(pairs, ["part_a", "part_b"], [("n", "sum")])

    def bucket_topk(df: pd.DataFrame) -> pd.DataFrame:
        return df.sort_values(
            ["n_sum", "part_a", "part_b"], ascending=[False, True, True]
        ).head(k)

    tops = bucketed_map_groups(
        agg, ["part_a", "part_b"], None, whole_bucket_fn=bucket_topk
    )
    out = tops.to_pandas()  # K x n_buckets rows — tiny
    out = out.sort_values(
        ["n_sum", "part_a", "part_b"], ascending=[False, True, True]
    ).head(k)
    return pd.DataFrame(
        {
            "part_a": out["part_a"].to_numpy(np.int64),
            "part_b": out["part_b"].to_numpy(np.int64),
            "n_orders": out["n_sum"].to_numpy(np.int64),
        }
    )


COPURCHASE_PAIRS_SQL = f"""
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT a.l_partkey AS part_a, b.l_partkey AS part_b,
       CAST(COUNT(*) AS BIGINT) AS n_orders
FROM d a JOIN d b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
GROUP BY 1, 2
ORDER BY n_orders DESC, part_a ASC, part_b ASC
LIMIT {_COPURCHASE_K}
"""

QUERIES5["copurchase_pairs"] = q_copurchase_pairs
ORACLES5["copurchase_pairs"] = COPURCHASE_PAIRS_SQL


# ---------------------------------------------------------------------------
# Bounce rate per landing type
# ---------------------------------------------------------------------------


def bounce_user_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE user: sessionize (session_stats
    contract) and emit per-(entry_type) session/bounce counts."""
    d = df.sort_values(["ts_us", "event_id"], kind="mergesort")
    ts = d["ts_us"].to_numpy()
    gaps = np.diff(ts, prepend=ts[0])
    sid = np.cumsum(gaps > _SESSION_GAP_US)
    et = d["event_type"].to_numpy()
    first = np.concatenate([[True], sid[1:] != sid[:-1]])
    sizes = np.bincount(sid)
    entry = et[first]
    bounce = (sizes == 1).astype(np.int64)
    g = (
        pd.DataFrame({"entry_type": entry, "n_sessions": 1, "n_bounces": bounce})
        .groupby("entry_type", sort=False)
        .sum()
    )
    out = g.reset_index()
    out["n_sessions"] = out["n_sessions"].astype(np.int64)
    out["n_bounces"] = out["n_bounces"].astype(np.int64)
    return out


def q_bounce_rate(sf_dir: str):
    """Bounce rate per landing event type: the share of sessions that
    contain exactly ONE event, grouped by what the session started with —
    the engagement metric read next to session_entry_exit (which shows
    where sessions go; this shows which landings go nowhere). Same
    single-exchange sessionization contract; integer partials, one
    shared division.
    """
    ev = _events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "ts_us": _ts_us(batch["ts"]),
                "event_id": batch["event_id"].astype(np.int64),
                "event_type": batch["event_type"],
            }
        )

    partials = bucketed_map_groups(
        ev.map_batches(prep, batch_format="pandas"), ["user_id"], bounce_user_kernel
    )
    agg = hash_bucket_aggregate(
        partials, ["entry_type"], [("n_sessions", "sum"), ("n_bounces", "sum")]
    )
    return agg.map_batches(
        lambda b: pd.DataFrame(
            {
                "entry_type": b["entry_type"],
                "n_sessions": b["n_sessions_sum"].astype(np.int64),
                "n_bounces": b["n_bounces_sum"].astype(np.int64),
                "bounce_rate": _r6away(
                    b["n_bounces_sum"].to_numpy(np.float64)
                    / b["n_sessions_sum"].to_numpy(np.float64)
                ),
            }
        ),
        batch_format="pandas",
    )


BOUNCE_RATE_SQL = """
WITH g AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN ts - lag(ts) OVER w > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT user_id, ts, event_id, event_type,
         SUM(brk) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS sid
  FROM g
),
sess AS (
  SELECT user_id, sid,
         MIN(ts) AS t0, COUNT(*) AS n_ev
  FROM s GROUP BY 1, 2
),
entry AS (
  SELECT se.user_id, se.sid, se.n_ev, s.event_type AS entry_type
  FROM sess se
  JOIN s ON s.user_id = se.user_id AND s.sid = se.sid AND s.ts = se.t0
  QUALIFY row_number() OVER (PARTITION BY se.user_id, se.sid
                             ORDER BY s.event_id) = 1
)
SELECT entry_type,
       COUNT(*) AS n_sessions,
       CAST(SUM(CASE WHEN n_ev = 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_bounces,
       ROUND(CAST(SUM(CASE WHEN n_ev = 1 THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS bounce_rate
FROM entry GROUP BY 1
"""

QUERIES5["bounce_rate"] = q_bounce_rate
ORACLES5["bounce_rate"] = BOUNCE_RATE_SQL


# ---------------------------------------------------------------------------
# DAU / MAU stickiness (exact windowed distinct users)
# ---------------------------------------------------------------------------

_MAU_WINDOW_DAYS = 30


def q_dau_mau_stickiness(sf_dir: str, window: int = _MAU_WINDOW_DAYS):
    """Growth accounting: per calendar day, DAU (distinct users active
    that day), MAU (distinct users active in the trailing 30-day window
    ending that day), and stickiness = DAU/MAU — the engagement ratio
    every consumer product reports. Days before a full window has
    elapsed still report (the window clips at the data's start), matching
    how dashboards chart a young product.

    Exact windowed DISTINCT without per-day rescans: each distinct
    (user, active day) pair EXPANDS to the <= 30 window-days it keeps the
    user counted in; deduping (user, window_day) and counting per day is
    then a plain exact distinct count. Row expansion is bounded by
    30 x active-pairs (documented); both legs reduce through bucketed
    exchanges, and days themselves are calendar-bounded.
    """
    ev = _events(sf_dir, ["ts", "user_id"])

    def day_pairs(batch: pd.DataFrame) -> pd.DataFrame:
        day = (_ts_us(batch["ts"]) // DAY_US) * DAY_US
        return pd.DataFrame(
            {"user_id": batch["user_id"].astype(np.int64), "day_us": day}
        ).drop_duplicates()

    active = hash_bucket_aggregate(
        ev.map_batches(day_pairs, batch_format="pandas"),
        ["user_id", "day_us"],
        [],
        count_alias="n",
    ).materialize()  # distinct (user, active-day) — bounded; consumed twice
    hi = int(active.max("day_us"))

    dau = hash_bucket_aggregate(active, ["day_us"], [], count_alias="dau")

    def expand(batch: pd.DataFrame) -> pd.DataFrame:
        day = batch["day_us"].to_numpy(np.int64)
        uid = batch["user_id"].to_numpy(np.int64)
        offs = np.arange(window, dtype=np.int64) * DAY_US
        wday = (day[:, None] + offs[None, :]).ravel()
        wuid = np.repeat(uid, window)
        keep = wday <= hi
        return pd.DataFrame(
            {"user_id": wuid[keep], "day_us": wday[keep]}
        ).drop_duplicates()

    mau = hash_bucket_aggregate(
        hash_bucket_aggregate(
            active.map_batches(expand, batch_format="pandas"),
            ["user_id", "day_us"],
            [],
            count_alias="n",
        ),
        ["day_us"],
        [],
        count_alias="mau",
    )

    from ..common.raytools import bucketed_join

    joined = bucketed_join(dau, mau, on=["day_us"])

    def fmt(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "day": pd.to_datetime(batch["day_us"].astype(np.int64), unit="us"),
                "dau": batch["dau"].astype(np.int64),
                "mau": batch["mau"].astype(np.int64),
                "stickiness": _r6away(
                    batch["dau"].to_numpy(np.float64)
                    / batch["mau"].to_numpy(np.float64)
                ),
            }
        )

    return joined.map_batches(fmt, batch_format="pandas")


DAU_MAU_STICKINESS_SQL = f"""
WITH a AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events),
days AS (SELECT DISTINCT day FROM a),
dau AS (SELECT day, COUNT(*) AS dau FROM a GROUP BY 1),
mau AS (
  SELECT d.day, COUNT(DISTINCT a.user_id) AS mau
  FROM days d
  JOIN a ON a.day <= d.day
        AND a.day > d.day - INTERVAL {_MAU_WINDOW_DAYS} DAY
  GROUP BY 1
)
SELECT d.day, CAST(dau.dau AS BIGINT) AS dau, CAST(mau.mau AS BIGINT) AS mau,
       ROUND(CAST(dau.dau AS DOUBLE) / CAST(mau.mau AS DOUBLE), 6) AS stickiness
FROM days d JOIN dau USING (day) JOIN mau USING (day)
"""

QUERIES5["dau_mau_stickiness"] = q_dau_mau_stickiness
ORACLES5["dau_mau_stickiness"] = DAU_MAU_STICKINESS_SQL


# ---------------------------------------------------------------------------
# First-touch attribution (acquisition channel -> purchases)
# ---------------------------------------------------------------------------


def first_touch_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-group kernel for ONE user: the first event_type ever seen
    (ts, event_id order) and the user's lifetime purchase count."""
    d = df.sort_values(["ts_us", "event_id"], kind="mergesort")
    return pd.DataFrame(
        {
            "channel": [d["event_type"].iloc[0]],
            "n_users": np.array([1], dtype=np.int64),
            "n_purchases": np.array(
                [int((d["event_type"] == "purchase").sum())], dtype=np.int64
            ),
        }
    )


def q_first_touch_attribution(sf_dir: str):
    """First-touch attribution: users grouped by the very first event
    type they ever produced (their acquisition channel), with the
    channel's user count, total lifetime purchases, and purchases per
    user — the marketing-attribution rollup that answers "which entry
    point produces buyers". One bucketed exchange on user_id; per-user
    kernel state is one user's events; channel partials are exact int64.
    """
    ev = _events(sf_dir, ["event_id", "ts", "user_id", "event_type"])

    def prep(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": batch["user_id"].astype(np.int64),
                "ts_us": _ts_us(batch["ts"]),
                "event_id": batch["event_id"].astype(np.int64),
                "event_type": batch["event_type"],
            }
        )

    per_user = bucketed_map_groups(
        ev.map_batches(prep, batch_format="pandas"), ["user_id"], first_touch_kernel
    )
    agg = hash_bucket_aggregate(
        per_user, ["channel"], [("n_users", "sum"), ("n_purchases", "sum")]
    )
    return agg.map_batches(
        lambda b: pd.DataFrame(
            {
                "channel": b["channel"],
                "n_users": b["n_users_sum"].astype(np.int64),
                "n_purchases": b["n_purchases_sum"].astype(np.int64),
                "purchases_per_user": _r6away(
                    b["n_purchases_sum"].to_numpy(np.float64)
                    / b["n_users_sum"].to_numpy(np.float64)
                ),
            }
        ),
        batch_format="pandas",
    )


FIRST_TOUCH_ATTRIBUTION_SQL = """
WITH f AS (
  SELECT user_id, event_type AS channel
  FROM events
  QUALIFY row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) = 1
),
p AS (
  SELECT user_id, COUNT(*) AS n_purchases
  FROM events WHERE event_type = 'purchase' GROUP BY 1
)
SELECT f.channel,
       COUNT(*) AS n_users,
       CAST(SUM(COALESCE(p.n_purchases, 0)) AS BIGINT) AS n_purchases,
       ROUND(CAST(SUM(COALESCE(p.n_purchases, 0)) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS purchases_per_user
FROM f LEFT JOIN p USING (user_id)
GROUP BY 1
"""

QUERIES5["first_touch_attribution"] = q_first_touch_attribution
ORACLES5["first_touch_attribution"] = FIRST_TOUCH_ATTRIBUTION_SQL


# ---------------------------------------------------------------------------
# Shipping SLA by order priority
# ---------------------------------------------------------------------------

_SLA_DAYS = 90


def q_shipping_sla(sf_dir: str, sla_days: int = _SLA_DAYS):
    """Fulfilment SLA report: per order priority, how many orders had
    ANY line item shipped more than 90 days after the order date (the
    late flag an ops dashboard pages on), with the late share. The
    order-level flag is an OR across the order's lines, computed as a
    max-reduction partial per batch — so the orderkey exchange moves one
    row per (batch, order), then priorities reduce to a tiny table.
    Day arithmetic is exact integer microseconds.
    """
    import ray.data as rd

    from ..common.raytools import bucketed_join

    sla_us = sla_days * DAY_US

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "orderkey": b["l_orderkey"].astype(np.int64),
                "ship_us": _ts_us(b["l_shipdate"]),
            }
        )
        .groupby("orderkey", sort=False)
        .agg(max_ship_us=("ship_us", "max"))
        .reset_index(),
        batch_format="pandas",
    )
    max_ship = hash_bucket_aggregate(li, ["orderkey"], [("max_ship_us", "max")])

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "orderkey": b["o_orderkey"].astype(np.int64),
                "order_us": _ts_us(b["o_orderdate"]),
                "priority": b["o_orderpriority"].astype(str),
            }
        ),
        batch_format="pandas",
    )
    joined = bucketed_join(orders, max_ship, on=["orderkey"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        late = (
            batch["max_ship_us_max"].to_numpy(np.int64)
            - batch["order_us"].to_numpy(np.int64)
            > sla_us
        ).astype(np.int64)
        g = (
            pd.DataFrame({"priority": batch["priority"], "late": late})
            .groupby("priority", sort=False)
            .agg(n_orders=("late", "size"), n_late=("late", "sum"))
        )
        return g.reset_index().astype({"n_orders": np.int64, "n_late": np.int64})

    agg = hash_bucket_aggregate(
        joined.map_batches(partial, batch_format="pandas"),
        ["priority"],
        [("n_orders", "sum"), ("n_late", "sum")],
    )
    return agg.map_batches(
        lambda b: pd.DataFrame(
            {
                "priority": b["priority"].astype(str),
                "n_orders": b["n_orders_sum"].astype(np.int64),
                "n_late": b["n_late_sum"].astype(np.int64),
                "late_share": _r6away(
                    b["n_late_sum"].to_numpy(np.float64)
                    / b["n_orders_sum"].to_numpy(np.float64)
                ),
            }
        ),
        batch_format="pandas",
    )


SHIPPING_SLA_SQL = f"""
WITH m AS (
  SELECT l_orderkey, MAX(l_shipdate) AS max_ship FROM lineitem GROUP BY 1
)
SELECT o.o_orderpriority AS priority,
       COUNT(*) AS n_orders,
       CAST(SUM(CASE WHEN epoch_us(m.max_ship) - epoch_us(o.o_orderdate)
                          > {_SLA_DAYS} * 86400000000
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
       ROUND(CAST(SUM(CASE WHEN epoch_us(m.max_ship) - epoch_us(o.o_orderdate)
                                > {_SLA_DAYS} * 86400000000
                           THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS late_share
FROM orders o JOIN m ON m.l_orderkey = o.o_orderkey
GROUP BY 1
"""

QUERIES5["shipping_sla"] = q_shipping_sla
ORACLES5["shipping_sla"] = SHIPPING_SLA_SQL


# ---------------------------------------------------------------------------
# Weekend effect (Welch t statistic from exact integer sums)
# ---------------------------------------------------------------------------


def q_weekend_effect(sf_dir: str):
    """Does the metric move on weekends? Per event_type: weekday vs
    weekend mean of `value` and Welch's t statistic — the two-sample
    location test run entirely from exact int64 centivalue sums (n, sum,
    sum-of-squares per side; cents^2 sums ride in Python ints / HUGEINT,
    the burstiness pattern), so the t expression is the only float and is
    transcribed op-for-op. Sample variances use the n-1 denominator.
    Types lacking either side (or with n <= 1 on a side) are omitted on
    both engines.
    """
    ev = _events(sf_dir, ["ts", "event_type", "value"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ts = _ts_us(batch["ts"])
        # 1970-01-01 was a Thursday: dow 0=Mon convention -> (d + 3) % 7
        dow = ((ts // DAY_US) + 3) % 7
        wk = (dow >= 5).astype(np.int64)
        cents = _cents(batch["value"])
        df = pd.DataFrame(
            {
                "event_type": batch["event_type"],
                "is_weekend": wk,
                "cents": cents,
            }
        )
        out = []
        for (et, w), grp in df.groupby(["event_type", "is_weekend"], sort=False):
            c = grp["cents"].to_numpy()
            q = sum(int(x) * int(x) for x in c)
            # split the (possibly > int64) cents^2 sum into 2^32-base
            # limbs: per-partial q_hi <= q/2^32 (~1e4 for 4096-row cents
            # batches) and q_lo < 2^32, so the limb sums stay inside
            # int64 up to ~2^31 partial rows per key — beyond that, add
            # a third limb (the reconstruction below is base-agnostic)
            out.append(
                (
                    et,
                    int(w),
                    int(c.size),
                    int(c.sum()),
                    q >> 32,
                    q & ((1 << 32) - 1),
                )
            )
        return pd.DataFrame(
            out, columns=["event_type", "is_weekend", "n", "s", "q_hi", "q_lo"]
        ).astype(
            {
                "is_weekend": np.int64,
                "n": np.int64,
                "s": np.int64,
                "q_hi": np.int64,
                "q_lo": np.int64,
            }
        )

    agg = (
        hash_bucket_aggregate(
            ev.map_batches(partial, batch_format="pandas"),
            ["event_type", "is_weekend"],
            [("n", "sum"), ("s", "sum"), ("q_hi", "sum"), ("q_lo", "sum")],
        ).to_pandas()  # |types| x 2 rows — tiny
    )
    agg["q"] = [
        (int(h) << 32) + int(l) for h, l in zip(agg["q_hi_sum"], agg["q_lo_sum"])
    ]
    wide = agg.pivot(
        index="event_type", columns="is_weekend", values=["n_sum", "s_sum", "q"]
    )
    rows = []
    for et in wide.index:
        try:
            n0, n1 = int(wide[("n_sum", 0)][et]), int(wide[("n_sum", 1)][et])
        except (KeyError, ValueError):
            continue
        if not (n0 > 1 and n1 > 1):
            continue
        s0, s1 = int(wide[("s_sum", 0)][et]), int(wide[("s_sum", 1)][et])
        q0, q1 = int(wide[("q", 0)][et]), int(wide[("q", 1)][et])
        m0 = float(s0) / float(n0) / 100.0
        m1 = float(s1) / float(n1) / 100.0
        # sample variance in dollars^2 from exact cent sums
        v0 = (float(q0) - float(s0) * float(s0) / float(n0)) / float(n0 - 1) / 10000.0
        v1 = (float(q1) - float(s1) * float(s1) / float(n1)) / float(n1 - 1) / 10000.0
        t = (m1 - m0) / math.sqrt(v0 / float(n0) + v1 / float(n1))
        rows.append((et, n0, n1, m0, m1, t))
    return pd.DataFrame(
        {
            "event_type": [r[0] for r in rows],
            "n_weekday": np.array([r[1] for r in rows], dtype=np.int64),
            "n_weekend": np.array([r[2] for r in rows], dtype=np.int64),
            "mean_weekday": _r6away(np.array([r[3] for r in rows])),
            "mean_weekend": _r6away(np.array([r[4] for r in rows])),
            "welch_t": _r6away(np.array([r[5] for r in rows])),
        }
    )


WEEKEND_EFFECT_SQL = """
WITH e AS (
  SELECT event_type,
         CASE WHEN ((epoch_us(ts) // 86400000000) + 3) % 7 >= 5
              THEN 1 ELSE 0 END AS is_weekend,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
),
a AS (
  SELECT event_type, is_weekend, COUNT(*) AS n,
         CAST(SUM(c) AS BIGINT) AS s,
         SUM(c::HUGEINT * c::HUGEINT) AS q
  FROM e GROUP BY 1, 2
),
w AS (
  SELECT a0.event_type,
         a0.n AS n0, a1.n AS n1,
         a0.s AS s0, a1.s AS s1,
         a0.q AS q0, a1.q AS q1
  FROM a a0 JOIN a a1
    ON a0.event_type = a1.event_type AND a0.is_weekend = 0 AND a1.is_weekend = 1
  WHERE a0.n > 1 AND a1.n > 1
)
SELECT event_type,
       CAST(n0 AS BIGINT) AS n_weekday, CAST(n1 AS BIGINT) AS n_weekend,
       ROUND(CAST(s0 AS DOUBLE) / CAST(n0 AS DOUBLE) / 100, 6) AS mean_weekday,
       ROUND(CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE) / 100, 6) AS mean_weekend,
       ROUND(
         (CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE) / 100
          - CAST(s0 AS DOUBLE) / CAST(n0 AS DOUBLE) / 100)
         / sqrt(
             ((CAST(q0 AS DOUBLE)
               - CAST(s0 AS DOUBLE) * CAST(s0 AS DOUBLE) / CAST(n0 AS DOUBLE))
              / CAST(n0 - 1 AS DOUBLE) / 10000.0) / CAST(n0 AS DOUBLE)
           + ((CAST(q1 AS DOUBLE)
               - CAST(s1 AS DOUBLE) * CAST(s1 AS DOUBLE) / CAST(n1 AS DOUBLE))
              / CAST(n1 - 1 AS DOUBLE) / 10000.0) / CAST(n1 AS DOUBLE)),
         6) AS welch_t
FROM w
"""

QUERIES5["weekend_effect"] = q_weekend_effect
ORACLES5["weekend_effect"] = WEEKEND_EFFECT_SQL


# ---------------------------------------------------------------------------
# Weekly retention tier (1m -> 1h -> 1d -> 1w exact cascade)
# ---------------------------------------------------------------------------


def q_rollup_1w_cascade(sf_dir: str):
    """The weekly retention tier, cascaded EXACTLY through the full
    ladder 1m -> 1h -> 1d -> 1w without ever touching raw points again —
    the coarsest continuous aggregate in the retention policy (keep 1m
    for a week, 1h for a month, 1d for a year, 1w forever). Weekly
    buckets are epoch-aligned 7-day multiples (integer arithmetic, no
    ISO-week calendar dependence), and the cascade stays exact because
    count/sum/min/max merge associatively over int64 centivalues with
    the mean reconstructed once at the end.
    """
    from .queries import _events_v100, _finish_rollup
    from ..stages.rollup import cascade_tier

    t1m = rollup_tier(_events_v100(sf_dir), "1m", key_cols=["event_type"])
    t1h = cascade_tier(t1m, "1h", key_cols=["event_type"])
    t1d = cascade_tier(t1h, "1d", key_cols=["event_type"])
    return _finish_rollup(cascade_tier(t1d, "1w", key_cols=["event_type"]))


ROLLUP_1W_CASCADE_SQL = """
WITH v AS (
  SELECT event_type,
         make_timestamp(epoch_us(ts) // 604800000000 * 604800000000) AS bucket_ts,
         CAST(ROUND(value * 100) AS BIGINT) AS v100
  FROM events
)
SELECT event_type, bucket_ts,
       COUNT(*) AS cnt,
       ROUND(CAST(SUM(v100) AS DOUBLE) / 100, 6) AS sum_value,
       ROUND(CAST(MIN(v100) AS DOUBLE) / 100, 6) AS min_value,
       ROUND(CAST(MAX(v100) AS DOUBLE) / 100, 6) AS max_value,
       ROUND(CAST(SUM(v100) AS DOUBLE) / 100 / COUNT(*), 6) AS mean_value
FROM v GROUP BY 1, 2
"""

QUERIES5["rollup_1w_cascade"] = q_rollup_1w_cascade
ORACLES5["rollup_1w_cascade"] = ROLLUP_1W_CASCADE_SQL


# ---------------------------------------------------------------------------
# Population Stability Index drift (first vs second time-half)
# ---------------------------------------------------------------------------

_PSI_BINS = 10


def q_psi_drift(sf_dir: str, n_bins: int = _PSI_BINS):
    """Population Stability Index per event_type between the value
    distributions of the first and second time-half: PSI =
    sum_i (q_i - p_i) * ln(q_i / p_i) over equal-width bins of the
    type's [min, max] centivalue range — the model-monitoring drift score
    read next to ks_drift (KS finds the largest local gap; PSI scores the
    whole reshape, and its 0.1/0.25 thresholds are industry convention).

    Exactness: bin edges are integer centivalues (width = range // bins,
    remainder absorbed by the last bin), so bin membership and all counts
    are exact ints; empty bins use the standard 1e-6 floor. The PSI sum
    runs as a strict ascending-bin left-fold on both sides (DuckDB
    list_sum(list(term ORDER BY bin)) == Python loop, the token_entropy
    parity tool). One exchange for (type, half, bin) counts; everything
    after is a tiny per-type reduction.
    """
    def prep_ds():
        # two full STREAMING scans (bounds, then binning) instead of one
        # materialized copy of the event table — the input is re-read, the
        # object store never holds it whole
        return _events(sf_dir, ["ts", "event_type", "value"]).map_batches(
            lambda batch: pd.DataFrame(
                {
                    "event_type": batch["event_type"],
                    "ts_us": _ts_us(batch["ts"]),
                    "cents": _cents(batch["value"]),
                }
            ),
            batch_format="pandas",
        )

    # per-type integer bounds + time midpoint (tiny aggregate)
    b = (
        hash_bucket_aggregate(
            prep_ds(),
            ["event_type"],
            [("cents", "min"), ("cents", "max"), ("ts_us", "min"), ("ts_us", "max")],
        ).to_pandas()
    )
    import ray

    meta = {
        "lo": {r["event_type"]: int(r["cents_min"]) for _, r in b.iterrows()},
        "w": {
            r["event_type"]: max(
                1, (int(r["cents_max"]) - int(r["cents_min"])) // n_bins
            )
            for _, r in b.iterrows()
        },
        "mid": {
            r["event_type"]: (int(r["ts_us_min"]) + int(r["ts_us_max"])) // 2
            for _, r in b.iterrows()
        },
    }
    meta_ref = ray.put(meta)

    def bin_partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = ray.get(meta_ref)  # prebuilt lo/w/mid dicts, no per-batch rebuild
        lo = batch["event_type"].map(m["lo"]).to_numpy(np.int64)
        w = batch["event_type"].map(m["w"]).to_numpy(np.int64)
        mid = batch["event_type"].map(m["mid"]).to_numpy(np.int64)
        bin_ = np.minimum(
            (batch["cents"].to_numpy(np.int64) - lo) // w, n_bins - 1
        )
        half = (batch["ts_us"].to_numpy(np.int64) > mid).astype(np.int64)
        g = (
            pd.DataFrame(
                {"event_type": batch["event_type"], "half": half, "bin": bin_}
            )
            .groupby(["event_type", "half", "bin"], sort=False)
            .size()
        )
        out = g.reset_index(name="n")
        out["n"] = out["n"].astype(np.int64)
        return out

    counts = (
        hash_bucket_aggregate(
            prep_ds().map_batches(bin_partial, batch_format="pandas"),
            ["event_type", "half", "bin"],
            [("n", "sum")],
        ).to_pandas()  # |types| x 2 x bins — tiny
    )
    out_rows = []
    for et, g in counts.groupby("event_type", sort=False):
        n0 = int(g[g["half"] == 0]["n_sum"].sum())
        n1 = int(g[g["half"] == 1]["n_sum"].sum())
        if n0 == 0 or n1 == 0:
            continue
        c0 = dict(zip(g[g["half"] == 0]["bin"], g[g["half"] == 0]["n_sum"]))
        c1 = dict(zip(g[g["half"] == 1]["bin"], g[g["half"] == 1]["n_sum"]))
        psi = 0.0
        for i in range(n_bins):  # strict ascending-bin left-fold
            p = float(int(c0.get(i, 0))) / float(n0)
            q = float(int(c1.get(i, 0))) / float(n1)
            if p < 1e-6:
                p = 1e-6
            if q < 1e-6:
                q = 1e-6
            psi = psi + (q - p) * math.log(q / p)
        out_rows.append((et, n0, n1, psi))
    return pd.DataFrame(
        {
            "event_type": [r[0] for r in out_rows],
            "n_first": np.array([r[1] for r in out_rows], dtype=np.int64),
            "n_second": np.array([r[2] for r in out_rows], dtype=np.int64),
            "psi": _r6away(np.array([r[3] for r in out_rows])),
        }
    )


PSI_DRIFT_SQL = f"""
WITH e AS (
  SELECT event_type, epoch_us(ts) AS t,
         CAST(ROUND(value * 100) AS BIGINT) AS c
  FROM events
),
m AS (
  SELECT event_type, MIN(c) AS lo,
         GREATEST(1, (MAX(c) - MIN(c)) // {_PSI_BINS}) AS w,
         (MIN(t) + MAX(t)) // 2 AS mid
  FROM e GROUP BY 1
),
binned AS (
  SELECT e.event_type,
         CASE WHEN e.t > m.mid THEN 1 ELSE 0 END AS half,
         LEAST((e.c - m.lo) // m.w, {_PSI_BINS} - 1) AS bin
  FROM e JOIN m USING (event_type)
),
n AS (
  SELECT event_type,
         SUM(CASE WHEN half = 0 THEN 1 ELSE 0 END) AS n0,
         SUM(CASE WHEN half = 1 THEN 1 ELSE 0 END) AS n1
  FROM binned GROUP BY 1
),
grid AS (
  SELECT n.event_type, t.bin
  FROM n, UNNEST(range(0, {_PSI_BINS})) AS t(bin)
),
cb AS (
  SELECT g.event_type, g.bin,
         COALESCE(SUM(CASE WHEN b.half = 0 THEN 1 ELSE 0 END), 0) AS c0,
         COALESCE(SUM(CASE WHEN b.half = 1 THEN 1 ELSE 0 END), 0) AS c1
  FROM grid g
  LEFT JOIN binned b ON b.event_type = g.event_type AND b.bin = g.bin
  GROUP BY 1, 2
),
terms AS (
  SELECT cb.event_type, cb.bin,
         (GREATEST(CAST(cb.c1 AS DOUBLE) / CAST(n.n1 AS DOUBLE), 1e-6)
          - GREATEST(CAST(cb.c0 AS DOUBLE) / CAST(n.n0 AS DOUBLE), 1e-6))
         * ln(GREATEST(CAST(cb.c1 AS DOUBLE) / CAST(n.n1 AS DOUBLE), 1e-6)
              / GREATEST(CAST(cb.c0 AS DOUBLE) / CAST(n.n0 AS DOUBLE), 1e-6))
           AS term
  FROM cb JOIN n USING (event_type)
  WHERE n.n0 > 0 AND n.n1 > 0
)
SELECT t.event_type,
       CAST(n.n0 AS BIGINT) AS n_first,
       CAST(n.n1 AS BIGINT) AS n_second,
       ROUND(list_sum(list(t.term ORDER BY t.bin)), 6) AS psi
FROM terms t JOIN n USING (event_type)
GROUP BY 1, n.n0, n.n1
"""

QUERIES5["psi_drift"] = q_psi_drift
ORACLES5["psi_drift"] = PSI_DRIFT_SQL


# ---------------------------------------------------------------------------
# Zipf-slope fit of the corpus frequency distribution
# ---------------------------------------------------------------------------

_ZIPF_TOP_K = 100


def q_zipf_fit(sf_dir: str, k: int = _ZIPF_TOP_K):
    """How Zipfian is the corpus? OLS slope of ln(frequency) on ln(rank)
    over the top-100 vocabulary — natural text fits slope ~ -1; heavily
    templated or synthetic corpora flatten. The fit consumes the already
    -verified top-K machinery: ranks are the deterministic (count DESC,
    word ASC) order, and all four OLS sums run as strict ascending-rank
    left-folds (list_sum(list(x ORDER BY rank)) == Python loop) with
    libm logs, so the slope/intercept are shared float expressions over
    bitwise-identical sums. Output: one row (n_terms, slope, intercept).
    """
    from ..stages.text import vocabulary_topk

    top = vocabulary_topk(_documents(sf_dir, ["doc_id", "text"]), k=k)
    n = len(top)
    sx = sy = sxy = sxx = 0.0
    for i in range(n):  # ascending rank left-fold
        x = math.log(float(i + 1))
        y = math.log(float(int(top["n"].iloc[i])))
        sx = sx + x
        sy = sy + y
        sxy = sxy + x * y
        sxx = sxx + x * x
    fn = float(n)
    slope = (fn * sxy - sx * sy) / (fn * sxx - sx * sx)
    intercept = (sy - slope * sx) / fn
    return pd.DataFrame(
        {
            "n_terms": np.array([n], dtype=np.int64),
            "zipf_slope": _r6away(slope),
            "intercept": _r6away(intercept),
        }
    )


ZIPF_FIT_SQL = f"""
WITH vocab AS (
  SELECT word, CAST(COUNT(*) AS BIGINT) AS n FROM (
    SELECT UNNEST(regexp_extract_all(lower(COALESCE(text, '')),
                                     '[\\p{{L}}\\p{{N}}_]+')) AS word
    FROM documents
  ) GROUP BY word ORDER BY n DESC, word ASC LIMIT {_ZIPF_TOP_K}
),
r AS (
  SELECT n, row_number() OVER (ORDER BY n DESC, word ASC) AS rank FROM vocab
),
t AS (
  SELECT rank, ln(CAST(rank AS DOUBLE)) AS x, ln(CAST(n AS DOUBLE)) AS y FROM r
),
s AS (
  SELECT COUNT(*) AS k,
         list_sum(list(x ORDER BY rank)) AS sx,
         list_sum(list(y ORDER BY rank)) AS sy,
         list_sum(list(x * y ORDER BY rank)) AS sxy,
         list_sum(list(x * x ORDER BY rank)) AS sxx
  FROM t
)
SELECT CAST(k AS BIGINT) AS n_terms,
       ROUND((CAST(k AS DOUBLE) * sxy - sx * sy)
             / (CAST(k AS DOUBLE) * sxx - sx * sx), 6) AS zipf_slope,
       ROUND((sy - ((CAST(k AS DOUBLE) * sxy - sx * sy)
                    / (CAST(k AS DOUBLE) * sxx - sx * sx)) * sx)
             / CAST(k AS DOUBLE), 6) AS intercept
FROM s
"""

QUERIES5["zipf_fit"] = q_zipf_fit
ORACLES5["zipf_fit"] = ZIPF_FIT_SQL


# ---------------------------------------------------------------------------
# ABC inventory classification (cumulative revenue share)
# ---------------------------------------------------------------------------


def q_abc_analysis(sf_dir: str):
    """ABC inventory classification: parts ranked by revenue (cents
    DESC, partkey ASC), classified A while the cumulative share of
    total revenue is < 80%, B while < 95%, C after — the Pareto cut
    ops teams restock by. The cumulative-share comparisons run on exact
    INTEGER cross-multiplication (cum_cents * 100 < 80 * total_cents),
    so class boundaries cannot wobble with float rounding.

    Scale: per-part cents reduce through one exchange to a
    catalog-bounded table; the ranked cumulative pass runs over that
    dimension-sized result (documented — catalog, never fact, volume).
    """
    import ray.data as rd

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_extendedprice"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "partkey": b["l_partkey"].astype(np.int64),
                "cents": _cents(b["l_extendedprice"]),
            }
        )
        .groupby("partkey", sort=False)
        .agg(cents=("cents", "sum"))
        .reset_index(),
        batch_format="pandas",
    )
    agg = (
        hash_bucket_aggregate(li, ["partkey"], [("cents", "sum")])
        .to_pandas()  # one row per catalog part — dimension-bounded
        .sort_values(["cents_sum", "partkey"], ascending=[False, True])
    )
    cents = agg["cents_sum"].to_numpy(np.int64)
    total = int(cents.sum())
    cum = np.cumsum(cents)
    # class by the share BEFORE including this part (strict Pareto cut):
    prev = cum - cents
    cls = np.where(
        prev * 100 < 80 * total, "A", np.where(prev * 100 < 95 * total, "B", "C")
    )
    return pd.DataFrame(
        {
            "partkey": agg["partkey"].to_numpy(np.int64),
            "revenue_cents": cents,
            "abc_class": cls,
        }
    )


ABC_ANALYSIS_SQL = """
WITH p AS (
  SELECT l_partkey AS partkey,
         CAST(SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM lineitem GROUP BY 1
),
r AS (
  SELECT partkey, revenue_cents,
         CAST(SUM(revenue_cents) OVER (ORDER BY revenue_cents DESC, partkey ASC)
              - revenue_cents AS BIGINT) AS prev_cum,
         CAST(SUM(revenue_cents) OVER () AS BIGINT) AS total
  FROM p
)
SELECT partkey, revenue_cents,
       CASE WHEN prev_cum * 100 < 80 * total THEN 'A'
            WHEN prev_cum * 100 < 95 * total THEN 'B'
            ELSE 'C' END AS abc_class
FROM r
"""

QUERIES5["abc_analysis"] = q_abc_analysis
ORACLES5["abc_analysis"] = ABC_ANALYSIS_SQL


# ---------------------------------------------------------------------------
# Exact-duplicate rate per source
# ---------------------------------------------------------------------------


def q_dup_rate_by_source(sf_dir: str):
    """Corpus triage: per ingestion source, how many documents are exact
    content duplicates of some EARLIER document (min doc_id is the
    canonical copy, the exact_dedup rule) — the first quality number a
    crawl pipeline reports per feed, deciding which sources are worth
    re-crawling. Content identity is the md5 fingerprint; the canonical
    doc per hash resolves through one bucketed exchange (min-reduction),
    then a stateless pass flags every non-canonical doc and per-source
    integer partials reduce to a tiny table.
    """
    from .queries2 import _md5_u64

    docs = _documents(sf_dir, ["doc_id", "source", "text"])

    def fp(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "h": _md5_u64(batch["text"].fillna("").tolist()).view(np.int64),
                "doc_id": batch["doc_id"].astype(np.int64),
                "source": batch["source"].astype(str),
            }
        )

    hashed = docs.map_batches(fp, batch_format="pandas").materialize()
    canon = hash_bucket_aggregate(hashed, ["h"], [("doc_id", "min")])

    from ..common.raytools import bucketed_join

    joined = bucketed_join(hashed, canon, on=["h"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        dup = (
            batch["doc_id"].to_numpy(np.int64)
            != batch["doc_id_min"].to_numpy(np.int64)
        ).astype(np.int64)
        g = (
            pd.DataFrame({"source": batch["source"], "dup": dup})
            .groupby("source", sort=False)
            .agg(n_docs=("dup", "size"), n_dups=("dup", "sum"))
        )
        return g.reset_index().astype({"n_docs": np.int64, "n_dups": np.int64})

    agg = hash_bucket_aggregate(
        joined.map_batches(partial, batch_format="pandas"),
        ["source"],
        [("n_docs", "sum"), ("n_dups", "sum")],
    )
    return agg.map_batches(
        lambda b: pd.DataFrame(
            {
                "source": b["source"].astype(str),
                "n_docs": b["n_docs_sum"].astype(np.int64),
                "n_dups": b["n_dups_sum"].astype(np.int64),
                "dup_rate": _r6away(
                    b["n_dups_sum"].to_numpy(np.float64)
                    / b["n_docs_sum"].to_numpy(np.float64)
                ),
            }
        ),
        batch_format="pandas",
    )


DUP_RATE_BY_SOURCE_SQL = """
WITH h AS (
  SELECT doc_id, source, md5_number_upper(COALESCE(text, '')) AS hh FROM documents
),
c AS (SELECT hh, MIN(doc_id) AS canon FROM h GROUP BY 1)
SELECT h.source,
       COUNT(*) AS n_docs,
       CAST(SUM(CASE WHEN h.doc_id <> c.canon THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dups,
       ROUND(CAST(SUM(CASE WHEN h.doc_id <> c.canon THEN 1 ELSE 0 END) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE), 6) AS dup_rate
FROM h JOIN c USING (hh)
GROUP BY 1
"""

QUERIES5["dup_rate_by_source"] = q_dup_rate_by_source
ORACLES5["dup_rate_by_source"] = DUP_RATE_BY_SOURCE_SQL


# ---------------------------------------------------------------------------
# LSH candidate verification (exact Jaccard over the signature shingles)
# ---------------------------------------------------------------------------

_LSH_VERIFY_T = 0.5


def q_lsh_verify(sf_dir: str, threshold: float = _LSH_VERIFY_T):
    """The verify leg of the LSH pipeline, SQL-checked end-to-end: every
    banded-LSH candidate pair (q_lsh_candidates) gets its EXACT Jaccard
    over the same distinct char-5-gram prefix shingle sets the signatures
    were built from, plus the >= 0.5 duplicate verdict — so the driver
    verifies not just the banding but the candidate-verification stage a
    production near-dup pipeline runs after it (precision is then just
    AVG(is_dup); recall over all pairs is unknowable without an
    all-pairs pass, which is the point of LSH).

    Scale: candidate pairs are bounded by the banding (both 64-bit slots
    agree); their shingle sets re-derive per pair inside the kernel from
    the two texts, fetched through a co-partitioned join of the pair list
    against the documents table on doc id — never a driver-side corpus
    dict (the round-1 verify_jaccard lesson).
    """
    from ..common.raytools import bucketed_join
    from .queries2 import _MH_K, _MH_PREFIX

    cand = q_lsh_candidates(sf_dir)

    def a_side(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_a"].astype(np.int64),
                "doc_a": batch["doc_a"].astype(np.int64),
                "doc_b": batch["doc_b"].astype(np.int64),
                "n_shared_bands": batch["n_shared_bands"].astype(np.int64),
            }
        )

    docs = _documents(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["doc_id"].astype(np.int64),
                "prefix": b["text"].fillna("").str.slice(0, _MH_PREFIX),
            }
        ),
        batch_format="pandas",
    )
    with_a = bucketed_join(
        cand.map_batches(a_side, batch_format="pandas"), docs, on=["doc_id"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "doc_id": b["doc_b"].astype(np.int64),  # rekey for the b side
                "doc_a": b["doc_a"].astype(np.int64),
                "doc_b": b["doc_b"].astype(np.int64),
                "n_shared_bands": b["n_shared_bands"].astype(np.int64),
                "prefix_a": b["prefix"].astype(str),
            }
        ),
        batch_format="pandas",
    )
    with_both = bucketed_join(with_a, docs, on=["doc_id"])

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        out_j = np.empty(len(batch), dtype=np.float64)
        for i, (pa_, pb_) in enumerate(zip(batch["prefix_a"], batch["prefix"])):
            sa = {pa_[j : j + _MH_K] for j in range(max(0, len(pa_) - _MH_K + 1))}
            sb = {pb_[j : j + _MH_K] for j in range(max(0, len(pb_) - _MH_K + 1))}
            inter = len(sa & sb)
            union = len(sa | sb)
            out_j[i] = float(inter) / float(union) if union else 0.0
        return pd.DataFrame(
            {
                "doc_a": batch["doc_a"].astype(np.int64),
                "doc_b": batch["doc_b"].astype(np.int64),
                "n_shared_bands": batch["n_shared_bands"].astype(np.int64),
                "jaccard": _r6h(out_j),
                "is_dup": (out_j >= threshold).astype(np.int64),
            }
        )

    return with_both.map_batches(score, batch_format="pandas")


LSH_VERIFY_SQL = f"""
WITH t AS (
  SELECT doc_id, substr(COALESCE(text, ''), 1, 512) AS s FROM documents
  WHERE length(substr(COALESCE(text, ''), 1, 512)) >= 5
),
idx AS (
  SELECT doc_id, s, UNNEST(generate_series(1, length(s) - 4)) AS i FROM t
),
sh AS (
  SELECT DISTINCT doc_id, substr(s, CAST(i AS INT), 5) AS g5 FROM idx
),
p AS (SELECT UNNEST([0, 1, 2, 3]) AS perm),
m AS (
  SELECT sh.doc_id, p.perm,
         MIN(md5_number_upper('p' || p.perm || ':' || sh.g5)) AS sig_u
  FROM sh, p GROUP BY 1, 2
),
wide AS (
  SELECT doc_id,
         MAX(CASE WHEN perm = 0 THEN sig_u END) AS s0,
         MAX(CASE WHEN perm = 1 THEN sig_u END) AS s1,
         MAX(CASE WHEN perm = 2 THEN sig_u END) AS s2,
         MAX(CASE WHEN perm = 3 THEN sig_u END) AS s3
  FROM m GROUP BY 1
),
bands AS (
  SELECT doc_id, 0 AS band, s0 AS s_lo, s1 AS s_hi FROM wide
  UNION ALL
  SELECT doc_id, 1 AS band, s2 AS s_lo, s3 AS s_hi FROM wide
),
cand AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         CAST(COUNT(*) AS BIGINT) AS n_shared_bands
  FROM bands a
  JOIN bands b ON a.band = b.band AND a.s_lo = b.s_lo AND a.s_hi = b.s_hi
              AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
inter AS (
  SELECT c.doc_a, c.doc_b, COUNT(*) AS n_inter
  FROM cand c
  JOIN sh sa ON sa.doc_id = c.doc_a
  JOIN sh sb ON sb.doc_id = c.doc_b AND sb.g5 = sa.g5
  GROUP BY 1, 2
),
sizes AS (SELECT doc_id, COUNT(*) AS n_sh FROM sh GROUP BY 1)
SELECT c.doc_a, c.doc_b, c.n_shared_bands,
       ROUND(CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
             / CAST(za.n_sh + zb.n_sh - COALESCE(i.n_inter, 0) AS DOUBLE),
             6) AS jaccard,
       CAST(CASE WHEN CAST(COALESCE(i.n_inter, 0) AS DOUBLE)
                      / CAST(za.n_sh + zb.n_sh - COALESCE(i.n_inter, 0) AS DOUBLE)
                      >= {_LSH_VERIFY_T}
                 THEN 1 ELSE 0 END AS BIGINT) AS is_dup
FROM cand c
LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
JOIN sizes za ON za.doc_id = c.doc_a
JOIN sizes zb ON zb.doc_id = c.doc_b
"""

QUERIES5["lsh_verify"] = q_lsh_verify
ORACLES5["lsh_verify"] = LSH_VERIFY_SQL


# ---------------------------------------------------------------------------
# SAX motif discovery (frequent 3-symbol subwords)
# ---------------------------------------------------------------------------


def q_sax_motifs(sf_dir: str):
    """Motif discovery over the symbolic representation: every 3-symbol
    sliding subword of each event_type's SAX word (q_sax_symbols), counted
    across all series — the Lin/Keogh motif primitive ("which local
    shapes recur") that symbolic discretization exists to enable. Counts
    are exact ints over the already-verified symbols; subwords never
    cross series boundaries.
    """
    sax = q_sax_symbols(sf_dir)

    def motif_partial(batch: pd.DataFrame) -> pd.DataFrame:
        out: dict = {}
        for et, g in batch.groupby("event_type", sort=False):
            s = "".join(g.sort_values("seg_idx")["sax"])
            for i in range(len(s) - 2):
                w = s[i : i + 3]
                out[w] = out.get(w, 0) + 1
        return pd.DataFrame(
            {
                "motif": list(out.keys()),
                "n": np.array(list(out.values()), dtype=np.int64),
            }
        )

    # one series' symbols always share a bucket (sax_symbols groups by
    # event_type), so regroup per event_type before sliding the window
    per_series = bucketed_map_groups(
        sax, ["event_type"], None, whole_bucket_fn=motif_partial
    )
    agg = hash_bucket_aggregate(per_series, ["motif"], [("n", "sum")])
    return agg.map_batches(
        lambda b: pd.DataFrame(
            {"motif": b["motif"].astype(str), "n": b["n_sum"].astype(np.int64)}
        ),
        batch_format="pandas",
    )


SAX_MOTIFS_SQL = f"""
WITH z AS ({SAX_SYMBOLS_SQL.replace("SELECT event_type, seg_idx, seg_len,",
                                    "SELECT event_type, seg_idx,")}),
w AS (
  SELECT event_type, seg_idx, sax,
         LEAD(sax, 1) OVER (PARTITION BY event_type ORDER BY seg_idx) AS s1,
         LEAD(sax, 2) OVER (PARTITION BY event_type ORDER BY seg_idx) AS s2
  FROM z
)
SELECT sax || s1 || s2 AS motif, CAST(COUNT(*) AS BIGINT) AS n
FROM w WHERE s1 IS NOT NULL AND s2 IS NOT NULL
GROUP BY 1
"""

QUERIES5["sax_motifs"] = q_sax_motifs
ORACLES5["sax_motifs"] = SAX_MOTIFS_SQL


# ---------------------------------------------------------------------------
# Year-over-year order growth
# ---------------------------------------------------------------------------


def q_order_growth_yoy(sf_dir: str):
    """Year-over-year growth report: orders and exact cents revenue per
    calendar year with the YoY growth rate of each — the board-slide
    number. Yearly partials reduce through one exchange to a handful of
    rows; growth = (cur - prev) / prev is the shared float per year
    (first year has no prior and is omitted from the growth columns'
    domain by emitting only years with a predecessor).
    """
    import ray.data as rd

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderdate", "o_totalprice"]
    )

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        yr = batch["o_orderdate"].astype("datetime64[us]").dt.year.astype(np.int64)
        g = (
            pd.DataFrame({"year": yr, "cents": _cents(batch["o_totalprice"])})
            .groupby("year", sort=False)
            .agg(n=("cents", "size"), cents=("cents", "sum"))
        )
        return g.reset_index().astype({"n": np.int64, "cents": np.int64})

    agg = (
        hash_bucket_aggregate(
            orders.map_batches(partial, batch_format="pandas"),
            ["year"],
            [("n", "sum"), ("cents", "sum")],
        )
        .to_pandas()  # one row per calendar year — tiny
        .sort_values("year")
    )
    yrs = agg["year"].to_numpy(np.int64)
    n = agg["n_sum"].to_numpy(np.int64)
    c = agg["cents_sum"].to_numpy(np.int64)
    rows = []
    for i in range(1, len(yrs)):
        if yrs[i] != yrs[i - 1] + 1:
            continue  # only consecutive years form a YoY pair
        rows.append(
            (
                int(yrs[i]),
                int(n[i]),
                float(int(n[i]) - int(n[i - 1])) / float(int(n[i - 1])),
                float(int(c[i]) - int(c[i - 1])) / float(int(c[i - 1])),
            )
        )
    return pd.DataFrame(
        {
            "year": np.array([r[0] for r in rows], dtype=np.int64),
            "n_orders": np.array([r[1] for r in rows], dtype=np.int64),
            "orders_yoy": _r6away(np.array([r[2] for r in rows])),
            "revenue_yoy": _r6away(np.array([r[3] for r in rows])),
        }
    )


ORDER_GROWTH_YOY_SQL = """
WITH y AS (
  SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
         COUNT(*) AS n,
         CAST(SUM(CAST(ROUND(o_totalprice * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM orders GROUP BY 1
),
l AS (
  SELECT year, n, cents,
         LAG(year) OVER (ORDER BY year) AS py,
         LAG(n) OVER (ORDER BY year) AS pn,
         LAG(cents) OVER (ORDER BY year) AS pc
  FROM y
)
SELECT year, CAST(n AS BIGINT) AS n_orders,
       ROUND(CAST(n - pn AS DOUBLE) / CAST(pn AS DOUBLE), 6) AS orders_yoy,
       ROUND(CAST(cents - pc AS DOUBLE) / CAST(pc AS DOUBLE), 6) AS revenue_yoy
FROM l WHERE py = year - 1
"""

QUERIES5["order_growth_yoy"] = q_order_growth_yoy
ORACLES5["order_growth_yoy"] = ORDER_GROWTH_YOY_SQL


# ---------------------------------------------------------------------------
# Embedding L2 norms (ordered-fold parity over float32 vectors)
# ---------------------------------------------------------------------------


def embedding_norms_batch(batch: pd.DataFrame) -> pd.DataFrame:
    """Per-batch kernel: L2 norm of each embedding with the squared sum
    accumulated as a strict ascending-dimension left-fold in float64
    (list_sum(list(x*x ORDER BY i)) parity — a vectorized np.sum uses
    pairwise blocking and drifts a ulp at dim 64)."""
    norms = np.empty(len(batch), dtype=np.float64)
    for r, vec in enumerate(batch["embedding"]):
        s = 0.0
        for v in vec:
            x = float(v)
            s = s + x * x
        norms[r] = math.sqrt(s)
    return pd.DataFrame(
        {
            "vec_id": batch["vec_id"].astype(np.int64),
            "label": batch["label"],
            "l2_norm": _r6away(norms),
        }
    )


def q_embedding_norms(sf_dir: str):
    """L2 norm of every embedding with its label — the first sanity table
    a vector pipeline derives (unnormalized rows break cosine search;
    norm outliers flag bad encoder batches). No shuffle; per-row state
    only. Float32 components upcast to float64 exactly on both engines;
    the squared sum is an ordered fold so parity is bitwise before the
    single shared ROUND.
    """
    import ray.data as rd

    return rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    ).map_batches(embedding_norms_batch, batch_format="pandas")


EMBEDDING_NORMS_SQL = """
WITH u AS (
  SELECT vec_id, label,
         UNNEST(embedding) AS e,
         generate_subscripts(embedding, 1) AS i
  FROM embeddings
)
SELECT vec_id, label,
       ROUND(sqrt(list_sum(list(CAST(e AS DOUBLE) * CAST(e AS DOUBLE)
                                ORDER BY i))), 6) AS l2_norm
FROM u GROUP BY 1, 2
"""

QUERIES5["embedding_norms"] = q_embedding_norms
ORACLES5["embedding_norms"] = EMBEDDING_NORMS_SQL


# ---------------------------------------------------------------------------
# Jensen-Shannon divergence between two sources' unigram distributions
# ---------------------------------------------------------------------------

_JS_SRC_A = "src0"
_JS_SRC_B = "src1"


def q_js_divergence_sources(sf_dir: str, src_a: str = _JS_SRC_A,
                            src_b: str = _JS_SRC_B):
    """How different are two ingestion feeds' vocabularies? Jensen-Shannon
    divergence (nats) between the unigram distributions of sources src0
    and src1 — the symmetric, bounded corpus-mix distance used to decide
    whether feeds can share a tokenizer/mixing weight (0 = identical,
    ln 2 = disjoint). Per-source token counts reduce through one exchange
    to a vocabulary-bounded table; the JS sum is a strict
    lexicographic-token left-fold (list_sum(list(term ORDER BY tok))
    parity) over shared per-token float expressions with the 0*ln(0)=0
    convention.
    """
    from ..stages.text import token_count_partial

    docs = _documents(sf_dir, ["source", "text"])

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        out = []
        for src in (src_a, src_b):
            sub = batch[batch["source"] == src]
            if not len(sub):
                continue
            c = token_count_partial(sub)
            c["source"] = src
            out.append(c)
        if not out:
            return pd.DataFrame(
                {"word": [], "n": np.array([], dtype=np.int64), "source": []}
            )
        return pd.concat(out, ignore_index=True)

    counts = (
        hash_bucket_aggregate(
            docs.map_batches(partial, batch_format="pandas"),
            ["source", "word"],
            [("n", "sum")],
        ).to_pandas()  # two sources x vocabulary — bounded
    )
    ca = dict(
        zip(
            counts[counts["source"] == src_a]["word"],
            counts[counts["source"] == src_a]["n_sum"].astype(int),
        )
    )
    cb = dict(
        zip(
            counts[counts["source"] == src_b]["word"],
            counts[counts["source"] == src_b]["n_sum"].astype(int),
        )
    )
    na, nb = sum(ca.values()), sum(cb.values())
    js = 0.0
    vocab = sorted(set(ca) | set(cb))
    for w in vocab:  # strict lexicographic left-fold
        p = float(ca.get(w, 0)) / float(na)
        q = float(cb.get(w, 0)) / float(nb)
        m = (p + q) / 2.0
        term = 0.0
        if p > 0.0:
            term = term + 0.5 * p * math.log(p / m)
        if q > 0.0:
            term = term + 0.5 * q * math.log(q / m)
        js = js + term
    return pd.DataFrame(
        {
            "n_tokens_union": np.array([len(vocab)], dtype=np.int64),
            "n_src_a": np.array([na], dtype=np.int64),
            "n_src_b": np.array([nb], dtype=np.int64),
            "js_nats": _r6away(js),
        }
    )


JS_DIVERGENCE_SOURCES_SQL = f"""
WITH tk AS (
  SELECT source,
         UNNEST(regexp_extract_all(lower(COALESCE(text, '')),
                                   '[\\p{{L}}\\p{{N}}_]+')) AS w
  FROM documents WHERE source IN ('{_JS_SRC_A}', '{_JS_SRC_B}')
),
c AS (SELECT source, w, COUNT(*) AS n FROM tk GROUP BY 1, 2),
tot AS (
  SELECT
    (SELECT CAST(SUM(n) AS BIGINT) FROM c WHERE source = '{_JS_SRC_A}') AS na,
    (SELECT CAST(SUM(n) AS BIGINT) FROM c WHERE source = '{_JS_SRC_B}') AS nb
),
wide AS (
  SELECT w,
         CAST(COALESCE(SUM(CASE WHEN source = '{_JS_SRC_A}' THEN n END), 0)
              AS BIGINT) AS cia,
         CAST(COALESCE(SUM(CASE WHEN source = '{_JS_SRC_B}' THEN n END), 0)
              AS BIGINT) AS cib
  FROM c GROUP BY 1
),
terms AS (
  SELECT wide.w,
         (CASE WHEN wide.cia > 0
               THEN 0.5 * (CAST(wide.cia AS DOUBLE) / CAST(tot.na AS DOUBLE))
                    * ln((CAST(wide.cia AS DOUBLE) / CAST(tot.na AS DOUBLE))
                         / ((CAST(wide.cia AS DOUBLE) / CAST(tot.na AS DOUBLE)
                             + CAST(wide.cib AS DOUBLE) / CAST(tot.nb AS DOUBLE))
                            / 2.0))
               ELSE 0.0 END)
         + (CASE WHEN wide.cib > 0
                 THEN 0.5 * (CAST(wide.cib AS DOUBLE) / CAST(tot.nb AS DOUBLE))
                      * ln((CAST(wide.cib AS DOUBLE) / CAST(tot.nb AS DOUBLE))
                           / ((CAST(wide.cia AS DOUBLE) / CAST(tot.na AS DOUBLE)
                               + CAST(wide.cib AS DOUBLE) / CAST(tot.nb AS DOUBLE))
                              / 2.0))
                 ELSE 0.0 END) AS term
  FROM wide, tot
)
SELECT (SELECT COUNT(*) FROM wide) AS n_tokens_union,
       tot.na AS n_src_a, tot.nb AS n_src_b,
       ROUND((SELECT list_sum(list(term ORDER BY w)) FROM terms), 6) AS js_nats
FROM tot
"""

QUERIES5["js_divergence_sources"] = q_js_divergence_sources
ORACLES5["js_divergence_sources"] = JS_DIVERGENCE_SOURCES_SQL


# ---------------------------------------------------------------------------
# Maximum drawdown of the daily count series
# ---------------------------------------------------------------------------


def max_drawdown_kernel(df: pd.DataFrame) -> pd.DataFrame:
    """Whole-series kernel for ONE event_type: maximum drawdown of the
    dense daily count series — the largest peak-to-trough drop
    (running-max minus current, maximized), with the day it bottomed.
    All-integer; ties resolve to the EARLIEST trough day; the percent is
    the one shared division (drawdown / peak at that trough)."""
    from ..kernels.seasonal import dense_counts

    df = df.sort_values("bucket_ts", kind="mergesort")
    grid, x = dense_counts(
        _ts_us(df["bucket_ts"]), df["count"].to_numpy(np.int64), DAY_US
    )
    runmax = np.maximum.accumulate(x)
    dd = runmax - x
    i = int(np.argmax(dd))  # first maximal trough
    drawdown = int(dd[i])
    peak = int(runmax[i])
    return pd.DataFrame(
        {
            "event_type": [df["event_type"].iloc[0]],
            "peak": np.array([peak], dtype=np.int64),
            "trough_day": pd.to_datetime([grid[i]], unit="us"),
            "max_drawdown": np.array([drawdown], dtype=np.int64),
            "drawdown_pct": _r6away(
                float(drawdown) / float(peak) if peak > 0 else 0.0
            ),
        }
    )


def q_max_drawdown(sf_dir: str):
    """Maximum drawdown of each event_type's dense daily count series:
    the deepest peak-to-trough traffic collapse and the day it bottomed —
    the worst-case-regression number an SLO review reads next to
    record_highs' best case. Running max is a prefix scan over exact
    ints; one bucketed exchange on event_type; earliest-trough tie rule
    matches the oracle's (dd DESC, day ASC) pick.
    """
    t = event_tier(sf_dir, "1d").select_columns(
        ["event_type", "bucket_ts", "count"]
    )
    return bucketed_map_groups(t, ["event_type"], max_drawdown_kernel)


MAX_DRAWDOWN_SQL = """
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
d AS (
  SELECT g.event_type, g.b, COALESCE(c.x, 0) AS x
  FROM g LEFT JOIN c ON c.event_type = g.event_type AND c.b = g.b
),
r AS (
  SELECT event_type, b, x,
         CAST(MAX(x) OVER (PARTITION BY event_type ORDER BY b) AS BIGINT)
           AS runmax
  FROM d
)
SELECT event_type,
       CAST(runmax AS BIGINT) AS peak,
       b AS trough_day,
       CAST(runmax - x AS BIGINT) AS max_drawdown,
       ROUND(CASE WHEN runmax > 0
                  THEN CAST(runmax - x AS DOUBLE) / CAST(runmax AS DOUBLE)
                  ELSE 0.0 END, 6) AS drawdown_pct
FROM r
QUALIFY row_number() OVER (PARTITION BY event_type
                           ORDER BY runmax - x DESC, b ASC) = 1
"""

QUERIES5["max_drawdown"] = q_max_drawdown
ORACLES5["max_drawdown"] = MAX_DRAWDOWN_SQL


# ---------------------------------------------------------------------------
# DAU / WAU ratio (7-day window of the stickiness machinery)
# ---------------------------------------------------------------------------


def q_dau_wau_ratio(sf_dir: str):
    """DAU over trailing-7-day WAU per day — the weekly engagement ratio
    tracked beside the monthly one (dau_mau_stickiness, whose exact
    window-day-expansion machinery this reuses at window=7: each distinct
    (user, active day) pair covers the 7 report days it keeps the user
    counted in)."""
    out = q_dau_mau_stickiness(sf_dir, window=7)

    def rename(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "day": batch["day"],
                "dau": batch["dau"].astype(np.int64),
                "wau": batch["mau"].astype(np.int64),
                "dau_wau": batch["stickiness"],
            }
        )

    return out.map_batches(rename, batch_format="pandas")


DAU_WAU_RATIO_SQL = """
WITH a AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events),
days AS (SELECT DISTINCT day FROM a),
dau AS (SELECT day, COUNT(*) AS dau FROM a GROUP BY 1),
wau AS (
  SELECT d.day, COUNT(DISTINCT a.user_id) AS wau
  FROM days d
  JOIN a ON a.day <= d.day AND a.day > d.day - INTERVAL 7 DAY
  GROUP BY 1
)
SELECT d.day, CAST(dau.dau AS BIGINT) AS dau, CAST(wau.wau AS BIGINT) AS wau,
       ROUND(CAST(dau.dau AS DOUBLE) / CAST(wau.wau AS DOUBLE), 6) AS dau_wau
FROM days d JOIN dau USING (day) JOIN wau USING (day)
"""

QUERIES5["dau_wau_ratio"] = q_dau_wau_ratio
ORACLES5["dau_wau_ratio"] = DAU_WAU_RATIO_SQL


# ---------------------------------------------------------------------------
# Brand price index (catalog dimension rollup)
# ---------------------------------------------------------------------------


def q_brand_price_index(sf_dir: str):
    """Catalog pricing posture: per brand, part count, mean retail price,
    and the price index vs the whole catalog's mean (1.0 = priced at
    market) — the assortment-analysis table a pricing team opens with.
    Integer cents sums; the index is the ratio of the two shared means.
    Dimension-table volume (part catalog), one tiny exchange.
    """
    import ray.data as rd

    part = rd.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_brand", "p_retailprice"]
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "brand": b["p_brand"].astype(str),
                "cents": _cents(b["p_retailprice"]),
            }
        )
        .groupby("brand", sort=False)
        .agg(n=("cents", "size"), cents=("cents", "sum"))
        .reset_index()
        .astype({"n": np.int64, "cents": np.int64}),
        batch_format="pandas",
    )
    agg = (
        hash_bucket_aggregate(part, ["brand"], [("n", "sum"), ("cents", "sum")])
        .to_pandas()  # one row per brand — tiny
    )
    tot_n = int(agg["n_sum"].sum())
    tot_c = int(agg["cents_sum"].sum())
    mean_all = float(tot_c) / float(tot_n) / 100.0
    mean_b = (
        agg["cents_sum"].to_numpy(np.float64)
        / agg["n_sum"].to_numpy(np.float64)
        / 100.0
    )
    return pd.DataFrame(
        {
            "brand": agg["brand"].astype(str),
            "n_parts": agg["n_sum"].astype(np.int64),
            "mean_price": _r6away(mean_b),
            "price_index": _r6away(mean_b / mean_all),
        }
    )


BRAND_PRICE_INDEX_SQL = """
WITH b AS (
  SELECT p_brand AS brand, COUNT(*) AS n,
         CAST(SUM(CAST(ROUND(p_retailprice * 100) AS BIGINT)) AS BIGINT) AS cents
  FROM part GROUP BY 1
),
t AS (SELECT CAST(SUM(n) AS BIGINT) AS tn, CAST(SUM(cents) AS BIGINT) AS tc FROM b)
SELECT b.brand, CAST(b.n AS BIGINT) AS n_parts,
       ROUND(CAST(b.cents AS DOUBLE) / CAST(b.n AS DOUBLE) / 100, 6) AS mean_price,
       ROUND((CAST(b.cents AS DOUBLE) / CAST(b.n AS DOUBLE) / 100)
             / (CAST(t.tc AS DOUBLE) / CAST(t.tn AS DOUBLE) / 100), 6)
         AS price_index
FROM b, t
"""

QUERIES5["brand_price_index"] = q_brand_price_index
ORACLES5["brand_price_index"] = BRAND_PRICE_INDEX_SQL
