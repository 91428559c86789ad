"""Deduplication stages for training-data pipelines.

Scale pattern shared by all variants: compute compact signatures inside
vectorized map_batches (no raw text crosses the shuffle), hash-partition on
the signature, resolve groups/pairs, verify candidates. Only signatures and
candidate pairs move cluster-wide.

Variants:
- exact_dedup:      content hash -> groupby -> representative (min doc_id)
- minhash_lsh:      shingle -> minhash -> bands -> bucket groupby ->
                    candidate pairs -> exact-Jaccard verification
- simhash:          64-bit simhash; near-dup = hamming distance <= k via
                    4-band exact-match blocking (guaranteed for k<=3)
- ngram_jaccard:    verified Jaccard over character n-gram sets (used as the
                    verifier for LSH candidates; exposed standalone too)
- embedding near-dup: cosine > threshold pairs (see similarity.py)
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from ..common.raytools import pool_size

# -- exact ---------------------------------------------------------------


def _content_hash(text: pd.Series) -> np.ndarray:
    return pd.util.hash_array(
        np.asarray(text.fillna("").to_numpy(), dtype=object), categorize=False
    ).view(np.int64)


def exact_dedup(docs_ds):
    """One row per distinct text: representative doc_id (min) + copy count.

    Hash first (64-bit content hash moves through the shuffle, not the
    text), then aggregate — pure hash-aggregation, no per-group python.
    """
    from ..common.raytools import hash_bucket_aggregate

    def sig(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": batch["doc_id"], "text_hash": _content_hash(batch["text"])}
        )

    sigs = docs_ds.map_batches(sig, batch_format="pandas")
    agg = hash_bucket_aggregate(
        sigs, ["text_hash"], [("doc_id", "min")], count_alias="n_copies"
    )

    def rename(batch):
        import pyarrow as pa

        return pa.table(
            {"doc_id": batch["doc_id_min"], "n_copies": batch["n_copies"]}
        )

    return agg.map_batches(rename, batch_format="pyarrow")


# -- shingles + minhash ---------------------------------------------------

_TOKEN = re.compile(r"\w+")


_SHINGLE_B = np.uint64(0x9E3779B97F4A7C15)


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Hashes of word k-shingles (set semantics), vectorized: tokens are
    hashed once (C-level), then k-windows combine via a polynomial roll —
    no per-shingle string allocation. Distinct-set semantics match the
    string-shingle formulation modulo 64-bit collisions (the SQL oracle
    compares only set-size-derived Jaccard values, never raw hashes)."""
    toks = _TOKEN.findall(text.lower())
    if not toks:
        return np.array([], dtype=np.uint64)
    h = pd.util.hash_array(np.asarray(toks, dtype=object), categorize=False)
    if len(toks) < k:
        c = h[0]
        for i in range(1, len(toks)):
            c = c * _SHINGLE_B + h[i]
        return np.array([c], dtype=np.uint64)
    c = h[: len(h) - k + 1].copy()
    for j in range(1, k):
        c = c * _SHINGLE_B + h[j : len(h) - k + 1 + j]
    return np.unique(c)


class MinHasher:
    """Actor-pool signature stage: permutation parameters built once."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, np.iinfo(np.uint64).max, num_perm, dtype=np.uint64) | np.uint64(1)
        self.b = rng.integers(0, np.iinfo(np.uint64).max, num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.shingle_k = shingle_k

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.shingle_k)
        if sh.size == 0:
            return np.zeros(self.num_perm, dtype=np.uint64)
        # universal hashing: min over (a*x + b) per permutation
        prods = sh[None, :] * self.a[:, None] + self.b[:, None]
        return prods.min(axis=1)

    _CHUNK_SHINGLES = 262144  # bound the (num_perm x shingles) product

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        """Whole-batch signatures: all docs' shingles concatenate into ONE
        (perm x shingle) product per chunk with per-doc mins via
        minimum.reduceat — identical values to per-doc signature(), without
        a numpy dispatch per document (equivalence unit-tested)."""
        shingles = [_shingle_hashes(t or "", self.shingle_k) for t in batch["text"]]
        lens = np.array([s.size for s in shingles], dtype=np.int64)
        sigs = np.zeros((len(shingles), self.num_perm), dtype=np.uint64)
        nonempty = np.flatnonzero(lens)
        if nonempty.size:
            concat = np.concatenate([shingles[i] for i in nonempty])
            bounds = np.cumsum(lens[nonempty])
            starts = np.concatenate([[0], bounds[:-1]])
            i0 = 0
            while i0 < nonempty.size:
                i1 = max(
                    i0 + 1,
                    int(
                        np.searchsorted(
                            bounds, starts[i0] + self._CHUNK_SHINGLES, "left"
                        )
                    ),
                )
                i1 = min(i1, nonempty.size)
                seg = concat[starts[i0] : bounds[i1 - 1]]
                prods = seg[None, :] * self.a[:, None] + self.b[:, None]
                mins = np.minimum.reduceat(prods, starts[i0:i1] - starts[i0], axis=1)
                sigs[nonempty[i0:i1]] = mins.T
                i0 = i1
        return pd.DataFrame({"doc_id": batch["doc_id"], "minhash": list(sigs)})


def minhash_lsh_candidates(
    docs_ds,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    concurrency: int = 4,
):
    """Candidate near-duplicate pairs via banded minhash LSH.

    rows (doc_a, doc_b) with doc_a < doc_b; a pair appears once even if it
    collides in several bands. Band buckets are resolved with a groupby on
    (band, band_hash): only (doc_id, band hash) rows shuffle.
    """
    assert num_perm % bands == 0
    rows_per_band = num_perm // bands

    sigs = docs_ds.map_batches(
        MinHasher,
        fn_constructor_kwargs={"num_perm": num_perm, "shingle_k": shingle_k},
        batch_format="pandas",
        concurrency=pool_size(concurrency),
        num_cpus=1,
    )

    def explode_bands(batch: pd.DataFrame) -> pd.DataFrame:
        """Vectorized band hashing: fold each band's signature slots with a
        polynomial combine over the whole batch at once (any injective-ish
        rehash of the band tuple yields identical LSH buckets)."""
        n = len(batch)
        if n == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype="int64"),
                    "band": pd.Series(dtype="int64"),
                    "band_hash": pd.Series(dtype="int64"),
                }
            )
        sig3 = np.stack(
            [np.asarray(s, dtype=np.uint64) for s in batch["minhash"]]
        ).reshape(n, bands, rows_per_band)
        c = sig3[:, :, 0].copy()
        for j in range(1, rows_per_band):
            c = c * np.uint64(1000003) + sig3[:, :, j]
        return pd.DataFrame(
            {
                "doc_id": np.repeat(batch["doc_id"].to_numpy(np.int64), bands),
                "band": np.tile(np.arange(bands, dtype=np.int64), n),
                "band_hash": c.reshape(-1).view(np.int64),
            }
        )

    exploded = sigs.map_batches(explode_bands, batch_format="pandas")

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(df["doc_id"].unique())
        if ids.size < 2:
            return pd.DataFrame({"doc_a": [], "doc_b": []})
        a, b = np.triu_indices(ids.size, k=1)
        return pd.DataFrame({"doc_a": ids[a], "doc_b": ids[b]})

    pairs = exploded.groupby(["band", "band_hash"]).map_groups(
        bucket_pairs, batch_format="pandas"
    )
    # dedup pairs that collided in multiple bands (bucketed aggregation:
    # pair-key cardinality equals the candidate count)
    from ..common.raytools import hash_bucket_aggregate

    agg = hash_bucket_aggregate(pairs, ["doc_a", "doc_b"], [], count_alias="n_bands")
    return agg.select_columns(["doc_a", "doc_b"])


def _shingle_index(docs_ds, shingle_k: int = 3):
    """Inverted-index rows (g:int64 shingle hash, doc_id) — one row per
    DISTINCT shingle per doc. Only int64 pairs ever cross a shuffle; docs
    with zero shingles contribute nothing."""

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        ids, grams = [], []
        for doc_id, text in zip(batch["doc_id"], batch["text"]):
            sh = _shingle_hashes(text or "", shingle_k)
            if sh.size:
                ids.append(np.full(sh.size, doc_id, dtype=np.int64))
                grams.append(sh.view(np.int64))
        if not ids:
            return pd.DataFrame(
                {"g": pd.Series(dtype="int64"), "doc_id": pd.Series(dtype="int64")}
            )
        return pd.DataFrame(
            {"g": np.concatenate(grams), "doc_id": np.concatenate(ids)}
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        explode, batch_format="pandas"
    )


def _pair_intersections(index_ds, n_buckets=None):
    """(doc_a, doc_b, inter) for every co-occurring doc pair: bucket the
    index on the shingle hash, self-merge per bucket (vectorized pandas
    hash join — per-shingle pair explosion), then globally sum the partial
    counts. A shingle in d docs emits O(d^2) pairs, so this kernel must
    only ever see a CANDIDATE-RESTRICTED index (verify_jaccard semi-joins
    the index down to candidate docs first; exact_jaccard_pairs generates
    its candidates through the PPJoin prefix filter) — never the raw
    corpus index, where one stop-word shingle would be an O(df^2) bomb."""
    from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate

    def co_pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="g", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        if m.empty:
            return pd.DataFrame(
                {
                    "doc_a": pd.Series(dtype="int64"),
                    "doc_b": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        g = m.groupby(["doc_id_a", "doc_id_b"], sort=False).size().reset_index()
        g.columns = ["doc_a", "doc_b", "n"]
        return g

    # bucket on the shingle hash; the per-bucket kernel handles ALL its
    # shingle groups in one vectorized merge (not per-group python)
    partial = bucketed_map_groups(
        index_ds, ["g"], None, whole_bucket_fn=co_pairs, n_buckets=n_buckets
    )
    agg = hash_bucket_aggregate(
        partial, ["doc_a", "doc_b"], [("n", "sum")], n_buckets=n_buckets
    )

    def rename(batch):
        import pyarrow as pa

        return pa.table(
            {"doc_a": batch["doc_a"], "doc_b": batch["doc_b"], "inter": batch["n_sum"]}
        )

    return agg.map_batches(rename, batch_format="pyarrow")


def _score_pairs(pairs_inter_ds, sizes_ds, threshold: float, n_buckets=None):
    """Join both docs' shingle-set sizes onto the intersection counts
    (two bucketed exchanges — nothing touches the driver) and keep pairs
    with ROUND(jaccard, 6) >= threshold (rounded so an independent SQL
    oracle computing the same integer ratio agrees exactly)."""
    from ..common.raytools import bucketed_join

    a_sizes = sizes_ds.map_batches(
        lambda t: t.rename_columns(["doc_a", "n_a"]), batch_format="pyarrow"
    )
    b_sizes = sizes_ds.map_batches(
        lambda t: t.rename_columns(["doc_b", "n_b"]), batch_format="pyarrow"
    )
    joined = bucketed_join(pairs_inter_ds, a_sizes, on=["doc_a"], n_buckets=n_buckets)
    joined = bucketed_join(joined, b_sizes, on=["doc_b"], n_buckets=n_buckets)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        inter = df["inter"].to_numpy(dtype=np.float64)
        union = df["n_a"].to_numpy(np.float64) + df["n_b"].to_numpy(np.float64) - inter
        j = np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)
        # half-up to match SQL ROUND at exact decimal midpoints (Jaccard
        # ratios are rationals — 1/128-style midpoints really occur)
        keep = np.floor(j * 1e6 + 0.5) / 1e6 >= threshold
        return pd.DataFrame(
            {
                "doc_a": df["doc_a"].to_numpy(np.int64)[keep],
                "doc_b": df["doc_b"].to_numpy(np.int64)[keep],
                "jaccard": j[keep],
            }
        )

    return joined.map_batches(score, batch_format="pandas")


def _doc_shingle_sizes(index_ds, n_buckets=None):
    from ..common.raytools import hash_bucket_aggregate

    return hash_bucket_aggregate(
        index_ds, ["doc_id"], [], count_alias="n_sh", n_buckets=n_buckets
    ).select_columns(["doc_id", "n_sh"])


def _prefix_index(index_ds, dfreq_ds, t_eff: float, n_buckets=None):
    """PPJoin/AllPairs prefix restriction of the inverted index: join each
    row's global shingle document-frequency, order every document's
    shingles rarest-first by (df, g) — one consistent global total order —
    and keep only the first  n - ceil(t_eff*n) + 1  shingles per doc.

    Prefix-filter lemma (Chaudhuri et al. 2006 / Bayardo et al. 2007,
    public): J(A,B) >= t implies |A∩B| >= t*max(|A|,|B|), and two sets
    whose intersection is >= a MUST share an element within their first
    |x| - a + 1 elements under any common total order. So every
    qualifying pair co-occurs in the prefix index — candidate generation
    over prefixes alone is EXACT (no recall loss), while a stop-word
    shingle with df=10^6 lands in almost no prefixes (it sorts last) and
    can no longer emit O(df^2) pairs."""
    from ..common.raytools import bucketed_join, bucketed_map_groups

    joined = bucketed_join(index_ds, dfreq_ds, on=["g"], n_buckets=n_buckets)

    def take_prefix(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame(
                {
                    "g": pd.Series(dtype="int64"),
                    "doc_id": pd.Series(dtype="int64"),
                    "n_sh": pd.Series(dtype="int64"),
                }
            )
        df = df.sort_values(["doc_id", "df", "g"], kind="mergesort")
        n = df.groupby("doc_id", sort=False)["g"].transform("size").to_numpy(np.int64)
        rank = df.groupby("doc_id", sort=False).cumcount().to_numpy(np.int64)
        plen = n - np.ceil(t_eff * n).astype(np.int64) + 1
        keep = rank < plen
        return pd.DataFrame(
            {
                "g": df["g"].to_numpy(np.int64)[keep],
                "doc_id": df["doc_id"].to_numpy(np.int64)[keep],
                "n_sh": n[keep],
            }
        )

    return bucketed_map_groups(
        joined, ["doc_id"], None, whole_bucket_fn=take_prefix, n_buckets=n_buckets
    )


def _prefix_candidates(prefix_ds, t_eff: float, n_buckets=None):
    """Distinct candidate pairs from the prefix index: per-shingle
    self-merge (bounded — prefixes exclude hot shingles), the exact
    length filter min(n) >= t*max(n) (necessary for J >= t), then a
    global dedup exchange on the pair key."""
    from ..common.raytools import bucketed_map_groups, hash_bucket_aggregate

    def co_pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="g", suffixes=("_a", "_b"))
        m = m[m["doc_id_a"] < m["doc_id_b"]]
        empty = pd.DataFrame(
            {"doc_a": pd.Series(dtype="int64"), "doc_b": pd.Series(dtype="int64")}
        )
        if m.empty:
            return empty
        na = m["n_sh_a"].to_numpy(np.int64)
        nb = m["n_sh_b"].to_numpy(np.int64)
        ok = np.minimum(na, nb) >= t_eff * np.maximum(na, nb)
        m = m[ok]
        if m.empty:
            return empty
        u = m[["doc_id_a", "doc_id_b"]].drop_duplicates()
        return pd.DataFrame(
            {
                "doc_a": u["doc_id_a"].to_numpy(np.int64),
                "doc_b": u["doc_id_b"].to_numpy(np.int64),
            }
        )

    partial = bucketed_map_groups(
        prefix_ds, ["g"], None, whole_bucket_fn=co_pairs, n_buckets=n_buckets
    )
    return hash_bucket_aggregate(
        partial, ["doc_a", "doc_b"], [], count_alias="c", n_buckets=n_buckets
    ).select_columns(["doc_a", "doc_b"])


def exact_jaccard_pairs(docs_ds, threshold: float = 0.5, shingle_k: int = 3,
                        n_buckets: int | None = None):
    """EXACT word-shingle Jaccard near-dup pairs over the whole corpus via
    a distributed inverted index with PPJoin prefix filtering — no LSH
    recall loss, no driver state, no hot-shingle pair bomb:

        docs -> (shingle, doc) explode -> global shingle df counts ->
        prefix index (rarest  n - ceil(t*n) + 1  shingles per doc; every
        qualifying pair provably co-occurs there) -> per-shingle co-pairs
        + length filter -> candidate pairs -> exact intersection counts
        over the candidate-restricted index -> join set sizes ->
        jaccard = inter / (na + nb - inter) >= threshold

    Every stage is a map_batches / bucketed exchange over int64 rows.
    SQL-oracle-verifiable (the brute-force inverted-index join in DuckDB
    computes the identical pair set — the prefix filter is exact), unlike
    the minhash path. The filter threshold is relaxed by 1e-6 because the
    final keep compares ROUND(j, 6) >= t.
    """
    from ..common.raytools import bucketed_join, hash_bucket_aggregate, parquet_handoff

    t_eff = max(threshold - 1e-6, 0.0)
    # the index feeds four consumers (df counts, prefix join, candidate
    # restriction, set sizes): hand it off through scratch parquet so the
    # shingling pass runs once WITHOUT pinning the whole index in the
    # object store — at corpus scale the word-shingle index is ~5-10x the
    # corpus bytes, and a .materialize() here was the dedup family's
    # memory/disk cliff (each consumer now re-reads the files lazily;
    # peak object store is just the write's streaming window).
    index = parquet_handoff(_shingle_index(docs_ds, shingle_k), "jaccard-index")
    dfreq = hash_bucket_aggregate(index, ["g"], [], count_alias="df", n_buckets=n_buckets)
    cands = parquet_handoff(
        _prefix_candidates(
            _prefix_index(index, dfreq, t_eff, n_buckets), t_eff, n_buckets
        ),
        "jaccard-cands",
    )

    # exact verification on the candidate-restricted index only
    def both_sides(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [
                        batch["doc_a"].to_numpy(np.int64),
                        batch["doc_b"].to_numpy(np.int64),
                    ]
                )
            }
        )

    cand_ids = hash_bucket_aggregate(
        cands.map_batches(both_sides, batch_format="pandas"), ["doc_id"], [],
        n_buckets=n_buckets,
    )
    # single consumer (_pair_intersections) — no pin, stream straight through
    cand_index = bucketed_join(index, cand_ids, on=["doc_id"], n_buckets=n_buckets)
    inter = bucketed_join(
        _pair_intersections(cand_index, n_buckets), cands, on=["doc_a", "doc_b"],
        n_buckets=n_buckets,
    )
    return _score_pairs(inter, _doc_shingle_sizes(index, n_buckets), threshold,
                        n_buckets)


def _verify_jaccard_broadcast(docs_ds, pairs_df, threshold, shingle_k):
    """Small-candidate fast path: driver state bounded by the CANDIDATE
    set (never the corpus). Candidate docs are filtered vectorized, their
    shingle sets collected and broadcast once, and pairs verified in one
    map stage."""
    import ray

    cand_ids = np.unique(
        np.concatenate(
            [pairs_df["doc_a"].to_numpy(np.int64), pairs_df["doc_b"].to_numpy(np.int64)]
        )
    )
    wanted = set(int(x) for x in cand_ids)

    def pick(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["doc_id"].isin(wanted)][["doc_id", "text"]]

    shingles = {}
    for b in (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(pick, batch_format="pandas")
        .iter_batches(batch_size=4096, batch_format="pandas")
    ):
        for doc_id, text in zip(b["doc_id"], b["text"]):
            shingles[int(doc_id)] = _shingle_hashes(text or "", shingle_k)
    ref = ray.put(shingles)
    sh = ray.get(ref)

    out_a, out_b, out_j = [], [], []
    for a, b in zip(pairs_df["doc_a"].astype(int), pairs_df["doc_b"].astype(int)):
        sa, sb = sh.get(a), sh.get(b)
        if sa is None or sb is None or sa.size == 0 or sb.size == 0:
            continue
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        j = inter / union if union else 0.0
        if np.floor(j * 1e6 + 0.5) / 1e6 >= threshold:
            out_a.append(a)
            out_b.append(b)
            out_j.append(j)
    import ray.data as rd

    return rd.from_pandas(
        pd.DataFrame(
            {
                "doc_a": np.asarray(out_a, dtype=np.int64),
                "doc_b": np.asarray(out_b, dtype=np.int64),
                "jaccard": np.asarray(out_j, dtype=np.float64),
            }
        )
    )


def verify_jaccard(
    docs_ds,
    pairs_ds,
    threshold: float = 0.8,
    shingle_k: int = 3,
    broadcast_pair_limit: int = 200_000,
):
    """Exact word-shingle Jaccard for candidate pairs, with BOUNDED driver
    state in both regimes.

    (The round-1 version collected EVERY document's shingle set into a
    driver-side dict — impossible at corpus scale.) Candidate volume picks
    the plan: small candidate sets verify via a candidate-bounded
    broadcast (one corpus scan, one map stage); large ones go fully
    distributed — the inverted index is semi-joined down to candidate
    docs, intersections are computed with bucketed exchanges, and the
    result is inner-joined back to the candidate pair set, with nothing
    corpus-sized on the driver either way.
    """
    from ..common.raytools import bucketed_join, hash_bucket_aggregate, parquet_handoff

    # pairs are consumed more than once and gate the plan choice — hand
    # them off through scratch parquet so the LSH pipeline runs once but
    # nothing is pinned in the object store (the count below reads only
    # parquet footers on the re-read dataset)
    pairs_ds = parquet_handoff(pairs_ds, "verify-pairs")
    if pairs_ds.count() <= broadcast_pair_limit:
        return _verify_jaccard_broadcast(
            docs_ds, pairs_ds.to_pandas(), threshold, shingle_k
        )

    # 1. distinct candidate doc ids (tiny relative to the corpus)
    def both_sides(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [
                        batch["doc_a"].to_numpy(np.int64),
                        batch["doc_b"].to_numpy(np.int64),
                    ]
                )
            }
        )

    cand_ids = hash_bucket_aggregate(
        pairs_ds.map_batches(both_sides, batch_format="pandas"), ["doc_id"], []
    )

    # 2. inverted index restricted to candidate docs (bucketed semi-join);
    # restriction only filters whole docs, so set sizes stay exact. The
    # restricted index feeds two consumers (pair counts + set sizes) —
    # parquet handoff, not materialize, for the same no-pin reason as
    # exact_jaccard_pairs.
    index = parquet_handoff(
        bucketed_join(_shingle_index(docs_ds, shingle_k), cand_ids, on=["doc_id"]),
        "verify-index",
    )

    # 3./4. intersections among candidate docs, then restrict to exactly
    # the candidate pair set (LSH candidates), then score
    inter = bucketed_join(
        _pair_intersections(index),
        pairs_ds.select_columns(["doc_a", "doc_b"]),
        on=["doc_a", "doc_b"],
    )
    return _score_pairs(inter, _doc_shingle_sizes(index), threshold)


def minhash_dedup_pairs(docs_ds, threshold: float = 0.8, **lsh_kwargs):
    """LSH candidates -> exact-Jaccard verified near-duplicate pairs."""
    cands = minhash_lsh_candidates(docs_ds, **lsh_kwargs)
    return verify_jaccard(docs_ds, cands, threshold=threshold)


def connected_components(pairs_ds, max_rounds: int = 50, n_buckets: int | None = None):
    """Distributed connected components over an edge Dataset
    (doc_a, doc_b) via iterative min-label propagation — the hash-min
    pattern from the MapReduce CC literature (Rastogi et al. 2013,
    public). Returns a Dataset of one (doc_id, cluster_rep) row per node,
    where cluster_rep is the MINIMUM doc_id in the node's component
    (identical to union-by-min union-find output).

    This is the one operator in the repo built on RAW Ray tasks instead
    of Dataset ops — deliberately: an iterative algorithm converging in
    O(diameter) rounds pays a full streaming-executor startup + exchange
    per round if each round is a Dataset groupby/join (measured: the
    Dataset formulation spent ~60s/round on a 600-edge graph and
    accumulated object-store garbage across rounds). Instead, edges are
    hash-partitioned ONCE by node into B object-store-resident frames,
    labels live as B co-partitioned frames, and each round is B propagate
    tasks (local merge + B-way message split, all pandas/numpy C kernels)
    + B min-reduce tasks. The driver holds only object refs and per-round
    change counts — never nodes or edges — so the operator survives the
    billions of near-dup edges a 100-TB corpus produces; B scales with
    edge count (~100k edge rows per bucket).

    Convergence: a round where no label decreases terminates the loop; a
    component of graph diameter d stabilizes in <= d rounds, and near-dup
    clusters are shallow (most are stars around one representative)."""
    import ray

    from ..common.raytools import default_buckets

    _MIX = np.uint64(0x9E3779B97F4A7C15)

    # stream the edge blocks off the executor instead of .materialize():
    # the driver holds only ObjectRefs + per-block row counts (from block
    # metadata — no extra count pass), and the source blocks become
    # reclaimable as soon as their split task finishes. The edges do
    # necessarily live in the object store for the duration of the loop —
    # but as B co-partitioned, spillable bucket frames, never pinned by a
    # MaterializedDataset handle.
    block_refs: list = []
    n_edges = 0
    for bundle in pairs_ds.select_columns(["doc_a", "doc_b"]).iter_internal_ref_bundles():
        for block_ref, meta in bundle.blocks:
            block_refs.append(block_ref)
            n_edges += meta.num_rows or 0
    B = int(min(default_buckets(), max(2, n_edges // 100_000)))

    def _bucket_of(ids: np.ndarray) -> np.ndarray:
        return ((ids.astype(np.uint64) * _MIX) >> np.uint64(32)) % np.uint64(B)

    @ray.remote
    def split_block(df) -> tuple:
        import pyarrow as _pa

        if isinstance(df, _pa.Table):
            df = df.to_pandas()
        if len(df) == 0 or "doc_a" not in df.columns:
            # upstream filters can emit schema-less empty blocks
            empty = pd.DataFrame(
                {"node": pd.Series(dtype="int64"), "nbr": pd.Series(dtype="int64")}
            )
            return tuple(empty for _ in range(B))
        a = df["doc_a"].to_numpy(np.int64)
        b = df["doc_b"].to_numpy(np.int64)
        node = np.concatenate([a, b])
        nbr = np.concatenate([b, a])
        tb = _bucket_of(node)
        out = []
        for k in range(B):
            m = tb == k
            out.append(pd.DataFrame({"node": node[m], "nbr": nbr[m]}))
        return tuple(out)

    @ray.remote
    def init_labels(*edge_parts) -> pd.DataFrame:
        e = pd.concat(edge_parts, ignore_index=True)
        if e.empty:
            return pd.DataFrame(
                {"node": pd.Series(dtype="int64"), "label": pd.Series(dtype="int64")}
            )
        g = e.groupby("node", sort=True)["nbr"].min()
        nodes = g.index.to_numpy(np.int64)
        return pd.DataFrame(
            {"node": nodes, "label": np.minimum(nodes, g.to_numpy(np.int64))}
        )

    @ray.remote
    def propagate(label_df: pd.DataFrame, *edge_parts) -> tuple:
        e = pd.concat(edge_parts, ignore_index=True)
        m = e.merge(label_df, on="node")
        tgt = _bucket_of(m["nbr"].to_numpy(np.int64))
        out = []
        for k in range(B):
            sub = m[tgt == k]
            g = sub.groupby("nbr", sort=False)["label"].min()
            out.append(
                pd.DataFrame(
                    {
                        "node": g.index.to_numpy(np.int64),
                        "label": g.to_numpy(np.int64),
                    }
                )
            )
        return tuple(out)

    @ray.remote
    def min_reduce(old_df: pd.DataFrame, *incoming) -> tuple:
        # every message targets an existing node of this bucket (a nbr is
        # always a node), so old and new cover the same sorted node set
        allf = pd.concat([old_df, *incoming], ignore_index=True)
        g = allf.groupby("node", sort=True)["label"].min()
        new = pd.DataFrame(
            {"node": g.index.to_numpy(np.int64), "label": g.to_numpy(np.int64)}
        )
        changed = int((new["label"].to_numpy() < old_df["label"].to_numpy()).sum())
        return new, changed

    parts = [split_block.options(num_returns=B).remote(r) for r in block_refs]
    block_refs.clear()  # split tasks keep the blocks alive; driver lets go
    if B == 1:  # options(num_returns=1) unwraps the tuple differently
        raise AssertionError("B is always >= 2")
    bucket_edges = [[pr[k] for pr in parts] for k in range(B)]
    labels = [init_labels.remote(*bucket_edges[k]) for k in range(B)]

    for _ in range(max_rounds):
        msgs = [
            propagate.options(num_returns=B).remote(labels[k], *bucket_edges[k])
            for k in range(B)
        ]
        results = [
            min_reduce.options(num_returns=2).remote(
                labels[k], *[msgs[j][k] for j in range(B)]
            )
            for k in range(B)
        ]
        labels = [r[0] for r in results]
        if sum(ray.get([r[1] for r in results])) == 0:
            break

    import ray.data as rd

    out = rd.from_pandas_refs(labels)

    def rename(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["node"].to_numpy(np.int64),
                "cluster_rep": df["label"].to_numpy(np.int64),
            }
        )

    return out.map_batches(rename, batch_format="pandas")


# -- simhash --------------------------------------------------------------


class SimHasher:
    """Actor-pool 64-bit simhash over word-unigram hashes."""

    def __init__(self):
        self.bit_cols = np.arange(64, dtype=np.uint64)

    def simhash(self, text: str) -> np.uint64:
        toks = _TOKEN.findall((text or "").lower())
        if not toks:
            return np.uint64(0)
        hashes = pd.util.hash_array(np.asarray(toks, dtype=object), categorize=False)
        bits = (hashes[:, None] >> self.bit_cols[None, :]) & np.uint64(1)
        votes = bits.sum(axis=0) * 2 - len(toks)  # (+1/-1 votes)
        result = np.uint64(0)
        for i in np.flatnonzero(votes > 0):
            result |= np.uint64(1) << np.uint64(i)
        return result

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "simhash": np.array(
                    [self.simhash(t) for t in batch["text"]], dtype=np.uint64
                ).view(np.int64),
            }
        )


def simhash_signatures(docs_ds, concurrency: int = 4):
    return docs_ds.map_batches(
        SimHasher,
        batch_format="pandas",
        concurrency=pool_size(concurrency),
        num_cpus=1,
    )


# Manku-style multi-table blocking (public scheme, Manku/Jain/Sarma WWW'07):
# split the 64 bits into B=6 blocks; any pair within hamming distance k<=3
# leaves >= B-k = 3 blocks untouched, so it matches EXACTLY on the 3 chosen
# blocks of at least one of the C(6,3)=20 tables. Table keys are ~32 bits
# (vs 16 in a naive 4-block scheme), so bucket cardinality scales to
# billions of docs instead of capping at 65,536 buckets.
_SIMHASH_BLOCKS = [(0, 11), (11, 11), (22, 11), (33, 11), (44, 10), (54, 10)]


def _simhash_tables(max_hamming: int):
    from itertools import combinations

    b = len(_SIMHASH_BLOCKS)
    n_match = b - max_hamming
    if n_match < 1:
        raise ValueError("max_hamming must be <= 5 for the 6-block scheme")
    combos = list(combinations(range(b), n_match))
    masks = []
    for combo in combos:
        m = np.uint64(0)
        for bi in combo:
            sh, w = _SIMHASH_BLOCKS[bi]
            m |= ((np.uint64(1) << np.uint64(w)) - np.uint64(1)) << np.uint64(sh)
        masks.append(m)
    return combos, np.array(masks, dtype=np.uint64)


def simhash_near_dup_pairs(docs_ds, max_hamming: int = 3, concurrency: int = 4):
    """Near-dup pairs with hamming(simhash) <= max_hamming, multi-table
    pigeonhole blocking (see _SIMHASH_BLOCKS note).

    Each pair is emitted EXACTLY ONCE with no cross-table dedup exchange:
    the kernel computes, from the pair's xor alone, the FIRST table in
    which the pair collides and emits only there. In-bucket compute is
    bounded by grouping identical simhashes first — the all-pairs scan
    runs over UNIQUE simhash values (O(U^2) per bucket), and doc-level
    expansion is O(output)."""
    sigs = simhash_signatures(docs_ds, concurrency)
    combos, masks = _simhash_tables(max_hamming)

    def explode_tables(batch: pd.DataFrame) -> pd.DataFrame:
        sh = batch["simhash"].to_numpy().view(np.uint64)
        doc = batch["doc_id"].to_numpy(np.int64)
        frames = []
        for t, combo in enumerate(combos):
            key = np.zeros(sh.size, dtype=np.uint64)
            for bi in combo:
                shift, w = _SIMHASH_BLOCKS[bi]
                key = (key << np.uint64(w)) | (
                    (sh >> np.uint64(shift)) & ((np.uint64(1) << np.uint64(w)) - np.uint64(1))
                )
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": doc,
                        "simhash": batch["simhash"],
                        "table": np.int16(t),
                        "key": key.view(np.int64),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    exploded = sigs.map_batches(explode_tables, batch_format="pandas")

    _EMPTY = pd.DataFrame(
        {
            "doc_a": pd.Series(dtype="int64"),
            "doc_b": pd.Series(dtype="int64"),
            "hamming": pd.Series(dtype="int64"),
        }
    )

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized fast path: drop singleton (table, key) groups first
        df = df[df.duplicated(subset=["table", "key"], keep=False)]
        if df.empty:
            return _EMPTY.copy()
        out_a, out_b, out_h = [], [], []
        for (t, _k), g in df.groupby(["table", "key"], sort=False):
            # group identical simhashes: the candidate scan runs over
            # unique values only; identical-value cliques (xor=0 matches
            # every mask) are emitted solely by table 0
            by_val: dict = {}
            for d, s in zip(g["doc_id"].to_numpy(np.int64),
                            g["simhash"].to_numpy().view(np.uint64)):
                by_val.setdefault(s, []).append(d)
            vals = np.fromiter(by_val.keys(), dtype=np.uint64, count=len(by_val))
            if t == 0:
                for s, docs in by_val.items():
                    if len(docs) > 1:
                        ids = np.sort(np.unique(np.asarray(docs, dtype=np.int64)))
                        ia, ib = np.triu_indices(ids.size, k=1)
                        out_a.append(ids[ia])
                        out_b.append(ids[ib])
                        out_h.append(np.zeros(ia.size, dtype=np.int64))
            if vals.size < 2:
                continue
            ia, ib = np.triu_indices(vals.size, k=1)
            x = vals[ia] ^ vals[ib]
            ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
            near = ham <= max_hamming
            if not near.any():
                continue
            x, ia, ib, ham = x[near], ia[near], ib[near], ham[near]
            # first-colliding-table ownership: emit only where this table
            # is the first whose mask bits are all clean in the xor
            first = np.argmax((x[:, None] & masks[None, :]) == 0, axis=1)
            own = first == t
            for xi in np.flatnonzero(own):
                da = np.asarray(by_val[vals[ia[xi]]], dtype=np.int64)
                db = np.asarray(by_val[vals[ib[xi]]], dtype=np.int64)
                aa = np.repeat(da, db.size)
                bb = np.tile(db, da.size)
                swap = aa > bb
                a2 = np.where(swap, bb, aa)
                b2 = np.where(swap, aa, bb)
                out_a.append(a2)
                out_b.append(b2)
                out_h.append(np.full(a2.size, ham[xi], dtype=np.int64))
        if not out_a:
            return _EMPTY.copy()
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(out_a),
                "doc_b": np.concatenate(out_b),
                "hamming": np.concatenate(out_h),
            }
        )

    from ..common.raytools import bucketed_map_groups

    return bucketed_map_groups(
        exploded, ["table", "key"], None, whole_bucket_fn=bucket_pairs
    )
