"""Small Ray helpers shared by stages."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


_HANDOFF_SEQ = [0]


def parquet_handoff(ds, tag: str, root: str | None = None):
    """Stream `ds` to a scratch parquet directory ONCE and return a fresh
    lazy read over it — the multi-consumer alternative to `.materialize()`
    that never pins the whole dataset in the object store.

    `.materialize()` holds every block alive for the life of the handle; for
    corpus-scale intermediates (a word-shingle inverted index is ~5-10x the
    corpus bytes) that is the dedup family's memory cliff — the object store
    fills and the job lives or dies by spill throughput. A parquet handoff
    costs one extra write+read of the intermediate, but the write streams
    with backpressure (peak object store = the streaming window only) and
    each consumer re-reads lazily with column pruning. This is the same
    durable-boundary pattern the flagship pipeline uses between stages
    (pipelines/flagship.py), minus the manifest.

    root defaults to $SIGNALSHARP_HANDOFF_ROOT or /tmp/signalsharp_ray/
    handoff — point it at a shared filesystem / object store URI on a real
    multi-node cluster. Directories are left for the OS tmp reaper; callers
    that loop can pass an explicit root and clean it themselves.
    """
    import os
    import uuid

    import ray.data as rd

    base = root or os.environ.get(
        "SIGNALSHARP_HANDOFF_ROOT", "/tmp/signalsharp_ray/handoff"
    )
    _HANDOFF_SEQ[0] += 1
    out = f"{base}/{tag}-{os.getpid()}-{_HANDOFF_SEQ[0]}-{uuid.uuid4().hex[:8]}"
    ds.write_parquet(out)
    import pyarrow.fs as pafs

    fs, path = pafs.FileSystem.from_uri(out) if "://" in out else (
        pafs.LocalFileSystem(), out
    )
    files = [
        f.path
        for f in fs.get_file_info(pafs.FileSelector(path, recursive=True))
        if f.is_file and f.path.endswith(".parquet")
    ]
    if not files:
        # empty dataset: write_parquet emits no files. Only NOW pay for
        # ds.schema() (pre-write it would re-execute the whole upstream
        # pipeline a second time) to preserve typed columns downstream.
        schema = ds.schema()
        empty = pa.table({n: pa.nulls(0, t) for n, t in zip(schema.names, schema.types)})
        return rd.from_arrow(empty)
    return rd.read_parquet(out)


def hash_bucket_aggregate(
    ds,
    keys: list[str],
    aggs: list[tuple[str, str]],
    n_buckets: int | None = None,
    count_alias: str | None = None,
    bucket_cols: list[str] | None = None,
    keep_bucket: bool = False,
    salt: int = 1,
    _subsplit: int = 1,
):
    """Exact grouped aggregation that scales with HIGH key cardinality.

    Ray's built-in groupby().aggregate() iterates result groups in Python,
    which is O(#groups) interpreter work — measured ~90s for 55k groups on
    one node. This helper instead shuffles on hash(keys) % n_buckets (a
    LOW-cardinality key) and runs the real aggregation inside each bucket
    with pyarrow's C++ hash groupby. Exact for commutative aggregates
    (sum/min/max/count): every row of a key lands in the same bucket.

    aggs: [(column, op)] with op in {sum, min, max}; count_alias adds a
    row-count column. Output columns: keys + [column aliases] (+ count).
    bucket_cols: columns to derive the shuffle bucket from (must be a
    function of the keys — e.g. a precomputed integer url_hash — so every
    key still lands in exactly one bucket); defaults to the keys.

    salt: hot-key skew mitigation. With salt = S > 1, each key's rows are
    SPLIT round-robin across S sub-buckets (so one hot key — a viral url,
    a bot user — cannot make a single aggregation task hold its entire
    row set), partial-aggregated there, and the <= S partials per key
    merge through a second tiny exchange. Exact for the same associative
    ops; costs one extra exchange over partial rows, so use it where a
    per-batch combiner cannot run first (raw-row exchanges). Results are
    identical for any salt (unit-tested over adversarially skewed keys).
    """
    if n_buckets is None:
        n_buckets = default_buckets()
    bcols = bucket_cols or keys

    if salt > 1:
        if keep_bucket:
            raise ValueError("keep_bucket is not supported with salt > 1")
        bad = [op for _, op in aggs if op not in ("sum", "min", "max")]
        if bad:
            # the two-phase merge is only exact for associative ops; a
            # silent sum-of-partials for e.g. 'mean' would be wrong
            raise ValueError(
                f"salt > 1 supports only sum/min/max aggregates, got {bad}"
            )
        partials = hash_bucket_aggregate(
            ds, keys, aggs,
            n_buckets=n_buckets, count_alias=count_alias,
            bucket_cols=bcols, _subsplit=salt,
        )
        merge_aggs = [
            (f"{c}_{op}", op if op in ("min", "max") else "sum") for c, op in aggs
        ]
        if count_alias is not None:
            merge_aggs = merge_aggs + [(count_alias, "sum")]
        merged = hash_bucket_aggregate(
            partials, keys, merge_aggs, n_buckets=n_buckets
        )
        renames = {
            f"{c}_{op}_{'min' if op == 'min' else 'max' if op == 'max' else 'sum'}":
                f"{c}_{op}"
            for c, op in aggs
        }
        if count_alias is not None:
            renames[f"{count_alias}_sum"] = count_alias
        return merged.rename_columns(renames)

    def add_bucket(batch: pa.Table) -> pa.Table:
        h = np.zeros(batch.num_rows, dtype=np.uint64)
        for k in bcols:
            col = batch[k].to_numpy(zero_copy_only=False)
            if np.issubdtype(col.dtype, np.integer):
                h = h * np.uint64(1000003) ^ col.view(np.uint64)
            else:
                h = h * np.uint64(1000003) + pd.util.hash_array(
                    np.asarray(col, dtype=object)
                    if col.dtype == object
                    else col,
                    categorize=False,
                )
        b = (h % np.uint64(n_buckets)).astype(np.int64)
        if _subsplit > 1:
            # salted phase 1: spread each key's rows round-robin across
            # _subsplit sub-buckets so a hot key never concentrates
            b = b * np.int64(_subsplit) + (
                np.arange(batch.num_rows, dtype=np.int64) % np.int64(_subsplit)
            )
        if batch.schema.metadata:
            # parquet/pandas-origin schema metadata is an unhashable dict:
            # Ray's shuffle-side schema dedup then warns 'Failed to hash
            # the schemas' per reduce task — drop it at the exchange edge
            batch = batch.replace_schema_metadata(None)
        return batch.append_column("__bucket", pa.array(b))

    agg_specs = [(c, op) for c, op in aggs]
    if count_alias is not None:
        agg_specs = agg_specs + [(keys[0], "count")]
    out_names = list(keys) + [f"{c}_{op}" for c, op in aggs] + (
        [count_alias] if count_alias is not None else []
    )

    def agg_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.drop_columns(["__bucket"])
        bucket_val = t["__bucket"][0]
        t = t.drop_columns(["__bucket"])
        g = t.group_by(keys, use_threads=False).aggregate(agg_specs)
        # pyarrow names results "<col>_<op>"; put keys first, stable order
        cols = {k: g[k] for k in keys}
        for c, op in aggs:
            cols[f"{c}_{op}"] = g[f"{c}_{op}"]
        if count_alias is not None:
            cols[count_alias] = g[f"{keys[0]}_count"]
        if keep_bucket:
            cols["__bucket"] = pa.array(
                np.full(g.num_rows, bucket_val.as_py(), dtype=np.int64)
            )
        return pa.table(cols)

    bucketed = ds.map_batches(add_bucket, batch_format="pyarrow")
    return bucketed.groupby("__bucket").map_groups(agg_bucket, batch_format="pyarrow")


def pool_size(requested: int, num_cpus_per_actor: float = 1.0) -> tuple[int, int]:
    """Return an AUTOSCALING pool spec (1, n) clamped to the cluster size.

    Two failure modes this guards against (both observed): a fixed pool
    sized to every CPU starves task stages and deadlocks the streaming
    executor; and two fixed pools in one pipeline can jointly demand more
    CPUs than exist. An autoscaling (min=1, max=n) pool always makes
    progress with one actor and grows only while CPUs are free."""
    import ray

    requested = max(1, int(requested))
    cap = requested
    if ray.is_initialized():
        total = ray.cluster_resources().get("CPU")
        if total:
            cap = max(1, min(requested, int((total - 1) // max(num_cpus_per_actor, 0.001))))
    # min=1: measured better than a higher floor on this node — a floor of
    # cap//2 caused actor/worker churn that outweighed the extra parallelism
    return (1, cap)


def default_buckets() -> int:
    import ray

    if ray.is_initialized():
        total = ray.cluster_resources().get("CPU", 8)
        return max(32, int(total) * 4)
    return 64


def bucketed_map_groups(
    ds,
    key_cols: list[str],
    fn,
    n_buckets: int | None = None,
    whole_bucket_fn=None,
):
    """groupby(key).map_groups(fn) with BOUNDED Ray per-group overhead.

    Ray's map_groups pays interpreter + block overhead per group; with
    millions of (host, url) series that dominates wall time. This shuffles
    on hash(key) % n_buckets instead and applies `fn` per key-group INSIDE
    the bucket kernel via pandas groupby — same whole-group-in-one-call
    contract, Ray overhead proportional to n_buckets only. fn takes and
    returns a pandas DataFrame.

    whole_bucket_fn: alternative kernel applied to the ENTIRE bucket frame
    at once (all rows of every key hashing into the bucket) — for kernels
    that are themselves vectorized across keys (e.g. a self-merge per
    shingle); pass fn=None with it.
    """
    if n_buckets is None:
        n_buckets = default_buckets()

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        h = np.zeros(len(batch), dtype=np.uint64)
        for k in key_cols:
            col = batch[k].to_numpy()
            h = h * np.uint64(1000003) + pd.util.hash_array(
                np.asarray(col, dtype=object) if col.dtype == object else col,
                categorize=False,
            )
        batch = batch.copy()
        batch["__bucket"] = (h % np.uint64(n_buckets)).astype(np.int64)
        return batch

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["__bucket"])
        if whole_bucket_fn is not None:
            return whole_bucket_fn(df)
        if len(df) == 0:
            return df
        outs = [fn(g) for _, g in df.groupby(key_cols, sort=False)]
        outs = [o for o in outs if o is not None]
        if not outs:
            return fn(df.iloc[:0])
        # concat non-empty frames only: pandas' empty/all-NA concat path is
        # deprecated AND can silently alter result dtypes
        non_empty = [o for o in outs if len(o)]
        if not non_empty:
            return outs[0]
        return pd.concat(non_empty, ignore_index=True)

    bucketed = ds.map_batches(add_bucket, batch_format="pandas")
    return bucketed.groupby("__bucket").map_groups(per_bucket, batch_format="pandas")


def bucketed_join(
    left_ds,
    right_ds,
    on: list[str],
    how: str = "inner",
    n_buckets: int | None = None,
    suffix: str = "_r",
):
    """Distributed hash join through ONE bucketed exchange — the
    co-partitioned alternative to broadcasting a side to the driver.

    Both sides are tagged, schema-aligned with typed nulls, unioned, hash
    bucketed on the key columns, and pandas-merged per bucket (vectorized
    C join inside each kernel; Ray overhead proportional to n_buckets).
    Neither side is ever collected on the driver, so both may be
    arbitrarily large. Key columns must be hashable scalars.
    """
    import pyarrow as pa

    if n_buckets is None:
        n_buckets = default_buckets()

    def _pa_type(t):
        # pandas-block datasets report numpy dtypes (object for strings);
        # normalize every schema entry to a pyarrow DataType
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError, ValueError):
            return pa.string()

    lschema, rschema = left_ds.schema(), right_ds.schema()
    ltypes = {n: _pa_type(t) for n, t in zip(lschema.names, lschema.types)}
    rtypes = {n: _pa_type(t) for n, t in zip(rschema.names, rschema.types)}
    lcols, rcols = list(ltypes), list(rtypes)
    all_types = dict(ltypes)
    for n, t in rtypes.items():
        all_types.setdefault(n, t)
    all_names = list(all_types)

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            for name in all_names:
                if name not in t.column_names:
                    t = t.append_column(name, pa.nulls(t.num_rows, all_types[name]))
            t = t.select(all_names)
            return t.append_column("__side", pa.array([side] * t.num_rows))

        return fn

    both = left_ds.map_batches(tag("l"), batch_format="pyarrow").union(
        right_ds.map_batches(tag("r"), batch_format="pyarrow")
    )

    def _restore(df: pd.DataFrame, types: dict) -> pd.DataFrame:
        # the per-bucket concat of both sides turns int columns with
        # cross-side nulls into float64; restore each side's declared
        # dtypes so merge keys AND output columns stay exact int64
        df = df.copy()
        for c, t in types.items():
            if df[c].isna().any():
                continue
            if pa.types.is_integer(t):
                df[c] = df[c].astype(np.int64)
            elif pa.types.is_floating(t):
                df[c] = df[c].astype(np.float64)
            elif pa.types.is_boolean(t):
                df[c] = df[c].astype(bool)
        return df

    def merge_bucket(df: pd.DataFrame) -> pd.DataFrame:
        left = _restore(df[df["__side"] == "l"][lcols], ltypes)
        right = _restore(df[df["__side"] == "r"][rcols], rtypes)
        return left.merge(right, on=on, how=how, suffixes=("", suffix))

    # hash each key under ONE unified dtype: a float64 block and an int64
    # block carrying the same values must land in the same bucket
    key_is_int = {
        k: pa.types.is_integer(ltypes[k]) and pa.types.is_integer(rtypes[k])
        for k in on
    }

    def add_bucket(batch: pd.DataFrame) -> pd.DataFrame:
        h = np.zeros(len(batch), dtype=np.uint64)
        for k in on:
            col = batch[k].to_numpy()
            if key_is_int[k] and col.dtype != np.int64 and col.dtype != object:
                col = col.astype(np.int64)
            h = h * np.uint64(1000003) + pd.util.hash_array(
                np.asarray(col, dtype=object) if col.dtype == object else col,
                categorize=False,
            )
        batch = batch.copy()
        batch["__bucket"] = (h % np.uint64(n_buckets)).astype(np.int64)
        return batch

    bucketed = both.map_batches(add_bucket, batch_format="pandas")
    return bucketed.groupby("__bucket").map_groups(
        lambda df: merge_bucket(df.drop(columns=["__bucket"])),
        batch_format="pandas",
    )


def map_partition_tables(
    root: str,
    fn,
    bucket_col: str = "series_bucket",
    attach_root: str | None = None,
    attach_key: str = "url_hash",
):
    """Apply a whole-table transform per hive partition dir (no shuffle),
    re-attaching the partition column so the output can be written with the
    same partitioning. fn: pandas DataFrame -> pandas DataFrame.

    attach_root: a side dataset hive-partitioned on the SAME bucket hash
    (e.g. the url dictionary) — each task left-merges its own partition's
    slice onto its output (co-partitioned join, no shuffle/broadcast).

    Roots may be plain local paths OR URIs (s3://, file://, any fsspec
    scheme): partition dirs resolve through pyarrow.fs, and each task
    re-resolves the filesystem from the path string in-process."""
    import posixpath

    import ray.data as rd

    from . import fsio

    dirs = fsio.list_partition_dirs(root, f"{bucket_col}=")
    if not dirs:
        raise FileNotFoundError(f"No {bucket_col}=* partitions under {root}")

    def process(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for path in batch["path"]:
            bucket = int(posixpath.basename(path).split("=")[-1])
            df = fsio.read_parquet_dir(path)
            df = df.drop(columns=[c for c in (bucket_col, "__bucket") if c in df.columns])
            out = fn(df)
            if out is None or len(out) == 0:
                continue
            out = out.copy()
            if attach_root is not None:
                side_dir = fsio.join(attach_root, posixpath.basename(path))
                sfs, spath = fsio.resolve_fs(side_dir)
                if fsio.is_dir(sfs, spath):
                    side = fsio.read_parquet_dir(side_dir)
                    side = side.drop(
                        columns=[
                            c for c in (bucket_col, "__bucket") if c in side.columns
                        ]
                    )
                    out = out.merge(side, on=attach_key, how="left")
            out[bucket_col] = bucket
            outs.append(out)
        if not outs:
            return pd.DataFrame()
        return pd.concat(outs, ignore_index=True)

    paths = rd.from_items([{"path": d} for d in dirs])
    return paths.map_batches(process, batch_size=1, batch_format="pandas")


def bucket_groups(bucket_rows: dict[int, int], n_groups: int) -> list[list[int]]:
    """Split the buckets into at most `n_groups` contiguous ranges of about
    equal total rows; a bucket is never split."""
    buckets = sorted(bucket_rows)
    if len(buckets) <= n_groups:
        return [[b] for b in buckets]
    n = max(1, n_groups)
    target = sum(bucket_rows.values()) / n
    groups: list[list[int]] = []
    cur: list[int] = []
    acc = 0
    for b in buckets:
        cur.append(b)
        acc += bucket_rows[b]
        if len(groups) < n - 1 and acc >= target * (len(groups) + 1):
            groups.append(cur)
            cur = []
    if cur:
        groups.append(cur)
    return groups


def run_bucket_groups(fn, bucket_rows: dict[int, int], out_dirs: dict[str, str]) -> None:
    """Run `fn(bucket) -> {stage: DataFrame}` over every bucket of a
    hive-partitioned input as one Ray task per contiguous bucket group,
    each task writing its own buckets' outputs into `out_dirs[stage]`.
    Empty outputs write nothing.

    One task per group instead of one Dataset job per stage: a task reads
    its input buckets once, runs every stage's kernel in memory and writes
    every stage, so the per-stage job, block and write costs are paid once
    per group. Groups are sized by `bucket_rows` (bucket -> input rows) at
    about 4 per cluster CPU. Out dirs may be URIs; tasks re-resolve the
    filesystem from the string.

    Files land at `<out_dir>/series_bucket=<b>/part-0.parquet`, the layout
    Dataset.write_parquet(partition_cols=["series_bucket"]) produces, with
    the partition column kept out of the file. The column is added before
    the Arrow conversion only so the pandas schema metadata matches what a
    Dataset write records. The fixed file name makes a retried task
    overwrite its own file."""
    import pyarrow.parquet as pq
    import ray

    from . import fsio

    n_cpus = int(ray.cluster_resources().get("CPU", 1))
    groups = bucket_groups(bucket_rows, 4 * max(1, n_cpus))

    @ray.remote
    def run_group(buckets):
        for b in buckets:
            for stage, df in fn(b).items():
                if not len(df):
                    continue
                df["series_bucket"] = b
                table = pa.Table.from_pandas(df, preserve_index=False)
                fs, path = fsio.resolve_fs(fsio.join(out_dirs[stage], f"series_bucket={b}"))
                fsio.makedirs(fs, path)
                pq.write_table(table.drop_columns(["series_bucket"]),
                               fsio.join(path, "part-0.parquet"), filesystem=fs)

    ray.get([run_group.remote(g) for g in groups])


def hash_exchange(
    ds,
    n_buckets: int,
    reduce_fn,
    bucket_col: str = "__bucket",
    target_map_bytes: int = 256 << 20,
    max_blocks_per_map: int = 32,
    partial_fn=None,
    partial_every: int = 8,
):
    """STREAMING map/reduce hash exchange with raw Ray tasks.

    Ray Data's sort-based shuffle spends ~30s serializing a 5M-row exchange
    that this two-phase task graph does in a few seconds. The map side is
    PIPELINED with upstream production: blocks are consumed from
    `iter_internal_ref_bundles()` as the streaming executor emits them and
    split into n_buckets sub-tables immediately (one remote call, n_buckets
    returns), so the peak object-store footprint is the partitioned split
    output plus a small in-flight window — never the whole exchange input
    materialized up front AND its split copy side by side. Upstream extract
    work overlaps the splitting. Each reduce task then concatenates its
    bucket's slices and applies reduce_fn(table) -> table; reduces start as
    soon as the last map finishes (a hash exchange is a barrier at the
    reduce, not at the map). reduce_fn must accept an empty table (an
    empty bucket): every returned block then has its schema. Returns a
    Dataset over the reduced buckets (ray.data.from_arrow_refs), so
    downstream stays in the Dataset API.

    Map tasks are sized by BYTES (target_map_bytes per split group, capped
    at max_blocks_per_map tiny blocks), keeping per-task memory bounded at
    100-TB inputs while bounding the shuffle object count at
    ceil(total/target) x n_buckets. Driver refs to consumed input blocks
    are dropped as each group is submitted, so upstream blocks become
    reclaimable the moment their split task completes.

    This is the brief's 'raw Ray tasks as a last resort' case: the Dataset
    API cannot express a hash exchange without its sort machinery.

    partial_fn: OPT-IN associative pre-reduce that overlaps the reduce
    barrier with the map tail. When given, every `partial_every` map
    groups each bucket's accumulated slices are folded by a
    partial_bucket task SUBMITTED DURING the map loop (it runs as soon as
    its split slices land — while later maps are still producing), and
    the final reduce_bucket sees pre-shrunk partials instead of every raw
    slice. Contract: partial_fn must be SCHEMA-PRESERVING (same columns,
    same order, bucket_col retained) and associative with reduce_fn —
    reduce_fn(concat(partial_fn(A), partial_fn(B), C)) ==
    reduce_fn(concat(A, B, C)) — which holds for dedup/min/max/sum-style
    combiners (the flagship's first-per-key dedup). Reduce-side compute
    and memory then scale with the DISTINCT keys per bucket rather than
    the raw exchange rows, and split slices become reclaimable as soon as
    their partial folds them instead of living until the final reduce.
    """
    import ray
    import ray.data as rd

    @ray.remote(num_returns=n_buckets)
    def split_blocks(*tables):
        tables = [
            t if isinstance(t, pa.Table) else pa.Table.from_pandas(t)
            for t in tables
        ]
        nonempty = [t for t in tables if t.num_rows]
        if not nonempty:
            empty = tables[0]
            return tuple(empty for _ in range(n_buckets)) if n_buckets > 1 else empty
        table = nonempty[0] if len(nonempty) == 1 else pa.concat_tables(nonempty)
        buckets = table[bucket_col].to_numpy(zero_copy_only=False)
        order = np.argsort(buckets, kind="stable")
        table = table.take(pa.array(order))
        sorted_buckets = buckets[order]
        # one take + zero-copy slices per bucket (vs n_buckets filter scans)
        edges = np.searchsorted(sorted_buckets, np.arange(n_buckets + 1))
        out = [table.slice(edges[b], edges[b + 1] - edges[b]) for b in range(n_buckets)]
        return tuple(out) if n_buckets > 1 else out[0]

    def _strip_meta(t: pa.Table) -> pa.Table:
        # pandas-origin schema metadata is an unhashable dict; Ray's
        # schema-dedup then logs 'Failed to hash the schemas' per reduce
        # task — strip it (metadata carries no data) for quiet, hashable
        # schemas on every table this exchange returns
        return t.replace_schema_metadata(None) if t.schema.metadata else t

    @ray.remote
    def reduce_bucket(*slices):
        # an empty bucket goes through reduce_fn too, so its empty block
        # carries the reducer's output schema rather than the map side's
        tables = [t for t in slices if t.num_rows > 0] or [slices[0].schema.empty_table()]
        return _strip_meta(reduce_fn(pa.concat_tables(tables)))

    @ray.remote
    def concat_slices(*slices):
        tables = [t for t in slices if t.num_rows > 0]
        if not tables:
            empty = slices[0].schema.empty_table() if slices else pa.table({})
            return _strip_meta(empty)
        return _strip_meta(pa.concat_tables(tables))

    @ray.remote
    def partial_bucket(*slices):
        tables = [t for t in slices if t.num_rows > 0]
        if not tables:
            empty = slices[0].schema.empty_table() if slices else pa.table({})
            return _strip_meta(empty)
        return _strip_meta(partial_fn(pa.concat_tables(tables)))

    per_block: list = []
    partials: list = [[] for _ in range(n_buckets)]
    pending: list = [[] for _ in range(n_buckets)]
    group: list = []
    group_bytes = 0

    def flush():
        nonlocal group, group_bytes
        refs = split_blocks.remote(*group)
        refs = [refs] if n_buckets == 1 else list(refs)
        if partial_fn is None:
            per_block.append(refs)
        else:
            # eager associative pre-reduce: the partial task is submitted
            # NOW and runs as soon as its slices land — overlapping the
            # still-running map tail; its inputs' refs are dropped here so
            # split output is reclaimable the moment the partial folds it
            for b in range(n_buckets):
                pending[b].append(refs[b])
                if len(pending[b]) >= partial_every:
                    partials[b].append(partial_bucket.remote(*pending[b]))
                    pending[b].clear()
        # drop driver refs: the pending split task keeps the blocks alive;
        # once it completes they are reclaimable (the streaming property)
        group = []
        group_bytes = 0

    for bundle in ds.iter_internal_ref_bundles():
        for block_ref, meta in bundle.blocks:
            group.append(block_ref)
            group_bytes += meta.size_bytes or 0
            if group_bytes >= target_map_bytes or len(group) >= max_blocks_per_map:
                flush()
    if group:
        flush()

    if not per_block and not any(partials) and not any(pending):
        # empty input: no bundles were produced; preserve the input schema
        # (minus the bucket column) so downstream stages see typed columns
        schema = ds.schema()
        empty = pa.table(
            {n: pa.nulls(0, t) for n, t in zip(schema.names, schema.types)}
        )
        if bucket_col in empty.column_names:
            empty = empty.drop_columns([bucket_col])
        return rd.from_arrow(empty)

    # tree fan-in: a 100-TB input yields ~4e5 map tasks, and a single
    # remote call with 4e5 ObjectRef args is not a reasonable task spec —
    # pre-concatenate each bucket's slices in chunks of FANIN so every
    # task (intermediate and final) takes a bounded argument list
    FANIN = 256

    def gather(b: int):
        if partial_fn is None:
            slices = [slots[b] for slots in per_block]
            fold = concat_slices
        else:
            # intermediate tree levels keep folding with partial_fn, so
            # every task's output stays distinct-keys-sized
            slices = partials[b] + pending[b]
            fold = partial_bucket
        while len(slices) > FANIN:
            slices = [
                fold.remote(*slices[i: i + FANIN])
                for i in range(0, len(slices), FANIN)
            ]
        return reduce_bucket.remote(*slices)

    reduced = [gather(b) for b in range(n_buckets)]
    # refs stay in the object store; the Dataset consumes them lazily
    return rd.from_arrow_refs(reduced)
