"""Small Ray helpers shared by stages.

The library has one shuffle, `hash_exchange` (no library code runs Ray
Data's sort-based groupby().map_groups), and one key hash, `key_buckets`:
every grouped operator (hash_bucket_aggregate, bucketed_map_groups,
bucketed_cogroup, bucketed_join, the Dataset-form rollup tiers, the
incremental tier store's apply) puts its rows in the `__bucket` that
`key_buckets` gives their key values, whatever type a block holds them
in, and hands a per-bucket reducer to the exchange. The grouped helpers
compute the bucket inside the exchange's split tasks, with no Ray Data
map of their own. The exchange runs the reducer on EVERY bucket, empty
ones included, so a reducer must accept an empty table and return an
empty table of its usual schema. The grouped helpers then drop the empty
buckets' blocks from their results (a downstream map_batches would strip
their schema), and the pandas helpers never call their kernels on an
empty bucket.

The exchange pays its per-task costs per CPU rather than per block or per
bucket: reads that it starts plan about 2 blocks per CPU (coarse_reads),
and one reduce task runs the reducer over each bucket of a contiguous
bucket group, returning one block per group.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray


# the handoff directories this process created, removed when it exits
_HANDOFF_DIRS: list[str] = []


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
    multi-node cluster: the /tmp default raises on a cluster with more
    than one alive node (an explicit root is trusted to be shared).
    The directories a process creates are removed when its interpreter
    exits, so a returned Dataset must be consumed before then.
    """
    import atexit
    import os
    import uuid

    import ray.data as rd

    from . import fsio

    base = root or os.environ.get("SIGNALSHARP_HANDOFF_ROOT")
    if base is None:
        if _alive_nodes() > 1:
            raise RuntimeError(
                "parquet_handoff has no root= and SIGNALSHARP_HANDOFF_ROOT is "
                "unset, so it would write to node-local /tmp on a Ray cluster "
                "with more than one node: workers would write to their own "
                "disks and the driver would miss their files. Pass root= (or "
                "set SIGNALSHARP_HANDOFF_ROOT) to a path every node shares "
                "(a shared mount or an object-store URI)."
            )
        base = "/tmp/signalsharp_ray/handoff"
    out = f"{base}/{tag}-{os.getpid()}-{len(_HANDOFF_DIRS) + 1}-{uuid.uuid4().hex[:8]}"
    ds.write_parquet(out)
    if not _HANDOFF_DIRS:
        atexit.register(_remove_handoff_dirs)
    _HANDOFF_DIRS.append(out)
    import pyarrow.fs as pafs

    fs, path = fsio.resolve_fs(out)
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


def _remove_handoff_dirs() -> None:
    from . import fsio

    for out in _HANDOFF_DIRS:
        fs, path = fsio.resolve_fs(out)
        try:
            fs.delete_dir(path)
        except OSError:
            pass  # already gone


def _alive_nodes() -> int:
    if not ray.is_initialized():
        return 1
    return sum(1 for n in ray.nodes() if n.get("Alive"))


def hash_bucket_aggregate(
    ds,
    keys: list[str],
    aggs: list[tuple[str, str]],
    n_buckets: int | None = None,
    count_alias: str | None = None,
    bucket_cols: list[str] | None = None,
):
    """Exact grouped aggregation that scales with HIGH key cardinality.

    Ray's built-in groupby().aggregate() iterates result groups in Python,
    which is O(#groups) interpreter work — measured ~90s for 55k groups on
    one node. This helper instead exchanges rows on key_buckets(keys)
    (hash_exchange) and runs the real aggregation inside each bucket with
    pyarrow's C++ hash groupby. Exact for commutative aggregates
    (sum/min/max/count): every row of a key lands in the same bucket.

    aggs: [(column, op)] with op in {sum, min, max}; count_alias adds a
    row-count column. Output columns: keys + [column aliases] (+ count).
    bucket_cols: columns to derive the shuffle bucket from (must be a
    function of the keys — e.g. a precomputed integer url_hash — so every
    key still lands in exactly one bucket); defaults to the keys.
    """
    if n_buckets is None:
        n_buckets = default_buckets()
    agg_specs = [(c, op) for c, op in aggs]
    if count_alias is not None:
        agg_specs = agg_specs + [(keys[0], "count")]

    def agg_bucket(t: pa.Table) -> pa.Table:
        # an empty bucket aggregates to an empty table of the same schema
        g = t.group_by(keys, use_threads=False).aggregate(agg_specs)
        # pyarrow names results "<col>_<op>"; put keys first, stable order
        cols = {k: g[k] for k in keys}
        for c, op in aggs:
            cols[f"{c}_{op}"] = g[f"{c}_{op}"]
        if count_alias is not None:
            cols[count_alias] = g[f"{keys[0]}_count"]
        return pa.table(cols)

    return _exchange(
        [(ds, _bucket_by(bucket_cols or keys, n_buckets))], n_buckets, agg_bucket,
        empty_like=ds, drop_empty=True,
    )


# the hash of a null key value in every column type: pandas' hash of a
# None in an object column, so string keys with nulls keep their ids
_NULL_HASH = pd.util.hash_array(np.array([None], dtype=object), categorize=False)[0]


def key_buckets(table: pa.Table, key_cols: list[str], n_buckets: int) -> np.ndarray:
    """Bucket id per row of `table`: a hash of its `key_cols` values mod
    n_buckets, the library's one key bucketing (every keyed exchange, and
    the ids the incremental tier store persists as bucket=<B> paths).

    A key hashes by value, not by the type a block happens to hold it in:
    every integer width (and bool) hashes as int64, and so does a float
    that holds an integer (a pandas block holds an int column with nulls
    as float64); other floats hash as float64; string, large_string and
    dictionary columns hash alike; a null (and a float NaN, which pandas
    groups with it) has the one hash _NULL_HASH. Each column's hash is
    pandas' hash_array of those values, so a null-free int64 or string
    column keeps the ids a pandas frame of it always had."""
    h = np.zeros(table.num_rows, dtype=np.uint64)
    for k in key_cols:
        h = h * np.uint64(1000003) + _value_hashes(table[k])
    return (h % np.uint64(n_buckets)).astype(np.int64)


def _value_hashes(col: pa.ChunkedArray) -> np.ndarray:
    if pa.types.is_dictionary(col.type):
        col = col.cast(col.type.value_type)
    typ = col.type
    if any(f(typ) for f in (pa.types.is_string, pa.types.is_large_string,
                            pa.types.is_binary, pa.types.is_large_binary)):
        # a null is None here, which pandas hashes to _NULL_HASH
        return pd.util.hash_array(col.to_numpy(zero_copy_only=False), categorize=False)
    null = col.is_null()
    if pa.types.is_integer(typ) or pa.types.is_boolean(typ):
        # an unsafe cast keeps a uint64's bits, as pandas hashes them
        values = pc.fill_null(col.cast(pa.int64(), safe=False), 0).to_numpy()
        h = pd.util.hash_array(values, categorize=False)
    elif pa.types.is_floating(typ):
        null = pc.is_null(col, nan_is_null=True)
        values = pc.fill_null(col.cast(pa.float64()), 0.0).to_numpy()
        h = pd.util.hash_array(values, categorize=False)
        ints = (np.trunc(values) == values) & (np.abs(values) < 2.0**63)
        h[ints] = pd.util.hash_array(values[ints].astype(np.int64), categorize=False)
    else:
        values = pa.table({"k": col}).to_pandas()["k"].to_numpy()
        h = pd.util.hash_array(values, categorize=False)
    h[null.to_numpy(zero_copy_only=False)] = _NULL_HASH
    return h


def _bucket_by(key_cols: list[str], n_buckets: int, prep=None):
    """The split-task function of a keyed exchange: `prep` (None: none)
    maps each typed input table, and `__bucket` = key_buckets(key_cols) is
    appended. Parquet/pandas-origin schema metadata is an unhashable dict:
    Ray's schema dedup then warns 'Failed to hash the schemas', so it is
    dropped at the exchange edge."""

    def bucketed(t: pa.Table) -> pa.Table:
        if prep is not None:
            t = prep(t)
        buckets = pa.array(key_buckets(t, key_cols, n_buckets))
        return t.replace_schema_metadata(None).append_column("__bucket", buckets)

    return bucketed


def pool_size(requested: int, num_cpus_per_actor: float = 1.0) -> tuple[int, int]:
    """Return an AUTOSCALING pool spec (1, n) clamped to the cluster size.

    Two failure modes this guards against (both observed): a fixed pool
    sized to every CPU starves task stages and deadlocks the streaming
    executor; and two fixed pools in one pipeline can jointly demand more
    CPUs than exist. An autoscaling (min=1, max=n) pool always makes
    progress with one actor and grows only while CPUs are free."""
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
    if ray.is_initialized():
        total = ray.cluster_resources().get("CPU", 8)
        return max(32, int(total) * 4)
    return 64


def _pandas_bucket_exchange(sources, key_cols, n_buckets: int, kernel, empty_like):
    """_exchange `sources` (a list of (Dataset or iterator of its ref
    bundles, prep)) bucketed on key_cols (_bucket_by), and apply the pandas
    `kernel` to each non-empty bucket frame.

    Blocks convert with Ray's own BlockAccessor conversions in both
    directions, so the kernel sees the dtypes map_groups(batch_format=
    "pandas") gives it. Per-group kernels index their group's first row,
    so an empty bucket skips the kernel; the blocks of empty buckets (and
    of kernels that return no rows) are dropped from the result, leaving
    every block with the kernel's schema.
    """
    from ray.data.block import BlockAccessor

    def reduce(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.drop_columns(["__bucket"])
        out = kernel(BlockAccessor.for_block(t.drop_columns(["__bucket"])).to_pandas())
        return BlockAccessor.for_block(out).to_arrow()

    return _exchange(
        [(src, _bucket_by(key_cols, n_buckets, prep)) for src, prep in sources],
        n_buckets, reduce, empty_like=empty_like, drop_empty=True,
    )


def bucketed_map_groups(
    ds,
    key_cols: list[str],
    fn,
    n_buckets: int | None = None,
    whole_bucket_fn=None,
):
    """The library's groupby(key).map_groups(fn, batch_format="pandas"),
    with BOUNDED Ray per-group overhead.

    Ray's map_groups sorts the whole dataset and pays interpreter + block
    overhead per group; with millions of (host, url) series that dominates
    wall time. This exchanges rows on key_buckets(key) instead and
    applies `fn` per key-group INSIDE the bucket kernel via pandas groupby:
    the same whole-group-in-one-call contract, Ray overhead proportional to
    n_buckets only. fn takes and returns a pandas DataFrame. Rows whose
    key is null form one group, as under map_groups. Unlike map_groups,
    the group frame keeps its row labels within the bucket frame, and an
    int column with nulls anywhere in the bucket is float64 in every group
    of it.

    whole_bucket_fn: alternative kernel applied to the ENTIRE bucket frame
    at once (all rows of every key hashing into the bucket) — for kernels
    that are themselves vectorized across keys (e.g. a self-merge per
    shingle); pass fn=None with it.
    """
    return _map_groups_exchange([(ds, None)], key_cols, fn, n_buckets, ds, whole_bucket_fn)


def _map_groups_exchange(sources, key_cols, fn, n_buckets, empty_like, whole_bucket_fn=None):
    """bucketed_map_groups over `sources`, a list of (Dataset or iterator
    of its ref bundles, prep): prep (None: none) maps each typed input
    table before it is bucketed, inside the exchange's split tasks."""
    if n_buckets is None:
        n_buckets = default_buckets()

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if whole_bucket_fn is not None:
            return whole_bucket_fn(df)
        # a null key is one group, as under Ray's map_groups
        outs = [fn(g) for _, g in df.groupby(key_cols, sort=False, dropna=False)]
        outs = [o for o in outs if o is not None]
        if not outs:
            return fn(df.iloc[:0])
        # concat non-empty frames only: pandas' empty/all-NA concat path is
        # deprecated AND can silently alter result dtypes
        non_empty = [o for o in outs if len(o)]
        if not non_empty:
            return outs[0]
        return pd.concat(non_empty, ignore_index=True)

    return _pandas_bucket_exchange(sources, key_cols, n_buckets, per_bucket, empty_like)


def bucketed_cogroup(left_ds, right_ds, key_cols: list[str], fn):
    """Both sides through ONE bucketed exchange on key_cols: every row is
    tagged with its side (`__side` = "l" / "r") and aligned to one schema
    (_aligned_sides), and fn(df) runs once per key group of both sides'
    rows."""
    sides, _, _ = _aligned_sides(left_ds, right_ds, key_cols)
    return _map_groups_exchange(sides, key_cols, fn, None, left_ds)


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

    Both sides stream into the exchange, where each block is tagged and
    aligned to one Arrow schema (_aligned_sides) and bucketed on the key
    columns; each bucket is pandas-merged (vectorized C join inside each
    kernel; Ray overhead proportional to n_buckets). Neither side is
    collected on the driver or materialized whole, so both may be
    arbitrarily large. Key columns must be hashable scalars.
    """
    if n_buckets is None:
        n_buckets = default_buckets()
    sides, ltypes, rtypes = _aligned_sides(left_ds, right_ds, on)
    lcols, rcols = list(ltypes), list(rtypes)

    def _restore(df: pd.DataFrame, types: dict) -> pd.DataFrame:
        # the per-bucket union of both sides turns int columns with
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

    return _pandas_bucket_exchange(sides, on, n_buckets, merge_bucket, left_ds)


def _aligned_sides(left_ds, right_ds, key_cols: list[str]):
    """The two sides of a two-sided exchange, aligned to one Arrow schema:
    ([(left bundles, prep), (right bundles, prep)], left types, right
    types). Each prep gives a block every column of both sides, the other
    side's as TYPED nulls (so datetime/int columns keep their types), casts
    a column the sides type differently (int64 vs double) to the one
    widened type, and tags each row with its side (`__side` = "l" / "r"),
    so both sides' rows of one key hash alike. A side with no typed block
    has no rows and takes the other side's key types.

    Both sides start streaming here. Each side's schema comes from its
    first typed block (_schema_and_bundles), and the rest of the side
    streams into the exchange: Dataset.schema() would run a limit(1) probe
    that cancels the map tasks it started, which has aborted the calling
    process under Ray 2.49."""
    lschema, lbundles = _schema_and_bundles(left_ds)
    rschema, rbundles = _schema_and_bundles(right_ds)
    ltypes, rtypes = _pa_types(lschema), _pa_types(rschema)
    ltypes = ltypes or {k: rtypes.get(k, pa.null()) for k in key_cols}
    rtypes = rtypes or {k: ltypes[k] for k in key_cols}
    all_types = dict(ltypes)
    widened = set()
    for n, t in rtypes.items():
        if n in all_types and all_types[n] != t:
            try:
                all_types[n] = pa.unify_schemas(
                    [pa.schema([(n, all_types[n])]), pa.schema([(n, t)])],
                    promote_options="permissive",
                ).field(n).type
                widened.add(n)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                pass
        all_types.setdefault(n, t)

    def tag(side):
        def aligned(t: pa.Table) -> pa.Table:
            cols = {}
            for name, typ in all_types.items():
                col = t[name] if name in t.column_names else None
                if col is None or pa.types.is_null(col.type):
                    # the other side's column, or a pandas all-None one
                    cols[name] = pa.nulls(t.num_rows, typ)
                elif name in widened:
                    cols[name] = col.cast(typ)
                else:
                    cols[name] = col
            cols["__side"] = pa.array([side] * t.num_rows, pa.string())
            return pa.table(cols)

        return aligned

    return [(lbundles, tag("l")), (rbundles, tag("r"))], ltypes, rtypes


def _schema_and_bundles(ds):
    """Start `ds` and read its bundles up to the first typed one: that
    bundle's schema (None when no block is typed) and an iterator over all
    of its bundles. Dataset.schema() would instead run a limit(1) plan and
    cancel the map tasks it started, which over exchange output upstream
    has aborted the Ray 2.49 driver (a reference-count check failure)."""
    import itertools

    from ray.data.dataset import Schema

    bundles = iter(ds.iter_internal_ref_bundles())
    head = []
    for bundle in bundles:
        head.append(bundle)
        if bundle.schema is not None and len(bundle.schema.names):
            return Schema(bundle.schema), itertools.chain(head, bundles)
    return None, iter(head)


def _pa_types(schema) -> dict:
    """{column: pyarrow type} of a Dataset schema; pandas blocks report
    numpy dtypes (object for strings), which map to Arrow here."""

    def pa_type(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError, ValueError):
            return pa.string()

    if schema is None:
        return {}
    return {n: pa_type(t) for n, t in zip(schema.names, schema.types)}


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


def run_bucket_groups(fn, bucket_rows: dict[int, int], out_dirs: dict[str, str],
                      on_phase=None) -> None:
    """Run `fn(buckets)` over every bucket of a hive-partitioned input as
    one Ray task per contiguous group of buckets, each task writing its
    own buckets' outputs into `out_dirs[stage]` (fsio.write_bucket; empty
    outputs, and stages not in out_dirs, write nothing).

    `fn(buckets)` gets the task's buckets and yields one dict per phase:
    {stage: {bucket: DataFrame or Table}}, plus float entries that are
    step seconds, summed over tasks with the write seconds (`write_s`). A
    task writes a phase's outputs, then reports, then asks `fn` for the
    next phase, so later phases can reuse what `fn` computed.
    `on_phase(i, steps)` is called once every task has finished phase i,
    with the steps summed over tasks: the caller can commit that phase's
    outputs while later phases run.

    One task per group instead of one Dataset job per stage: a task reads
    its input buckets once, runs every stage's kernel in memory (`fn` may
    run a kernel once over many buckets) and writes every stage, so the
    per-stage job, block and write costs are paid once per group. There
    is one group per cluster CPU, sized by `bucket_rows` (bucket -> input
    rows), so every task runs at once and each phase ends together. A
    task creates a phase's files on _WRITER_THREADS threads; the phase
    reports only once they are all written. Out dirs may be URIs; tasks
    re-resolve the filesystem from the string."""
    n_cpus = int(ray.cluster_resources().get("CPU", 1))
    gens = [_run_group.remote(fn, g, out_dirs) for g in bucket_groups(bucket_rows, max(1, n_cpus))]
    phase = 0
    try:
        while gens:
            refs, live = [], []
            for gen in gens:
                try:
                    refs.append(next(gen))
                    live.append(gen)
                except StopIteration:
                    pass
            gens = live
            steps: dict[str, float] = {}
            for d in ray.get(refs):
                for k, v in d.items():
                    steps[k] = steps.get(k, 0.0) + v
            if refs and on_phase is not None:
                on_phase(phase, steps)
            phase += 1
    except Exception:
        # a failed task or commit surfaces only once every task has ended,
        # so no writer outlives the call
        for gen in gens:
            for ref in gen:
                try:
                    ray.get(ref)
                except Exception:
                    pass
        raise


# threads per run_bucket_groups task that create its output files: on a
# local disk 550 small files took 0.5 s one after another and 0.2 s on 4
# threads
_WRITER_THREADS = 4


@ray.remote(num_returns="streaming")
def _run_group(fn, buckets, out_dirs):
    import time
    from concurrent.futures import ThreadPoolExecutor

    from . import fsio

    def write(data, out_dir, b) -> float:
        t0 = time.perf_counter()
        fsio.write_bucket(data, out_dir, b)
        return time.perf_counter() - t0

    # writer threads: a phase's files are created mostly in kernel time,
    # outside the interpreter lock, and in separate directories. Every
    # write of a phase ends before the phase reports, and leaving the
    # block waits for the writes of a phase that failed.
    with ThreadPoolExecutor(max_workers=_WRITER_THREADS) as writer:
        for out in fn(buckets):
            steps: dict[str, float] = {}
            writes = []
            for stage, data in out.items():
                if isinstance(data, float):
                    steps[stage] = data
                elif stage in out_dirs:
                    writes += [writer.submit(write, t, out_dirs[stage], b) for b, t in data.items()]
            for w in writes:
                steps["write_s"] = steps.get("write_s", 0.0) + w.result()
            yield steps


def _wait_all(refs: list) -> None:
    """Wait until every task behind `refs` has ended, failed ones included:
    a task that writes files must not outlive the call whose error
    surfaces first, or it would write into a retry's output."""
    if refs:
        ray.wait(refs, num_returns=len(refs), fetch_local=False)


# input bytes per split task: bounds a map task's memory at any input size
_MAP_BYTES = 256 << 20
# input blocks per split task: bounds its argument list when blocks are tiny
_MAP_BLOCKS = 32


@contextlib.contextmanager
def coarse_reads():
    """Drop Ray Data's floor of 200 read blocks while the block runs.

    Reads planned inside it make about 2 blocks per CPU, each at most
    `target_max_block_size`, instead of one block per MiB up to 200. The
    exchange regroups blocks into _MAP_BYTES split tasks anyway, so finer
    reads only add read and map tasks. Ray 2.49 plans a read from the
    current DataContext when execution starts; a factory whose Dataset
    captures the context should be called inside the block too."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    floor = ctx.read_op_min_num_blocks
    ctx.read_op_min_num_blocks = 1
    try:
        yield
    finally:
        ctx.read_op_min_num_blocks = floor


# the detached helper actors Ray Data starts on a session's first Dataset
# execution: (name, namespace) of its stats actor and autoscaling requester
_DATA_ACTORS = (("datasets_stats_actor", "_dataset_stats_actor"),
                ("AutoscalingRequester", "AutoscalingRequester"))


def _await_data_actors() -> None:
    """Wait until Ray Data's helper actors are up, once a Dataset has run.

    Each is a worker process whose start (about 1 s of imports) otherwise
    runs beside whatever tasks come next: on a 1-CPU node, beside the rest
    of the call that first executed a Dataset and often the call after it,
    so that call's time depends on when the session started. Waiting here
    makes the first call pay for them; later calls pay two actor lookups.
    A helper that is not there (no Dataset has run) is not waited for."""
    refs = []
    for name, namespace in _DATA_ACTORS:
        try:
            refs.append(ray.get_actor(name, namespace=namespace).__ray_ready__.remote())
        except ValueError:
            pass
    _wait_all(refs)


def hash_exchange(ds, n_buckets: int, reduce_fn):
    """STREAMING map/reduce hash exchange with raw Ray tasks, over a
    Dataset whose rows carry their `__bucket`.

    Ray Data's sort-based shuffle spends ~30s serializing a 5M-row exchange
    that this two-phase task graph does in a few seconds. The map side is
    PIPELINED with upstream production: blocks are consumed from
    `iter_internal_ref_bundles()` as the streaming executor emits them and
    split into n_buckets sub-tables immediately (one remote call, n_buckets
    returns), so the peak object-store footprint is the partitioned split
    output plus a small in-flight window — never the whole exchange input
    materialized up front AND its split copy side by side. Upstream extract
    work overlaps the splitting. Reads that the exchange starts run with
    no block floor of Ray's own (coarse_reads): about 2 blocks per CPU,
    since the split tasks regroup blocks by bytes anyway.

    Each reduce task then takes a contiguous group of buckets: for each
    bucket in turn it concatenates the bucket's slices and applies
    reduce_fn(table) -> table, and it returns the outputs concatenated in
    bucket order as one block. There are min(n_buckets, max(cluster CPUs,
    ceil(input bytes / _MAP_BYTES))) groups, so a small input pays for
    about one reduce task per CPU and a large one still reduces at most
    about _MAP_BYTES of input per task (or one bucket). Reduces start as
    soon as the last map finishes (a hash exchange is a barrier at the
    reduce, not at the map). reduce_fn must accept an empty table (an
    empty bucket): every returned block then has its schema. Returns a
    Dataset over the reduced groups (ray.data.from_arrow_refs), so
    downstream stays in the Dataset API, once every reduce task has ended
    (failed ones too, so a reducer that writes files never outlives a
    failed call).

    Map tasks are sized by BYTES (_MAP_BYTES per split group, at most
    _MAP_BLOCKS tiny blocks), keeping per-task memory bounded at 100-TB
    inputs while bounding the shuffle object count at
    ceil(total/_MAP_BYTES) x n_buckets. Driver refs to consumed input blocks
    are dropped as each group is submitted, so upstream blocks become
    reclaimable the moment their split task completes.

    This is the brief's 'raw Ray tasks as a last resort' case: the Dataset
    API cannot express a hash exchange without its sort machinery.
    """
    return _exchange([(ds, None)], n_buckets, reduce_fn, empty_like=ds)


def _exchange(sources, n_buckets: int, reduce_fn, empty_like=None, drop_empty: bool = False):
    """hash_exchange over `sources`, a list of (Dataset or iterator of its
    ref bundles, bucket_fn): bucket_fn (None: the blocks already carry
    `__bucket`) maps each typed input table to the table to split, inside
    the split task. The sources are consumed under coarse_reads, and then
    Ray Data's helper actors are waited for (_await_data_actors). Returns a
    Dataset with one block per reduce task (a contiguous bucket group, see
    hash_exchange); with drop_empty a group keeps only its non-empty
    buckets' outputs, and only the non-empty blocks are returned (the
    first one when all are empty). Untyped input blocks (zero columns:
    Ray Data's empty blocks after a map or filter that kept no row) are
    skipped; when no source yields a typed block, the result is
    `empty_like`'s columns (minus `__bucket`) with no rows (_no_rows)."""
    import ray.data as rd

    reduce_ref = ray.put(reduce_fn)
    per_block: list = []
    group: list = []
    group_bytes = 0

    def flush(bucket_ref):
        nonlocal group, group_bytes
        refs = _split_blocks.options(num_returns=n_buckets).remote(
            n_buckets, bucket_ref, *group
        )
        per_block.append([refs] if n_buckets == 1 else list(refs))
        # drop driver refs: the pending split task keeps the blocks alive;
        # once it completes they are reclaimable (the streaming property)
        group = []
        group_bytes = 0

    input_bytes = 0
    with coarse_reads():
        for src, bucket_fn in sources:
            # one object per exchange instead of one function export per call
            bucket_ref = None if bucket_fn is None else ray.put(bucket_fn)
            bundles = src.iter_internal_ref_bundles() if hasattr(src, "iter_internal_ref_bundles") else src
            for bundle in bundles:
                if bundle.schema is not None and not len(bundle.schema.names):
                    continue  # untyped: no rows, and no reducer could type them
                for block_ref, meta in bundle.blocks:
                    group.append(block_ref)
                    group_bytes += meta.size_bytes or 0
                    input_bytes += meta.size_bytes or 0
                    if group_bytes >= _MAP_BYTES or len(group) >= _MAP_BLOCKS:
                        flush(bucket_ref)
            if group:
                # a group never mixes sources: each has its own bucket_fn
                flush(bucket_ref)
    # the sources' executions have ended: their helper actors are requested
    _await_data_actors()

    if not per_block:
        return rd.from_arrow(_no_rows(empty_like))

    # tree fan-in: a 100-TB input yields ~4e5 map tasks, and a single
    # remote call with 4e5 ObjectRef args is not a reasonable task spec —
    # pre-concatenate each bucket's slices in chunks of FANIN so every
    # task takes a bounded argument list (a reduce task at most FANIN per
    # bucket of its group)
    FANIN = 256

    def gather(b: int):
        slices = [slots[b] for slots in per_block]
        while len(slices) > FANIN:
            slices = [
                _concat_slices.remote(*slices[i: i + FANIN])
                for i in range(0, len(slices), FANIN)
            ]
        return slices

    # one reduce task per contiguous bucket range: a task's fixed cost is
    # paid per CPU (or per _MAP_BYTES of input), not per bucket
    n_cpus = int(ray.cluster_resources().get("CPU", 1))
    n_groups = min(n_buckets, max(n_cpus, -(-input_bytes // _MAP_BYTES)))

    def reduce_group(buckets: list[int]):
        per_bucket = [gather(b) for b in buckets]
        return _reduce_slices.remote(
            reduce_ref, not drop_empty, [len(s) for s in per_bucket],
            *[r for s in per_bucket for r in s],
        )

    groups = bucket_groups(dict.fromkeys(range(n_buckets), 1), n_groups)
    tables, rows = zip(*[reduce_group(g) for g in groups])
    tables = list(tables)
    _wait_all(tables)
    if drop_empty:
        tables = [t for t, n in zip(tables, ray.get(list(rows))) if n] or tables[:1]
    # refs stay in the object store; the Dataset consumes them lazily
    return rd.from_arrow_refs(tables)


def _no_rows(ds) -> pa.Table:
    """`ds`'s columns, minus `__bucket`, with no rows. A row filter that
    kept no row leaves only untyped blocks, and Dataset.schema() is None:
    the columns are then those of the filter's input, where its plan
    knows them without running (a from_* or read input)."""
    from ray.data._internal.logical.operators.map_operator import Filter

    schema = ds.schema()
    op = ds._logical_plan.dag
    while schema is None and isinstance(op, Filter):
        op = op.input_dependencies[0]
        schema = op.infer_schema()
    types = _pa_types(schema)
    types.pop("__bucket", None)
    return pa.table({n: pa.nulls(0, t) for n, t in types.items()})


def _concat(tables: list) -> pa.Table:
    try:
        return pa.concat_tables(tables)
    except pa.ArrowInvalid:
        # blocks whose schemas differ by all-null columns (a pandas block
        # types an all-None column as null) or by a numeric width: unify
        # them, as Ray's own block concat does
        return pa.concat_tables(tables, promote_options="permissive")


def _strip_meta(t: pa.Table) -> pa.Table:
    # pandas-origin schema metadata is an unhashable dict; Ray's
    # schema-dedup then logs 'Failed to hash the schemas' per reduce
    # task — strip it (metadata carries no data) for quiet, hashable
    # schemas on every table the exchange returns
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def _bucket_table(slices) -> pa.Table | None:
    """A bucket's slices as one table: the rows of the non-empty ones, or
    the first typed slice when all are empty. None when no slice is typed
    (zero columns: Ray Data turns an empty block into an untyped one when
    a map skips it), since no reducer could type that bucket."""
    typed = [t for t in slices if t.num_columns]
    tables = [t for t in typed if t.num_rows] or typed[:1]
    if not tables:
        return None
    return tables[0] if len(tables) == 1 else _concat(tables)


@ray.remote
def _split_blocks(n_buckets: int, bucket_fn, *blocks):
    from ray.data.block import BlockAccessor

    # Ray's own pandas conversion: no index column, all-None columns null
    tables = [t if isinstance(t, pa.Table) else BlockAccessor.for_block(t).to_arrow() for t in blocks]
    tables = [t for t in tables if t.num_columns] or tables[:1]
    if bucket_fn is not None and tables[0].num_columns:
        tables = [bucket_fn(t) for t in tables]
    nonempty = [t for t in tables if t.num_rows]
    if not nonempty:
        return tuple(tables[0] for _ in range(n_buckets)) if n_buckets > 1 else tables[0]
    table = nonempty[0] if len(nonempty) == 1 else _concat(nonempty)
    buckets = table["__bucket"].to_numpy(zero_copy_only=False)
    order = np.argsort(buckets, kind="stable")
    table = table.take(pa.array(order))
    sorted_buckets = buckets[order]
    # one take + zero-copy slices per bucket (vs n_buckets filter scans)
    edges = np.searchsorted(sorted_buckets, np.arange(n_buckets + 1))
    out = [table.slice(edges[b], edges[b + 1] - edges[b]) for b in range(n_buckets)]
    return tuple(out) if n_buckets > 1 else out[0]


@ray.remote
def _concat_slices(*slices):
    """One fan-in level: a bucket's slices as one table."""
    t = _bucket_table(slices)
    return slices[0] if t is None else _strip_meta(t)


@ray.remote(num_returns=2)
def _reduce_slices(reduce_fn, keep_empty: bool, sizes: list[int], *slices):
    """reduce_fn over each bucket of a group, whose slices come in bucket
    order (`sizes` of them per bucket); returns (table, rows): the
    outputs concatenated in bucket order. Empty buckets are reduced too,
    so an empty output carries the reducer's schema rather than the map
    side's; without keep_empty only the non-empty outputs are kept (the
    first one when all are empty). A bucket with no typed slice is
    skipped, and the group is untyped when all are."""
    outs = []
    for end, n in zip(np.cumsum(sizes), sizes):
        t = _bucket_table(slices[end - n: end])
        if t is not None:
            outs.append(_strip_meta(reduce_fn(t)))
    if not keep_empty:
        outs = [t for t in outs if t.num_rows] or outs[:1]
    typed = [t for t in outs if t.num_columns]
    if not typed:
        return (outs or slices)[0], 0
    out = typed[0] if len(typed) == 1 else _concat(typed)
    return out, out.num_rows
