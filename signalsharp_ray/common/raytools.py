"""Small Ray helpers shared by stages.

The library has one hash shuffle, `hash_exchange`: every grouped
operator (hash_bucket_aggregate, bucketed_map_groups, bucketed_cogroup,
bucketed_join, the Dataset-form rollup tiers, the incremental stores'
apply) puts its rows in a
`__bucket` by its own hash and hands a per-bucket reducer to it. The
grouped helpers compute the bucket inside the exchange's split tasks,
with no Ray Data map of their own. The exchange runs the reducer on EVERY
bucket, empty ones included, so a reducer must accept an empty table and
return an empty table of its usual schema. The grouped helpers then drop
the empty buckets' blocks from their results (a downstream map_batches
would strip their schema), and the pandas helpers never call their
kernels on an empty bucket.

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
import ray


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
    multi-node cluster: the /tmp default raises on a cluster with more
    than one alive node (an explicit root is trusted to be shared).
    Directories are left for the OS tmp reaper; callers
    that loop can pass an explicit root and clean it themselves.
    """
    import os
    import uuid

    import ray.data as rd

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
    one node. This helper instead exchanges rows on hash(keys) % n_buckets
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
    bcols = bucket_cols or keys
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

    def add_bucket(batch: pa.Table) -> pa.Table:
        return with_key_bucket(batch, bcols, n_buckets)

    return _exchange([(ds, add_bucket)], n_buckets, agg_bucket, empty_like=ds, drop_empty=True)


def with_key_bucket(batch: pa.Table, cols: list[str], n_buckets: int) -> pa.Table:
    """`batch` with `__bucket` appended: a hash of the `cols` values mod
    n_buckets (integer columns mix their int64 bits, others a pandas hash),
    so every row of one key lands in one bucket. Parquet/pandas-origin
    schema metadata is an unhashable dict: Ray's schema dedup then warns
    'Failed to hash the schemas', so it is dropped at the exchange edge."""
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for k in cols:
        col = batch[k].to_numpy(zero_copy_only=False)
        if np.issubdtype(col.dtype, np.integer):
            h = h * np.uint64(1000003) ^ col.view(np.uint64)
        else:
            h = h * np.uint64(1000003) + pd.util.hash_array(
                np.asarray(col, dtype=object) if col.dtype == object else col,
                categorize=False,
            )
    b = (h % np.uint64(n_buckets)).astype(np.int64)
    return batch.replace_schema_metadata(None).append_column("__bucket", pa.array(b))


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


def _pandas_bucket_exchange(sources, n_buckets: int, kernel, empty_like):
    """_exchange `sources` (whose bucket_fns add `__bucket`) and apply the
    pandas `kernel` to each non-empty bucket frame.

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

    return _exchange(sources, n_buckets, reduce, empty_like=empty_like, drop_empty=True)


def key_buckets(frame: pd.DataFrame, key_cols: list[str], n_buckets: int) -> np.ndarray:
    """Bucket id per row: a pandas hash of the key columns mod n_buckets
    (the ids the incremental stores persist as bucket=<B> paths)."""
    h = np.zeros(len(frame), dtype=np.uint64)
    for k in key_cols:
        col = frame[k].to_numpy()
        h = h * np.uint64(1000003) + pd.util.hash_array(
            np.asarray(col, dtype=object) if col.dtype == object else col,
            categorize=False,
        )
    return (h % np.uint64(n_buckets)).astype(np.int64)


def bucketed_map_groups(
    ds,
    key_cols: list[str],
    fn,
    n_buckets: int | None = None,
    whole_bucket_fn=None,
):
    """groupby(key).map_groups(fn) with BOUNDED Ray per-group overhead.

    Ray's map_groups pays interpreter + block overhead per group; with
    millions of (host, url) series that dominates wall time. This
    exchanges rows on hash(key) % n_buckets instead and applies `fn` per
    key-group INSIDE the bucket kernel via pandas groupby — same
    whole-group-in-one-call contract, Ray overhead proportional to
    n_buckets only. fn takes and returns a pandas DataFrame.

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

    def add_bucket(prep):
        def bucketed(batch: pa.Table) -> pa.Table:
            if prep is not None:
                batch = prep(batch)
            # bucket in Arrow: a pandas round trip of the whole batch would
            # turn int columns with nulls into float64 in some blocks
            # only, and the exchange concatenates a bucket's blocks
            buckets = key_buckets(batch.select(key_cols).to_pandas(), key_cols, n_buckets)
            return batch.replace_schema_metadata(None).append_column(
                "__bucket", pa.array(buckets)
            )

        return bucketed

    def per_bucket(df: pd.DataFrame) -> pd.DataFrame:
        if whole_bucket_fn is not None:
            return whole_bucket_fn(df)
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

    return _pandas_bucket_exchange(
        [(src, add_bucket(prep)) for src, prep in sources], n_buckets, per_bucket, empty_like
    )


def bucketed_cogroup(left_ds, right_ds, key_cols: list[str], fn):
    """Both sides through ONE bucketed exchange on key_cols: every row is
    tagged with its side (`__side` = "l" / "r") and aligned to one schema,
    the other side's columns as TYPED nulls (so datetime/int columns keep
    their types), and fn(df) runs once per key group of both sides' rows.

    Each side's schema comes from its first typed block
    (_schema_and_bundles), and the rest of the side streams into the
    exchange. Dataset.schema() would run a limit(1) probe that cancels the
    map tasks it started, which has aborted the calling process under Ray
    2.49."""
    lschema, lbundles = _schema_and_bundles(left_ds)
    rschema, rbundles = _schema_and_bundles(right_ds)
    types: dict = {}
    for side_types in (_pa_types(lschema), _pa_types(rschema)):
        for n, t in side_types.items():
            types.setdefault(n, t)
    all_names = list(types)

    def tag(side):
        def tagged(t: pa.Table) -> pa.Table:
            for name in all_names:
                if name not in t.column_names:
                    t = t.append_column(name, pa.nulls(t.num_rows, types[name]))
            t = t.select(all_names)
            return t.append_column("__side", pa.array([side] * t.num_rows))

        return tagged

    return _map_groups_exchange(
        [(lbundles, tag("l")), (rbundles, tag("r"))], key_cols, fn, None, left_ds
    )


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
    aligned to one Arrow schema (typed nulls for the other side's columns,
    one widened type for a column the sides type differently) and hash
    bucketed on the key columns; each bucket is pandas-merged (vectorized
    C join inside each kernel; Ray overhead proportional to n_buckets).
    Neither side is collected on the driver or materialized whole, so both
    may be arbitrarily large. Key columns must be hashable scalars.
    """
    if n_buckets is None:
        n_buckets = default_buckets()

    # both sides start streaming here: their first typed blocks' schemas
    # align them, and the exchange consumes the rest of each stream
    lschema, lbundles = _schema_and_bundles(left_ds)
    rschema, rbundles = _schema_and_bundles(right_ds)
    ltypes, rtypes = _pa_types(lschema), _pa_types(rschema)
    # a side without a typed block has no rows: give it the other's keys
    ltypes = ltypes or {k: rtypes.get(k, pa.null()) for k in on}
    rtypes = rtypes or {k: ltypes[k] for k in on}
    lcols, rcols = list(ltypes), list(rtypes)
    all_types = dict(ltypes)
    widened = set()
    for n, t in rtypes.items():
        if n in all_types and all_types[n] != t:
            # one column, two side types (int64 vs double): widen it so
            # both sides' blocks share a schema; _restore narrows per side
            try:
                all_types[n] = pa.unify_schemas(
                    [pa.schema([(n, all_types[n])]), pa.schema([(n, t)])],
                    promote_options="permissive",
                ).field(n).type
                widened.add(n)
            except (pa.ArrowInvalid, pa.ArrowTypeError):
                pass
        all_types.setdefault(n, t)

    # hash each key under ONE unified dtype: a float64 block and an int64
    # block carrying the same values must land in the same bucket
    key_is_int = {
        k: pa.types.is_integer(ltypes[k]) and pa.types.is_integer(rtypes[k])
        for k in on
    }

    def tag(side):
        # tag and bucket in Arrow (inside the exchange's split tasks): a
        # pandas round trip here would turn int columns with nulls into
        # float64 in some blocks only, and the exchange concatenates both
        # sides' blocks per bucket
        def fn(t: pa.Table) -> pa.Table:
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
            keys = pa.table({k: cols[k] for k in on}).to_pandas()
            for k in on:
                if key_is_int[k] and keys[k].dtype != np.int64 and keys[k].dtype != object:
                    keys[k] = keys[k].astype(np.int64)
            cols["__side"] = pa.array([side] * t.num_rows, pa.string())
            cols["__bucket"] = pa.array(key_buckets(keys, on, n_buckets))
            return pa.table(cols)

        return fn

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

    return _pandas_bucket_exchange(
        [(lbundles, tag("l")), (rbundles, tag("r"))], n_buckets, merge_bucket, left_ds
    )


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


def hash_exchange(
    ds,
    n_buckets: int,
    reduce_fn,
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

    Map tasks are sized by BYTES (_MAP_BYTES per split group, capped
    at max_blocks_per_map tiny blocks), keeping per-task memory bounded at
    100-TB inputs while bounding the shuffle object count at
    ceil(total/_MAP_BYTES) x n_buckets. Driver refs to consumed input blocks
    are dropped as each group is submitted, so upstream blocks become
    reclaimable the moment their split task completes.

    This is the brief's 'raw Ray tasks as a last resort' case: the Dataset
    API cannot express a hash exchange without its sort machinery.

    partial_fn: OPT-IN associative pre-reduce that overlaps the reduce
    barrier with the map tail. When given, every `partial_every` map
    groups each bucket's accumulated slices are folded by a
    _fold_slices task SUBMITTED DURING the map loop (it runs as soon as
    its split slices land — while later maps are still producing), and
    the final reduce sees pre-shrunk partials instead of every raw
    slice. Contract: partial_fn must be SCHEMA-PRESERVING (same columns,
    same order, `__bucket` retained) and associative with reduce_fn —
    reduce_fn(concat(partial_fn(A), partial_fn(B), C)) ==
    reduce_fn(concat(A, B, C)) — which holds for dedup/min/max/sum-style
    combiners (the flagship's first-per-key dedup). Reduce-side compute
    and memory then scale with the DISTINCT keys per bucket rather than
    the raw exchange rows, and split slices become reclaimable as soon as
    their partial folds them instead of living until the final reduce.
    """
    return _exchange(
        [(ds, None)], n_buckets, reduce_fn, max_blocks_per_map, partial_fn,
        partial_every, empty_like=ds,
    )


def _exchange(
    sources,
    n_buckets: int,
    reduce_fn,
    max_blocks_per_map: int = 32,
    partial_fn=None,
    partial_every: int = 8,
    empty_like=None,
    drop_empty: bool = False,
):
    """hash_exchange over `sources`, a list of (Dataset or iterator of its
    ref bundles, bucket_fn): bucket_fn (None: the blocks already carry
    `__bucket`) maps each typed input table to the table to split, inside
    the split task. The sources are consumed under coarse_reads, and then
    Ray Data's helper actors are waited for (_await_data_actors). Returns a
    Dataset with one block per reduce task (a contiguous bucket group, see
    hash_exchange); with drop_empty a group keeps only its non-empty
    buckets' outputs, and only the non-empty blocks are returned (the
    first one when all are empty). When no source yields a block, the
    result is `empty_like`'s columns (minus `__bucket`) with no rows."""
    import ray.data as rd

    def put(fn):
        # one object per exchange instead of one function export per call
        return None if fn is None else ray.put(fn)

    reduce_ref, partial_ref = put(reduce_fn), put(partial_fn)
    per_block: list = []
    partials: list = [[] for _ in range(n_buckets)]
    pending: list = [[] for _ in range(n_buckets)]
    group: list = []
    group_bytes = 0

    def flush(bucket_ref):
        nonlocal group, group_bytes
        refs = _split_blocks.options(num_returns=n_buckets).remote(
            n_buckets, bucket_ref, *group
        )
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
                    partials[b].append(_fold_slices.remote(partial_ref, *pending[b]))
                    pending[b].clear()
        # drop driver refs: the pending split task keeps the blocks alive;
        # once it completes they are reclaimable (the streaming property)
        group = []
        group_bytes = 0

    input_bytes = 0
    with coarse_reads():
        for src, bucket_fn in sources:
            bucket_ref = put(bucket_fn)
            bundles = src.iter_internal_ref_bundles() if hasattr(src, "iter_internal_ref_bundles") else src
            for bundle in bundles:
                for block_ref, meta in bundle.blocks:
                    group.append(block_ref)
                    group_bytes += meta.size_bytes or 0
                    input_bytes += meta.size_bytes or 0
                    if group_bytes >= _MAP_BYTES or len(group) >= max_blocks_per_map:
                        flush(bucket_ref)
            if group:
                # a group never mixes sources: each has its own bucket_fn
                flush(bucket_ref)
    # the sources' executions have ended: their helper actors are requested
    _await_data_actors()

    if not per_block and not any(partials) and not any(pending):
        schema = empty_like.schema()
        empty = pa.table({n: pa.nulls(0, t) for n, t in zip(schema.names, schema.types)})
        if "__bucket" in empty.column_names:
            empty = empty.drop_columns(["__bucket"])
        return rd.from_arrow(empty)

    # tree fan-in: a 100-TB input yields ~4e5 map tasks, and a single
    # remote call with 4e5 ObjectRef args is not a reasonable task spec —
    # pre-concatenate each bucket's slices in chunks of FANIN so every
    # task takes a bounded argument list (a reduce task at most FANIN per
    # bucket of its group)
    FANIN = 256

    def gather(b: int):
        if partial_fn is None:
            slices = [slots[b] for slots in per_block]
            fold_ref = None
        else:
            # intermediate tree levels keep folding with partial_fn, so
            # every task's output stays distinct-keys-sized
            slices = partials[b] + pending[b]
            fold_ref = partial_ref
        while len(slices) > FANIN:
            slices = [
                _fold_slices.remote(fold_ref, *slices[i: i + FANIN])
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
def _fold_slices(fn, *slices):
    """Concatenate a bucket's slices (a fan-in level), folding them with
    the partial_fn `fn` when one is given."""
    t = _bucket_table(slices)
    if t is None:
        return slices[0]
    return _strip_meta(t if fn is None or not t.num_rows else fn(t))


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
