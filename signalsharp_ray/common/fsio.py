"""Filesystem-agnostic path handling for tier roots.

Every pipeline root may be a plain local path, a pyarrow-native URI
(s3://, gs://, hdfs://, file://), or any fsspec scheme (memory://,
local://) — on a real multi-node cluster the tier roots live on object
storage, so nothing in the engine may assume `glob`/`os.path` semantics.

Design notes for remote workers: helpers here take and return PLAIN
STRINGS (the original URI form), and tasks re-resolve the filesystem from
the string inside the worker process. Passing a pickled filesystem object
across tasks is avoided deliberately — an fsspec memory:// instance, for
example, pickles fine but silently loses its contents across processes.
Resolution is cheap (a LocalFileSystem construction, or one client build
per task for object stores).
"""

from __future__ import annotations

import functools
import posixpath

import pyarrow as pa
import pyarrow.fs as pafs


def is_uri(path: str) -> bool:
    return "://" in str(path)


def resolve_fs(root: str) -> tuple[pafs.FileSystem, str]:
    """(filesystem, fs-relative path) for a plain path or URI.

    pyarrow-native schemes resolve via FileSystem.from_uri; anything it
    rejects (memory://, cached://, ...) falls back to fsspec wrapped in a
    PyFileSystem handler, so every fsspec scheme works transparently."""
    root = str(root)
    if not is_uri(root):
        return pafs.LocalFileSystem(), root
    try:
        return pafs.FileSystem.from_uri(root)
    except (pa.ArrowInvalid, ValueError):
        import fsspec

        fs, path = fsspec.core.url_to_fs(root)
        return pafs.PyFileSystem(pafs.FSSpecHandler(fs)), path


def join(base: str, *parts: str) -> str:
    """Join path segments with '/' regardless of scheme (URIs and hive
    layouts are always '/'-separated; posixpath also matches local paths
    on this platform)."""
    return posixpath.join(str(base).rstrip("/"), *parts)


def file_type(fs: pafs.FileSystem, path: str) -> pafs.FileType:
    return fs.get_file_info(path).type


def exists(fs: pafs.FileSystem, path: str) -> bool:
    return file_type(fs, path) != pafs.FileType.NotFound


def is_dir(fs: pafs.FileSystem, path: str) -> bool:
    return file_type(fs, path) == pafs.FileType.Directory


def makedirs(fs: pafs.FileSystem, path: str) -> None:
    fs.create_dir(path, recursive=True)


def rmtree(fs: pafs.FileSystem, path: str) -> None:
    if is_dir(fs, path):
        fs.delete_dir(path)


def list_partition_dirs(root: str, prefix: str) -> list[str]:
    """Sorted hive partition directories (`<prefix>...`) directly under
    `root`, returned in the SAME form as `root` (URI stays URI) so remote
    tasks can re-resolve them. Replaces driver-side glob.glob."""
    fs, path = resolve_fs(root)
    sel = pafs.FileSelector(path, allow_not_found=True)
    names = sorted(
        info.base_name
        for info in fs.get_file_info(sel)
        if info.type == pafs.FileType.Directory
        and info.base_name.startswith(prefix)
    )
    return [join(root, n) for n in names]


def read_parquet_dir(path_or_uri: str):
    """All parquet under a directory (any scheme) as a pandas DataFrame.
    Resolves the filesystem in-process — safe to call inside Ray tasks."""
    import pyarrow.parquet as pq

    fs, path = resolve_fs(path_or_uri)
    return pq.read_table(path, filesystem=fs).to_pandas()


def read_bucket(stage_dir: str, bucket: int) -> pa.Table:
    """One hive bucket of a stage as an Arrow table, schema metadata kept
    (the partition column lives in the directory name, not in the files).
    The directory is listed once and each file read as it is, with no
    dataset discovery: its files, in name order, skipping names that start
    with '.' or '_' as a dataset read does. A missing directory raises
    FileNotFoundError."""
    import pyarrow.parquet as pq

    fs, path = resolve_fs(join(stage_dir, f"series_bucket={bucket}"))
    files = sorted(info.path for info in fs.get_file_info(pafs.FileSelector(path))
                   if info.type == pafs.FileType.File and not info.base_name.startswith((".", "_")))
    tables = []
    for f in files:
        with fs.open_input_file(f) as src:
            tables.append(pq.ParquetFile(src).read())
    return tables[0] if len(tables) == 1 else pa.concat_tables(tables)


@functools.lru_cache(maxsize=64)  # one entry per output schema
def _pandas_metadata(schema: pa.Schema) -> dict:
    frame_schema = schema.append(pa.field("series_bucket", pa.int64()))
    frame = frame_schema.empty_table().to_pandas()
    return pa.Table.from_pandas(frame, schema=frame_schema, preserve_index=False).schema.metadata


def with_pandas_metadata(table: pa.Table) -> pa.Table:
    """`table` with the pandas schema metadata write_bucket records for a
    DataFrame of the same columns (which carries series_bucket): built
    Arrow tables and frames then write byte-identical file schemas."""
    return table.replace_schema_metadata(_pandas_metadata(table.schema.remove_metadata()))


def write_bucket(data, out_dir: str, bucket: int) -> None:
    """Write one bucket's rows, a pandas DataFrame or an Arrow table, to
    `<out_dir>/series_bucket=<bucket>/part-0.parquet`; no rows write
    nothing. That is the layout
    Dataset.write_parquet(partition_cols=["series_bucket"]) produces, with
    the partition column kept out of the file. A frame gets the column
    before its Arrow conversion only so the pandas schema metadata matches
    what a Dataset write records (the frame is modified). The fixed file
    name makes a retried task overwrite its own file."""
    import pyarrow.parquet as pq

    if not len(data):
        return
    if not isinstance(data, pa.Table):
        data["series_bucket"] = bucket
        data = pa.Table.from_pandas(data, preserve_index=False).drop_columns(["series_bucket"])
    fs, path = resolve_fs(join(out_dir, f"series_bucket={bucket}"))
    makedirs(fs, path)
    pq.write_table(data, join(path, "part-0.parquet"), filesystem=fs)


def read_text(fs: pafs.FileSystem, path: str) -> str:
    with fs.open_input_stream(path) as f:
        return f.read().decode()


def write_text_atomic(fs: pafs.FileSystem, path: str, data: str, tmp_suffix: str) -> None:
    """Atomic-where-possible small-file write. Local filesystems get the
    classic tmp + rename; object stores PUT directly (a single-object PUT
    is already atomic there, and they have no rename)."""
    payload = data.encode()
    if isinstance(fs, pafs.LocalFileSystem):
        tmp = f"{path}{tmp_suffix}"
        with fs.open_output_stream(tmp) as f:
            f.write(payload)
        import os

        os.replace(tmp, path)
    else:
        with fs.open_output_stream(path) as f:
            f.write(payload)
