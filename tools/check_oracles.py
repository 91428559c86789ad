"""Driver-mimic harness: run every queries() entry at a given sf dir, and for
entries with an oracle_sql() compare row count + schema + order-insensitive
values against DuckDB. Run before the real driver does.

Each line ends with a short digest of the entry's output (its sorted
columns, their dtypes and its normalized, sorted rows), so a `diff` of two
sweeps also covers the rows-only entries.

Usage: PYTHONPATH=. python tools/check_oracles.py [sf_dir] [name ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype(np.int64)
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def digest(df: pd.DataFrame) -> str:
    """12 hex digits over the sorted column names, their dtypes and the
    normalized rows; rows that do not sort (list or array cells) are
    sorted by their CSV text instead."""
    cols = sorted(df.columns, key=str)
    h = hashlib.sha1(repr([(str(c), str(df[c].dtype)) for c in cols]).encode())
    try:
        rows = normalize(df).to_csv(index=False)
    except (TypeError, ValueError):
        lines = df[cols].to_csv(index=False).splitlines()
        rows = "\n".join(lines[:1] + sorted(lines[1:]))
    h.update(rows.encode())
    return h.hexdigest()[:12]


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> str:
    a, b = normalize(ray_df), normalize(sql_df)
    if list(a.columns) != list(b.columns):
        return f"SCHEMA MISMATCH ray={list(a.columns)} sql={list(b.columns)}"
    if len(a) != len(b):
        return f"ROWCOUNT MISMATCH ray={len(a)} sql={len(b)}"
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, rtol=0, atol=1e-9)
    except AssertionError as e:
        return "VALUE MISMATCH: " + str(e).splitlines()[-1][:200]
    return "OK"


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=8,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )

    # this checkout's registry, whatever PYTHONPATH holds
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events documents embeddings"
    ).split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            ray_df = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"{name:24s} RAY ERROR: {type(e).__name__}: {str(e)[:160]}")
            failures += 1
            continue
        dt = time.time() - t0
        if name in oracles:
            try:
                sql_df = con.execute(oracles[name]).fetchdf()
            except Exception as e:
                print(f"{name:24s} SQL ERROR: {str(e)[:160]}")
                failures += 1
                continue
            verdict = compare(name, ray_df, sql_df)
        else:
            verdict = f"rows-only ({len(ray_df)} rows)"
        status = verdict if verdict.startswith(("OK", "rows-only")) else "FAIL " + verdict
        if status.startswith("FAIL"):
            failures += 1
        print(f"{name:24s} {dt:6.1f}s  {status}  [{digest(ray_df)}]")

    print(f"\n{failures} failures")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
