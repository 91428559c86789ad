"""key_buckets is the library's one key bucketing: every keyed exchange
(hash_bucket_aggregate, bucketed_map_groups, bucketed_cogroup,
bucketed_join, the Dataset-form rollup) and the incremental tier store
bucket rows with it, by key value, whatever type a block holds the key in.
A second hash, or one that follows a block's pandas dtype, sends one key to
two buckets, and a grouped kernel then sees one key as two groups."""

import ast
import pathlib

import pandas as pd
import pyarrow as pa
import pytest

from signalsharp_ray.common.raytools import (
    bucketed_cogroup,
    bucketed_join,
    bucketed_map_groups,
    hash_bucket_aggregate,
    key_buckets,
)

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "signalsharp_ray"


def test_no_module_buckets_keys_on_its_own():
    """No `with_key_bucket`, and no function other than key_buckets that
    takes a pandas hash_array of keys modulo a bucket count."""

    def names(node) -> set:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
        }

    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.relative_to(PACKAGE)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef)) and (
                getattr(node, "id", None) or getattr(node, "attr", None)
                or getattr(node, "name", None)
            ) == "with_key_bucket":
                sites.append(where)
            if not isinstance(node, ast.FunctionDef) or node.name == "key_buckets":
                continue
            hashes = "hash_array" in names(node)
            mods = any(
                isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod)
                and any("bucket" in x for x in names(n.right))
                for n in ast.walk(node)
            )
            if hashes and mods:
                sites.append(where)
    assert sites == []


def test_null_free_key_ids_do_not_drift():
    """The incremental tier store persists these ids as bucket=<B> paths."""
    t = pa.table(
        {
            "s": ["click", "view", "purchase", "a", ""],
            "i": pa.array([0, 5, -3, 2**40, -(2**62)], pa.int64()),
        }
    )
    assert key_buckets(t, ["s"], 32).tolist() == [9, 29, 22, 16, 6]
    assert key_buckets(t, ["i"], 32).tolist() == [0, 28, 15, 24, 27]
    assert key_buckets(t, ["s", "i"], 32).tolist() == [27, 19, 17, 8, 13]
    assert key_buckets(t, ["s"], 128).tolist() == [105, 93, 86, 80, 70]
    assert key_buckets(t, ["i"], 128).tolist() == [0, 92, 79, 120, 91]


def test_a_key_hashes_by_value_not_by_column_type():
    ints = [5, None, -3, 6]
    want = key_buckets(pa.table({"k": pa.array(ints, pa.int64())}), ["k"], 16)
    for typ in (pa.int8(), pa.int32(), pa.uint16()):
        vals = [None if v is None or (v < 0 and pa.types.is_unsigned_integer(typ)) else v
                for v in ints]
        got = key_buckets(pa.table({"k": pa.array(vals, typ)}), ["k"], 16)
        assert [g for g, v in zip(got, vals) if v is not None] == [
            w for w, v in zip(want, vals) if v is not None
        ]
    # a null has one hash in every column type
    null = {key_buckets(pa.table({"k": pa.nulls(1, typ)}), ["k"], 16)[0]
            for typ in (pa.int64(), pa.float64(), pa.string(), pa.timestamp("us"))}
    assert null == {want[1]}
    words = ["a", None, "b", "a"]
    by_type = [
        key_buckets(pa.table({"k": arr}), ["k"], 16).tolist()
        for arr in (pa.array(words), pa.array(words, pa.large_string()),
                    pa.array(words).dictionary_encode())
    ]
    assert by_type[0] == by_type[1] == by_type[2]
    floats = key_buckets(pa.table({"k": pa.array([0.0, -0.0, float("nan"), None])}), ["k"], 16)
    assert floats[0] == floats[1] and floats[2] == floats[3]
    # a float holding an integer is that integer: a pandas block holds an
    # int column with nulls as float64
    as_floats = key_buckets(pa.table({"k": pa.array([5.0, None, -3.0, 6.0])}), ["k"], 16)
    assert as_floats.tolist() == want.tolist()


# two int64 blocks, a null in the first only: pandas makes that block
# float64 and the other int64
_BLOCKS = [
    pa.table({"k": pa.array([5, None], pa.int64()), "v": pa.array([1, 2], pa.int64())}),
    pa.table({"k": pa.array([5, 6], pa.int64()), "v": pa.array([3, 4], pa.int64())}),
]
_WANT = [(None, 1, 2), (5, 2, 4), (6, 1, 4)]


def _groups(df: pd.DataFrame) -> list:
    rows = [(None if pd.isna(k) else int(k), int(n), int(s)) for k, n, s in zip(df["k"], df["n"], df["s"])]
    return sorted(rows, key=lambda r: (r[0] is not None, r[0] or 0))


def _pandas_groups() -> list:
    df = pa.concat_tables(_BLOCKS).to_pandas()
    g = df.groupby("k", dropna=False).agg(n=("v", "size"), s=("v", "sum"))
    return _groups(g.reset_index())


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_buckets", [16, 128])
def test_map_groups_over_an_int_key_with_nulls_in_some_blocks(n_buckets):
    import ray.data as rd

    def summary(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]], "n": [len(g)], "s": [int(g["v"].sum())]})

    got = bucketed_map_groups(rd.from_arrow(_BLOCKS), ["k"], summary, n_buckets=n_buckets)
    assert _groups(got.to_pandas()) == _WANT == _pandas_groups()
    ray_groups = rd.from_arrow(_BLOCKS).groupby("k").map_groups(summary, batch_format="pandas")
    assert _groups(ray_groups.to_pandas()) == _WANT


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("n_buckets", [16, 128])
def test_aggregate_over_an_int_key_with_nulls_in_some_blocks(n_buckets):
    import ray.data as rd

    got = hash_bucket_aggregate(
        rd.from_arrow(_BLOCKS), ["k"], [("v", "sum")], n_buckets=n_buckets, count_alias="n"
    ).to_pandas()
    # count_alias counts rows, a null key's too, as SQL's COUNT(*) does
    assert _groups(got.rename(columns={"v_sum": "s"})) == _WANT == _pandas_groups()


@pytest.mark.usefixtures("ray_session")
def test_cogroup_over_an_int_key_with_nulls_in_some_blocks():
    import ray.data as rd

    def summary(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]], "n": [len(g)], "s": [int(g["v"].sum())]})

    right = pa.table({"k": pa.array([6], pa.int64()), "v": pa.array([0], pa.int64())})
    got = bucketed_cogroup(rd.from_arrow(_BLOCKS), rd.from_arrow(right), ["k"], summary)
    assert _groups(got.to_pandas()) == [(None, 1, 2), (5, 2, 4), (6, 2, 4)]


@pytest.mark.usefixtures("ray_session")
def test_helpers_over_an_int_key_that_a_pandas_block_holds_as_float():
    """A pandas block holds an int key with a null as float64, its other
    blocks as int64: each key is still one group, and the join finds it."""
    import numpy as np
    import ray.data as rd

    def summary(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]], "n": [len(g)], "s": [int(g["v"].sum())]})

    def blocks():
        return rd.from_pandas([pd.DataFrame({"k": [5, 6], "v": [1, 4]}),
                               pd.DataFrame({"k": [5.0, np.nan], "v": [3, 2]})])

    want = [(None, 1, 2), (5, 2, 4), (6, 1, 4)]
    assert _groups(bucketed_map_groups(blocks(), ["k"], summary, n_buckets=128).to_pandas()) == want
    assert _groups(blocks().groupby("k").map_groups(summary, batch_format="pandas").to_pandas()) == want
    agg = hash_bucket_aggregate(blocks(), ["k"], [("v", "sum")], n_buckets=128, count_alias="n")
    assert _groups(agg.to_pandas().rename(columns={"v_sum": "s"})) == want
    right = rd.from_arrow(pa.table({"k": pa.array([5, 6], pa.int64()), "w": [10, 20]}))
    joined = bucketed_join(blocks(), right, on=["k"], n_buckets=128).to_pandas()
    assert sorted(zip(joined["v"], joined["w"])) == [(1, 10), (3, 10), (4, 20)]


@pytest.mark.usefixtures("ray_session")
def test_cogroup_buckets_an_int_side_and_a_float_side_alike():
    """The sides are aligned to one widened key type before bucketing."""
    import ray.data as rd

    def sides(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [float(g["k"].iloc[0])], "sides": ["".join(sorted(g["__side"]))]})

    left = pa.table({"k": pa.array(range(20), pa.int64())})
    right = pa.table({"k": pa.array([float(i) for i in range(20)])})
    got = bucketed_cogroup(rd.from_arrow(left), rd.from_arrow(right), ["k"], sides).to_pandas()
    assert sorted(got["k"]) == [float(i) for i in range(20)]
    assert set(got["sides"]) == {"lr"}
