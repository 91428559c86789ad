"""bucketed_map_groups is the library's one grouped-kernel mechanism: it
runs on the hash exchange and keeps the contract of Ray's
groupby().map_groups(batch_format="pandas"), which no library code calls."""

import ast
import pathlib

import pandas as pd
import pyarrow as pa
import pytest

from signalsharp_ray.common.raytools import bucketed_map_groups

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "signalsharp_ray"


def test_library_calls_no_ray_map_groups():
    """Ray's map_groups runs a sort shuffle, a second mechanism next to the
    hash exchange; every grouped kernel goes through bucketed_map_groups."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_groups"
            ):
                sites.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
    assert sites == []


def _groups(df: pd.DataFrame) -> list:
    rows = [(None if pd.isna(k) else k, n, s) for k, n, s in zip(df["k"], df["n"], df["s"])]
    return sorted(rows, key=lambda r: (r[0] is not None, str(r[0])))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "keys, expected",
    [
        (pa.array(["a", None, "b", None, "a"]), [("a", 2, 6), ("b", 1, 3)]),
        (pa.array([7, None, 9, None, 7], pa.int64()), [(7, 2, 6), (9, 1, 3)]),
    ],
)
@pytest.mark.parametrize("n_buckets", [1, 2, 16])
def test_null_key_is_one_group_as_under_ray_map_groups(keys, expected, n_buckets):
    import ray.data as rd

    def summary(g: pd.DataFrame) -> pd.DataFrame:
        # reads the group's first row, as most registry kernels do
        return pd.DataFrame({"k": [g["k"].iloc[0]], "n": [len(g)], "s": [int(g["v"].sum())]})

    table = pa.table({"k": keys, "v": pa.array([1, 2, 3, 4, 5], pa.int64())})
    want = [(None, 2, 6)] + expected
    got = bucketed_map_groups(rd.from_arrow(table), ["k"], summary, n_buckets=n_buckets)
    assert _groups(got.to_pandas()) == want
    ray_groups = rd.from_arrow(table).groupby("k").map_groups(summary, batch_format="pandas")
    assert _groups(ray_groups.to_pandas()) == want
