"""The Dataset-form rollup (rollup_tier / cascade_tier, one hash exchange
per tier) against a single-table pyarrow group_by: the result must not
depend on how the input rows are cut into blocks, nulls and NaN included,
and an empty input must keep the tier's columns."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signalsharp_ray.stages.rollup import TIERS_US, cascade_tier, rollup_tier

T0_US = 1_704_067_200_000_000  # 2024-01-01


def _blocks(ds) -> list:
    return ray.get(ds.to_arrow_refs())


def _tier_schema(keys: pa.Schema, value_type: pa.DataType) -> pa.Schema:
    sum_type = pa.int64() if pa.types.is_integer(value_type) else value_type
    return pa.schema(list(keys) + [
        ("bucket_ts", pa.timestamp("us")), ("count", pa.int64()), ("sum", sum_type),
        ("min", value_type), ("max", value_type), ("mean", pa.float64()),
    ])


@pytest.mark.usefixtures("ray_session")
def test_empty_input_keeps_the_tier_schema():
    import ray.data as rd

    keys = pa.schema([("host", pa.string()), ("url", pa.string())])
    points = pa.table({"host": pa.array([], pa.string()), "url": pa.array([], pa.string()),
                       "ts": pa.array([], pa.timestamp("us")), "value": pa.array([], pa.float64())})
    want = _tier_schema(keys, pa.float64())
    tier_1h = _blocks(rollup_tier(rd.from_arrow(points), "1h"))
    assert tier_1h and all(b.schema.equals(want) and b.num_rows == 0 for b in tier_1h)
    empty_tier = pa.table({n: pa.array([], t) for n, t in zip(want.names, want.types)})
    tier_1d = _blocks(cascade_tier(rd.from_arrow(empty_tier), "1d"))
    assert tier_1d and all(b.schema.equals(want) and b.num_rows == 0 for b in tier_1d)


def _reference(points: pa.Table, keys: list, tier_us: int) -> pa.Table:
    """The tier from one pyarrow group_by over all points."""
    ts = pc.cast(points["ts"], pa.int64()).to_numpy()
    bucket = pa.array((ts // tier_us) * tier_us, pa.timestamp("us"))
    t = points.select(keys + ["value"]).append_column("bucket_ts", bucket)
    gk = keys + ["bucket_ts"]
    g = t.group_by(gk, use_threads=False).aggregate(
        [("value", "count"), ("value", "sum"), ("value", "min"), ("value", "max")])
    g = g.rename_columns(gk + ["count", "sum", "min", "max"])
    return g.append_column("mean", pc.divide(g["sum"], pc.cast(g["count"], pa.float64())))


def _sorted(t: pa.Table, keys: list) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in keys + ["bucket_ts"]])


def _bits(t: pa.Table) -> dict:
    """The table's values, floats as their int64 bit patterns (so NaN
    equals NaN and -0.0 differs from 0.0), nulls as None."""
    out = {}
    for name in t.column_names:
        col = t[name].combine_chunks()
        if pa.types.is_floating(col.type):
            bits = col.fill_null(0.0).to_numpy().view(np.int64).tolist()
            out[name] = [b if ok else None for b, ok in zip(bits, col.is_valid().to_pylist())]
        else:
            out[name] = col.to_pylist()
    return out


@st.composite
def _points(draw):
    n = draw(st.integers(1, 60))
    key_kind = draw(st.sampled_from(["str", "int", "both"]))
    value_kind = draw(st.sampled_from(["int64", "float64"]))
    cols = {}
    if key_kind in ("str", "both"):
        cols["host"] = pa.array(draw(st.lists(st.sampled_from(["a", "b", "ccc"]), min_size=n, max_size=n)))
    if key_kind in ("int", "both"):
        cols["series"] = pa.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), pa.int64())
    # three days, so each tier has several buckets per series
    offsets = draw(st.lists(st.integers(0, 3 * 86_400_000_000), min_size=n, max_size=n))
    cols["ts"] = pa.array(np.asarray(offsets, np.int64) + T0_US, pa.timestamp("us"))
    ints = st.integers(-1000, 1000)
    if value_kind == "int64":
        values = draw(st.lists(st.one_of(ints, st.none()), min_size=n, max_size=n))
        cols["value"] = pa.array(values, pa.int64())
    else:
        values = draw(st.lists(st.one_of(ints.map(float), st.none(), st.just(float("nan"))),
                               min_size=n, max_size=n))
        cols["value"] = pa.array(values, pa.float64(), from_pandas=False)
    cut = draw(st.integers(0, n))
    per_block = draw(st.integers(1, 4))
    return pa.table(cols), cut, per_block


@pytest.mark.usefixtures("ray_session")
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(_points())
def test_rollup_is_split_invariant_with_nulls(drawn):
    import ray.data as rd

    points, cut, per_block = drawn
    keys = [c for c in points.column_names if c not in ("ts", "value")]
    n = points.num_rows
    layouts = {
        "one": [points],
        "two": [points.slice(0, cut), points.slice(cut)],
        "many": [points.slice(i, per_block) for i in range(0, n, per_block)],
    }
    want = {t: _sorted(_reference(points, keys, TIERS_US[t]), keys) for t in ("1m", "1h", "1d")}
    for layout, tables in layouts.items():
        t1m = rollup_tier(rd.from_arrow(tables), "1m", key_cols=keys)
        t1h = cascade_tier(t1m, "1h", key_cols=keys)
        t1d = cascade_tier(t1h, "1d", key_cols=keys)
        for tier, ds in (("1m", t1m), ("1h", t1h), ("1d", t1d)):
            blocks = [b for b in _blocks(ds) if b.num_columns]
            got = _sorted(pa.concat_tables(blocks), keys)
            assert got.schema.equals(want[tier].schema), (layout, tier, got.schema)
            assert _bits(got) == _bits(want[tier]), (layout, tier, got.to_pydict(), want[tier].to_pydict())
