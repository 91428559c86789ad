"""Byte identity of the segmented gap-fill + encode, of the segmented
decoders and of the one-pass cascade against per-series / pandas
references, on adversarial buckets.

The references are independent of the library's codecs: a bit-by-bit
Python writer of the Gorilla (VLDB 2015, section 4.1) and delta-of-delta
streams, fed by the per-series `gapfill_arrays`; a bit-by-bit reader of
both streams (the scalar decoders the segmented ones replaced); and the
cascade as the pandas groupby it replaced.
"""

import glob
import struct

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pyarrow as pa

from signalsharp_ray.codecs import (
    bitstream,
    decode_timestamps_dod,
    decode_values_gorilla,
    encode_timestamps_dod,
    encode_values_gorilla,
)
from signalsharp_ray.codecs.dod import decode_timestamps_dod_segments, encode_timestamps_dod_segments
from signalsharp_ray.codecs.gorilla import decode_values_gorilla_segments, encode_values_gorilla_segments
from signalsharp_ray.stages.encode import encode_sorted
from signalsharp_ray.stages.gapfill import gapfill_arrays
from signalsharp_ray.stages.rollup import (
    TIERS_US,
    SortedTier,
    cascade_partition_pandas,
    cascade_sorted,
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class _Bits:
    """MSB-first bit string, packed once at the end."""

    def __init__(self):
        self.parts = []

    def put(self, value: int, width: int) -> None:
        if width:
            self.parts.append(format(value & ((1 << width) - 1), f"0{width}b"))

    def bytes(self) -> bytes:
        s = "".join(self.parts)
        s += "0" * (-len(s) % 8)
        return int(s, 2).to_bytes(len(s) // 8, "big") if s else b""


def ref_gorilla(values) -> bytes:
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64).tolist()
    w = _Bits()
    if bits:
        w.put(bits[0], 64)
    prev_lead, prev_trail, prev_mean = 65, -1, 0  # the first nonzero xor opens a window
    for a, b in zip(bits, bits[1:]):
        x = a ^ b
        if not x:
            w.put(0, 1)
            continue
        lead = min(64 - x.bit_length(), 31)
        trail = (x & -x).bit_length() - 1
        if lead >= prev_lead and trail >= prev_trail:
            w.put(2, 2)
            w.put(x >> prev_trail, prev_mean)
        else:
            mean = 64 - lead - trail
            w.put(3, 2)
            w.put(lead, 5)
            w.put(mean, 6)
            w.put(x >> trail, mean)
            prev_lead, prev_trail, prev_mean = lead, trail, mean
    return struct.pack("<I", len(bits)) + w.bytes()


def ref_dod(timestamps) -> bytes:
    ts = [int(t) for t in timestamps]

    def zigzag(v):
        return (v << 1) ^ (v >> 63)

    def wrap(v):  # int64 arithmetic, as numpy's diff
        return (v + 2**63) % 2**64 - 2**63

    w = _Bits()
    if ts:
        w.put(ts[0], 64)
    if len(ts) > 1:
        deltas = [wrap(b - a) for a, b in zip(ts, ts[1:])]
        w.put(zigzag(deltas[0]), 64)
        for a, b in zip(deltas, deltas[1:]):
            d = wrap(b - a)
            if d == 0:
                w.put(0, 1)
            elif -63 <= d <= 64:
                w.put(2, 2)
                w.put(d + 63, 7)
            elif -255 <= d <= 256:
                w.put(6, 3)
                w.put(d + 255, 9)
            elif -2047 <= d <= 2048:
                w.put(14, 4)
                w.put(d + 2047, 12)
            else:
                w.put(15, 4)
                w.put(zigzag(d), 64)
    return struct.pack("<I", len(ts)) + w.bytes()


# -- strategies -------------------------------------------------------------

SPECIAL_BITS = [
    0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,  # quiet NaNs
    0x7FF0000000000001, 0xFFF4000000000000,  # signalling NaN payloads
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
    0x8000000000000000, 0x0000000000000000,  # -0.0, 0.0
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
]
floats = st.one_of(
    st.sampled_from(SPECIAL_BITS).map(lambda b: np.uint64(b).view(np.float64)),
    st.integers(0, 2**64 - 1).map(lambda b: np.uint64(b).view(np.float64)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 5000).map(float),
)


CANONICAL_NAN = np.float64(np.nan).view(np.uint64)


@st.composite
def value_series(draw, n):
    kind = draw(st.sampled_from(["mixed", "constant", "changing"]))
    if kind == "constant":
        return np.full(n, draw(floats))
    if kind == "changing":  # distinct values: every xor is nonzero
        return np.random.default_rng(draw(st.integers(0, 2**32))).normal(size=n) * 1e3
    return np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64)


@st.composite
def buckets(draw, tier_us, max_gap):
    """A bucket of sorted, unique per-series timestamps and their means:
    one-point series, gaps inside and beyond max_gap_buckets, long series
    (more than 192 changed values), and series at both int64 edges."""
    series = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.one_of(st.just(1), st.integers(2, 12), st.integers(194, 260)))
        # bucket steps; a None fill densifies every gap, so keep those short
        big = 90 if max_gap is not None else 4
        steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 61, big]), min_size=n - 1,
                              max_size=n - 1))
        rel = np.concatenate([[0], np.cumsum(steps, dtype=np.int64)]) * tier_us
        span = int(rel[-1]) + 2 * tier_us
        edge = draw(st.sampled_from(["low", "high", "epoch"]))
        if edge == "low":
            base = INT64_MIN + draw(st.integers(0, 3)) * tier_us
        elif edge == "high":
            base = ((INT64_MAX - span) // tier_us) * tier_us
        else:
            base = draw(st.integers(-10**6, 10**6)) * tier_us
        series.append((base + rel, draw(value_series(n))))
    return series


def _segmented(series, tier_us, method, max_gap):
    ts = np.concatenate([t for t, _ in series]).astype(np.int64)
    vals = np.concatenate([v for _, v in series])
    offsets = np.concatenate([[0], np.cumsum([t.size for t, _ in series])])
    keys = np.repeat(np.arange(len(series), dtype=np.int64), np.diff(offsets))
    return encode_sorted(keys, ts, vals, offsets, tier_us, method, max_gap)


@pytest.mark.parametrize("method", ["locf", "linear"])
@pytest.mark.parametrize("max_gap", [60, None])
@pytest.mark.parametrize("tier", ["1m", "1h"])
def test_segmented_gapfill_encode_is_per_series_bytes(method, max_gap, tier):
    tier_us = TIERS_US[tier]

    @SETTINGS
    @given(buckets(tier_us, max_gap))
    def check(series):
        got = _segmented(series, tier_us, method, max_gap)
        ts_dod = got["ts_dod"].to_pylist()
        vals = got["values_gorilla"].to_pylist()
        for i, (ts, mean) in enumerate(series):
            grid, value, _, _ = gapfill_arrays(ts, mean, tier_us, method, max_gap)
            if method == "linear":  # one NaN bit pattern, whatever the bucket-mates
                assert np.all(value[np.isnan(value)].view(np.uint64) == CANONICAL_NAN)
            assert got["n_points"][i] == grid.size
            assert got["first_ts"][i] == grid[0]
            assert got["first_value"][i].tobytes() == value[0].tobytes()
            assert ts_dod[i] == ref_dod(grid)
            assert vals[i] == ref_gorilla(value)
            assert np.array_equal(decode_timestamps_dod(ts_dod[i]), grid)
            assert decode_values_gorilla(vals[i]).tobytes() == value.tobytes()

    check()


@SETTINGS
@given(st.integers(0, 300).flatmap(value_series))
def test_single_series_encoders_match_reference(values):
    assert encode_values_gorilla(values) == ref_gorilla(values)
    ts = np.cumsum(np.arange(values.size, dtype=np.int64) % 7 * 1_000_003) + INT64_MIN
    assert encode_timestamps_dod(ts) == ref_dod(ts)


# -- segmented decoders ---------------------------------------------------------


class _BitReader:
    """MSB-first bit reader of the scalar decoders."""

    def __init__(self, data: bytes):
        self._data = data
        self._nbits = len(data) * 8
        self._pos = 0

    def read(self, nbits: int) -> int:
        if nbits == 0:
            return 0
        if self._pos + nbits > self._nbits:
            raise EOFError("bit stream exhausted")
        start_byte = self._pos >> 3
        end_byte = (self._pos + nbits + 7) >> 3
        chunk = int.from_bytes(self._data[start_byte:end_byte], "big")
        shift = (end_byte - start_byte) * 8 - (self._pos - start_byte * 8) - nbits
        self._pos += nbits
        return (chunk >> shift) & ((1 << nbits) - 1)


def _unzigzag(u: int) -> int:
    return (u >> 1) ^ -(u & 1)


def ref_decode_dod(data: bytes) -> np.ndarray:
    """The scalar DoD decoder: Python ints, so its series keep every delta
    inside int64 (the strategies below do)."""
    (n,) = struct.unpack_from("<I", data, 0)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    r = _BitReader(data[4:])
    t0 = r.read(64)
    out[0] = t0 - (1 << 64) if t0 >= (1 << 63) else t0
    if n == 1:
        return out
    delta = _unzigzag(r.read(64))
    out[1] = int(out[0]) + delta
    for i in range(2, n):
        if r.read(1) == 0:
            d = 0
        elif r.read(1) == 0:
            d = r.read(7) - 63
        elif r.read(1) == 0:
            d = r.read(9) - 255
        elif r.read(1) == 0:
            d = r.read(12) - 2047
        else:
            d = _unzigzag(r.read(64))
        delta += d
        out[i] = int(out[i - 1]) + delta
    return out


def ref_decode_gorilla(data: bytes) -> np.ndarray:
    (n,) = struct.unpack_from("<I", data, 0)
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out.view(np.float64)
    r = _BitReader(data[4:])
    prev = r.read(64)
    out[0] = prev
    lead, mean = 0, 0
    for i in range(1, n):
        if r.read(1) == 0:
            out[i] = prev
            continue
        if r.read(1) == 0:  # '10' reuse window
            x = r.read(mean) << (64 - lead - mean)
        else:  # '11' new window
            lead = r.read(5)
            mean = r.read(6) or 64
            x = r.read(mean) << (64 - lead - mean)
        prev ^= x
        out[i] = prev
    return out.view(np.float64)


@st.composite
def timestamp_series(draw, n):
    """Sorted grids and irregular or decreasing series whose deltas stay
    inside int64, from both int64 edges."""
    kind = draw(st.sampled_from(["grid", "gappy", "irregular", "huge_steps"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "grid":
        steps = np.full(n, draw(st.sampled_from([1, 60_000_000, 3_600_000_000])))
    elif kind == "gappy":
        steps = rng.choice([60, 60, 60, 120, 3600, 0, -60], size=n) * 1_000_000
    elif kind == "irregular":
        steps = rng.integers(-3000, 3000, size=n)
    else:
        steps = rng.integers(-2**40, 2**40, size=n)
    rel = np.cumsum(np.concatenate([[0], steps[1:]]).astype(np.int64))[:n]
    lo, hi = int(rel.min(initial=0)), int(rel.max(initial=0))
    base = draw(st.sampled_from([INT64_MIN - lo, INT64_MAX - hi, 0]))
    return (base + rel).astype(np.int64)


@st.composite
def decoder_value_series(draw, n):
    """value_series plus LOCF-style repeats and window resets."""
    kind = draw(st.sampled_from(["plain", "locf", "resets"]))
    if kind == "plain":
        return draw(value_series(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "locf":
        reps = draw(st.sampled_from([2, 5, 60]))
        return np.repeat(rng.normal(size=n // reps + 1) * 100, reps)[:n]
    # alternating wide and narrow xors: each wide one opens a new window
    bits = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    bits[::2] &= np.uint64(0xFF)
    return bits.view(np.float64)


segment_lengths = st.lists(st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(4, 300)),
                           min_size=0, max_size=8)


def _layouts(arr: pa.BinaryArray, cut: int):
    """The same streams as a plain, a sliced (non-zero offset), a chunked
    and a one-chunk-per-stream array."""
    junk = pa.array([b"\xff" * 9], pa.binary())
    sliced = pa.concat_arrays([junk, arr, junk])[1:1 + len(arr)]
    assert sliced.offset == 1
    return [arr, sliced, pa.chunked_array([arr[:cut], arr[cut:]], pa.binary()),
            pa.chunked_array([arr[j:j + 1] for j in range(len(arr))], pa.binary())]


def _check_segments(arr, decode, ref, want, offsets):
    streams = arr.to_pylist()
    for i, layout in enumerate(_layouts(arr, len(arr) // 2)):
        got, got_off = decode(layout)
        np.testing.assert_array_equal(got_off, offsets)
        assert got.tobytes() == want.tobytes(), i
    for i, b in enumerate(streams):
        assert ref(b).tobytes() == want[offsets[i]:offsets[i + 1]].tobytes()


@SETTINGS
@given(segment_lengths.flatmap(lambda ns: st.tuples(
    st.tuples(*[timestamp_series(n) for n in ns]),
    st.tuples(*[decoder_value_series(n) for n in ns]))))
def test_segmented_decoders_match_scalar_reference(series):
    ts_parts, value_parts = series
    offsets = np.concatenate([[0], np.cumsum([t.size for t in ts_parts], dtype=np.int64)])
    ts = np.concatenate([np.zeros(0, np.int64), *ts_parts])
    values = np.concatenate([np.zeros(0), *value_parts])
    _check_segments(encode_timestamps_dod_segments(ts, offsets), decode_timestamps_dod_segments,
                    ref_decode_dod, ts, offsets)
    _check_segments(encode_values_gorilla_segments(values, offsets),
                    decode_values_gorilla_segments, ref_decode_gorilla, values, offsets)


def test_segmented_decoders_across_groups(monkeypatch):
    """Groups of a few bytes (every stream its own group, or a few per
    group) decode exactly as one group."""
    rng = np.random.default_rng(5)
    n = rng.integers(0, 400, size=40)
    offsets = np.concatenate([[0], np.cumsum(n)])
    ts = np.cumsum(rng.integers(0, 4000, size=offsets[-1]))
    values = np.repeat(rng.normal(size=offsets[-1]), 3)[:offsets[-1]]
    arrs = [encode_timestamps_dod_segments(ts, offsets), encode_values_gorilla_segments(values, offsets)]
    decoders = [decode_timestamps_dod_segments, decode_values_gorilla_segments]
    whole = [dec(arr) for dec, arr in zip(decoders, arrs)]
    for group_bytes in (1, 64, 700):
        monkeypatch.setattr(bitstream, "GROUP_BYTES", group_bytes)
        for dec, arr, (want, want_off) in zip(decoders, arrs, whole):
            for layout in _layouts(arr, 17):
                got, got_off = dec(layout)
                np.testing.assert_array_equal(got_off, want_off)
                assert got.tobytes() == want.tobytes()


def test_segmented_decode_memory_is_bounded():
    """The one-byte-per-bit view is built per bounded group of streams:
    decoding 4 MiB of streams never holds 8x their bytes."""
    import tracemalloc

    rng = np.random.default_rng(9)
    offsets = np.arange(0, 64 * 8192 + 1, 8192)
    arr = encode_values_gorilla_segments(rng.normal(size=offsets[-1]), offsets)
    nbytes = arr.buffers()[2].size
    tracemalloc.start()
    try:
        decode_values_gorilla_segments(arr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nbytes > 4 << 20
    assert peak < 4 * nbytes


@pytest.mark.parametrize("codec", ["dod", "gorilla"])
def test_truncated_stream_raises(codec):
    """Every cut of a stream raises EOFError, alone or among whole streams;
    it is never decoded as zeros."""
    rng = np.random.default_rng(11)
    if codec == "dod":
        series = np.cumsum(rng.choice([60, 60, 61, 5000, 2**40], size=40)).astype(np.int64)
        stream = encode_timestamps_dod(series)
        decode, segments, ref = decode_timestamps_dod, decode_timestamps_dod_segments, ref_decode_dod
    else:
        series = np.repeat(rng.normal(size=20), 2)
        stream = encode_values_gorilla(series)
        decode, segments, ref = decode_values_gorilla, decode_values_gorilla_segments, ref_decode_gorilla
    whole = pa.array([stream], pa.binary())
    for cut in range(len(stream)):
        part = stream[:cut]
        if cut >= 4:
            with pytest.raises(EOFError):
                ref(part)
        with pytest.raises(EOFError):
            decode(part)
        with pytest.raises(EOFError):
            segments(pa.concat_arrays([whole, pa.array([part], pa.binary()), whole]))


def _former_decode_blocks(blocks):
    """decode_blocks as it was: a pandas frame, one scalar decode per row."""
    if isinstance(blocks, pa.Table):
        blocks = blocks.to_pandas()
    key_cols = [c for c in blocks.columns
                if c not in ("tier", "n_points", "first_ts", "first_value", "ts_dod", "values_gorilla")]
    ts_parts, val_parts, lens = [], [], []
    for row in blocks.itertuples(index=False):
        d = row._asdict()
        ts_parts.append(ref_decode_dod(d["ts_dod"]))
        val_parts.append(ref_decode_gorilla(d["values_gorilla"]))
        lens.append(len(ts_parts[-1]))
    if not ts_parts:
        return pd.DataFrame(columns=key_cols + ["tier", "bucket_ts", "value"])
    reps = np.asarray(lens)
    out = {k: np.repeat(blocks[k].to_numpy(), reps) for k in key_cols}
    out["tier"] = np.repeat(blocks["tier"].to_numpy(), reps)
    out["bucket_ts"] = pd.to_datetime(np.concatenate(ts_parts), unit="us")
    out["value"] = np.concatenate(val_parts)
    return pd.DataFrame(out)


def _write_flagship_blocks(out):
    """Two buckets of a 1m blocks tier, written as the flagship writes them."""
    from signalsharp_ray.common.fsio import write_bucket
    from signalsharp_ray.stages.encode import encode_tier

    rng = np.random.default_rng(3)
    for bucket in (0, 5):
        n = rng.integers(1, 300, size=6)
        key = np.repeat(rng.choice(2**62, size=6, replace=False), n)
        minutes = np.concatenate([np.sort(rng.choice(600, size=k, replace=False)) for k in n])
        mean = np.round(rng.normal(size=key.size) * 50, rng.integers(0, 3))
        tier = SortedTier(key, 1_704_067_200_000_000 + minutes * TIERS_US["1m"],
                          {"count": np.ones(key.size, np.int64), "sum": mean, "min": mean,
                           "max": mean, "mean": mean})
        write_bucket(encode_tier(tier, "1m", TIERS_US["1m"], "locf", 60), out, bucket)


def _block_table(keys: dict, series: list) -> pa.Table:
    """A blocks table with the given key columns, one row per (int64 us
    timestamps, values) series; first_ts stays timestamp[us] so that the
    whole-table pandas conversion of the former code takes any timestamp."""
    return pa.table({
        **keys,
        "tier": ["1h"] * len(series),
        "n_points": pa.array([len(t) for t, _ in series], pa.int32()),
        "first_ts": pa.array([t[0] for t, _ in series], pa.timestamp("us")),
        "first_value": [float(v[0]) for _, v in series],
        "ts_dod": pa.array([encode_timestamps_dod(np.array(t, np.int64)) for t, _ in series], pa.binary()),
        "values_gorilla": pa.array([encode_values_gorilla(np.array(v, np.float64)) for _, v in series],
                                   pa.binary()),
    })


NS_MAX_US = 9_223_372_036_854_775  # the last microsecond of datetime64[ns]


def test_decode_blocks_matches_former_implementation(tmp_path):
    """The frame, dtypes included, for a blocks dir as the flagship writes
    it (read back with its hive series_bucket dictionary column and pandas
    metadata), for the same rows as a DataFrame, for zero rows, for a table
    concatenated from two files, for string, int64 and dictionary keys
    holding a null, for two key columns, for tables whose pandas metadata
    names stored index columns (left out, as Table.to_pandas leaves them
    out) and for timestamps at both ends of datetime64[ns]; one
    microsecond past either end raises OutOfBoundsDatetime in both."""
    import pyarrow.parquet as pq

    from signalsharp_ray.stages.encode import decode_blocks

    out = str(tmp_path / "blocks_1m")
    _write_flagship_blocks(out)
    table = pq.read_table(out)
    assert pa.types.is_dictionary(table.schema.field("series_bucket").type)
    assert table.schema.pandas_metadata is not None
    frame = pd.read_parquet(out)
    files = [pq.read_table(f) for f in sorted(glob.glob(f"{out}/series_bucket=*/*.parquet"))]
    two_files = pa.concat_tables(files)
    assert two_files.column("ts_dod").num_chunks == 2

    hour = TIERS_US["1h"]
    series = [([0, hour, 5 * hour], [1.5, -2.0, 1.5]), ([7 * hour], [np.nan]),
              ([hour, 2 * hour], [3.0, 3.0])]
    null_str = _block_table({"url": pa.array(["a", None, "c"])}, series)
    null_int = _block_table({"url_hash": pa.array([4, None, -9], pa.int64())}, series)
    null_dict = _block_table({"url": pa.array(["a", None, "a"]).dictionary_encode()}, series)
    two_keys = _block_table({"host": ["h", "h", "g"], "url_hash": pa.array([1, 2, 3], pa.int64())},
                            series)
    edges = _block_table({"url_hash": pa.array([1, 2], pa.int64())},
                         [([NS_MAX_US - hour, NS_MAX_US], [1.0, 2.0]),
                          ([-NS_MAX_US, -NS_MAX_US + hour], [3.0, 4.0])])
    stored_index = pa.Table.from_pandas(frame.iloc[[5, 0, 3]])
    named_index = pa.Table.from_pandas(frame.set_index("url_hash"))
    assert "__index_level_0__" in stored_index.column_names
    for blocks in (table, table.slice(3), frame, table.slice(0, 0), frame.iloc[:0], two_files,
                   null_str, null_int, null_dict, two_keys, null_str.to_pandas(), edges, stored_index,
                   named_index):
        pd.testing.assert_frame_equal(decode_blocks(blocks), _former_decode_blocks(blocks))
    assert decode_blocks(edges)["bucket_ts"].iloc[[0, -1]].tolist() == [
        pd.Timestamp(NS_MAX_US - hour, unit="us"), pd.Timestamp(-NS_MAX_US + hour, unit="us")]

    for ts in ([0, NS_MAX_US + 1], [-NS_MAX_US - 1, 0]):
        past = _block_table({"url_hash": pa.array([1], pa.int64())}, [(ts, [1.0, 2.0])])
        for decode in (decode_blocks, _former_decode_blocks):
            with pytest.raises(pd.errors.OutOfBoundsDatetime):
                decode(past)


def test_decode_blocks_builds_no_frame_of_the_table(tmp_path, monkeypatch):
    """decode_blocks of a table converts its columns one by one: it calls
    neither Table.to_pandas (pyarrow's table_to_dataframe) nor
    pd.to_datetime. The guard itself catches the former implementation."""
    import pyarrow.pandas_compat
    import pyarrow.parquet as pq

    from signalsharp_ray.stages.encode import decode_blocks

    out = str(tmp_path / "blocks_1m")
    _write_flagship_blocks(out)
    table = pq.read_table(out)
    want = decode_blocks(table)

    def forbidden(*args, **kwargs):
        raise AssertionError("whole-table pandas round trip")

    monkeypatch.setattr(pyarrow.pandas_compat, "table_to_dataframe", forbidden)
    monkeypatch.setattr(pd, "to_datetime", forbidden)
    with pytest.raises(AssertionError, match="round trip"):
        _former_decode_blocks(table)
    pd.testing.assert_frame_equal(decode_blocks(table), want)
    assert len(decode_blocks(table.slice(2, 1))) == table["n_points"][2].as_py()
    assert decode_blocks(table.slice(0, 0)).empty


# -- cascade ------------------------------------------------------------------


def _cascade_pandas_groupby(df, tier_us, key="url_hash"):
    """The cascade as the pandas groupby the one-pass kernel replaced."""
    ts = df["bucket_ts"].astype("datetime64[us]").astype("int64")
    bucket = (ts // tier_us) * tier_us
    g = df.groupby([df[key], bucket], sort=False)[["count", "sum", "min", "max"]].agg(
        {"count": "sum", "sum": "sum", "min": "min", "max": "max"}
    )
    out = g.reset_index()
    out.columns = [key, "bucket_ts", "count", "sum", "min", "max"]
    out["bucket_ts"] = pd.to_datetime(out["bucket_ts"], unit="us")
    out["mean"] = out["sum"] / out["count"]
    return out


@st.composite
def finer_tiers(draw):
    """A shuffled bucket of 1m rows: several series, integer-valued sums
    (the engine's value is a byte length) and NaN among min/max."""
    n = draw(st.integers(1, 200))
    key = np.array(draw(st.lists(st.sampled_from([3, 11, 12, -7, 2**40]), min_size=n, max_size=n)))
    minute = np.array(draw(st.lists(st.integers(-5000, 5000), min_size=n, max_size=n)))
    count = np.array(draw(st.lists(st.integers(1, 50), min_size=n, max_size=n)), dtype=np.int64)
    lo = np.array(draw(st.lists(st.one_of(st.integers(0, 10**6).map(float), st.just(np.nan)),
                                min_size=n, max_size=n)))
    df = pd.DataFrame({
        "url_hash": key.astype(np.int64),
        "bucket_ts": pd.to_datetime(minute * TIERS_US["1m"], unit="us"),
        "count": count,
        "sum": (count * np.nan_to_num(lo, nan=7.0)).astype(np.float64),
        "min": lo,
        "max": lo + np.array(draw(st.lists(st.integers(0, 99).map(float), min_size=n, max_size=n))),
    }).drop_duplicates(["url_hash", "bucket_ts"])
    df["mean"] = df["sum"] / df["count"]
    return df.sample(frac=1.0, random_state=draw(st.integers(0, 2**32 - 1))).reset_index(drop=True)


@SETTINGS
@given(finer_tiers())
def test_cascade_matches_pandas_groupby_exactly(df):
    for tier in ("1h", "1d"):
        want = _cascade_pandas_groupby(df, TIERS_US[tier])
        got = cascade_partition_pandas(df, TIERS_US[tier])
        pd.testing.assert_frame_equal(got, want, check_exact=True)
        # the Arrow path: the same rows, sorted by (url_hash, bucket_ts)
        finer = df.sort_values(["url_hash", "bucket_ts"])
        ts = finer["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
        cols = {c: finer[c].to_numpy() for c in ("count", "sum", "min", "max")}
        coarser, _ = cascade_sorted(SortedTier(finer["url_hash"].to_numpy(), ts, cols), TIERS_US[tier])
        want = want.sort_values(["url_hash", "bucket_ts"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(coarser.table().to_pandas(), want, check_exact=True)
        df = got
