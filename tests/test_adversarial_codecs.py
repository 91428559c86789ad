"""Byte identity of the segmented gap-fill + encode and of the one-pass
cascade against per-series / pandas references, on adversarial buckets.

The references are independent of the library's encoders: a bit-by-bit
Python writer of the Gorilla (VLDB 2015, section 4.1) and delta-of-delta
streams, fed by the per-series `gapfill_arrays`; and the cascade as the
pandas groupby it replaced.
"""

import struct

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signalsharp_ray.codecs import (
    decode_timestamps_dod,
    decode_values_gorilla,
    encode_timestamps_dod,
    encode_values_gorilla,
)
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
