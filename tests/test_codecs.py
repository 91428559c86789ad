"""Gorilla / delta-of-delta codec round-trip and compression tests
(FIXTURES.md §3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalsharp_ray.codecs import (
    decode_timestamps_dod,
    decode_values_gorilla,
    encode_timestamps_dod,
    encode_values_gorilla,
)


def roundtrip_values(x):
    x = np.asarray(x, dtype=np.float64)
    out = decode_values_gorilla(encode_values_gorilla(x))
    np.testing.assert_array_equal(out.view(np.uint64), x.view(np.uint64))


def roundtrip_ts(x):
    x = np.asarray(x, dtype=np.int64)
    np.testing.assert_array_equal(decode_timestamps_dod(encode_timestamps_dod(x)), x)


class TestGorilla:
    def test_empty_and_single(self):
        roundtrip_values([])
        roundtrip_values([3.14159])

    def test_constant_series(self):
        x = np.full(1000, 42.5)
        enc = encode_values_gorilla(x)
        roundtrip_values(x)
        # constant -> 1 bit per repeat: tiny output
        assert len(enc) < 4 + 8 + 1000 // 8 + 2

    def test_random_walk(self):
        rng = np.random.default_rng(42)
        x = np.cumsum(rng.normal(size=2000))
        roundtrip_values(x)

    def test_adversarial_bit_patterns(self):
        x = np.array(
            [0.0, -0.0, 1.0, -1.0, np.finfo(np.float64).max, np.finfo(np.float64).tiny,
             1e-308, 2.0 ** 52, -(2.0 ** 53), 1.5, 1.5000000000000002]
        )
        roundtrip_values(x)

    def test_compression_ratio_on_similar_values(self):
        # slowly varying values share leading bits -> real compression
        x = 1000.0 + np.sin(np.linspace(0, 10, 5000)) * 0.125
        enc = encode_values_gorilla(x)
        assert len(enc) < 8 * x.size  # beats raw float64

    @given(
        st.lists(
            st.floats(allow_nan=False, width=64),
            min_size=0,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, xs):
        roundtrip_values(xs)


class TestDoD:
    def test_empty_single_pair(self):
        roundtrip_ts([])
        roundtrip_ts([1234567890])
        roundtrip_ts([10, 20])

    def test_regular_interval_compresses_to_bits(self):
        ts = np.arange(0, 60_000_000 * 1000, 60_000_000, dtype=np.int64)  # 1000 pts @1m
        enc = encode_timestamps_dod(ts)
        roundtrip_ts(ts)
        assert len(enc) < 4 + 16 + 1000 // 8 + 2  # ~1 bit per point after first two

    def test_irregular(self):
        rng = np.random.default_rng(7)
        ts = np.cumsum(rng.integers(1, 10_000_000, 500)).astype(np.int64)
        roundtrip_ts(ts)

    def test_negative_and_decreasing(self):
        roundtrip_ts([-100, -50, -49, 0, 1_000_000_000_000])
        roundtrip_ts([100, 50, 25, 0, -1000])

    # microsecond epochs are < 2^51; +/-2^52 leaves deltas overflow-free
    @given(
        st.lists(
            st.integers(min_value=-(2 ** 52), max_value=2 ** 52),
            min_size=0,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_roundtrip(self, xs):
        roundtrip_ts(xs)

    def test_int64_edges(self):
        roundtrip_ts([-(2 ** 63), 2 ** 63 - 1])
        roundtrip_ts([2 ** 63 - 1, -(2 ** 63), 2 ** 63 - 1, 0])

    # any int64 series round-trips: deltas and dods wrap in int64 in the
    # encoder's np.diff and in the decoder's prefix sums alike
    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
                st.sampled_from([-(2 ** 63), -(2 ** 63) + 1, -1, 0, 1, 2 ** 63 - 2, 2 ** 63 - 1]),
            ),
            min_size=0,
            max_size=100,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_roundtrip_any_int64(self, xs):
        roundtrip_ts(xs)
