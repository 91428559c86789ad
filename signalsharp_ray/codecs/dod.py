"""Delta-of-delta timestamp compression.

Public algorithm from Gorilla (Pelkonen et al., VLDB 2015) §4.1.1, adapted to
microsecond-resolution int64 timestamps (the paper uses seconds with a 14-bit
first delta; we store the first timestamp and first delta raw as 64-bit):

- header: uint32 n, then first ts (64b) and first delta (64b, zigzag)
- each later delta-of-delta D:
  * D == 0                 -> '0'
  * D in [-63, 64]         -> '10'  + 7 bits  (D + 63)
  * D in [-255, 256]       -> '110' + 9 bits  (D + 255)
  * D in [-2047, 2048]     -> '1110' + 12 bits (D + 2047)
  * else                   -> '1111' + 64 bits zigzag
Regular-interval series (the common rolled-up tier case) collapse to one bit
per point after the first two.

Every int64 series round-trips: deltas and dods wrap in int64 on both
sides, in the encoder's np.diff and in the decoder's prefix sums.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .bitstream import (
    header_tokens,
    join_groups,
    one_stream,
    pack_segments,
    read_bits,
    scan_tokens,
    segment_bases,
    stream_groups,
)


# per size class: '10' + 7 bits, '110' + 9, '1110' + 12, '1111' + 64 zigzag
_CTRL_V = np.array([2, 6, 14, 15], dtype=np.uint64)
_CTRL_W = np.array([2, 3, 4, 4], dtype=np.int64)
_PAY_W = np.array([7, 9, 12, 64], dtype=np.int64)
_BIAS = np.array([63, 255, 2047, 0], dtype=np.int64)


def _zigzag(d: np.ndarray) -> np.ndarray:
    return ((d << 1) ^ (d >> 63)).view(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    return (u >> np.uint64(1)).view(np.int64) ^ -(u & np.uint64(1)).view(np.int64)


def encode_timestamps_dod(timestamps: np.ndarray) -> bytes:
    """One series: the one-segment case of encode_timestamps_dod_segments."""
    ts = np.asarray(timestamps, dtype=np.int64)
    return encode_timestamps_dod_segments(ts, np.array([0, ts.size]))[0].as_py()


def encode_timestamps_dod_segments(timestamps: np.ndarray, offsets: np.ndarray) -> pa.BinaryArray:
    """Encode every series timestamps[offsets[i]:offsets[i+1]] at once; the
    i-th value is the i-th series' stream. Fully vectorized: no state
    crosses points (unlike Gorilla values), so each nonzero dod is bucketed
    into its size class and packed as ctrl + payload tokens; zero dods are
    one '0' bit and need no token."""
    ts = np.asarray(timestamps, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = np.diff(offsets)
    first = offsets[:-1]
    local = np.arange(ts.size) - np.repeat(first, n)
    deltas = np.diff(ts)  # wraps like the per-series np.diff
    # a dod belongs to point i >= 2 of its series
    dods = np.diff(deltas)[local[2:] >= 2]
    nz = np.flatnonzero(dods)
    d = dods[nz]
    # size class 0-3 of each nonzero dod; the biased value is its payload
    # (a wrapped sum is huge as uint64, so it lands in class 3)
    cls = 3 - sum(((d + bias).view(np.uint64) < (1 << w)).astype(np.int64)
                  for bias, w in ((63, 7), (255, 9), (2047, 12)))
    ctrl_v, ctrl_w = _CTRL_V[cls], _CTRL_W[cls]
    pay_w = _PAY_W[cls]
    pay_v = np.where(cls == 3, _zigzag(d), (d + _BIAS[cls]).view(np.uint64))

    # bits per dod (zeros take one), then each series' total
    width = np.ones(dods.size, dtype=np.int64)
    width[nz] = ctrl_w + pay_w
    n_dods = np.maximum(n - 2, 0)
    dod_first = np.cumsum(n_dods) - n_dods
    cum = np.concatenate([[0], np.cumsum(width)])
    seg_bits = 32 + 64 * np.minimum(n, 2) + cum[dod_first + n_dods] - cum[dod_first]
    base = segment_bases(seg_bits)
    # a dod starts after its series' header, ts0, delta0 and earlier dods
    dod_seg = np.repeat(np.arange(n.size), n_dods)[nz]
    elem_start = (base + 160 - cum[dod_first])[dod_seg] + cum[nz]

    has1, has2 = n >= 1, n >= 2
    tok_v = np.concatenate([header_tokens(n), ts[first[has1]].view(np.uint64),
                            _zigzag(deltas[first[has2]]), ctrl_v, pay_v])
    tok_w = np.concatenate([np.full(n.size, 32), np.full(has1.sum(), 64),
                            np.full(has2.sum(), 64), ctrl_w, pay_w])
    tok_s = np.concatenate([base, base[has1] + 32, base[has2] + 96,
                            elem_start, elem_start + ctrl_w])
    return pack_segments(tok_v, tok_w, tok_s, seg_bits)


def decode_timestamps_dod(data: bytes) -> np.ndarray:
    """One stream: the one-segment case of decode_timestamps_dod_segments."""
    return _decode_group(*one_stream(data))[0]


def decode_timestamps_dod_segments(arr) -> tuple[np.ndarray, np.ndarray]:
    """Decode every stream of a binary array (sliced or chunked) at once:
    returns (timestamps, offsets), stream i's series being
    timestamps[offsets[i]:offsets[i+1]]. A zero dod is the one bit '0', so
    a Python loop visits only the nonzero dods (skipping each zero run with
    bytes.find) and records where each starts; the payload reads and both
    prefix sums (dods -> deltas -> timestamps, wrapping like the encoder's
    np.diff) are vectorized. A truncated stream raises EOFError."""
    return join_groups([_decode_group(*g) for g in stream_groups(arr)], np.int64)


# token width by size class (the number of '1' bits after a token's
# leading '1', at most 3), and the class of each width
_TOKEN_W = tuple((_CTRL_W + _PAY_W).tolist())
_CLASS_BY_W = np.zeros(max(_TOKEN_W) + 1, dtype=np.int64)
_CLASS_BY_W[list(_TOKEN_W)] = np.arange(4)


def _walk(bits: bytes, starts, ends, firsts, stops):
    """Bit position, point index and width of every nonzero dod. Stream
    j's dods are bits starts[j]:ends[j] of `bits` and points
    firsts[j]:stops[j]."""
    find = bits.find
    qs, idx, widths = [], [], []
    for p, end, i, stop in zip(starts, ends, firsts, stops):
        while True:
            q = find(1, p, end)
            if q < 0:
                q = end
            i += q - p  # the zero dods before q
            if i >= stop:
                break
            z = find(0, q + 1, q + 4)
            w = _TOKEN_W[z - q - 1 if z >= 0 else 3]
            p = q + w
            if p > end:
                raise EOFError("bit stream exhausted")
            qs.append(q)
            idx.append(i)
            widths.append(w)
            i += 1
    return qs, idx, widths


def _decode_group(data, start, end):
    n, off, q, i, w = scan_tokens(data, start, end, 2, _walk)
    cls = _CLASS_BY_W[w]
    first = off[:-1]
    has1, has2 = n >= 1, n >= 2
    # one read for every payload and raw word: dods, then ts0, then delta0
    k, k1 = q.size, q.size + int(has1.sum())
    pay = read_bits(data, np.concatenate([q + _CTRL_W[cls], 8 * start[has1] + 32, 8 * start[has2] + 96]),
                    np.concatenate([_PAY_W[cls], np.full(k1 - k + int(has2.sum()), 64)]))
    dd = np.zeros(off[-1], dtype=np.int64)
    dd[i] = np.where(cls == 3, _unzigzag(pay[:k]), pay[:k].view(np.int64) - _BIAS[cls])
    dd[first[has2] + 1] = _unzigzag(pay[k1:])
    ts = _segment_cumsum(dd, off)  # deltas
    ts[first[has1]] = pay[k:k1].view(np.int64)
    return _segment_cumsum(ts, off), n


def _segment_cumsum(x: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Prefix sum restarted at each segment, wrapping in int64."""
    c = np.cumsum(x)
    if off.size <= 2:
        return c
    return c - np.repeat(np.concatenate([[0], c])[off[:-1]], np.diff(off))
