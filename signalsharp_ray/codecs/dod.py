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

Contract: consecutive deltas must fit in int64 (always true for microsecond
epoch timestamps, which are < 2^51 in magnitude).
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

from .bitstream import BitReader, header_tokens, pack_segments, segment_bases


# per size class: '10' + 7 bits, '110' + 9, '1110' + 12, '1111' + 64 zigzag
_CTRL_V = np.array([2, 6, 14, 15], dtype=np.uint64)
_CTRL_W = np.array([2, 3, 4, 4], dtype=np.int64)
_PAY_W = np.array([7, 9, 12, 64], dtype=np.int64)
_BIAS = np.array([63, 255, 2047, 0], dtype=np.int64)


def _zigzag(d: np.ndarray) -> np.ndarray:
    return ((d << 1) ^ (d >> 63)).view(np.uint64)


def _unzigzag(u: int) -> int:
    return (u >> 1) ^ -(u & 1)


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
    (n,) = struct.unpack_from("<I", data, 0)
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    r = BitReader(data[4:])
    t0 = _to_signed64(r.read(64))
    out[0] = t0
    if n == 1:
        return out
    delta = _unzigzag(r.read(64))
    out[1] = t0 + delta
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
        out[i] = out[i - 1] + delta
    return out


def _to_signed64(u: int) -> int:
    return u - (1 << 64) if u >= (1 << 63) else u
