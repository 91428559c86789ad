"""Gorilla XOR compression for float64 value streams.

Public algorithm from "Gorilla: A Fast, Scalable, In-Memory Time Series
Database" (Pelkonen et al., VLDB 2015), §4.1.2 — no reference-repo
counterpart (new capability required by BASELINE.json north_rule):

- first value stored raw (64 bits)
- each subsequent value XORed with the previous:
  * XOR == 0          -> single '0' bit
  * same leading/trailing-zero window as the previous XOR
                      -> '10' + meaningful bits
  * otherwise         -> '11' + 5 bits leading-zero count + 6 bits
                         meaningful-bit count (64 encoded as 0) + bits

Layout here: header = uint32 n_points, then the bit stream.
"""

from __future__ import annotations

import sys

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


# 256-entry leading/trailing-zero LUTs for the byte-sliced vectorized
# clz64/ctz64 (float-free: log2 on uint64 is inexact near 2^53)
_CLZ8 = np.array([8] + [7 - int(i).bit_length() + 1 for i in range(1, 256)], np.int64)
_CTZ8 = np.array(
    [8] + [((i & -i).bit_length() - 1) for i in range(1, 256)], np.int64
)


def _clz_ctz_vec(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized count-leading/trailing-zeros for a uint64 array with no
    zero elements: slice each word into bytes (MSB-first) and combine the
    first/last nonzero byte's LUT value with its byte position."""
    b = x.view(np.uint8).reshape(-1, 8)
    if sys.byteorder == "little":
        b = b[:, ::-1]
    nzmask = b != 0
    rows = np.arange(b.shape[0])
    first_nz = np.argmax(nzmask, axis=1)
    clz = first_nz * 8 + _CLZ8[b[rows, first_nz]]
    last_nz = 7 - np.argmax(nzmask[:, ::-1], axis=1)
    ctz = (7 - last_nz) * 8 + _CTZ8[b[rows, last_nz]]
    return clz, ctz


def _find_resets(lead: np.ndarray, trail: np.ndarray, seg_first: np.ndarray,
                 seg_end: np.ndarray) -> np.ndarray:
    """Sorted indices where the encoder opens a NEW window ('11' branch),
    over the nonzero xors of many series at once (series i owns
    [seg_first[i], seg_end[i]), each non-empty). An element resets iff its
    meaningful window does not fit inside the window of the last reset, so
    from a reset r the next one is the first later element with a smaller
    lead or a smaller trail.

    All series advance together, one numpy step per round: each scans the
    next `w` elements of its own for the first that does not fit. Its `w`
    doubles after a window with none (resets are rare: none in a constant
    series, ~0.1% of random floats) and halves, to no less than 16, after
    a hit. A window either advances the scan by `w` or ends at a reset, so
    the work stays linear in each series' length."""
    found = [seg_first]
    r, q, e = seg_first, seg_first + 1, seg_end
    w = np.full(r.size, 16)
    while True:
        live = q < e
        if not live.all():
            r, q, e, w = r[live], q[live], e[live], w[live]
        if not r.size:
            return np.sort(np.concatenate(found))
        steps = np.arange(w.max())
        idx = q[:, None] + steps
        ok = (steps < w[:, None]) & (idx < e[:, None])
        idx[~ok] = 0
        bad = ok & ((lead[idx] < lead[r][:, None]) | (trail[idx] < trail[r][:, None]))
        hit = bad.any(axis=1)
        nxt = q + bad.argmax(axis=1)
        found.append(nxt[hit])
        r = np.where(hit, nxt, r)
        q = np.where(hit, nxt + 1, q + w)
        w = np.where(hit, np.maximum(w // 2, 16), np.minimum(w * 2, 1 << 14))


def encode_values_gorilla(values: np.ndarray) -> bytes:
    """One series: the one-segment case of encode_values_gorilla_segments."""
    v = np.asarray(values, dtype=np.float64)
    return encode_values_gorilla_segments(v, np.array([0, v.size]))[0].as_py()


def encode_values_gorilla_segments(values: np.ndarray, offsets: np.ndarray) -> pa.BinaryArray:
    """Encode every series values[offsets[i]:offsets[i+1]] at once; the
    i-th value is the i-th series' stream, byte for byte what the scalar
    encoder writes. The stream depends only on the series' own values, so
    the streams of all series are laid out side by side and written with
    one token pack. Inside a window segment every element reuses the
    segment's window, so all bit emission vectorizes."""
    bits = np.ascontiguousarray(np.asarray(values, dtype=np.float64)).view(np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    n = np.diff(offsets)
    first = offsets[:-1]
    # xor slots: every point but each series' first
    later = np.ones(bits.size, dtype=bool)
    later[first[n > 0]] = False
    slot = np.flatnonzero(later)
    xors = bits[slot] ^ bits[slot - 1]
    nz = np.flatnonzero(xors)
    x = xors[nz]
    slot_seg = np.repeat(np.arange(n.size), np.maximum(n - 1, 0))
    nz_seg = slot_seg[nz]
    k_per = np.bincount(nz_seg, minlength=n.size)
    k_first = np.cumsum(k_per) - k_per

    lead, trail = _clz_ctz_vec(x)
    np.minimum(lead, 31, out=lead)  # 5-bit field; claiming fewer is lossless
    mean = 64 - lead - trail
    has = k_per > 0
    resets = _find_resets(lead, trail, k_first[has], (k_first + k_per)[has])
    is_reset = np.zeros(x.size, dtype=bool)
    is_reset[resets] = True
    # every element uses the window of the last reset at or before it
    win = resets[np.searchsorted(resets, np.arange(x.size), side="right") - 1]
    w_trail = trail[win].astype(np.uint64)
    w_mean = mean[win]

    # bits per xor slot (zeros take one), then each series' total
    width = np.ones(xors.size, dtype=np.int64)
    width[nz] = 2 + 11 * is_reset + w_mean
    slot_first = np.cumsum(np.maximum(n - 1, 0)) - np.maximum(n - 1, 0)
    cum = np.concatenate([[0], np.cumsum(width)])
    seg_bits = 32 + 64 * (n > 0) + cum[slot_first + np.maximum(n - 1, 0)] - cum[slot_first]
    base = segment_bases(seg_bits)
    elem_start = (base + 96 - cum[slot_first])[nz_seg] + cum[nz]

    nonempty = n > 0
    tok_v = np.concatenate([
        header_tokens(n),
        bits[first[nonempty]],
        # ctrl '10', or '11' + 5-bit lead + 6-bit meaningful count (64 -> 0)
        np.where(is_reset, (3 << 11) | (lead[win] << 6) | (mean[win] & 0x3F), 2).astype(np.uint64),
        x >> w_trail,  # meaningful payload bits
    ])
    tok_w = np.concatenate([
        np.full(n.size, 32), np.full(nonempty.sum(), 64), 2 + 11 * is_reset, w_mean,
    ])
    tok_s = np.concatenate([
        base, base[nonempty] + 32, elem_start, elem_start + 2 + 11 * is_reset,
    ])
    return pack_segments(tok_v, tok_w, tok_s, seg_bits)


def decode_values_gorilla(data: bytes) -> np.ndarray:
    """One stream: the one-segment case of decode_values_gorilla_segments."""
    return _decode_group(*one_stream(data))[0]


def decode_values_gorilla_segments(arr) -> tuple[np.ndarray, np.ndarray]:
    """Decode every stream of a binary array (sliced or chunked) at once:
    returns (values, offsets), stream i's series being
    values[offsets[i]:offsets[i+1]]. A zero xor is the one bit '0', so a
    Python loop visits only the nonzero xors (skipping each zero run with
    bytes.find), reading just the meaningful-bit count of each '11' window
    header to find the next token; the payload and window reads and the
    per-stream prefix xor are vectorized. A truncated stream raises
    EOFError."""
    return join_groups([_decode_group(*g) for g in stream_groups(arr)], np.float64)


# a '11' header's 6-bit meaningful-bit count (64 is stored as 0), keyed by
# its six bits in a one-byte-per-bit view
_MEAN_BY_BITS = {bytes((m >> (5 - j)) & 1 for j in range(6)): m or 64 for m in range(64)}


def _walk(bits: bytes, starts, ends, firsts, stops):
    """Bit position and point index of every nonzero xor. Stream j's xors
    are bits starts[j]:ends[j] of `bits` and points firsts[j]:stops[j]."""
    find = bits.find
    qs, idx = [], []
    for p, end, i, stop in zip(starts, ends, firsts, stops):
        mean = 0
        while True:
            q = find(1, p, end)
            if q < 0:
                q = end
            i += q - p  # the zero xors before q
            if i >= stop:
                break
            if bits[q + 1]:  # '11': a new window
                mean = _MEAN_BY_BITS[bits[q + 7:q + 13]]
                p = q + 13 + mean
            else:  # '10': the current window (none yet reads as a zero xor)
                p = q + 2 + mean
            if p > end:
                raise EOFError("bit stream exhausted")
            if mean:
                qs.append(q)
                idx.append(i)
            i += 1
    return qs, idx


def _decode_group(data, start, end):
    n, off, q, i = scan_tokens(data, start, end, 1, _walk)
    first = off[:-1]
    has1 = n >= 1
    # one read for each token's 13-bit head ('11' + 5-bit lead + 6-bit
    # meaningful count, or '10' + bits the '10' tokens do not use) and
    # each stream's raw first value, one for the payloads
    k = q.size
    head = read_bits(data, np.concatenate([q, 8 * start[has1] + 32]),
                     np.concatenate([np.full(k, 13), np.full(int(has1.sum()), 64)]))
    ctrl = head[:k].astype(np.int64)
    reset = ctrl >> 11 == 3
    lead = np.where(reset, (ctrl >> 6) & 31, 0)
    mean = np.where(reset, ((ctrl - 1) & 63) + 1, 0)
    # every '10' reuses its stream's last window, which the walk has seen
    win = np.maximum.accumulate(np.where(reset, np.arange(k), 0))
    lead, mean = lead[win], mean[win]
    trail = 64 - lead - mean
    if (trail < 0).any():
        raise ValueError("Gorilla window wider than 64 bits")
    xs = np.zeros(off[-1], dtype=np.uint64)
    xs[i] = read_bits(data, q + 2 + 11 * reset, mean) << trail.astype(np.uint64)
    xs[first[has1]] = head[k:]
    a = np.bitwise_xor.accumulate(xs)
    if n.size > 1:  # restart the prefix xor at each stream
        a ^= np.repeat(np.concatenate([np.zeros(1, np.uint64), a])[first], n)
    return a.view(np.float64), n
