"""MSB-first bit streams for the Gorilla / delta-of-delta codecs: a
vectorized token packer that writes many streams at once for the segmented
encoders, and the pieces the segmented decoders share (bounded groups of
streams straight from an Arrow binary array, a one-byte-per-bit view to
skip zero runs in C, and a vectorized many-position bit read)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def pack_segments(tok_v, tok_w, tok_s, seg_bits) -> pa.BinaryArray:
    """Pack (value, width<=64, bit start) tokens into one MSB-first stream
    per segment and return the streams as a binary array, each cut to
    ceil(bits / 8) bytes.

    Token starts are relative to the segment-major layout where segment i
    begins at bit `segment_bases(seg_bits)[i]`: every segment starts on a
    64-bit word, so no word holds bits of two segments. Token order is
    free and uncovered bits are zero, so zero runs need no tokens. Each
    token spans at most two adjacent words; contributions are combined with
    one stable sort and bitwise_or.reduceat: O(tokens) numpy work with no
    per-bit scatter and no Python loop."""
    seg_bits = np.asarray(seg_bits, dtype=np.int64)
    seg_words = (seg_bits + 63) >> 6
    tok_v = np.asarray(tok_v, dtype=np.uint64)
    tok_w = np.asarray(tok_w, dtype=np.int64)
    tok_s = np.asarray(tok_s, dtype=np.int64)
    o = (tok_s & 63).astype(np.uint64)
    ov = o + tok_w.astype(np.uint64)
    word = tok_s >> 6
    fits = ov <= 64
    part1 = np.where(fits, tok_v << np.where(fits, np.uint64(64) - ov, np.uint64(0)),
                     tok_v >> np.where(fits, np.uint64(0), ov - np.uint64(64)))
    spill = ~fits
    part2 = tok_v[spill] << (np.uint64(128) - ov[spill])  # << is mod 2^64
    widx = np.concatenate([word, word[spill] + 1])
    contrib = np.concatenate([part1, part2])
    order = np.argsort(widx, kind="stable")
    wsorted = widx[order]
    words = np.zeros(int(seg_words.sum()), dtype=np.uint64)
    if wsorted.size:
        starts = np.concatenate([[0], np.flatnonzero(np.diff(wsorted)) + 1])
        words[wsorted[starts]] = np.bitwise_or.reduceat(contrib[order], starts)
    buf = words.astype(">u8").view(np.uint8)
    # gather each segment's leading ceil(bits / 8) bytes into one buffer
    nbytes = (seg_bits + 7) >> 3
    offsets = np.zeros(seg_bits.size + 1, dtype=np.int64)
    np.cumsum(nbytes, out=offsets[1:])
    first_byte = 8 * (np.cumsum(seg_words) - seg_words)
    data = buf[np.repeat(first_byte - offsets[:-1], nbytes) + np.arange(offsets[-1])]
    return pa.BinaryArray.from_buffers(
        pa.binary(), seg_bits.size,
        [None, pa.py_buffer(offsets.astype(np.int32)), pa.py_buffer(data)],
    )


def segment_bases(seg_bits) -> np.ndarray:
    """First bit of each segment in pack_segments' layout."""
    seg_words = (np.asarray(seg_bits, dtype=np.int64) + 63) >> 6
    return 64 * (np.cumsum(seg_words) - seg_words)


def header_tokens(n) -> np.ndarray:
    """Each segment's uint32 point count as the 32-bit MSB-first token
    whose bytes are struct.pack("<I", n), the scalar stream's header."""
    return np.asarray(n, dtype="<u4").view(">u4").astype(np.uint64)


# a group's one-byte-per-bit view is 8x its bytes, so the decoders take at
# most this many stream bytes at once (a longer stream is a group alone)
GROUP_BYTES = 1 << 18
_BINARY = pa.binary()


def stream_groups(arr):
    """The streams of a binary array (sliced or chunked, no nulls) in
    bounded groups: yields (data, start, end), where data is the uint8 view
    of an Arrow data buffer and stream i of the group is
    data[start[i]:end[i]]. A group spans at most GROUP_BYTES bytes unless a
    single stream is longer; runs of small chunks are concatenated (one
    copy of their bytes) so that a table read from many files does not pay
    the per-group cost once per file."""
    chunks = arr.chunks if isinstance(arr, pa.ChunkedArray) else [arr]
    for c in chunks:
        if c.type != _BINARY:
            raise TypeError(f"bit streams must be binary, not {c.type}")
        if c.null_count:
            raise ValueError("null bit stream")
    for c in chunks if len(chunks) == 1 else _joined_chunks(chunks):
        _, obuf, dbuf = c.buffers()
        off = np.frombuffer(obuf, np.int32)[c.offset:c.offset + len(c) + 1].astype(np.int64)
        data = np.frombuffer(dbuf, np.uint8) if dbuf is not None else np.zeros(0, np.uint8)
        s = 0
        while s < len(c):
            e = max(int(np.searchsorted(off, off[s] + GROUP_BYTES, "right")) - 1, s + 1)
            yield data, off[s:e], off[s + 1:e + 1]
            s = e


def _joined_chunks(chunks):
    """Non-empty chunks, runs of small ones concatenated into one array. A
    chunk's size is that of its whole buffers (Array.nbytes costs ~7 us a
    chunk); a slice counted as its parent only ends a run early."""
    run, nbytes = [], 0
    for c in chunks:
        if not len(c):
            continue
        size = c.get_total_buffer_size()
        if run and nbytes + size > GROUP_BYTES:
            yield run[0] if len(run) == 1 else pa.concat_arrays(run)
            run, nbytes = [], 0
        run.append(c)
        nbytes += size
    if run:
        yield run[0] if len(run) == 1 else pa.concat_arrays(run)


def one_stream(data: bytes):
    """A single stream as the one group stream_groups would yield."""
    return np.frombuffer(data, np.uint8), np.zeros(1, np.int64), np.full(1, len(data), np.int64)


def scan_tokens(data, start, end, raw_fields: int, walk):
    """Read a group's stream headers and run the codec's token walk.

    Each stream holds a uint32 point count n (4 little-endian bytes), then
    min(n, raw_fields) raw 64-bit words (points 0..raw_fields-1), then one
    token per later point. walk(bits, starts, ends, firsts, stops) gets a
    one-byte-per-bit view of the group and, per stream with tokens, the
    bit span of its tokens and the point index range they fill; it returns
    lists of the bit position and point index of every token it must
    decode, and any further per-token lists. Returns (n, offsets,
    positions as absolute bits of data, indices, further lists...), the
    lists as int64 arrays."""
    if (end - start < 4).any():
        raise EOFError("bit stream exhausted")
    n = np.ascontiguousarray(data[start[:, None] + np.arange(4)]).view("<u4")[:, 0].astype(np.int64)
    if ((end - start) * 8 < 32 + 64 * np.minimum(n, raw_fields)).any():
        raise EOFError("bit stream exhausted")
    off = np.zeros(n.size + 1, dtype=np.int64)
    np.cumsum(n, out=off[1:])
    lo = int(start[0])
    s = np.flatnonzero(n > raw_fields)
    tokens = walk(_bit_view(data[lo:int(end[-1])]), ((start[s] - lo) * 8 + 32 + 64 * raw_fields).tolist(),
                  ((end[s] - lo) * 8).tolist(), (off[s] + raw_fields).tolist(), off[s + 1].tolist())
    q, *rest = (np.array(t, dtype=np.int64) for t in tokens)
    return (n, off, q + 8 * lo, *rest)


def _bit_view(data) -> bytes:
    """data as one byte (0 or 1) per bit, MSB first, plus 16 zero bits so
    that a token's lookahead never runs off the end. On this view
    bytes.find skips a run of zero bits in C."""
    return np.unpackbits(np.concatenate([data, np.zeros(2, np.uint8)])).tobytes()


def read_bits(data, pos, width) -> np.ndarray:
    """The width-bit (1..64) MSB-first field at each absolute bit position
    of data, as uint64: one 9-byte big-endian gather per field. A gather
    past data's end repeats its last byte; those bits fall outside every
    field that lies inside data, and the shift drops them."""
    pos = np.asarray(pos, dtype=np.int64)
    if not pos.size:
        return np.zeros(0, np.uint64)
    g = data[np.minimum((pos >> 3)[:, None] + np.arange(9), data.size - 1)]
    hi = np.ascontiguousarray(g[:, :8]).view(">u8")[:, 0].astype(np.uint64)
    o = (pos & 7).astype(np.uint64)
    top = (hi << o) | ((g[:, 8].astype(np.uint64) << o) >> np.uint64(8))
    return top >> (np.uint64(64) - np.asarray(width, dtype=np.uint64))


def join_groups(parts, dtype) -> tuple[np.ndarray, np.ndarray]:
    """Per-group (values, point counts) -> (flat values, offsets); a lone
    group's values are returned as they are."""
    if len(parts) == 1:
        values, n = parts[0]
    elif parts:
        values, n = (np.concatenate(x) for x in zip(*parts))
    else:
        values, n = np.zeros(0, dtype), np.zeros(0, np.int64)
    off = np.zeros(n.size + 1, np.int64)
    np.cumsum(n, out=off[1:])
    return values, off
