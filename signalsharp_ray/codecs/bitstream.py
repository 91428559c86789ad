"""MSB-first bit streams for the Gorilla / delta-of-delta codecs: a reader
for decoding, and a vectorized token packer that writes many streams at
once for the segmented encoders."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


class BitReader:
    __slots__ = ("_data", "_pos", "_nbits")

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
        bits_in_chunk = (end_byte - start_byte) * 8
        shift = bits_in_chunk - (self._pos - start_byte * 8) - nbits
        self._pos += nbits
        return (chunk >> shift) & ((1 << nbits) - 1)

    @property
    def bits_remaining(self) -> int:
        return self._nbits - self._pos


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
