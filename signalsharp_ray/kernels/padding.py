"""Signal padding kernels.

Semantics match /root/reference/SignalSharp/Common/SignalPadding.cs:43-133.
Pads half_window = window_size // 2 points on EACH side.

Mode map (verified against the reference loops):
  constant -> np.pad mode="constant"
  mirror   -> np.pad mode="symmetric"  (edge value repeated)
  nearest  -> np.pad mode="edge"
  periodic -> left pad is np "wrap" ([x[n-hw:]]) but the RIGHT pad is the
              REVERSED first half-window ([x[hw-1], ..., x[0]]) — a quirk of
              the reference's loop (SignalPadding.cs:126-133) that we replicate
              exactly instead of using np.pad mode="wrap".

segment_blocks pads the other way: many series of different lengths as
the rows of one matrix, for the segmented kernels (PELT, EMA) that step
through all series at once.
"""

from __future__ import annotations

import numpy as np

PAD_NONE = "none"
PAD_CONSTANT = "constant"
PAD_MIRROR = "mirror"
PAD_NEAREST = "nearest"
PAD_PERIODIC = "periodic"

_MODES = (PAD_NONE, PAD_CONSTANT, PAD_MIRROR, PAD_NEAREST, PAD_PERIODIC)


def apply_padding(
    signal: np.ndarray,
    window_size: int,
    padding: str,
    padded_value: float = 0.0,
) -> np.ndarray:
    if padding not in _MODES:
        raise ValueError(f"Unknown padding mode {padding!r}; expected one of {_MODES}")
    signal = np.asarray(signal, dtype=np.float64)
    if padding == PAD_NONE:
        return signal
    hw = window_size // 2
    if hw == 0:
        return signal.copy()
    n = signal.size
    if padding == PAD_CONSTANT:
        return np.pad(signal, hw, mode="constant", constant_values=padded_value)
    if padding == PAD_MIRROR:
        return np.pad(signal, hw, mode="symmetric")
    if padding == PAD_NEAREST:
        return np.pad(signal, hw, mode="edge")
    # periodic (reference quirk on the right side)
    out = np.empty(n + 2 * hw, dtype=np.float64)
    out[hw : hw + n] = signal
    out[:hw] = signal[n - hw :]
    out[hw + n :] = signal[:hw][::-1]
    return out


def trim_padding(extended: np.ndarray, original_length: int, window_size: int) -> np.ndarray:
    hw = window_size // 2
    return np.asarray(extended, dtype=np.float64)[hw : hw + original_length].copy()


def segment_blocks(offsets: np.ndarray, series: np.ndarray, max_cells: int):
    """The series `series` (indices into `offsets`, each non-empty) as the
    rows of padded matrices, longest first: yields (idx, take, mask) per
    block of at most `max_cells` cells (one series at least). Row k of the
    block is series idx[k], left-aligned; `take` is the (rows x longest)
    index of each cell into the flat values array, clipped to the series'
    last point, and `mask` marks the cells inside their series. Rows are
    in descending length, so the rows still running at column j are a
    prefix: the first `(mask[:, j]).sum()` ones."""
    offsets = np.asarray(offsets, dtype=np.int64)
    series = np.asarray(series, dtype=np.int64)
    n = offsets[series + 1] - offsets[series]
    order = np.argsort(-n, kind="stable")
    i = 0
    while i < order.size:
        width = int(n[order[i]])
        rows = order[i:i + max(1, max_cells // width)]
        i += rows.size
        idx, lens = series[rows], n[rows]
        col = np.arange(width)
        take = offsets[idx][:, None] + np.minimum(col[None, :], lens[:, None] - 1)
        yield idx, take, col[None, :] < lens[:, None]
