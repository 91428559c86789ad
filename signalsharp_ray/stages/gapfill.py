"""Gap-fill stage: make each series dense on the tier's bucket grid,
synthesizing missing buckets by LOCF (forward-fill) or linear
interpolation.

No reference counterpart (the reference has index==time, so gaps cannot
exist); required by BASELINE.json north_rule. Semantics:
- grid = np.arange(first_bucket, last_bucket + tier, tier) per series
- locf: value = last observed mean (forward fill)
- linear: slope*(t-t0)+v0 between neighboring observed means (explicit
  separate numpy ops — bitwise np.interp-equivalent without FMA-contraction
  build dependence); every NaN it gives is the one canonical NaN
- synthesized buckets get gap_filled=True, count=0, sum/min/max=NaN

One form: gapfill_segments fills every series of a sorted table at once,
for the flagship's post-1m encode (encode_sorted) and for gapfill_table,
the reducer gapfill_tier runs on each bucket of one hash exchange.
gapfill_arrays fills one series: the reference the tests check them
against.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..common.raytools import _bucket_by, _exchange, default_buckets
from .rollup import TIERS_US, us_to_ns

GAPFILL_METHODS = ("locf", "linear")


def gapfill_arrays(
    ts: np.ndarray,
    mean_obs: np.ndarray,
    tier_us: int,
    method: str = "locf",
    max_gap_buckets: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One series: (sorted ts int64, observed means) -> (grid, value,
    observed_mask, pos), pos being each grid slot's searchsorted row. The
    reference gapfill_segments is checked against."""
    if max_gap_buckets is not None:
        # enumerate only fillable gap slots + observed slots (never the
        # full dense range): bounded output regardless of series sparsity
        gaps = np.diff(ts) // tier_us - 1  # missing buckets between points
        fill_from = np.flatnonzero((gaps > 0) & (gaps <= max_gap_buckets))
        pieces = [ts]
        for i in fill_from:
            pieces.append(np.arange(ts[i] + tier_us, ts[i + 1], tier_us, dtype=np.int64))
        grid = np.sort(np.concatenate(pieces))
    else:
        grid = np.arange(ts[0], ts[-1] + tier_us, tier_us, dtype=np.int64)
    pos = np.searchsorted(ts, grid)
    observed = np.zeros(grid.size, dtype=bool)
    in_range = pos < ts.size
    observed[in_range] = ts[pos[in_range]] == grid[in_range]

    if method == "locf":
        # index of the last observed point at or before each grid slot
        last_idx = np.maximum(np.searchsorted(ts, grid, side="right") - 1, 0)
        value = mean_obs[last_idx]
    else:  # linear
        # explicit slope*(t-t0)+v0 with SEPARATE numpy multiply/add ops
        # (np.interp's fused C expression may FMA-contract on some builds,
        # drifting 1 ulp from a SQL engine's op-for-op evaluation; separate
        # ufunc calls cannot contract). Observed slots get v0 exactly
        # (slope * 0); the last interval clamps to a flat extension.
        idx = np.clip(np.searchsorted(ts, grid, side="right") - 1, 0, ts.size - 1)
        nxt = np.minimum(idx + 1, ts.size - 1)
        t0 = ts[idx].astype(np.float64)
        t1 = ts[nxt].astype(np.float64)
        v0 = mean_obs[idx]
        v1 = mean_obs[nxt]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(t1 > t0, (v1 - v0) / (t1 - t0), 0.0)
            value = slope * (grid.astype(np.float64) - t0) + v0
        # one NaN bit pattern: the payload of a NaN made from NaN operands
        # depends on which numpy loop ran
        value[np.isnan(value)] = np.nan
    return grid, value, observed, pos


def gapfill_segments(
    ts: np.ndarray,
    mean_obs: np.ndarray,
    offsets: np.ndarray,
    tier_us: int,
    method: str = "locf",
    max_gap_buckets: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """gapfill_arrays for many series in one pass: series i is
    ts[offsets[i]:offsets[i+1]] (sorted, non-empty). Returns (grid, value,
    grid_offsets, rows), series i's filled grid being grid[grid_offsets[i]:
    grid_offsets[i+1]], element for element what gapfill_arrays returns
    for that series alone (same integer grid, same float operations), and
    rows[j] the grid index of input row j: the slot it is observed at
    when grid[rows[j]] == ts[j] (a timestamp off its series' grid has
    none)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    n = np.diff(offsets)
    first, last = offsets[:-1], offsets[1:] - 1
    idx = np.arange(ts.size)
    is_last = idx == np.repeat(last, n)
    if max_gap_buckets is None:
        # grid = np.arange(ts[0], ts[-1] + tier, tier) per series; point j
        # is the last observed one for every slot from ceil((ts[j] -
        # ts[0]) / tier) on, so the last observed index is a running count
        rel = ts - np.repeat(ts[first], n)
        slot = -((-rel) // tier_us)  # ceil
        glen = slot[last] + 1
        start = np.cumsum(glen) - glen
        local = np.arange(glen.sum()) - np.repeat(start, glen)
        grid = np.repeat(ts[first], glen) + local * tier_us
        rows = slot + np.repeat(start, n)
        last_idx = np.cumsum(np.bincount(rows, minlength=grid.size)) - 1
    else:
        # the observed buckets plus every slot of a gap of at most
        # max_gap_buckets missing buckets, placed after the point that
        # opens the gap (its slots lie strictly between its two points)
        gaps = np.diff(ts) // tier_us - 1  # missing buckets between points
        fill = np.flatnonzero(~is_last[:-1] & (gaps > 0) & (gaps <= max_gap_buckets))
        cnt = -((tier_us - (ts[fill + 1] - ts[fill])) // tier_us)  # len(np.arange)
        after = np.zeros(ts.size, dtype=np.int64)
        after[fill] = cnt
        pos = idx + np.cumsum(after) - after
        k = np.arange(cnt.sum()) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        slots = np.repeat(pos[fill], cnt) + k + 1
        grid = np.empty(ts.size + slots.size, dtype=np.int64)
        grid[pos] = ts
        grid[slots] = np.repeat(ts[fill], cnt) + (k + 1) * tier_us
        # a slot's last observed point opened its gap; a point's is the
        # last of its run of equal timestamps (searchsorted side="right")
        run_end = np.flatnonzero(np.append(ts[1:] != ts[:-1], True) | is_last)
        last_idx = np.empty(grid.size, dtype=np.int64)
        last_idx[pos] = run_end[np.searchsorted(run_end, idx)]
        last_idx[slots] = np.repeat(fill, cnt)
        start, rows = pos[first], pos
    goff = np.append(start, grid.size)
    if method == "locf":
        value = mean_obs[last_idx]
    else:  # linear, the same separate ops as gapfill_arrays
        i0 = last_idx  # never before its series' first point
        i1 = np.minimum(i0 + 1, np.repeat(last, np.diff(goff)))
        t0 = ts[i0].astype(np.float64)
        t1 = ts[i1].astype(np.float64)
        v0 = mean_obs[i0]
        v1 = mean_obs[i1]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(t1 > t0, (v1 - v0) / (t1 - t0), 0.0)
            value = slope * (grid.astype(np.float64) - t0) + v0
        # one NaN bit pattern: the payload of a NaN made from NaN operands
        # depends on which numpy loop ran
        value[np.isnan(value)] = np.nan
    return grid, value, goff, rows


def gapfill_table(
    t: pa.Table,
    key_cols: list,
    tier_us: int,
    method: str = "locf",
    max_gap_buckets: int | None = None,
) -> pa.Table:
    """Gap-fill every series of a tier table (key_cols..., bucket_ts,
    count, sum, min, max, mean; rows in any order, bucket_ts distinct
    within a series) in one gapfill_segments call. A series is one value
    of the key columns, a null one included. Returns key_cols...,
    bucket_ts:timestamp[ns], value, gap_filled, count:int64 and
    sum/min/max:float64, the observed rows' aggregates carried over;
    series are ordered by where each key column's value first appears
    (column by column), each series sorted by bucket_ts.

    max_gap_buckets bounds the fill: a gap with more than this many
    missing buckets is left as a gap (its slots are dropped, not
    synthesized). None = fill everything. Bounding matters at scale — a
    url crawled twice a month must not explode into a dense 1-minute
    grid."""
    codes = [pc.dictionary_encode(t[k].combine_chunks(), null_encoding="encode").indices.to_numpy()
             for k in key_cols]
    ts = t["bucket_ts"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
    order = np.lexsort([ts] + codes[::-1])
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for c in codes:
        starts[1:] |= c[order[1:]] != c[order[:-1]]
    offsets = np.append(np.flatnonzero(starts), order.size)
    ts = ts[order]

    def column(c, typ):
        return pc.cast(t[c], typ).to_numpy(zero_copy_only=False)[order]

    grid, value, goff, rows = gapfill_segments(
        ts, column("mean", pa.float64()), offsets, tier_us, method, max_gap_buckets)
    hit = grid[rows] == ts
    observed = rows[hit]
    gap_filled = np.ones(grid.size, dtype=bool)
    gap_filled[observed] = False
    out = t.select(key_cols).take(np.repeat(order[offsets[:-1]], np.diff(goff)))
    out = out.append_column("bucket_ts", us_to_ns(grid)).append_column("value", pa.array(value))
    out = out.append_column("gap_filled", pa.array(gap_filled))
    for c, fill, typ in (("count", 0, pa.int64()), ("sum", np.nan, pa.float64()),
                         ("min", np.nan, pa.float64()), ("max", np.nan, pa.float64())):
        vals = np.full(grid.size, fill, dtype=typ.to_pandas_dtype())
        vals[observed] = column(c, typ)[hit]
        out = out.append_column(c, pa.array(vals))
    return out


def gapfill_tier(
    tier_ds,
    tier: str,
    method: str = "locf",
    max_gap_buckets: int | None = None,
    key_cols: tuple = ("host", "url"),
):
    """gapfill_table over a tier Dataset: one hash exchange on the series
    key, so a series lands whole in one bucket, and gapfill_table as the
    reducer of each bucket (it reads only its named columns, not
    `__bucket`)."""
    if method not in GAPFILL_METHODS:
        raise ValueError(f"Unknown gap-fill method {method!r}")
    keys = list(key_cols)
    n_buckets = default_buckets()
    fill = partial(gapfill_table, key_cols=keys, tier_us=TIERS_US[tier], method=method,
                   max_gap_buckets=max_gap_buckets)
    return _exchange([(tier_ds, _bucket_by(keys, n_buckets))], n_buckets, fill,
                     empty_like=tier_ds, drop_empty=True)


