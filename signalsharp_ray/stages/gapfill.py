"""Gap-fill stage: make each (host, url) series dense on the tier's bucket
grid, synthesizing missing buckets by LOCF (forward-fill) or linear
interpolation.

No reference counterpart (the reference has index==time, so gaps cannot
exist); required by BASELINE.json north_rule. Semantics:
- grid = np.arange(first_bucket, last_bucket + tier, tier) per series
- locf: value = last observed mean (forward fill)
- linear: slope*(t-t0)+v0 between neighboring observed means (explicit
  separate numpy ops — bitwise np.interp-equivalent without FMA-contraction
  build dependence); every NaN it gives is the one canonical NaN
- synthesized buckets get gap_filled=True, count=0, sum/min/max=NaN
- ordering: the group is sorted by bucket_ts inside the kernel (groupby does
  not guarantee intra-group order)

Two forms: gapfill_segments fills every series of a sorted bucket at once
(the flagship's post-1m encode); gapfill_tier runs gapfill_series per
(host, url) group over raytools.bucketed_map_groups, each series fully
materialized in one kernel call (as the analysis stage's Dataset form).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from .rollup import TIERS_US

GAPFILL_METHODS = ("locf", "linear")


def gapfill_arrays(
    ts: np.ndarray,
    mean_obs: np.ndarray,
    tier_us: int,
    method: str = "locf",
    max_gap_buckets: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Numpy-only core: (sorted ts int64, observed means) ->
    (grid, value, observed_mask, pos). Shared by the per-series DataFrame
    path and the fused whole-partition encode kernel."""
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gapfill_arrays for many series in one pass: series i is
    ts[offsets[i]:offsets[i+1]] (sorted, non-empty). Returns (grid, value,
    grid_offsets), series i's filled grid being grid[grid_offsets[i]:
    grid_offsets[i+1]], element for element what gapfill_arrays returns
    for that series alone (same integer grid, same float operations)."""
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
        last_idx = np.cumsum(np.bincount(slot + np.repeat(start, n), minlength=grid.size)) - 1
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
        start = pos[first]
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
    return grid, value, goff


def gapfill_series(
    df: pd.DataFrame,
    tier_us: int,
    method: str = "locf",
    max_gap_buckets: int | None = None,
    key_cols: tuple = ("host", "url"),
) -> pd.DataFrame:
    """max_gap_buckets bounds the fill: a gap with more than this many
    missing buckets is left as a gap (its slots are dropped, not
    synthesized). None = fill everything. Bounding matters at scale — a url
    crawled twice a month must not explode into a dense 1-minute grid."""
    if method not in GAPFILL_METHODS:
        raise ValueError(f"Unknown gap-fill method {method!r}")
    df = df.sort_values("bucket_ts")
    ts = df["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy()
    if ts.size == 0:
        out = df.copy()
        out["gap_filled"] = np.array([], dtype=bool)
        return out
    mean_obs = df["mean"].to_numpy()
    grid, value, observed, pos = gapfill_arrays(
        ts, mean_obs, tier_us, method, max_gap_buckets
    )

    out = pd.DataFrame(
        {
            **{k: df[k].iloc[0] for k in key_cols},
            "bucket_ts": pd.to_datetime(grid, unit="us"),
            "value": value,
            "gap_filled": ~observed,
        }
    )
    # carry observed aggregates; synthesized buckets get count 0 / NaN stats
    for col, fill in (("count", 0), ("sum", np.nan), ("min", np.nan), ("max", np.nan)):
        vals = np.full(grid.size, fill, dtype=np.float64)
        vals[observed] = df[col].to_numpy()[pos[observed]]
        out[col] = vals.astype(np.int64) if col == "count" else vals
    return out


def gapfill_tier(
    tier_ds,
    tier: str,
    method: str = "locf",
    max_gap_buckets: int | None = None,
    key_cols: tuple = ("host", "url"),
):
    from ..common.raytools import bucketed_map_groups

    tier_us = TIERS_US[tier]
    return bucketed_map_groups(
        tier_ds,
        list(key_cols),
        lambda df: gapfill_series(df, tier_us, method, max_gap_buckets, key_cols),
    )
