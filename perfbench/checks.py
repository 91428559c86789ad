"""Correctness checks on a committed flagship output root.

Each check returns (name, ok, detail). The expectations come from the
generator side (distinct pairs and urls of the input) or from the
observed tier rows, recomputed here without the engine's gap-fill code.
"""

from __future__ import annotations

import os

import numpy as np

from .corpus import TIERS, TierSeries, count_rows, read_stage

MAX_GAP_BUCKETS = 60  # FlagshipConfig default


def expected_grid(ts: np.ndarray, mean: np.ndarray, tier_us: int):
    """The LOCF gap-filled series the block tier must hold: observed
    buckets plus every slot of a gap of at most MAX_GAP_BUCKETS missing
    buckets, each slot carrying the last observed mean."""
    pieces = [ts]
    vals = [mean]
    gaps = np.diff(ts) // tier_us - 1
    for i in np.flatnonzero((gaps > 0) & (gaps <= MAX_GAP_BUCKETS)):
        slots = np.arange(ts[i] + tier_us, ts[i + 1], tier_us, dtype=np.int64)
        pieces.append(slots)
        vals.append(np.full(slots.size, mean[i]))
    grid = np.concatenate(pieces)
    order = np.argsort(grid, kind="stable")
    return grid[order], np.concatenate(vals)[order]


def same_series(ts, vals, want_ts, want_vals) -> bool:
    return (
        ts.size == want_ts.size
        and np.array_equal(ts, want_ts)
        and np.array_equal(vals.view(np.int64), want_vals.view(np.int64))
    )


def ingest_checks(out_root: str, distinct_url_ts: int, distinct_urls: int,
                  seed: int, sample: int = 16) -> list[tuple[str, bool, str]]:
    from signalsharp_ray.stages.encode import decode_blocks
    from signalsharp_ray.stages.rollup import TIERS_US

    out = []
    points = count_rows(os.path.join(out_root, "points", "data"))
    out.append(("points_rows", points == distinct_url_ts,
                f"points={points} distinct(url,warc_ts)={distinct_url_ts}"))

    tiers = {t: TierSeries(os.path.join(out_root, f"tier_{t}")) for t in TIERS}
    sums = {t: tiers[t].total_count for t in TIERS}
    out.append(("count_conservation", len(set(sums.values())) == 1 and sums["1m"] == points,
                f"sum(count)={sums} points={points}"))

    keys = count_rows(os.path.join(out_root, "points", "dict"))
    out.append(("url_dict_keys", keys == distinct_urls,
                f"dict={keys} distinct(url)={distinct_urls}"))

    rng = np.random.default_rng([seed, 0xC4EC])
    bad = []
    for tier in TIERS:
        series = tiers[tier].series
        all_keys = np.array(sorted(series))
        picked = set(rng.choice(all_keys, size=min(sample, all_keys.size), replace=False).tolist())
        blocks = read_stage(os.path.join(out_root, f"blocks_{tier}"))
        mask = np.isin(blocks["url_hash"].to_numpy(), np.array(sorted(picked)))
        dec = decode_blocks(blocks.filter(mask).drop_columns(["series_bucket"]))
        got = {
            k: (g["bucket_ts"].astype("datetime64[us]").astype("int64").to_numpy(),
                g["value"].to_numpy())
            for k, g in dec.groupby("url_hash", sort=False)
        }
        for k in picked:
            want = expected_grid(*series[k], TIERS_US[tier])
            if k not in got or not same_series(*got[k], *want):
                bad.append(f"{tier}:{k}")
    out.append(("block_values", not bad,
                f"{3 * sample} sampled series-tiers, mismatched={bad[:5]}"))
    return out
