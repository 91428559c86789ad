"""Windowed operators Ray Data lacks natively, composed per the brief's
custom-operator recipe (map_batches + bucketed per-key kernels + sort
inside the kernel):

- sliding_window: per-key rolling aggregate over the last W tier buckets
  (tumbling rollup first, then a per-series pandas rolling pass)
- session_windows: gap-based sessionization (a new session starts when the
  inter-event gap exceeds `timeout`) — the classic lag/cumsum formulation
- asof_join: for every left row, the latest right row with
  right.ts <= left.ts for the same key — hash-partition BOTH sides on the
  key (one bucketed exchange of both side-tagged inputs), pd.merge_asof
  inside the kernel

Partitioning assumptions (documented per the brief): every operator requires
all rows of a key in one kernel call; the bucketed groupby guarantees it.
Skewed keys are bounded by the per-series caps upstream (rollup first).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..common.raytools import bucketed_cogroup, bucketed_map_groups


def sliding_window(tier_ds, key_cols: list[str], window: int, value_col: str = "sum"):
    """Rolling sum/mean of the last `window` tier buckets per key (rows with
    fewer than `window` preceding buckets aggregate what exists — matching
    SQL's ROWS BETWEEN W-1 PRECEDING AND CURRENT ROW)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("bucket_ts")
        roll = df[value_col].rolling(window, min_periods=1)
        out = df[key_cols + ["bucket_ts"]].copy()
        out["window_sum"] = roll.sum().to_numpy()
        out["window_mean"] = roll.mean().to_numpy()
        return out

    return bucketed_map_groups(tier_ds, key_cols, fn)


def session_windows(
    events_ds,
    key_col: str,
    ts_col: str = "ts",
    timeout_us: int = 1_800_000_000,  # 30 minutes
    order_cols: tuple = ("ts", "event_id"),
):
    """Gap-based sessionization per key: session boundaries where the gap to
    the previous event exceeds timeout. Emits one row per session with
    start/end/count."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(list(order_cols))
        ts = df[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
        gaps = np.diff(ts, prepend=ts[0])
        new_session = gaps > timeout_us
        session_id = np.cumsum(new_session)
        g = pd.DataFrame(
            {
                key_col: df[key_col].to_numpy(),
                "session_id": session_id,
                "ts": ts,
            }
        ).groupby("session_id")
        out = pd.DataFrame(
            {
                key_col: df[key_col].iloc[0],
                "session_id": np.arange(session_id.max() + 1, dtype=np.int64),
                "session_start": pd.to_datetime(g["ts"].min().to_numpy(), unit="us"),
                "session_end": pd.to_datetime(g["ts"].max().to_numpy(), unit="us"),
                "n_events": g.size().to_numpy().astype(np.int64),
            }
        )
        return out

    return bucketed_map_groups(events_ds, [key_col], fn)


def range_join_count(
    left_ds,
    right_ds,
    key_col: str,
    left_ts: str = "ts",
    right_ts: str = "ts",
    window_us: int = 30 * 86_400_000_000,
    count_col: str = "n_in_range",
):
    """Range join (count form): for every left row, the number of right
    rows of the same key with right_ts in (left_ts - window, left_ts].

    Same single bucketed exchange as asof_join (bucketed_cogroup); the
    per-key kernel is two vectorized searchsorted passes over the sorted
    right timestamps — O((nl + nr) log nr) per key, never a
    pairwise product. Partitioning assumption: all rows of a key reach one
    kernel call (the bucketed groupby guarantees it)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["__side"] == "l"]
        right = df[df["__side"] == "r"]
        if len(left) == 0:
            return pd.DataFrame(
                columns=[c for c in left.columns if c != "__side"] + [count_col]
            )
        lts = left[left_ts].astype("datetime64[us]").astype("int64").to_numpy()
        out = left.drop(columns=["__side"]).dropna(axis=1, how="all").copy()
        if len(right) == 0:
            out[count_col] = np.zeros(len(left), dtype=np.int64)
            return out
        rts = np.sort(
            right[right_ts].astype("datetime64[us]").astype("int64").to_numpy()
        )
        hi = np.searchsorted(rts, lts, side="right")
        lo = np.searchsorted(rts, lts - window_us, side="right")
        out[count_col] = (hi - lo).astype(np.int64)
        return out

    return bucketed_cogroup(left_ds, right_ds, [key_col], fn)


def asof_join(
    left_ds,
    right_ds,
    key_col: str,
    left_ts: str = "ts",
    right_ts: str = "ts",
    right_cols: list[str] | None = None,
    right_tiebreak: list[str] | None = None,
):
    """Backward as-of join: latest right row with ts <= left ts per key.

    Both sides travel through ONE bucketed exchange (bucketed_cogroup):
    rows are tagged with a side marker, hash-grouped by key, and
    merge_asof'd inside the kernel. Left rows with no prior right row keep
    nulls.

    ``right_tiebreak``: columns that break ties among right rows sharing the
    same ``right_ts`` — the row with the MAX tiebreak value wins.  Resolved
    *inside* the per-key kernel (after the bucketed exchange sees every row
    of the key), so the result is independent of block layout; a per-batch
    dedup upstream would not be (duplicates in different blocks both
    survive a batch-local drop_duplicates).
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        left = df[df["__side"] == "l"].drop(columns=["__side"])
        right = df[df["__side"] == "r"].drop(columns=["__side"])
        if len(left) == 0:
            # right-only key (e.g. an order customer with no events):
            # typed empty output so block schemas stay consistent
            return left
        left = left.dropna(axis=1, how="all").sort_values(left_ts)
        right = right.dropna(axis=1, how="all") if len(right) else right
        keep = [c for c in (right_cols or right.columns) if c in right.columns]
        if len(right) == 0:
            out = left.copy()
            for c in keep:
                if c not in out.columns:
                    out[c] = np.nan
            return out
        tb = [c for c in (right_tiebreak or []) if c in right.columns]
        right = right[
            [c for c in dict.fromkeys([right_ts, *tb, *keep]) if c in right.columns]
        ].sort_values([right_ts, *tb])
        # merge_asof(direction="backward") picks the positionally-last right
        # row with ts <= left ts, so sorting by (ts, *tiebreak) makes the
        # max-tiebreak row win among same-ts duplicates — a global arg_max.
        out = pd.merge_asof(
            left,
            right,
            left_on=left_ts,
            right_on=right_ts,
            direction="backward",
            suffixes=("", "_r"),
        )
        return out

    return bucketed_cogroup(left_ds, right_ds, [key_col], fn)

