"""Round-4 batch 127: the compression codecs as DRIVER-VERIFIED query
surface — a Gorilla XOR + delta-of-delta roundtrip whose output rows are
the DECODED series (so the DuckDB oracle, which recomputes the rollup
directly, hash-verifies the whole encode->decode leg end to end), the
same roundtrip over IRREGULAR raw event timestamps (delta-of-delta's
hard case: arbitrary gaps, not a fixed grid), and the per-type
compression-ratio statistics (rows-only by design — byte counts have no
SQL ground truth; the two roundtrip twins carry the code path).

House parity: the roundtrip queries emit ONLY decoded data — Gorilla
stores raw IEEE bits (bit-exact roundtrip) and delta-of-delta stores
exact integer microseconds, so decoded mean/timestamp columns equal the
oracle's recomputation bitwise; means divide exact centivalue sums in
the shared (csum/n)/100 op order.

Scale contracts: rollups reduce through one bucketed exchange; each
roundtrip encodes and decodes all its series with one segmented call per
codec; the irregular-timestamp
roundtrip restricts to the user_id < 50 probe panel (bloom_dedup_probe
pattern) so the panel is bounded at any scale."""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..codecs.dod import (
    decode_timestamps_dod_segments,
    encode_timestamps_dod,
    encode_timestamps_dod_segments,
)
from ..codecs.gorilla import (
    decode_values_gorilla_segments,
    encode_values_gorilla,
    encode_values_gorilla_segments,
)
from ..common.raytools import hash_bucket_aggregate
from ..stages.rollup import series_offsets
from .queries2 import _events, _r6away
from .queries6 import HOUR_US

QUERIES127: dict = {}
ORACLES127: dict = {}

DOD_PANEL_USERS = 50


def _hourly_value_rollup(sf_dir: str) -> pd.DataFrame:
    """(event_type, hour_us, n_sum, csum_sum) via one exchange."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        hour = (
            batch["ts"].to_numpy("datetime64[us]").view(np.int64) // HOUR_US
        ) * HOUR_US
        v = batch["value"].to_numpy(np.float64)
        c = (np.sign(v * 100) * np.floor(np.abs(v * 100) + 0.5)).astype(
            np.int64
        )
        return (
            pd.DataFrame(
                {
                    "event_type": batch["event_type"],
                    "hour_us": hour,
                    "n": np.ones(len(batch), dtype=np.int64),
                    "csum": c,
                }
            )
            .groupby(["event_type", "hour_us"], sort=False)
            .sum()
            .reset_index()
        )

    return hash_bucket_aggregate(
        _events(sf_dir, ["event_type", "ts", "value"]).map_batches(
            partial, batch_format="pandas"
        ),
        ["event_type", "hour_us"],
        [("n", "sum"), ("csum", "sum")],
    ).to_pandas()


# ---------------------------------------------------------------------------
# Gorilla + DoD roundtrip, hash-verified against the recomputed rollup
# ---------------------------------------------------------------------------


def q_gorilla_roundtrip_audit(sf_dir: str):
    """Per (event_type, hour): the hourly mean value AFTER a full
    Gorilla-XOR encode/decode of the mean series and a delta-of-delta
    encode/decode of the hour timestamps. Because both codecs are
    lossless (raw IEEE bits; exact integer microseconds), the decoded
    table must hash-match the oracle's direct rollup — the query-level
    proof of the flagship's compressed-block contract
    (stages/encode.py), per SignalSharp's rolled-up-points-match
    requirement."""
    agg = _hourly_value_rollup(sf_dir).sort_values(["event_type", "hour_us"])
    et = agg["event_type"].to_numpy()
    offsets = series_offsets(et)
    n = agg["n_sum"].to_numpy(np.int64)
    c = agg["csum_sum"].to_numpy(np.int64)
    means = (c.astype(np.float64) / n.astype(np.float64)) / 100.0
    # one encode and one decode per codec over every event_type's series
    ts_dec, _ = decode_timestamps_dod_segments(
        encode_timestamps_dod_segments(agg["hour_us"].to_numpy(np.int64), offsets))
    v_dec, _ = decode_values_gorilla_segments(encode_values_gorilla_segments(means, offsets))
    return pd.DataFrame(
        {
            "event_type": et,
            "hour": ts_dec.astype("datetime64[us]"),
            "n_events": n,
            "mean_value": _r6away(v_dec),
        }
    )


ORACLES127["gorilla_roundtrip_audit"] = """
SELECT event_type, date_trunc('hour', ts) AS hour,
       CAST(COUNT(*) AS BIGINT) AS n_events,
       ROUND(CAST(SUM(CAST(ROUND(value * 100) AS BIGINT)) AS DOUBLE)
             / CAST(COUNT(*) AS DOUBLE) / CAST(100.0 AS DOUBLE), 6)
         AS mean_value
FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Delta-of-delta roundtrip over irregular raw timestamps
# ---------------------------------------------------------------------------


def q_dod_irregular_roundtrip(sf_dir: str):
    """Per user of the user_id < 50 probe panel: every raw event
    timestamp, sequence-numbered, after a delta-of-delta encode/decode
    of the user's (sorted) microsecond timestamps — the codec's hard
    case (arbitrary irregular gaps, including zero and sign-flipping
    second differences). The oracle simply re-emits the sorted
    timestamps, so any codec bit slip is a hash failure."""

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["user_id"].to_numpy(np.int64) < DOD_PANEL_USERS]

    panel = (
        _events(sf_dir, ["user_id", "ts", "event_id"])
        .map_batches(keep, batch_format="pandas")
        .to_pandas()
        .sort_values(["user_id", "ts", "event_id"])
    )
    uid = panel["user_id"].to_numpy(np.int64)
    offsets = series_offsets(uid)
    dec, _ = decode_timestamps_dod_segments(encode_timestamps_dod_segments(
        panel["ts"].to_numpy("datetime64[us]").view(np.int64), offsets))
    return pd.DataFrame(
        {
            "user_id": uid,
            "seq": np.arange(uid.size, dtype=np.int64) - np.repeat(offsets[:-1], np.diff(offsets)),
            "ts": dec.astype("datetime64[us]"),
        }
    )


ORACLES127["dod_irregular_roundtrip"] = f"""
SELECT user_id,
       CAST(ROW_NUMBER() OVER (PARTITION BY user_id
                               ORDER BY ts, event_id) - 1 AS BIGINT) AS seq,
       ts
FROM events WHERE user_id < {DOD_PANEL_USERS}
"""


# ---------------------------------------------------------------------------
# Compression-ratio statistics (rows-only by design)
# ---------------------------------------------------------------------------


def q_codec_compression_stats(sf_dir: str):
    """Per event_type: raw vs encoded byte sizes of the hourly mean
    series under Gorilla (values) and delta-of-delta (timestamps), plus
    the combined compression ratio — the storage-planning table for the
    continuous-aggregate tiers. Rows-only by design: byte counts have no
    SQL ground truth; the roundtrip twins in this batch hash-verify the
    same code path, and codec unit tests pin the bit layout."""
    agg = _hourly_value_rollup(sf_dir).sort_values(["event_type", "hour_us"])
    rows = []
    for et, g in agg.groupby("event_type", sort=True):
        ts = g["hour_us"].to_numpy(np.int64)
        n = g["n_sum"].to_numpy(np.int64)
        c = g["csum_sum"].to_numpy(np.int64)
        means = (c.astype(np.float64) / n.astype(np.float64)) / 100.0
        gb = encode_values_gorilla(means)
        db = encode_timestamps_dod(ts)
        raw = 16 * len(ts)  # 8B timestamp + 8B float per point
        enc = len(gb) + len(db)
        rows.append(
            (
                et,
                len(ts),
                raw,
                len(gb),
                len(db),
                float(_r6away(float(raw) / float(enc))) if enc else 0.0,
            )
        )
    return pd.DataFrame(
        rows,
        columns=[
            "event_type",
            "n_points",
            "raw_bytes",
            "gorilla_bytes",
            "dod_bytes",
            "compression_ratio",
        ],
    ).astype(
        {
            "n_points": np.int64,
            "raw_bytes": np.int64,
            "gorilla_bytes": np.int64,
            "dod_bytes": np.int64,
        }
    )


QUERIES127["gorilla_roundtrip_audit"] = q_gorilla_roundtrip_audit
QUERIES127["dod_irregular_roundtrip"] = q_dod_irregular_roundtrip
QUERIES127["codec_compression_stats"] = q_codec_compression_stats
