"""serve_reads: a closed-loop single client over a committed corpus.

Each request takes a tier (uniform over 1m/1h/1d) and a series by
popularity rank, Zipf (s = 1.2, the generator's host popularity), then
either fetches the series' range (80%) or fetches and analyzes it (20%).
On the wide input the series are taken uniformly instead (s = 0): a
reader that touches every series alike, as a scan or export of many
short series does.

The request list is the same for every seed, as ranks: request i has
tier i mod 3, is an analyze when i mod 5 == 4, and takes the rank at
quantile frac((i + 1) * golden ratio) of the Zipf distribution. So every
15 requests hold each (tier, kind) pair in the nominal proportions, the
ranks follow Zipf from the first requests on, and a run's latencies vary
with the speed of the code and its corpus, not with a random draw of
series (a 1m analyze of a hot series costs ~50x a 1d one).

- fetch:   read the parquet file holding the series' block row (the
           reader's catalog knows which file of the hive partition that
           is) with pyarrow, `encode.decode_blocks` the row, slice to the
           range
- analyze: fetch, then PELT (l2), CUSUM and EMA on the slice

Ranges end at the series' last bucket: the last day at 1m, the last 7
days at 1h, everything at 1d.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .checks import expected_grid
from .corpus import TIERS, TierSeries, block_catalog
from .inputs import DAY_US

RANGE_US = {"1m": DAY_US, "1h": 7 * DAY_US, "1d": None}
ANALYZE_SHARE = 0.2
ZIPF_S = 1.2  # popularity of the series requested, unless a Corpus says otherwise
GOLDEN = (5 ** 0.5 - 1) / 2
# digest of the analyze replies among the first PINNED_REQUESTS requests
# on the build of the tiny deep input with seed 0 (every run makes that
# build as its warm-up); a change to the read path or the kernels that
# changes any analyze output changes it
PINNED_REQUESTS = 60
PINNED_DIGEST = "8ecad94c45d7db6279e9f35d6fc30155964ae07ef15537a3c2eeceef7f15de35"


@dataclass
class Request:
    kind: str  # fetch | analyze
    tier: str
    key: int


@dataclass
class Reply:
    ts: np.ndarray
    values: np.ndarray
    digest: str | None = None  # of the analyze outputs


class Corpus:
    """The reader's view of a committed output root: per tier, which hive
    partition holds each series' block row, the series ranked by
    popularity (observed points, most first), and the Zipf exponent
    `zipf_s` its requests take ranks by."""

    def __init__(self, out_root: str, zipf_s: float = ZIPF_S):
        from signalsharp_ray.pipelines.flagship import FlagshipConfig

        self.out_root = out_root
        self.zipf_s = zipf_s
        self.catalog = {
            t: block_catalog(os.path.join(out_root, f"blocks_{t}")) for t in TIERS
        }
        self.file_bytes = {
            f: os.path.getsize(f) for cat in self.catalog.values() for f in set(cat.values())
        }
        pts = pq.read_table(os.path.join(out_root, "points", "data"), columns=["url_hash"])
        keys, counts = np.unique(pts["url_hash"].to_numpy(), return_counts=True)
        order = np.lexsort((keys, -counts))
        self.ranked = keys[order]
        cfg = FlagshipConfig()
        self.penalty = cfg.changepoints.penalty
        self.min_size = cfg.changepoints.min_size
        self.alpha = cfg.smoothing.alpha


def request_sequence(corpus: Corpus, start: int = 0):
    """Endless request stream, from request `start` of the fixed list."""
    n = corpus.ranked.size
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -corpus.zipf_s)
    cdf /= cdf[-1]
    every = round(1 / ANALYZE_SHARE)
    i = start
    while True:
        rank = min(int(np.searchsorted(cdf, ((i + 1) * GOLDEN) % 1.0, side="right")), n - 1)
        kind = "analyze" if i % every == every - 1 else "fetch"
        yield Request(kind, TIERS[i % len(TIERS)], int(corpus.ranked[rank]))
        i += 1


def fetch(corpus: Corpus, req: Request, tracer) -> Reply:
    from signalsharp_ray.stages.encode import decode_blocks

    path = corpus.catalog[req.tier][req.key]
    with tracer.span("read.parquet") as a:
        table = pq.read_table(path, use_threads=False)
        table = table.filter(pc.equal(table["url_hash"], req.key))
        a["bytes"] = corpus.file_bytes[path]
    with tracer.span("codecs.decode") as a:
        df = decode_blocks(table)
        ts = df["bucket_ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        vals = df["value"].to_numpy()
        a["points"] = ts.size
    with tracer.span("read.slice") as a:
        span = RANGE_US[req.tier]
        lo = 0 if span is None or not ts.size else np.searchsorted(ts, ts[-1] - span, side="right")
        a["points"] = ts.size - lo
    return Reply(ts[lo:], vals[lo:])


def analyze(corpus: Corpus, req: Request, tracer) -> Reply:
    from signalsharp_ray.kernels.cusum import cusum_changepoints
    from signalsharp_ray.kernels.pelt import pelt_breakpoints
    from signalsharp_ray.kernels.smoothing import exponential_moving_average
    from signalsharp_ray.kernels.stats import zscore

    rep = fetch(corpus, req, tracer)
    x = rep.values
    with tracer.span("kernels.pelt"):
        bkps = pelt_breakpoints(x, corpus.penalty, "l2", corpus.min_size)
    with tracer.span("kernels.cusum"):
        cus = cusum_changepoints(zscore(x)) if x.size >= 2 else np.array([], np.int64)
    with tracer.span("kernels.ema"):
        ema = exponential_moving_average(x, corpus.alpha)
    h = hashlib.sha256()
    for arr in (np.asarray(bkps, np.int64), np.asarray(cus, np.int64), ema):
        h.update(np.ascontiguousarray(arr).tobytes())
    rep.digest = h.hexdigest()
    return rep


def serve(corpus: Corpus, req: Request, tracer) -> Reply:
    with tracer.span(f"request.{req.kind}", tier=req.tier):
        return (analyze if req.kind == "analyze" else fetch)(corpus, req, tracer)


def check_replies(corpus: Corpus, done: list[tuple[Request, Reply]]) -> tuple[int, list[str]]:
    """Every reply must hold exactly the gap-filled tier rows in its range,
    recomputed from the tier parquet. Returns (failures, examples)."""
    from signalsharp_ray.stages.rollup import TIERS_US

    tiers = {t: TierSeries(os.path.join(corpus.out_root, f"tier_{t}")).series for t in TIERS}
    bad = []
    for req, rep in done:
        ts, mean = tiers[req.tier][req.key]
        grid, vals = expected_grid(ts, mean, TIERS_US[req.tier])
        span = RANGE_US[req.tier]
        lo = 0 if span is None else np.searchsorted(grid, grid[-1] - span, side="right")
        if not (np.array_equal(rep.ts, grid[lo:])
                and np.array_equal(rep.values.view(np.int64), vals[lo:].view(np.int64))):
            bad.append(f"{req.kind}:{req.tier}:{req.key}")
    return len(bad), bad[:5]


def analyze_digest(corpus: Corpus, reqs: list[Request], tracer) -> str:
    h = hashlib.sha256()
    for r in reqs:
        h.update(analyze(corpus, r, tracer).digest.encode())
    return h.hexdigest()
