"""signalsharp_ray — a Ray-Data-native time-series rollup + downsample +
retention engine with the numerical capabilities of emmorts/SignalSharp.

Layout:
  common/    constants + exceptions (epsilon values mirror reference
             /root/reference/SignalSharp/Common/Constants.cs:20-48)
  kernels/   pure numpy per-series kernels (stats, smoothing, resampling,
             PELT/CUSUM, cost functions, penalty selection, extrapolation,
             optimizers, Kalman) — the conformance corpus
  codecs/    Gorilla XOR value codec + delta-of-delta timestamp codec
  sources/   synthetic Common-Crawl-style web-page table generator + readers
  stages/    Ray Data map_batches / hash-exchange stages (extract, rollup,
             gap-fill, encode, analysis, text, dedup, similarity, multimodal)
  pipelines/ end-to-end pipelines and the queries()/oracle_sql() registry
  state/     per-partition checkpoint manifest + lineage
"""

__version__ = "0.1.0"


def _stub_fsspec_http() -> None:
    """Applied at import time, before any Dataset reads a file.

    fsspec's http module needs aiohttp, which may be absent. Ray imports it
    on every read and tolerates ModuleNotFoundError, but under CONCURRENT
    Dataset executions a second thread can observe the module mid-failed-
    import and get a plain ImportError instead, crashing the stage. Stub
    the module once so the import is deterministic and thread-safe.
    """
    import sys
    import types

    try:
        import fsspec.implementations.http  # noqa: F401
    except ModuleNotFoundError:
        stub = types.ModuleType("fsspec.implementations.http")

        class _NoHTTPFileSystem:  # sentinel; nothing is ever an instance
            pass

        stub.HTTPFileSystem = _NoHTTPFileSystem
        sys.modules["fsspec.implementations.http"] = stub


_stub_fsspec_http()
