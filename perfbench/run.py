#!/usr/bin/env python3
"""Rollup-engine benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ingest_wide, serve_reads (see perfbench/README.md).
With --trace 0 the run is untraced and its metrics are the end-to-end
metrics of BENCHMARK.json; with --trace 1 the layers are driven one by one
under spans and the metrics are the per-layer ones. Human-readable lines
(box record, loadavg, checks, all metrics with units) come first; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every operation and correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import signal
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest_wide", "serve_reads")
# past this many seconds a run is recorded as failed instead of hanging;
# a run must end within 180 s
TIMEOUT_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0, help="length of the request loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few thousand input rows (smoke test)")
    p.add_argument("--keep", action="store_true", help="keep inputs and outputs under .pbrun/")
    return p.parse_args(argv)


def metric_spec(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def _finite(v) -> bool:
    return isinstance(v, numbers.Real) and math.isfinite(v)


def report(res, trace: bool) -> dict:
    """Print every metric with its unit, then build the result object with
    exactly the metrics BENCHMARK.json names for this mode."""
    out = {}
    for m in metric_spec(trace):
        value = res.metrics.get(m["name"])
        if not _finite(value):
            res.op(False, f"metric {m['name']} missing or not finite: {value}")
            continue
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    for line in res.notes:
        print(line)
    print(f"error_rate={res.failed / max(res.attempted, 1):.6f} "
          f"({res.failed} failed of {res.attempted} attempted)")
    for name, m in out.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    return {"correct": res.failed == 0, "attempted": max(res.attempted, 1),
            "failed": res.failed, "metrics": out}


def _watchdog(timeout: float, ray_tmp: str) -> threading.Timer:
    """Past `timeout`, record the run as failed, stop its Ray processes and
    exit, instead of hanging."""

    def fire():
        from perfbench import box, speed

        print(f"FAILED: run exceeded {timeout:.0f}s", flush=True)
        box.kill_ray_processes(ray_tmp, os.getpid())
        for pid in list(speed.LIVE):  # the reference probe
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}), flush=True)
        os._exit(3)

    t = threading.Timer(timeout, fire)
    t.daemon = True
    return t


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "signalsharp_ray")):
        print(f"error: no signalsharp_ray package next to {HERE}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    from perfbench import workloads

    sess = workloads.Session(args.workload, args.seed)
    dog = _watchdog(TIMEOUT_S, sess.ray_tmp)
    dog.start()
    res = workloads.run(sess, args.workload, args.seed, args.seconds, bool(args.trace), args.tiny, args.keep)
    out = report(res, bool(args.trace))
    dog.cancel()
    print(json.dumps(out), flush=True)
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
