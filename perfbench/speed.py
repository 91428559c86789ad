"""The box's speed, measured with a fixed reference probe.

On a VM whose host runs other guests, the same work takes a varying time
even when the hypervisor steals nothing: other guests share the host's
cores, caches and memory bandwidth. In one 15-second loop of identical
requests the same request took from 6.9 to 12.2 ms. The probe is a fixed
piece of work of the same kind as the benchmark's (a Python loop and a
pyarrow parquet decode of a fixed in-memory file, about 3 ms). Its median
CPU time over an interval, against PROBE_REF_MS, tells how fast the box
ran then; a time at reference speed is a steal-free time x `factor`.
The probe's CPU time leaves out the hypervisor's steal (removed from the
times by their own steal scale) and any wait for a CPU inside the VM, so
the factor does not depend on how many vCPUs the program keeps busy.

- During set-up and the `run_flagship` call the driver's interpreter is
  busy, so `ProbeProcess` runs the probe in a child process every
  PROBE_EVERY_S and records its times in a file.
- During the request loop the client runs the probe itself, between
  requests (`InlineProbe`), so it shares no CPU with the requests.

    python3 -m perfbench.speed <times file> <parent pid>

runs the probe loop until the parent process is gone.
"""

from __future__ import annotations

import io
import os
import statistics
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the probe's CPU time at reference speed (about its median on an idle
# 4-vCPU VM); times are reported at this speed
PROBE_REF_MS = 2.6
PROBE_EVERY_S = 0.1
# pids of running probe processes, for the run's watchdog
LIVE: set[int] = set()

_PARQUET = None


def _parquet() -> bytes:
    global _PARQUET
    if _PARQUET is None:
        rng = np.random.default_rng(0)
        table = pa.table({
            "k": np.arange(2000),
            "b": pa.array([rng.bytes(64) for _ in range(2000)], pa.binary()),
        })
        buf = io.BytesIO()
        pq.write_table(table, buf)
        _PARQUET = buf.getvalue()
    return _PARQUET


def probe_ms() -> float:
    """Run the fixed reference work once, on this thread; the process's
    CPU time for it in ms."""
    data = _parquet()
    t0 = time.process_time()
    x = 0
    for i in range(20000):
        x += i * i
    pq.read_table(pa.BufferReader(data), use_threads=False).to_pandas(use_threads=False)
    return (time.process_time() - t0) * 1e3


def factor(times_ms: list[float]) -> float:
    """PROBE_REF_MS / the median probe time: multiply a time by it to get
    the time at reference speed."""
    return PROBE_REF_MS / statistics.median(times_ms)


class InlineProbe:
    """The probe run by the client between requests, at most every
    PROBE_EVERY_S; `take` returns the speed factor since the last take."""

    def __init__(self):
        _parquet()
        self.last = 0.0
        self.times: list[float] = []

    def maybe(self) -> None:
        now = time.perf_counter()
        if now - self.last >= PROBE_EVERY_S:
            self.times.append(probe_ms())
            self.last = time.perf_counter()

    def take(self) -> float:
        if not self.times:
            self.times.append(probe_ms())
        f = factor(self.times)
        self.times = []
        return f


class ProbeProcess:
    """The probe in a child process (`main`), every PROBE_EVERY_S, for the
    length of the `with` block. `factor(t0, t1)` gives the speed factor
    over a perf_counter interval inside the block."""

    def __init__(self, path: str):
        self.path = path
        self.proc = None

    def __enter__(self):
        open(self.path, "w").close()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.speed", self.path, str(os.getpid())],
            cwd=ROOT, stdin=subprocess.DEVNULL)
        LIVE.add(self.proc.pid)
        deadline = time.monotonic() + 30
        while os.path.getsize(self.path) == 0 and time.monotonic() < deadline:
            time.sleep(0.05)  # until its first probe is in
        return self

    def __exit__(self, *exc):
        self.proc.kill()
        self.proc.wait()
        LIVE.discard(self.proc.pid)
        return False

    @property
    def pid(self) -> int:
        return self.proc.pid

    def factor(self, t0: float, t1: float) -> float:
        with open(self.path) as f:
            rows = [tuple(map(float, line.split())) for line in f if line.endswith("\n")]
        inside = [ms for t, ms in rows if t0 <= t <= t1]
        if not inside:  # an interval shorter than the probe period
            inside = [min(rows, key=lambda r: abs(r[0] - (t0 + t1) / 2))[1]]
        return factor(inside)


def main(path: str, parent: int) -> None:
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    with open(path, "a", buffering=1) as out:
        while os.getppid() == parent:
            t0 = time.perf_counter()
            ms = probe_ms()
            out.write(f"{(t0 + time.perf_counter()) / 2:.6f} {ms:.4f}\n")
            time.sleep(PROBE_EVERY_S)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
