"""The box-and-load record, the process-tree memory sampler, and the
clean-up of Ray processes a killed earlier run left behind."""

from __future__ import annotations

import os
import platform
import re
import shutil
import signal
import subprocess
import threading
import time


def nproc() -> int:
    """What `nproc` prints: it honours OMP_NUM_THREADS/OMP_THREAD_LIMIT,
    then the CPU affinity mask."""
    exe = shutil.which("nproc")
    if exe:
        out = subprocess.run([exe], capture_output=True, text=True, check=False)
        if out.returncode == 0 and out.stdout.strip().isdigit():
            return int(out.stdout.strip())
    return len(os.sched_getaffinity(0))


def _mem_total_mb() -> float:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def box_record() -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "ram_mb": round(_mem_total_mb(), 1),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
    }


def loadavg() -> list[float]:
    return list(os.getloadavg())


def cpu_seconds() -> dict:
    """Box-wide CPU seconds since boot from /proc/stat: `busy` (user, nice,
    system, irq, softirq) and `steal` (time the hypervisor ran someone
    else while this box had work)."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:]]
    hz = os.sysconf("SC_CLK_TCK")
    return {"busy": (t[0] + t[1] + t[2] + t[5] + t[6]) / hz, "steal": t[7] / hz}


def tree_rss_mb(root_pid: int, exclude: set[int] = frozenset()) -> float:
    """Summed RSS of `root_pid` and all its descendants (the benchmark,
    the Ray head processes it started and the raylet's workers), less
    the processes in `exclude` and their descendants."""
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    kids: dict[int, list[int]] = {}
    rss: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces or parentheses; fields resume
        # after the last ')' with field 3 (state)
        fields = stat[stat.rindex(")") + 2:].split()
        kids.setdefault(int(fields[1]), []).append(int(name))
        rss[int(name)] = int(fields[21])
    total = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        if pid in exclude:
            continue
        todo.extend(kids.get(pid, ()))
        total += rss.get(pid, 0)
    return total * page_kb / 1024.0


def self_peak_rss_mb() -> float:
    """This process's own peak RSS over its life."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def steal_scale(c0: dict, c1: dict) -> float:
    """busy / (busy + steal) between two `cpu_seconds()` readings: the
    share of the time this box's work wanted a CPU that it got one.
    Multiplying a wall time by it removes the hypervisor's steal."""
    busy = c1["busy"] - c0["busy"]
    steal = c1["steal"] - c0["steal"]
    return busy / (busy + steal) if busy + steal > 0 else 1.0


class Timed:
    """Wall time of a block (perf_counter `t0`..`t1`), and the same time
    with the hypervisor's steal over it removed (`steal_free` = wall x
    steal scale)."""

    def __enter__(self):
        self.c0 = cpu_seconds()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        self.wall = self.t1 - self.t0
        self.scale = steal_scale(self.c0, cpu_seconds())
        self.steal_free = self.wall * self.scale
        return False


class MemSampler:
    """Samples the summed RSS of this process tree on a daemon thread and
    keeps the peak. Twice a second: each sample walks /proc while holding
    the driver's interpreter lock. Each sample also records the box's CPU
    seconds, so `scale` can give the steal over a past interval."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.cpu: list[tuple[float, dict]] = []  # (perf_counter, cpu_seconds())
        self.exclude: set[int] = set()  # pids left out of the sum
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pid = os.getpid()
        while not self._stop.is_set():
            self.cpu.append((time.perf_counter(), cpu_seconds()))
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pid, self.exclude))
            self._stop.wait(self.interval_s)

    def scale(self, t0: float, t1: float) -> float:
        """The steal scale from the last sample at or before `t0` to the
        first at or after `t1` (perf_counter times)."""
        samples = list(self.cpu)
        before = [c for t, c in samples if t <= t0] or [samples[0][1]]
        after = [c for t, c in samples if t >= t1] or [samples[-1][1]]
        return steal_scale(before[-1], after[0])

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        return False


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def ray_processes(ray_tmp: str, driver_pid: int | None = None) -> list[int]:
    """PIDs of Ray processes (raylet, gcs_server, log monitor, agents) of
    this benchmark's sessions under `ray_tmp`: those of the session that
    driver process `driver_pid` started, or, when None, those whose driver
    is gone (the leftovers of a killed run). Ray names each session dir
    after its driver's pid, so no other Ray cluster on the box, and no
    concurrent run, is ever matched."""
    pattern = re.compile(re.escape(ray_tmp.rstrip("/")) + r"/session_[^/\s]*_(\d+)")
    me = os.getpid()
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        m = pattern.search(_cmdline(int(name)))
        if m is None:
            continue
        owner = int(m.group(1))
        if owner == driver_pid or (driver_pid is None and not os.path.exists(f"/proc/{owner}")):
            out.append(int(name))
    return out


def kill_ray_processes(ray_tmp: str, driver_pid: int | None = None, timeout_s: float = 10.0) -> int:
    """SIGKILL the Ray processes `ray_processes` names and wait until they
    are gone. Returns how many were found."""
    pids = ray_processes(ray_tmp, driver_pid)
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline and any(os.path.exists(f"/proc/{p}") for p in pids):
        for p in pids:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)
    return len(pids)
