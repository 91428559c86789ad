"""The three workloads, untraced and traced.

Every run owns one fresh Ray session (num_cpus = nproc) under .pbrun/ray
and drives all load from this one thread.
Correctness checks run after the timed work, in the same process; each
check and each operation counts once in `attempted`.
"""

from __future__ import annotations

import gc
import hashlib
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field

import pyarrow as pa

from . import box, speed
from .corpus import manifest, payload_bits
from .inputs import SHAPES, TINY, write_input
from .spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3
OBJECT_STORE_MB = 512
# AF_UNIX socket paths are capped at 107 bytes; Ray adds up to 65 to its
# temp dir ("/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store")
MAX_RAY_TMP = 42
# the digest of this many analyze replies is printed, so runs with the
# same seed can be compared
DIGEST_REQUESTS = 6
# the request loop reads the box's steal and speed per window of about
# this many seconds
WINDOW_S = 1.0
# serve_reads builds and reads the deep input (it stands for the
# ingest_deep workload too), ingest_wide the wide one
INPUT_OF = {"ingest_wide": "wide", "serve_reads": "deep"}
# the Zipf exponent of the series the request loop takes on the wide
# input (serve.ZIPF_S elsewhere). There, Zipf 1.2 put the analyze median
# on the edge between the cheap reads (1d, and 1m or 1h ones of sparse
# series) and the 168-point 1h ones, and the analyze tail on the edge of
# the group of dense 1m reads of the five most popular series; both
# moved by 20-27% over ten seeds. Uniform reads exercise what the wide
# input is for: many short series, where opening the partition costs
# more than decoding.
WIDE_READS_ZIPF = 0.0
# On the wide input the requests are cheap (about 3 ms) and spread over
# about 6k series whose sizes are heavy-tailed, so a 12 s loop holds
# about 2300 of them and its tails, the 11th-slowest fetch and analyze,
# lie past p99 and p97. There they moved with how many requests a run
# completed (a fetch tail spread of 0.26 over ten seeds), and with passes
# of 500 requests (tails at p97.5 and p90) still by 0.25. So the loop
# repeats the first PASS_REQUESTS of the request list, and each latency
# metric is the median over the complete passes of that pass's p50 or
# tail: every pass holds the same requests. Other workloads make one pass.
PASS_REQUESTS = {"ingest_wide": 250}


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # name -> value
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)  # human-readable lines

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {what}")

    def checks(self, results) -> None:
        for name, ok, detail in results:
            self.op(ok, f"check {name}: {detail}")
            self.notes.append(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")


class Session:
    """Run directory, Ray session and clean-up for one benchmark process."""

    def __init__(self, workload: str, seed: int):
        self.name = f"{workload}-s{seed}"
        self.base = os.path.join(ROOT, ".pbrun")
        self.dir = os.path.join(self.base, f"{self.name}-{os.getpid()}")
        self.ray_tmp = os.path.join(self.base, "ray")
        if len(self.ray_tmp) > MAX_RAY_TMP:
            # a checkout path too long for Ray's unix sockets
            import tempfile

            self.ray_tmp = tempfile.mkdtemp(prefix="perfbench-ray-")
        self.started = False

    def start_ray(self, ncpu: int) -> None:
        os.makedirs(self.dir, exist_ok=True)
        os.makedirs(self.ray_tmp, exist_ok=True)
        box.kill_ray_processes(self.ray_tmp)  # leftovers of killed runs
        import logging

        import ray

        ray.init(
            address="local",
            num_cpus=ncpu,
            include_dashboard=False,
            logging_level="ERROR",
            object_store_memory=OBJECT_STORE_MB << 20,
            _temp_dir=self.ray_tmp,
            runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
        )
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        self.started = True

    def stop_ray(self) -> None:
        if self.started:
            import ray

            ray.shutdown()
            self.started = False
        box.kill_ray_processes(self.ray_tmp, os.getpid())

    def stop(self, keep: bool = False) -> None:
        self.stop_ray()
        if not keep:
            shutil.rmtree(self.dir, ignore_errors=True)
            if not self.ray_tmp.startswith(self.base):
                shutil.rmtree(self.ray_tmp, ignore_errors=True)
            else:
                for d in os.listdir(self.ray_tmp):
                    if d.startswith("session_") and d.endswith(f"_{os.getpid()}"):
                        shutil.rmtree(os.path.join(self.ray_tmp, d), ignore_errors=True)


def _ref_s(t: box.Timed, probe: speed.ProbeProcess) -> float:
    """A timed block's seconds at reference speed: steal-free, then
    scaled by the probe's speed factor over the block."""
    return t.steal_free * probe.factor(t.t0, t.t1)


def _prepare_input(sess: Session, shape, seed: int, res: Result, probe):
    """Generate the input SETUP_REPEATS times (identical bytes each time)
    and return it with the median generation time, wall and at
    reference speed."""
    walls, refs, gi = [], [], None
    for i in range(SETUP_REPEATS):
        with box.Timed() as t:
            g = write_input(shape, seed, os.path.join(sess.dir, "input"))
        walls.append(t.wall)
        refs.append(_ref_s(t, probe))
        if gi is not None and (g.rows, g.bytes, g.distinct_url_ts) != (gi.rows, gi.bytes, gi.distinct_url_ts):
            res.op(False, "input generation is not deterministic")
        gi = g
    res.notes.append(f"input {shape.name}: rows={gi.rows} bytes={gi.bytes} "
                     f"distinct(url,warc_ts)={gi.distinct_url_ts} distinct(url)={gi.distinct_urls}")
    return gi, statistics.median(walls), statistics.median(refs)


def _warm_up(sess: Session) -> tuple[box.Timed, str]:
    """One run_flagship call over the tiny deep input (seed 0), so the
    measured call does not pay for worker start, module imports and
    first-call costs (a cold deep call takes ~1.5x a warm one). Returns
    its time and its output root, which the pinned analyze digest check
    reads."""
    with box.Timed() as t:
        gi = write_input(TINY["deep"], 0, os.path.join(sess.dir, "warmup_in"))
        out_root = os.path.join(sess.dir, "warmup_out")
        _flagship(gi, out_root, "perfbench:warmup")
    return t, out_root


def _setup(sess: Session, shape, seed: int, res: Result, probe):
    """Start Ray, generate the input and warm up. Returns the input, the
    set-up's wall seconds and seconds at reference speed, and the
    warm-up's output root."""
    with box.Timed() as ray_t:
        sess.start_ray(box.nproc())
    gi, gen_wall, gen_ref = _prepare_input(sess, shape, seed, res, probe)
    warm_t, warm_root = _warm_up(sess)
    wall = ray_t.wall + gen_wall + warm_t.wall
    ref = _ref_s(ray_t, probe) + gen_ref + _ref_s(warm_t, probe)
    res.notes.append(f"setup: ray_init={ray_t.wall:.3f}s gen_median={gen_wall:.3f}s "
                     f"warmup={warm_t.wall:.3f}s wall={wall:.3f}s at reference speed={ref:.3f}s")
    return gi, wall, ref, warm_root


def _flagship(gi, out_root: str, fingerprint: str, mem: box.MemSampler | None = None,
              probe: speed.ProbeProcess | None = None) -> dict:
    """One untraced run_flagship call with FlagshipConfig defaults: its
    wall time, the seconds from the call until tier_1m committed, both
    also steal-free and at reference speed, and the box's busy and steal
    CPU seconds over the call. The steal up to the commit comes from
    `mem`'s CPU samples, the speed from `probe`'s."""
    import ray.data as rd

    from signalsharp_ray.pipelines.flagship import FlagshipConfig, run_flagship

    shutil.rmtree(out_root, ignore_errors=True)
    c0 = box.cpu_seconds()
    t_wall = time.time()
    t0 = time.perf_counter()
    run_flagship(lambda: rd.read_parquet(gi.path), fingerprint, FlagshipConfig(out_root=out_root))
    wall = time.perf_counter() - t0
    c1 = box.cpu_seconds()
    committed = manifest(out_root)["tier_1m"]["completed_at"]
    scale = box.steal_scale(c0, c1)
    fresh = committed - t_wall
    fresh_free = fresh * (mem.scale(t0, t0 + fresh) if mem else scale)
    return {
        "wall": wall,
        "steal_scale": scale,
        "steal_free": wall * scale,
        "ref": wall * scale * (probe.factor(t0, t0 + wall) if probe else 1.0),
        "fresh_1m": fresh,
        "fresh_1m_free": fresh_free,
        "fresh_1m_ref": fresh_free * (probe.factor(t0, t0 + fresh) if probe else 1.0),
        "busy": c1["busy"] - c0["busy"],
        "steal": c1["steal"] - c0["steal"],
    }


def _ingest_outputs(out_root: str, gi) -> dict:
    bits, points = payload_bits(out_root)
    stored = sum(rec["bytes"] for rec in manifest(out_root).values())
    return {"blocks_bits_per_point": bits / points, "stored_bytes_per_row": stored / gi.rows}


def _ingest_checks(res: Result, out_root: str, gi, seed: int) -> None:
    from .checks import ingest_checks

    res.checks(ingest_checks(out_root, gi.distinct_url_ts, gi.distinct_urls, seed))


def run_workload(name: str, seed: int, seconds: float, tiny: bool, trace: bool,
                 sess: Session, res: Result) -> None:
    """Set up, make the run_flagship call(s), stop Ray, then serve reads
    from the committed output for `seconds`. serve_reads counts the build
    in its set-up; ingest_wide does not.

    Every time metric is a wall time at reference speed: less the share
    of it the hypervisor gave this VM's CPUs to other guests (box-wide
    /proc/stat steal over the same interval), then scaled by the speed
    the reference probe saw over it (perfbench/speed.py). Each run also
    prints the raw wall times and the requests' process CPU times beside
    them."""
    from .serve import ZIPF_S, Corpus

    shape = (TINY if tiny else SHAPES)[INPUT_OF[name]]
    os.makedirs(sess.dir, exist_ok=True)
    with box.MemSampler() as mem, speed.ProbeProcess(os.path.join(sess.dir, "probe.txt")) as probe:
        mem.exclude.add(probe.pid)
        gi, setup_wall, setup_s, warm_root = _setup(sess, shape, seed, res, probe)
        fp = f"perfbench:{name}:{seed}"
        if trace:
            tracer = Tracer(f"{sess.name}-{os.getpid()}")
            out_root, layer = _traced(tracer, gi, seed, fp, sess, res)
        else:
            out_root = os.path.join(sess.dir, "out")
            run = _flagship_checked(gi, seed, out_root, fp, res, mem, probe)
        # the reads need no Ray; its idle processes would only add noise,
        # and neither should collections of the heap the Ray driver left
        sess.stop_ray()
        gc.collect()
        gc.freeze()
        # one client thread: pyarrow's pools would run reads on other threads
        pa.set_cpu_count(1)
        pa.set_io_thread_count(1)
        with box.Timed() as corpus_t:
            corpus = Corpus(out_root, WIDE_READS_ZIPF if name == "ingest_wide" else ZIPF_S)
            _pinned_digest_check(warm_root, res)
        corpus_ref = _ref_s(corpus_t, probe)
    if trace:
        _serve_loop(corpus, seconds, tracer, res)
        layer.update(_read_layer_metrics(tracer))
        _overhead(corpus, layer)
        res.metrics.update(layer)
        _write_spans(tracer, sess, res)
        return
    if name == "serve_reads":
        setup_wall += run["wall"] + corpus_t.wall
        setup_s += run["ref"] + corpus_ref
    res.notes.append(f"setup_s: wall={setup_wall:.3f}s at reference speed={setup_s:.3f}s")
    res.metrics["setup_s"] = setup_s
    res.metrics["mem_peak_mb"] = max(mem.peak_mb, box.self_peak_rss_mb())
    res.metrics["ingest_rows_per_s"] = gi.rows / run["ref"]
    res.metrics["fresh_1m_s"] = run["fresh_1m_ref"]
    res.metrics["blocks_bits_per_point"] = run["blocks_bits_per_point"]
    res.metrics["stored_bytes_per_row"] = run["stored_bytes_per_row"]

    lat = _serve_loop(corpus, seconds, Tracer("off", enabled=False), res, PASS_REQUESTS.get(name))
    for kind in ("fetch", "analyze"):
        ref = lat["ref"][kind]
        if not ref:
            res.op(False, f"no {kind} requests completed")
            continue
        passes = [[ms for p, ms in ref if p == i] for i in range(lat["passes"])] or [[ms for _, ms in ref]]
        tails = [_tail(v) for v in passes]
        res.metrics[f"{kind}_p50_ms"] = statistics.median(statistics.median(v) for v in passes)
        res.metrics[f"{kind}_tail_ms"] = statistics.median(t for t, _ in tails)
        wall, cpu = lat["wall"][kind], lat["cpu"][kind]
        res.notes.append(f"{kind}_tail_ms is p{tails[0][1]:.2f} over {len(passes[0])} samples "
                         f"(median over {len(passes)} pass(es)); all {len(wall)} samples: wall "
                         f"p50={statistics.median(wall):.3f}ms tail={_tail(wall)[0]:.3f}ms; process CPU "
                         f"p50={statistics.median(cpu):.3f}ms tail={_tail(cpu)[0]:.3f}ms")


def _flagship_checked(gi, seed, out_root, fp, res: Result, mem, probe) -> dict:
    la0 = box.loadavg()
    run = _flagship(gi, out_root, fp, mem, probe)
    res.op(True, "run_flagship")
    res.notes.append(f"run_flagship: wall={run['wall']:.3f}s steal-free={run['steal_free']:.3f}s "
                     f"at reference speed={run['ref']:.3f}s "
                     f"fresh_1m wall={run['fresh_1m']:.3f}s steal-free={run['fresh_1m_free']:.3f}s "
                     f"at reference speed={run['fresh_1m_ref']:.3f}s "
                     f"box cpu busy={run['busy']:.2f}s steal={run['steal']:.2f}s "
                     f"steal scale={run['steal_scale']:.3f} "
                     f"loadavg before={la0} after={box.loadavg()}")
    stages = manifest(out_root)
    res.notes.append("run_flagship stages: " + " ".join(
        f"{k}={v['wall_s']:.2f}s" for k, v in stages.items())
        + f"; overlap (sum of stage walls / call wall) = "
        f"{sum(v['wall_s'] for v in stages.values()) / run['wall']:.2f}")
    _ingest_checks(res, out_root, gi, seed)
    return {**run, **_ingest_outputs(out_root, gi)}


def _traced(tracer, gi, seed: int, fp: str, sess: Session, res: Result):
    """The traced build: the layer-by-layer build under spans, then the
    in-process kernel and codec passes. Returns the traced output root and
    its per-layer metrics."""
    from .layers import codec_pass, ingest_layer_metrics, kernel_passes, traced_pipeline

    out_root = os.path.join(sess.dir, "out")
    stages = traced_pipeline(tracer, gi.path, fp, out_root)
    kernel_s = kernel_passes(tracer, out_root)
    codec = codec_pass(tracer, out_root)
    layer = ingest_layer_metrics(tracer, out_root, gi.rows, stages, kernel_s, codec)
    _ingest_checks(res, out_root, gi, seed)
    layer["trace.self_sum_s"] = sum(tracer.self_times())
    layer["trace.span_overhead_s"] = len(tracer.spans) * _span_cost()
    res.notes.append(f"tracing: sum of self times {layer['trace.self_sum_s']:.3f}s over "
                     f"{len(tracer.spans)} spans (build + kernel passes); recorder cost "
                     f"{layer['trace.span_overhead_s']:.4f}s")
    return out_root, layer


def _span_cost() -> float:
    """Seconds one empty span costs the recorder."""
    t = Tracer("cost")
    t0 = time.perf_counter()
    for _ in range(2000):
        with t.span("x"):
            pass
    return (time.perf_counter() - t0) / 2000


def _write_spans(tracer, sess: Session, res: Result) -> None:
    span_dir = os.path.join(sess.base, "spans")
    os.makedirs(span_dir, exist_ok=True)
    path = os.path.join(span_dir, f"{tracer.run_id}.jsonl")
    tracer.write(path)
    totals = tracer.totals()
    res.notes.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
    for name in sorted(totals, key=lambda n: -totals[n]["self_s"]):
        t = totals[name]
        res.notes.append(f"span {name}: n={t['n']} total={t['total_s']:.3f}s self={t['self_s']:.3f}s")


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with fewer than eleven samples, the maximum."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def _serve_loop(corpus, seconds, tracer, res: Result, period: int | None = None):
    """Closed loop, one client: issue the next request as soon as the
    previous reply is in, then check every reply. With a `period`, the
    loop starts the request list again after every `period` requests.
    Returns per kind the requests' wall latencies, their (pass, latency at
    reference speed) and their process CPU times, in ms, and under
    "passes" the number of complete passes (0 without a period). Between
    requests, the client runs the
    reference probe about every speed.PROBE_EVERY_S and reads the steal
    from /proc/stat about every WINDOW_S; each request's wall latency is
    scaled by the steal scale and the probe's speed factor of the window
    it ran in."""
    from .serve import check_replies, request_sequence, serve

    lat = {k: {"fetch": [], "analyze": []} for k in ("wall", "ref", "cpu")}
    probe = speed.InlineProbe()
    window = []  # (kind, pass, wall ms) of the requests in the open window
    done = []
    issued = 0
    la0, c0 = box.loadavg(), box.cpu_seconds()
    t_win, c_win = time.perf_counter(), c0

    def close_window():
        nonlocal t_win, c_win
        c = box.cpu_seconds()
        scale = box.steal_scale(c_win, c) * probe.take()
        for kind, p, ms in window:
            lat["ref"][kind].append((p, ms * scale))
        window.clear()
        t_win, c_win = time.perf_counter(), c

    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        if issued == 0 or (period and issued % period == 0):
            reqs = request_sequence(corpus)
        pass_no = issued // period if period else 0
        issued += 1
        req = next(reqs)
        t0, p0 = time.perf_counter(), time.process_time()
        try:
            rep = serve(corpus, req, tracer)
        except Exception as e:  # a failed request counts; the loop goes on
            res.op(False, f"{req.kind} request {req}: {e!r}")
            continue
        t1 = time.perf_counter()
        lat["cpu"][req.kind].append((time.process_time() - p0) * 1e3)
        lat["wall"][req.kind].append((t1 - t0) * 1e3)
        window.append((req.kind, pass_no, (t1 - t0) * 1e3))
        probe.maybe()
        if t1 - t_win >= WINDOW_S:
            close_window()
        done.append((req, rep))
        res.op(True, f"{req.kind} request")
    close_window()
    lat["passes"] = issued // period if period else 0
    res.notes.append(f"requests: fetch={len(lat['wall']['fetch'])} analyze={len(lat['wall']['analyze'])} "
                     f"steal scale={box.steal_scale(c0, box.cpu_seconds()):.3f} "
                     f"loadavg before={la0} after={box.loadavg()}")
    n_bad, examples = check_replies(corpus, done)
    res.checks([("fetch_ranges", n_bad == 0, f"{len(done)} replies, mismatched={n_bad} {examples}")])

    h = hashlib.sha256()
    for _, r in [(q, r) for q, r in done if q.kind == "analyze"][:DIGEST_REQUESTS]:
        h.update(r.digest.encode())
    res.notes.append(f"analyze_digest_first{DIGEST_REQUESTS}={h.hexdigest()}")
    return lat


def _pinned_digest_check(warm_root: str, res: Result) -> None:
    """The analyze replies among the first PINNED_REQUESTS requests on the
    warm-up build (tiny deep input, seed 0) must digest to the value
    stored in serve.py, in every run."""
    from .serve import PINNED_DIGEST, PINNED_REQUESTS, Corpus, analyze_digest, request_sequence

    corpus = Corpus(warm_root)
    gen = request_sequence(corpus)
    reqs = [r for r in (next(gen) for _ in range(PINNED_REQUESTS)) if r.kind == "analyze"]
    got = analyze_digest(corpus, reqs, Tracer("pinned", enabled=False))
    res.checks([("analyze_digest", got == PINNED_DIGEST,
                 f"{len(reqs)} analyze replies on the warm-up build: {got[:16]}, "
                 f"stored {PINNED_DIGEST[:16]}")])


def _read_layer_metrics(tracer) -> dict:
    totals = {}
    for s in tracer.spans:
        if s["name"].startswith(("read.", "codecs.decode", "kernels.")):
            a = totals.setdefault(s["name"], {"n": 0, "s": 0.0, "bytes": 0, "points": 0})
            a["n"] += 1
            a["s"] += s["end"] - s["start"]
            a["bytes"] += s["attrs"].get("bytes", 0)
            a["points"] += s["attrs"].get("points", 0)
    n_fetch = totals["read.parquet"]["n"]
    n_an = totals.get("kernels.pelt", {"n": 0})["n"]
    decoded = totals["codecs.decode"]["points"]
    returned = totals["read.slice"]["points"]
    kern_s = sum(totals[f"kernels.{k}"]["s"] for k in ("pelt", "cusum", "ema")) if n_an else 0.0
    m = {
        "read.fetch_s": totals["read.parquet"]["s"] / n_fetch,
        "read.bytes_read": totals["read.parquet"]["bytes"] / n_fetch,
        "codecs.decode_s": totals["codecs.decode"]["s"] / n_fetch,
        "codecs.decode_mpts_per_s": decoded / totals["codecs.decode"]["s"] / 1e6,
        "read.points_decoded": decoded / n_fetch,
        "read.points_returned": returned / n_fetch,
        "read.useful_ratio": returned / decoded,
        "kernels.series_per_s": n_an / kern_s if kern_s else 0.0,
    }
    for k in ("pelt", "cusum", "ema"):
        t = totals.get(f"kernels.{k}")
        m[f"kernels.{k}_s"] = t["s"] / t["n"] if t else 0.0
    return m


def _overhead(corpus, layer) -> None:
    """Tracing cost on the read path: the same 60 requests, traced and
    not, in this process."""
    from .serve import request_sequence, serve

    gen = request_sequence(corpus, start=1000)
    reqs = [next(gen) for _ in range(60)]
    off = Tracer("off", enabled=False)
    on = Tracer("on")
    t0 = time.perf_counter()
    for r in reqs:
        serve(corpus, r, off)
    t_off = time.perf_counter() - t0
    t0 = time.perf_counter()
    for r in reqs:
        serve(corpus, r, on)
    t_on = time.perf_counter() - t0
    layer["trace.read_overhead_share"] = t_on / t_off - 1.0


def run(sess: Session, workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        keep: bool) -> Result:
    res = Result()
    res.notes.append("box: " + str(box.box_record()))
    try:
        run_workload(workload, seed, seconds, tiny, trace, sess, res)
    except Exception:  # the run fails as a whole; report it, do not hide it
        import traceback

        res.op(False, "workload raised:\n" + traceback.format_exc())
    finally:
        sess.stop(keep)
    left = box.ray_processes(sess.ray_tmp, os.getpid())
    if left:
        res.op(False, f"Ray processes left running: {left}")
    return res
