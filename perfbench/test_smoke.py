"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Drives the workloads end to end on a few thousand rows (untraced and
traced), then feeds deliberately wrong outputs to every correctness check
to show each one can fail. Each run still pays the engine's fixed cost of
one run_flagship call (tens of seconds at one Ray CPU).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_bench(workload: str, seed: int, trace: int, *extra: str) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "2", "--trace", str(trace), "--tiny", *extra]
    # a clean shell: no PYTHONPATH, and not started from the repo root
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd="/", env=env, capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-3000:]
    result = json.loads(lines[-1])
    assert proc.returncode == (0 if result["correct"] else 1), proc.stdout[-3000:]
    return result, lines


def assert_complete(result: dict, lines: list[str], kind: str) -> None:
    assert result["correct"], "\n".join(lines[-60:])
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(names)
    for name, m in result["metrics"].items():
        assert m["unit"] == names[name]
        assert np.isfinite(m["value"])


def digest(lines: list[str]) -> str:
    return next(l for l in lines if l.startswith("analyze_digest_first")).split("=", 1)[1]


@pytest.fixture(scope="module")
def kept_serve_run():
    result, lines = run_bench("serve_reads", 5, 0, "--keep")
    kept = glob.glob(os.path.join(ROOT, ".pbrun", "serve_reads-s5-*"))
    yield result, lines, max(kept, key=os.path.getmtime)
    for d in kept:
        shutil.rmtree(d, ignore_errors=True)


def test_untraced_run_reports_every_end_to_end_metric(kept_serve_run):
    result, lines, _ = kept_serve_run
    assert_complete(result, lines, "end_to_end")
    for word in ("box:", "loadavg", "error_rate=", "fetch_tail_ms is p", "check block_values: ok"):
        assert any(word in l for l in lines), word


def test_analyze_digest_repeats_across_runs(kept_serve_run):
    _, lines, _ = kept_serve_run
    again, lines2 = run_bench("serve_reads", 5, 0)
    assert again["correct"]
    assert digest(lines) == digest(lines2)


def test_traced_run_reports_every_per_layer_metric_and_spans():
    result, lines = run_bench("ingest_wide", 6, 1)
    assert_complete(result, lines, "per_layer")
    span_line = next(l for l in lines if l.startswith("spans: "))
    path = os.path.join(ROOT, span_line.split(" written to ")[1])
    with open(path) as f:
        spans = [json.loads(l) for l in f]
    os.remove(path)
    assert {"flagship", "extract.exchange", "manifest.run_stage", "request.fetch"} <= {s["name"] for s in spans}
    assert all({"name", "start", "end", "parent", "run_id"} <= set(s) for s in spans)


def test_checks_fail_on_wrong_outputs(kept_serve_run, tmp_path):
    from perfbench.checks import ingest_checks
    from perfbench.serve import Corpus, Reply, Request, check_replies

    _, lines, run_dir = kept_serve_run
    src = os.path.join(run_dir, "out")
    facts = next(l for l in lines if l.startswith("input "))
    pairs = int(facts.split("distinct(url,warc_ts)=")[1].split()[0])
    urls = int(facts.split("distinct(url)=")[1].split()[0])
    assert all(ok for _, ok, _ in ingest_checks(src, pairs, urls, 5))

    failing = {name for name, ok, _ in ingest_checks(src, pairs + 1, urls + 1, 5) if not ok}
    assert failing == {"points_rows", "url_dict_keys"}

    def tamper(column: str) -> set[str]:
        """Add 1 to one column of the 1h tier in a copy; the failing checks."""
        bad = str(tmp_path / f"out-{column}")
        shutil.copytree(src, bad)
        for f in glob.glob(os.path.join(bad, "tier_1h", "*", "*.parquet")):
            t = pq.read_table(f)
            i = t.schema.get_field_index(column)
            pq.write_table(t.set_column(i, column, pc.add(t[column], 1)), f)
        return {name for name, ok, _ in ingest_checks(bad, pairs, urls, 5) if not ok}

    assert tamper("count") == {"count_conservation"}
    assert tamper("mean") == {"block_values"}

    from perfbench.workloads import Result, _pinned_digest_check

    pinned, other = Result(), Result()
    _pinned_digest_check(os.path.join(run_dir, "warmup_out"), pinned)
    _pinned_digest_check(src, other)  # another corpus, other analyze outputs
    assert (pinned.failed, other.failed) == (0, 1)

    corpus = Corpus(src)
    key = int(corpus.ranked[0])
    from perfbench.serve import fetch
    from perfbench.spans import Tracer

    req = Request("fetch", "1h", key)
    rep = fetch(corpus, req, Tracer("t", enabled=False))
    assert check_replies(corpus, [(req, rep)])[0] == 0
    wrong = Reply(rep.ts[1:], rep.values[1:])
    assert check_replies(corpus, [(req, wrong)])[0] == 1


def test_probe_process_gives_a_speed_factor_and_stops(tmp_path):
    from perfbench import speed

    with speed.ProbeProcess(str(tmp_path / "probe.txt")) as probe:
        t0 = time.perf_counter()
        time.sleep(0.5)
        f = probe.factor(t0, time.perf_counter())
    assert 0 < f < 100
    assert probe.proc.poll() is not None and probe.pid not in speed.LIVE
