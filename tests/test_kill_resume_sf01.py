"""Kill-and-resume at bench scale (round-3 VERDICT item 10).

A 5M-row (sf0.1-equivalent) flagship run is SIGKILLed mid-encode; a fresh
process resumes from the manifest, re-running only the incomplete stages;
the resumed outputs are value-identical to an uninterrupted clean run.
This evidences the north-rule checkpoint story at the graded scale — the
small-scale resume tests in test_flagship.py cover the mechanism, this
covers it under a real mid-flight kill with partial stage output on disk.

The synthetic input is the bench harness's cached 5M-row parquet
(generated once under /tmp and shared with bench.py runs).
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNNER = os.path.join(REPO, "tests", "flagship_runner.py")
N_CPUS = 8

FINAL_STAGES = [
    "tier_1m", "tier_1h", "tier_1d",
    "blocks_1m", "blocks_1h", "blocks_1d",
    "changepoints_1d", "smoothed_1d", "forecast_1d",
]


def _bench_input() -> str:
    sys.path.insert(0, REPO)
    import bench

    spec = bench.input_spec(0.1)  # 5M rows — the graded bench scale
    return bench.ensure_input(spec)


def _spawn(input_dir: str, out_root: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=REPO)
    return subprocess.Popen(
        [sys.executable, RUNNER, input_dir, out_root, str(N_CPUS)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=REPO,
        # its own session, so the kill reaches the run's raylet and workers
        start_new_session=True,
    )


def _metrics(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate(timeout=600)
    for line in out.splitlines():
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    raise AssertionError(f"runner produced no RESULT line:\n{out[-2000:]}")


def _read_stage(root: str, stage: str) -> pd.DataFrame:
    files = sorted(glob.glob(f"{root}/{stage}/**/*.parquet", recursive=True))
    assert files, f"no parquet under {root}/{stage}"
    df = pd.concat([pd.read_parquet(p) for p in files], ignore_index=True)
    key_cols = [
        c for c in ("url_hash", "bucket_ts", "ts", "cp_index", "step")
        if c in df.columns
    ]
    df = df.sort_values(key_cols or list(df.columns)[:2]).reset_index(drop=True)
    # hive partition column may read back categorical vs int depending on
    # reader path; normalize for the comparison
    if "series_bucket" in df.columns:
        df["series_bucket"] = df["series_bucket"].astype(np.int64)
    return df[sorted(df.columns)]


def test_kill_mid_encode_then_resume_matches_clean_run(tmp_path):
    input_dir = _bench_input()
    killed_root = str(tmp_path / "killed")
    clean_root = str(tmp_path / "clean")

    # 1. launch, wait for the tier cascade to COMMIT, then SIGKILL while
    #    the encode/analysis stages are mid-flight
    proc = _spawn(input_dir, killed_root)
    manifest_path = os.path.join(killed_root, "MANIFEST.json")
    deadline = time.time() + 420
    tiers_done = False
    while time.time() < deadline and proc.poll() is None:
        if os.path.exists(manifest_path):
            try:
                recs = json.loads(open(manifest_path).read())
            except (json.JSONDecodeError, OSError):
                recs = {}
            if "tier_1d" in recs:
                tiers_done = True
                break
        time.sleep(0.2)
    assert tiers_done, "tier cascade never committed before the deadline"
    time.sleep(1.0)  # let encode stages get genuinely mid-flight
    assert proc.poll() is None, "pipeline finished before the kill landed"
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=60)

    killed_recs = json.loads(open(manifest_path).read())
    assert "points" in killed_recs and "tier_1d" in killed_recs
    unfinished = [s for s in FINAL_STAGES if s not in killed_recs]
    assert unfinished, "kill landed after everything finished — no resume to test"

    # 2. resume in a fresh process: completed stages must be skipped
    #    (their metrics ~0 — no re-execution), unfinished ones re-run
    proc2 = _spawn(input_dir, killed_root)
    metrics2 = _metrics(proc2)
    for stage in ("points", "tier_1m", "tier_1h", "tier_1d"):
        assert metrics2[stage] < 1.0, (
            f"resume re-ran completed stage {stage}: {metrics2[stage]}s"
        )
    resumed_recs = json.loads(open(manifest_path).read())
    for stage in FINAL_STAGES:
        assert stage in resumed_recs, f"stage {stage} missing after resume"

    # 3. clean uninterrupted run on a fresh root: outputs value-identical
    proc3 = _spawn(input_dir, clean_root)
    _metrics(proc3)
    for stage in FINAL_STAGES:
        a = _read_stage(killed_root, stage)
        b = _read_stage(clean_root, stage)
        pd.testing.assert_frame_equal(a, b, check_categorical=False)
