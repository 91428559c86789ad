"""Per-stage checkpoint manifest: resumability + lineage + metrics.

Ray Data gives task-level retry; JOB-level resume is ours (north_rule):
each pipeline stage writes its parquet output to `<root>/<stage>/` and then
records a manifest entry with the input fingerprint, row count, byte count,
and upstream lineage. On restart, a stage whose manifest entry matches the
current fingerprint is skipped and its parquet output is reused.

The root may be a plain local path or a URI (s3://, file://, any fsspec
scheme): all filesystem access goes through pyarrow.fs via common.fsio.

One job may write several stages (run_job), committing them in phases:
each phase's entries commit in one manifest write, and a rerun skips the
phases whose stages are all complete and rewrites every other phase whole.

Commit protocol by filesystem:
- LOCAL: output goes to `<stage>.tmp-<pid>` and is renamed into place
  before the manifest entry is committed, so a killed run never leaves a
  half-written stage that the manifest claims is complete.
- OBJECT STORES (no atomic directory rename exists there): the stage
  writes directly into `<stage>/` — any pre-existing incomplete dir is
  deleted first — and the MANIFEST entry is the commit point (a
  single-object PUT is atomic). A killed run may leave partial parquet in
  the stage dir, but resume ignores it: the fingerprint check fails and
  the stage re-runs from scratch, deleting the partial output first.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import asdict, dataclass, field

import pyarrow.fs as pafs

from ..common import fsio


@dataclass
class StageRecord:
    stage: str
    fingerprint: str
    rows: int
    bytes: int
    wall_s: float
    lineage: list[str] = field(default_factory=list)
    completed_at: float = 0.0
    # per-partition lineage: hive partition dir -> {rows, bytes}; lets an
    # operator audit exactly which key ranges a stage produced and a
    # downstream consumer skip finished partitions by name (north rule:
    # per-partition lineage + row-count/byte metrics)
    partitions: dict = field(default_factory=dict)
    # seconds per step of the job's tasks, summed over tasks, for the work
    # since the job's previous commit (e.g. cascade_s, encode_s, write_s)
    steps: dict = field(default_factory=dict)


class PipelineManifest:
    FILENAME = "MANIFEST.json"

    def __init__(self, root: str):
        self.root = str(root).rstrip("/")
        self._fs, self._root_path = fsio.resolve_fs(self.root)
        self._local = isinstance(self._fs, pafs.LocalFileSystem)
        fsio.makedirs(self._fs, self._root_path)
        self._path = fsio.join(self._root_path, self.FILENAME)
        self._records: dict[str, dict] = {}
        self._lock = threading.Lock()  # stages may complete concurrently
        if fsio.exists(self._fs, self._path):
            self._records = json.loads(fsio.read_text(self._fs, self._path))

    def stage_dir(self, stage: str) -> str:
        """URI-form stage directory (what write_parquet and the partition
        mappers consume)."""
        return fsio.join(self.root, stage)

    def _stage_path(self, stage: str) -> str:
        """Filesystem-relative stage path (what self._fs operates on)."""
        return fsio.join(self._root_path, stage)

    def is_complete(self, stage: str, fingerprint: str) -> bool:
        rec = self._records.get(stage)
        return (
            rec is not None
            and rec.get("fingerprint") == fingerprint
            and fsio.is_dir(self._fs, self._stage_path(stage))
        )

    def record(self, *recs: StageRecord) -> None:
        """Commit records in ONE manifest write: stages written by one job
        become complete together."""
        now = time.time()
        with self._lock:
            for rec in recs:
                rec.completed_at = now
                self._records[rec.stage] = asdict(rec)
            fsio.write_text_atomic(
                self._fs,
                self._path,
                json.dumps(self._records, indent=2),
                tmp_suffix=f".tmp-{threading.get_ident()}",
            )

    def records(self) -> dict[str, dict]:
        return dict(self._records)

    def bucket_rows(self, rel: str) -> dict[int, int]:
        """{bucket: rows} of a hive-partitioned (`key=<int>`) output: a
        committed stage's recorded partitions, or for any other path under
        the root (e.g. `points/data`) a walk of its parquet footers."""
        rec = self._records.get(rel)
        parts = rec["partitions"] if rec else _partition_stats(
            self._fs, fsio.join(self._root_path, rel)
        )
        return {int(k.split("=", 1)[1]): p["rows"] for k, p in parts.items() if "=" in k}

    def run_stage(self, stage: str, fingerprint: str, lineage: list[str], write_fn):
        """Execute `write_fn(out_dir)` (which must write parquet into out_dir)
        unless the stage is already complete for this fingerprint.

        Returns (stage_dir, skipped: bool).
        """
        dirs, walls = self.run_job(
            [{stage: lineage}], fingerprint, lambda out_dirs, commit: write_fn(out_dirs[stage])
        )
        return dirs[stage], not walls

    def run_job(self, phases: list[dict[str, list[str]]], fingerprint: str, write_fn):
        """Execute one job whose stages commit in phases: `phases` is a
        list of {stage: lineage} in commit order. A phase whose stages are
        all complete for this fingerprint is skipped (its stages get no
        out_dir); every other phase is rewritten whole.
        `write_fn(out_dirs, commit)` writes each listed stage's parquet into
        out_dirs[stage] and may call `commit(stages, steps)` once a group of
        them is fully written: their records then commit in one manifest
        write, carrying `steps` (step seconds) plus any steps passed with
        an earlier commit of no stages. Stages left uncommitted when
        write_fn returns commit then.

        Returns ({stage: stage_dir}, {stage: seconds from the job's start
        to its commit} for the stages written).
        """
        dirs = {stage: self.stage_dir(stage) for phase in phases for stage in phase}
        lineage = {stage: lin for phase in phases for stage, lin in phase.items()}
        todo = [stage for phase in phases
                if not all(self.is_complete(stage, fingerprint) for stage in phase)
                for stage in phase]
        if not todo:
            return dirs, {}
        t0 = time.time()
        if self._local:
            # clear stale tmp dirs, ours or a KILLED prior run's
            sel = pafs.FileSelector(self._root_path, allow_not_found=True)
            prefixes = tuple(f"{stage}.tmp-" for stage in todo)
            for info in self._fs.get_file_info(sel):
                if info.type == pafs.FileType.Directory and info.base_name.startswith(prefixes):
                    fsio.rmtree(self._fs, info.path)
            tmp = {stage: f"{stage}.tmp-{os.getpid()}" for stage in todo}
            for name in tmp.values():
                fsio.makedirs(self._fs, self._stage_path(name))
            out_dirs = {stage: fsio.join(self.root, name) for stage, name in tmp.items()}
        else:
            # no atomic dir rename on object stores: write in place, commit
            # via the manifest entries below (see module docstring)
            for stage in todo:
                fsio.rmtree(self._fs, self._stage_path(stage))
                fsio.makedirs(self._fs, self._stage_path(stage))
            tmp = {}
            out_dirs = {stage: dirs[stage] for stage in todo}
        walls: dict[str, float] = {}
        pending_steps: dict[str, float] = {}

        def commit(stages, steps=None) -> None:
            for k, v in (steps or {}).items():
                pending_steps[k] = pending_steps.get(k, 0.0) + v
            stages = [stage for stage in stages if stage in out_dirs and stage not in walls]
            if not stages:
                return
            if self._local:
                for stage in stages:
                    out_path = self._stage_path(stage)
                    fsio.rmtree(self._fs, out_path)
                    os.replace(self._stage_path(tmp[stage]), out_path)
            # one footer walk per stage
            parts = {stage: _partition_stats(self._fs, self._stage_path(stage)) for stage in stages}
            wall_s = time.time() - t0
            self.record(*(
                StageRecord(
                    stage=stage,
                    fingerprint=fingerprint,
                    rows=sum(p["rows"] for p in parts[stage].values()),
                    bytes=sum(p["bytes"] for p in parts[stage].values()),
                    wall_s=wall_s,
                    lineage=lineage[stage],
                    partitions=parts[stage],
                    steps=dict(pending_steps),
                )
                for stage in stages
            ))
            pending_steps.clear()
            walls.update(dict.fromkeys(stages, wall_s))

        write_fn(out_dirs, commit)
        commit(todo)
        return dirs, walls


def _partition_stats(fs: pafs.FileSystem, directory: str) -> dict:
    """Per-hive-partition (first-level `key=value` dir) rows/bytes from the
    parquet footers — the per-partition lineage record. Flat outputs (no
    hive dirs) record a single '.' partition."""
    import pyarrow.parquet as pq

    sel = pafs.FileSelector(directory, recursive=True, allow_not_found=True)
    out: dict[str, dict] = {}
    base = directory.rstrip("/") + "/"
    for info in fs.get_file_info(sel):
        if info.type != pafs.FileType.File or not info.path.endswith(".parquet"):
            continue
        rel = info.path[len(base):] if info.path.startswith(base) else info.path
        part = rel.split("/")[0] if "/" in rel else "."
        slot = out.setdefault(part, {"rows": 0, "bytes": 0})
        with fs.open_input_file(info.path) as f:
            slot["rows"] += pq.ParquetFile(f).metadata.num_rows
        slot["bytes"] += info.size or 0
    return out
