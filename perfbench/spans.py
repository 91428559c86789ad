"""In-memory span recorder for the traced run.

A span is (id, name, parent, run_id, start, end, attrs). Spans nest on one
thread through a stack; they are kept in memory and written out once, at
the end of the run. A span's self time is its duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return contextlib.nullcontext({})
        return self._span(name, attrs)

    @contextlib.contextmanager
    def _span(self, name: str, attrs: dict):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Self seconds per span, indexed like `self.spans`."""
        children: dict[int, list[dict]] = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        out = []
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for c in sorted(children[s["id"]], key=lambda c: c["start"]):
                lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s["end"] - s["start"] - covered)
        return out

    def totals(self) -> dict[str, dict]:
        """Per span name: count, summed duration and summed self time."""
        agg: dict[str, dict] = defaultdict(lambda: {"n": 0, "total_s": 0.0, "self_s": 0.0})
        for s, self_s in zip(self.spans, self.self_times()):
            a = agg[s["name"]]
            a["n"] += 1
            a["total_s"] += s["end"] - s["start"]
            a["self_s"] += self_s
        return dict(agg)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s, default=str) + "\n")
