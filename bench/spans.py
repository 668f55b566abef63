"""In-memory spans for the traced benchmark run.

A span records its name, start, end, parent span and job id, plus counts
taken at the same boundary.  Spans are kept in memory and written out once,
when the run ends.  A disabled tracer hands out one shared no-op span, so
untraced passes pay only a method call per layer boundary.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Layers are named after the pdeg module whose public calls they time.
LAYERS = (
    "symfun.analyze",
    "bounds.predict",
    "probpoly.construct",
    "probpoly.sample",
    "verify.evaluate",
    "verify.point_eval",
    "verify.expand",
    "verify.exact",
    "reductions.build",
    "reductions.check",
)

JOB = "job"


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, **counts) -> None:
        pass


_NULL = _NullSpan()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1]["id"] if stack else None
        stack.append(self.record)
        self.record["start"] = time.perf_counter() - self.tracer.origin
        return self

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter() - self.tracer.origin
        self.tracer._stack.pop()
        self.tracer.spans.append(self.record)
        return False

    def count(self, **counts) -> None:
        for key, value in counts.items():
            self.record["counts"][key] = self.record["counts"].get(key, 0) + value


class Tracer:
    """Records nested spans while enabled; see the module docstring."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._job: str | None = None
        self._next_id = 0

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        self._next_id += 1
        record = {
            "id": self._next_id,
            "name": name,
            "job": self._job,
            "counts": dict(counts),
        }
        return _Span(self, record)

    def job(self, job_id: str):
        """Root span of one job; every span opened inside shares its id."""
        self._job = job_id
        return self.span(JOB)


def write(path, meta: dict, passes: list[list[dict]]) -> None:
    """Write the spans of each traced pass, in the order they ended."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**meta, "passes": passes}, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_totals(spans: list[dict]) -> tuple[dict[str, float], dict[str, dict]]:
    """Self time and summed counts per span name."""
    own = self_times(spans)
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, dict] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        seconds[s["name"]] += own[s["id"]]
        counts[s["name"]]["spans"] += 1
        for key, value in s["counts"].items():
            counts[s["name"]][key] += value
    return dict(seconds), {k: dict(v) for k, v in counts.items()}
