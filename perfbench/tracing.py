"""In-memory spans around the benchmark's calls into gausscoh.

A span records a name, start and end (``perf_counter_ns``), the span that
caused it and the op it belongs to. Spans stay in memory and are written
as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, str, int, int, int | None, int]] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op: int):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, op))

    def call(self, name: str, op: int, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name, op):
            return fn(*args, **kwargs)

    def busy_ns(self) -> dict[str, int]:
        """Summed duration of the spans of each name."""
        out: dict[str, int] = {}
        for _, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0) + end - start
        return out

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "op": op}) + "\n")
