"""Callers that run the benchmark's calls into the library.

`Direct` is the untraced caller: it only forwards the call.  `Tracer`
records one span per call (name, start, end, parent, op id) plus one span
per op, holds them in memory and writes them out when the run ends.  Both
expose the same `call` and `op` so an op body is identical in either mode;
the difference in op latency between the two is the tracing overhead.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

OP_SPAN = "op"


class Direct:
    """Untraced caller."""

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def op(self, op_id):
        yield


class Tracer:
    """Spans around each library call; the op span is the parent of each."""

    def __init__(self):
        # [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self._parent = None
        self._op_id = None

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, perf_counter(), self._parent, self._op_id])

    @contextmanager
    def op(self, op_id):
        span = [OP_SPAN, perf_counter(), None, None, op_id]
        self.spans.append(span)
        self._parent, self._op_id = len(self.spans) - 1, op_id
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._parent = self._op_id = None

    def self_times(self) -> list[tuple[str, float]]:
        """(name, self time in seconds) per span: duration minus the part of
        it covered by child spans.  Children of one parent never overlap."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [(s[0], s[2] - s[1] - covered[i]) for i, s in enumerate(self.spans)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "op")
        with path.open("w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, s)) for s in self.spans], handle)
