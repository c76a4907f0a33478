"""In-memory span recorder for the traced mode.

A span is (id, name, start, end, parent, op): ``op`` ties every span of
one benchmark operation together.  Spans stay in memory and are written as
JSON lines when the run ends.  With tracing off, ``span()`` is a shared
no-op context manager, so the untraced run pays one call per layer.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._next_id = 1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent[1]
        stack.append((span_id, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    (span_id, name, start, end, parent[0] if parent else None, op)
                )

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part covered by its children."""
        child_time: dict[int, float] = defaultdict(float)
        for _id, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return {s[0]: (s[3] - s[2]) - child_time[s[0]] for s in self.spans}

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, op in sorted(self.spans, key=lambda s: s[2]):
                out.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )
