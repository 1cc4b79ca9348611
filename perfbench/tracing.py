"""Spans around the benchmark's calls into the program's layers.

A span holds name, start, end, parent and request id.  Spans stay in memory
and are written out when the run ends.  A layer is the part of a span name
before the first dot (``query.search`` -> ``query``); its self time is the
time its spans cover minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[tuple] = []  # (id, parent, name, start, end, request)
        self._stack: List[int] = []
        self.request: Optional[int] = None

    def span(self, name: str):
        return self._span(name) if self.enabled else _NULL

    @contextlib.contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id; filled in on exit
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, t0, t1, self.request)

    def self_times(self) -> Dict[str, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        out: Dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1, _ in self.spans:
            out[name.split(".")[0]] += (t1 - t0) - child[sid]
        return dict(out)

    def span_cost_s(self, n: int = 20000) -> float:
        """Measured cost of opening and closing one span."""
        probe = Tracer(True)
        t0 = time.perf_counter()
        for _ in range(n):
            with probe.span("probe.x"):
                pass
        return (time.perf_counter() - t0) / n

    def dump(self, path: str) -> None:
        keys = ("id", "parent", "name", "start", "end", "request")
        with open(path, "w") as f:
            json.dump([dict(zip(keys, s)) for s in self.spans], f)
