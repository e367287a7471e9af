"""In-memory span recorder for the benchmark's calls into mucut.

A span is ``(id, parent, request, name, start_ns, end_ns, source)`` with
``name`` of the form ``layer.op`` and times from ``perf_counter_ns``. Spans
are appended to a list while the run goes and written out once at the end.
``NULL`` has the same interface and records nothing, so request code is
identical in traced and untraced runs.
"""

from __future__ import annotations

import json
from time import perf_counter_ns


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    enabled = False
    _span = _NullSpan()

    def span(self, name: str):
        return self._span

    def root(self, name: str, request):
        return self._span


NULL = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "request", "sid", "parent", "start")

    def __init__(self, tracer, name, request):
        self.tracer = tracer
        self.name = name
        self.request = request

    def __enter__(self):
        t = self.tracer
        t._next += 1
        self.sid = t._next
        self.parent = t._stack[-1].sid if t._stack else None
        if self.request is None:
            self.request = t._stack[-1].request if t._stack else None
        t._stack.append(self)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        t = self.tracer
        t._stack.pop()
        t.spans.append((self.sid, self.parent, self.request, self.name,
                        self.start, end, t.source))
        return False


class Tracer:
    """Records spans; ``source`` tags spans from a workload's own requests
    (``"workload"``) apart from gap-filling calls (``"census"``)."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.source = "workload"
        self._stack = []
        self._next = 0

    def span(self, name: str):
        return _Span(self, name, None)

    def root(self, name: str, request):
        return _Span(self, name, request)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, request, name, start, end, source in self.spans:
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "request": request,
                    "name": name, "start_ns": start, "end_ns": end,
                    "source": source}) + "\n")

    def durations_ms(self) -> dict:
        """``{name: [ms, ...]}``, own-workload spans preferred: a name's
        census spans are used only when the workload recorded none."""
        own, census = {}, {}
        for _, _, _, name, start, end, source in self.spans:
            bucket = own if source == "workload" else census
            bucket.setdefault(name, []).append((end - start) / 1e6)
        merged = dict(census)
        merged.update(own)
        return merged

    def sources(self) -> dict:
        out = {}
        for span in self.spans:
            if span[6] == "workload" or span[3] not in out:
                out[span[3]] = span[6]
        return out

    def layer_shares(self) -> dict:
        """Share of own request time spent directly in each layer's calls."""
        roots = {s[0]: s for s in self.spans
                 if s[3] == "bench.request" and s[6] == "workload"}
        total = sum(s[5] - s[4] for s in roots.values())
        busy = {}
        for s in self.spans:
            if s[1] in roots:
                layer = s[3].split(".", 1)[0]
                busy[layer] = busy.get(layer, 0) + (s[5] - s[4])
        return {layer: (t / total if total else 0.0)
                for layer, t in busy.items()}

