"""In-memory spans recorded by the benchmark around each public call.

A span carries the called function's name, the layer (module) it
belongs to, its start and end on the ``perf_counter`` clock, the op that
made the call and that op's id, plus free-form attributes (nodes
searched, samples drawn, ...) that the per-layer metrics are computed
from.  Spans stay in memory and are written out once, when the run
ends.  With tracing off the same context managers run but keep nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    op: str
    op_id: int
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "name", "layer", "attrs", "start")

    def __init__(self, tracer, name, layer, attrs):
        self.tracer, self.name, self.layer, self.attrs = tracer, name, layer, attrs

    def __enter__(self) -> dict:
        self.start = perf_counter()
        return self.attrs

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        t = self.tracer
        if t.enabled:
            t.spans.append(Span(self.name, self.layer, self.start, end,
                                t.op, t.op_id, self.attrs))


class Tracer:
    """Collects spans while ``enabled``; ``op``/``op_id`` name the caller."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.op = ""
        self.op_id = 0

    def span(self, name: str, layer: str, **attrs) -> _Open:
        """Context manager timing one call; yields its mutable attrs."""
        return _Open(self, name, layer, attrs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "layer": s.layer, "start": s.start,
                    "end": s.end, "op": s.op, "op_id": s.op_id,
                    "attrs": s.attrs}, sort_keys=True) + "\n")
