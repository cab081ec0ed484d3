"""Wall-clock spans recorded by the benchmark around calls into the library.

The library itself is not instrumented: every span opens and closes in
the benchmark's own code, around one call into a layer's public API.  A
span records its name, the unit of work it belongs to (one instance, or
one service iteration), the span that encloses it, and monotonic start and
end times.  Spans stay in memory and are written out with the report.

A *shadow* span times work the benchmark repeats only to separate two
layers that one call mixes (an engine run without invariant checking, an
in-process replay of a service trace).  Shadow time is left out of the
traced wall time, so layer self times and the wall time describe the same
work.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass

__all__ = ["Span", "Tracer", "NULL_TRACER"]

clock = time.perf_counter

#: Name of the span that encloses one unit of work; its self time is the
#: benchmark's own glue, i.e. the part of the wall time no layer explains.
ROOT = "unit"


@dataclass(slots=True)
class Span:
    name: str
    unit: int
    parent: int | None
    start: float
    end: float = 0.0
    shadow: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open(AbstractContextManager):
    __slots__ = ("_tracer", "_span", "_index")

    def __init__(self, tracer: "Tracer", span: Span, index: int) -> None:
        self._tracer = tracer
        self._span = span
        self._index = index

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._index)
        self._span.start = clock()
        return self._span

    def __exit__(self, *exc: object) -> None:
        self._span.end = clock()
        self._tracer._stack.pop()


class Tracer:
    """In-memory span recorder; ``Tracer(enabled=False)`` records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._unit = -1

    def unit(self) -> AbstractContextManager:
        """Open the root span of the next unit of work."""
        self._unit += 1
        return self.span(ROOT)

    def span(self, name: str, *, shadow: bool = False) -> AbstractContextManager:
        if not self.enabled:
            return nullcontext()
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self._unit, parent, 0.0, shadow=shadow)
        self.spans.append(record)
        return _Open(self, record, len(self.spans) - 1)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time of its children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        totals: dict[str, float] = {}
        for span, children in zip(self.spans, child_time, strict=True):
            totals[span.name] = totals.get(span.name, 0.0) + span.duration - children
        return totals

    def wall(self) -> float:
        """Traced wall time: all unit roots, minus the shadow spans inside them."""
        roots = sum(s.duration for s in self.spans if s.name == ROOT)
        return roots - sum(s.duration for s in self.spans if s.shadow)

    def records(self) -> list[dict[str, object]]:
        """JSON-ready span list for the report file."""
        return [
            {
                "name": s.name,
                "unit": s.unit,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "shadow": s.shadow,
            }
            for s in self.spans
        ]


NULL_TRACER = Tracer(enabled=False)
