"""Benchmark-side spans: the timed calls into the program.

Every timing the benchmark reports is a span recorded here: a name, a
start, an end and the span that was open when it began.  Spans stay in
memory; :func:`chrome_trace` turns them into Chrome trace-event JSON,
which Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
"""

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    id: int
    parent: Optional[int]
    name: str
    start: float            # perf_counter seconds
    end: float
    args: Dict


class Recorder:
    """Collects spans; ``span()`` times a block and nests under the open
    span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._next_id = 0
        self.origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, parent, name, start, end, args))

    def add(self, name: str, start: float, end: float, **args) -> None:
        """Record a span measured by other means (e.g. a progress line)."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(self._next_id, parent, name, start, end,
                               args))
        self._next_id += 1

    def last_duration(self) -> float:
        """Duration of the span that closed most recently."""
        span = self.spans[-1]
        return span.end - span.start


def total(spans: List[Span], name: str) -> float:
    """Summed duration of the spans called ``name``."""
    return sum(s.end - s.start for s in spans if s.name == name)


def chrome_trace(spans: List[Span], origin: float,
                 process_name: str) -> Dict:
    """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
    pid = os.getpid()
    events: List[Dict] = [{"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": process_name}}]
    for span in sorted(spans, key=lambda s: (s.start, -s.end)):
        args = {"id": span.id, "parent": span.parent}
        args.update(span.args)
        events.append({
            "name": span.name, "ph": "X", "pid": pid, "tid": 0,
            "ts": (span.start - origin) * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
