"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` keeps nested spans in memory (name, start, end, parent)
plus counters, and writes them out once, as Chrome trace-event JSON that
opens in Perfetto or ``chrome://tracing``.  :func:`wrap_layers` swaps a
layer's public function or method for a timed pass-through for the
duration of a ``with`` block and restores the original afterwards, so the
untraced runs execute the program's own code untouched.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One closed interval of work; ``parent`` is the enclosing span's index."""

    name: str
    start_ns: int
    end_ns: int = 0
    parent: int = -1
    children_ns: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def self_seconds(self) -> float:
        return (self.end_ns - self.start_ns - self.children_ns) / 1e9


@dataclass
class Tracer:
    """In-memory span recorder for one thread (the benchmark's main thread)."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _thread: int = field(default_factory=threading.get_ident)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as a span nested in the open one."""
        if threading.get_ident() != self._thread:
            # worker threads of the program are not traced; only the
            # calling thread's stack gives a well-formed nesting
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), parent=parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            span = self.spans[index]
            span.end_ns = time.perf_counter_ns()
            if parent >= 0:
                self.spans[parent].children_ns += span.end_ns - span.start_ns

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def set(self, name: str, value: float) -> None:
        """Overwrite counter ``name`` (for end-of-run states)."""
        self.counters[name] = value

    def self_seconds(self, name: str) -> float:
        """Time spent in spans called ``name``, minus their child spans."""
        return sum(s.self_seconds for s in self.spans if s.name == name)

    def seconds(self, name: str) -> float:
        """Total duration of spans called ``name`` (children included)."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def children_seconds(self, name: str) -> float:
        """Total duration of the direct children of spans called ``name``."""
        parents = {i for i, s in enumerate(self.spans) if s.name == name}
        return sum(s.seconds for s in self.spans if s.parent in parents)

    def write_chrome(self, path: str | os.PathLike) -> None:
        """Write complete ("X") events; timestamps in microseconds."""
        pid = os.getpid()
        origin = min((s.start_ns for s in self.spans), default=0)
        events = [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start_ns - origin) / 1e3,
                "dur": (s.end_ns - s.start_ns) / 1e3,
                "pid": pid,
                "tid": 0,
                "args": {"self_us": (s.end_ns - s.start_ns - s.children_ns) / 1e3},
            }
            for s in self.spans
        ]
        events.append(
            {"name": "counters", "ph": "C", "ts": 0, "pid": pid, "args": self.counters}
        )
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def _timed(tracer: Tracer, name: str, fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


@contextmanager
def wrap_layers(tracer: Tracer, targets):
    """Time every ``(span name, owner, attribute, after)`` target.

    ``owner`` is a module or class; its attribute is replaced by a wrapper
    that records a span and then calls ``after(tracer, args, result)``
    (when not None) to take counts from the layer's public result.  The
    originals are restored on exit, also when the block raises.
    """
    saved = []
    try:
        for name, owner, attr, after in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _timed(tracer, name, original, after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
