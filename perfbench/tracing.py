"""Spans taken from outside the library, by wrapping public methods.

The benchmark builds every object it measures, so it can replace a
bound method on that object with a wrapper that opens a span around the
real call.  Spans are kept in memory and written out when the run ends.
Each span has a name, a start and end (``time.perf_counter``, which is
the system-wide monotonic clock on Linux, so spans taken in pool
workers line up with the parent's), the index of the span that caused
it, the request it belongs to (a tenant-window or an op block) and the
process that recorded it.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  Children that ran in parallel workers
may overlap, so the covered part is the union of their intervals.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    pid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus named counters."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.request: Optional[str] = None
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = Span(
            name,
            time.perf_counter(),
            float("nan"),
            self._stack[-1] if self._stack else None,
            self.request,
            os.getpid(),
        )
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def wrap(
        self,
        obj,
        method: str,
        name: str,
        on_call: Optional[Callable] = None,
    ) -> Callable[[], None]:
        """Replace ``obj.method`` with a traced wrapper; returns an undo.

        ``on_call(args, kwargs, result)`` runs after each call, for
        counting the work the call did.
        """
        inner = getattr(obj, method)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with self.span(name):
                result = inner(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        setattr(obj, method, traced)
        return lambda: delattr(obj, method)

    def adopt(self, spans: Iterable[Span], parent: Optional[int]) -> None:
        """Take in spans recorded elsewhere (a worker), re-parenting
        their roots under ``parent``."""
        offset = len(self.spans)
        for span in spans:
            self.spans.append(
                Span(
                    span.name,
                    span.start,
                    span.end,
                    parent if span.parent is None else span.parent + offset,
                    span.request,
                    span.pid,
                )
            )

    def current(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({"id": index, **asdict(span)}) + "\n")


# -- analysis -----------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Self time of every span: duration minus its children's union,
    each child clipped to the parent's interval."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            if clipped[1] > clipped[0]:
                children.setdefault(span.parent, []).append(clipped)
    return [
        span.duration - _covered(children.get(index, []))
        for index, span in enumerate(spans)
    ]


@dataclass
class LayerSummary:
    name: str
    calls: int
    total_s: float
    self_s: float
    durations: List[float]


def summarize(spans: List[Span]) -> Dict[str, LayerSummary]:
    """Per span name: call count, total and self seconds."""
    out: Dict[str, LayerSummary] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, LayerSummary(span.name, 0, 0.0, 0.0, []))
        entry.calls += 1
        entry.total_s += span.duration
        entry.self_s += own
        entry.durations.append(span.duration)
    return out


# -- tracing inside pool workers -------------------------------------------------


@contextmanager
def patched_class_methods(tracer: Tracer, targets) -> Iterator[None]:
    """Trace ``(cls, method, name, on_call)`` targets at class level for
    the duration of the block.

    Used only inside pool workers, on objects the worker unpickles in
    the middle of a task, before any wrapper of ours could reach them.
    """
    saved = []
    for cls, method, name, on_call in targets:
        inner = cls.__dict__[method]

        def traced(self, *args, _inner=inner, _name=name, _on_call=on_call, **kwargs):
            with tracer.span(_name):
                result = _inner(self, *args, **kwargs)
            if _on_call is not None:
                _on_call(args, kwargs, result)
            return result

        saved.append((cls, method, inner))
        setattr(cls, method, traced)
    try:
        yield
    finally:
        for cls, method, inner in saved:
            setattr(cls, method, inner)


class TracedTask:
    """Picklable stand-in for the function a backend maps over tasks.

    In the worker it runs the real function inside ``instrument(tracer,
    task)``, a context manager that wraps what the task carries and
    removes every wrapper on exit so the result pickles cleanly, and
    returns ``(result, spans, counters)``.
    """

    def __init__(self, fn, instrument):
        self.fn = fn
        self.instrument = instrument

    def __call__(self, task):
        tracer = Tracer()
        with self.instrument(tracer, task):
            result = self.fn(task)
        return result, tracer.spans, tracer.counters


def trace_backend(tracer: Tracer, backend, instrument) -> None:
    """Wrap ``backend.map_tasks``: one ``backend.map`` span per call,
    worker spans and counters adopted under it, and the pickled size of
    every task and result counted (what crosses the process boundary)."""
    inner = backend.map_tasks

    def map_tasks(fn, tasks, on_result=None):
        tasks = list(tasks)
        tracer.count("backend.map_calls")
        tracer.count("backend.tasks", len(tasks))
        tracer.count("backend.task_bytes", sum(len(pickle.dumps(t)) for t in tasks))
        unwrap = None
        if on_result is not None:
            def unwrap(index, triple):
                on_result(index, triple[0])
        with tracer.span("backend.map"):
            parent = tracer.current()
            triples = inner(TracedTask(fn, instrument), tasks, on_result=unwrap)
        results = []
        for result, spans, counters in triples:
            tracer.adopt(spans, parent)
            tracer.counters.update(counters)
            results.append(result)
        tracer.count(
            "backend.result_bytes", sum(len(pickle.dumps(r)) for r in results)
        )
        return results

    backend.map_tasks = map_tasks
