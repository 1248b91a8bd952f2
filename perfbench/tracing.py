"""Spans around calls into the program's layers, kept in memory.

A traced run installs wrappers on public functions and methods of the
program (``Tracer.wrap``) and opens spans around the benchmark's own calls
(``Tracer.span``).  Each span records its name, start, end, parent span,
thread and request id.  The parent is the span open in the calling context;
work a layer hands to a thread pool has no such context, so a wrapper made
with ``adopt_threads=True`` also parents spans that open in other threads
while it runs.

Per-layer numbers are *self time*: a span's duration minus the part of it
that its child spans cover.  Time inside the run that no span covers is
reported as unattributed.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


class Tracer:
    """In-memory span recorder; write the spans out with :meth:`dump`."""

    def __init__(self):
        self.spans: List[Dict[str, object]] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._adopter: Optional[int] = None
        self._adopter_thread: Optional[int] = None
        #: (owner, attribute, original or None when it was inherited)
        self._restore: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, request: Optional[int] = None, **attrs):
        parent = self._current.get()
        thread = threading.get_ident()
        if parent is None and self._adopter is not None \
                and thread != self._adopter_thread:
            parent = self._adopter
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            record = {"id": span_id, "parent": parent, "name": name,
                      "start": start, "end": end, "thread": thread,
                      "request": request}
            if attrs:
                record["attrs"] = attrs
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner, attr: str, name: str, *,
             describe: Optional[Callable[..., Dict[str, object]]] = None,
             adopt_threads: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper that records span ``name``.

        ``describe(*args, **kwargs)`` returns attributes stored on the span,
        such as a work count.
        """
        original = getattr(owner, attr)
        inherited = isinstance(owner, type) and attr not in vars(owner)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            attrs = {} if describe is None else describe(*args, **kwargs)
            with tracer.span(name, **attrs):
                if not adopt_threads:
                    return original(*args, **kwargs)
                previous = tracer._adopter, tracer._adopter_thread
                tracer._adopter = tracer._current.get()
                tracer._adopter_thread = threading.get_ident()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._adopter, tracer._adopter_thread = previous

        self._restore.append((owner, attr, None if inherited else original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines, in start order."""
        with open(path, "w") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def union_length(intervals: Iterable[Interval]) -> float:
    """Total length covered by the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    by_id = {span["id"]: span for span in spans}
    children: Dict[int, List[Interval]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {span_id: (span["end"] - span["start"])
            - union_length(children.get(span_id, ()))
            for span_id, span in by_id.items()}


def self_time_by_name(spans: Sequence[Dict[str, object]]) -> Dict[str, float]:
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def unattributed(spans: Sequence[Dict[str, object]], start: float,
                 end: float) -> float:
    """Seconds of ``[start, end]`` that no span covers."""
    clipped = [(max(s["start"], start), min(s["end"], end)) for s in spans]
    return (end - start) - union_length((a, b) for a, b in clipped if b > a)
