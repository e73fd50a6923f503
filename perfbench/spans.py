"""In-memory spans and function wrappers for the benchmark's traced run.

A span is one call into an instrumented function: its name, start and end
(``perf_counter`` seconds), the span that was open when it started, the id of
the pass it belongs to, and counts computed from the call's arguments.  Spans
stay in memory; the traced pass reduces them to per-layer totals at the end.

Wrappers are installed at every binding site of the wrapped object (the
defining module, modules that imported it by name, class aliases such as
``__call__ = cdf``) and restored by :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    trace_id: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; one instance per traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.trace_id = 0
        self.counter_errors = 0
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def new_trace(self) -> int:
        """Start a new trace id; spans opened from now on carry it."""
        self.trace_id += 1
        return self.trace_id

    def call(self, name, fn, args, kwargs, counter=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._open[-1] if self._open else None
        span = Span(name, 0.0, parent=parent, trace_id=self.trace_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._open.pop()
        if counter is not None:
            # A counter that no longer fits the program's signature must not
            # turn into a failure of the program's own operation.
            try:
                span.counts = counter(args, kwargs, result)
            except Exception:
                self.counter_errors += 1
        return result

    def wrap(self, name, fn, counter=None):
        """A wrapper of ``fn`` that records a span per call.

        ``counter(arguments, result)`` receives the call's arguments bound to
        ``fn``'s parameter names (defaults applied) and returns a dict of
        counts for the span.
        """
        bind = None
        if counter is not None:
            sig = inspect.signature(fn)

            def bind(args, kwargs, result):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return counter(bound.arguments, result)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, bind)

        return traced

    def install(self, holder, attr, name, counter=None, search=()) -> None:
        """Replace ``holder.attr`` and every alias of it by a traced wrapper.

        Aliases are attributes of ``holder`` or of any object in ``search``
        (modules, classes) that are the very same object.
        """
        original = vars(holder)[attr]  # the raw class attribute, not a bound method
        traced = self.wrap(name, original, counter)
        seen = set()
        for obj in (holder, *search):
            for key, value in list(vars(obj).items()):
                if value is original and (id(obj), key) not in seen:
                    seen.add((id(obj), key))
                    setattr(obj, key, traced)
                    self._patches.append((obj, key, original))

    def uninstall(self) -> None:
        """Restore every patched binding site, newest first."""
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        clipped = [
            (max(c.start, span.start), min(c.end, span.end)) for c in children.get(i, ())
        ]
        out.append(span.duration - _covered(clipped))
    return out


def ancestors(spans, i):
    """Indices of span ``i``'s ancestors, nearest first."""
    j = spans[i].parent
    while j is not None:
        yield j
        j = spans[j].parent
