"""In-memory span recorder that wraps functions of the program from outside.

A span is (name, start, end, parent, run id, info).  Wrappers are installed on
module or class attributes for the duration of a ``with`` block and the
original attributes are put back on exit.  Spans stay in memory; the caller
reads ``Tracer.spans`` when the pass is over.
"""

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]   # index of the enclosing span, None for a root
    run: int                # id shared by a root span and all its descendants
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded under ``name``.

    ``describe(args, kwargs)`` runs before the clock starts and returns the
    span's info dict (sizes, kinds) without touching the timed call.
    """

    owner: object
    attr: str
    name: str
    describe: Optional[Callable] = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._runs = 0

    def _wrap(self, target: Target, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = target.describe(args, kwargs) if target.describe else {}
            if self._stack:
                parent = self._stack[-1]
                run = self.spans[parent].run
            else:
                parent, run = None, self._runs
                self._runs += 1
            span = Span(target.name, 0.0, 0.0, parent, run, info)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self, targets):
        saved = []
        try:
            for t in targets:
                original = t.owner.__dict__[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(t, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
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


def self_times(spans) -> list:
    """Per span: its duration minus the part of its interval that its direct
    children cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(spans[c].start, s.start), min(spans[c].end, s.end))
                for c in children.get(i, ())]
        out.append(s.duration - _covered([k for k in kids if k[1] > k[0]]))
    return out
