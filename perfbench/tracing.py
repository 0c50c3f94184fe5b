"""Span tracing from outside the program.

A `Tracer` replaces module and class attributes with wrappers that record one
span per call: name, start, end and the index of the enclosing span.  Spans
stay in memory until the run ends.  A span's self time is its duration minus
the time of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    """Records spans around wrapped callables; restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def span(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_spans.pop()
                spans[index][2] = clock()

        return traced

    def wrap(self, owner, attr: str, name: str) -> None:
        """Trace calls to `owner.attr` (a module function, a method or a
        classmethod) under `name`."""
        own = vars(owner).get(attr)
        if isinstance(own, classmethod):
            replacement = classmethod(self.span(name, own.__func__))
        else:
            replacement = self.span(name, getattr(owner, attr))
        self._patched.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def close(self) -> None:
        """Put every wrapped attribute back as it was."""
        for owner, attr, own in reversed(self._patched):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patched.clear()

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total seconds and self seconds."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for (name, start, end, _), children in zip(spans, child_s):
        t = totals[name]
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += end - start - children
    return dict(totals)
