"""In-memory span tracer for the benchmark's traced run.

Entry points are wrapped at the attribute through which their caller reaches
them (for example ``frachelm.scattering.cell_weight``, the name
``build_nystrom`` looks up at call time), so nothing in the library changes.
Each wrapped call records a :class:`Span`: name, start, end, parent span and
the workload operation it belongs to, plus counts read from its arguments and
return value.  Spans stay in memory until the run ends.  Recording is off
while ``Tracer.op`` is None, which is how set-up and the untimed output
checks stay out of the trace.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans; -1 for a root span
    op: int = -1              # workload operation id
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.enabled = False      # a disabled tracer never records
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name, counts=None):
        """Open a span under the innermost open one; None while paused."""
        if self.op is None:
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, op=self.op,
                               counts=dict(counts or {})))
        self._stack.append(idx)
        return idx

    def end(self, idx):
        if idx is None:
            return
        self.spans[idx].end = self.clock()
        self._stack.pop()

    def note(self, idx, **counts):
        """Attach counts to an open or closed span; ignored while paused."""
        if idx is not None:
            self.spans[idx].counts.update(counts)

    @contextmanager
    def span(self, name, **counts):
        idx = self.begin(name, counts)
        try:
            yield idx
        finally:
            self.end(idx)

    def wrap(self, owner, attr, label, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``label(*args, **kwargs)`` returns ``(span name, counts)`` from the
        call's arguments; ``after(result)`` returns counts read from its
        return value.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return original(*args, **kwargs)
            name, counts = label(*args, **kwargs)
            idx = tracer.begin(name, counts)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                tracer.note(idx, **after(result))
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        """Put every wrapped attribute back, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the time its direct children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(kids, s.start, s.end)
            for s, kids in zip(spans, children)]
