"""In-memory spans recorded around calls into the engine's layers.

Spans are kept per thread; only spans opened on the thread that created
the tracer are recorded, so the engine's own background threads never
nest into the driver's span tree. A layer's self time is its span's
duration minus the part of it covered by child spans; time inside the
traced window not covered by any root span is ``unattributed``.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    def __init__(self, enabled: bool = True, clock=time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled or threading.get_ident() != self._thread:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, self.clock(), float("nan"), parent)
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield
        finally:
            self._stack.pop()
            sp.end = self.clock()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, owner, attr: str, name: str | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span per
        call; ``name`` may be a callable picking the name at call time.
        ``restore`` puts the original back."""
        orig = getattr(owner, attr)
        label = name or attr

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(label() if callable(label) else label):
                return orig(*args, **kwargs)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # --- analysis ---------------------------------------------------------
    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append((sp.start, sp.end))
        out: dict[str, dict[str, float]] = {}
        for sp in self.spans:
            dur = sp.end - sp.start
            covered = _union_length(
                [(max(s, sp.start), min(e, sp.end)) for s, e in children.get(sp.id, [])
                 if min(e, sp.end) > max(s, sp.start)]
            )
            agg = out.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += dur - covered
        return out

    def unattributed(self, start: float, end: float) -> float:
        """Seconds of [start, end] covered by no root span."""
        roots = [
            (max(sp.start, start), min(sp.end, end))
            for sp in self.spans
            if sp.parent is None and min(sp.end, end) > max(sp.start, start)
        ]
        return (end - start) - _union_length(roots)
