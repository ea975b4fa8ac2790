"""In-memory spans around the benchmark's calls into copa, and self times.

A span is (name, start, end, parent, request): parent is the index of the
enclosing span or -1, request the id of the request it belongs to.  The
benchmark opens one span per call into a layer, never one per object, so a
run keeps a few spans per request.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "request"


class Tracer:
    """Span recorder.  With enabled=False it records no spans and only keeps
    what failure attribution needs: the span an exception left first, and
    the span opened last."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.request = -1
        self.raised_in: str | None = None
        self.last_opened = ROOT
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        self.last_opened = name
        if self.enabled:
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.request))
            self._stack.append(idx)
            start = time.perf_counter()
        try:
            yield
        except BaseException:
            if self.raised_in is None:
                self.raised_in = name
            raise
        finally:
            if self.enabled:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.request)

    def start_request(self, request_id: int) -> None:
        self.request = request_id
        self.raised_in = None
        self.last_opened = ROOT


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans, scale=None) -> tuple[dict[str, float], dict[int, dict[str, float]]]:
    """Self time summed per layer, and per request and layer; scale, if
    given, holds one factor per span that its self time is multiplied by."""
    per_layer: dict[str, float] = defaultdict(float)
    per_request: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, ((name, _, _, _, req), own) in enumerate(zip(spans, self_times(spans))):
        if scale is not None:
            own *= scale[i]
        per_layer[name] += own
        per_request[req][name] += own
    return dict(per_layer), {r: dict(v) for r, v in per_request.items()}
