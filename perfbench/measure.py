"""Measurement helpers: the percentile rule, spans, and process memory.

Everything here is pure standard library so the helpers can be tested
without building or serving anything.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional


def min_samples(percentile: float) -> int:
    """Samples needed so that at least ten lie beyond ``percentile``.

    ``percentile`` is in (0, 100); p50 needs 20 samples, p90 needs 100 and
    p99 needs 1000.
    """
    if not 0 < percentile < 100:
        raise ValueError(f"percentile must be in (0, 100), got {percentile}")
    # Rounding first keeps 99.9 (not exactly representable) at 10000.
    return math.ceil(round(10 * 100 / (100 - percentile), 6))


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile; raises when the sample is too small for it.

    The rule is the benchmark's own: a percentile is only reported when at
    least ten samples lie beyond it, so a metric name such as ``_p99`` is a
    promise about the sample size.
    """
    data = sorted(values)
    need = min_samples(pct)
    if len(data) < need:
        raise ValueError(
            f"p{pct:g} needs at least {need} samples, got {len(data)}"
        )
    rank = math.ceil(round(pct / 100 * len(data), 6))
    return data[max(rank, 1) - 1]


def median(values: Iterable[float]) -> float:
    data = list(values)
    if not data:
        raise ValueError("median of an empty sample")
    return statistics.median(data)


def group_rate(times: Iterable[float], groups: int) -> float:
    """Events per second as the median over ``groups`` runs of consecutive
    events, each timed from its first event to the next group's first.

    A stall (another process taking the core) slows one group, not the
    reported rate; unlike counting events per fixed window, the result is
    not quantised to whole events.
    """
    data = sorted(times)
    bounds = [round(g * (len(data) - 1) / groups) for g in range(groups + 1)]
    return median((b - a) / (data[b] - data[a]) for a, b in zip(bounds, bounds[1:]))


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Span:
    """One timed call: name, start, end and parent span."""

    __slots__ = ("span_id", "name", "start", "end", "parent")

    def __init__(self, span_id: int, name: str, start: float, parent: Optional[int]) -> None:
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for calls the benchmark makes into a layer.

    Spans nest through ``with tracer.span(...)``: a span opened inside
    another becomes its child.  A disabled tracer stores no spans; the
    ``with`` block is still timed.
    """

    def __init__(self, enabled: bool = True, clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._clock = clock

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed elsewhere (a request timed by the load generator)."""
        if not self.enabled:
            return
        span = Span(len(self.spans), name, start, None)
        span.end = end
        self.spans.append(span)

    def _open(self, name: str, start: float) -> Optional[Span]:
        if not self.enabled:
            return None
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), name, start, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Optional[Span], end: float) -> None:
        if span is None:
            return
        span.end = end
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def self_times(self, name: str) -> List[float]:
        """Duration of every span called ``name`` minus its children's.

        Children of a span run one after another inside it, so their
        durations add up without overlap.
        """
        children: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.duration
        return [s.duration - children.get(s.span_id, 0.0) for s in self.spans if s.name == name]


class _SpanContext:
    """Times its block whether or not the tracer records spans, so untraced
    runs still get their end-to-end timings from the same code."""

    __slots__ = ("_tracer", "_name", "_span", "start", "end")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._span: Optional[Span] = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "_SpanContext":
        self.start = self._tracer._clock()
        self._span = self._tracer._open(self._name, self.start)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = self._tracer._clock()
        self._tracer._close(self._span, self.end)


# --------------------------------------------------------------------------- #
# process memory
# --------------------------------------------------------------------------- #
def pss_kb(pid: int, proc_root: str = "/proc") -> int:
    """Proportional set size of ``pid`` in kB, from ``smaps_rollup``."""
    path = os.path.join(proc_root, str(pid), "smaps_rollup")
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("Pss:"):
                return int(line.split()[1])
    raise ValueError(f"{path} has no Pss line")


def bytes_written(pid: str = "self", proc_root: str = "/proc") -> int:
    """Bytes the process has passed to write(2) so far (``wchar``): an exact
    count that does not depend on the page cache or the disk."""
    path = os.path.join(proc_root, str(pid), "io")
    with open(path, "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise ValueError(f"{path} has no wchar line")


def pss_mb(pids: Iterable[int], proc_root: str = "/proc") -> float:
    """PSS summed over ``pids``, in MB (2**20 bytes)."""
    return sum(pss_kb(pid, proc_root) for pid in pids) / 1024.0
