"""Span accounting for the traced benchmark run.

Spans are recorded around calls into gfdelta from the benchmark's own files;
nothing in the package is edited. Each span name keeps, in memory, its call
count, its total duration and the part of that duration covered by child
spans, so self time is total minus children.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter_ns


class NullTracer:
    """Untraced runs: hooks cost nothing and change no callable."""

    active = False

    def wrap(self, name, fn):
        return fn

    def span(self, name):
        return nullcontext()


class Tracer:
    active = True

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, child_ns]
        self._open: list[int] = []  # child time of each open span, innermost last

    def _close(self, stat, started):
        elapsed = perf_counter_ns() - started
        child = self._open.pop()
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += child
        if self._open:
            self._open[-1] += elapsed

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        opened = self._open
        close = self._close

        def traced(*args, **kwargs):
            opened.append(0)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                close(stat, started)

        return traced

    @contextmanager
    def span(self, name):
        stat = self.stats.setdefault(name, [0, 0, 0])
        self._open.append(0)
        started = perf_counter_ns()
        try:
            yield
        finally:
            self._close(stat, started)

    def calls(self, name) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def total_s(self, name) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def self_s(self, name) -> float:
        calls, total, child = self.stats.get(name, (0, 0, 0))
        return (total - child) / 1e9
