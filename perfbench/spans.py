"""Spans around calls into the library's layers, recorded from outside.

A :class:`Tracer` patches public functions where their caller looks them
up (a module global or a class attribute) with a wrapper that records one
span per call: name, start, end and the span that was open on the same
thread when it started (its parent).  Spans stay in memory; the benchmark
reduces them to per-layer totals and self times when a run ends.

A span's *self time* is its duration minus the part of that interval its
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    return {
        s.sid: s.duration - covered(children.get(s.sid, ()), s.t0, s.t1)
        for s in spans
    }


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total seconds and self seconds."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.sid]
    return out


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module function or a plain method) by a
        spanned wrapper until :meth:`restore`."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, spanned)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts empty again."""
        spans, self.spans = self.spans, []
        return spans


def _noop() -> None:
    return None


def span_cost_s(calls: int = 20000) -> float:
    """Measured cost of one span around an empty call (tracing overhead)."""
    tracer = Tracer()
    probe = type("_Probe", (), {"noop": staticmethod(_noop)})
    tracer.wrap(probe, "noop", "probe")
    t0 = time.perf_counter()
    for _ in range(calls):
        probe.noop()
    wall = time.perf_counter() - t0
    tracer.restore()
    return wall / calls
