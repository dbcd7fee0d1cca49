"""Nested span tracing over monotonic clocks.

A :class:`Tracer` hands out :class:`_Span` context managers::

    with telemetry.span("floor.advance_group", group=3):
        ...

Each span records name, start/end ``time.perf_counter_ns()``, thread id,
nesting depth, and an attribute dict, into a bounded ring buffer
(:class:`collections.deque` with ``maxlen``); overflow evicts the oldest
record and bumps a ``dropped`` counter so a truncated trace is always
detectable.  Nesting depth comes from a per-thread stack
(``threading.local``), which is what keeps span attribution correct when
the floor engine fans hardware groups over a thread pool: each worker
thread has its own stack, so group spans never interleave or corrupt
each other's depth (pinned by ``tests/test_obs.py``).

Spans carry *relative* monotonic clocks only — they are meaningful for
durations and intra-run ordering, never serialized into committed
simulation results.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.exceptions import ValidationError

__all__ = ["SpanRecord", "Tracer"]


@dataclass
class SpanRecord:
    """One closed span: what ran, where, for how long, under what."""

    name: str
    start_ns: int
    end_ns: int
    thread_id: int
    depth: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    @property
    def duration_us(self) -> float:
        return (self.end_ns - self.start_ns) / 1_000.0


class _Span:
    """Context manager for one span; ``set(**attrs)`` attaches attributes.

    Attributes may be attached any time before exit — MPC rollout spans
    set ``feasible``/``energy`` after the rollout returns::

        with obs.span("mpc.rollout", candidate=i) as sp:
            result = rollout(...)
            sp.set(feasible=result.feasible)
    """

    __slots__ = ("_tracer", "_name", "_attrs", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs) -> None:
        self._attrs.update(attrs)

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self._name)
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end_ns = time.perf_counter_ns()
        self._tracer._stack().pop()
        self._tracer._record(
            SpanRecord(
                name=self._name,
                start_ns=self._start_ns,
                end_ns=end_ns,
                thread_id=threading.get_ident(),
                depth=self._depth,
                attrs=self._attrs,
            )
        )


class _NullSpan:
    """The shared no-op span used while telemetry is disabled.

    Stateless, so one module-level instance serves every disabled site
    concurrently; ``__enter__``/``__exit__``/``set`` do nothing.
    """

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Bounded ring buffer of closed spans with per-thread nesting."""

    def __init__(self, *, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValidationError(f"span ring capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.started = 0
        self.dropped = 0
        self._ring: deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()

    def span(self, name: str, attrs: dict | None = None) -> _Span:
        """Open a span; record it on context-manager exit."""
        return _Span(self, name, attrs if attrs is not None else {})

    def records(self) -> list[SpanRecord]:
        """The retained spans, oldest first (truncated at ``capacity``)."""
        with self._lock:
            return list(self._ring)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: SpanRecord) -> None:
        with self._lock:
            self.started += 1
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(record)
