"""Telemetry hub: named counters, gauges and fixed-bucket histograms.

The observability substrate of the whole engine stack.  A
:class:`Telemetry` hub owns three metric families plus a
:class:`~repro.obs.tracing.Tracer` for nested span timing; instrumentation
sites talk to the *active* hub through :func:`get_telemetry`, which
returns a module-level :class:`_NullTelemetry` singleton unless a run
explicitly enabled telemetry.

Zero-overhead-when-disabled contract
------------------------------------
The null hub's mutators are empty methods and its :meth:`span` returns a
shared no-op context manager, so a disabled instrumentation site pays one
attribute lookup and one call — no allocation, no lock, no clock read.
Hot loops that would pay even that per iteration hoist the hub once
(``obs = get_telemetry()``) and branch on ``obs.enabled``.

Determinism contract
--------------------
Telemetry only ever *observes*: no simulation code path reads a counter,
gauge, histogram or span back into a physics decision, so committed
simulation results are bit-identical with telemetry enabled or disabled
(``tests/test_obs_identity.py`` pins this for the fine, coarsened and MPC
engine lanes).  Wall-clock readings live exclusively in the telemetry
stream — never in committed trace objects — which is what keeps
snapshot/restore rollouts and warm-store replays deterministic.

Thread safety
-------------
:class:`Counters` guards its read-modify-write with a lock so the
thread-parallel floor engine's worker threads can increment shared
counters; integer addition is order-independent, so the final values are
deterministic regardless of scheduling.  Span records are appended under
the tracer's lock with per-thread nesting stacks (see
:mod:`repro.obs.tracing`).
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from repro.exceptions import ValidationError
from repro.obs.tracing import _NULL_SPAN, Tracer

__all__ = [
    "Counters",
    "Histogram",
    "NULL_TELEMETRY",
    "Telemetry",
    "disable",
    "enable",
    "get_telemetry",
    "set_telemetry",
]


class Counters:
    """A bag of named monotonic integer counters.

    The storage behind the hub's own counters and the per-instance bags
    of :class:`~repro.thermal.solver_cache.FactorizationCache` and
    :class:`~repro.thermal.warm_store.WarmStore`, whose stats dataclasses
    are *views* over one of these.  Increments take a lock (worker
    threads of the parallel floor engine share bags); reads are lock-free
    snapshots of plain ints.
    """

    __slots__ = ("_values", "_lock")

    def __init__(self) -> None:
        self._values: dict[str, int] = {}
        self._lock = threading.Lock()

    def add(self, name: str, value: int = 1) -> None:
        """Increment ``name`` by ``value`` (created at zero on first use)."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + value

    def get(self, name: str, default: int = 0) -> int:
        """Current value of ``name`` (``default`` when never touched)."""
        return self._values.get(name, default)

    def snapshot(self) -> dict[str, int]:
        """An independent ``{name: value}`` copy of every counter."""
        with self._lock:
            return dict(self._values)

    def __len__(self) -> int:
        return len(self._values)


class Histogram:
    """Fixed-bucket histogram of observed values.

    ``bounds`` are the inclusive upper bounds of the finite buckets; one
    implicit overflow bucket catches everything beyond the last bound.
    Observation cost is one bisect + one locked increment, independent of
    the observation count — safe for hot-path latency recording.
    """

    __slots__ = ("bounds", "counts", "total", "sum", "_lock")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValidationError(
                f"histogram bounds must be sorted and non-empty: {bounds}"
            )
        self.bounds = tuple(float(bound) for bound in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.total += 1
            self.sum += value

    def snapshot(self) -> dict:
        """Buckets, counts, total and sum as plain exportable values."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self.counts),
                "total": self.total,
                "sum": self.sum,
            }


#: Default bucket bounds for latency-style histograms (microseconds).
DEFAULT_LATENCY_BOUNDS_US = (
    10.0, 50.0, 100.0, 500.0, 1_000.0, 5_000.0, 10_000.0, 50_000.0,
    100_000.0, 500_000.0, 1_000_000.0,
)


class Telemetry:
    """One run's metric hub: counters, gauges, histograms and spans.

    Instances are cheap; a run that wants telemetry builds one
    (optionally bounding the span ring with ``span_capacity``), installs
    it with :func:`set_telemetry` (or :func:`enable`), and exports it at
    the end through :mod:`repro.obs.export`.
    """

    enabled = True

    def __init__(self, *, span_capacity: int = 65536) -> None:
        self.counters = Counters()
        self.tracer = Tracer(capacity=span_capacity)
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Metric mutators (no-ops on the null hub)
    # ------------------------------------------------------------------ #
    def inc(self, name: str, value: int = 1) -> None:
        """Increment counter ``name``."""
        self.counters.add(name, value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_US,
    ) -> None:
        """Record ``value`` on histogram ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram(bounds))
        histogram.observe(value)

    def span(self, name: str, **attrs):
        """A timed nested span context manager (see :class:`Tracer`)."""
        return self.tracer.span(name, attrs)

    # ------------------------------------------------------------------ #
    # Read side (exporters, reports, the summary footer)
    # ------------------------------------------------------------------ #
    def gauges_snapshot(self) -> dict[str, float]:
        """Every gauge's latest value."""
        with self._lock:
            return dict(self._gauges)

    def histograms_snapshot(self) -> dict[str, dict]:
        """Every histogram's buckets/counts/total/sum."""
        with self._lock:
            histograms = dict(self._histograms)
        return {name: histogram.snapshot() for name, histogram in histograms.items()}

    def footer(self) -> str:
        """Compact one-line digest for trace summaries.

        Span totals (started, recorded, dropped), the ROM fallback and
        basis-rebuild cause counters and the cache hit rate when those
        counters were published — the ``DatacenterTrace.summary()``
        telemetry footer.  No wall-clock values: the footer may be
        embedded in artifacts that must stay deterministic.
        """
        tracer = self.tracer
        parts = [
            f"{tracer.started} spans ({len(tracer.records())} in ring, "
            f"{tracer.dropped} dropped)"
        ]
        counters = self.counters.snapshot()
        causes = {
            cause: counters.get(f"rom.fallback.{cause}", 0)
            for cause in ("error", "guard", "projection")
        }
        if any(causes.values()):
            parts.append(
                "rom fallbacks "
                + "/".join(f"{cause}={count}" for cause, count in causes.items())
            )
        rebuilds = {
            cause: counters.get(f"rom.rebuild.{cause}", 0)
            for cause in ("projection", "steady_state")
        }
        if any(rebuilds.values()):
            parts.append(
                "rom rebuilds "
                + "/".join(f"{cause}={count}" for cause, count in rebuilds.items())
            )
        hits = counters.get("cache.hits", 0)
        misses = counters.get("cache.misses", 0)
        if hits or misses:
            parts.append(f"cache hit rate {hits / (hits + misses):.1%}")
        return "; ".join(parts)


class _NullTelemetry(Telemetry):
    """The disabled hub: every mutator is a no-op, ``span`` is free.

    A real :class:`Telemetry` subclass so type expectations hold, but the
    overridden mutators never touch the (empty) storage, and ``span``
    hands back one shared no-op context manager — the whole disabled-mode
    cost of an instrumentation site is the method call itself
    (benchmark-gated in ``benchmarks/test_bench_obs.py``).
    """

    enabled = False

    def inc(self, name: str, value: int = 1) -> None:  # noqa: D102
        pass

    def gauge(self, name: str, value: float) -> None:  # noqa: D102
        pass

    def observe(self, name, value, bounds=DEFAULT_LATENCY_BOUNDS_US):  # noqa: D102
        pass

    def span(self, name: str, **attrs):  # noqa: D102
        return _NULL_SPAN

    def footer(self) -> str:  # noqa: D102
        return ""


#: The module-level no-op singleton served while telemetry is disabled.
NULL_TELEMETRY = _NullTelemetry()

_active: Telemetry = NULL_TELEMETRY


def get_telemetry() -> Telemetry:
    """The active hub — :data:`NULL_TELEMETRY` unless a run enabled one."""
    return _active


def set_telemetry(hub: Telemetry | None) -> Telemetry:
    """Install ``hub`` as the active telemetry hub (``None`` disables).

    Returns the previously active hub so callers can restore it —
    the pattern tests and the experiments runner use::

        previous = set_telemetry(Telemetry())
        try:
            ...
        finally:
            set_telemetry(previous)
    """
    global _active
    previous = _active
    _active = hub if hub is not None else NULL_TELEMETRY
    return previous


def enable(*, span_capacity: int = 65536) -> Telemetry:
    """Create, install and return a fresh enabled hub."""
    hub = Telemetry(span_capacity=span_capacity)
    set_telemetry(hub)
    return hub


def disable() -> None:
    """Re-install the null hub (instrumentation returns to no-op cost)."""
    set_telemetry(NULL_TELEMETRY)
