"""Floor-wide span lattice: one planner for the dyadic macro-span.

PR 8's coarsening planner re-derived the next scenario-envelope event on
every plan call by asking **every server's trace** for its
:meth:`~repro.workloads.trace.PhasedTrace.next_phase_change_after` — an
``O(n_servers)`` Python loop per control step that survives even when the
floor spends the whole run in macro-spans.  :class:`SpanPlanner` hoists
that work to construction time: the phase boundaries of every distinct
trace on the floor are merged once into a single sorted **event lattice**,
and each plan call finds the next floor-wide event with one
``np.searchsorted``.

The planner owns only the *geometry* of a span — where the next envelope
event, supervisory window boundary and run end sit, and the dyadic
quantization between ``min_span`` and ``max_span``.  Physics eligibility
(quasi-steady residuals, actuator quiescence, constraint guards) stays
with the session, which consults the planner only after every trigger is
clear.

Bit-identity
------------
Both reductions are exact, not approximate:

* ``next_event_after`` returns the smallest lattice element strictly
  greater than ``time_s``.  Each trace's ``next_phase_change_after`` is
  the smallest of *its* boundaries strictly greater than ``time_s`` (its
  final boundary — the trace end — is never returned; the active phase
  clamps), so the min over traces is exactly the union lattice's answer.
* :meth:`plan` counts the horizon by replaying the run loop's own float
  time accumulation (``stamp += control_period_s`` from the current
  stamp), so the span can neither overshoot the ``while`` condition nor
  sample a new envelope phase mid-span — the exact loop PR 8's planner
  ran, now bounded by ``max_span`` instead of hiding an ``O(n_servers)``
  event scan behind it.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.workloads.trace import PhasedTrace

__all__ = ["SpanPlanner"]


class SpanPlanner:
    """Plans dyadic macro-spans against a floor-wide event lattice.

    Parameters
    ----------
    traces:
        Every server's :class:`~repro.workloads.trace.PhasedTrace` (any
        iterable; duplicates — servers sharing a trace object — are folded
        by identity before the lattice is built).
    control_period_s:
        The fast loop's period; horizon counting replays the run loop's
        float accumulation at this step.
    min_span, max_span:
        The dyadic quantization band (spans below ``min_span`` collapse to
        fine stepping; the horizon is capped at ``max_span``).
    """

    def __init__(
        self,
        traces: Iterable[PhasedTrace],
        control_period_s: float,
        *,
        min_span: int,
        max_span: int,
    ) -> None:
        self.control_period_s = float(control_period_s)
        self.min_span = int(min_span)
        self.max_span = int(max_span)
        distinct: dict[int, PhasedTrace] = {}
        for trace in traces:
            distinct.setdefault(id(trace), trace)
        boundaries = [
            trace._boundaries[:-1]
            for trace in distinct.values()
            if len(trace._boundaries) > 1
        ]
        if boundaries:
            self._lattice = np.unique(np.concatenate(boundaries))
        else:
            self._lattice = np.empty(0, dtype=float)

    @property
    def n_events(self) -> int:
        """Number of distinct envelope events on the lattice."""
        return int(self._lattice.size)

    def next_event_after(self, time_s: float) -> float:
        """First floor-wide envelope event strictly after ``time_s``.

        Exactly ``min(trace.next_phase_change_after(time_s))`` over every
        trace on the floor, or ``inf`` once every trace is in its final
        (clamped) phase.
        """
        index = int(np.searchsorted(self._lattice, time_s, side="right"))
        if index >= self._lattice.size:
            return float("inf")
        return float(self._lattice[index])

    def plan(
        self,
        time_s: float,
        duration_s: float,
        periods_per_window: int,
        period_index: int,
    ) -> int:
        """The dyadic span the next macro-step may cover, or 1.

        The span never crosses the next envelope event, the current
        supervisory window's boundary (``periods_per_window`` of 0 means
        no supervisory loop) or the run end, and is quantized to the
        largest power of two at most the horizon.  Horizons below
        ``min_span`` collapse to 1 (fine stepping).
        """
        cap = self.max_span
        if periods_per_window:
            cap = min(cap, periods_per_window - period_index % periods_per_window)
        boundary = self.next_event_after(time_s)
        horizon = 0
        stamp = time_s
        while horizon < cap and stamp < duration_s and stamp < boundary:
            horizon += 1
            stamp += self.control_period_s
        span = 1
        while span * 2 <= horizon:
            span *= 2
        if span < self.min_span:
            return 1
        return span
