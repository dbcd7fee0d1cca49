"""Property-based tests of the trace-resampling laws.

Hypothesis sweeps the input spaces the example-based suites only spot
check:

* :meth:`~repro.workloads.trace.PhasedTrace.resample` (one vectorized
  ``searchsorted``) agrees with the scalar golden model
  ``phase_at``/``activity_at`` sample for sample — with sampling grids
  randomized to land exactly on phase boundaries, where off-by-one
  ``side=`` mistakes live;
* :meth:`~repro.workloads.trace.PhasedTrace.next_phase_change_after`
  is consistent with ``phase_at``: the active phase is constant on
  ``[t, next)`` and different (or the trace over) at ``next``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.trace import PhasedTrace, TracePhase

@st.composite
def traces(draw):
    n_phases = draw(st.integers(min_value=1, max_value=6))
    phases = tuple(
        TracePhase(
            duration_s=draw(st.floats(min_value=0.25, max_value=8.0)),
            activity_factor=draw(st.floats(min_value=0.0, max_value=1.3)),
            memory_intensity=draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        for _ in range(n_phases)
    )
    return PhasedTrace("prop", phases)


class TestResampleGoldenEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(trace=traces(), data=st.data())
    def test_resample_matches_scalar_golden_model(self, trace, data):
        # Randomize dt so sample points land exactly on phase boundaries
        # (dt = boundary / integer) as well as in general position.
        boundary = data.draw(
            st.sampled_from(
                [float(trace.duration_s)]
                + [float(p.duration_s) for p in trace.phases]
            )
        )
        divisor = data.draw(st.integers(min_value=1, max_value=7))
        exact = data.draw(st.booleans())
        dt = boundary / divisor if exact else data.draw(
            st.floats(min_value=trace.duration_s / 50, max_value=trace.duration_s)
        )
        times, activities, memory = trace.resample(dt)
        assert times.shape == activities.shape == memory.shape
        assert len(times) >= 1
        for t, activity, mem in zip(times, activities, memory):
            phase = trace.phase_at(float(t))
            assert activity == phase.activity_factor
            assert mem == phase.memory_intensity
            assert trace.activity_at(float(t)) == activity

    @settings(max_examples=60, deadline=None)
    @given(trace=traces(), data=st.data())
    def test_next_phase_change_is_consistent_with_phase_at(self, trace, data):
        t = data.draw(
            st.floats(min_value=0.0, max_value=float(trace.duration_s) * 1.1)
        )
        nxt = trace.next_phase_change_after(t)
        current = trace.phase_at(t)
        if not np.isfinite(nxt):
            # Final clamped phase: any later sample sees the same phase.
            assert trace.phase_at(trace.duration_s * 2.0) is current
            return
        assert nxt > t
        # Just before the boundary: still the same phase; at it: a new one.
        probe = np.nextafter(nxt, t)
        if probe > t:
            assert trace.phase_at(probe) is current
        assert trace.phase_at(nxt) is not current
