"""Contract tests of the iterative lane that serves MPC rollout steps.

An MPC rollout refreshes every server's boundary each period, so each
step meets a new operator that it would use once.  With the snapshot the
rollout started from passed down as ``reference``, a server alone on its
boundary is solved by preconditioned conjugate gradients (PCG) from the
factor of the boundary it held in that snapshot
(:meth:`FactorizationCache._preconditioned_operator`).  The
guarantees:

* **Tier B against exact rollouts.**  A plan with the reference matches
  rollouts solved exactly (``reference=None``): worst peaks within
  1e-9 degC, plant energies within 1e-9 relative, the same candidate
  chosen.
* **Cache independence.**  A plan is a function of the snapshot and the
  candidates only: warm, after ``solver_cache.invalidate()`` and after the
  LRU was flushed by unrelated boundaries it returns ``==`` rollouts.
* **The kernel.**  One PCG step is within 1e-9 degC of the exact step at
  2.0 and 1.5 mm; a far reference runs into the step cap and returns the
  exact step bit for bit; ``invalidate()`` drops the recorded bulk
  operator with the factors.
* **Count gate.**  The factorizations one MPC trace pays inside planning,
  and zero cap fallbacks, pinned by equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from reference_kernel import TIER_B_C, golden_solve
from repro import obs
from repro.datacenter.mpc import plan_setpoint, rollout_trajectory
from repro.datacenter.supervisory import MpcSupervisoryController
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.thermal.boundary import CoolingBoundary, uniform_cooling_boundary
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import ITERATIVE_MAX_STEPS, FactorizationCache
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.loop import ThermosyphonLoop
from test_mpc import CONTROL_PERIOD_S, DURATION_S, WINDOW_S, _floor

#: Rollout substep: one backward-Euler step per 2 s control period.
ROLLOUT_DT_S = 2.0
CORE_POWER = {f"core{i}": 6.0 + i for i in range(8)}


@pytest.fixture()
def hub():
    """A fresh installed telemetry hub, restored afterwards."""
    hub = obs.Telemetry()
    previous = obs.set_telemetry(hub)
    try:
        yield hub
    finally:
        obs.set_telemetry(previous)


@pytest.fixture()
def warm_session(floorplan, power_model):
    """A floor session advanced through one supervisory window."""
    session = _floor(floorplan, power_model).session()
    session.reset()
    for index in range(4):
        session.advance_period(index * CONTROL_PERIOD_S)
    yield session
    session.close()


def _controller() -> MpcSupervisoryController:
    return MpcSupervisoryController(period_s=WINDOW_S, setpoint_max_c=40.0, horizon=2)


def _plan(session, controller):
    return plan_setpoint(session, controller, time_s=WINDOW_S, duration_s=DURATION_S)


class TestRolloutsAgainstExact:
    def test_plan_is_tier_b_of_exact_rollouts(self, warm_session, hub):
        session = warm_session
        controller = _controller()
        entry = session.snapshot()
        exact = []
        for candidate in controller.candidates:
            setpoints = candidate.setpoints_from(
                session.setpoint_c, controller.step_c, controller.clamp
            )
            exact.append(
                rollout_trajectory(
                    session,
                    setpoints,
                    start_time_s=WINDOW_S,
                    window_s=controller.period_s,
                    rollout_periods_per_window=controller.rollout_periods_per_window,
                    rollout_substeps=controller.rollout_substeps,
                    duration_s=DURATION_S,
                    reference=None,
                )
            )
            session.restore(entry)
        assert hub.counters.get("cache.iterative_solves") == 0

        plan = _plan(session, controller)
        # The lane really served the plan's single-use steps.
        assert hub.counters.get("cache.iterative_solves") > 0
        assert hub.counters.get("cache.iterative_fallbacks") == 0
        for rollout, (energy, peak) in zip(plan.rollouts, exact):
            assert abs(rollout.worst_peak_case_c - peak) <= TIER_B_C
            assert abs(rollout.plant_energy_j - energy) <= 1e-9 * abs(energy)
        limit = controller.t_case_max_c - controller.guard_margin_c
        costs = [energy if peak <= limit else float("inf") for energy, peak in exact]
        if min(costs) < float("inf"):
            expected = costs.index(min(costs))
        else:
            peaks = [peak for _, peak in exact]
            expected = peaks.index(min(peaks))
        assert plan.chosen is plan.rollouts[expected]


class TestCacheIndependence:
    def test_plan_does_not_depend_on_the_cache(self, warm_session):
        session = warm_session
        controller = _controller()
        simulators = {id(s): s for s in session.model.rack_simulators}.values()
        warm = _plan(session, controller)

        for simulator in simulators:
            simulator.solver_cache.invalidate()
        cold = _plan(session, controller)

        # Flush the LRU with unrelated boundaries at the rollout dt.
        for simulator in simulators:
            n_rows, n_columns = simulator.shape
            fields = np.full((1, simulator.grid.n_cells), 40.0)
            maps = np.zeros((1, n_rows, n_columns))
            for i in range(20):
                unrelated = uniform_cooling_boundary(
                    n_rows, n_columns, 1.0e4 + 100.0 * i, 25.0
                )
                simulator.transient_step_many_from_maps(
                    fields, maps, unrelated, ROLLOUT_DT_S
                )
            assert simulator.solver_cache.stats.transient_entries == 16
        flushed = _plan(session, controller)

        assert warm.rollouts == cold.rollouts == flushed.rollouts
        assert warm.chosen == cold.chosen == flushed.chosen


def _step_setup(cell_size_mm: float):
    """A simulator, a snapshot boundary, a moved boundary and a field."""
    simulator = ThermalSimulator(
        build_xeon_e5_v4_floorplan(), cell_size_mm=cell_size_mm
    )
    loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN)
    water = PAPER_OPTIMIZED_DESIGN.water_loop()
    power_map = simulator.power_map(CORE_POWER)
    pitch = simulator.grid.cell_pitch_mm()
    reference = loop.cooling_boundary(power_map, pitch, water_loop=water).boundary
    # A rollout period: the load rises and the setpoint moves up one degree.
    maps = 1.2 * power_map[np.newaxis]
    moved = loop.cooling_boundary(
        maps[0],
        pitch,
        water_loop=water.with_inlet_temperature(water.inlet_temperature_c + 1.0),
    ).boundary
    fields = simulator.steady_state_many_from_maps(power_map[np.newaxis], reference)
    return simulator, reference, moved, fields, maps


class TestKernel:
    @pytest.mark.parametrize("cell_size_mm", [2.0, 1.5])
    def test_pcg_step_is_tier_b_of_exact_step(self, cell_size_mm, hub):
        simulator, reference, moved, fields, maps = _step_setup(cell_size_mm)
        exact = simulator.transient_step_many_from_maps(
            fields, maps, moved, ROLLOUT_DT_S
        )
        misses = simulator.solver_cache.stats.misses
        iterative = simulator.transient_step_many_from_maps(
            fields, maps, moved, ROLLOUT_DT_S, reference=reference
        )
        assert np.max(np.abs(iterative - exact)) <= TIER_B_C
        assert hub.counters.get("cache.iterative_solves") == 1
        assert hub.counters.get("cache.iterative_fallbacks") == 0
        steps = hub.histograms_snapshot()["cache.iterative_steps"]
        assert 0 < steps["sum"] < ITERATIVE_MAX_STEPS
        # The reference operator was factored; the moved one was not.
        assert simulator.solver_cache.stats.misses == misses + 1

    def test_far_reference_hits_the_cap_and_returns_the_exact_step(self, hub):
        simulator, reference, moved, fields, maps = _step_setup(2.0)
        far = CoolingBoundary(
            htc_w_m2k=100.0 * reference.htc_w_m2k,
            fluid_temperature_c=reference.fluid_temperature_c,
        )
        iterative = simulator.transient_step_many_from_maps(
            fields, maps, moved, ROLLOUT_DT_S, reference=far
        )
        exact = simulator.transient_step_many_from_maps(
            fields, maps, moved, ROLLOUT_DT_S
        )
        assert np.array_equal(iterative, exact)
        assert hub.counters.get("cache.iterative_fallbacks") == 1
        assert hub.histograms_snapshot()["cache.iterative_steps"]["sum"] == (
            ITERATIVE_MAX_STEPS
        )

    def test_invalidate_drops_the_recorded_bulk_operator(self):
        """Swap the bulk in place: after invalidate() a PCG step solves the
        new operator, not the recorded old one."""
        simulator, reference, moved, fields, maps = _step_setup(2.0)
        network = simulator.network
        cache = FactorizationCache(network)

        def pcg_step():
            _, boundary_rhs = network.boundary_terms(moved)
            rhs = (
                boundary_rhs
                + network.power_vector(maps[0])
                + network.capacitance / ROLLOUT_DT_S * fields[0]
            )
            step = cache._step_fields(
                fields, maps, moved, ROLLOUT_DT_S, reference=reference
            )
            return step[0], rhs

        def golden_step(rhs):
            matrix, _ = network.conductance_system(moved)
            return golden_solve(
                matrix + sparse.diags(network.capacitance / ROLLOUT_DT_S), rhs
            )

        before, rhs = pcg_step()
        assert np.max(np.abs(before - golden_step(rhs))) <= TIER_B_C
        network._bulk_matrix = 1.5 * network.bulk_matrix
        cache.invalidate()
        after, rhs = pcg_step()
        assert np.max(np.abs(after - golden_step(rhs))) <= TIER_B_C
        assert np.max(np.abs(after - before)) > 1e-3


class TestCountGate:
    def test_mpc_trace_planning_factorizations(self, floorplan, power_model, hub):
        """Factorizations paid inside planning on one ``_floor`` MPC trace.

        Two plans of six candidates over two windows.  Without the
        iterative lane, planning paid 56 here: every refreshed operator a
        rollout met was factored.  With it, each plan factors only the four
        servers' snapshot boundaries at the rollout dt, 8 in all, and no
        PCG solve reaches the step cap.
        """
        model = _floor(floorplan, power_model)
        model.run_trace(duration_s=DURATION_S, supervisory=_controller())
        records = hub.tracer.records()
        plans = [r for r in records if r.name == "mpc.plan"]
        factorizations = [
            r
            for r in records
            if r.name == "cache.factorize"
            and any(p.start_ns <= r.start_ns and r.end_ns <= p.end_ns for p in plans)
        ]
        assert len(plans) == 2
        assert len(factorizations) == 8
        assert hub.counters.get("cache.iterative_fallbacks") == 0
