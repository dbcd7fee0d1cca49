"""One-server transient lane tests: warm-start advance and boundary policy.

Transient stepping lives in one engine, :class:`FloorEngine`; a single
server is a one-server floor.  These tests pin the lane's behaviour on
that floor: steady initialization, warm starts settling onto the new
equilibrium, substeps sharing one operator, the within-period peak, reset,
rejecting a bad substep count before any state changes, and the
cooling-boundary hold rule of :mod:`repro.core.session` (hold on
small drift, refresh on large drift, a water-loop change or a forced
refresh).  The steady lane is :class:`CooledServerSimulation`.
"""

import numpy as np
import pytest

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.rack_session import RackSession, ServerLoad
from repro.datacenter.floor import FloorEngine
from repro.exceptions import ValidationError
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration


@pytest.fixture(scope="module")
def rack(floorplan, power_model, coarse_thermal_simulator):
    return RackSession(
        1,
        floorplan=floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
        power_model=power_model,
        thermal_simulator=coarse_thermal_simulator,
    )


@pytest.fixture(scope="module")
def floor(rack):
    return FloorEngine([rack])


@pytest.fixture(scope="module")
def mapping(floorplan, x264):
    mapper = ThreadMapper(floorplan)
    return mapper.map(x264, Configuration(8, 2, 3.2), ProposedThermalAwareMapping())


def _load(x264, mapping, activity_factor=1.0, water_loop=None):
    return ServerLoad(
        benchmark=x264,
        mapping=mapping,
        activity_factor=activity_factor,
        water_loop=water_loop,
    )


def _power_map(rack, load):
    _, power_maps, _ = rack._evaluate_power([load])
    return power_maps[0]


def _advance(floor, load, dt_s, *, n_substeps=1, force_boundary_refresh=False):
    """One period of the one-server floor; returns the rack's advance."""
    return floor.advance(
        [[load]],
        dt_s,
        n_substeps=n_substeps,
        force_boundary_refresh=[force_boundary_refresh],
    ).racks[0]


def _held_power_w(rack):
    """Total power the held boundary was built at (None if unset)."""
    state = rack.snapshot().boundaries[0]
    return state.total_power_w if state is not None else None


class TestSteadyLane:
    def test_mapping_entry_point_delegates_to_activities(
        self, floorplan, power_model, coarse_thermal_simulator, x264, mapping
    ):
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=coarse_thermal_simulator,
        )
        via_mapping = simulation.simulate_mapping(x264, mapping)
        via_activities = simulation.simulate_activities(
            ThreadMapper(floorplan, orientation=simulation.design.orientation).activities(
                x264, mapping
            ),
            mapping.configuration.frequency_ghz,
            memory_intensity=x264.memory_intensity,
        )
        assert via_mapping.case_temperature_c == via_activities.case_temperature_c
        assert via_mapping.package_power_w == via_activities.package_power_w
        # The simulation holds the supplied substrates, not copies.
        assert simulation.floorplan is floorplan
        assert simulation.power_model is power_model
        assert simulation.thermal_simulator is coarse_thermal_simulator
        assert simulation.loop.design is simulation.design

    def test_simulate_mapping_carries_mapping(
        self, floorplan, power_model, coarse_thermal_simulator, x264, mapping
    ):
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=coarse_thermal_simulator,
        )
        result = simulation.simulate_mapping(x264, mapping)
        assert result.mapping is mapping
        assert result.configuration is mapping.configuration
        assert result.benchmark_name == x264.name


class TestAdvance:
    def test_first_advance_initializes_from_steady(self, floor, rack, x264, mapping):
        floor.reset()
        assert rack.temperatures is None
        load = _load(x264, mapping)
        power = _power_map(rack, load)
        steady = rack.thermal_simulator.steady_state_from_map(
            power,
            rack.loop.cooling_boundary(
                power, rack.thermal_simulator.grid.cell_pitch_mm()
            ).boundary,
        )
        step = _advance(floor, load, 2.0).servers[0]
        # Initialized at equilibrium for this power, the field barely moves.
        assert step.settle_residual_c < 0.05
        assert step.result.case_temperature_c == pytest.approx(
            steady.case_temperature_c(), abs=0.2
        )
        assert rack.temperatures is not None

    def test_warm_start_converges_to_new_steady(self, floor, rack, x264, mapping):
        """After a power step, repeated advances approach the new equilibrium."""
        floor.reset()
        low = _load(x264, mapping, activity_factor=0.5)
        high = _load(x264, mapping, activity_factor=1.0)
        _advance(floor, low, 2.0)  # initialize at the low point
        high_power = _power_map(rack, high)
        boundary = rack.loop.cooling_boundary(
            high_power, rack.thermal_simulator.grid.cell_pitch_mm()
        ).boundary
        target = rack.thermal_simulator.steady_state_from_map(high_power, boundary)

        residuals = []
        step = None
        for _ in range(60):
            step = _advance(floor, high, 2.0).servers[0]
            residuals.append(step.settle_residual_c)
        assert step is not None
        # Residual decays as the field settles...
        assert residuals[-1] < residuals[0]
        assert residuals[-1] < 0.01
        # ...towards the steady solution at the new power.
        assert step.result.case_temperature_c == pytest.approx(
            target.case_temperature_c(), abs=0.5
        )

    def test_substeps_share_one_operator(self, floor, rack, x264, mapping):
        floor.reset()
        load = _load(x264, mapping)
        cache = rack.thermal_simulator.solver_cache
        _advance(floor, load, 2.0, n_substeps=4)
        misses_before = cache.stats.misses
        _advance(floor, load, 2.0, n_substeps=4)
        assert cache.stats.misses == misses_before  # all substeps are cache hits

    def test_period_peak_tracks_overshoot(self, floor, x264, mapping):
        floor.reset()
        step = _advance(floor, _load(x264, mapping), 4.0, n_substeps=4).servers[0]
        assert step.period_peak_case_c >= step.result.case_temperature_c - 1e-9

    def test_reset_forgets_state(self, floor, rack, x264, mapping):
        _advance(floor, _load(x264, mapping), 2.0)
        floor.reset()
        assert rack.temperatures is None
        assert _held_power_w(rack) is None

    def test_rejects_bad_substeps(self, floor, rack, x264, mapping):
        """A rejected period changes neither the field nor the held boundary."""
        floor.reset()
        _advance(floor, _load(x264, mapping), 2.0)
        before = rack.snapshot()
        with pytest.raises(ValidationError):
            # The drift alone would refresh the boundary of a valid period.
            _advance(floor, _load(x264, mapping, activity_factor=0.5), 2.0, n_substeps=0)
        after = rack.snapshot()
        assert np.array_equal(after.temperatures, before.temperatures)
        assert after.boundaries[0] is before.boundaries[0]


class TestBoundaryRefreshPolicy:
    def test_small_power_drift_holds_boundary(self, floor, rack, x264, mapping):
        floor.reset()
        load = _load(x264, mapping)
        first = _advance(floor, load, 2.0).servers[0]
        assert first.boundary_refreshed
        jittered = _load(x264, mapping, activity_factor=1.02)
        # Below the 15% refresh tolerance.
        drift = float(_power_map(rack, jittered).sum()) / float(
            _power_map(rack, load).sum()
        )
        assert 1.0 < drift < 1.15
        second = _advance(floor, jittered, 2.0).servers[0]
        assert not second.boundary_refreshed
        assert _held_power_w(rack) == pytest.approx(float(_power_map(rack, load).sum()))

    def test_large_power_drift_refreshes(self, floor, rack, x264, mapping):
        floor.reset()
        _advance(floor, _load(x264, mapping, activity_factor=0.5), 2.0)
        high = _load(x264, mapping, activity_factor=1.0)
        step = _advance(floor, high, 2.0).servers[0]
        assert step.boundary_refreshed
        assert _held_power_w(rack) == pytest.approx(float(_power_map(rack, high).sum()))

    def test_water_loop_change_refreshes(self, floor, rack, x264, mapping):
        floor.reset()
        loop_a = rack.design.water_loop()
        _advance(floor, _load(x264, mapping, water_loop=loop_a), 2.0)
        step = _advance(
            floor, _load(x264, mapping, water_loop=loop_a.with_flow_rate(12.0)), 2.0
        ).servers[0]
        assert step.boundary_refreshed

    def test_force_refresh_overrides_tolerance(self, floor, x264, mapping):
        floor.reset()
        load = _load(x264, mapping)
        _advance(floor, load, 2.0)
        step = _advance(floor, load, 2.0, force_boundary_refresh=True).servers[0]
        assert step.boundary_refreshed

    def test_refreshed_boundary_matches_steady_build(self, floor, rack, x264, mapping):
        """The held boundary is exactly what the steady path would build."""
        floor.reset()
        load = _load(x264, mapping)
        _advance(floor, load, 2.0)
        fresh = rack.loop.cooling_boundary(
            _power_map(rack, load), rack.thermal_simulator.grid.cell_pitch_mm()
        )
        held = rack.held_boundaries()[0].boundary_result
        np.testing.assert_allclose(held.boundary.htc_w_m2k, fresh.boundary.htc_w_m2k)


class TestAdvanceMapping:
    def test_transient_step_result_fields(self, floor, x264, mapping):
        floor.reset()
        advance = _advance(floor, _load(x264, mapping), 2.0, n_substeps=3)
        step = advance.servers[0]
        assert advance.n_substeps == 3
        assert advance.dt_s == pytest.approx(2.0)
        assert step.result.benchmark_name == x264.name
        assert step.result.mapping is mapping
        assert step.settle_residual_c >= 0.0
        assert np.isfinite(step.period_peak_case_c)

    def test_transient_tracks_steady_for_constant_load(
        self, floor, rack, x264, mapping
    ):
        """At a constant phase the transient lane sits on the steady answer."""
        floor.reset()
        steady = CooledServerSimulation(
            rack.floorplan,
            power_model=rack.power_model,
            thermal_simulator=rack.thermal_simulator,
        ).simulate_mapping(x264, mapping)
        step = None
        for _ in range(20):
            step = _advance(floor, _load(x264, mapping), 2.0).servers[0]
        assert step is not None
        assert step.result.case_temperature_c == pytest.approx(
            steady.case_temperature_c, abs=0.3
        )
        assert step.result.package_power_w == pytest.approx(steady.package_power_w)
