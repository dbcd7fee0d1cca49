"""Datacenter subsystem tests: floor engine, supervisory loop, scenarios.

The load-bearing guarantees:

* a fixed-setpoint :class:`DatacenterModel` run reproduces the per-server
  golden loop of ``tests/reference_session.py`` **bit for bit** (the floor
  engine adds sharing, never different physics);
* the supervisory setpoint loop saves chiller plant energy against the
  fixed-setpoint baseline at zero thermal violations;
* racks share one factorization cache — a homogeneous floor pays what a
  single rack pays, asserted through merged :class:`CacheStats`;
* scenarios are seeded and replayable.
"""

import numpy as np
import pytest

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation, T_CASE_MAX_C
from repro.core.runtime_controller import RackServer, ThermosyphonController
from repro.datacenter.model import DatacenterModel, RackSpec
from repro.datacenter.scenarios import (
    SCENARIO_KINDS,
    build_scenario,
    modulate_trace,
)
from repro.datacenter.supervisory import (
    SupervisoryAction,
    SupervisoryController,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.chiller import ChillerPlant
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import generate_trace

from reference_session import reference_rack_trace

CELL_SIZE_MM = 2.5
CONTROL_PERIOD_S = 2.0
DURATION_S = 24.0

#: All decision fields that must match the golden loop exactly.
_DECISION_FIELDS = (
    "time_s",
    "case_temperature_c",
    "die_hot_spot_c",
    "package_power_w",
    "water_flow_kg_h",
    "frequency_ghz",
    "action",
    "settle_residual_c",
    "period_peak_case_c",
)


def _simulator(floorplan):
    return ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM)


def _mapping(floorplan, benchmark, frequency_ghz=3.2):
    mapper = ThreadMapper(floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation)
    return mapper.map(
        benchmark, Configuration(8, 2, frequency_ghz), ProposedThermalAwareMapping()
    )


def _scenario(floorplan, kind="flash_crowd", seed=3, n_racks=2, servers_per_rack=4):
    return build_scenario(
        kind,
        n_racks=n_racks,
        servers_per_rack=servers_per_rack,
        duration_s=DURATION_S,
        seed=seed,
        floorplan=floorplan,
    )


def _floor(scenario, floorplan, power_model, **kwargs):
    kwargs.setdefault("plant", ChillerPlant(free_cooling_outdoor_c=18.0))
    return DatacenterModel(
        scenario.racks,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=_simulator(floorplan),
        control_period_s=CONTROL_PERIOD_S,
        **kwargs,
    )


class TestScenarioEngine:
    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_builds_every_kind(self, floorplan, kind):
        scenario = build_scenario(
            kind, n_racks=2, servers_per_rack=3, duration_s=30.0, seed=1,
            floorplan=floorplan,
        )
        assert scenario.n_racks == 2
        assert scenario.n_servers == 6
        for rack in scenario.racks:
            for index in range(rack.n_servers):
                trace = rack.server_trace(index)
                assert trace.duration_s == pytest.approx(30.0, rel=0.1)

    def test_same_seed_replays_identically(self, floorplan):
        first = _scenario(floorplan, kind="mixed", seed=11)
        second = _scenario(floorplan, kind="mixed", seed=11)
        for rack_a, rack_b in zip(first.racks, second.racks):
            for sa, sb in zip(rack_a.servers, rack_b.servers):
                assert sa.benchmark.name == sb.benchmark.name
                assert sa.trace.phases == sb.trace.phases

    def test_different_seeds_differ(self, floorplan):
        first = _scenario(floorplan, kind="flash_crowd", seed=1)
        second = _scenario(floorplan, kind="flash_crowd", seed=2)
        traces_a = [r.servers[0].trace.phases for r in first.racks]
        traces_b = [r.servers[0].trace.phases for r in second.racks]
        assert traces_a != traces_b

    def test_flash_crowd_has_a_burst_window(self, floorplan):
        scenario = _scenario(floorplan, kind="flash_crowd", seed=5)
        trace = scenario.racks[0].servers[0].trace
        _, activities, _ = trace.resample(1.0)
        assert activities.max() > 0.9
        assert activities.min() < 0.5

    def test_rolling_batch_staggers_racks(self, floorplan):
        scenario = build_scenario(
            "rolling_batch", n_racks=2, servers_per_rack=1, duration_s=40.0,
            seed=0, floorplan=floorplan,
        )
        times0, act0, _ = scenario.racks[0].servers[0].trace.resample(1.0)
        times1, act1, _ = scenario.racks[1].servers[0].trace.resample(1.0)
        # Rack 0 is busy in the first half, rack 1 in the second.
        centre0 = float((times0 * act0).sum() / act0.sum())
        centre1 = float((times1 * act1).sum() / act1.sum())
        assert centre0 < centre1

    def test_unknown_kind_rejected(self, floorplan):
        with pytest.raises(ConfigurationError):
            build_scenario("nonsense", floorplan=floorplan)

    def test_modulate_trace_shape_mismatch_rejected(self, x264):
        base = generate_trace(x264, total_duration_s=10.0)
        with pytest.raises(ConfigurationError):
            modulate_trace(base, lambda times: np.ones(3), 1.0)

    def test_modulate_trace_scales_activity(self, x264):
        base = generate_trace(x264, total_duration_s=10.0)
        halved = modulate_trace(base, lambda times: np.full(times.shape, 0.5), 1.0)
        _, base_act, base_mem = base.resample(1.0)
        _, act, mem = halved.resample(1.0)
        assert act == pytest.approx(0.5 * base_act)
        assert mem == pytest.approx(base_mem)


class TestSupervisoryController:
    def test_raises_when_predicted_peak_clears_guard(self):
        controller = SupervisoryController(step_c=1.0, guard_margin_c=2.0)
        decision = controller.decide(8.0, 30.0, worst_peak_case_c=60.0)
        assert decision.action is SupervisoryAction.RAISE_SETPOINT
        assert decision.next_setpoint_c == pytest.approx(31.0)
        assert decision.predicted_peak_case_c == pytest.approx(61.0)

    def test_holds_when_guard_blocks_the_raise(self):
        controller = SupervisoryController(step_c=1.0, guard_margin_c=2.0)
        decision = controller.decide(8.0, 30.0, worst_peak_case_c=T_CASE_MAX_C - 2.5)
        assert decision.action is SupervisoryAction.HOLD
        assert decision.next_setpoint_c == pytest.approx(30.0)

    def test_lowers_on_violation(self):
        controller = SupervisoryController(step_c=1.0)
        decision = controller.decide(8.0, 34.0, worst_peak_case_c=T_CASE_MAX_C + 0.5)
        assert decision.action is SupervisoryAction.LOWER_SETPOINT
        assert decision.next_setpoint_c == pytest.approx(33.0)

    def test_raise_clamped_at_maximum(self):
        controller = SupervisoryController(setpoint_max_c=31.0, step_c=2.0)
        decision = controller.decide(8.0, 30.0, worst_peak_case_c=50.0)
        assert decision.action is SupervisoryAction.RAISE_SETPOINT
        assert decision.next_setpoint_c == pytest.approx(31.0)

    def test_cannot_lower_below_minimum(self):
        # A violation at the range floor holds the setpoint but must be
        # logged as SATURATED, not as a quiet HOLD (regression: the LOWER
        # branch used to require setpoint_c > setpoint_min_c, so this case
        # fell through to HOLD and was invisible in the decision log).
        controller = SupervisoryController(setpoint_min_c=30.0)
        decision = controller.decide(8.0, 30.0, worst_peak_case_c=T_CASE_MAX_C + 5.0)
        assert decision.action is SupervisoryAction.SATURATED
        assert decision.next_setpoint_c == pytest.approx(30.0)

    def test_saturated_distinct_from_quiet_hold(self):
        controller = SupervisoryController(setpoint_min_c=30.0, guard_margin_c=2.0)
        quiet = controller.decide(8.0, 30.0, worst_peak_case_c=T_CASE_MAX_C - 1.0)
        saturated = controller.decide(16.0, 30.0, worst_peak_case_c=T_CASE_MAX_C)
        assert quiet.action is SupervisoryAction.HOLD
        assert saturated.action is SupervisoryAction.SATURATED
        # Above the range floor the identical violation still lowers.
        lowered = controller.decide(24.0, 31.0, worst_peak_case_c=T_CASE_MAX_C)
        assert lowered.action is SupervisoryAction.LOWER_SETPOINT

    def test_invalid_parameters_rejected(self):
        with pytest.raises(Exception):
            SupervisoryController(period_s=0.0)
        with pytest.raises(ValueError):
            SupervisoryController(setpoint_min_c=40.0, setpoint_max_c=30.0)


class TestDatacenterValidation:
    def test_empty_floor_rejected(self):
        with pytest.raises(ConfigurationError):
            DatacenterModel([])

    def test_empty_rack_rejected(self, x264, floorplan):
        with pytest.raises(ConfigurationError):
            RackSpec(name="empty", servers=())

    def test_server_without_trace_rejected(self, floorplan, x264):
        server = RackServer(x264, _mapping(floorplan, x264), QoSConstraint(2.0))
        with pytest.raises(ConfigurationError):
            DatacenterModel([RackSpec(name="r0", servers=(server,))])

    @pytest.mark.parametrize("substeps", (2.5, 0))
    def test_bad_transient_substeps_rejected(self, floorplan, power_model, substeps):
        """A fractional substep count is refused, not truncated, and a zero
        one raises the same error type as ``FloorEngine.advance``."""
        scenario = _scenario(floorplan, n_racks=1, servers_per_rack=1)
        with pytest.raises(ValidationError, match="transient_substeps"):
            _floor(scenario, floorplan, power_model, transient_substeps=substeps)

    def test_non_multiple_supervisory_period_rejected(
        self, floorplan, power_model
    ):
        scenario = _scenario(floorplan, n_racks=1, servers_per_rack=1)
        floor = _floor(scenario, floorplan, power_model)
        with pytest.raises(ConfigurationError):
            floor.run_trace(
                supervisory=SupervisoryController(period_s=3.0),
                duration_s=6.0,
            )


class TestFixedSetpointEquivalence:
    def test_bit_identical_to_standalone_rack_traces(self, floorplan, power_model):
        """Fixed-setpoint floor == the per-server golden loop, bit for bit.

        A heterogeneous 2-rack x 4-server floor at a fixed setpoint must
        reproduce every server's golden transient trace
        (``tests/reference_session.py``) exactly — including the
        per-period rack chiller power at the plant's efficiency — even
        though the floor engine stacks both racks through one shared
        factorization cache and the golden steps each server alone.
        """
        scenario = _scenario(floorplan, kind="flash_crowd", seed=3)
        plant = ChillerPlant(free_cooling_outdoor_c=18.0)
        setpoint = PAPER_OPTIMIZED_DESIGN.water_inlet_temperature_c
        floor = _floor(scenario, floorplan, power_model, plant=plant)
        trace = floor.run_trace(duration_s=DURATION_S)
        assert all(value == setpoint for value in trace.setpoint_c)

        for rack_index, rack in enumerate(scenario.racks):
            simulation = CooledServerSimulation(
                floorplan,
                design=PAPER_OPTIMIZED_DESIGN,
                power_model=power_model,
                thermal_simulator=_simulator(floorplan),
            )
            controller = ThermosyphonController(
                simulation, control_period_s=CONTROL_PERIOD_S
            )
            golden_periods, golden_chiller_w = reference_rack_trace(
                controller,
                rack.servers,
                initial_water_loop=PAPER_OPTIMIZED_DESIGN.water_loop(),
                chiller=plant.chiller_at(setpoint),
            )
            floor_rack = trace.racks[rack_index]
            assert len(floor_rack.periods) == len(golden_periods)
            for ours, theirs in zip(floor_rack.periods, golden_periods):
                for decision_a, decision_b in zip(ours, theirs):
                    for field in _DECISION_FIELDS:
                        assert getattr(decision_a, field) == getattr(
                            decision_b, field
                        ), field
            assert floor_rack.chiller_power_w == golden_chiller_w


class TestSupervisorySavesPlantEnergy:
    def test_supervisory_beats_fixed_setpoint_without_violations(
        self, floorplan, power_model
    ):
        """ISSUE acceptance: less plant energy, zero thermal violations."""
        scenario = _scenario(floorplan, kind="diurnal", seed=7)
        fixed = _floor(scenario, floorplan, power_model).run_trace(
            duration_s=DURATION_S
        )
        supervisory = SupervisoryController(period_s=8.0, setpoint_max_c=40.0)
        controlled = _floor(scenario, floorplan, power_model).run_trace(
            duration_s=DURATION_S, supervisory=supervisory
        )
        assert controlled.plant_energy_j < fixed.plant_energy_j
        assert controlled.thermal_violations == 0
        assert fixed.thermal_violations == 0
        assert controlled.setpoint_raises > 0
        assert controlled.setpoint_c[-1] > controlled.setpoint_c[0]
        assert controlled.peak_period_case_temperature_c < T_CASE_MAX_C
        # The supervisory log covers every window except the last.
        assert len(controlled.supervisory_decisions) == int(
            DURATION_S / supervisory.period_s
        ) - 1

    def test_setpoint_moves_keep_per_server_valve_state(
        self, floorplan, power_model
    ):
        """The slow loop only changes the inlet temperature, never the valve."""
        scenario = _scenario(floorplan, n_racks=1, servers_per_rack=2)
        floor = _floor(scenario, floorplan, power_model)
        session = floor.session()
        session.advance_period(0.0)
        flows_before = [
            loop.flow_rate_kg_h for loop in session._water_loops[0]
        ]
        session.set_setpoint(33.0)
        assert [
            loop.flow_rate_kg_h for loop in session._water_loops[0]
        ] == flows_before
        assert all(
            loop.inlet_temperature_c == 33.0 for loop in session._water_loops[0]
        )


class TestSharedFactorizationCache:
    def test_homogeneous_floor_pays_one_rack_of_factorizations(
        self, floorplan, power_model, x264
    ):
        """ISSUE acceptance: shared-cache counts via merged CacheStats.

        Two identical racks behind one shared simulator cost exactly what
        one standalone rack costs (the second rack's operators are all
        cache hits), while two standalone racks with private caches pay
        twice — asserted by merging their CacheStats.
        """
        mapping = _mapping(floorplan, x264)
        constraint = QoSConstraint(2.0)
        trace = generate_trace(x264, total_duration_s=DURATION_S)
        servers = tuple(
            RackServer(x264, mapping, constraint, trace=trace) for _ in range(4)
        )
        racks = [
            RackSpec(name=f"rack{i}", servers=servers) for i in range(2)
        ]
        floor = DatacenterModel(
            racks,
            plant=ChillerPlant(free_cooling_outdoor_c=18.0),
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=_simulator(floorplan),
            control_period_s=CONTROL_PERIOD_S,
        )
        floor_trace = floor.run_trace(duration_s=DURATION_S)
        assert floor_trace.factorizations is not None
        assert floor_trace.cache_stats is not None

        standalone_stats = []
        standalone_factorizations = []
        for _ in range(2):
            simulation = CooledServerSimulation(
                floorplan,
                design=PAPER_OPTIMIZED_DESIGN,
                power_model=power_model,
                thermal_simulator=_simulator(floorplan),
            )
            controller = ThermosyphonController(
                simulation, control_period_s=CONTROL_PERIOD_S
            )
            rack_trace = controller.run_rack_trace(list(servers), trace)
            standalone_stats.append(rack_trace.cache_stats)
            standalone_factorizations.append(rack_trace.factorizations)

        merged = sum(standalone_stats, CacheStats.zero())
        # Identical racks: the floor pays exactly one rack's factorizations.
        assert floor_trace.factorizations == standalone_factorizations[0]
        assert floor_trace.cache_stats.misses == floor_trace.factorizations
        # Private caches pay once per rack; the shared cache pays once.
        assert merged.misses == 2 * floor_trace.factorizations
        assert floor_trace.factorizations < merged.misses


class TestDatacenterTrace:
    def test_trace_accounting_and_summary(self, floorplan, power_model):
        scenario = _scenario(floorplan, n_racks=2, servers_per_rack=2)
        floor = _floor(scenario, floorplan, power_model)
        trace = floor.run_trace(duration_s=8.0)
        assert trace.n_racks == 2
        assert trace.n_servers == 4
        assert trace.n_periods == 4
        assert trace.plant_energy_j == pytest.approx(
            sum(trace.plant_power_w) * CONTROL_PERIOD_S
        )
        per_rack_sum = [
            sum(rack.chiller_power_w[t] for rack in trace.racks)
            for t in range(trace.n_periods)
        ]
        assert trace.plant_power_w == pytest.approx(per_rack_sum)
        text = trace.summary()
        assert "datacenter trace" in text
        assert "plant energy" in text
        assert "factorizations" in text

    def test_step_wise_period_api(self, floorplan, power_model):
        scenario = _scenario(floorplan, n_racks=1, servers_per_rack=2)
        session = _floor(scenario, floorplan, power_model).session()
        period = session.advance_period(0.0)
        assert period.setpoint_c == PAPER_OPTIMIZED_DESIGN.water_inlet_temperature_c
        assert len(period.rack_decisions) == 1
        assert len(period.rack_decisions[0]) == 2
        assert period.plant_power_w == pytest.approx(
            sum(period.rack_chiller_power_w)
        )
        assert period.worst_period_peak_case_c == pytest.approx(
            max(d.period_peak_case_c for d in period.rack_decisions[0])
        )


class TestModulateTraceDuration:
    def test_duration_preserved_when_dt_does_not_divide(self, x264):
        """The last phase is truncated so the floor never runs extra periods."""
        base = generate_trace(x264, total_duration_s=30.0)
        trace = modulate_trace(base, lambda times: np.ones(times.shape), 3.7)
        assert trace.duration_s == pytest.approx(30.0, abs=1e-9)
        scenario = build_scenario(
            "diurnal", n_racks=1, servers_per_rack=1, duration_s=30.0,
            seed=0, phase_dt_s=3.7,
        )
        assert scenario.racks[0].server_trace(0).duration_s == pytest.approx(
            30.0, abs=1e-9
        )

    def test_float_artifact_duration_does_not_crash(self):
        """A cumsum duration landing a sample exactly on the end is folded."""
        from repro.workloads.trace import PhasedTrace, TracePhase

        # Three 0.1 s phases: duration_s is 0.30000000000000004, and
        # arange(0, duration, 0.1) emits a 4th sample == duration.
        base = PhasedTrace(
            "b",
            (
                TracePhase(0.1, 0.5, 0.2),
                TracePhase(0.1, 0.7, 0.2),
                TracePhase(0.1, 0.9, 0.2),
            ),
        )
        trace = modulate_trace(base, lambda times: np.ones(times.shape), 0.1)
        assert trace.duration_s == pytest.approx(base.duration_s, abs=1e-12)
        assert all(phase.duration_s > 0.0 for phase in trace.phases)
