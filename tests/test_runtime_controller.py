"""Runtime thermosyphon controller tests."""

import pytest

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import (
    ControllerAction,
    ThermosyphonController,
)
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace, TracePhase, generate_trace

from reference_session import reference_run_trace


@pytest.fixture(scope="module")
def simulation(floorplan, power_model, coarse_thermal_simulator):
    return CooledServerSimulation(
        floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
        power_model=power_model,
        thermal_simulator=coarse_thermal_simulator,
    )


@pytest.fixture(scope="module")
def mapping(floorplan, x264):
    mapper = ThreadMapper(floorplan)
    return mapper.map(x264, Configuration(8, 2, 3.2), ProposedThermalAwareMapping())


def _evaluate(simulation, x264, mapping, water_loop):
    return simulation.simulate_mapping(x264, mapping, water_loop=water_loop)


class TestDecisions:
    def test_no_action_when_cool(self, simulation, x264, mapping):
        controller = ThermosyphonController(simulation, t_case_max_c=85.0, relax_margin_c=100.0)
        water_loop = PAPER_OPTIMIZED_DESIGN.water_loop()
        result = _evaluate(simulation, x264, mapping, water_loop)
        action, new_loop, frequency = controller.decide(
            result, water_loop, x264, QoSConstraint(2.0)
        )
        assert action is ControllerAction.NONE
        assert new_loop.flow_rate_kg_h == water_loop.flow_rate_kg_h
        assert frequency == 3.2

    def test_emergency_opens_valve_first(self, simulation, x264, mapping):
        # An artificially low limit forces a thermal emergency.
        controller = ThermosyphonController(simulation, t_case_max_c=40.0)
        water_loop = PAPER_OPTIMIZED_DESIGN.water_loop()
        result = _evaluate(simulation, x264, mapping, water_loop)
        action, new_loop, frequency = controller.decide(
            result, water_loop, x264, QoSConstraint(2.0)
        )
        assert action is ControllerAction.INCREASE_FLOW
        assert new_loop.flow_rate_kg_h > water_loop.flow_rate_kg_h
        assert frequency == 3.2

    def test_valve_saturated_then_frequency_reduced_if_qos_allows(
        self, simulation, x264, mapping
    ):
        controller = ThermosyphonController(simulation, t_case_max_c=40.0)
        water_loop = PAPER_OPTIMIZED_DESIGN.water_loop().with_flow_rate(1000.0)
        assert water_loop.at_maximum_flow
        result = _evaluate(simulation, x264, mapping, water_loop)
        action, _, frequency = controller.decide(result, water_loop, x264, QoSConstraint(3.0))
        assert action is ControllerAction.LOWER_FREQUENCY
        assert frequency < 3.2

    def test_emergency_reported_when_qos_blocks_dvfs(self, simulation, x264, mapping):
        controller = ThermosyphonController(simulation, t_case_max_c=40.0)
        water_loop = PAPER_OPTIMIZED_DESIGN.water_loop().with_flow_rate(1000.0)
        result = _evaluate(simulation, x264, mapping, water_loop)
        # 1x QoS forbids any slowdown, so no frequency reduction is possible.
        action, _, frequency = controller.decide(result, water_loop, x264, QoSConstraint(1.0))
        assert action is ControllerAction.EMERGENCY
        assert frequency == 3.2

    def test_valve_relaxes_when_well_below_limit(self, simulation, x264, mapping):
        controller = ThermosyphonController(simulation, t_case_max_c=85.0, relax_margin_c=5.0)
        water_loop = PAPER_OPTIMIZED_DESIGN.water_loop().with_flow_rate(20.0)
        result = _evaluate(simulation, x264, mapping, water_loop)
        action, new_loop, _ = controller.decide(result, water_loop, x264, QoSConstraint(2.0))
        assert action is ControllerAction.DECREASE_FLOW
        assert new_loop.flow_rate_kg_h < 20.0


class TestTraceExecution:
    def test_run_trace_produces_decisions(self, simulation, x264, mapping):
        controller = ThermosyphonController(simulation, control_period_s=5.0)
        trace = PhasedTrace(
            "synthetic",
            (
                TracePhase(10.0, 1.0, 0.5),
                TracePhase(10.0, 0.6, 0.5),
            ),
        )
        record = controller.run_trace(x264, mapping, QoSConstraint(2.0), trace)
        assert len(record.decisions) == 4
        assert record.emergencies == 0
        assert record.peak_case_temperature_c > 30.0
        # Activity drop in the second phase lowers the package power.
        assert record.decisions[-1].package_power_w < record.decisions[0].package_power_w

    def test_run_trace_counts_actions(self, simulation, x264, mapping):
        controller = ThermosyphonController(
            simulation, t_case_max_c=40.0, control_period_s=5.0
        )
        trace = PhasedTrace("hot", (TracePhase(15.0, 1.0, 0.5),))
        record = controller.run_trace(x264, mapping, QoSConstraint(3.0), trace)
        assert record.flow_increases >= 1

    def test_run_trace_records_evaluated_flow_not_next_periods(
        self, simulation, x264, mapping
    ):
        """Regression: decisions must report the actuators the period ran with.

        The first period is evaluated at the initial water flow; even though
        the emergency action opens the valve for the *next* period, the first
        decision must still show the initial flow, and the raised flow must
        appear in the second decision.
        """
        controller = ThermosyphonController(
            simulation, t_case_max_c=40.0, control_period_s=5.0, flow_step_kg_h=2.0
        )
        initial_loop = PAPER_OPTIMIZED_DESIGN.water_loop()
        trace = PhasedTrace("hot", (TracePhase(15.0, 1.0, 0.5),))
        record = controller.run_trace(
            x264, mapping, QoSConstraint(3.0), trace, initial_water_loop=initial_loop
        )
        first, second = record.decisions[0], record.decisions[1]
        assert first.action is ControllerAction.INCREASE_FLOW
        assert first.water_flow_kg_h == pytest.approx(initial_loop.flow_rate_kg_h)
        assert second.water_flow_kg_h == pytest.approx(
            initial_loop.flow_rate_kg_h + controller.flow_step_kg_h
        )

    def test_run_trace_records_evaluated_frequency_not_next_periods(
        self, simulation, x264, mapping
    ):
        """Regression: a DVFS down-step belongs to the *following* decision."""
        controller = ThermosyphonController(
            simulation, t_case_max_c=40.0, control_period_s=5.0
        )
        saturated = PAPER_OPTIMIZED_DESIGN.water_loop().with_flow_rate(1000.0)
        trace = PhasedTrace("hot", (TracePhase(15.0, 1.0, 0.5),))
        record = controller.run_trace(
            x264, mapping, QoSConstraint(3.0), trace, initial_water_loop=saturated
        )
        first, second = record.decisions[0], record.decisions[1]
        assert first.action is ControllerAction.LOWER_FREQUENCY
        assert first.frequency_ghz == pytest.approx(3.2)
        assert second.frequency_ghz < 3.2

    def test_steady_mode_reuses_mapping_object(
        self, simulation, x264, mapping, monkeypatch
    ):
        """Without DVFS actions the controller must not rebuild mappings."""
        seen = []
        original = simulation.simulate_mapping

        def spy(benchmark, current_mapping, **kwargs):
            seen.append(current_mapping)
            return original(benchmark, current_mapping, **kwargs)

        monkeypatch.setattr(simulation, "simulate_mapping", spy)
        controller = ThermosyphonController(
            simulation, control_period_s=5.0, relax_margin_c=100.0
        )
        trace = PhasedTrace("calm", (TracePhase(15.0, 0.8, 0.5),))
        controller.run_trace(x264, mapping, QoSConstraint(2.0), trace)
        assert len(seen) == 3
        assert all(m is mapping for m in seen)

    def test_invalid_mode_rejected(self, simulation, x264, mapping):
        controller = ThermosyphonController(simulation)
        trace = PhasedTrace("t", (TracePhase(4.0, 1.0, 0.5),))
        with pytest.raises(Exception):
            controller.run_trace(x264, mapping, QoSConstraint(2.0), trace, mode="warp")


def _jittered_trace(n_periods: int, period_s: float) -> PhasedTrace:
    """Every period a distinct activity factor (small jitter around 0.9).

    This is the regime the paper's runtime claim cares about: real
    workloads jitter constantly, so the quasi-static path sees a new
    cooling boundary — and refactorizes — nearly every period, while the
    warm-start transient lane holds its operator.
    """
    phases = tuple(
        TracePhase(period_s, 0.9 + 0.001 * index, 0.5) for index in range(n_periods)
    )
    return PhasedTrace("jittered", phases)


class TestTransientMode:
    def test_transient_trace_produces_full_record(self, simulation, x264, mapping):
        controller = ThermosyphonController(simulation, control_period_s=5.0)
        trace = PhasedTrace(
            "synthetic",
            (
                TracePhase(10.0, 1.0, 0.5),
                TracePhase(10.0, 0.6, 0.5),
            ),
        )
        record = controller.run_trace(
            x264, mapping, QoSConstraint(2.0), trace, mode="transient"
        )
        assert record.mode == "transient"
        assert len(record.decisions) == 4
        assert record.peak_case_temperature_c > 30.0
        for decision in record.decisions:
            assert decision.settle_residual_c is not None
            assert decision.settle_residual_c >= 0.0
            assert decision.period_peak_case_c is not None
        assert "transient mode" in record.summary()

    def test_steady_decisions_have_no_transient_fields(self, simulation, x264, mapping):
        controller = ThermosyphonController(simulation, control_period_s=5.0)
        trace = PhasedTrace("t", (TracePhase(10.0, 1.0, 0.5),))
        record = controller.run_trace(x264, mapping, QoSConstraint(2.0), trace)
        assert record.mode == "steady"
        assert all(d.settle_residual_c is None for d in record.decisions)
        assert all(d.period_peak_case_c is None for d in record.decisions)

    def test_transient_tracks_steady_on_calm_trace(self, simulation, x264, mapping):
        """Both modes should agree closely when the load is near-constant."""
        controller = ThermosyphonController(
            simulation, control_period_s=5.0, relax_margin_c=100.0
        )
        trace = PhasedTrace("calm", (TracePhase(30.0, 0.9, 0.5),))
        steady = controller.run_trace(x264, mapping, QoSConstraint(2.0), trace)
        transient = controller.run_trace(
            x264, mapping, QoSConstraint(2.0), trace, mode="transient"
        )
        assert transient.peak_case_temperature_c == pytest.approx(
            steady.peak_case_temperature_c, abs=1.0
        )

    def test_transient_needs_10x_fewer_factorizations(self, floorplan, power_model, x264):
        """Acceptance gate: a jittered phased trace runs on >= 10x fewer
        operator factorizations in transient mode than in steady mode.

        Each mode gets a fresh simulation (empty factorization cache):
        sharing one cache would let the transient warm-start initialization
        hit operators the steady run already factorized, deflating its
        count and contaminating the comparison.
        """
        mapper = ThreadMapper(floorplan)
        mapping = mapper.map(x264, Configuration(8, 2, 3.2), ProposedThermalAwareMapping())
        trace = _jittered_trace(30, 2.0)
        constraint = QoSConstraint(2.0)

        records = {}
        for mode in ("steady", "transient"):
            simulation = CooledServerSimulation(
                floorplan,
                power_model=power_model,
                thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=3.0),
            )
            # A huge relax margin keeps the valve untouched, so the
            # comparison isolates the workload-jitter effect from actuator
            # events.
            controller = ThermosyphonController(
                simulation, control_period_s=2.0, relax_margin_c=100.0
            )
            records[mode] = controller.run_trace(
                x264, mapping, constraint, trace, mode=mode
            )
            cache_stats = simulation.thermal_simulator.solver_cache.stats
            assert cache_stats.misses == records[mode].factorizations
        steady, transient = records["steady"], records["transient"]

        assert len(steady.decisions) == len(transient.decisions) == 30
        assert steady.factorizations is not None
        assert transient.factorizations is not None
        # The steady path refactorizes on (nearly) every jittered period...
        assert steady.factorizations >= 25
        # ...while the transient path runs on a handful of operators.
        assert transient.factorizations * 10 <= steady.factorizations


#: Every field of a transient decision.
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


class TestTransientMatchesGolden:
    """``run_trace(mode="transient")`` == the per-server golden loop.

    Tier A: the one-server floor the trace runs on must reproduce the old
    single-server session (``tests/reference_session.py``) bit for bit on
    every decision field, at the same factorization count, over a fig8-style
    30-period trace at 2.0 mm.
    """

    @pytest.mark.parametrize(
        ("benchmark_name", "qos_factor", "configuration"),
        [
            ("x264", 2.0, Configuration(8, 2, 3.2)),
            ("canneal", 1.0, Configuration(8, 2, 3.2)),
            ("fluidanimate", 3.0, Configuration(4, 2, 2.6)),
        ],
        ids=["x264-2x", "canneal-1x", "fluidanimate-3x"],
    )
    def test_decisions_and_factorizations_equal(
        self, floorplan, power_model, benchmark_name, qos_factor, configuration
    ):
        benchmark = get_benchmark(benchmark_name)
        mapper = ThreadMapper(floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation)
        mapping = mapper.map(benchmark, configuration, ProposedThermalAwareMapping())
        trace = generate_trace(benchmark, n_steady_phases=10, total_duration_s=60.0)
        constraint = QoSConstraint(qos_factor)

        def controller():
            simulation = CooledServerSimulation(
                floorplan,
                power_model=power_model,
                thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=2.0),
            )
            return ThermosyphonController(simulation, control_period_s=2.0)

        record = controller().run_trace(
            benchmark, mapping, constraint, trace, mode="transient"
        )
        golden = reference_run_trace(controller(), benchmark, mapping, constraint, trace)
        assert len(record.decisions) == len(golden.decisions) == 30
        for ours, theirs in zip(record.decisions, golden.decisions):
            for name in _DECISION_FIELDS:
                assert getattr(ours, name) == getattr(theirs, name), name
        assert record.factorizations == golden.factorizations


class TestDecisionDispatch:
    def test_subclass_decide_override_steers_rack_traces(
        self, floorplan, power_model, x264, mapping
    ):
        """run_rack_trace dispatches through self, so overrides keep working."""
        from repro.core.pipeline import CooledServerSimulation
        from repro.core.runtime_controller import RackServer
        from repro.thermal.simulator import ThermalSimulator
        from repro.workloads.trace import generate_trace

        class PassiveController(ThermosyphonController):
            def decide(self, result, water_loop, benchmark, constraint):
                return ControllerAction.NONE, water_loop, result.configuration.frequency_ghz

        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=2.5),
        )
        controller = PassiveController(simulation, control_period_s=2.0)
        trace = generate_trace(x264, total_duration_s=6.0)
        rack = controller.run_rack_trace(
            [RackServer(x264, mapping, QoSConstraint(2.0))], trace
        )
        # The base rule would close the valve on these cool periods; the
        # override forces NONE everywhere.
        assert all(
            d.action is ControllerAction.NONE for period in rack.periods for d in period
        )

    def test_subclass_qos_override_steers_decide(self, simulation, x264, mapping):
        """A custom _qos_allows_frequency flows through the DecisionPolicy."""

        class NoDvfsController(ThermosyphonController):
            def _qos_allows_frequency(self, *args, **kwargs):
                return False

        controller = NoDvfsController(simulation, t_case_max_c=40.0)
        water_loop = PAPER_OPTIMIZED_DESIGN.water_loop().with_flow_rate(1000.0)
        assert water_loop.at_maximum_flow
        result = _evaluate(simulation, x264, mapping, water_loop)
        # Even a 3x QoS budget cannot authorize DVFS when the subclass
        # vetoes every frequency: the emergency is reported instead.
        action, _, frequency = controller.decide(
            result, water_loop, x264, QoSConstraint(3.0)
        )
        assert action is ControllerAction.EMERGENCY
        assert frequency == 3.2
