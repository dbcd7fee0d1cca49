"""Rack-level tests: servers behind one chiller water condition.

A rack is a one-rack :class:`FloorEngine`; each slot's configuration and
mapping come from the QoS-aware pipeline (Algorithm 1), and every server
runs at the rack's inlet water temperature.  These tests pin what a rack
study reads off one cold control period — per-server results, the
response to the water temperature, agreement with the per-slot pipeline —
and the chiller accounting of :meth:`ThermosyphonController.run_rack_trace`.
"""

import pytest

from repro.core.pipeline import CooledServerSimulation, ThermalAwarePipeline
from repro.core.rack_session import RackSession, ServerLoad
from repro.core.runtime_controller import (
    ControllerAction,
    RackServer,
    ThermosyphonController,
)
from repro.datacenter.floor import FloorEngine
from repro.exceptions import ConfigurationError
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace, TracePhase

CELL_SIZE_MM = 2.5


@pytest.fixture(scope="module")
def simulation():
    return CooledServerSimulation(cell_size_mm=CELL_SIZE_MM)


@pytest.fixture(scope="module")
def pipeline(simulation):
    return ThermalAwarePipeline(simulation)


@pytest.fixture(scope="module")
def slots(pipeline):
    """(benchmark, mapping) per server, resolved under a 2x QoS constraint."""
    resolved = []
    for name in ("x264", "canneal"):
        benchmark = get_benchmark(name)
        selection = pipeline.select_configuration(benchmark, QoSConstraint(2.0))
        mapping = pipeline.map_threads(benchmark, selection.configuration)
        resolved.append((benchmark, mapping))
    return resolved


def _water_loop(simulation, water_c):
    return simulation.design.water_loop().with_inlet_temperature(water_c)


def _evaluate(simulation, slots, water_c):
    """One cold control period of the rack at ``water_c`` inlet water."""
    rack = RackSession(
        len(slots),
        floorplan=simulation.floorplan,
        design=simulation.design,
        power_model=simulation.power_model,
        thermal_simulator=simulation.thermal_simulator,
    )
    water_loop = _water_loop(simulation, water_c)
    loads = [
        ServerLoad(benchmark=benchmark, mapping=mapping, water_loop=water_loop)
        for benchmark, mapping in slots
    ]
    return FloorEngine([rack]).advance([loads], 2.0).racks[0]


def _worst_die_hot_spot_c(advance):
    return max(server.result.die_metrics.theta_max_c for server in advance.servers)


class TestEvaluation:
    def test_empty_rack_rejected(self, simulation):
        trace = PhasedTrace("flat", (TracePhase(2.0, 1.0, 0.5),))
        with pytest.raises(ConfigurationError):
            ThermosyphonController(simulation).run_rack_trace([], trace)

    def test_evaluate_reports_per_server_results(self, simulation, slots):
        advance = _evaluate(simulation, slots, 30.0)
        assert len(advance.servers) == 2
        results = [server.result for server in advance.servers]
        assert sum(r.package_power_w for r in results) > 0.0
        assert ChillerModel().rack_cooling_power_w(
            (r.water_loop, r.package_power_w) for r in results
        ) > 0.0
        assert advance.worst_case_temperature_c == max(
            r.case_temperature_c for r in results
        )

    def test_colder_water_cools_the_rack(self, simulation, slots):
        warm = _evaluate(simulation, slots, 32.0)
        cold = _evaluate(simulation, slots, 20.0)
        assert _worst_die_hot_spot_c(cold) < _worst_die_hot_spot_c(warm)

    def test_all_within_limit_at_nominal_water(self, simulation, slots):
        advance = _evaluate(simulation, slots, 30.0)
        assert all(server.result.within_case_limit for server in advance.servers)

    def test_batched_evaluation_matches_direct_pipeline(self, simulation, pipeline, slots):
        """The rack period reproduces per-slot pipeline runs."""
        batched = _evaluate(simulation, slots, 28.0)
        for (benchmark, _), server in zip(slots, batched.servers):
            direct = pipeline.run(
                benchmark,
                QoSConstraint(2.0),
                water_loop=WaterLoop(
                    inlet_temperature_c=28.0,
                    flow_rate_kg_h=simulation.design.water_flow_rate_kg_h,
                ),
            )
            assert server.result.case_temperature_c == pytest.approx(
                direct.case_temperature_c, abs=1e-9
            )
            assert server.result.die_metrics.theta_max_c == pytest.approx(
                direct.die_metrics.theta_max_c, abs=1e-9
            )

    def test_chiller_power_uses_each_servers_water_loop(self, simulation, slots):
        """A rack trace charges each server's Eq. 1 term at its own loop."""

        class SplitFlowController(ThermosyphonController):
            # x264's valve opens to 12 kg/h; canneal keeps the design flow.
            def decide(self, result, water_loop, benchmark, constraint):
                flow = 12.0 if benchmark.name == "x264" else water_loop.flow_rate_kg_h
                return (
                    ControllerAction.NONE,
                    water_loop.with_flow_rate(flow),
                    result.configuration.frequency_ghz,
                )

        controller = SplitFlowController(simulation, control_period_s=2.0)
        servers = [
            RackServer(benchmark, mapping, QoSConstraint(2.0))
            for benchmark, mapping in slots
        ]
        record = controller.run_rack_trace(
            servers, PhasedTrace("flat", (TracePhase(6.0, 1.0, 0.5),))
        )
        design_loop = simulation.design.water_loop()
        assert [d.water_flow_kg_h for d in record.periods[-1]] == [
            12.0,
            design_loop.flow_rate_kg_h,
        ]
        # Eq. 1 charges m_dot * c_p * delta_T = heat up to rounding whatever
        # the flow, so only an exact comparison tells a wrong loop apart.
        chiller = ChillerModel()
        for period, chiller_power_w in zip(record.periods, record.chiller_power_w):
            expected = sum(
                chiller.cooling_power_w(
                    design_loop.with_flow_rate(d.water_flow_kg_h), d.package_power_w
                )
                for d in period
            )
            assert chiller_power_w == expected
