"""One driver loop: a rack trace is a one-rack datacenter session run.

:meth:`ThermosyphonController.run_rack_trace` builds a one-rack,
fixed-setpoint :class:`DatacenterModel` and calls
:meth:`DatacenterSession.run`, so the session's loop is the only one that
drives the floor engine.  Two guarantees carry that:

* :meth:`DatacenterSession.run` continues from the session's state: two
  runs on one session equal the per-server golden loop
  (``tests/reference_session.py``) over the trace played twice;
* a rack trace seeds its session with the caller's water loop and
  charges the caller's chiller, bit for bit against the golden loop.
"""

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import (
    ControllerAction,
    RackServer,
    ThermosyphonController,
)
from repro.datacenter.model import DatacenterModel, RackSpec
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace, TracePhase, generate_trace

from reference_session import reference_rack_trace

CELL_SIZE_MM = 2.5
CONTROL_PERIOD_S = 2.0

#: Every decision field but the time stamp, which restarts with each run.
_STATE_FIELDS = (
    "case_temperature_c",
    "die_hot_spot_c",
    "package_power_w",
    "water_flow_kg_h",
    "frequency_ghz",
    "action",
    "settle_residual_c",
    "period_peak_case_c",
)


def _simulation(floorplan, power_model):
    """A steady evaluator on its own simulator (and factorization cache)."""
    return CooledServerSimulation(
        floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
    )


def _servers(floorplan, benchmarks):
    mapper = ThreadMapper(floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation)
    return tuple(
        RackServer(
            benchmark,
            mapper.map(
                benchmark, Configuration(8, 2, 3.2), ProposedThermalAwareMapping()
            ),
            QoSConstraint(2.0),
        )
        for benchmark in benchmarks
    )


def _assert_same_decisions(ours, golden, fields):
    assert len(ours) == len(golden)
    for period, golden_period in zip(ours, golden):
        assert len(period) == len(golden_period)
        for a, b in zip(period, golden_period):
            for name in fields:
                assert getattr(a, name) == getattr(b, name), name


class PassiveController(ThermosyphonController):
    """Keeps every actuator where it is, so a run carries no controller state."""

    def decide(self, result, water_loop, benchmark, constraint):
        return ControllerAction.NONE, water_loop, result.configuration.frequency_ghz


class TestSessionRunContinues:
    def test_second_run_continues_the_first(
        self, floorplan, power_model, x264, canneal
    ):
        """Two runs of one session == the golden loop over the trace twice.

        The second run must carry the fields and held boundaries the first
        left, not re-initialize them from a steady solve.
        """
        servers = _servers(floorplan, (x264, canneal))
        trace = PhasedTrace(
            "steps", (TracePhase(4.0, 1.0, 0.5), TracePhase(4.0, 0.6, 0.5))
        )
        policy = PassiveController(
            _simulation(floorplan, power_model), control_period_s=CONTROL_PERIOD_S
        )
        session = DatacenterModel(
            [RackSpec("rack", servers, trace)],
            plant=ChillerModel(),
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
            control_period_s=CONTROL_PERIOD_S,
            policy=policy,
        ).session()
        periods, chiller_w = [], []
        for _ in range(2):
            rack = session.run().racks[0]
            assert rack.periods[0][0].time_s == 0.0
            periods.extend(rack.periods)
            chiller_w.extend(rack.chiller_power_w)

        golden, golden_chiller_w = reference_rack_trace(
            PassiveController(
                _simulation(floorplan, power_model), control_period_s=CONTROL_PERIOD_S
            ),
            servers,
            PhasedTrace("twice", trace.phases * 2),
        )
        assert len(periods) == 8
        _assert_same_decisions(periods, golden, _STATE_FIELDS)
        assert chiller_w == golden_chiller_w


class TestRackTraceSeeding:
    def test_initial_water_loop_and_chiller_reach_the_session(
        self, floorplan, power_model, x264, canneal
    ):
        """A non-design water loop and a non-unit chiller, bit for bit."""
        servers = _servers(floorplan, (x264, canneal))
        trace = generate_trace(x264, total_duration_s=20.0)
        water_loop = (
            PAPER_OPTIMIZED_DESIGN.water_loop()
            .with_flow_rate(12.0)
            .with_inlet_temperature(27.0)
        )
        chiller = ChillerModel(coefficient_of_performance=3.0, free_cooling_fraction=0.2)

        def controller():
            return ThermosyphonController(
                _simulation(floorplan, power_model), control_period_s=CONTROL_PERIOD_S
            )

        record = controller().run_rack_trace(
            servers, trace, initial_water_loop=water_loop, chiller=chiller
        )
        golden, golden_chiller_w = reference_rack_trace(
            controller(),
            servers,
            trace,
            initial_water_loop=water_loop,
            chiller=chiller,
        )
        assert record.n_periods == 10
        assert record.periods[0][0].water_flow_kg_h == 12.0
        _assert_same_decisions(
            record.periods, golden, ("time_s",) + _STATE_FIELDS
        )
        assert record.chiller_power_w == golden_chiller_w
