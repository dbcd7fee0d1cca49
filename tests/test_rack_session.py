"""RackSession tests: per-rack state advanced by the floor engine.

A rack is a one-rack :class:`FloorEngine`.  The load-bearing guarantees:
a jittered rack trace reproduces the per-server golden loop
(``tests/reference_session.py``) bit for bit; a cold period at constant
load sits on the steady lane (:class:`CooledServerSimulation`) to
<= 1e-12, across homogeneous and heterogeneous slots and at every water
temperature; the boundary hold rule acts per server (jitter holds,
per-server forced refreshes); the rack pays one factorization per distinct
cooling boundary and operator instead of one per server, and a homogeneous
rack trace pays fewer factorizations than independent per-server traces;
:class:`CacheStats` merge across the caches involved; a supplied session
continues a trace exactly where the last one stopped.
"""

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.rack_session import RackSession, ServerLoad
from repro.core.runtime_controller import (
    ControllerAction,
    RackServer,
    ThermosyphonController,
)
from repro.core.pipeline import CooledServerSimulation
from repro.datacenter.floor import FloorEngine
from repro.exceptions import ConfigurationError, ValidationError
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace, TracePhase

from reference_session import ReferenceSession, reference_rack_trace

CELL_SIZE_MM = 2.5


def _mapping(floorplan, benchmark, frequency_ghz=3.2):
    mapper = ThreadMapper(floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation)
    return mapper.map(
        benchmark, Configuration(8, 2, frequency_ghz), ProposedThermalAwareMapping()
    )


def _rack_session(floorplan, power_model, n_servers, **kwargs):
    return RackSession(
        n_servers,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        **kwargs,
    )


def _steady_lane(floorplan, power_model):
    """A fresh independent steady evaluator (its own simulator and cache)."""
    return CooledServerSimulation(
        floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
    )


def _golden_session(floorplan, power_model):
    """The per-server golden loop on a fresh simulator (its own cache)."""
    return ReferenceSession(_steady_lane(floorplan, power_model))


def _floor(rack):
    return FloorEngine([rack])


def _cold_period(rack, loads):
    """One cold control period of a one-rack floor; returns the rack's advance.

    A cold rack initializes every field from a steady solve and then takes
    one backward-Euler step at the same power, so at constant load the
    period ends on the steady answer up to rounding.
    """
    return _floor(rack).advance([loads], 2.0).racks[0]


def _misses(rack):
    return rack.thermal_simulator.solver_cache.stats.misses


class TestSteadyEquivalence:
    def test_homogeneous_rack_matches_per_server_loop(self, floorplan, power_model, x264):
        """Identical slots: a cold rack period equals the steady lane to 1e-12."""
        mapping = _mapping(floorplan, x264)
        n_servers = 4
        rack = _rack_session(floorplan, power_model, n_servers)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * n_servers
        batched = _cold_period(rack, loads)

        for server in batched.servers:
            result = server.result
            golden = _steady_lane(floorplan, power_model).simulate_mapping(x264, mapping)
            scale = np.abs(golden.thermal_result.temperatures_c).max()
            assert (
                np.abs(
                    result.thermal_result.temperatures_c
                    - golden.thermal_result.temperatures_c
                ).max()
                <= 1e-12 * scale
            )
            assert result.case_temperature_c == pytest.approx(
                golden.case_temperature_c, abs=1e-12
            )
            assert result.package_power_w == pytest.approx(
                golden.package_power_w, abs=1e-12
            )
            assert result.operating_point.saturation_temperature_c == pytest.approx(
                golden.operating_point.saturation_temperature_c, abs=1e-12
            )
            assert result.max_channel_quality == pytest.approx(
                golden.max_channel_quality, abs=1e-12
            )

    def test_heterogeneous_rack_matches_per_server_loop(
        self, floorplan, power_model, x264, canneal
    ):
        """Mixed workloads split into groups but still match the steady lane."""
        benchmarks = [x264, canneal, x264, canneal]
        rack = _rack_session(floorplan, power_model, len(benchmarks))
        loads = [
            ServerLoad(benchmark=benchmark, mapping=_mapping(floorplan, benchmark))
            for benchmark in benchmarks
        ]
        batched = _cold_period(rack, loads)
        for load, server in zip(loads, batched.servers):
            result = server.result
            golden = _steady_lane(floorplan, power_model).simulate_mapping(
                load.benchmark, load.mapping
            )
            scale = np.abs(golden.thermal_result.temperatures_c).max()
            assert (
                np.abs(
                    result.thermal_result.temperatures_c
                    - golden.thermal_result.temperatures_c
                ).max()
                <= 1e-12 * scale
            )
            assert result.dryout == golden.dryout

    def test_mixed_frequencies_are_separate_boundary_groups(
        self, floorplan, power_model, x264
    ):
        """Same benchmark at different DVFS levels: distinct groups, exact results."""
        rack = _rack_session(floorplan, power_model, 2)
        loads = [
            ServerLoad(benchmark=x264, mapping=_mapping(floorplan, x264, 3.2)),
            ServerLoad(benchmark=x264, mapping=_mapping(floorplan, x264, 2.6)),
        ]
        results = [server.result for server in _cold_period(rack, loads).servers]
        # A steady and a backward-Euler operator for each of the two boundaries.
        assert _misses(rack) == 4
        assert (
            results[0].configuration.frequency_ghz
            != results[1].configuration.frequency_ghz
        )
        assert results[0].package_power_w > results[1].package_power_w


class TestFactorizationSharing:
    def test_homogeneous_rack_pays_one_factorization(self, floorplan, power_model, x264):
        """8 identical servers pay one factorization per operator.

        A cold period factors a steady (initialization) and a
        backward-Euler operator.  The per-server golden loop with
        independent caches pays both once per server; merged CacheStats
        assert the >= 8x reduction.
        """
        mapping = _mapping(floorplan, x264)
        n_servers = 8
        rack = _rack_session(floorplan, power_model, n_servers)
        _cold_period(rack, [ServerLoad(benchmark=x264, mapping=mapping)] * n_servers)
        assert _misses(rack) == 2

        golden_sessions = [
            _golden_session(floorplan, power_model) for _ in range(n_servers)
        ]
        for session in golden_sessions:
            session.advance_mapping(x264, mapping, 2.0)
        golden_stats = sum(
            (session.thermal_simulator.solver_cache.stats for session in golden_sessions),
            CacheStats.zero(),
        )
        assert golden_stats.misses == 2 * n_servers
        assert golden_stats.misses >= 8 * _misses(rack)

    def test_heterogeneous_rack_pays_one_per_distinct_boundary(
        self, floorplan, power_model, x264, canneal
    ):
        rack = _rack_session(floorplan, power_model, 6)
        loads = [
            ServerLoad(benchmark=bench, mapping=_mapping(floorplan, bench))
            for bench in (x264, x264, x264, canneal, canneal, canneal)
        ]
        _cold_period(rack, loads)
        # One steady and one backward-Euler operator per distinct workload.
        assert _misses(rack) == 4

    def test_repeated_solves_reuse_operators(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _rack_session(floorplan, power_model, 4)
        floor = _floor(rack)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 4
        floor.advance([loads], 2.0)
        misses = _misses(rack)
        floor.advance([loads], 2.0)
        assert _misses(rack) == misses


class TestCacheStatsMerge:
    def test_addition_merges_counters(self):
        a = CacheStats(hits=3, misses=1, steady_entries=1, transient_entries=0)
        b = CacheStats(hits=5, misses=2, steady_entries=2, transient_entries=1)
        merged = a + b
        assert merged.hits == 8
        assert merged.misses == 3
        assert merged.steady_entries == 3
        assert merged.transient_entries == 1
        assert merged.hit_rate == pytest.approx(8 / 11)

    def test_sum_with_zero_identity(self):
        stats = [
            CacheStats(hits=1, misses=1, steady_entries=1, transient_entries=0),
            CacheStats(hits=2, misses=0, steady_entries=0, transient_entries=2),
        ]
        merged = sum(stats, CacheStats.zero())
        assert merged.hits == 3
        assert merged.misses == 1
        # Plain sum() (int 0 start) works too.
        assert sum(stats) == merged


class TestWaterTemperatureParity:
    """A cold one-rack floor period == the per-slot batch evaluator.

    Every server runs at the probed inlet water temperature; the batch
    evaluator selects (Algorithm 1) and maps each slot on the steady lane,
    and the floor advances the mappings it chose.  The probes span 10-40
    degC inlet water, including the midpoints a bisection over 15-40 or
    10-30 degC visits first.
    """

    @pytest.fixture(scope="class")
    def slots(self):
        return [get_benchmark("x264"), get_benchmark("x264"), get_benchmark("canneal")]

    @pytest.fixture(scope="class")
    def evaluator(self):
        return BatchEvaluator(CooledServerSimulation(cell_size_mm=CELL_SIZE_MM))

    @pytest.mark.parametrize(
        "water_c", [10.0, 15.0, 20.0, 21.25, 27.5, 30.0, 33.75, 40.0]
    )
    def test_one_rack_floor_matches_batch_evaluator(
        self, floorplan, power_model, evaluator, slots, water_c
    ):
        water_loop = WaterLoop(
            inlet_temperature_c=water_c,
            flow_rate_kg_h=PAPER_OPTIMIZED_DESIGN.water_flow_rate_kg_h,
        )
        theirs = evaluator.evaluate_many(
            [
                SweepPoint(
                    benchmark=benchmark,
                    constraint=QoSConstraint(2.0),
                    water_loop=water_loop,
                )
                for benchmark in slots
            ]
        )
        rack = _rack_session(floorplan, power_model, len(slots))
        ours = _cold_period(
            rack,
            [
                ServerLoad(
                    benchmark=benchmark, mapping=result.mapping, water_loop=water_loop
                )
                for benchmark, result in zip(slots, theirs)
            ],
        )
        chiller = ChillerModel()
        assert chiller.rack_cooling_power_w(
            (server.result.water_loop, server.result.package_power_w)
            for server in ours.servers
        ) == pytest.approx(
            sum(chiller.cooling_power_w(r.water_loop, r.package_power_w) for r in theirs),
            abs=1e-9,
        )
        for server, b in zip(ours.servers, theirs):
            a = server.result
            assert a.water_loop == water_loop
            assert a.case_temperature_c == pytest.approx(b.case_temperature_c, abs=1e-12)
            assert a.die_metrics.theta_max_c == pytest.approx(
                b.die_metrics.theta_max_c, abs=1e-12
            )
            assert a.package_power_w == pytest.approx(b.package_power_w, abs=1e-12)


class TestTransientLane:
    def test_advance_matches_per_server_sessions(self, floorplan, power_model, x264, canneal):
        """A short jittered rack trace on a one-rack floor == the golden loop."""
        benchmarks = [x264, x264, canneal]
        mappings = [_mapping(floorplan, bench) for bench in benchmarks]
        floor = _floor(_rack_session(floorplan, power_model, 3))
        golden = [_golden_session(floorplan, power_model) for _ in benchmarks]

        for activity in (1.0, 0.97, 1.02, 0.95):
            loads = [
                ServerLoad(benchmark=bench, mapping=mapping, activity_factor=activity)
                for bench, mapping in zip(benchmarks, mappings)
            ]
            advance = floor.advance([loads], 2.0, n_substeps=3).racks[0]
            for index, (bench, mapping) in enumerate(zip(benchmarks, mappings)):
                step = golden[index].advance_mapping(
                    bench, mapping, 2.0, activity_factor=activity, n_substeps=3
                )
                ours = advance.servers[index]
                assert np.array_equal(
                    ours.result.thermal_result.temperatures_c,
                    step.result.thermal_result.temperatures_c,
                )
                assert ours.settle_residual_c == step.settle_residual_c
                assert ours.period_peak_case_c == step.period_peak_case_c
                assert ours.boundary_refreshed == step.boundary_refreshed

    def test_small_jitter_holds_boundaries(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        floor = _floor(_rack_session(floorplan, power_model, 2))
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 2
        first = floor.advance([loads], 2.0).racks[0]
        assert first.boundary_refreshes == 2
        jittered = [
            ServerLoad(benchmark=x264, mapping=mapping, activity_factor=1.02)
        ] * 2
        second = floor.advance([jittered], 2.0).racks[0]
        assert second.boundary_refreshes == 0

    def test_per_server_force_refresh(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        floor = _floor(_rack_session(floorplan, power_model, 3))
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 3
        floor.advance([loads], 2.0)
        step = floor.advance(
            [loads], 2.0, force_boundary_refresh=[[False, True, False]]
        ).racks[0]
        assert [server.boundary_refreshed for server in step.servers] == [
            False,
            True,
            False,
        ]

    def test_reset_forgets_state(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _rack_session(floorplan, power_model, 2)
        floor = _floor(rack)
        floor.advance([[ServerLoad(benchmark=x264, mapping=mapping)] * 2], 2.0)
        assert rack.temperatures is not None
        rack.reset()
        assert rack.temperatures is None

    def test_load_count_validated(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        floor = _floor(_rack_session(floorplan, power_model, 3))
        with pytest.raises(ValidationError):
            floor.advance([[ServerLoad(benchmark=x264, mapping=mapping)] * 2], 2.0)
        with pytest.raises(ValidationError):
            floor.advance(
                [[ServerLoad(benchmark=x264, mapping=mapping)] * 3],
                2.0,
                force_boundary_refresh=[[True]],
            )

    def test_rejects_empty_rack(self, floorplan, power_model):
        with pytest.raises(ConfigurationError):
            _rack_session(floorplan, power_model, 0)


class TestRackTrace:
    @pytest.fixture(scope="class")
    def jittered_trace(self):
        phases = tuple(
            TracePhase(2.0, 0.9 + 0.004 * index, 0.5) for index in range(8)
        )
        return PhasedTrace("jittered", phases)

    def test_rack_trace_factorization_count(
        self, floorplan, power_model, x264, jittered_trace
    ):
        """ISSUE acceptance: a homogeneous rack trace shares operators.

        Independent per-server transient traces each pay their own
        steady-init and refresh factorizations; the rack engine pays that
        cost once for the whole homogeneous rack (>= n_servers x fewer).
        """
        mapping = _mapping(floorplan, x264)
        n_servers = 4
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        controller = ThermosyphonController(
            simulation, control_period_s=2.0, relax_margin_c=100.0
        )
        servers = [
            RackServer(x264, mapping, QoSConstraint(2.0)) for _ in range(n_servers)
        ]
        record = controller.run_rack_trace(servers, jittered_trace)
        assert record.n_periods == 8
        assert record.n_servers == n_servers
        assert record.factorizations is not None

        # Golden: the same trace on independent per-server simulations.
        golden_factorizations = 0
        for _ in range(n_servers):
            golden_sim = CooledServerSimulation(
                floorplan,
                power_model=power_model,
                thermal_simulator=ThermalSimulator(
                    floorplan, cell_size_mm=CELL_SIZE_MM
                ),
            )
            golden_controller = ThermosyphonController(
                golden_sim, control_period_s=2.0, relax_margin_c=100.0
            )
            golden_record = golden_controller.run_trace(
                x264, mapping, QoSConstraint(2.0), jittered_trace, mode="transient"
            )
            golden_factorizations += golden_record.factorizations
        assert golden_factorizations >= n_servers * record.factorizations

        # And the decisions themselves match the single-server golden run.
        for server in range(n_servers):
            for ours, theirs in zip(
                record.server_decisions(server), golden_record.decisions
            ):
                assert ours.case_temperature_c == pytest.approx(
                    theirs.case_temperature_c, abs=1e-12
                )
                assert ours.action is theirs.action

    def test_rack_trace_reports_chiller_power(
        self, floorplan, power_model, x264, jittered_trace
    ):
        mapping = _mapping(floorplan, x264)
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        controller = ThermosyphonController(simulation, control_period_s=2.0)
        servers = [RackServer(x264, mapping, QoSConstraint(2.0)) for _ in range(2)]
        record = controller.run_rack_trace(servers, jittered_trace)
        assert len(record.chiller_power_w) == record.n_periods
        assert record.mean_chiller_power_w > 0.0
        assert record.chiller_energy_j == pytest.approx(
            sum(record.chiller_power_w) * 2.0
        )
        summary = record.summary()
        assert "servers" in summary
        assert "factorizations" in summary

    def test_missing_trace_rejected(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        controller = ThermosyphonController(simulation)
        servers = [RackServer(x264, mapping, QoSConstraint(2.0))]
        with pytest.raises(ConfigurationError):
            controller.run_rack_trace(servers, None)


class TestWarmSessionReuse:
    def test_supplied_rack_session_keeps_state_across_traces(
        self, floorplan, power_model, x264
    ):
        """A caller-supplied session continues warm; the default path is cold."""
        mapping = _mapping(floorplan, x264)
        simulation = CooledServerSimulation(
            floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        controller = ThermosyphonController(
            simulation, control_period_s=2.0, relax_margin_c=100.0
        )
        session = RackSession(
            2,
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=simulation.thermal_simulator,
        )
        servers = [RackServer(x264, mapping, QoSConstraint(2.0)) for _ in range(2)]
        trace = PhasedTrace("short", (TracePhase(2.0, 1.0, 0.5),) * 2)
        controller.run_rack_trace(servers, trace, rack_session=session)
        warm = session.temperatures
        assert warm is not None
        controller.run_rack_trace(servers, trace, rack_session=session)
        # The second trace advanced the same fields instead of resetting.
        assert session.temperatures is not None

    def test_continued_trace_matches_uninterrupted_golden(
        self, floorplan, power_model, x264, canneal
    ):
        """Two traces on one supplied session == the golden over both.

        Each :meth:`run_rack_trace` builds a new floor; the second one must
        re-seed from the fields and held boundaries the first left in the
        session (not re-initialize from a steady solve).  The second
        trace opens at a small drift from the first's last phase, so a
        dropped boundary would refresh and diverge.  A passive policy keeps
        the actuators fixed, so the two runs carry no controller state.
        """

        class PassiveController(ThermosyphonController):
            def decide(self, result, water_loop, benchmark, constraint):
                return (
                    ControllerAction.NONE,
                    water_loop,
                    result.configuration.frequency_ghz,
                )

        def controller():
            return PassiveController(
                _steady_lane(floorplan, power_model), control_period_s=2.0
            )

        servers = [
            RackServer(bench, _mapping(floorplan, bench), QoSConstraint(2.0))
            for bench in (x264, canneal)
        ]
        first = PhasedTrace(
            "first", (TracePhase(2.0, 1.0, 0.5), TracePhase(2.0, 0.6, 0.5))
        )
        second = PhasedTrace(
            "second", (TracePhase(2.0, 0.61, 0.5), TracePhase(2.0, 1.0, 0.5))
        )
        ours = controller()
        session = RackSession(
            len(servers),
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=ours.simulation.thermal_simulator,
        )
        periods = []
        for trace in (first, second):
            periods.extend(
                ours.run_rack_trace(servers, trace, rack_session=session).periods
            )

        golden, _ = reference_rack_trace(
            controller(), servers, PhasedTrace("both", first.phases + second.phases)
        )
        assert len(periods) == len(golden) == 4
        for period, golden_period in zip(periods, golden):
            for a, b in zip(period, golden_period):
                # time_s restarts with each trace; every other field carries.
                assert a.case_temperature_c == b.case_temperature_c
                assert a.die_hot_spot_c == b.die_hot_spot_c
                assert a.package_power_w == b.package_power_w
                assert a.settle_residual_c == b.settle_residual_c
                assert a.period_peak_case_c == b.period_peak_case_c
