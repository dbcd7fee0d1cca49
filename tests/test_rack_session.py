"""RackSession tests: batched rack engine vs the per-server golden path.

The load-bearing guarantees: every batched layer (grouped operating points,
stacked lane march, multi-column back-substitution) reproduces the
per-server :class:`SimulationSession` to <= 1e-12 across homogeneous and
heterogeneous slots; the session-backed :class:`RackModel` matches the
per-slot :class:`BatchEvaluator` exactly; and the batched engine actually pays
fewer factorizations — one per distinct cooling boundary instead of one per
server, asserted through merged :class:`CacheStats`.
"""

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.rack import RackModel, ServerSlot
from repro.core.rack_session import RackSession, ServerLoad
from repro.core.runtime_controller import RackServer, ThermosyphonController
from repro.core.session import SimulationSession
from repro.core.pipeline import CooledServerSimulation
from repro.exceptions import ConfigurationError, ValidationError
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace, TracePhase

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


def _golden_session(floorplan, power_model):
    """A fresh independent per-server pipeline (its own simulator and cache)."""
    return SimulationSession(
        floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
    )


class TestSteadyEquivalence:
    def test_homogeneous_rack_matches_per_server_loop(self, floorplan, power_model, x264):
        """Identical slots: batched fields equal the golden loop to 1e-12."""
        mapping = _mapping(floorplan, x264)
        n_servers = 4
        rack = _rack_session(floorplan, power_model, n_servers)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * n_servers
        batched = rack.solve_steady(loads)

        for result in batched:
            golden = _golden_session(floorplan, power_model).solve_steady_mapping(
                x264, mapping
            )
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
        """Mixed workloads split into groups but still match the golden loop."""
        benchmarks = [x264, canneal, x264, canneal]
        rack = _rack_session(floorplan, power_model, len(benchmarks))
        loads = [
            ServerLoad(benchmark=benchmark, mapping=_mapping(floorplan, benchmark))
            for benchmark in benchmarks
        ]
        batched = rack.solve_steady(loads)
        for load, result in zip(loads, batched):
            golden = _golden_session(floorplan, power_model).solve_steady_mapping(
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
        results = rack.solve_steady(loads)
        assert rack.cache_stats().misses == 2
        assert (
            results[0].configuration.frequency_ghz
            != results[1].configuration.frequency_ghz
        )
        assert results[0].package_power_w > results[1].package_power_w


class TestFactorizationSharing:
    def test_homogeneous_rack_pays_one_factorization(self, floorplan, power_model, x264):
        """ISSUE acceptance: 8 identical servers, one factorization.

        The per-server golden loop with independent sessions pays one per
        server; merged CacheStats assert the >= 8x reduction.
        """
        mapping = _mapping(floorplan, x264)
        n_servers = 8
        rack = _rack_session(floorplan, power_model, n_servers)
        rack.solve_steady([ServerLoad(benchmark=x264, mapping=mapping)] * n_servers)
        assert rack.cache_stats().misses == 1

        golden_sessions = [
            _golden_session(floorplan, power_model) for _ in range(n_servers)
        ]
        for session in golden_sessions:
            session.solve_steady_mapping(x264, mapping)
        golden_stats = sum(
            (session.thermal_simulator.solver_cache.stats for session in golden_sessions),
            CacheStats.zero(),
        )
        assert golden_stats.misses == n_servers
        assert golden_stats.misses >= 8 * rack.cache_stats().misses

    def test_heterogeneous_rack_pays_one_per_distinct_boundary(
        self, floorplan, power_model, x264, canneal
    ):
        rack = _rack_session(floorplan, power_model, 6)
        loads = [
            ServerLoad(benchmark=bench, mapping=_mapping(floorplan, bench))
            for bench in (x264, x264, x264, canneal, canneal, canneal)
        ]
        rack.solve_steady(loads)
        assert rack.cache_stats().misses == 2  # one per distinct workload

    def test_repeated_solves_reuse_operators(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _rack_session(floorplan, power_model, 4)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 4
        rack.solve_steady(loads)
        misses = rack.cache_stats().misses
        rack.solve_steady(loads)
        assert rack.cache_stats().misses == misses


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


class TestRackModelParity:
    """``RackModel.evaluate`` (rack session) == the per-slot batch evaluator.

    The probe temperatures are the first ones the two water-temperature
    searches visit (15-40 C for the warmest feasible water, 10-30 C for
    the hot-spot target), so the searches built on ``evaluate`` land where
    per-slot evaluation would.
    """

    @pytest.fixture(scope="class")
    def slots(self):
        return [
            ServerSlot(get_benchmark("x264"), QoSConstraint(2.0)),
            ServerSlot(get_benchmark("x264"), QoSConstraint(2.0)),
            ServerSlot(get_benchmark("canneal"), QoSConstraint(2.0)),
        ]

    @pytest.fixture(scope="class")
    def rack(self, slots):
        return RackModel(slots, cell_size_mm=CELL_SIZE_MM)

    @pytest.fixture(scope="class")
    def evaluator(self):
        return BatchEvaluator(CooledServerSimulation(cell_size_mm=CELL_SIZE_MM))

    @pytest.mark.parametrize(
        "water_c", [10.0, 15.0, 20.0, 21.25, 27.5, 30.0, 33.75, 40.0]
    )
    def test_evaluate_matches_batch_evaluator(self, rack, evaluator, slots, water_c):
        ours = rack.evaluate(water_c)
        water_loop = WaterLoop(
            inlet_temperature_c=water_c,
            flow_rate_kg_h=rack.design.water_flow_rate_kg_h,
        )
        theirs = evaluator.evaluate_many(
            [
                SweepPoint(
                    benchmark=slot.benchmark,
                    constraint=slot.constraint,
                    water_loop=water_loop,
                )
                for slot in slots
            ]
        )
        assert ours.chiller_power_w == pytest.approx(
            sum(
                rack.chiller.cooling_power_w(r.water_loop, r.package_power_w)
                for r in theirs
            ),
            abs=1e-9,
        )
        for a, b in zip(ours.server_results, theirs):
            assert a.case_temperature_c == pytest.approx(b.case_temperature_c, abs=1e-12)
            assert a.die_metrics.theta_max_c == pytest.approx(
                b.die_metrics.theta_max_c, abs=1e-12
            )
            assert a.package_power_w == pytest.approx(b.package_power_w, abs=1e-12)


class TestTransientLane:
    def test_advance_matches_per_server_sessions(self, floorplan, power_model, x264, canneal):
        """A short jittered rack trace advances exactly like golden sessions."""
        benchmarks = [x264, x264, canneal]
        mappings = [_mapping(floorplan, bench) for bench in benchmarks]
        rack = _rack_session(floorplan, power_model, 3)
        golden = [_golden_session(floorplan, power_model) for _ in benchmarks]

        for activity in (1.0, 0.97, 1.02, 0.95):
            loads = [
                ServerLoad(benchmark=bench, mapping=mapping, activity_factor=activity)
                for bench, mapping in zip(benchmarks, mappings)
            ]
            advance = rack.advance(loads, dt_s=2.0, n_substeps=3)
            for index, (bench, mapping) in enumerate(zip(benchmarks, mappings)):
                step = golden[index].advance_mapping(
                    bench, mapping, 2.0, activity_factor=activity, n_substeps=3
                )
                ours = advance.servers[index]
                scale = np.abs(step.result.thermal_result.temperatures_c).max()
                assert (
                    np.abs(
                        ours.result.thermal_result.temperatures_c
                        - step.result.thermal_result.temperatures_c
                    ).max()
                    <= 1e-12 * scale
                )
                assert ours.settle_residual_c == pytest.approx(
                    step.settle_residual_c, abs=1e-12
                )
                assert ours.period_peak_case_c == pytest.approx(
                    step.period_peak_case_c, abs=1e-12
                )
                assert ours.boundary_refreshed == step.boundary_refreshed

    def test_small_jitter_holds_boundaries(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _rack_session(floorplan, power_model, 2)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 2
        first = rack.advance(loads, dt_s=2.0)
        assert first.boundary_refreshes == 2
        jittered = [
            ServerLoad(benchmark=x264, mapping=mapping, activity_factor=1.02)
        ] * 2
        second = rack.advance(jittered, dt_s=2.0)
        assert second.boundary_refreshes == 0

    def test_per_server_force_refresh(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _rack_session(floorplan, power_model, 3)
        loads = [ServerLoad(benchmark=x264, mapping=mapping)] * 3
        rack.advance(loads, dt_s=2.0)
        step = rack.advance(loads, dt_s=2.0, force_boundary_refresh=[False, True, False])
        assert [server.boundary_refreshed for server in step.servers] == [
            False,
            True,
            False,
        ]

    def test_reset_forgets_state(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _rack_session(floorplan, power_model, 2)
        rack.advance([ServerLoad(benchmark=x264, mapping=mapping)] * 2, dt_s=2.0)
        assert rack.temperatures is not None
        rack.reset()
        assert rack.temperatures is None

    def test_load_count_validated(self, floorplan, power_model, x264):
        mapping = _mapping(floorplan, x264)
        rack = _rack_session(floorplan, power_model, 3)
        with pytest.raises(ValidationError):
            rack.solve_steady([ServerLoad(benchmark=x264, mapping=mapping)] * 2)
        with pytest.raises(ValidationError):
            rack.advance(
                [ServerLoad(benchmark=x264, mapping=mapping)] * 3,
                dt_s=2.0,
                force_boundary_refresh=[True],
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
