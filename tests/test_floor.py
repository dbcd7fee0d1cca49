"""Floor engine tests: stacked hardware-group solves across the datacenter.

The load-bearing guarantees of :mod:`repro.datacenter.floor`:

* a **mixed-SKU** fixed-setpoint floor (per-rack floorplans, designs and
  power models) reproduces the per-server golden loop of
  ``tests/reference_session.py`` bit for bit — the floor engine
  partitions its stacked solves by hardware group instead of falling back
  to anything slower;
* rejected input raises before the floor stores any refreshed boundary;
* the solve partition (:meth:`FloorEngine.boundary_groups`) tracks
  actuator events: a valve action, a DVFS move and a setpoint change land
  servers in the right groups;
* an N-rack homogeneous floor pays exactly one rack's operator
  factorizations, asserted via merged :class:`CacheStats`;
* a hardware group holding more distinct boundaries than the solver
  cache keeps pays one factorization per operator per period, and each
  of its servers still equals the golden loop;
* :meth:`DatacenterSession.cache_stats` counts every distinct cache
  exactly once on a heterogeneous floor (no double-count, no drop);
* a boundary refresh makes one lane march per (design, hardware group),
  whatever the number of operating points, so SKUs whose grids share a
  pitch but not a shape never stack into one march.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.rack_session import RackSession, ServerLoad
from repro.core.runtime_controller import RackServer, ThermosyphonController
from repro.datacenter.floor import FloorEngine
from repro.datacenter.model import DatacenterModel, RackSpec
from repro.datacenter.scenarios import build_scenario
from repro.exceptions import ConfigurationError, ValidationError
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import ServerPowerModel
from repro.thermal.rom import RomConfig
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.chiller import ChillerPlant
from repro.thermosyphon.design import (
    PAPER_OPTIMIZED_DESIGN,
    SEURET_REFERENCE_DESIGN,
)
from repro.thermosyphon.loop import ThermosyphonLoop
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import generate_trace

from reference_session import ReferenceSession, reference_rack_trace

CELL_SIZE_MM = 2.5
CONTROL_PERIOD_S = 2.0
DURATION_S = 16.0

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


def _mapping(floorplan, benchmark, design=PAPER_OPTIMIZED_DESIGN, frequency_ghz=3.2):
    mapper = ThreadMapper(floorplan, orientation=design.orientation)
    return mapper.map(
        benchmark, Configuration(8, 2, frequency_ghz), ProposedThermalAwareMapping()
    )


def _servers(floorplan, benchmark, n, design=PAPER_OPTIMIZED_DESIGN, trace=None):
    mapping = _mapping(floorplan, benchmark, design=design)
    if trace is None:
        trace = generate_trace(benchmark, total_duration_s=DURATION_S)
    return tuple(
        RackServer(benchmark, mapping, QoSConstraint(2.0), trace=trace)
        for _ in range(n)
    )


@pytest.fixture(scope="module")
def second_floorplan():
    """A second SKU: same die, different heat-spreader footprint."""
    return build_xeon_e5_v4_floorplan(spreader_size_mm=42.0)


class TestFloorEngineValidation:
    def test_needs_at_least_one_rack(self):
        with pytest.raises(ConfigurationError):
            FloorEngine([])

    def test_rack_count_mismatch_rejected(self, floorplan, x264):
        session = RackSession(
            1, floorplan=floorplan, thermal_simulator=_simulator(floorplan)
        )
        engine = FloorEngine([session])
        load = ServerLoad(benchmark=x264, mapping=_mapping(floorplan, x264))
        with pytest.raises(ValidationError):
            engine.advance([[load], [load]], 2.0)

    def test_rejected_periods_leave_held_boundaries_untouched(self, floorplan, x264):
        """Bad input raises before stage 2 stores any refreshed boundary.

        A rejected period must not leave a boundary behind: the next valid
        period would then hold it and report no refresh.
        """
        session = RackSession(
            1, floorplan=floorplan, thermal_simulator=_simulator(floorplan)
        )
        engine = FloorEngine([session])
        mapping = _mapping(floorplan, x264)
        full = ServerLoad(benchmark=x264, mapping=mapping)
        light = ServerLoad(benchmark=x264, mapping=mapping, activity_factor=0.3)

        # Cold floor: a span needs a warm floor.
        with pytest.raises(ConfigurationError):
            engine.advance_span([[full]], 2.0, 4, rom=RomConfig())
        assert engine.snapshot().rack_snapshots[0].boundaries == (None,)
        first = engine.advance([[full]], 2.0).racks[0].servers[0]
        assert first.boundary_refreshed

        # Warm floor, a load far beyond the drift tolerance, a bad dt_s.
        before = engine.snapshot().rack_snapshots[0].boundaries
        with pytest.raises(ValidationError):
            engine.advance([[light]], 0.0)
        with pytest.raises(ValidationError):
            engine.advance_span([[light]], 0.0, 4, rom=RomConfig())
        assert engine.snapshot().rack_snapshots[0].boundaries == before
        step = engine.advance([[light]], 2.0).racks[0].servers[0]
        assert step.boundary_refreshed


class TestMixedSkuEquivalence:
    def test_bit_identical_to_standalone_rack_traces(
        self, floorplan, power_model, second_floorplan, x264, canneal
    ):
        """Mixed-SKU floor == the per-server golden loop, bit for bit.

        Rack 0 runs the default floorplan with the paper-optimized design;
        rack 1 a different spreader footprint with the Seuret reference
        design and its own power model — two hardware groups, two
        factorization caches.  The fixed-setpoint floor must reproduce
        every server's golden transient trace
        (``tests/reference_session.py``) and each rack's chiller power
        exactly, with **no** fallback path.
        """
        power_model_b = ServerPowerModel(second_floorplan)
        trace_a = generate_trace(x264, total_duration_s=DURATION_S)
        trace_b = generate_trace(canneal, total_duration_s=DURATION_S)
        rack_hardware = [
            (floorplan, PAPER_OPTIMIZED_DESIGN, power_model, x264, trace_a),
            (second_floorplan, SEURET_REFERENCE_DESIGN, power_model_b, canneal, trace_b),
        ]
        racks = [
            RackSpec(
                name=f"rack{i}",
                servers=_servers(fp, benchmark, 3, design=design, trace=trace),
                floorplan=None if fp is floorplan else fp,
                design=None if design is PAPER_OPTIMIZED_DESIGN else design,
                power_model=None if pm is power_model else pm,
            )
            for i, (fp, design, pm, benchmark, trace) in enumerate(rack_hardware)
        ]
        plant = ChillerPlant(free_cooling_outdoor_c=18.0)
        setpoint = PAPER_OPTIMIZED_DESIGN.water_inlet_temperature_c
        floor = DatacenterModel(
            racks,
            plant=plant,
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=_simulator(floorplan),
            control_period_s=CONTROL_PERIOD_S,
        )
        assert floor.n_hardware_groups == 2
        session = floor.session()
        assert session.floor_engine is not None
        assert session.floor_engine.n_hardware_groups == 2
        trace = session.run(duration_s=DURATION_S)
        assert all(value == setpoint for value in trace.setpoint_c)

        for rack_index, (fp, design, pm, benchmark, _) in enumerate(rack_hardware):
            simulation = CooledServerSimulation(
                fp,
                design=design,
                power_model=pm,
                thermal_simulator=_simulator(fp),
            )
            controller = ThermosyphonController(
                simulation, control_period_s=CONTROL_PERIOD_S
            )
            golden_periods, golden_chiller_w = reference_rack_trace(
                controller,
                racks[rack_index].servers,
                initial_water_loop=design.water_loop().with_inlet_temperature(
                    setpoint
                ),
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


class TestSharedPitchSkus:
    def test_skus_sharing_a_pitch_match_single_rack_floors(
        self, floorplan, second_floorplan
    ):
        """At 2.0 mm the default SKU (19x19 cells) and the 42 mm-spreader SKU
        (21x21 cells) share a pitch; with identical loads both racks sit at
        one operating point.  Each rack must still march on its own grid
        and match a floor holding that rack alone, bit for bit."""
        scenario = build_scenario(
            "diurnal", n_racks=1, servers_per_rack=2, duration_s=8.0, seed=7
        )
        rack = scenario.racks[0]
        racks = (
            replace(rack, name="default"),
            replace(rack, name="spreader42", floorplan=second_floorplan),
        )

        def run(floor_racks):
            model = DatacenterModel(
                floor_racks,
                plant=ChillerPlant(free_cooling_outdoor_c=18.0),
                floorplan=floorplan,
                thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=2.0),
                control_period_s=CONTROL_PERIOD_S,
            )
            return model, model.run_trace(duration_s=8.0)

        model, mixed = run(racks)
        pitches = {sim.grid.cell_pitch_mm() for sim in model.rack_simulators}
        shapes = {sim.shape for sim in model.rack_simulators}
        assert len(pitches) == 1 and len(shapes) == 2
        for index, single_rack in enumerate(racks):
            _, alone = run((single_rack,))
            ours, theirs = mixed.racks[index], alone.racks[0]
            assert len(ours.periods) == len(theirs.periods) == 4
            for period_a, period_b in zip(ours.periods, theirs.periods):
                for decision_a, decision_b in zip(period_a, period_b):
                    for field in _DECISION_FIELDS:
                        assert getattr(decision_a, field) == getattr(
                            decision_b, field
                        ), field


class TestOneLaneMarchPerHardwareGroup:
    def test_distinct_points_march_once_per_hardware_group(
        self, floorplan, second_floorplan, x264, monkeypatch
    ):
        """Four servers at four operating points on two hardware groups:
        two marches, each server's boundary equal to a single-point one."""
        sessions = [
            RackSession(2, floorplan=fp, thermal_simulator=_simulator(fp))
            for fp in (floorplan, second_floorplan)
        ]
        engine = FloorEngine(sessions)
        nominal = PAPER_OPTIMIZED_DESIGN.water_loop()
        loads = [
            [
                ServerLoad(
                    benchmark=x264,
                    mapping=_mapping(session.floorplan, x264),
                    water_loop=nominal.with_inlet_temperature(
                        nominal.inlet_temperature_c + 2 * r + s
                    ),
                )
                for s in range(2)
            ]
            for r, session in enumerate(sessions)
        ]
        stacks = []
        original = ThermosyphonLoop.cooling_boundaries

        def counted(loop, power_maps_w, *args, **kwargs):
            stacks.append(len(power_maps_w))
            return original(loop, power_maps_w, *args, **kwargs)

        monkeypatch.setattr(ThermosyphonLoop, "cooling_boundaries", counted)
        engine.advance(loads, 2.0)
        assert stacks == [2, 2]
        monkeypatch.undo()

        points = set()
        for session, rack_loads in zip(sessions, loads):
            pitch = session.thermal_simulator.grid.cell_pitch_mm()
            _, maps, _ = session._evaluate_power(rack_loads)
            for s, held in enumerate(session.held_boundaries()):
                points.add(held.operating_point)
                single = session.loop.cooling_boundary(
                    maps[s], pitch, held.operating_point
                )
                ours = held.boundary_result
                assert np.array_equal(ours.boundary.htc_w_m2k, single.boundary.htc_w_m2k)
                assert np.array_equal(
                    ours.boundary.fluid_temperature_c,
                    single.boundary.fluid_temperature_c,
                )
                assert np.array_equal(
                    ours.outlet_quality_per_lane, single.outlet_quality_per_lane
                )
        assert len(points) == 4


class TestBoundaryGroupPartitioning:
    def _engine(self, floorplan):
        simulator = _simulator(floorplan)
        sessions = [
            RackSession(2, floorplan=floorplan, thermal_simulator=simulator)
            for _ in range(2)
        ]
        return FloorEngine(sessions)

    def _loads(self, floorplan, benchmark, mapping=None, water_loops=None):
        mapping = mapping if mapping is not None else _mapping(floorplan, benchmark)
        loops = water_loops if water_loops is not None else [None] * 4
        loads = [
            ServerLoad(benchmark=benchmark, mapping=mapping, water_loop=loops[i])
            for i in range(4)
        ]
        return [loads[:2], loads[2:]]

    def test_identical_servers_share_one_group(self, floorplan, x264):
        engine = self._engine(floorplan)
        assert engine.boundary_groups() == []  # nothing held before an advance
        engine.advance(self._loads(floorplan, x264), 2.0, n_substeps=2)
        groups = engine.boundary_groups()
        assert len(groups) == 1
        assert sorted(groups[0]) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_valve_action_splits_the_acting_server(self, floorplan, x264):
        engine = self._engine(floorplan)
        engine.advance(self._loads(floorplan, x264), 2.0)
        opened = PAPER_OPTIMIZED_DESIGN.water_loop().with_flow_rate(9.0)
        loops = [None, None, opened, None]  # server (1, 0) opens its valve
        engine.advance(self._loads(floorplan, x264, water_loops=loops), 2.0)
        groups = {tuple(sorted(group)) for group in engine.boundary_groups()}
        assert groups == {((0, 0), (0, 1), (1, 1)), ((1, 0),)}

    def test_dvfs_move_splits_the_acting_server(self, floorplan, x264):
        engine = self._engine(floorplan)
        engine.advance(self._loads(floorplan, x264), 2.0)
        slow = _mapping(floorplan, x264, frequency_ghz=2.6)
        rack0, rack1 = self._loads(floorplan, x264)
        rack1 = [
            ServerLoad(benchmark=x264, mapping=slow),  # server (1, 0) steps down
            rack1[1],
        ]
        engine.advance(
            [rack0, rack1], 2.0, force_boundary_refresh=[False, [True, False]]
        )
        groups = {tuple(sorted(group)) for group in engine.boundary_groups()}
        assert groups == {((0, 0), (0, 1), (1, 1)), ((1, 0),)}

    def test_setpoint_move_regroups_every_server(self, floorplan, x264):
        engine = self._engine(floorplan)
        engine.advance(self._loads(floorplan, x264), 2.0)
        warmer = PAPER_OPTIMIZED_DESIGN.water_loop().with_inlet_temperature(33.0)
        loops = [warmer] * 4  # the supervisory loop re-issues every loop
        engine.advance(self._loads(floorplan, x264, water_loops=loops), 2.0)
        groups = engine.boundary_groups()
        assert len(groups) == 1
        assert sorted(groups[0]) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_hardware_groups_never_merge(
        self, floorplan, second_floorplan, x264
    ):
        """Equal designs on distinct thermal networks stay separate solves."""
        sim_a, sim_b = _simulator(floorplan), _simulator(second_floorplan)
        sessions = [
            RackSession(2, floorplan=floorplan, thermal_simulator=sim_a),
            RackSession(2, floorplan=second_floorplan, thermal_simulator=sim_b),
        ]
        engine = FloorEngine(sessions)
        assert engine.n_hardware_groups == 2
        mapping_a = _mapping(floorplan, x264)
        mapping_b = _mapping(second_floorplan, x264)
        engine.advance(
            [
                [ServerLoad(benchmark=x264, mapping=mapping_a)] * 2,
                [ServerLoad(benchmark=x264, mapping=mapping_b)] * 2,
            ],
            2.0,
        )
        groups = {tuple(sorted(group)) for group in engine.boundary_groups()}
        assert groups == {((0, 0), (0, 1)), ((1, 0), (1, 1))}


class TestHomogeneousFloorFactorizations:
    def test_n_rack_floor_pays_one_rack(self, floorplan, power_model, x264):
        """ISSUE acceptance: N racks, one rack's factorizations (CacheStats)."""
        trace = generate_trace(x264, total_duration_s=DURATION_S)
        servers = _servers(floorplan, x264, 2, trace=trace)
        n_racks = 4

        def run(n):
            floor = DatacenterModel(
                [RackSpec(name=f"rack{i}", servers=servers) for i in range(n)],
                plant=ChillerPlant(free_cooling_outdoor_c=18.0),
                floorplan=floorplan,
                power_model=power_model,
                thermal_simulator=_simulator(floorplan),
                control_period_s=CONTROL_PERIOD_S,
            )
            return floor.run_trace(duration_s=DURATION_S)

        single = run(1)
        floor_trace = run(n_racks)
        assert isinstance(floor_trace.cache_stats, CacheStats)
        assert floor_trace.factorizations == single.factorizations
        assert floor_trace.cache_stats.misses == floor_trace.factorizations


class TestWideHardwareGroup:
    def test_one_factorization_per_operator_per_period(
        self, floorplan, power_model, x264
    ):
        """More distinct boundaries than the LRU holds: no per-substep thrash.

        Each solve group marches all its substeps before the next one
        starts, so 17 operators cost one factorization each per period
        even though the cache keeps 16: 17 steady + 3 x 17 transient.
        """
        n_servers, n_periods, n_substeps = 17, 3, 4
        mapping = _mapping(floorplan, x264)
        session = RackSession(
            n_servers,
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=_simulator(floorplan),
        )
        engine = FloorEngine([session])
        loads = [
            ServerLoad(
                benchmark=x264,
                mapping=mapping,
                activity_factor=0.5 + 0.5 * i / n_servers,
            )
            for i in range(n_servers)
        ]
        cache = session.thermal_simulator.solver_cache
        assert cache.max_entries < n_servers
        misses_before = cache.stats.misses
        for _ in range(n_periods):
            advance = engine.advance([loads], 2.0, n_substeps=n_substeps)
        assert len(engine.boundary_groups()) == n_servers
        assert cache.stats.misses - misses_before == n_servers * (1 + n_periods)

        golden_lane = CooledServerSimulation(
            floorplan, power_model=power_model, thermal_simulator=_simulator(floorplan)
        )
        for load, server in zip(loads, advance.racks[0].servers):
            golden = ReferenceSession(golden_lane)
            for _ in range(n_periods):
                step = golden.advance_mapping(
                    x264,
                    mapping,
                    2.0,
                    activity_factor=load.activity_factor,
                    n_substeps=n_substeps,
                )
            assert np.array_equal(
                server.result.thermal_result.temperatures_c,
                step.result.thermal_result.temperatures_c,
            )


class TestCacheStatsDedupe:
    def _hetero_model(self, floorplan, second_floorplan, power_model, x264, canneal):
        racks = [
            RackSpec(name="r0", servers=_servers(floorplan, x264, 2)),
            RackSpec(name="r1", servers=_servers(floorplan, canneal, 2)),
            RackSpec(
                name="r2",
                servers=_servers(
                    second_floorplan, x264, 2, design=SEURET_REFERENCE_DESIGN
                ),
                floorplan=second_floorplan,
                design=SEURET_REFERENCE_DESIGN,
            ),
        ]
        return DatacenterModel(
            racks,
            plant=ChillerPlant(free_cooling_outdoor_c=18.0),
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=_simulator(floorplan),
            control_period_s=CONTROL_PERIOD_S,
        )

    def test_heterogeneous_floor_merges_each_cache_once(
        self, floorplan, second_floorplan, power_model, x264, canneal
    ):
        """ISSUE satellite: no double-count of a shared cache, no dropped one.

        Racks 0 and 1 share the default simulator, rack 2 carries its own —
        two distinct caches behind three racks.  The merged stats must be
        the sum over the *distinct* caches, not over rack sessions.
        """
        model = self._hetero_model(
            floorplan, second_floorplan, power_model, x264, canneal
        )
        session = model.session()
        session.advance_period(0.0)
        caches = {
            id(simulator.solver_cache): simulator.solver_cache
            for simulator in model.rack_simulators
        }
        assert len(caches) == 2
        expected = sum(
            (cache.stats for cache in caches.values()), CacheStats.zero()
        )
        assert session.cache_stats() == expected
        # Both caches saw work (nothing was dropped by the dedupe).
        for cache in caches.values():
            assert cache.stats.misses > 0

    def test_run_reports_merged_deltas(
        self, floorplan, second_floorplan, power_model, x264, canneal
    ):
        model = self._hetero_model(
            floorplan, second_floorplan, power_model, x264, canneal
        )
        trace = model.run_trace(duration_s=8.0)
        assert trace.cache_stats is not None
        per_cache = {
            id(simulator.solver_cache): simulator.solver_cache.stats
            for simulator in model.rack_simulators
        }
        merged = sum(per_cache.values(), CacheStats.zero())
        # Fresh simulators: the run's delta is everything the caches did.
        assert trace.cache_stats.misses == merged.misses
        assert trace.cache_stats.hits == merged.hits
        assert trace.factorizations == merged.misses


class TestMappingMemo:
    def test_identical_servers_share_resolved_mappings(
        self, floorplan, power_model, x264
    ):
        servers = _servers(floorplan, x264, 4)
        model = DatacenterModel(
            [RackSpec(name=f"rack{i}", servers=servers) for i in range(2)],
            plant=ChillerPlant(free_cooling_outdoor_c=18.0),
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=_simulator(floorplan),
            control_period_s=CONTROL_PERIOD_S,
        )
        session = model.session()
        # All eight servers share one RackServer mapping at one frequency:
        # the memo resolves it once and every slot aliases that object.
        assert len(session._mapping_memo) == 1
        resolved = {
            id(mapping) for rack in session._mappings for mapping in rack
        }
        assert len(resolved) == 1
