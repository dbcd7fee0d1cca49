"""Batched evaluation engine tests.

The engine must resolve sweep points at every level (mapping /
configuration / constraint) through its own pipeline and mapper, preserve
point order, and share one simulation across the sweep: one reference
factorization per design, with revisited thermal states served by the
simulation's memo.  Its solves take the solver cache's iterative lane, so
it agrees with the direct (exact) pipeline path within tier B, and a
point's bits are a function of the request alone; the contracts of the
memo and the lane are in ``test_sweep_solves.py``.
"""

import pytest

from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.exceptions import ConfigurationError
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.qos import QoSConstraint


@pytest.fixture(scope="module")
def simulation(floorplan, power_model, coarse_thermal_simulator):
    return CooledServerSimulation(
        floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
        power_model=power_model,
        thermal_simulator=coarse_thermal_simulator,
    )


@pytest.fixture(scope="module")
def evaluator(simulation):
    return BatchEvaluator(simulation)


def fresh_simulation(floorplan, power_model):
    """A simulation with its own thermal simulator and an empty cache."""
    return CooledServerSimulation(
        floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=2.0),
    )


def assert_identical(a, b):
    """Two evaluations agree bit for bit on everything a sweep reports."""
    assert a.configuration == b.configuration
    assert a.mapping.active_cores == b.mapping.active_cores
    assert a.package_power_w == b.package_power_w
    assert a.die_metrics == b.die_metrics
    assert a.package_metrics == b.package_metrics
    assert a.case_temperature_c == b.case_temperature_c
    assert a.operating_point == b.operating_point


class TestPointResolution:
    def test_benchmark_name_is_resolved(self):
        point = SweepPoint(benchmark="x264", constraint=QoSConstraint(2.0))
        assert point.resolve_benchmark().name == "x264"

    def test_explicit_mapping_wins(self, evaluator, simulation, x264):
        mapper = ThreadMapper(
            simulation.floorplan, orientation=simulation.design.orientation
        )
        mapping = mapper.map(x264, Configuration(4, 2, 2.6), ProposedThermalAwareMapping())
        point = SweepPoint(benchmark=x264, mapping=mapping, configuration=Configuration(8, 2, 3.2))
        assert evaluator.resolve_mapping(point) is mapping

    def test_constraint_selects_configuration(self, evaluator, x264):
        point = SweepPoint(benchmark=x264, constraint=QoSConstraint(2.0))
        mapping = evaluator.resolve_mapping(point)
        selected = evaluator.selector.select(x264, QoSConstraint(2.0)).configuration
        assert mapping.configuration == selected
        assert mapping.n_active_cores == mapping.configuration.n_cores

    def test_unresolvable_point_rejected(self, evaluator, x264):
        with pytest.raises(ConfigurationError):
            evaluator.resolve_mapping(SweepPoint(benchmark=x264))


class TestEquivalenceWithDirectPath:
    def test_matches_simulate_mapping(self, evaluator, simulation, x264):
        configuration = Configuration(8, 2, 3.2)
        point = SweepPoint(benchmark=x264, configuration=configuration)
        batched = evaluator.evaluate(point)

        mapping = evaluator.mapper.map(x264, configuration, evaluator.policy)
        direct = simulation.simulate_mapping(x264, mapping, mapper=evaluator.mapper)
        assert batched.package_power_w == pytest.approx(direct.package_power_w)
        assert batched.die_metrics.theta_max_c == pytest.approx(direct.die_metrics.theta_max_c)
        assert batched.case_temperature_c == pytest.approx(direct.case_temperature_c)

    def test_water_loop_carried_through(self, evaluator, simulation, x264):
        loop = simulation.design.water_loop().with_flow_rate(12.0)
        result = evaluator.evaluate(
            SweepPoint(benchmark=x264, configuration=Configuration(8, 2, 3.2), water_loop=loop)
        )
        assert result.water_loop.flow_rate_kg_h == pytest.approx(12.0)


class TestEvaluateMany:
    def test_order_preserved(self, evaluator, x264, canneal):
        points = [
            SweepPoint(benchmark=x264, configuration=Configuration(8, 2, 3.2)),
            SweepPoint(benchmark=canneal, configuration=Configuration(2, 1, 2.6)),
        ]
        results = evaluator.evaluate_many(points)
        assert [r.benchmark_name for r in results] == ["x264", "canneal"]
        assert results[0].package_power_w > results[1].package_power_w

    def test_flow_sweep_shares_factorizations(self, simulation, x264):
        """Fixed cooling repeats across points must hit the shared cache."""
        evaluator = BatchEvaluator(simulation)
        cache = simulation.thermal_simulator.solver_cache
        baseline_misses = cache.stats.misses
        loop = simulation.design.water_loop()
        points = [
            SweepPoint(benchmark=x264, configuration=Configuration(8, 2, 3.2), water_loop=loop),
            SweepPoint(benchmark=x264, configuration=Configuration(8, 2, 3.2), water_loop=loop),
            SweepPoint(benchmark=x264, configuration=Configuration(8, 2, 3.2), water_loop=loop),
        ]
        evaluator.evaluate_many(points)
        # Identical points produce identical boundaries: one factorization.
        assert cache.stats.misses - baseline_misses <= 1

    def test_sweep_shares_one_cache(self, floorplan, power_model, x264, canneal):
        """A sweep pays one factorization, for the design's reference
        boundary; each distinct state looks the reference factor up once,
        and revisits are served by the memo without a lookup."""
        simulation = fresh_simulation(floorplan, power_model)
        # Three distinct states, each visited twice: well inside the
        # memo's 16 entries, so nothing is evicted.
        points = [
            SweepPoint(benchmark=benchmark, configuration=configuration)
            for benchmark, configuration in (
                (x264, Configuration(8, 2, 3.2)),
                (canneal, Configuration(4, 1, 2.6)),
                (x264, Configuration(2, 1, 2.6)),
            )
        ] * 2
        BatchEvaluator(simulation).evaluate_many(points)
        stats = simulation.thermal_simulator.solver_cache.stats
        assert (stats.misses, stats.hits) == (1, 2)

    def test_sweep_matches_each_point_on_a_cold_simulation(
        self, simulation, floorplan, power_model, x264, canneal
    ):
        """A sweep through one warm cache returns, bit for bit, what each
        point gives alone on a simulation whose cache starts empty."""
        evaluator = BatchEvaluator(simulation)
        mapping = evaluator.mapper.map(
            canneal, Configuration(4, 1, 2.6), evaluator.policy
        )
        points = [
            SweepPoint(benchmark=canneal, mapping=mapping),
            SweepPoint(benchmark=x264, configuration=Configuration(8, 2, 3.2)),
            SweepPoint(benchmark=x264, constraint=QoSConstraint(2.0)),
            SweepPoint(benchmark=x264, configuration=Configuration(4, 2, 2.9)),
        ]
        swept = evaluator.evaluate_many(points)
        assert [r.benchmark_name for r in swept] == ["canneal", "x264", "x264", "x264"]
        for point, result in zip(points, swept):
            alone = BatchEvaluator(fresh_simulation(floorplan, power_model)).evaluate(point)
            assert_identical(result, alone)

    def test_revisited_constraints_repeat_their_first_result(
        self, floorplan, power_model, x264, canneal
    ):
        """A sweep that fills a cold profile store as it goes selects, at a
        revisited constraint, exactly what it selected the first time."""
        points = [
            SweepPoint(benchmark=benchmark, constraint=QoSConstraint(factor))
            for factor in (1.0, 2.0, 3.0, 2.0)
            for benchmark in (x264, canneal)
        ]
        results = BatchEvaluator(fresh_simulation(floorplan, power_model)).evaluate_many(
            points
        )
        for first, revisit in zip(results[2:4], results[6:8]):
            assert_identical(first, revisit)

    def test_constraint_points_use_the_evaluator_pipeline(self, simulation, x264):
        """Constraint-only points resolve through the evaluator's own
        pipeline, so a custom (restricted) configuration table applies."""
        from repro.core.pipeline import ThermalAwarePipeline

        restricted = (Configuration(2, 1, 2.6),)
        pipeline = ThermalAwarePipeline(simulation, configurations=restricted)
        points = [
            SweepPoint(benchmark=x264, constraint=QoSConstraint(4.0)),
            SweepPoint(benchmark=x264, constraint=QoSConstraint(4.0)),
        ]
        evaluator = BatchEvaluator(simulation, pipeline=pipeline)
        results = evaluator.evaluate_many(points)
        for result in results:
            assert result.configuration == restricted[0]

    def test_custom_mapper_is_respected(self, simulation, floorplan, x264):
        """Points map through the evaluator's mapper, not a default one."""
        from repro.thermosyphon.orientation import Orientation

        mapper = ThreadMapper(floorplan, orientation=Orientation.EAST_TO_WEST)
        points = [
            SweepPoint(benchmark=x264, configuration=Configuration(4, 2, 3.2)),
            SweepPoint(benchmark=x264, configuration=Configuration(2, 1, 2.6)),
        ]
        evaluator = BatchEvaluator(simulation, mapper=mapper)
        default = BatchEvaluator(simulation)
        results = evaluator.evaluate_many(points)
        for point, result in zip(points, results):
            expected = mapper.map(x264, point.configuration, evaluator.policy)
            assert result.mapping.active_cores == expected.active_cores
            assert result.mapping.active_cores != default.resolve_mapping(point).active_cores
