"""Contract tests of the steady sweep engine: the memo and the iterative lane.

The sweep engine (:class:`~repro.core.batch.BatchEvaluator`, behind
Table II, Section VIII-B and Fig. 7) pays for each distinct thermal state
once.  :class:`~repro.core.pipeline.CooledServerSimulation` memoizes the
last :data:`EVALUATION_MEMO_ENTRIES` thermal states, and the sweep solves
each new one by preconditioned conjugate gradients (PCG) from the factor
of one reference boundary per design
(:meth:`FactorizationCache.preconditioned_steady_operator`).  The
guarantees:

* **Tier B against the exact lane.**  At 2.0 and 1.0 mm, every Table II
  point's field is within ``TIER_B_C`` of its exact solve.
* **Exact cases.**  A solve whose boundary is the reference, and every
  sweep point once the step cap forces the fallback, is ``==`` the exact
  lane.
* **Purity.**  A point's result is a function of the request: first in a
  sweep, last in a reversed sweep, alone on a cold simulation and after
  eviction from the memo, it is ``==``.
* **Memo.**  A revisit runs no operating point, no lane march and no
  solve; the memo holds at most its bound; memoized arrays are read-only.
* **Count gate.**  A three-benchmark Table II at 2.0 mm pays one
  factorization per design and one solve per distinct thermal state,
  pinned by equality.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from reference_kernel import TIER_B_C
from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.pipeline import EVALUATION_MEMO_ENTRIES, CooledServerSimulation
from repro.experiments.common import (
    build_platform,
    evaluate_approach_batch,
    paper_approaches,
)
from repro.experiments.table2_hotspots import run_table2
from repro.thermal import solver_cache
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.loop import ThermosyphonLoop
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import PARSEC_BENCHMARK_NAMES, get_benchmark
from repro.workloads.qos import QoSConstraint

QUICK = ("x264", "canneal", "ferret")


@pytest.fixture()
def counts(monkeypatch):
    """Calls of the three steps a memo hit skips, counted per name."""
    tally = {"operating_point": 0, "cooling_boundaries": 0, "steady_state_from_map": 0}
    for owner, name in (
        (ThermosyphonLoop, "operating_point"),
        (ThermosyphonLoop, "cooling_boundaries"),
        (ThermalSimulator, "steady_state_from_map"),
    ):
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _name=name, **kwargs):
            tally[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return tally


def _simulation(floorplan, power_model, cell_size_mm: float = 2.0):
    """A simulation with its own thermal simulator: empty cache, empty memo."""
    return CooledServerSimulation(
        floorplan,
        design=PAPER_OPTIMIZED_DESIGN,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=cell_size_mm),
    )


def _points():
    return [
        SweepPoint(benchmark=name, configuration=configuration)
        for name in QUICK
        for configuration in (Configuration(8, 2, 3.2), Configuration(4, 1, 2.6))
    ]


def _exact(evaluator: BatchEvaluator, result):
    """The same evaluation solved by the exact lane."""
    return evaluator.simulation.simulate_mapping(
        get_benchmark(result.benchmark_name),
        result.mapping,
        mapper=evaluator.mapper,
        water_loop=result.water_loop,
    )


def assert_identical(a, b):
    """Two evaluations agree bit for bit, field included."""
    assert a.configuration == b.configuration
    assert a.mapping.active_cores == b.mapping.active_cores
    assert a.package_power_w == b.package_power_w
    assert a.operating_point == b.operating_point
    assert a.die_metrics == b.die_metrics
    assert a.package_metrics == b.package_metrics
    assert a.case_temperature_c == b.case_temperature_c
    assert np.array_equal(a.thermal_result.temperatures_c, b.thermal_result.temperatures_c)


def _table2_pairs(platform, benchmark_names):
    """Every Table II point: ``(sweep result, exact result)``."""
    pairs = []
    for approach in paper_approaches():
        evaluator = platform.batch_evaluator(approach)
        for factor in (1.0, 2.0, 3.0):
            for result in evaluate_approach_batch(
                platform, approach, benchmark_names, QoSConstraint(factor)
            ):
                pairs.append((result, _exact(evaluator, result)))
    return pairs


class TestAgainstExactLane:
    @pytest.mark.parametrize("cell_size_mm", [2.0, 1.0])
    def test_table2_points_are_tier_b(self, cell_size_mm):
        pairs = _table2_pairs(
            build_platform(cell_size_mm=cell_size_mm), PARSEC_BENCHMARK_NAMES
        )
        assert len(pairs) == 117
        for swept, exact in pairs:
            assert np.max(
                np.abs(swept.thermal_result.temperatures_c - exact.thermal_result.temperatures_c)
            ) <= TIER_B_C
            assert swept.operating_point == exact.operating_point

    def test_reference_boundary_solves_exactly(self, floorplan, power_model):
        simulation = _simulation(floorplan, power_model)
        simulator = simulation.thermal_simulator
        reference = simulation.reference_boundary()
        for power_map in (
            np.where(simulator.die_mask, 1.0, 0.0),
            simulator.power_map({f"core{i}": 6.0 + i for i in range(8)}),
        ):
            iterative = simulator.steady_state_from_map(
                power_map, reference, reference=reference
            )
            exact = simulator.steady_state_from_map(power_map, reference)
            assert np.array_equal(iterative.temperatures_c, exact.temperatures_c)

    def test_step_cap_falls_back_to_the_exact_lane(
        self, floorplan, power_model, monkeypatch
    ):
        monkeypatch.setattr(solver_cache, "ITERATIVE_MAX_STEPS", 0)
        evaluator = BatchEvaluator(_simulation(floorplan, power_model))
        for result in evaluator.evaluate_many(_points()):
            assert_identical(result, _exact(evaluator, result))


class TestPurity:
    def test_point_is_a_function_of_the_request(self, floorplan, power_model, counts):
        points = _points()
        target = points[0]
        simulation = _simulation(floorplan, power_model)
        first = BatchEvaluator(simulation).evaluate_many(points)[0]
        last = BatchEvaluator(_simulation(floorplan, power_model)).evaluate_many(
            points[::-1]
        )[-1]
        alone = BatchEvaluator(_simulation(floorplan, power_model)).evaluate(target)

        # Evict the target: more than the memo holds of other states.
        evaluator = BatchEvaluator(simulation)
        loop = simulation.design.water_loop()
        for index in range(EVALUATION_MEMO_ENTRIES + 1):
            evaluator.evaluate(
                SweepPoint(
                    benchmark=target.benchmark,
                    configuration=target.configuration,
                    water_loop=loop.with_flow_rate(loop.flow_rate_kg_h + 1.0 + 0.25 * index),
                )
            )
        marches = counts["cooling_boundaries"]
        evicted = evaluator.evaluate(target)
        assert counts["cooling_boundaries"] == marches + 1

        for result in (last, alone, evicted):
            assert_identical(result, first)


class TestMemo:
    def test_revisit_runs_no_lane_march_and_no_solve(
        self, floorplan, power_model, counts
    ):
        evaluator = BatchEvaluator(_simulation(floorplan, power_model))
        point = _points()[0]
        first = evaluator.evaluate(point)
        before = dict(counts)
        again = evaluator.evaluate(point)
        assert counts == before
        assert_identical(again, first)
        assert again is not first

    def test_memo_holds_at_most_its_bound(self, floorplan, power_model, counts):
        simulation = _simulation(floorplan, power_model)
        evaluator = BatchEvaluator(simulation)
        loop = simulation.design.water_loop()
        points = [
            SweepPoint(
                benchmark="x264",
                configuration=Configuration(4, 1, 2.6),
                water_loop=loop.with_flow_rate(5.0 + 0.5 * index),
            )
            for index in range(EVALUATION_MEMO_ENTRIES + 4)
        ]
        for point in points:
            evaluator.evaluate(point)
            assert len(simulation._memo) <= EVALUATION_MEMO_ENTRIES
        # The most recent states are served from memory, the oldest are not.
        solves = counts["steady_state_from_map"]
        for point in points[-EVALUATION_MEMO_ENTRIES:]:
            evaluator.evaluate(point)
        assert counts["steady_state_from_map"] == solves
        evaluator.evaluate(points[0])
        assert counts["steady_state_from_map"] == solves + 1

    def test_threads_sharing_a_simulation_agree(self, floorplan, power_model):
        """More threads than cores sweep one simulation whose memo is
        smaller than their working set: no lost update, the bound holds,
        and every result is the serial one."""
        loop = PAPER_OPTIMIZED_DESIGN.water_loop()
        points = [
            SweepPoint(
                benchmark="x264",
                configuration=Configuration(4, 1, 2.6),
                water_loop=loop.with_flow_rate(5.0 + 0.5 * index),
            )
            for index in range(EVALUATION_MEMO_ENTRIES + 4)
        ]
        serial = BatchEvaluator(_simulation(floorplan, power_model)).evaluate_many(points)
        simulation = _simulation(floorplan, power_model)
        evaluator = BatchEvaluator(simulation)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                futures = [
                    executor.submit(evaluator.evaluate_many, points[offset:] + points[:offset])
                    for offset in range(8)
                ]
                swept = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(simulation._memo) == EVALUATION_MEMO_ENTRIES
        for offset, results in enumerate(swept):
            for result, expected in zip(results, serial[offset:] + serial[:offset]):
                assert_identical(result, expected)

    def test_memoized_arrays_are_read_only(self, floorplan, power_model):
        evaluator = BatchEvaluator(_simulation(floorplan, power_model))
        point = _points()[0]
        result = evaluator.evaluate(point)
        with pytest.raises(ValueError):
            result.thermal_result.temperatures_c[0, 0, 0] = 0.0
        with pytest.raises(ValueError):
            result.thermal_result.die_map()[0, 0] += 1.0
        with pytest.raises(ValueError):
            result.thermal_result.die_mask[0, 0] = True
        assert_identical(evaluator.evaluate(point), result)


class TestCountGate:
    def test_table2_factorizations_and_solves(self, counts):
        """Three benchmarks at 2.0 mm over Table II's 27 points: one
        factorization per design (the two references; the baselines share
        the Seuret design) and one solve per distinct thermal state, 10
        here.  Before the memo and the lane it paid 10 factorizations and
        27 solves."""
        platform = build_platform(cell_size_mm=2.0)
        result = run_table2(platform, benchmark_names=QUICK)
        assert len(result.cells) == 27
        assert platform.thermal_simulator.solver_cache.stats.misses == 2
        assert counts["steady_state_from_map"] == 10
        assert counts["cooling_boundaries"] == 10 + 2
