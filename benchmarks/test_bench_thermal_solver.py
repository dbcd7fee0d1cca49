"""Performance benchmark of the thermal and thermosyphon substrates.

Not a paper artefact: measures the cost of one steady-state solve and of one
full cooled-server evaluation so regressions in the numerical core are
visible in the benchmark history.  The cached/uncached pairs measure the
factorization-cache win directly: the uncached variant invalidates the
cache before every step, so the transient path at a fixed cooling boundary
pays one banded factorization per step instead of one per run.
"""

import numpy as np
import pytest

from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.pipeline import CooledServerSimulation
from repro.power.power_model import CoreActivity
from repro.thermal.boundary import uniform_cooling_boundary
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark


@pytest.mark.parametrize("cell_size_mm", [2.0, 1.0])
def test_bench_steady_state_solve(benchmark, floorplan_module, cell_size_mm):
    simulator = ThermalSimulator(floorplan_module, cell_size_mm=cell_size_mm)
    rows, columns = simulator.shape
    boundary = uniform_cooling_boundary(rows, columns, 2.0e4, 40.0)
    powers = {f"core{i}": 7.0 for i in range(8)}
    powers.update({"llc": 2.0, "memory_controller": 8.0, "uncore_io": 5.0})

    result = benchmark(lambda: simulator.steady_state(powers, boundary))
    assert result.die_metrics().theta_max_c > 40.0


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_bench_transient_run(benchmark, floorplan_module, cached):
    """20 backward-Euler steps at a fixed boundary; the cached variant
    factorizes once, the uncached variant invalidates the cache before
    every step and so factorizes once per step."""
    simulator = ThermalSimulator(floorplan_module, cell_size_mm=1.5)
    rows, columns = simulator.shape
    boundary = uniform_cooling_boundary(rows, columns, 2.0e4, 40.0)
    powers = {f"core{i}": 7.0 for i in range(8)}
    power_maps = [simulator.power_map(powers)[np.newaxis]] * 20

    def march():
        state = np.full((1, simulator.grid.n_cells), 45.0)
        for power_map in power_maps:
            if not cached:
                simulator.solver_cache.invalidate()
            state = simulator.transient_step_many_from_maps(
                state, power_map, boundary, 0.5
            )
        return state

    final = benchmark(march)
    assert final.max() > 40.0


def test_bench_batched_flow_sweep(benchmark, floorplan_module):
    """A water-flow sweep through the batch engine (shared simulation+cache)."""
    simulation = CooledServerSimulation(
        floorplan_module, design=PAPER_OPTIMIZED_DESIGN, cell_size_mm=2.0
    )
    evaluator = BatchEvaluator(simulation)
    workload = get_benchmark("x264")
    configuration = Configuration(8, 2, 3.2)
    points = [
        SweepPoint(
            benchmark=workload,
            configuration=configuration,
            water_loop=simulation.design.water_loop().with_flow_rate(flow),
        )
        for flow in (5.0, 7.0, 10.0, 14.0)
    ]

    results = benchmark(lambda: evaluator.evaluate_many(points))
    assert len(results) == 4


def test_bench_full_server_evaluation(benchmark, floorplan_module):
    simulation = CooledServerSimulation(
        floorplan_module, design=PAPER_OPTIMIZED_DESIGN, cell_size_mm=1.5
    )
    workload = get_benchmark("x264")
    activities = [
        CoreActivity.running(i, workload.core_power_parameters(), 2) for i in range(8)
    ]

    result = benchmark(
        lambda: simulation.simulate_activities(
            activities, 3.2, memory_intensity=workload.memory_intensity
        )
    )
    assert result.within_case_limit


@pytest.fixture(scope="module")
def floorplan_module():
    from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan

    return build_xeon_e5_v4_floorplan()
