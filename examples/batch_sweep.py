"""Batched sweep over water flow rates and configurations.

Demonstrates the batch-evaluation engine: many (benchmark, configuration,
water-flow) points are evaluated through one ``CooledServerSimulation``, so
the thermal factorization cache is shared across the whole sweep.  Run with
``PYTHONPATH=src python examples/batch_sweep.py``.
"""

from __future__ import annotations

import argparse
import time

from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.pipeline import CooledServerSimulation
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cell-size-mm", type=float, default=1.5)
    arguments = parser.parse_args()

    simulation = CooledServerSimulation(cell_size_mm=arguments.cell_size_mm)

    benchmarks = [get_benchmark(name) for name in ("x264", "canneal", "streamcluster")]
    flows_kg_h = (5.0, 7.0, 10.0, 14.0)
    configuration = Configuration(n_cores=8, threads_per_core=2, frequency_ghz=3.2)

    points = [
        SweepPoint(
            benchmark=benchmark,
            configuration=configuration,
            water_loop=simulation.design.water_loop().with_flow_rate(flow),
        )
        for benchmark in benchmarks
        for flow in flows_kg_h
    ]

    evaluator = BatchEvaluator(simulation)
    start = time.perf_counter()
    results = evaluator.evaluate_many(points)
    elapsed = time.perf_counter() - start

    # Each sweep point has a distinct cooling boundary (the boundary depends
    # on the power map and flow), so the first pass is all misses.
    # Re-evaluating the same operating points — what a controller trace or
    # an optimizer refinement loop does — runs entirely on cached
    # factorizations.
    start = time.perf_counter()
    evaluator.evaluate_many(points)
    second_pass = time.perf_counter() - start

    print(f"{'benchmark':<14} {'flow kg/h':>9} {'P_pkg W':>8} {'T_hot C':>8} "
          f"{'T_case C':>8} {'P_chiller W':>11}")
    for point, result in zip(points, results):
        print(
            f"{result.benchmark_name:<14} "
            f"{point.water_loop.flow_rate_kg_h:>9.1f} "
            f"{result.package_power_w:>8.1f} "
            f"{result.die_metrics.theta_max_c:>8.1f} "
            f"{result.case_temperature_c:>8.1f} "
            f"{result.chiller_power_w():>11.1f}"
        )
    print(f"\n{len(points)} evaluations in {elapsed:.2f} s")
    print(f"second pass over the same points: {second_pass:.2f} s")
    stats = simulation.thermal_simulator.solver_cache.stats
    print(
        f"factorization cache: {stats.hits} hits / {stats.misses} misses "
        f"(hit rate {stats.hit_rate:.0%})"
    )


if __name__ == "__main__":
    main()
