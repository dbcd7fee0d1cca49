"""Batched evaluation engine for sweeps over the cooled-server simulation.

Every figure reproduction, design-space exploration and controller study in
this repository boils down to evaluating many (benchmark, configuration,
mapping, water condition) points through one
:class:`~repro.core.pipeline.CooledServerSimulation`.  Doing that naively
rebuilds mappers and — before the solver cache — refactorized the thermal
operator for every point.  This module provides the shared engine:

* :class:`SweepPoint` — one evaluation request.  Give it an explicit
  ``mapping``, or a ``configuration`` (mapped under the evaluator's
  policy), or only a QoS ``constraint`` (configuration selected with the
  paper's Algorithm 1).
* :class:`BatchEvaluator` — evaluates many points through *one* simulation,
  so the thermal simulator's :class:`FactorizationCache` is shared across
  the whole sweep.  ``evaluate_many(..., max_workers=N)`` optionally fans
  the points out over a :class:`concurrent.futures.ThreadPoolExecutor`;
  every thread evaluates through the same simulation and cache.

Usage::

    simulation = CooledServerSimulation()
    evaluator = BatchEvaluator(simulation)
    points = [
        SweepPoint(benchmark="x264", constraint=QoSConstraint(2.0),
                   water_loop=simulation.design.water_loop().with_flow_rate(f))
        for f in (5.0, 7.0, 10.0, 14.0)
    ]
    results = evaluator.evaluate_many(points)                 # serial, cached
    results = evaluator.evaluate_many(points, max_workers=4)  # thread pool

See ``examples/batch_sweep.py`` for a complete sweep.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.config_selection import QoSAwareConfigSelector
from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.mapping_policies import MappingPolicy
from repro.core.pipeline import (
    CooledServerSimulation,
    EvaluationResult,
    ThermalAwarePipeline,
)
from repro.exceptions import ConfigurationError
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint


@dataclass(frozen=True)
class SweepPoint:
    """One (benchmark, configuration, mapping, water condition) request.

    Exactly one of three resolution levels applies, checked in order:

    1. ``mapping`` given — evaluated as-is;
    2. ``configuration`` given — mapped under the evaluator's policy;
    3. ``constraint`` given — configuration selected per Algorithm 1, then
       mapped.
    """

    benchmark: BenchmarkCharacteristics | str
    configuration: Configuration | None = None
    mapping: WorkloadMapping | None = None
    constraint: QoSConstraint | None = None
    water_loop: WaterLoop | None = None
    activity_factor: float = 1.0

    def resolve_benchmark(self) -> BenchmarkCharacteristics:
        """The benchmark object (names are looked up in the PARSEC table)."""
        if isinstance(self.benchmark, str):
            return get_benchmark(self.benchmark)
        return self.benchmark


class BatchEvaluator:
    """Evaluates many sweep points through one cooled-server simulation.

    All points share the simulation's thermal network and its factorization
    cache, so a sweep that holds the water condition fixed while varying
    benchmarks, configurations or mappings pays for at most one
    factorization per distinct cooling boundary.
    """

    def __init__(
        self,
        simulation: CooledServerSimulation,
        *,
        policy: MappingPolicy | None = None,
        mapper: ThreadMapper | None = None,
        pipeline: ThermalAwarePipeline | None = None,
    ) -> None:
        self.simulation = simulation
        # The pipeline owns the selector/mapper/policy wiring; the batch
        # engine only adds point resolution and fan-out on top of it.
        self.pipeline = (
            pipeline
            if pipeline is not None
            else ThermalAwarePipeline(simulation, policy=policy)
        )
        self.policy = self.pipeline.policy
        self.mapper = mapper if mapper is not None else self.pipeline.mapper

    # ------------------------------------------------------------------ #
    # Point resolution
    # ------------------------------------------------------------------ #
    @property
    def selector(self) -> QoSAwareConfigSelector:
        """The pipeline's Algorithm 1 selector (used for constraint-only points)."""
        return self.pipeline.selector

    def resolve_mapping(self, point: SweepPoint) -> WorkloadMapping:
        """Resolve a point down to the workload mapping to evaluate."""
        if point.mapping is not None:
            return point.mapping
        benchmark = point.resolve_benchmark()
        configuration = point.configuration
        if configuration is None:
            if point.constraint is None:
                raise ConfigurationError(
                    "SweepPoint needs a mapping, a configuration or a QoS constraint"
                )
            configuration = self.selector.select(benchmark, point.constraint).configuration
        return self.mapper.map(benchmark, configuration, self.policy)

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, point: SweepPoint) -> EvaluationResult:
        """Evaluate one sweep point."""
        benchmark = point.resolve_benchmark()
        mapping = self.resolve_mapping(point)
        return self.simulation.simulate_mapping(
            benchmark,
            mapping,
            mapper=self.mapper,
            water_loop=point.water_loop,
            activity_factor=point.activity_factor,
        )

    def evaluate_many(
        self,
        points: Sequence[SweepPoint],
        *,
        max_workers: int | None = None,
    ) -> list[EvaluationResult]:
        """Evaluate every point, in order.

        Serial by default (one simulation, one warm cache).  With
        ``max_workers`` > 1 the points fan out over a
        :class:`~concurrent.futures.ThreadPoolExecutor` sharing *this*
        evaluator's simulation and factorization cache (the cache's
        get-or-build is lock-guarded), so results are identical to the
        serial path.  The banded Cholesky factor and solve calls hold the
        GIL, as do the pure-Python phases (mapping, power modelling), so
        threads take turns rather than overlap: on a 2-vCPU host the
        Table II sweep (1.0 mm, 117 points) took a median 2.03 s serial and
        2.24 s on two threads.
        """
        points = list(points)
        if max_workers is None or max_workers <= 1 or len(points) <= 1:
            return [self.evaluate(point) for point in points]
        with ThreadPoolExecutor(max_workers=max_workers) as executor:
            return list(executor.map(self.evaluate, points))
