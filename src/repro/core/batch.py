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
* :class:`BatchEvaluator` — evaluates many points, serially and in order,
  through *one* simulation, so the thermal simulator's
  :class:`FactorizationCache` and the simulation's memo of thermal states
  are shared across the whole sweep.

Each distinct thermal state is solved once, without factoring its own
operator (unless PCG reaches its step cap): the evaluator passes the
simulation's
:meth:`~repro.core.pipeline.CooledServerSimulation.reference_boundary` as
``reference=``, so every solve takes the solver cache's iterative lane,
preconditioned conjugate gradients from the one factor of that reference
(tier B against the exact solve; see :mod:`repro.thermal.solver_cache`).
The reference depends on the design and the thermal network only, so a
point's bits are a function of (design, network, point) — whatever the
sweep order, the memo or the cache held.  Revisited states (Pack & Cap
picks one configuration per benchmark at every QoS level) are served by
the memo without a lane march or a solve.

Usage::

    simulation = CooledServerSimulation()
    evaluator = BatchEvaluator(simulation)
    points = [
        SweepPoint(benchmark="x264", constraint=QoSConstraint(2.0),
                   water_loop=simulation.design.water_loop().with_flow_rate(f))
        for f in (5.0, 7.0, 10.0, 14.0)
    ]
    results = evaluator.evaluate_many(points)  # one simulation, one reference factor

See ``examples/batch_sweep.py`` for a complete sweep.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    All points share the simulation's thermal network, its factorization
    cache and its memo, so a whole sweep pays one factorization (the
    design's reference boundary) and one PCG solve per distinct thermal
    state.
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
        # engine only adds point resolution on top of it.
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
        """Evaluate one sweep point, by the iterative lane from the
        simulation's reference boundary."""
        benchmark = point.resolve_benchmark()
        mapping = self.resolve_mapping(point)
        return self.simulation.simulate_mapping(
            benchmark,
            mapping,
            mapper=self.mapper,
            water_loop=point.water_loop,
            activity_factor=point.activity_factor,
            reference=self.simulation.reference_boundary(),
        )

    def evaluate_many(self, points: Sequence[SweepPoint]) -> list[EvaluationResult]:
        """Evaluate every point, in order, through one simulation and cache."""
        return [self.evaluate(point) for point in points]
