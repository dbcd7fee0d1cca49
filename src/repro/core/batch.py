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
  the points out over a :class:`concurrent.futures.ProcessPoolExecutor`;
  each worker process builds its simulation once and reuses it for all the
  points it receives.
* :class:`DesignSweepEvaluator` — the design-space analogue: evaluates many
  candidate :class:`ThermosyphonDesign`\\ s against a fixed worst-case
  workload while sharing one thermal simulator (and its cache) across all
  candidates.

Usage::

    simulation = CooledServerSimulation()
    evaluator = BatchEvaluator(simulation)
    points = [
        SweepPoint(benchmark="x264", constraint=QoSConstraint(2.0),
                   water_loop=simulation.design.water_loop().with_flow_rate(f))
        for f in (5.0, 7.0, 10.0, 14.0)
    ]
    results = evaluator.evaluate_many(points)            # serial, cached
    results = evaluator.evaluate_many(points, max_workers=4)  # process pool

See ``examples/batch_sweep.py`` for a complete sweep.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace

from repro.core.config_selection import QoSAwareConfigSelector
from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.mapping_policies import MappingPolicy
from repro.core.pipeline import (
    CooledServerSimulation,
    EvaluationResult,
    ThermalAwarePipeline,
)
from repro.exceptions import ConfigurationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import CoreActivity, ServerPowerModel
from repro.thermal.boundary import BottomBoundary
from repro.thermal.layers import LayerStack
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import ThermosyphonDesign
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


@dataclass(frozen=True)
class _ThermalSpec:
    """Picklable ingredients of a :class:`ThermalSimulator`.

    Factorization caches hold locks and are not picklable, so parallel
    workers rebuild the simulator from its ingredients — including any
    custom layer stack and bottom boundary, so worker results match the
    serial path — and grow their own caches.
    """

    stack: LayerStack
    cell_size_mm: float
    bottom_boundary: BottomBoundary
    use_solver_cache: bool
    solver_cache_entries: int

    @classmethod
    def of(cls, simulator: ThermalSimulator) -> "_ThermalSpec":
        cache = simulator.solver_cache
        return cls(
            stack=simulator.stack,
            cell_size_mm=simulator.cell_size_mm,
            bottom_boundary=simulator.network.bottom_boundary,
            use_solver_cache=cache is not None,
            solver_cache_entries=cache.max_entries if cache is not None else 16,
        )

    def build(self, floorplan: Floorplan) -> ThermalSimulator:
        return ThermalSimulator(
            floorplan,
            stack=self.stack,
            cell_size_mm=self.cell_size_mm,
            bottom_boundary=self.bottom_boundary,
            use_solver_cache=self.use_solver_cache,
            solver_cache_entries=self.solver_cache_entries,
        )


class _WorkerPool:
    """Lazily-started, reusable process pool with a fixed initializer spec.

    The spec factory is called once, when the pool first starts (or restarts
    after a worker-count change), so it reflects the owner's configuration
    at that moment.
    """

    def __init__(self, initializer, spec_factory) -> None:
        self._initializer = initializer
        self._spec_factory = spec_factory
        self._executor: ProcessPoolExecutor | None = None
        self._workers = 0

    def get(self, max_workers: int) -> ProcessPoolExecutor:
        if self._executor is not None and self._workers != max_workers:
            self.close()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=max_workers,
                initializer=self._initializer,
                initargs=(self._spec_factory(),),
            )
            self._workers = max_workers
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            self._workers = 0


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker process needs to rebuild the evaluator."""

    floorplan: Floorplan
    design: ThermosyphonDesign
    power_model: ServerPowerModel
    thermal: _ThermalSpec
    policy: MappingPolicy
    mapper: ThreadMapper


#: Per-process evaluator, populated by the pool initializer.
_WORKER_EVALUATOR: "BatchEvaluator | None" = None


def _batch_worker_init(spec: _WorkerSpec) -> None:
    global _WORKER_EVALUATOR
    simulation = CooledServerSimulation(
        spec.floorplan,
        design=spec.design,
        power_model=spec.power_model,
        thermal_simulator=spec.thermal.build(spec.floorplan),
    )
    _WORKER_EVALUATOR = BatchEvaluator(
        simulation, policy=spec.policy, mapper=spec.mapper
    )


def _batch_worker_evaluate(point: SweepPoint) -> EvaluationResult:
    assert _WORKER_EVALUATOR is not None, "worker pool not initialised"
    return _WORKER_EVALUATOR.evaluate(point)


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
        self._pool = _WorkerPool(_batch_worker_init, self._worker_spec)

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
        backend: str = "process",
    ) -> list[EvaluationResult]:
        """Evaluate every point, in order.

        Serial by default (one simulation, one warm cache).  With
        ``max_workers`` > 1 the points are distributed over a worker pool
        selected by ``backend``:

        * ``"process"`` (default, unchanged behaviour) — each worker
          process rebuilds the simulation once from the evaluator's
          ingredients (including any custom layer stack, bottom boundary,
          mapper and cache settings) and evaluates its share of the
          points.  Constraint-only points are resolved to explicit
          mappings *before* being shipped, so worker results cannot
          diverge from the parent's selector/pipeline configuration.  The
          pool — and the workers' warm factorization caches — persists
          across calls; use :meth:`close` (or the context manager) to
          release it.
        * ``"thread"`` — the points fan out over a
          :class:`~concurrent.futures.ThreadPoolExecutor` sharing *this*
          evaluator's simulation and factorization cache (no per-worker
          rebuild, no pickling; the cache's get-or-build is lock-guarded).
          The banded Cholesky factor and solve calls hold the GIL, as do
          the pure-Python phases (mapping, power modelling), so threads
          take turns rather than overlap; the backend pays off by sharing
          one cache, which keeps it cheapest when points share
          boundaries.
        """
        if backend not in ("process", "thread"):
            raise ConfigurationError(
                f"backend must be 'process' or 'thread', got {backend!r}"
            )
        points = list(points)
        if max_workers is None or max_workers <= 1 or len(points) <= 1:
            return [self.evaluate(point) for point in points]
        if backend == "thread":
            with ThreadPoolExecutor(max_workers=max_workers) as executor:
                return list(executor.map(self.evaluate, points))
        resolved = [
            point
            if point.mapping is not None
            else replace(point, mapping=self.resolve_mapping(point))
            for point in points
        ]
        executor = self._pool.get(max_workers)
        return list(executor.map(_batch_worker_evaluate, resolved))

    # ------------------------------------------------------------------ #
    # Worker-pool lifecycle
    # ------------------------------------------------------------------ #
    def _worker_spec(self) -> _WorkerSpec:
        return _WorkerSpec(
            floorplan=self.simulation.floorplan,
            design=self.simulation.design,
            power_model=self.simulation.power_model,
            thermal=_ThermalSpec.of(self.simulation.thermal_simulator),
            policy=self.policy,
            mapper=self.mapper,
        )

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        self._pool.close()

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ---------------------------------------------------------------------- #
# Design sweeps
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _DesignJob:
    """One design evaluation request shipped to a worker."""

    design: ThermosyphonDesign
    activities: tuple[CoreActivity, ...]
    frequency_ghz: float
    memory_intensity: float
    benchmark_name: str


@dataclass(frozen=True)
class _DesignWorkerSpec:
    floorplan: Floorplan
    power_model: ServerPowerModel
    thermal: _ThermalSpec


_DESIGN_WORKER: "DesignSweepEvaluator | None" = None


def _design_worker_init(spec: _DesignWorkerSpec) -> None:
    global _DESIGN_WORKER
    _DESIGN_WORKER = DesignSweepEvaluator(
        spec.floorplan,
        power_model=spec.power_model,
        thermal_simulator=spec.thermal.build(spec.floorplan),
    )


def _design_worker_evaluate(job: _DesignJob) -> EvaluationResult:
    assert _DESIGN_WORKER is not None, "worker pool not initialised"
    return _DESIGN_WORKER.evaluate(
        job.design,
        list(job.activities),
        job.frequency_ghz,
        memory_intensity=job.memory_intensity,
        benchmark_name=job.benchmark_name,
    )


class DesignSweepEvaluator:
    """Evaluates candidate thermosyphon designs against a fixed workload.

    The thermal simulator (grid, network, factorization cache) is shared
    across all candidates; only the cheap loop model is rebuilt per design.
    Used by :class:`~repro.core.design_optimizer.ThermosyphonDesignOptimizer`
    to run its orientation/refrigerant/filling/water sweeps.
    """

    def __init__(
        self,
        floorplan: Floorplan | None = None,
        *,
        power_model: ServerPowerModel | None = None,
        thermal_simulator: ThermalSimulator | None = None,
        cell_size_mm: float = 1.0,
    ) -> None:
        self.floorplan = floorplan if floorplan is not None else build_xeon_e5_v4_floorplan()
        self.power_model = (
            power_model if power_model is not None else ServerPowerModel(self.floorplan)
        )
        self.thermal_simulator = (
            thermal_simulator
            if thermal_simulator is not None
            else ThermalSimulator(self.floorplan, cell_size_mm=cell_size_mm)
        )
        self._pool = _WorkerPool(_design_worker_init, self._worker_spec)

    def evaluate(
        self,
        design: ThermosyphonDesign,
        activities: list[CoreActivity],
        frequency_ghz: float,
        *,
        memory_intensity: float = 0.5,
        benchmark_name: str = "custom",
    ) -> EvaluationResult:
        """Evaluate one candidate design on the shared thermal simulator."""
        simulation = CooledServerSimulation(
            self.floorplan,
            design=design,
            power_model=self.power_model,
            thermal_simulator=self.thermal_simulator,
        )
        return simulation.simulate_activities(
            activities,
            frequency_ghz,
            memory_intensity=memory_intensity,
            benchmark_name=benchmark_name,
        )

    def evaluate_many(
        self,
        designs: Sequence[ThermosyphonDesign],
        activities: list[CoreActivity],
        frequency_ghz: float,
        *,
        memory_intensity: float = 0.5,
        benchmark_name: str = "custom",
        max_workers: int | None = None,
    ) -> list[EvaluationResult]:
        """Evaluate every candidate design, in order, optionally in parallel."""
        designs = list(designs)
        if max_workers is None or max_workers <= 1 or len(designs) <= 1:
            return [
                self.evaluate(
                    design,
                    activities,
                    frequency_ghz,
                    memory_intensity=memory_intensity,
                    benchmark_name=benchmark_name,
                )
                for design in designs
            ]
        jobs = [
            _DesignJob(
                design=design,
                activities=tuple(activities),
                frequency_ghz=frequency_ghz,
                memory_intensity=memory_intensity,
                benchmark_name=benchmark_name,
            )
            for design in designs
        ]
        executor = self._pool.get(max_workers)
        return list(executor.map(_design_worker_evaluate, jobs))

    # ------------------------------------------------------------------ #
    # Worker-pool lifecycle
    # ------------------------------------------------------------------ #
    def _worker_spec(self) -> _DesignWorkerSpec:
        return _DesignWorkerSpec(
            floorplan=self.floorplan,
            power_model=self.power_model,
            thermal=_ThermalSpec.of(self.thermal_simulator),
        )

    def close(self) -> None:
        """Shut down the worker pool, if one was started."""
        self._pool.close()

    def __enter__(self) -> "DesignSweepEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
