"""End-to-end evaluation pipeline.

``CooledServerSimulation`` wires the four substrates together for one
server: floorplan -> power model -> thermosyphon loop -> thermal simulator,
and solves each evaluation to equilibrium (the quasi-static lane behind
every sweep, design study and ``mode="steady"`` controller trace).
Time-stepped studies run on the floor engine
(:class:`repro.datacenter.floor.FloorEngine`), which shares this
simulation's substrates through a
:class:`~repro.core.rack_session.RackSession`.  ``EvaluationResult`` and
``T_CASE_MAX_C`` live in :mod:`repro.core.session` and are re-exported
here.  ``ThermalAwarePipeline`` adds the paper's decision layer on top:
QoS-aware configuration selection (Algorithm 1), C-state-aware thread
mapping, and the resulting thermal evaluation.

Each distinct thermal state is solved once.  A sweep revisits states:
Pack & Cap picks one configuration per benchmark at every QoS level, and
two mappings may load the die alike.  The simulation keeps the last
:data:`EVALUATION_MEMO_ENTRIES` thermal states (operating point, cooling
boundary, temperature field) keyed by what determines them: the power
map's bytes, the water loop and the solve lane.  A revisit skips the
operating point, the lane march and the solve, so it returns the same
bits a fresh computation would (tier A).  The power evaluation and the
derived metrics still run for every call, so each result carries its own
benchmark, configuration, mapping and power breakdown.  Memoized arrays
are read-only: writing into one raises instead of corrupting the results
that share it.

The sweep engine (:class:`repro.core.batch.BatchEvaluator`) passes
:meth:`CooledServerSimulation.reference_boundary` as ``reference=``, and
its solves take the solver cache's iterative lane (tier B; see
:mod:`repro.thermal.solver_cache`): one factorization per design serves
the whole sweep.  Every other caller solves exactly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from repro.core.config_selection import ConfigurationSelection, QoSAwareConfigSelector
from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.mapping_policies import MappingPolicy, ProposedThermalAwareMapping
from repro.core.session import (  # noqa: F401  (re-exported API)
    EvaluationResult,
    T_CASE_MAX_C,
    build_evaluation_result,
)
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import CoreActivity, ServerPowerModel
from repro.thermal.boundary import CoolingBoundary
from repro.thermal.simulator import ThermalResult, ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint, ThermosyphonLoop
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration
from repro.workloads.profiler import WorkloadProfiler
from repro.workloads.qos import QoSConstraint

#: Thermal states one simulation remembers, least recently used first out:
#: as many as the factorization cache's default LRU holds.
EVALUATION_MEMO_ENTRIES = 16

#: Total die power (W) of the reference load, spread as a uniform heat
#: flux over the die, whose boundary preconditions the sweep engine's
#: steady solves.  On the Table II sweep at 1.0 mm, references at 20, 40,
#: 60 and 80 W all converged in 9-10 PCG steps per solve.
REFERENCE_DIE_POWER_W = 60.0


class CooledServerSimulation:
    """One server CPU cooled by one thermosyphon, solved to equilibrium.

    Every ``simulate_*`` call converges the loop operating point, marches
    the evaporator lanes and solves the steady thermal field through the
    simulator's shared factorization cache, unless the same thermal state
    is still in the simulation's memo (see the module docstring).  Each
    result is a function of the request alone, whatever was evaluated
    before it.
    """

    def __init__(
        self,
        floorplan: Floorplan | None = None,
        *,
        design: ThermosyphonDesign = PAPER_OPTIMIZED_DESIGN,
        power_model: ServerPowerModel | None = None,
        thermal_simulator: ThermalSimulator | None = None,
        cell_size_mm: float = 1.0,
    ) -> None:
        self.floorplan = floorplan if floorplan is not None else build_xeon_e5_v4_floorplan()
        self.design = design
        self.power_model = (
            power_model if power_model is not None else ServerPowerModel(self.floorplan)
        )
        self.thermal_simulator = (
            thermal_simulator
            if thermal_simulator is not None
            else ThermalSimulator(self.floorplan, cell_size_mm=cell_size_mm)
        )
        self.loop = ThermosyphonLoop(design)
        self._reference: CoolingBoundary | None = None
        self._memo: OrderedDict[
            tuple, tuple[LoopOperatingPoint, BoundaryResult, ThermalResult]
        ] = OrderedDict()
        # Guards the memo's bookkeeping for callers that share one
        # simulation across threads; the work itself runs outside it.
        self._memo_lock = threading.Lock()

    def reference_boundary(self) -> CoolingBoundary:
        """The boundary the sweep engine's iterative solves start from.

        The cooling boundary of :data:`REFERENCE_DIE_POWER_W` spread as a
        uniform heat flux over the die, at the design's own water loop;
        computed on first use and kept.  It depends on the design and the
        thermal network only, never on what was evaluated before.
        """
        if self._reference is None:
            simulator = self.thermal_simulator
            die = simulator.die_mask
            power_map = np.where(die, REFERENCE_DIE_POWER_W / np.count_nonzero(die), 0.0)
            self._reference = self.loop.cooling_boundary(
                power_map,
                simulator.grid.cell_pitch_mm(),
                water_loop=self.design.water_loop(),
            ).boundary
        return self._reference

    def simulate_activities(
        self,
        activities: list[CoreActivity],
        frequency_ghz: float,
        *,
        memory_intensity: float = 0.5,
        water_loop: WaterLoop | None = None,
        benchmark_name: str = "custom",
        configuration: Configuration | None = None,
        mapping: WorkloadMapping | None = None,
        reference: CoolingBoundary | None = None,
    ) -> EvaluationResult:
        """Evaluate an arbitrary per-core activity pattern.

        A ``reference`` boundary solves the field by the solver cache's
        iterative lane, preconditioned by that boundary's factor.
        """
        if water_loop is None:
            water_loop = self.design.water_loop()
        breakdown = self.power_model.evaluate(
            activities, frequency_ghz, memory_intensity=memory_intensity
        )
        power_map = self.thermal_simulator.power_map(breakdown.component_power_w)
        operating_point, boundary_result, thermal_result = self._thermal_state(
            power_map, water_loop, reference
        )
        if configuration is None:
            n_active = sum(1 for activity in activities if activity.active)
            threads = max(
                (activity.threads_on_core for activity in activities if activity.active),
                default=1,
            )
            configuration = Configuration(
                n_cores=max(n_active, 1),
                threads_per_core=threads,
                frequency_ghz=frequency_ghz,
            )
        return build_evaluation_result(
            benchmark_name=benchmark_name,
            configuration=configuration,
            mapping=mapping,
            breakdown=breakdown,
            thermal_result=thermal_result,
            operating_point=operating_point,
            boundary_result=boundary_result,
            water_loop=water_loop,
        )

    def _thermal_state(
        self,
        power_map: np.ndarray,
        water_loop: WaterLoop,
        reference: CoolingBoundary | None,
    ) -> tuple[LoopOperatingPoint, BoundaryResult, ThermalResult]:
        """The operating point, boundary and field of one power map, memoized."""
        key = (
            power_map.tobytes(),
            water_loop,
            None if reference is None else reference.cache_token(),
        )
        with self._memo_lock:
            state = self._memo.get(key)
            if state is not None:
                self._memo.move_to_end(key)
                return state
        operating_point = self.loop.operating_point(float(power_map.sum()), water_loop)
        boundary_result = self.loop.cooling_boundary(
            power_map, self.thermal_simulator.grid.cell_pitch_mm(), operating_point
        )
        thermal_result = self.thermal_simulator.steady_state_from_map(
            power_map, boundary_result.boundary, reference=reference
        )
        boundary_result.outlet_quality_per_lane.setflags(write=False)
        thermal_result.temperatures_c.setflags(write=False)
        with self._memo_lock:
            # Threads racing on one key computed the same bits; every
            # caller gets the first state stored.
            state = self._memo.setdefault(
                key, (operating_point, boundary_result, thermal_result)
            )
            self._memo.move_to_end(key)
            while len(self._memo) > EVALUATION_MEMO_ENTRIES:
                self._memo.popitem(last=False)
        return state

    def simulate_mapping(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        *,
        mapper: ThreadMapper | None = None,
        water_loop: WaterLoop | None = None,
        activity_factor: float = 1.0,
        reference: CoolingBoundary | None = None,
    ) -> EvaluationResult:
        """Evaluate a resolved workload mapping (``reference`` as for
        :meth:`simulate_activities`)."""
        if mapper is None:
            mapper = ThreadMapper(self.floorplan, orientation=self.design.orientation)
        activities = mapper.activities(benchmark, mapping, activity_factor=activity_factor)
        return self.simulate_activities(
            activities,
            mapping.configuration.frequency_ghz,
            memory_intensity=benchmark.memory_intensity,
            water_loop=water_loop,
            benchmark_name=benchmark.name,
            configuration=mapping.configuration,
            mapping=mapping,
            reference=reference,
        )


class ThermalAwarePipeline:
    """The paper's full flow: configuration selection, mapping, evaluation."""

    def __init__(
        self,
        simulation: CooledServerSimulation,
        *,
        profiler: WorkloadProfiler | None = None,
        policy: MappingPolicy | None = None,
        configurations: tuple[Configuration, ...] | None = None,
    ) -> None:
        self.simulation = simulation
        self.profiler = (
            profiler if profiler is not None else WorkloadProfiler(simulation.power_model)
        )
        self.policy = policy if policy is not None else ProposedThermalAwareMapping()
        self.selector = QoSAwareConfigSelector(self.profiler, configurations)
        self.mapper = ThreadMapper(
            simulation.floorplan, orientation=simulation.design.orientation
        )

    # ------------------------------------------------------------------ #
    # Individual steps
    # ------------------------------------------------------------------ #
    def select_configuration(
        self, benchmark: BenchmarkCharacteristics, constraint: QoSConstraint
    ) -> ConfigurationSelection:
        """Algorithm 1 configuration-selection step."""
        return self.selector.select(benchmark, constraint)

    def map_threads(
        self,
        benchmark: BenchmarkCharacteristics,
        configuration: Configuration,
    ) -> WorkloadMapping:
        """Thread-mapping step under the pipeline's policy."""
        return self.mapper.map(benchmark, configuration, self.policy)

    # ------------------------------------------------------------------ #
    # End-to-end
    # ------------------------------------------------------------------ #
    def run(
        self,
        benchmark: BenchmarkCharacteristics,
        constraint: QoSConstraint,
        *,
        water_loop: WaterLoop | None = None,
    ) -> EvaluationResult:
        """Select, map and thermally evaluate one application."""
        selection = self.select_configuration(benchmark, constraint)
        mapping = self.map_threads(benchmark, selection.configuration)
        return self.simulation.simulate_mapping(
            benchmark, mapping, mapper=self.mapper, water_loop=water_loop
        )

    def run_with_configuration(
        self,
        benchmark: BenchmarkCharacteristics,
        configuration: Configuration,
        *,
        water_loop: WaterLoop | None = None,
    ) -> EvaluationResult:
        """Map and evaluate a caller-chosen configuration (skip selection)."""
        mapping = self.map_threads(benchmark, configuration)
        return self.simulation.simulate_mapping(
            benchmark, mapping, mapper=self.mapper, water_loop=water_loop
        )
