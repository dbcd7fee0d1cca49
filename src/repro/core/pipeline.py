"""End-to-end evaluation pipeline.

``CooledServerSimulation`` wires the four substrates together for one
server: floorplan -> power model -> thermosyphon loop -> thermal simulator,
and solves each evaluation to equilibrium (the quasi-static lane behind
every sweep, design study and ``mode="steady"`` controller trace).  It
holds no state between calls; time-stepped studies run on the floor
engine (:class:`repro.datacenter.floor.FloorEngine`), which shares this
simulation's substrates through a
:class:`~repro.core.rack_session.RackSession`.  ``EvaluationResult`` and
``T_CASE_MAX_C`` live in :mod:`repro.core.session` and are re-exported
here.  ``ThermalAwarePipeline`` adds the paper's decision layer on top:
QoS-aware configuration selection (Algorithm 1), C-state-aware thread
mapping, and the resulting thermal evaluation.
"""

from __future__ import annotations

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
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.loop import ThermosyphonLoop
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration
from repro.workloads.profiler import WorkloadProfiler
from repro.workloads.qos import QoSConstraint


class CooledServerSimulation:
    """One server CPU cooled by one thermosyphon, solved to equilibrium.

    Every ``simulate_*`` call is independent: it converges the loop
    operating point, marches the evaporator lanes and solves the steady
    thermal field through the simulator's shared factorization cache.
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
    ) -> EvaluationResult:
        """Evaluate an arbitrary per-core activity pattern."""
        if water_loop is None:
            water_loop = self.design.water_loop()
        breakdown = self.power_model.evaluate(
            activities, frequency_ghz, memory_intensity=memory_intensity
        )
        power_map = self.thermal_simulator.power_map(breakdown.component_power_w)
        operating_point = self.loop.operating_point(float(power_map.sum()), water_loop)
        boundary_result = self.loop.cooling_boundary(
            power_map, self.thermal_simulator.grid.cell_pitch_mm(), operating_point
        )
        thermal_result = self.thermal_simulator.steady_state_from_map(
            power_map, boundary_result.boundary
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

    def simulate_mapping(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        *,
        mapper: ThreadMapper | None = None,
        water_loop: WaterLoop | None = None,
        activity_factor: float = 1.0,
    ) -> EvaluationResult:
        """Evaluate a resolved workload mapping."""
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
