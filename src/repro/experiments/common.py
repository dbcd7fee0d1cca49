"""Shared experiment infrastructure: the platform and the compared approaches."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.baselines.coskun_balancing import CoskunBalancingMapping
from repro.baselines.pack_and_cap import PackAndCapSelector
from repro.baselines.sabry_inlet_first import SabryInletFirstMapping
from repro.core.batch import BatchEvaluator, SweepPoint
from repro.core.config_selection import QoSAwareConfigSelector
from repro.core.mapping_policies import MappingPolicy, ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation, EvaluationResult
from repro.exceptions import ConfigurationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import ServerPowerModel
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import (
    PAPER_OPTIMIZED_DESIGN,
    SEURET_REFERENCE_DESIGN,
    ThermosyphonDesign,
)
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.profiler import WorkloadProfiler
from repro.workloads.qos import QoSConstraint


@dataclass
class Platform:
    """The shared substrate every experiment runs on."""

    floorplan: Floorplan
    power_model: ServerPowerModel
    thermal_simulator: ThermalSimulator
    profiler: WorkloadProfiler
    cell_size_mm: float
    _simulations: dict[ThermosyphonDesign, CooledServerSimulation] = field(
        default_factory=dict
    )
    _evaluators: dict[tuple[str, ThermosyphonDesign], BatchEvaluator] = field(
        default_factory=dict
    )

    def simulation(self, design: ThermosyphonDesign) -> CooledServerSimulation:
        """A (cached) cooled-server simulation for the given design.

        Keyed by the whole (frozen) design, not its name: a variant that
        keeps the name gets a simulation of its own.
        """
        if design not in self._simulations:
            self._simulations[design] = CooledServerSimulation(
                self.floorplan,
                design=design,
                power_model=self.power_model,
                thermal_simulator=self.thermal_simulator,
            )
        return self._simulations[design]

    def batch_evaluator(self, approach: "Approach") -> BatchEvaluator:
        """A (cached) batch evaluator for the given approach's stack."""
        key = (approach.name, approach.design)
        if key not in self._evaluators:
            self._evaluators[key] = BatchEvaluator(
                self.simulation(approach.design), policy=approach.policy
            )
        return self._evaluators[key]


def build_platform(*, cell_size_mm: float = 1.0) -> Platform:
    """Build the Xeon E5 v4 platform every experiment uses."""
    floorplan = build_xeon_e5_v4_floorplan()
    power_model = ServerPowerModel(floorplan)
    thermal_simulator = ThermalSimulator(floorplan, cell_size_mm=cell_size_mm)
    profiler = WorkloadProfiler(power_model)
    return Platform(
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=thermal_simulator,
        profiler=profiler,
        cell_size_mm=cell_size_mm,
    )


@dataclass(frozen=True)
class Approach:
    """One complete design + configuration-selection + mapping stack."""

    name: str
    design: ThermosyphonDesign
    policy: MappingPolicy
    #: "algorithm1" uses the paper's QoS-aware selector; "pack_and_cap" the
    #: baseline selector of [27].
    selector: str = "algorithm1"

    def __post_init__(self) -> None:
        if self.selector not in ("algorithm1", "pack_and_cap"):
            raise ConfigurationError(
                f"selector must be 'algorithm1' or 'pack_and_cap', got {self.selector!r}"
            )


def paper_approaches() -> tuple[Approach, ...]:
    """The three stacks Table II compares.

    * ``proposed`` — this paper: optimised design, Algorithm 1 selection,
      thermosyphon-aware C-state-aware mapping.
    * ``[8]+[27]+[9]`` — Seuret design, Pack & Cap selection, Coskun
      thermal balancing.
    * ``[8]+[27]+[7]`` — Seuret design, Pack & Cap selection, Sabry
      inlet-first mapping.
    """
    return (
        Approach(
            name="proposed",
            design=PAPER_OPTIMIZED_DESIGN,
            policy=ProposedThermalAwareMapping(),
            selector="algorithm1",
        ),
        Approach(
            name="[8]+[27]+[9]",
            design=SEURET_REFERENCE_DESIGN,
            policy=CoskunBalancingMapping(),
            selector="pack_and_cap",
        ),
        Approach(
            name="[8]+[27]+[7]",
            design=SEURET_REFERENCE_DESIGN,
            policy=SabryInletFirstMapping(),
            selector="pack_and_cap",
        ),
    )


def select_configuration(
    platform: Platform,
    approach: Approach,
    benchmark: BenchmarkCharacteristics,
    constraint: QoSConstraint,
) -> Configuration:
    """Run the approach's configuration-selection stage."""
    if approach.selector == "algorithm1":
        selector = QoSAwareConfigSelector(platform.profiler)
        return selector.select(benchmark, constraint).configuration
    pack_and_cap = PackAndCapSelector(platform.profiler)
    return pack_and_cap.select(benchmark, constraint).configuration


def evaluate_approach_batch(
    platform: Platform,
    approach: Approach,
    benchmarks: Sequence[BenchmarkCharacteristics | str],
    constraint: QoSConstraint,
    *,
    water_inlet_temperature_c: float | None = None,
) -> list[EvaluationResult]:
    """Run one approach end to end for many applications at one QoS level.

    All benchmarks are evaluated through the platform's cached
    :class:`BatchEvaluator` for the approach, so they share one simulation
    and one thermal factorization cache.
    """
    evaluator = platform.batch_evaluator(approach)
    water_loop = approach.design.water_loop()
    if water_inlet_temperature_c is not None:
        water_loop = water_loop.with_inlet_temperature(water_inlet_temperature_c)
    points = []
    for benchmark in benchmarks:
        if isinstance(benchmark, str):
            benchmark = get_benchmark(benchmark)
        configuration = select_configuration(platform, approach, benchmark, constraint)
        points.append(
            SweepPoint(
                benchmark=benchmark,
                configuration=configuration,
                water_loop=water_loop,
            )
        )
    return evaluator.evaluate_many(points)


def evaluate_approach(
    platform: Platform,
    approach: Approach,
    benchmark: BenchmarkCharacteristics,
    constraint: QoSConstraint,
    *,
    water_inlet_temperature_c: float | None = None,
) -> EvaluationResult:
    """Run one approach end to end for one application and QoS level."""
    return evaluate_approach_batch(
        platform,
        approach,
        [benchmark],
        constraint,
        water_inlet_temperature_c=water_inlet_temperature_c,
    )[0]
