"""Workload- and platform-aware thermosyphon design optimisation (Section VI).

The optimiser reproduces the paper's design flow: the thermosyphon is sized
for the worst-case workload (all cores active running the most power-hungry
benchmark at the nominal frequency) under the ``T_CASE_MAX`` constraint.

* **Orientation** — both channel directions are evaluated on the worst-case
  power map; the orientation with the smaller die hot spot wins.
* **Refrigerant and filling ratio** — candidates are evaluated at the
  worst case; designs that reach dryout or violate ``T_CASE_MAX`` are
  rejected, and the smallest hot spot wins.
* **Water temperature and flow rate** — among (temperature, flow) pairs that
  keep ``T_CASE`` below the limit, the highest temperature and then the
  lowest flow is selected, because both reduce chiller power.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.pipeline import CooledServerSimulation, EvaluationResult, T_CASE_MAX_C
from repro.floorplan.floorplan import Floorplan
from repro.power.power_model import CoreActivity, ServerPowerModel
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import ThermosyphonDesign
from repro.thermosyphon.orientation import Orientation
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.parsec import PARSEC_BENCHMARKS


@dataclass(frozen=True)
class DesignCandidateResult:
    """Worst-case evaluation of one candidate design."""

    design: ThermosyphonDesign
    die_hot_spot_c: float
    die_gradient_c_per_mm: float
    case_temperature_c: float
    dryout: bool
    feasible: bool

    def objective(self) -> tuple[float, float]:
        """Lower is better: hot spot first, then gradient."""
        return (self.die_hot_spot_c, self.die_gradient_c_per_mm)


class ThermosyphonDesignOptimizer:
    """Design-space exploration driven by the worst-case workload."""

    def __init__(
        self,
        floorplan: Floorplan,
        *,
        power_model: ServerPowerModel | None = None,
        thermal_simulator: ThermalSimulator | None = None,
        t_case_max_c: float = T_CASE_MAX_C,
        worst_case_benchmark: BenchmarkCharacteristics | None = None,
        cell_size_mm: float = 1.0,
    ) -> None:
        self.floorplan = floorplan
        self.power_model = (
            power_model if power_model is not None else ServerPowerModel(floorplan)
        )
        self.thermal_simulator = (
            thermal_simulator
            if thermal_simulator is not None
            else ThermalSimulator(floorplan, cell_size_mm=cell_size_mm)
        )
        self.t_case_max_c = t_case_max_c
        if worst_case_benchmark is None:
            worst_case_benchmark = max(
                PARSEC_BENCHMARKS.values(), key=lambda b: b.core_dynamic_power_fmax_w
            )
        self.worst_case_benchmark = worst_case_benchmark

    # ------------------------------------------------------------------ #
    # Worst-case evaluation
    # ------------------------------------------------------------------ #
    def _worst_case_activities(self) -> list[CoreActivity]:
        params = self.worst_case_benchmark.core_power_parameters()
        return [
            CoreActivity.running(core.core_index, params, 2)
            for core in self.floorplan.cores
        ]

    def _candidate_result(
        self, design: ThermosyphonDesign, result: EvaluationResult
    ) -> DesignCandidateResult:
        feasible = result.case_temperature_c <= self.t_case_max_c and not result.dryout
        return DesignCandidateResult(
            design=design,
            die_hot_spot_c=result.die_metrics.theta_max_c,
            die_gradient_c_per_mm=result.die_metrics.grad_max_c_per_mm,
            case_temperature_c=result.case_temperature_c,
            dryout=result.dryout,
            feasible=feasible,
        )

    def evaluate_design(self, design: ThermosyphonDesign) -> DesignCandidateResult:
        """Evaluate one design against the worst-case workload."""
        return self.evaluate_designs([design])[0]

    def evaluate_designs(
        self, designs: Sequence[ThermosyphonDesign]
    ) -> list[DesignCandidateResult]:
        """Evaluate many candidate designs against the worst-case workload.

        Every candidate runs on the optimiser's floorplan, power model and
        thermal simulator, so all of them share one factorization cache;
        only the cheap loop model is rebuilt per design.
        """
        activities = self._worst_case_activities()
        benchmark = self.worst_case_benchmark
        results = []
        for design in designs:
            simulation = CooledServerSimulation(
                self.floorplan,
                design=design,
                power_model=self.power_model,
                thermal_simulator=self.thermal_simulator,
            )
            result = simulation.simulate_activities(
                activities,
                3.2,
                memory_intensity=benchmark.memory_intensity,
                benchmark_name=benchmark.name,
            )
            results.append(self._candidate_result(design, result))
        return results

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def sweep_orientations(
        self, base_design: ThermosyphonDesign, orientations: Sequence[Orientation] | None = None
    ) -> list[DesignCandidateResult]:
        """Evaluate the base design in every requested orientation."""
        if orientations is None:
            orientations = list(Orientation)
        return self.evaluate_designs(
            [base_design.with_orientation(orientation) for orientation in orientations]
        )

    def sweep_refrigerants(
        self, base_design: ThermosyphonDesign, refrigerant_names: Sequence[str]
    ) -> list[DesignCandidateResult]:
        """Evaluate the base design charged with each candidate refrigerant."""
        return self.evaluate_designs(
            [base_design.with_refrigerant(name) for name in refrigerant_names]
        )

    def sweep_filling_ratios(
        self, base_design: ThermosyphonDesign, filling_ratios: Sequence[float]
    ) -> list[DesignCandidateResult]:
        """Evaluate the base design at each candidate filling ratio."""
        return self.evaluate_designs(
            [base_design.with_filling_ratio(ratio) for ratio in filling_ratios]
        )

    def sweep_water(
        self,
        base_design: ThermosyphonDesign,
        inlet_temperatures_c: Sequence[float],
        flow_rates_kg_h: Sequence[float],
    ) -> list[DesignCandidateResult]:
        """Evaluate every (water temperature, flow rate) pair."""
        return self.evaluate_designs(
            [
                base_design.with_water(temperature, flow)
                for temperature in inlet_temperatures_c
                for flow in flow_rates_kg_h
            ]
        )

    # ------------------------------------------------------------------ #
    # Selection rules
    # ------------------------------------------------------------------ #
    @staticmethod
    def best_feasible(candidates: Sequence[DesignCandidateResult]) -> DesignCandidateResult:
        """Feasible candidate with the smallest hot spot (then gradient)."""
        feasible = [candidate for candidate in candidates if candidate.feasible]
        pool = feasible if feasible else list(candidates)
        return min(pool, key=lambda candidate: candidate.objective())

    @staticmethod
    def cheapest_water(candidates: Sequence[DesignCandidateResult]) -> DesignCandidateResult:
        """Feasible water point with the warmest inlet, then the lowest flow.

        Warm water and low flow both reduce the chiller burden, so among the
        feasible operating points the paper picks the one that is cheapest
        to provide.
        """
        feasible = [candidate for candidate in candidates if candidate.feasible]
        pool = feasible if feasible else list(candidates)
        return max(
            pool,
            key=lambda candidate: (
                candidate.design.water_inlet_temperature_c,
                -candidate.design.water_flow_rate_kg_h,
            ),
        )

    def optimize(
        self,
        base_design: ThermosyphonDesign,
        *,
        refrigerant_names: Sequence[str] = ("R236fa", "R134a", "R245fa", "R1234ze"),
        filling_ratios: Sequence[float] = (0.35, 0.45, 0.55, 0.65, 0.75),
        water_temperatures_c: Sequence[float] = (20.0, 25.0, 30.0, 35.0),
        water_flows_kg_h: Sequence[float] = (5.0, 7.0, 10.0, 14.0),
    ) -> ThermosyphonDesign:
        """Full Section-VI design flow: orientation, refrigerant, fill, water."""
        orientation_winner = self.best_feasible(self.sweep_orientations(base_design))
        design = orientation_winner.design

        refrigerant_winner = self.best_feasible(
            self.sweep_refrigerants(design, refrigerant_names)
        )
        design = refrigerant_winner.design

        filling_winner = self.best_feasible(self.sweep_filling_ratios(design, filling_ratios))
        design = filling_winner.design

        water_winner = self.cheapest_water(
            self.sweep_water(design, water_temperatures_c, water_flows_kg_h)
        )
        return water_winner.design
