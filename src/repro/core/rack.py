"""Rack-level model: many thermosyphon-cooled servers, one chiller.

Section V notes that one chiller serves a whole rack, so every thermosyphon
receives water at the same inlet temperature; only the per-server flow rate
can differ.  The rack model assigns one application (with its QoS
constraint) to each server, evaluates every server through the end-to-end
pipeline, finds the warmest water temperature that keeps every server within
its case-temperature limit, and reports the total chiller power (Eq. 1).

Evaluation routes through the :class:`~repro.core.rack_session.RackSession`
engine: rack hardware is homogeneous, so every server shares one thermal
network and servers sharing a cooling boundary are solved through a single
cached factorization with one multi-column back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapping import WorkloadMapping
from repro.core.mapping_policies import MappingPolicy
from repro.core.pipeline import (
    CooledServerSimulation,
    EvaluationResult,
    T_CASE_MAX_C,
    ThermalAwarePipeline,
)
from repro.core.rack_session import RackSession, ServerLoad
from repro.exceptions import ConfigurationError
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.design import ThermosyphonDesign, PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.qos import QoSConstraint


@dataclass(frozen=True)
class ServerSlot:
    """One server of the rack and the application assigned to it."""

    benchmark: BenchmarkCharacteristics
    constraint: QoSConstraint


@dataclass
class RackResult:
    """Evaluation of the whole rack at one water temperature."""

    water_inlet_temperature_c: float
    server_results: list[EvaluationResult]
    chiller_power_w: float

    @property
    def worst_case_temperature_c(self) -> float:
        """Highest case temperature across the rack."""
        return max(result.case_temperature_c for result in self.server_results)

    @property
    def worst_die_hot_spot_c(self) -> float:
        """Highest die hot spot across the rack."""
        return max(result.die_metrics.theta_max_c for result in self.server_results)

    @property
    def total_it_power_w(self) -> float:
        """Sum of the package power of every server."""
        return sum(result.package_power_w for result in self.server_results)

    @property
    def all_within_limit(self) -> bool:
        """True if every server respects ``T_CASE_MAX``."""
        return self.worst_case_temperature_c <= T_CASE_MAX_C


class RackModel:
    """A rack of identical thermosyphon-cooled servers sharing a chiller."""

    def __init__(
        self,
        slots: list[ServerSlot],
        *,
        design: ThermosyphonDesign = PAPER_OPTIMIZED_DESIGN,
        policy: MappingPolicy | None = None,
        chiller: ChillerModel | None = None,
        cell_size_mm: float = 1.5,
    ) -> None:
        if not slots:
            raise ConfigurationError("a rack needs at least one server slot")
        self.slots = list(slots)
        self.design = design
        self.chiller = chiller if chiller is not None else ChillerModel()
        # All servers share the same floorplan and models; one simulation
        # object is reused to avoid rebuilding the thermal network per slot.
        self._simulation = CooledServerSimulation(
            design=design, cell_size_mm=cell_size_mm
        )
        self._pipeline = ThermalAwarePipeline(self._simulation, policy=policy)
        # Every slot of every bisection step is solved through the rack
        # session, so slots sharing a cooling boundary cost one
        # factorization and one multi-column back-substitution.
        self._session = RackSession(
            len(self.slots),
            floorplan=self._simulation.floorplan,
            design=design,
            power_model=self._simulation.power_model,
            thermal_simulator=self._simulation.thermal_simulator,
        )
        self._resolved_mappings: list[WorkloadMapping] | None = None

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def _slot_mappings(self) -> list[WorkloadMapping]:
        """Each slot's mapping under the pipeline's selector and policy.

        Selection and mapping depend only on the slot (not on the water
        condition), so they are resolved once and reused across every
        bisection step.
        """
        if self._resolved_mappings is None:
            mappings = []
            for slot in self.slots:
                selection = self._pipeline.select_configuration(
                    slot.benchmark, slot.constraint
                )
                mappings.append(
                    self._pipeline.map_threads(slot.benchmark, selection.configuration)
                )
            self._resolved_mappings = mappings
        return self._resolved_mappings

    def evaluate(self, water_inlet_temperature_c: float) -> RackResult:
        """Evaluate every server with the shared water inlet temperature."""
        water_loop = WaterLoop(
            inlet_temperature_c=water_inlet_temperature_c,
            flow_rate_kg_h=self.design.water_flow_rate_kg_h,
        )
        loads = [
            ServerLoad(
                benchmark=slot.benchmark, mapping=mapping, water_loop=water_loop
            )
            for slot, mapping in zip(self.slots, self._slot_mappings())
        ]
        results = self._session.solve_steady(loads)
        chiller_power = sum(
            self.chiller.cooling_power_w(result.water_loop, result.package_power_w)
            for result in results
        )
        return RackResult(
            water_inlet_temperature_c=water_inlet_temperature_c,
            server_results=results,
            chiller_power_w=chiller_power,
        )

    @property
    def session(self) -> RackSession:
        """The rack-session engine behind :meth:`evaluate`."""
        return self._session

    def cache_stats(self):
        """Factorization-cache counters of the shared thermal simulator."""
        return self._session.cache_stats()

    def warmest_feasible_water_temperature(
        self,
        *,
        low_c: float = 10.0,
        high_c: float = 45.0,
        tolerance_c: float = 0.5,
        target_case_temperature_c: float = T_CASE_MAX_C,
    ) -> RackResult:
        """Warmest shared water temperature keeping every server within limits.

        Uses bisection on the water inlet temperature; warmer water means a
        cheaper chiller operating point, so the warmest feasible temperature
        is the one a rack operator would choose.
        """
        if low_c >= high_c:
            raise ConfigurationError("low_c must be below high_c")
        low_result = self.evaluate(low_c)
        if low_result.worst_case_temperature_c > target_case_temperature_c:
            # Even the coldest water cannot satisfy the limit; report it.
            return low_result
        high_result = self.evaluate(high_c)
        if high_result.worst_case_temperature_c <= target_case_temperature_c:
            return high_result

        feasible = low_result
        low, high = low_c, high_c
        while high - low > tolerance_c:
            middle = 0.5 * (low + high)
            candidate = self.evaluate(middle)
            if candidate.worst_case_temperature_c <= target_case_temperature_c:
                feasible = candidate
                low = middle
            else:
                high = middle
        return feasible

    def water_temperature_for_hot_spot(
        self,
        target_die_hot_spot_c: float,
        *,
        low_c: float = 5.0,
        high_c: float = 45.0,
        tolerance_c: float = 0.25,
    ) -> RackResult:
        """Warmest water temperature whose worst die hot spot stays at the target.

        This is the comparison Section VIII-B makes: the state-of-the-art
        stack needs colder water than the proposed approach to reach the
        same hot-spot temperature, which directly increases chiller power.
        """
        low_result = self.evaluate(low_c)
        if low_result.worst_die_hot_spot_c > target_die_hot_spot_c:
            return low_result
        high_result = self.evaluate(high_c)
        if high_result.worst_die_hot_spot_c <= target_die_hot_spot_c:
            return high_result
        feasible = low_result
        low, high = low_c, high_c
        while high - low > tolerance_c:
            middle = 0.5 * (low + high)
            candidate = self.evaluate(middle)
            if candidate.worst_die_hot_spot_c <= target_die_hot_spot_c:
                feasible = candidate
                low = middle
            else:
                high = middle
        return feasible
