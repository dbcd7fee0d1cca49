"""Stateful simulation session: steady solves and warm-start transient stepping.

:class:`SimulationSession` is the time-stepped heart of the runtime studies.
It owns the four substrates for one server (floorplan -> power model ->
thermosyphon loop -> thermal simulator) **plus the state that persists
between control periods**:

* the current temperature field (flat, one entry per network cell), and
* the current cooling-boundary state (operating point + per-cell HTC/fluid
  maps from the evaporator lane march).

Two solution lanes are exposed:

``solve_steady(...)``
    The existing quasi-static path: every call solves equilibrium from
    scratch (through the shared :class:`FactorizationCache`, so repeated
    boundaries cost one back-substitution each).

``advance(power_map, water_loop, dt_s)``
    Warm-start transient stepping.  The temperature field carries over from
    the previous call and is advanced by backward-Euler steps; the cooling
    boundary is treated as *slowly varying* — it is recomputed only when the
    water loop changes, when the caller forces it (an actuator event), or
    when the total power drifts beyond :data:`BOUNDARY_REFRESH_TOL` of the
    value it was last built at.  Because power only enters the RHS of the
    thermal system, every step at a held boundary is a single cached
    back-substitution: a whole controller trace can run on one or two
    factorizations where the steady path refactorizes on every power jitter.

:class:`repro.core.pipeline.CooledServerSimulation` is a thin facade over
this class; the runtime controller's ``mode="transient"`` drives the
``advance`` lane directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.exceptions import ValidationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import CoreActivity, PowerBreakdown, ServerPowerModel
from repro.thermal.metrics import ThermalMetrics
from repro.thermal.simulator import ThermalResult, ThermalSimulator
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint, ThermosyphonLoop
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_positive
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration

#: Maximum allowed case (heat-spreader centre) temperature, Section VI-B.
T_CASE_MAX_C = 85.0

#: Relative total-power drift that makes the transient lane rebuild a held
#: cooling boundary.  The boundary (per-cell HTC and fluid temperature)
#: varies weakly with power, so small workload jitter does not warrant a new
#: operator factorization; actuator changes always refresh regardless.
BOUNDARY_REFRESH_TOL = 0.15


@dataclass
class EvaluationResult:
    """Everything the experiments report about one evaluated operating point."""

    benchmark_name: str
    configuration: Configuration
    mapping: WorkloadMapping | None
    package_power_w: float
    die_metrics: ThermalMetrics
    package_metrics: ThermalMetrics
    case_temperature_c: float
    operating_point: LoopOperatingPoint
    max_channel_quality: float
    dryout: bool
    water_delta_t_c: float
    water_loop: WaterLoop
    thermal_result: ThermalResult

    @property
    def within_case_limit(self) -> bool:
        """True if the case temperature respects ``T_CASE_MAX``."""
        return self.case_temperature_c <= T_CASE_MAX_C

    def chiller_power_w(self, chiller: ChillerModel | None = None, water_loop: WaterLoop | None = None) -> float:
        """Chiller electrical power for this operating point (Eq. 1).

        Uses the water loop the evaluation actually ran with; pass
        ``water_loop`` only to ask "what would the chiller draw at a
        different water condition for the same heat load".
        """
        chiller = chiller if chiller is not None else ChillerModel()
        loop = water_loop if water_loop is not None else self.water_loop
        return chiller.cooling_power_w(loop, self.package_power_w)


def build_evaluation_result(
    *,
    benchmark_name: str,
    configuration: Configuration,
    mapping: WorkloadMapping | None,
    breakdown: PowerBreakdown,
    thermal_result: ThermalResult,
    operating_point: LoopOperatingPoint,
    boundary_result: BoundaryResult,
    water_loop: WaterLoop,
) -> EvaluationResult:
    """Assemble the :class:`EvaluationResult` of one evaluated server.

    Shared by :class:`SimulationSession` (one server) and
    :class:`repro.core.rack_session.RackSession` (many servers through one
    operator), so both lanes report identical derived metrics.
    """
    return EvaluationResult(
        benchmark_name=benchmark_name,
        configuration=configuration,
        mapping=mapping,
        package_power_w=breakdown.package_power_w,
        die_metrics=thermal_result.die_metrics(),
        package_metrics=thermal_result.package_metrics(),
        case_temperature_c=thermal_result.case_temperature_c(),
        operating_point=operating_point,
        max_channel_quality=boundary_result.max_quality,
        dryout=boundary_result.dryout,
        water_delta_t_c=water_loop.delta_t_c(breakdown.package_power_w),
        water_loop=water_loop,
        thermal_result=thermal_result,
    )


def power_drift_exceeds(total_power_w: float, reference_w: float) -> bool:
    """True when the power drifted beyond :data:`BOUNDARY_REFRESH_TOL`.

    The single source of the drift test both session engines hold their
    cooling boundary against (relative to the power the boundary was built
    at, with a floor guarding the zero-power case).
    """
    return abs(total_power_w - reference_w) > BOUNDARY_REFRESH_TOL * max(
        abs(reference_w), 1e-9
    )


@dataclass(frozen=True)
class _BoundaryState:
    """The cooling boundary currently driving the transient lane."""

    operating_point: LoopOperatingPoint
    boundary_result: BoundaryResult
    water_loop: WaterLoop
    total_power_w: float


@dataclass(frozen=True)
class SessionAdvance:
    """Outcome of one low-level :meth:`SimulationSession.advance` call."""

    thermal_result: ThermalResult
    operating_point: LoopOperatingPoint
    boundary_result: BoundaryResult
    dt_s: float
    n_substeps: int
    #: Largest per-cell temperature change over the final substep; a small
    #: value means the field has settled at the current power.
    settle_residual_c: float
    #: Highest case temperature observed across the substeps of this call.
    period_peak_case_c: float
    #: True when this call rebuilt the cooling boundary (actuator event,
    #: first step, or power drift beyond the refresh tolerance).
    boundary_refreshed: bool


@dataclass(frozen=True)
class TransientStepResult:
    """One transient control period: full evaluation plus step diagnostics."""

    result: EvaluationResult
    dt_s: float
    n_substeps: int
    settle_residual_c: float
    period_peak_case_c: float
    boundary_refreshed: bool


class SimulationSession:
    """One server CPU cooled by one thermosyphon, with persistent state.

    Parameters
    ----------
    floorplan, design, power_model, thermal_simulator, cell_size_mm:
        As for :class:`repro.core.pipeline.CooledServerSimulation`.
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
        self._temperatures: np.ndarray | None = None
        self._boundary_state: _BoundaryState | None = None

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _evaluate_power(
        self,
        activities: list[CoreActivity],
        frequency_ghz: float,
        memory_intensity: float,
    ) -> tuple[PowerBreakdown, np.ndarray]:
        breakdown = self.power_model.evaluate(
            activities, frequency_ghz, memory_intensity=memory_intensity
        )
        power_map = self.thermal_simulator.power_map(breakdown.component_power_w)
        return breakdown, power_map

    @staticmethod
    def _default_configuration(
        activities: list[CoreActivity], frequency_ghz: float
    ) -> Configuration:
        n_active = sum(1 for activity in activities if activity.active)
        threads = max(
            (activity.threads_on_core for activity in activities if activity.active),
            default=1,
        )
        return Configuration(
            n_cores=max(n_active, 1),
            threads_per_core=threads,
            frequency_ghz=frequency_ghz,
        )

    def _build_result(
        self,
        *,
        benchmark_name: str,
        configuration: Configuration,
        mapping: WorkloadMapping | None,
        breakdown: PowerBreakdown,
        thermal_result: ThermalResult,
        operating_point: LoopOperatingPoint,
        boundary_result: BoundaryResult,
        water_loop: WaterLoop,
    ) -> EvaluationResult:
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

    def _mapper(self, mapper: ThreadMapper | None) -> ThreadMapper:
        if mapper is not None:
            return mapper
        return ThreadMapper(self.floorplan, orientation=self.design.orientation)

    # ------------------------------------------------------------------ #
    # Quasi-static lane
    # ------------------------------------------------------------------ #
    def solve_steady(
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
        """Equilibrium evaluation of an arbitrary per-core activity pattern."""
        if water_loop is None:
            water_loop = self.design.water_loop()
        breakdown, power_map = self._evaluate_power(
            activities, frequency_ghz, memory_intensity
        )
        operating_point = self.loop.operating_point(float(power_map.sum()), water_loop)
        boundary_result = self.loop.cooling_boundary(
            power_map, self.thermal_simulator.grid.cell_pitch_mm(), operating_point
        )
        thermal_result = self.thermal_simulator.steady_state_from_map(
            power_map, boundary_result.boundary
        )
        if configuration is None:
            configuration = self._default_configuration(activities, frequency_ghz)
        return self._build_result(
            benchmark_name=benchmark_name,
            configuration=configuration,
            mapping=mapping,
            breakdown=breakdown,
            thermal_result=thermal_result,
            operating_point=operating_point,
            boundary_result=boundary_result,
            water_loop=water_loop,
        )

    def solve_steady_mapping(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        *,
        mapper: ThreadMapper | None = None,
        water_loop: WaterLoop | None = None,
        activity_factor: float = 1.0,
    ) -> EvaluationResult:
        """Equilibrium evaluation of a resolved workload mapping."""
        mapper = self._mapper(mapper)
        activities = mapper.activities(benchmark, mapping, activity_factor=activity_factor)
        return self.solve_steady(
            activities,
            mapping.configuration.frequency_ghz,
            memory_intensity=benchmark.memory_intensity,
            water_loop=water_loop,
            benchmark_name=benchmark.name,
            configuration=mapping.configuration,
            mapping=mapping,
        )

    # ------------------------------------------------------------------ #
    # Transient lane
    # ------------------------------------------------------------------ #
    @property
    def temperatures(self) -> np.ndarray | None:
        """Current flat temperature field, or None before the first advance."""
        if self._temperatures is None:
            return None
        return self._temperatures.copy()

    @property
    def boundary_state_age_power_w(self) -> float | None:
        """Total power the current boundary was built at (None if unset)."""
        state = self._boundary_state
        return state.total_power_w if state is not None else None

    def reset(self) -> None:
        """Forget the temperature field and boundary state.

        The next :meth:`advance` re-initializes from a fresh steady solve,
        exactly like the first call of a new trace.
        """
        self._temperatures = None
        self._boundary_state = None

    def _ensure_boundary(
        self, power_map_w: np.ndarray, water_loop: WaterLoop, *, force: bool
    ) -> bool:
        """Rebuild the cooling boundary when needed; True if rebuilt."""
        total_power = float(power_map_w.sum())
        state = self._boundary_state
        if not force and state is not None and state.water_loop == water_loop:
            if not power_drift_exceeds(total_power, state.total_power_w):
                return False
        operating_point = self.loop.operating_point(total_power, water_loop)
        boundary_result = self.loop.cooling_boundary(
            power_map_w, self.thermal_simulator.grid.cell_pitch_mm(), operating_point
        )
        self._boundary_state = _BoundaryState(
            operating_point=operating_point,
            boundary_result=boundary_result,
            water_loop=water_loop,
            total_power_w=total_power,
        )
        return True

    def advance(
        self,
        power_map_w: np.ndarray,
        water_loop: WaterLoop | None = None,
        dt_s: float = 1.0,
        *,
        n_substeps: int = 1,
        force_boundary_refresh: bool = False,
    ) -> SessionAdvance:
        """Advance the temperature field by ``dt_s`` at the given power map.

        The first call (or the first after :meth:`reset`) initializes the
        field from a steady solve at the current conditions, so traces start
        at thermal equilibrium like the quasi-static path.  Subsequent calls
        warm-start from the stored field and take ``n_substeps`` backward-
        Euler steps of ``dt_s / n_substeps`` each; at a held boundary every
        substep is one cached back-substitution.
        """
        power_map_w = np.asarray(power_map_w, dtype=float)
        check_positive(dt_s, "dt_s")
        if n_substeps < 1:
            raise ValidationError(f"n_substeps must be >= 1, got {n_substeps}")
        if water_loop is None:
            water_loop = self.design.water_loop()
        refreshed = self._ensure_boundary(
            power_map_w, water_loop, force=force_boundary_refresh
        )
        state = self._boundary_state
        assert state is not None
        boundary = state.boundary_result.boundary
        simulator = self.thermal_simulator

        if self._temperatures is None:
            steady = simulator.steady_state_from_map(power_map_w, boundary)
            self._temperatures = steady.temperatures_c.ravel().copy()

        field = self._temperatures
        sub_dt = dt_s / n_substeps
        residual = 0.0
        peak_case = float("-inf")
        thermal_result: ThermalResult | None = None
        for _ in range(n_substeps):
            new_field = simulator.transient_step_from_map(field, power_map_w, boundary, sub_dt)
            residual = float(np.max(np.abs(new_field - field)))
            field = new_field
            thermal_result = simulator.result_from_vector(field)
            peak_case = max(peak_case, thermal_result.case_temperature_c())
        assert thermal_result is not None
        self._temperatures = field
        return SessionAdvance(
            thermal_result=thermal_result,
            operating_point=state.operating_point,
            boundary_result=state.boundary_result,
            dt_s=dt_s,
            n_substeps=n_substeps,
            settle_residual_c=residual,
            period_peak_case_c=peak_case,
            boundary_refreshed=refreshed,
        )

    def advance_activities(
        self,
        activities: list[CoreActivity],
        frequency_ghz: float,
        dt_s: float,
        *,
        memory_intensity: float = 0.5,
        water_loop: WaterLoop | None = None,
        n_substeps: int = 1,
        force_boundary_refresh: bool = False,
        benchmark_name: str = "custom",
        configuration: Configuration | None = None,
        mapping: WorkloadMapping | None = None,
    ) -> TransientStepResult:
        """One transient control period for a per-core activity pattern.

        The returned :class:`EvaluationResult` carries the fresh package
        power and the *transient* thermal field; the operating point and
        channel diagnostics come from the held boundary state (refreshed per
        the session's tolerance), which is what the field was advanced with.
        """
        if water_loop is None:
            water_loop = self.design.water_loop()
        breakdown, power_map = self._evaluate_power(
            activities, frequency_ghz, memory_intensity
        )
        advance = self.advance(
            power_map,
            water_loop,
            dt_s,
            n_substeps=n_substeps,
            force_boundary_refresh=force_boundary_refresh,
        )
        if configuration is None:
            configuration = self._default_configuration(activities, frequency_ghz)
        result = self._build_result(
            benchmark_name=benchmark_name,
            configuration=configuration,
            mapping=mapping,
            breakdown=breakdown,
            thermal_result=advance.thermal_result,
            operating_point=advance.operating_point,
            boundary_result=advance.boundary_result,
            water_loop=water_loop,
        )
        return TransientStepResult(
            result=result,
            dt_s=advance.dt_s,
            n_substeps=advance.n_substeps,
            settle_residual_c=advance.settle_residual_c,
            period_peak_case_c=advance.period_peak_case_c,
            boundary_refreshed=advance.boundary_refreshed,
        )

    def advance_mapping(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        dt_s: float,
        *,
        mapper: ThreadMapper | None = None,
        water_loop: WaterLoop | None = None,
        activity_factor: float = 1.0,
        n_substeps: int = 1,
        force_boundary_refresh: bool = False,
    ) -> TransientStepResult:
        """One transient control period for a resolved workload mapping."""
        mapper = self._mapper(mapper)
        activities = mapper.activities(benchmark, mapping, activity_factor=activity_factor)
        return self.advance_activities(
            activities,
            mapping.configuration.frequency_ghz,
            dt_s,
            memory_intensity=benchmark.memory_intensity,
            water_loop=water_loop,
            n_substeps=n_substeps,
            force_boundary_refresh=force_boundary_refresh,
            benchmark_name=benchmark.name,
            configuration=mapping.configuration,
            mapping=mapping,
        )
