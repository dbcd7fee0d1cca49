"""Golden-model per-server transient loop (pre-floor-engine reference).

This preserves the single-server warm-start lane verbatim: the old
``SimulationSession.advance`` with its boundary hold rule
(``_ensure_boundary``), and the transient branch of
``ThermosyphonController.run_trace`` that drove it.  Each server holds its
own temperature field and cooling boundary and steps through the
single-column ``steady_state_from_map`` solve and
``reference_kernel.cached_transient_step``.  The production path is now
one engine, :class:`repro.datacenter.floor.FloorEngine`, which stacks
servers into multi-column back-substitutions and batches boundary
refreshes across racks; the tier-A tests require every decision field to
be ``==`` to this loop, so the stacking only counts if it is the same
physics.

One golden covers single-server traces, rack traces and fixed-setpoint
floors: their servers are uncoupled (each has its own loads, water loop
and decisions; only the factorization cache is shared).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from reference_kernel import cached_transient_step
from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import (
    ACTUATOR_ACTIONS,
    ControllerDecision,
    RackServer,
    ThermosyphonController,
    mapping_at_frequency,
)
from repro.core.session import (
    EvaluationResult,
    build_evaluation_result,
    power_drift_exceeds,
)
from repro.exceptions import ValidationError
from repro.thermal.simulator import ThermalResult
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_positive
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace


@dataclass(frozen=True)
class _BoundaryState:
    """The cooling boundary currently driving the transient lane."""

    operating_point: LoopOperatingPoint
    boundary_result: BoundaryResult
    water_loop: WaterLoop
    total_power_w: float


@dataclass(frozen=True)
class SessionAdvance:
    """Outcome of one low-level :meth:`ReferenceSession.advance` call."""

    thermal_result: ThermalResult
    operating_point: LoopOperatingPoint
    boundary_result: BoundaryResult
    dt_s: float
    n_substeps: int
    settle_residual_c: float
    period_peak_case_c: float
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


class ReferenceSession:
    """One server's warm-start transient state on a simulation's substrates."""

    def __init__(self, simulation: CooledServerSimulation) -> None:
        self.floorplan = simulation.floorplan
        self.design = simulation.design
        self.power_model = simulation.power_model
        self.thermal_simulator = simulation.thermal_simulator
        self.loop = simulation.loop
        self._temperatures: np.ndarray | None = None
        self._boundary_state: _BoundaryState | None = None

    def reset(self) -> None:
        """Forget the temperature field and boundary state."""
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
        """Advance the temperature field by ``dt_s`` at the given power map."""
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
            new_field = cached_transient_step(
                simulator.solver_cache, field, power_map_w, boundary, sub_dt
            )
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
        if mapper is None:
            mapper = ThreadMapper(self.floorplan, orientation=self.design.orientation)
        activities = mapper.activities(benchmark, mapping, activity_factor=activity_factor)
        if water_loop is None:
            water_loop = self.design.water_loop()
        breakdown = self.power_model.evaluate(
            activities,
            mapping.configuration.frequency_ghz,
            memory_intensity=benchmark.memory_intensity,
        )
        power_map = self.thermal_simulator.power_map(breakdown.component_power_w)
        advance = self.advance(
            power_map,
            water_loop,
            dt_s,
            n_substeps=n_substeps,
            force_boundary_refresh=force_boundary_refresh,
        )
        result = build_evaluation_result(
            benchmark_name=benchmark.name,
            configuration=mapping.configuration,
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


@dataclass
class ReferenceTrace:
    """The golden loop's decisions, factorizations and chiller power.

    ``chiller_power_w[t]`` is the server's Eq. 1 chiller power in period
    ``t`` at the water loop that period ran with — the per-server term a
    rack trace sums into its rack chiller power.
    """

    decisions: list[ControllerDecision] = field(default_factory=list)
    factorizations: int | None = None
    chiller_power_w: list[float] = field(default_factory=list)


def reference_run_trace(
    controller: ThermosyphonController,
    benchmark: BenchmarkCharacteristics,
    mapping: WorkloadMapping,
    constraint: QoSConstraint,
    trace: PhasedTrace,
    *,
    initial_water_loop: WaterLoop | None = None,
    transient_substeps: int = 4,
    chiller: ChillerModel | None = None,
) -> ReferenceTrace:
    """The transient branch of the old ``run_trace``, on a golden session.

    ``controller`` supplies the simulation (substrates and factorization
    cache), the control period and the decision rule.
    """
    chiller = chiller if chiller is not None else ChillerModel()
    session = ReferenceSession(controller.simulation)
    mapper = ThreadMapper(
        controller.simulation.floorplan,
        orientation=controller.simulation.design.orientation,
    )
    water_loop = (
        initial_water_loop
        if initial_water_loop is not None
        else controller.simulation.design.water_loop()
    )
    frequency = mapping.configuration.frequency_ghz
    record = ReferenceTrace()
    session.reset()
    cache = controller.simulation.thermal_simulator.solver_cache
    misses_before = cache.stats.misses if cache is not None else None

    current_mapping = mapping_at_frequency(mapping, frequency)
    force_refresh = False
    time_s = 0.0
    while time_s < trace.duration_s:
        phase = trace.phase_at(time_s)
        if current_mapping.configuration.frequency_ghz != frequency:
            current_mapping = mapping_at_frequency(mapping, frequency)
        step = session.advance_mapping(
            benchmark,
            current_mapping,
            controller.control_period_s,
            mapper=mapper,
            water_loop=water_loop,
            activity_factor=phase.activity_factor,
            n_substeps=transient_substeps,
            force_boundary_refresh=force_refresh,
        )
        result = step.result
        evaluated_flow_kg_h = water_loop.flow_rate_kg_h
        evaluated_frequency_ghz = frequency
        record.chiller_power_w.append(
            chiller.cooling_power_w(water_loop, result.package_power_w)
        )
        action, water_loop, frequency = controller.decide(
            result, water_loop, benchmark, constraint
        )
        force_refresh = action in ACTUATOR_ACTIONS
        record.decisions.append(
            ControllerDecision(
                time_s=time_s,
                case_temperature_c=result.case_temperature_c,
                die_hot_spot_c=result.die_metrics.theta_max_c,
                package_power_w=result.package_power_w,
                water_flow_kg_h=evaluated_flow_kg_h,
                frequency_ghz=evaluated_frequency_ghz,
                action=action,
                settle_residual_c=step.settle_residual_c,
                period_peak_case_c=step.period_peak_case_c,
            )
        )
        time_s += controller.control_period_s
    if misses_before is not None and cache is not None:
        record.factorizations = cache.stats.misses - misses_before
    return record


def reference_rack_trace(
    controller: ThermosyphonController,
    servers: Sequence[RackServer],
    trace: PhasedTrace | None = None,
    *,
    initial_water_loop: WaterLoop | None = None,
    transient_substeps: int = 4,
    chiller: ChillerModel | None = None,
) -> tuple[list[tuple[ControllerDecision, ...]], list[float]]:
    """A rack trace as independent golden servers on one simulation.

    Returns ``periods[t][s]`` (server ``s``'s decision at period ``t``) and
    the rack chiller power of each period, summed over the servers in rack
    order like :func:`repro.core.runtime_controller.apply_rack_decisions`.
    Every server's trace must last equally long: a rack runs until its
    longest trace ends, the golden loop until its own does.
    """
    traces = [server.trace if server.trace is not None else trace for server in servers]
    if len({t.duration_s for t in traces}) != 1:
        raise ValueError("golden rack traces need equally long server traces")
    runs = [
        reference_run_trace(
            controller,
            server.benchmark,
            server.mapping,
            server.constraint,
            server_trace,
            initial_water_loop=initial_water_loop,
            transient_substeps=transient_substeps,
            chiller=chiller,
        )
        for server, server_trace in zip(servers, traces)
    ]
    periods = [tuple(decisions) for decisions in zip(*(run.decisions for run in runs))]
    chiller_power_w = [sum(powers) for powers in zip(*(run.chiller_power_w for run in runs))]
    return periods, chiller_power_w
