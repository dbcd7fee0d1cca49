"""Evaluation records and the cooling-boundary hold rule shared by every lane.

What one evaluated server reports, and when a held cooling boundary must
be rebuilt:

* :class:`EvaluationResult` and :func:`build_evaluation_result` — the
  derived metrics of one server, identical whether it came from the
  steady lane (:class:`repro.core.pipeline.CooledServerSimulation`) or
  from a transient period of the floor engine
  (:class:`repro.datacenter.floor.FloorEngine`, through
  :meth:`repro.core.rack_session.RackSession.finish_advance`);
* :data:`T_CASE_MAX_C`, the case-temperature limit of Section VI-B;
* :data:`BOUNDARY_REFRESH_TOL` and :func:`power_drift_exceeds` — the
  transient lane holds each server's cooling boundary between actuator
  events and rebuilds it only when the water loop changes, when the
  caller forces it, or when the total power drifts beyond the tolerance.
  Because power only enters the right-hand side of the thermal system,
  every step at a held boundary is a cached back-substitution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.mapping import WorkloadMapping
from repro.power.power_model import PowerBreakdown
from repro.thermal.metrics import ThermalMetrics
from repro.thermal.simulator import ThermalResult
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint
from repro.thermosyphon.water_loop import WaterLoop
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

    Shared by the steady lane
    (:class:`repro.core.pipeline.CooledServerSimulation`) and the
    transient lane (:meth:`repro.core.rack_session.RackSession.finish_advance`),
    so both report identical derived metrics.
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

    The single source of the drift test the transient lane holds each
    server's cooling boundary against (relative to the power the boundary
    was built at, with a floor guarding the zero-power case).
    """
    return abs(total_power_w - reference_w) > BOUNDARY_REFRESH_TOL * max(
        abs(reference_w), 1e-9
    )
