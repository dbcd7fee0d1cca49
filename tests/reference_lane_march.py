"""Golden models of the evaporator lane march.

Two goldens, two tiers:

* :func:`reference_cooling_boundary` preserves the original
  ``ThermosyphonLoop.cooling_boundary`` lane loop verbatim: each channel
  lane is sliced out of the smoothed power map and marched individually
  through the scalar ``EvaporatorModel.solve_channel`` (itself untouched).
  The production path gathers all lanes into one ``(n_lanes, n_cells)``
  array and marches them together (``solve_channels``), with vectorized
  arithmetic whose rounding may differ in the last bits, so the
  equivalence tests hold the two to <= 1e-12.
* :func:`reference_solve_channels` is the batched march as it was before
  the running sums: all lanes advance together, one cell per Python
  iteration, and the Cooper prefactor comes from one scalar
  reduced-pressure call per operating point and cell.  Production
  ``solve_channels`` replaces the cell loop by running sums along the
  channel that subtract and add in the loop's own order, so the tests
  require its quality, fluid temperature, HTC and dryout to equal this
  loop's exactly (``==``), for non-negative heat.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.ndimage import gaussian_filter

from repro.exceptions import ValidationError
from repro.thermal.boundary import CoolingBoundary
from repro.thermosyphon.evaporator import ChannelBatchSolution, EvaporatorModel, _per_lane
from repro.thermosyphon.loop import (
    BoundaryResult,
    HEAT_SPREADING_SIGMA_MM,
    LoopOperatingPoint,
    ThermosyphonLoop,
)
from repro.utils.validation import check_positive


def reference_cooling_boundary(
    loop: ThermosyphonLoop,
    power_map_w: np.ndarray,
    cell_pitch_mm: tuple[float, float],
    operating_point: LoopOperatingPoint | None = None,
) -> BoundaryResult:
    """Per-cell HTC and fluid temperature via the original per-lane loop."""
    power_map_w = np.asarray(power_map_w, dtype=float)
    if power_map_w.ndim != 2:
        raise ValidationError("power map must be two-dimensional")
    pitch_x_mm, pitch_y_mm = cell_pitch_mm
    check_positive(pitch_x_mm, "pitch_x_mm")
    check_positive(pitch_y_mm, "pitch_y_mm")
    if operating_point is None:
        operating_point = loop.operating_point(float(power_map_w.sum()))

    total_power = float(power_map_w.sum())
    smoothed = gaussian_filter(
        power_map_w,
        sigma=(HEAT_SPREADING_SIGMA_MM / pitch_y_mm, HEAT_SPREADING_SIGMA_MM / pitch_x_mm),
        mode="nearest",
    )
    if smoothed.sum() > 0.0:
        smoothed *= total_power / smoothed.sum()

    n_rows, n_columns = power_map_w.shape
    orientation = loop.design.orientation
    n_lanes = orientation.channel_count(n_rows, n_columns)
    flow_per_lane = operating_point.mass_flow_kg_s / n_lanes
    cell_area_m2 = (pitch_x_mm * 1e-3) * (pitch_y_mm * 1e-3)

    htc = np.zeros_like(power_map_w)
    fluid = np.full_like(power_map_w, operating_point.saturation_temperature_c)
    outlet_qualities = np.zeros(n_lanes, dtype=float)
    dryout = False
    max_quality = 0.0

    for lane in range(n_lanes):
        if orientation.channels_run_east_west:
            lane_heat = smoothed[lane, :]
        else:
            lane_heat = smoothed[:, lane]
        if orientation.flow_reversed:
            lane_heat = lane_heat[::-1]

        solution = loop.evaporator.solve_channel(
            lane_heat,
            flow_per_lane,
            operating_point.saturation_temperature_c,
            inlet_subcooling_c=operating_point.inlet_subcooling_c,
            inlet_quality=operating_point.inlet_quality,
            cell_base_area_m2=cell_area_m2,
            saturation_slope_c_per_cell=0.015,
        )
        lane_htc = solution.base_htc_w_m2k
        lane_fluid = solution.fluid_temperature_c
        if orientation.flow_reversed:
            lane_htc = lane_htc[::-1]
            lane_fluid = lane_fluid[::-1]
        if orientation.channels_run_east_west:
            htc[lane, :] = lane_htc
            fluid[lane, :] = lane_fluid
        else:
            htc[:, lane] = lane_htc
            fluid[:, lane] = lane_fluid

        outlet_qualities[lane] = solution.outlet_quality
        max_quality = max(max_quality, float(solution.quality.max()))
        dryout = dryout or solution.dryout

    return BoundaryResult(
        boundary=CoolingBoundary(htc_w_m2k=htc, fluid_temperature_c=fluid),
        outlet_quality_per_lane=outlet_qualities,
        max_quality=max_quality,
        dryout=dryout,
    )


def _reference_cooper_prefactor(model: EvaporatorModel, t_sat_c: float) -> float:
    """The heat-flux-independent factor of the Cooper correlation."""
    reduced = model.refrigerant.reduced_pressure(t_sat_c)
    return (
        55.0
        * reduced**0.12
        * (-math.log10(reduced)) ** (-0.55)
        * model.refrigerant.molar_mass_kg_kmol ** (-0.5)
    )


def reference_solve_channels(
    model: EvaporatorModel,
    heat_per_cell_w: np.ndarray,
    mass_flow_kg_s: float | np.ndarray,
    t_sat_c: float | np.ndarray,
    *,
    inlet_subcooling_c: float = 3.0,
    inlet_quality: float = 0.0,
    cell_base_area_m2: float,
    saturation_slope_c_per_cell: float = 0.0,
) -> ChannelBatchSolution:
    """The cell-by-cell batched march (``EvaporatorModel.solve_channels``
    before the running sums), with ``model`` in place of ``self``."""
    heat_per_cell_w = np.asarray(heat_per_cell_w, dtype=float)
    if heat_per_cell_w.ndim != 2:
        raise ValidationError("heat_per_cell_w must be two-dimensional (n_lanes, n_cells)")
    n_lanes, n_cells = heat_per_cell_w.shape
    flows = _per_lane(mass_flow_kg_s, n_lanes, "mass_flow_kg_s")
    if not np.all(flows > 0.0) or not np.all(np.isfinite(flows)):
        raise ValidationError("mass_flow_kg_s must be finite and > 0 in every lane")
    t_sats = _per_lane(t_sat_c, n_lanes, "t_sat_c")
    check_positive(cell_base_area_m2, "cell_base_area_m2")

    refrigerant = model.refrigerant
    cp_liquid = refrigerant.liquid_specific_heat_j_kgk
    enhancement = model.geometry.area_enhancement
    points, lane_point = np.unique(
        np.column_stack((flows, t_sats)), axis=0, return_inverse=True
    )
    lane_point = lane_point.reshape(-1)

    # Operating-point scalars, one Python evaluation per point.
    n_points = points.shape[0]
    h_liquid = np.empty(n_points)
    sensible_denominator = np.empty(n_points)
    latent_denominator = np.empty(n_points)
    local_t_sat = np.empty((n_points, n_cells))
    cooper_prefactor = np.empty((n_points, n_cells))
    for point, (flow, t_sat) in enumerate(points.tolist()):
        latent = refrigerant.latent_heat_j_kg(t_sat)
        h_liquid[point] = model.single_phase_htc_w_m2k(
            flow / model.geometry.channel_flow_area_m2
        )
        sensible_denominator[point] = max(flow * cp_liquid, 1e-9)
        latent_denominator[point] = max(flow * latent, 1e-9)
        for index in range(n_cells):
            cell_t_sat = t_sat - saturation_slope_c_per_cell * index
            local_t_sat[point, index] = cell_t_sat
            cooper_prefactor[point, index] = _reference_cooper_prefactor(model, cell_t_sat)
    h_subcooled = (h_liquid * 1.5) * enhancement

    # Repeat each point's scalars over its lanes.
    h_liquid = h_liquid[lane_point]
    h_subcooled = h_subcooled[lane_point]
    local_t_sat = local_t_sat[lane_point]
    cooper_prefactor = cooper_prefactor[lane_point]
    heat_flux = heat_per_cell_w / (cell_base_area_m2 * enhancement)
    temperature_rise = heat_per_cell_w / sensible_denominator[lane_point, np.newaxis]
    quality_rise = heat_per_cell_w / latent_denominator[lane_point, np.newaxis]

    quality = np.zeros((n_lanes, n_cells), dtype=float)
    fluid_temperature = np.zeros((n_lanes, n_cells), dtype=float)
    htc = np.zeros((n_lanes, n_cells), dtype=float)

    inlet = min(max(inlet_quality, 0.0), 1.0)
    current_quality = np.full(n_lanes, inlet, dtype=float)
    initial_subcooling = max(inlet_subcooling_c, 0.0) if inlet == 0.0 else 0.0
    subcooling = np.full(n_lanes, initial_subcooling, dtype=float)
    dryout = np.zeros(n_lanes, dtype=bool)

    for index in range(n_cells):
        cell_t_sat = local_t_sat[:, index]
        subcooled = subcooling > 0.0
        saturated = ~subcooled

        h_two_phase = (
            model._two_phase_htc_array(
                current_quality,
                h_liquid,
                cooper_prefactor[:, index],
                heat_flux[:, index],
            )
            * enhancement
        )
        fluid_temperature[:, index] = np.where(
            subcooled, cell_t_sat - subcooling, cell_t_sat
        )
        htc[:, index] = np.where(subcooled, h_subcooled, h_two_phase)

        # Sensible heating region: the liquid warms towards saturation.
        subcooling = np.where(
            subcooled,
            np.maximum(subcooling - temperature_rise[:, index], 0.0),
            subcooling,
        )
        # Saturated boiling region: quality advances by the energy balance.
        advanced = np.minimum(current_quality + quality_rise[:, index], 1.0)
        current_quality = np.where(saturated, advanced, current_quality)
        quality[:, index] = np.where(saturated, current_quality, 0.0)
        dryout |= saturated & (current_quality > model.dryout_quality)

    return ChannelBatchSolution(
        quality=quality,
        fluid_temperature_c=fluid_temperature,
        base_htc_w_m2k=htc,
        dryout_per_lane=dryout,
    )
