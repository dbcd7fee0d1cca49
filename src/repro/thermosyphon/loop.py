"""Gravity-driven thermosyphon loop solver.

Couples the condenser energy balance (which sets the saturation temperature
for a given heat load and water condition), the gravity-driven circulation
(driving head from the density difference between the liquid downcomer and
the two-phase riser, balanced against the loop friction), the filling-ratio
effects (inlet subcooling, inlet quality, condenser flooding), and the
evaporator channel model (per-cell heat transfer coefficient and fluid
temperature for the thermal simulator).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.thermal.boundary import CoolingBoundary
from repro.thermosyphon.condenser import CondenserModel
from repro.thermosyphon.design import ThermosyphonDesign
from repro.thermosyphon.evaporator import EvaporatorModel
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.units import GRAVITY
from repro.utils.validation import check_non_negative, check_positive


#: Standard deviation (mm) of the Gaussian kernel used to approximate heat
#: spreading between the die and the evaporator channels.
HEAT_SPREADING_SIGMA_MM = 1.5


@functools.lru_cache(maxsize=8)
def _gaussian_weights(sigma: float) -> tuple[float, ...]:
    """Weights ``w_0 ... w_r`` of the normalized Gaussian of ``sigma`` cells.

    Truncated at ``r = int(4 sigma + 0.5)`` cells and normalized over all
    ``2r + 1`` taps, with ``scipy.ndimage``'s own arithmetic, so every
    weight carries its bits.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return tuple((phi / phi.sum())[radius:].tolist())


def _smooth_axis(stack: np.ndarray, axis: int, sigma: float) -> np.ndarray:
    """One Gaussian pass along ``axis``, edges replicated."""
    weights = _gaussian_weights(sigma)
    radius = len(weights) - 1
    n = stack.shape[axis]
    padded = stack.take(np.clip(np.arange(-radius, n + radius), 0, n - 1), axis=axis)
    lead = (slice(None),) * axis

    def shifted(offset: int) -> np.ndarray:
        return padded[lead + (slice(radius + offset, radius + offset + n),)]

    smoothed = shifted(0) * weights[0]
    for j in range(radius, 0, -1):
        smoothed += (shifted(-j) + shifted(j)) * weights[j]
    return smoothed


def _spread_heat(
    power_maps_w: np.ndarray, sigma_rows: float, sigma_columns: float
) -> np.ndarray:
    """Gaussian heat spreading over a ``(n_servers, n_rows, n_columns)`` stack.

    Bit for bit ``scipy.ndimage.gaussian_filter(power_maps_w, sigma=(0.0,
    sigma_rows, sigma_columns), mode="nearest")``: each map is filtered
    along its rows axis, then its columns axis, with a Gaussian truncated
    at 4 sigma (:func:`_gaussian_weights`) and edge cells replicated past
    the border.  An axis whose sigma is at most 1e-15 is skipped, as scipy
    skips it.  Each output cell is summed in the order of scipy's symmetric
    ``correlate1d`` loop: ``w_0 x_i``, then ``+= (x_{i-j} + x_{i+j}) w_j``
    for ``j = r ... 1``.  With that order and no fused multiply-add, every
    rounding is scipy's.  It is not ``scipy.ndimage`` because importing
    that package (and ``scipy.special`` with it) costs every run about
    0.12 s of start-up, for this one call per lane march.
    """
    smoothed = power_maps_w
    for axis, sigma in ((1, sigma_rows), (2, sigma_columns)):
        if sigma > 1e-15:
            smoothed = _smooth_axis(smoothed, axis, sigma)
    return smoothed if smoothed is not power_maps_w else power_maps_w.copy()


@dataclass(frozen=True)
class FillingRatioEffects:
    """How the refrigerant charge level influences the loop."""

    inlet_subcooling_c: float
    inlet_quality: float
    flooding_penalty: float
    head_factor: float


@dataclass(frozen=True)
class LoopOperatingPoint:
    """Converged thermodynamic state of the thermosyphon loop."""

    total_heat_w: float
    saturation_temperature_c: float
    mass_flow_kg_s: float
    inlet_subcooling_c: float
    inlet_quality: float
    mean_outlet_quality: float
    water_outlet_temperature_c: float
    condenser_effectiveness: float
    iterations: int

    @property
    def mass_flow_kg_h(self) -> float:
        """Refrigerant circulation rate in kg/h."""
        return self.mass_flow_kg_s * 3600.0


@dataclass
class BoundaryResult:
    """Cooling boundary plus evaporator-side diagnostics."""

    boundary: CoolingBoundary
    outlet_quality_per_lane: np.ndarray
    max_quality: float
    dryout: bool


class ThermosyphonLoop:
    """System-level model of one thermosyphon attached to one CPU."""

    def __init__(self, design: ThermosyphonDesign) -> None:
        self.design = design
        self.refrigerant = design.refrigerant
        effects = self.filling_ratio_effects()
        self.condenser = CondenserModel(
            design.condenser_ua_w_per_k, flooding_penalty=effects.flooding_penalty
        )
        self.evaporator = EvaporatorModel(
            self.refrigerant,
            design.evaporator_geometry,
            dryout_quality=design.dryout_quality,
        )

    # ------------------------------------------------------------------ #
    # Filling ratio
    # ------------------------------------------------------------------ #
    def filling_ratio_effects(self) -> FillingRatioEffects:
        """Inlet subcooling, inlet quality, flooding and head factors.

        The filling ratio is a design-time charge level.  Around the optimum
        (~55%) the downcomer stays full of liquid (maximum driving head and
        a few degrees of subcooling at the evaporator inlet).  Undercharging
        starves the downcomer — the driving head shrinks and vapor reaches
        the evaporator inlet.  Overcharging floods part of the condenser,
        reducing its effective surface.
        """
        fr = self.design.filling_ratio
        # Subcooling grows with charge until the downcomer is full (~0.5).
        inlet_subcooling = min(max(8.0 * (fr - 0.30), 0.0), 4.0)
        # Severe undercharge lets vapor recirculate to the evaporator inlet.
        inlet_quality = min(max(0.35 - fr, 0.0) * 0.6, 0.3)
        # Overcharge floods condenser surface.
        flooding_penalty = min(max(fr - 0.62, 0.0) * 1.6, 0.6)
        # The driving head needs a full liquid leg.
        head_factor = min(fr / 0.50, 1.0)
        return FillingRatioEffects(
            inlet_subcooling_c=inlet_subcooling,
            inlet_quality=inlet_quality,
            flooding_penalty=flooding_penalty,
            head_factor=head_factor,
        )

    # ------------------------------------------------------------------ #
    # Loop thermodynamics
    # ------------------------------------------------------------------ #
    def solve_mass_flow(
        self, total_heat_w: float, saturation_temperature_c: float, inlet_quality: float
    ) -> tuple[float, float, int]:
        """Gravity/friction balance; returns (mass flow, outlet quality, iterations)."""
        check_non_negative(total_heat_w, "total_heat_w")
        design = self.design
        refrigerant = self.refrigerant
        effects = self.filling_ratio_effects()
        latent = refrigerant.latent_heat_j_kg(saturation_temperature_c)
        rho_liquid = refrigerant.liquid_density_kg_m3(saturation_temperature_c)

        mass_flow = 1.0e-3  # kg/s initial guess
        if total_heat_w <= 0.0:
            # No heat, no vapor generation: the loop idles at the initial
            # circulation guess with the inlet quality unchanged.
            return mass_flow, inlet_quality, 0
        outlet_quality = inlet_quality
        for iteration in range(1, 61):
            outlet_quality = min(inlet_quality + total_heat_w / (mass_flow * latent), 1.0)
            mean_quality = 0.5 * (inlet_quality + outlet_quality)
            rho_riser = refrigerant.two_phase_density_kg_m3(
                saturation_temperature_c, mean_quality
            )
            driving_pa = (
                (rho_liquid - rho_riser)
                * GRAVITY
                * design.riser_height_m
                * effects.head_factor
            )
            driving_pa = max(driving_pa, 1.0)
            new_mass_flow = (driving_pa / design.loop_friction_coefficient) ** 0.5
            if abs(new_mass_flow - mass_flow) < 1e-8:
                return new_mass_flow, outlet_quality, iteration
            mass_flow = 0.5 * mass_flow + 0.5 * new_mass_flow
        raise ConvergenceError("thermosyphon mass-flow iteration did not converge")

    def operating_point(
        self, total_heat_w: float, water_loop: WaterLoop | None = None
    ) -> LoopOperatingPoint:
        """Converged loop state for a total heat load and water condition."""
        check_non_negative(total_heat_w, "total_heat_w")
        if water_loop is None:
            water_loop = self.design.water_loop()
        effects = self.filling_ratio_effects()
        condenser_point = self.condenser.required_saturation_temperature_c(
            total_heat_w, water_loop
        )
        mass_flow, outlet_quality, iterations = self.solve_mass_flow(
            total_heat_w, condenser_point.saturation_temperature_c, effects.inlet_quality
        )
        return LoopOperatingPoint(
            total_heat_w=total_heat_w,
            saturation_temperature_c=condenser_point.saturation_temperature_c,
            mass_flow_kg_s=mass_flow,
            inlet_subcooling_c=effects.inlet_subcooling_c,
            inlet_quality=effects.inlet_quality,
            mean_outlet_quality=outlet_quality,
            water_outlet_temperature_c=condenser_point.water_outlet_temperature_c,
            condenser_effectiveness=condenser_point.effectiveness,
            iterations=iterations,
        )

    # ------------------------------------------------------------------ #
    # Boundary condition for the thermal simulator
    # ------------------------------------------------------------------ #
    def cooling_boundary(
        self,
        power_map_w: np.ndarray,
        cell_pitch_mm: tuple[float, float],
        operating_point: LoopOperatingPoint | None = None,
        *,
        water_loop: WaterLoop | None = None,
    ) -> BoundaryResult:
        """Per-cell HTC and fluid temperature for a die power map.

        The die power map is smoothed with a Gaussian kernel to approximate
        lateral spreading through the heat spreader, split into channel
        lanes according to the design orientation, and each lane is marched
        with the evaporator flow-boiling model.  This is the single-server
        entry of :meth:`cooling_boundaries` (one implementation, identical
        numerics).
        """
        power_map_w = np.asarray(power_map_w, dtype=float)
        if power_map_w.ndim != 2:
            raise ValidationError("power map must be two-dimensional")
        if operating_point is None:
            pitch_x_mm, pitch_y_mm = cell_pitch_mm
            check_positive(pitch_x_mm, "pitch_x_mm")
            check_positive(pitch_y_mm, "pitch_y_mm")
            operating_point = self.operating_point(float(power_map_w.sum()), water_loop)
        return self.cooling_boundaries(
            power_map_w[np.newaxis], cell_pitch_mm, [operating_point]
        )[0]

    def cooling_boundaries(
        self,
        power_maps_w: np.ndarray,
        cell_pitch_mm: tuple[float, float],
        operating_points: Sequence[LoopOperatingPoint],
    ) -> list[BoundaryResult]:
        """Cooling boundaries for many servers, one lane march for all.

        The rack- and floor-engine generalisation of :meth:`cooling_boundary`
        (which delegates here with a single-map stack): ``power_maps_w`` has
        shape ``(n_servers, n_rows, n_columns)`` and ``operating_points``
        holds one converged point per server — servers of this design at
        different total heats and water conditions march together.  Every
        point must share the design's inlet state (subcooling and
        quality); a call whose points disagree raises
        :class:`ValidationError`.  The already-vectorized
        ``(n_lanes, n_cells)`` evaporator march is stacked into one
        ``(n_servers * n_lanes, n_cells)`` call, each lane carrying its
        server's mass flow and saturation temperature, so the whole stack
        marches in a single pass.  Because smoothing and the march are
        elementwise per server/lane and each point's scalars are evaluated
        as for that point alone, each server's entry is bit-identical to a
        single-map call (and matches the per-lane golden loop of
        ``tests/reference_lane_march.py``).
        """
        power_maps_w = np.asarray(power_maps_w, dtype=float)
        if power_maps_w.ndim != 3:
            raise ValidationError(
                "power map stack must be three-dimensional (n_servers, n_rows, n_columns)"
            )
        pitch_x_mm, pitch_y_mm = cell_pitch_mm
        check_positive(pitch_x_mm, "pitch_x_mm")
        check_positive(pitch_y_mm, "pitch_y_mm")

        n_servers, n_rows, n_columns = power_maps_w.shape
        operating_points = list(operating_points)
        if n_servers == 0 or len(operating_points) != n_servers:
            raise ValidationError(
                f"expected one operating point per server ({n_servers}), "
                f"got {len(operating_points)}"
            )
        inlet = (
            operating_points[0].inlet_subcooling_c,
            operating_points[0].inlet_quality,
        )
        if any(
            (point.inlet_subcooling_c, point.inlet_quality) != inlet
            for point in operating_points
        ):
            raise ValidationError(
                "operating points of one lane march must share the inlet state"
            )
        orientation = self.design.orientation
        n_lanes = orientation.channel_count(n_rows, n_columns)
        flow_per_lane = np.repeat(
            [point.mass_flow_kg_s / n_lanes for point in operating_points], n_lanes
        )
        t_sat_per_lane = np.repeat(
            [point.saturation_temperature_c for point in operating_points], n_lanes
        )
        cell_area_m2 = (pitch_x_mm * 1e-3) * (pitch_y_mm * 1e-3)

        # One smoothing pass over the whole stack, each map filtered on
        # its own; the per-server renormalization broadcasts.  Lanes are
        # grid rows for east-west channels and grid columns (transposed)
        # for north-south channels; reversed-flow orientations march
        # against the grid index direction.
        smoothed = _spread_heat(
            power_maps_w,
            HEAT_SPREADING_SIGMA_MM / pitch_y_mm,
            HEAT_SPREADING_SIGMA_MM / pitch_x_mm,
        )
        totals = power_maps_w.sum(axis=(1, 2))
        sums = smoothed.sum(axis=(1, 2))
        positive = sums > 0.0
        scale = np.where(positive, totals / np.where(positive, sums, 1.0), 1.0)
        smoothed *= scale[:, np.newaxis, np.newaxis]
        lane_heat_stack = (
            smoothed
            if orientation.channels_run_east_west
            else smoothed.transpose(0, 2, 1)
        )
        if orientation.flow_reversed:
            lane_heat_stack = lane_heat_stack[:, :, ::-1]
        lane_heat_stack = np.ascontiguousarray(lane_heat_stack)

        n_cells = lane_heat_stack.shape[2]
        batch = self.evaporator.solve_channels(
            lane_heat_stack.reshape(n_servers * n_lanes, n_cells),
            flow_per_lane,
            t_sat_per_lane,
            inlet_subcooling_c=inlet[0],
            inlet_quality=inlet[1],
            cell_base_area_m2=cell_area_m2,
            saturation_slope_c_per_cell=0.015,
        )

        # Split back per server and undo the flow-order gather.
        quality = batch.quality.reshape(n_servers, n_lanes, n_cells)
        htc_stack = batch.base_htc_w_m2k.reshape(n_servers, n_lanes, n_cells)
        fluid_stack = batch.fluid_temperature_c.reshape(n_servers, n_lanes, n_cells)
        dryout = batch.dryout_per_lane.reshape(n_servers, n_lanes)

        results: list[BoundaryResult] = []
        for index in range(n_servers):
            lane_htc = htc_stack[index]
            lane_fluid = fluid_stack[index]
            if orientation.flow_reversed:
                lane_htc = lane_htc[:, ::-1]
                lane_fluid = lane_fluid[:, ::-1]
            if orientation.channels_run_east_west:
                htc, fluid = lane_htc, lane_fluid
            else:
                htc, fluid = lane_htc.T, lane_fluid.T
            results.append(
                BoundaryResult(
                    boundary=CoolingBoundary(htc_w_m2k=htc, fluid_temperature_c=fluid),
                    outlet_quality_per_lane=quality[index, :, -1].copy(),
                    max_quality=float(quality[index].max()) if quality[index].size else 0.0,
                    dryout=bool(dryout[index].any()),
                )
            )
        return results
