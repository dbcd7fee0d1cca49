"""Micro-channel evaporator geometry and flow-boiling heat transfer model.

The evaporator is a copper plate with parallel rectangular micro-channels
machined into its top surface.  Refrigerant enters slightly subcooled, heats
up to saturation, boils as it traverses the channel, and may dry out if the
local vapor quality exceeds a critical value.  The local heat transfer
coefficient is modelled with a standard flow-boiling composition: a Cooper
pool-boiling (nucleate) term combined with a Dittus-Boelter convective term
enhanced by the vapor quality, and a sharp degradation beyond the dryout
quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.thermosyphon.refrigerant import Refrigerant
from repro.utils.validation import check_fraction, check_positive


#: Heat transfer coefficient of pure vapor convection after full dryout [W/m^2 K].
VAPOR_PHASE_HTC_W_M2K = 400.0

#: Fin efficiency applied to the channel side walls when converting the
#: channel-wall HTC into an equivalent base-area HTC.
FIN_EFFICIENCY = 0.82


@dataclass(frozen=True)
class EvaporatorGeometry:
    """Geometry of the micro-channel evaporator.

    The evaporator base covers the heat-spreader footprint.  Channels run
    across the full base in the direction given by the orientation; the
    channel/fin pitch fixes how many parallel channels fit.
    """

    base_width_mm: float = 38.0
    base_height_mm: float = 38.0
    channel_width_mm: float = 0.5
    channel_depth_mm: float = 1.5
    fin_width_mm: float = 0.5

    def __post_init__(self) -> None:
        check_positive(self.base_width_mm, "base_width_mm")
        check_positive(self.base_height_mm, "base_height_mm")
        check_positive(self.channel_width_mm, "channel_width_mm")
        check_positive(self.channel_depth_mm, "channel_depth_mm")
        check_positive(self.fin_width_mm, "fin_width_mm")

    @property
    def channel_pitch_mm(self) -> float:
        """Channel-to-channel pitch (channel plus fin width)."""
        return self.channel_width_mm + self.fin_width_mm

    def n_channels(self, span_mm: float) -> int:
        """Number of channels that fit across ``span_mm``."""
        return max(int(span_mm / self.channel_pitch_mm), 1)

    @property
    def hydraulic_diameter_m(self) -> float:
        """Hydraulic diameter of one rectangular channel in metres."""
        w = self.channel_width_mm * 1e-3
        d = self.channel_depth_mm * 1e-3
        return 4.0 * w * d / (2.0 * (w + d))

    @property
    def channel_flow_area_m2(self) -> float:
        """Cross-sectional flow area of one channel in m^2."""
        return (self.channel_width_mm * 1e-3) * (self.channel_depth_mm * 1e-3)

    @property
    def area_enhancement(self) -> float:
        """Wetted-perimeter to base-pitch ratio (fin area enhancement).

        Converts a channel-wall heat transfer coefficient into an equivalent
        coefficient per unit of evaporator base area.
        """
        wetted = self.channel_width_mm + 2.0 * self.channel_depth_mm * FIN_EFFICIENCY
        return wetted / self.channel_pitch_mm


@dataclass
class ChannelSolution:
    """Per-cell state along one micro-channel lane (flow direction order)."""

    quality: np.ndarray
    fluid_temperature_c: np.ndarray
    base_htc_w_m2k: np.ndarray
    dryout: bool

    @property
    def outlet_quality(self) -> float:
        """Vapor quality at the channel outlet."""
        return float(self.quality[-1])


@dataclass
class ChannelBatchSolution:
    """Per-cell state of many lanes marched together.

    All arrays have shape ``(n_lanes, n_cells)`` with cells in flow
    direction order; ``dryout_per_lane`` has shape ``(n_lanes,)``.
    """

    quality: np.ndarray
    fluid_temperature_c: np.ndarray
    base_htc_w_m2k: np.ndarray
    dryout_per_lane: np.ndarray

    @property
    def n_lanes(self) -> int:
        """Number of lanes in the batch."""
        return self.quality.shape[0]

    @property
    def outlet_quality_per_lane(self) -> np.ndarray:
        """Vapor quality at each lane's outlet, shape ``(n_lanes,)``."""
        return self.quality[:, -1].copy()

    @property
    def dryout(self) -> bool:
        """True if any lane exceeded the dryout quality anywhere."""
        return bool(self.dryout_per_lane.any())

    def lane(self, index: int) -> ChannelSolution:
        """View one lane of the batch as a :class:`ChannelSolution`."""
        return ChannelSolution(
            quality=self.quality[index].copy(),
            fluid_temperature_c=self.fluid_temperature_c[index].copy(),
            base_htc_w_m2k=self.base_htc_w_m2k[index].copy(),
            dryout=bool(self.dryout_per_lane[index]),
        )


class EvaporatorModel:
    """Flow-boiling heat transfer along the evaporator channels."""

    def __init__(
        self,
        refrigerant: Refrigerant,
        geometry: EvaporatorGeometry | None = None,
        *,
        dryout_quality: float = 0.85,
    ) -> None:
        self.refrigerant = refrigerant
        self.geometry = geometry if geometry is not None else EvaporatorGeometry()
        self.dryout_quality = check_fraction(dryout_quality, "dryout_quality")

    # ------------------------------------------------------------------ #
    # Local heat transfer coefficients (channel-wall referenced)
    # ------------------------------------------------------------------ #
    def single_phase_htc_w_m2k(self, mass_flux_kg_m2s: float) -> float:
        """Liquid single-phase HTC from Dittus-Boelter with a laminar floor."""
        check_positive(mass_flux_kg_m2s, "mass_flux_kg_m2s")
        refrigerant = self.refrigerant
        diameter = self.geometry.hydraulic_diameter_m
        reynolds = mass_flux_kg_m2s * diameter / refrigerant.liquid_viscosity_pa_s
        prandtl = refrigerant.liquid_prandtl()
        nusselt_turbulent = 0.023 * reynolds**0.8 * prandtl**0.4
        nusselt = max(4.36, nusselt_turbulent)
        return nusselt * refrigerant.liquid_conductivity_w_mk / diameter

    def nucleate_boiling_htc_w_m2k(self, heat_flux_w_m2: float, t_sat_c: float) -> float:
        """Cooper pool-boiling correlation."""
        heat_flux_w_m2 = max(heat_flux_w_m2, 100.0)
        reduced = self.refrigerant.reduced_pressure(t_sat_c)
        molar_mass = self.refrigerant.molar_mass_kg_kmol
        return (
            55.0
            * reduced**0.12
            * (-math.log10(reduced)) ** (-0.55)
            * molar_mass ** (-0.5)
            * heat_flux_w_m2**0.67
        )

    def two_phase_htc_w_m2k(
        self,
        quality: float,
        mass_flux_kg_m2s: float,
        heat_flux_w_m2: float,
        t_sat_c: float,
    ) -> float:
        """Channel-wall HTC in the saturated boiling regime.

        In micro-channel flow boiling at the heat fluxes of interest the
        nucleate term dominates at low quality; as the vapor quality grows
        the liquid film thins and intermittent local dryout progressively
        degrades the coefficient, until the dryout quality is reached and it
        collapses towards single-phase vapor cooling.  This monotone
        degradation with quality is what makes the evaporator inlet cool
        better than its outlet — the effect the paper's orientation choice
        and channel-row mapping rule exploit.
        """
        quality = min(max(quality, 0.0), 1.0)
        h_liquid = self.single_phase_htc_w_m2k(mass_flux_kg_m2s)
        h_nucleate = self.nucleate_boiling_htc_w_m2k(heat_flux_w_m2, t_sat_c)
        convective_enhancement = 1.0 + 1.0 * quality**0.8
        h_convective = h_liquid * convective_enhancement
        h_wet = (h_nucleate**2 + h_convective**2) ** 0.5

        # Progressive film-thinning degradation before full dryout.
        onset_quality = 0.10
        if quality > onset_quality:
            span = max(self.dryout_quality - onset_quality, 1e-6)
            progress = min((quality - onset_quality) / span, 1.0)
            h_wet *= 1.0 - 0.65 * progress

        if quality <= self.dryout_quality:
            return h_wet
        # Collapse from the dryout quality to pure vapor cooling.
        span = max(1.0 - self.dryout_quality, 1e-6)
        weight = (quality - self.dryout_quality) / span
        return h_wet * (1.0 - weight) + VAPOR_PHASE_HTC_W_M2K * weight

    def base_htc_w_m2k(
        self,
        quality: float,
        mass_flux_kg_m2s: float,
        heat_flux_w_m2: float,
        t_sat_c: float,
        *,
        subcooled: bool = False,
    ) -> float:
        """Heat transfer coefficient referenced to the evaporator base area."""
        if subcooled:
            wall_htc = self.single_phase_htc_w_m2k(mass_flux_kg_m2s) * 1.5
        else:
            wall_htc = self.two_phase_htc_w_m2k(
                quality, mass_flux_kg_m2s, heat_flux_w_m2, t_sat_c
            )
        return wall_htc * self.geometry.area_enhancement

    def _cooper_prefactor(self, t_sat_c: float) -> float:
        """The heat-flux-independent factor of the Cooper correlation."""
        reduced = self.refrigerant.reduced_pressure(t_sat_c)
        return (
            55.0
            * reduced**0.12
            * (-math.log10(reduced)) ** (-0.55)
            * self.refrigerant.molar_mass_kg_kmol ** (-0.5)
        )

    def _two_phase_htc_array(
        self,
        quality: np.ndarray,
        h_liquid: np.ndarray,
        cooper_prefactor: np.ndarray,
        heat_flux_w_m2: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`two_phase_htc_w_m2k` over lanes at one cell.

        ``h_liquid`` (the single-phase HTC) and ``cooper_prefactor`` carry
        each lane's operating-point scalars.  Operation-for-operation
        identical to the scalar method (same association order, same
        guards) so the batched march reproduces the per-lane golden path
        to round-off.
        """
        quality = np.clip(quality, 0.0, 1.0)
        h_nucleate = cooper_prefactor * np.maximum(heat_flux_w_m2, 100.0) ** 0.67
        h_convective = h_liquid * (1.0 + 1.0 * quality**0.8)
        h_wet = (h_nucleate**2 + h_convective**2) ** 0.5

        onset_quality = 0.10
        span = max(self.dryout_quality - onset_quality, 1e-6)
        progress = np.minimum((quality - onset_quality) / span, 1.0)
        h_wet = np.where(quality > onset_quality, h_wet * (1.0 - 0.65 * progress), h_wet)

        dry_span = max(1.0 - self.dryout_quality, 1e-6)
        weight = (quality - self.dryout_quality) / dry_span
        return np.where(
            quality <= self.dryout_quality,
            h_wet,
            h_wet * (1.0 - weight) + VAPOR_PHASE_HTC_W_M2K * weight,
        )

    # ------------------------------------------------------------------ #
    # Channel marching
    # ------------------------------------------------------------------ #
    def solve_channel(
        self,
        heat_per_cell_w: np.ndarray,
        mass_flow_kg_s: float,
        t_sat_c: float,
        *,
        inlet_subcooling_c: float = 3.0,
        inlet_quality: float = 0.0,
        cell_base_area_m2: float,
        saturation_slope_c_per_cell: float = 0.0,
    ) -> ChannelSolution:
        """March the refrigerant state along one channel lane.

        Parameters
        ----------
        heat_per_cell_w:
            Heat absorbed from the base in each cell along the flow
            direction (W); the first entry is the inlet cell.
        mass_flow_kg_s:
            Refrigerant mass flow through this lane.
        t_sat_c:
            Saturation temperature set by the condenser.
        inlet_subcooling_c:
            How far below saturation the liquid enters.
        inlet_quality:
            Non-zero when the filling ratio is too low and vapor reaches the
            evaporator inlet.
        cell_base_area_m2:
            Base area of one grid cell, used to convert heat to heat flux.
        saturation_slope_c_per_cell:
            Small decrease of the local saturation temperature along the
            channel caused by the two-phase pressure drop.
        """
        heat_per_cell_w = np.asarray(heat_per_cell_w, dtype=float)
        if heat_per_cell_w.ndim != 1:
            raise ValidationError("heat_per_cell_w must be one-dimensional")
        check_positive(mass_flow_kg_s, "mass_flow_kg_s")
        check_positive(cell_base_area_m2, "cell_base_area_m2")

        refrigerant = self.refrigerant
        latent = refrigerant.latent_heat_j_kg(t_sat_c)
        cp_liquid = refrigerant.liquid_specific_heat_j_kgk
        mass_flux = mass_flow_kg_s / self.geometry.channel_flow_area_m2
        enhancement = self.geometry.area_enhancement

        n_cells = heat_per_cell_w.size
        quality = np.zeros(n_cells, dtype=float)
        fluid_temperature = np.zeros(n_cells, dtype=float)
        htc = np.zeros(n_cells, dtype=float)

        current_quality = min(max(inlet_quality, 0.0), 1.0)
        subcooling = max(inlet_subcooling_c, 0.0) if current_quality == 0.0 else 0.0
        dryout = False

        for index in range(n_cells):
            local_t_sat = t_sat_c - saturation_slope_c_per_cell * index
            cell_heat = float(heat_per_cell_w[index])
            heat_flux = cell_heat / (cell_base_area_m2 * enhancement)

            if subcooling > 0.0:
                # Sensible heating region: the liquid warms towards saturation.
                fluid_temperature[index] = local_t_sat - subcooling
                htc[index] = self.base_htc_w_m2k(
                    0.0, mass_flux, heat_flux, local_t_sat, subcooled=True
                )
                temperature_rise = cell_heat / max(mass_flow_kg_s * cp_liquid, 1e-9)
                subcooling = max(subcooling - temperature_rise, 0.0)
                quality[index] = 0.0
                continue

            # Saturated boiling region.
            fluid_temperature[index] = local_t_sat
            htc[index] = self.base_htc_w_m2k(
                current_quality, mass_flux, heat_flux, local_t_sat
            )
            current_quality = min(
                current_quality + cell_heat / max(mass_flow_kg_s * latent, 1e-9), 1.0
            )
            quality[index] = current_quality
            if current_quality > self.dryout_quality:
                dryout = True

        return ChannelSolution(
            quality=quality,
            fluid_temperature_c=fluid_temperature,
            base_htc_w_m2k=htc,
            dryout=dryout,
        )

    def solve_channels(
        self,
        heat_per_cell_w: np.ndarray,
        mass_flow_kg_s: float | np.ndarray,
        t_sat_c: float | np.ndarray,
        *,
        inlet_subcooling_c: float = 3.0,
        inlet_quality: float = 0.0,
        cell_base_area_m2: float,
        saturation_slope_c_per_cell: float = 0.0,
    ) -> ChannelBatchSolution:
        """March many parallel lanes at once.

        The batched counterpart of :meth:`solve_channel`: ``heat_per_cell_w``
        has shape ``(n_lanes, n_cells)`` (cells in flow-direction order).
        ``mass_flow_kg_s`` and ``t_sat_c`` give each lane its own mass flow
        and saturation temperature, as arrays of shape ``(n_lanes,)`` or as
        scalars shared by every lane, so the lanes of servers at different
        operating points march in one call; the inlet state is shared.
        Cells remain the sequential axis — the refrigerant state depends on
        everything upstream — but all lanes advance together through NumPy
        array arithmetic, removing the per-lane Python loop from the hot
        path.

        Lanes sharing a (mass flow, saturation temperature) pair form one
        operating point.  Its scalars — latent heat, mass flux, single-phase
        and subcooled HTC, and per cell the reduced pressure and Cooper
        prefactor — are evaluated once, with the scalar Python expressions
        of a single-point march, and repeated over the point's lanes, so
        every lane is bit-identical to marching its point alone.
        :meth:`solve_channel` is kept as the scalar golden model; the two
        must agree to round-off (see ``tests/test_lane_march_equivalence``).
        """
        heat_per_cell_w = np.asarray(heat_per_cell_w, dtype=float)
        if heat_per_cell_w.ndim != 2:
            raise ValidationError("heat_per_cell_w must be two-dimensional (n_lanes, n_cells)")
        n_lanes, n_cells = heat_per_cell_w.shape
        flows = _per_lane(mass_flow_kg_s, n_lanes, "mass_flow_kg_s")
        if not np.all(flows > 0.0) or not np.all(np.isfinite(flows)):
            raise ValidationError("mass_flow_kg_s must be finite and > 0 in every lane")
        t_sats = _per_lane(t_sat_c, n_lanes, "t_sat_c")
        check_positive(cell_base_area_m2, "cell_base_area_m2")

        refrigerant = self.refrigerant
        cp_liquid = refrigerant.liquid_specific_heat_j_kgk
        enhancement = self.geometry.area_enhancement
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
            h_liquid[point] = self.single_phase_htc_w_m2k(
                flow / self.geometry.channel_flow_area_m2
            )
            sensible_denominator[point] = max(flow * cp_liquid, 1e-9)
            latent_denominator[point] = max(flow * latent, 1e-9)
            for index in range(n_cells):
                cell_t_sat = t_sat - saturation_slope_c_per_cell * index
                local_t_sat[point, index] = cell_t_sat
                cooper_prefactor[point, index] = self._cooper_prefactor(cell_t_sat)
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
                self._two_phase_htc_array(
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
            dryout |= saturated & (current_quality > self.dryout_quality)

        return ChannelBatchSolution(
            quality=quality,
            fluid_temperature_c=fluid_temperature,
            base_htc_w_m2k=htc,
            dryout_per_lane=dryout,
        )


def _per_lane(value: float | np.ndarray, n_lanes: int, name: str) -> np.ndarray:
    """A scalar or ``(n_lanes,)`` argument as one float per lane."""
    values = np.asarray(value, dtype=float)
    if values.ndim == 0:
        return np.full(n_lanes, float(values))
    if values.shape != (n_lanes,):
        raise ValidationError(
            f"{name} must be a scalar or have shape ({n_lanes},), got {values.shape}"
        )
    return values
