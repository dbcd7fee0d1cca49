"""Micro-channel evaporator geometry and flow-boiling heat transfer model.

The evaporator is a copper plate with parallel rectangular micro-channels
machined into its top surface.  Refrigerant enters slightly subcooled, heats
up to saturation, boils as it traverses the channel, and may dry out if the
local vapor quality exceeds a critical value.  The local heat transfer
coefficient is modelled with a standard flow-boiling composition: a Cooper
pool-boiling (nucleate) term combined with a Dittus-Boelter convective term
enhanced by the vapor quality, and a sharp degradation beyond the dryout
quality.

Two marches share that physics.  :meth:`EvaporatorModel.solve_channel`
walks one lane cell by cell in Python floats and is the scalar golden.
:meth:`EvaporatorModel.solve_channels`, the production path, marches many
lanes without a loop over cells: with non-negative heat the subcooling
left and the quality gained are running sums along the channel whose
clamps (at zero and at one) are absorbing, so one ``accumulate`` each,
subtracting and adding in the cell order, gives the cell-by-cell values
exactly.  The tests hold it to the scalar golden at 1e-12 and to the
batched cell loop it replaced (``tests/reference_lane_march.py``) at
``==``.
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

    def _cooper_prefactors(self, t_sat_c: np.ndarray) -> list[float]:
        """The heat-flux-independent Cooper factor at each saturation temperature.

        One reduced-pressure lookup for the whole array, then the
        expression of :meth:`nucleate_boiling_htc_w_m2k` per element in
        Python floats (``math.log10``, ``**``), so each factor has the
        scalar expression's bits.
        """
        molar_factor = self.refrigerant.molar_mass_kg_kmol ** (-0.5)
        return [
            55.0 * reduced**0.12 * (-math.log10(reduced)) ** (-0.55) * molar_factor
            for reduced in self.refrigerant.reduced_pressures(t_sat_c).tolist()
        ]

    def _two_phase_htc_array(
        self,
        quality: np.ndarray,
        h_liquid: np.ndarray,
        cooper_prefactor: np.ndarray,
        heat_flux_w_m2: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`two_phase_htc_w_m2k`, elementwise over broadcast arrays.

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
        has shape ``(n_lanes, n_cells)`` (cells in flow-direction order)
        and must be finite and non-negative in every cell.
        ``mass_flow_kg_s`` and ``t_sat_c`` give each lane its own mass flow
        and saturation temperature, as arrays of shape ``(n_lanes,)`` or as
        scalars shared by every lane, so the lanes of servers at different
        operating points march in one call; the inlet state is shared.

        The refrigerant state depends on everything upstream, but only
        through two running sums along the channel, so no Python loop
        walks the cells:

        * the subcooling entering cell ``i`` is ``max(s0 - r_0 - ... -
          r_{i-1}, 0)`` (``r`` the sensible temperature rises), one
          ``np.subtract.accumulate`` that subtracts in the cell order;
        * the quality entering cell ``i`` is ``min(x0 + w_0 + ... +
          w_{i-1}, 1)`` with ``w`` the quality rise of saturated cells and
          ``0.0`` elsewhere, one ``np.add.accumulate``.

        With non-negative heat every rise is non-negative, so both clamps
        are absorbing: once the subcooling reaches zero (the quality one)
        it stays there, and clamping the finished sum gives the value a
        cell-by-cell march that clamps at every step holds.  Adding
        ``0.0`` and subtracting in the same order change no bits, so every
        output equals that march exactly (``tests/reference_lane_march``
        keeps it as the ``==`` golden).  Regions, fluid temperature, HTC,
        quality and dryout are then evaluated once on the
        ``(n_lanes, n_cells)`` arrays.

        Lanes sharing a (mass flow, saturation temperature) pair form one
        operating point.  Its scalars — latent heat, mass flux, single-phase
        and subcooled HTC — are evaluated once, with the scalar Python
        expressions of a single-point march, and repeated over the point's
        lanes, so every lane is bit-identical to marching its point alone.
        Each point's row of local saturation temperatures takes one
        reduced-pressure table lookup; the Cooper prefactor is then
        evaluated per cell in Python floats, because NumPy's vectorized
        ``**`` and ``log10`` are not ``math``'s bit for bit.
        :meth:`solve_channel` is kept as the scalar golden model; the two
        must agree to 1e-12 (see ``tests/test_lane_march_equivalence``).
        """
        heat_per_cell_w = np.asarray(heat_per_cell_w, dtype=float)
        if heat_per_cell_w.ndim != 2:
            raise ValidationError("heat_per_cell_w must be two-dimensional (n_lanes, n_cells)")
        if not (np.all(np.isfinite(heat_per_cell_w)) and np.all(heat_per_cell_w >= 0.0)):
            raise ValidationError("heat_per_cell_w must be finite and >= 0 in every cell")
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
        local_t_sat = points[:, 1:] - saturation_slope_c_per_cell * np.arange(n_cells)
        cooper_prefactor = np.empty((n_points, n_cells))
        for point, (flow, t_sat) in enumerate(points.tolist()):
            latent = refrigerant.latent_heat_j_kg(t_sat)
            h_liquid[point] = self.single_phase_htc_w_m2k(
                flow / self.geometry.channel_flow_area_m2
            )
            sensible_denominator[point] = max(flow * cp_liquid, 1e-9)
            latent_denominator[point] = max(flow * latent, 1e-9)
            cooper_prefactor[point] = self._cooper_prefactors(local_t_sat[point])
        h_subcooled = (h_liquid * 1.5) * enhancement

        # Repeat each point's scalars over its lanes.
        h_liquid = h_liquid[lane_point, np.newaxis]
        h_subcooled = h_subcooled[lane_point, np.newaxis]
        local_t_sat = local_t_sat[lane_point]
        cooper_prefactor = cooper_prefactor[lane_point]
        heat_flux = heat_per_cell_w / (cell_base_area_m2 * enhancement)
        temperature_rise = heat_per_cell_w / sensible_denominator[lane_point, np.newaxis]
        quality_rise = heat_per_cell_w / latent_denominator[lane_point, np.newaxis]

        inlet = min(max(inlet_quality, 0.0), 1.0)
        initial_subcooling = max(inlet_subcooling_c, 0.0) if inlet == 0.0 else 0.0

        # Sensible heating region: the subcooling entering each cell.
        subcooling = np.empty((n_lanes, n_cells + 1))
        subcooling[:, 0] = initial_subcooling
        subcooling[:, 1:] = temperature_rise
        subcooling = np.subtract.accumulate(subcooling, axis=1)[:, :-1]
        subcooled = subcooling > 0.0
        saturated = ~subcooled

        # Saturated boiling region: the quality entering (column i) and
        # leaving (column i + 1) each cell, by the energy balance.
        quality_path = np.empty((n_lanes, n_cells + 1))
        quality_path[:, 0] = inlet
        quality_path[:, 1:] = np.where(saturated, quality_rise, 0.0)
        quality_path = np.minimum(np.add.accumulate(quality_path, axis=1), 1.0)

        h_two_phase = (
            self._two_phase_htc_array(
                quality_path[:, :-1], h_liquid, cooper_prefactor, heat_flux
            )
            * enhancement
        )
        quality = np.where(saturated, quality_path[:, 1:], 0.0)
        return ChannelBatchSolution(
            quality=quality,
            fluid_temperature_c=np.where(subcooled, local_t_sat - subcooling, local_t_sat),
            base_htc_w_m2k=np.where(subcooled, h_subcooled, h_two_phase),
            dryout_per_lane=(quality > self.dryout_quality).any(axis=1),
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
