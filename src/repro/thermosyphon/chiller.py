"""Chiller cooling-power model (Eq. 1 of the paper) and the shared plant.

The paper estimates the electrical power needed to cool the return water
back to the supply temperature as

    P = V_dot * rho * C_w * delta_T

with ``V_dot`` the volumetric flow rate in litres per second, ``rho`` the
density in kg/litre and ``C_w`` the specific heat in J/(kg K).  This is the
thermodynamic heat rate removed from the water; an optional coefficient of
performance converts it into compressor electrical power, and an optional
free-cooling fraction models the case where outside air removes part of the
load (the paper notes the real chiller burden is lower than Eq. 1 suggests).

:class:`ChillerPlant` extends the fixed-COP :class:`ChillerModel` into the
datacenter's supply-setpoint lever: the compressor COP follows a
Carnot-fraction law in the supply temperature and the free-cooling fraction
ramps in once the setpoint clears the outdoor air temperature, so *raising*
the chiller water supply temperature lowers the electrical power drawn for
the same heat load — the saving the supervisory setpoint controller of
:mod:`repro.datacenter` chases.

:class:`ChillerBank` is the staged version of the plant: N
:class:`ChillerUnit`\\ s, each with a rated thermal capacity, a part-load
efficiency curve (compressors are least efficient far from their design
load) and optional maintenance windows.  Every period the bank *commits* a
subset of the available units to the floor's thermal load — the cheapest
feasible commitment at equal part-load ratio — so unit staging becomes a
second plant-side degree of freedom next to the supply setpoint, and the
MPC supervisory layer of :mod:`repro.datacenter.mpc` optimizes over both.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError, ValidationError
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_positive_int,
)


def chiller_power_w(
    volumetric_flow_l_s: float,
    density_kg_per_l: float,
    specific_heat_j_kgk: float,
    delta_t_k: float,
) -> float:
    """Direct implementation of Eq. 1: ``P = V_dot * rho * C_w * delta_T``."""
    check_non_negative(volumetric_flow_l_s, "volumetric_flow_l_s")
    check_positive(density_kg_per_l, "density_kg_per_l")
    check_positive(specific_heat_j_kgk, "specific_heat_j_kgk")
    check_non_negative(delta_t_k, "delta_t_k")
    return volumetric_flow_l_s * density_kg_per_l * specific_heat_j_kgk * delta_t_k


@dataclass(frozen=True)
class ChillerModel:
    """Per-rack chiller supplying cold water to all thermosyphons.

    Attributes
    ----------
    coefficient_of_performance:
        Ratio of heat removed to electrical power drawn by the compressor;
        1.0 reproduces the paper's pessimistic Eq. 1 accounting.
    free_cooling_fraction:
        Fraction of the load removed for free by outside air (0 = none).
    """

    coefficient_of_performance: float = 1.0
    free_cooling_fraction: float = 0.0

    def __post_init__(self) -> None:
        check_positive(self.coefficient_of_performance, "coefficient_of_performance")
        check_fraction(self.free_cooling_fraction, "free_cooling_fraction")

    def chiller_at(self, supply_temperature_c: float) -> "ChillerModel":
        """This chiller, whatever the setpoint: a fixed-efficiency plant.

        The :meth:`ChillerPlant.chiller_at` interface, so a
        :class:`ChillerModel` can be a datacenter floor's plant.
        """
        return self

    def cooling_power_w(self, water_loop: WaterLoop, heat_w: float) -> float:
        """Electrical power to cool the loop's return water back to supply."""
        check_non_negative(heat_w, "heat_w")
        delta_t = water_loop.delta_t_c(heat_w)
        thermal = chiller_power_w(
            water_loop.volumetric_flow_l_s,
            water_loop.density_kg_m3 / 1000.0,
            water_loop.specific_heat_j_kgk,
            delta_t,
        )
        remaining = thermal * (1.0 - self.free_cooling_fraction)
        return remaining / self.coefficient_of_performance

    def cooling_power_w_many(
        self,
        water_loops: Sequence[WaterLoop] | WaterLoop,
        heats_w,
    ) -> np.ndarray:
        """Array-valued :meth:`cooling_power_w` for batched per-rack accounting.

        ``heats_w`` is an array of per-server (or per-rack) heat loads;
        ``water_loops`` is either one loop per entry or a single
        :class:`WaterLoop` broadcast across all of them (the shared-chiller
        case).  COP and free cooling are applied per loop exactly as in the
        scalar path, and the per-loop temperature rise follows the same
        rounding route as :meth:`WaterLoop.delta_t_c` (outlet minus inlet),
        so ``cooling_power_w_many(loops, heats)[i] ==
        cooling_power_w(loops[i], heats[i])`` **element for element, to the
        last bit** — asserted by the golden-model suite in
        ``tests/test_water_condenser_chiller.py``.  Validation matches the
        scalar path too: negative or non-finite heats raise
        :class:`~repro.exceptions.ValidationError`.
        """
        heats = np.asarray(heats_w, dtype=float)
        if heats.ndim != 1:
            raise ConfigurationError(
                f"heats_w must be one-dimensional, got shape {heats.shape}"
            )
        # Same contract as the scalar path's check_non_negative(heat_w):
        # every entry finite and >= 0, with the same exception type.
        if not np.all(np.isfinite(heats)):
            raise ValidationError("heats_w must be finite")
        if np.any(heats < 0.0):
            raise ValidationError("heats_w must be >= 0")
        if isinstance(water_loops, WaterLoop):
            loops: Sequence[WaterLoop] = (water_loops,) * heats.size
        else:
            loops = tuple(water_loops)
            if len(loops) != heats.size:
                raise ConfigurationError(
                    f"got {len(loops)} water loops for {heats.size} heat loads"
                )
        volumetric_l_s = np.array([loop.volumetric_flow_l_s for loop in loops])
        density_kg_l = np.array([loop.density_kg_m3 for loop in loops]) / 1000.0
        specific_heat = np.array([loop.specific_heat_j_kgk for loop in loops])
        rates = np.array([loop.heat_capacity_rate_w_per_k for loop in loops])
        inlets = np.array([loop.inlet_temperature_c for loop in loops])
        # (inlet + q/rate) - inlet, NOT q/rate: WaterLoop.delta_t_c computes
        # the rise as outlet minus inlet, and the two expressions differ in
        # the last float bits — the element-wise equality promised above
        # requires the identical rounding route.
        delta_t = (inlets + heats / rates) - inlets
        thermal = volumetric_l_s * density_kg_l * specific_heat * delta_t
        return thermal * (1.0 - self.free_cooling_fraction) / self.coefficient_of_performance

    def rack_cooling_power_w(
        self, water_loops_and_heats: Iterable[tuple[WaterLoop, float]]
    ) -> float:
        """Total chiller power for every thermosyphon fed by this rack chiller.

        Accepts any iterable of ``(water_loop, heat_w)`` pairs; the COP and
        free-cooling corrections are applied per loop (each term is one
        Eq. 1 evaluation scaled by ``(1 - free_cooling) / COP``), so the
        total equals the sum of the individual :meth:`cooling_power_w`
        calls.
        """
        return sum(self.cooling_power_w(loop, heat) for loop, heat in water_loops_and_heats)


@dataclass(frozen=True)
class ChillerPlant:
    """Shared chiller plant whose efficiency tracks the supply setpoint.

    One plant serves every rack of the datacenter floor.  Two effects make
    the water supply temperature an energy lever (both well established in
    datacenter practice, and the reason the paper's Section VIII pushes for
    the warmest feasible water temperature):

    * **Compressor COP** follows a Carnot-fraction law,
      ``COP = eta * T_supply / (T_reject - T_supply)`` (temperatures in
      kelvin), so a warmer supply setpoint means a smaller thermal lift and
      a more efficient compressor.
    * **Free cooling** ramps in once the setpoint clears the outdoor air
      temperature by an approach margin: part of the load is rejected
      without running the compressor at all.

    Attributes
    ----------
    carnot_efficiency:
        Fraction of the ideal (Carnot) COP the real compressor achieves.
    heat_rejection_temperature_c:
        Condenser-side (heat rejection) temperature of the chiller.
    max_cop:
        Upper clamp on the COP as the lift approaches zero.
    min_lift_c:
        Lower clamp on ``T_reject - T_supply`` guarding the Carnot pole.
    free_cooling_outdoor_c:
        Outdoor air (wet-bulb) temperature; ``None`` disables free cooling.
    free_cooling_approach_c:
        The setpoint must exceed the outdoor temperature by this margin
        before any free cooling is available.
    free_cooling_ramp_c:
        Span (degC above the approach point) over which the free-cooling
        fraction ramps from zero to ``max_free_cooling_fraction``.
    max_free_cooling_fraction:
        Largest fraction of the load the free-cooling path can absorb.
    """

    carnot_efficiency: float = 0.35
    heat_rejection_temperature_c: float = 45.0
    max_cop: float = 10.0
    min_lift_c: float = 2.0
    free_cooling_outdoor_c: float | None = None
    free_cooling_approach_c: float = 4.0
    free_cooling_ramp_c: float = 10.0
    max_free_cooling_fraction: float = 0.75

    def __post_init__(self) -> None:
        check_positive(self.carnot_efficiency, "carnot_efficiency")
        check_positive(self.max_cop, "max_cop")
        check_positive(self.min_lift_c, "min_lift_c")
        check_non_negative(self.free_cooling_approach_c, "free_cooling_approach_c")
        check_positive(self.free_cooling_ramp_c, "free_cooling_ramp_c")
        check_fraction(self.max_free_cooling_fraction, "max_free_cooling_fraction")

    def cop_at(self, supply_temperature_c: float) -> float:
        """Compressor COP at a given water supply setpoint.

        Monotonically non-decreasing in the setpoint: a warmer supply
        shrinks the thermal lift, clamped to ``[min_lift_c, inf)`` below and
        ``max_cop`` above so the model stays finite when the setpoint
        approaches (or exceeds) the rejection temperature.
        """
        supply_k = supply_temperature_c + 273.15
        lift_k = max(
            self.heat_rejection_temperature_c - supply_temperature_c, self.min_lift_c
        )
        return min(self.carnot_efficiency * supply_k / lift_k, self.max_cop)

    def free_cooling_fraction_at(self, supply_temperature_c: float) -> float:
        """Fraction of the load removed for free at a given setpoint.

        Zero until the setpoint clears the outdoor temperature by the
        approach margin, then ramping linearly to the maximum fraction;
        monotonically non-decreasing in the setpoint and non-increasing in
        the outdoor temperature.
        """
        if self.free_cooling_outdoor_c is None:
            return 0.0
        onset = self.free_cooling_outdoor_c + self.free_cooling_approach_c
        headroom = supply_temperature_c - onset
        if headroom <= 0.0:
            return 0.0
        fraction = headroom / self.free_cooling_ramp_c * self.max_free_cooling_fraction
        return min(fraction, self.max_free_cooling_fraction)

    def chiller_at(self, supply_temperature_c: float) -> ChillerModel:
        """The per-rack :class:`ChillerModel` this plant presents at a setpoint."""
        return ChillerModel(
            coefficient_of_performance=self.cop_at(supply_temperature_c),
            free_cooling_fraction=self.free_cooling_fraction_at(supply_temperature_c),
        )

    def plant_power_w(
        self,
        supply_temperature_c: float,
        water_loops_and_heats: Iterable[tuple[WaterLoop, float]],
    ) -> float:
        """Total plant electrical power across every loop it feeds.

        Equals the sum of the per-rack chiller powers at the same setpoint
        (:meth:`chiller_at` + :meth:`ChillerModel.rack_cooling_power_w`) —
        the plant is one chiller shared by all racks, not a second model.
        """
        return self.chiller_at(supply_temperature_c).rack_cooling_power_w(
            water_loops_and_heats
        )


@dataclass(frozen=True)
class ChillerUnit:
    """One chiller of a staged bank: capacity, part-load curve, maintenance.

    The unit's setpoint-dependent base efficiency (Carnot-fraction COP +
    free-cooling ramp) comes from its :class:`ChillerPlant`; on top of it a
    **part-load curve** degrades the COP when the unit runs far from its
    rated load — the standard behaviour of real compressors, and the reason
    staging matters: two units at 30% load each burn more electricity than
    one unit at 60%.

    Attributes
    ----------
    name:
        Stable identifier, recorded in :class:`StagingDecision.units_on`.
    capacity_w:
        Rated *thermal* load of the unit.  ``load_fraction = load / capacity``
        is the part-load ratio the efficiency curve is evaluated at.
    plant:
        The unit's setpoint-dependent COP / free-cooling laws.
    part_load_degradation:
        COP multiplier lost at zero load: the effective COP is
        ``COP * (1 - part_load_degradation * (1 - x)^2)`` at part-load ratio
        ``x`` — 1.0 at rated load, degrading quadratically away from it
        (both below rated load and in overload).
    min_part_load_cop_factor:
        Lower clamp of the part-load multiplier, keeping the model finite
        under deep part-load or heavy overload.
    maintenance_windows:
        ``(start_s, end_s)`` half-open intervals during which the unit is
        offline and cannot be committed.
    """

    name: str
    capacity_w: float
    plant: ChillerPlant = field(default_factory=ChillerPlant)
    part_load_degradation: float = 0.4
    min_part_load_cop_factor: float = 0.1
    maintenance_windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        check_positive(self.capacity_w, "capacity_w")
        check_fraction(self.part_load_degradation, "part_load_degradation")
        check_positive(self.min_part_load_cop_factor, "min_part_load_cop_factor")
        for start_s, end_s in self.maintenance_windows:
            if end_s <= start_s:
                raise ConfigurationError(
                    f"maintenance window ({start_s}, {end_s}) of unit "
                    f"{self.name!r} must have end > start"
                )

    def available(self, time_s: float) -> bool:
        """True when the unit is not inside a maintenance window."""
        return not any(
            start_s <= time_s < end_s for start_s, end_s in self.maintenance_windows
        )

    def part_load_cop_factor(self, load_fraction: float) -> float:
        """COP multiplier at a part-load ratio (1.0 at rated load)."""
        check_non_negative(load_fraction, "load_fraction")
        factor = 1.0 - self.part_load_degradation * (1.0 - load_fraction) ** 2
        return max(factor, self.min_part_load_cop_factor)

    def electrical_power_w(
        self, supply_temperature_c: float, thermal_load_w: float
    ) -> float:
        """Electrical power drawn while removing ``thermal_load_w``.

        The free-cooling path absorbs its setpoint-dependent fraction for
        free; the compressor removes the rest at the part-load-degraded COP.
        """
        check_non_negative(thermal_load_w, "thermal_load_w")
        if thermal_load_w == 0.0:
            return 0.0
        cop = self.plant.cop_at(supply_temperature_c)
        free = self.plant.free_cooling_fraction_at(supply_temperature_c)
        factor = self.part_load_cop_factor(thermal_load_w / self.capacity_w)
        return thermal_load_w * (1.0 - free) / (cop * factor)


@dataclass(frozen=True)
class StagingDecision:
    """One period's unit commitment of a :class:`ChillerBank`.

    ``load_fraction`` is the common part-load ratio of the committed units
    (load split proportionally to capacity); ``overloaded`` is set when
    even the full available bank cannot carry the load at rated capacity
    (the units then run past 1.0 with part-load-degraded efficiency).
    """

    time_s: float
    setpoint_c: float
    thermal_load_w: float
    units_on: tuple[str, ...]
    electrical_power_w: float
    load_fraction: float
    overloaded: bool
    n_available: int

    @property
    def n_units_on(self) -> int:
        """Number of committed units."""
        return len(self.units_on)


@dataclass(frozen=True)
class ChillerBank:
    """A staged bank of chiller units behind one shared water supply.

    The datacenter-scale plant: N :class:`ChillerUnit`\\ s share the supply
    setpoint, and every period the bank commits the **cheapest feasible
    subset** of the units available at that time — the subset minimizing
    total electrical power while carrying the floor's thermal load within
    rated capacity, with the load split proportionally to capacity so every
    committed unit runs at the same part-load ratio.  Small banks are
    staged by exact subset enumeration; banks larger than
    ``max_enumerated_units`` fall back to capacity-sorted prefixes.

    Exposes the same ``plant_power_w`` entry point as
    :class:`ChillerPlant` (plus :meth:`stage`, which also reports *which*
    units ran), so the datacenter session can drive either plant kind; the
    supervisory MPC optimizes the setpoint *through* the bank's staging —
    every rollout period re-stages at that period's load and time.
    """

    units: tuple[ChillerUnit, ...]
    max_enumerated_units: int = 8

    def __post_init__(self) -> None:
        if not self.units:
            raise ConfigurationError("a chiller bank needs at least one unit")
        names = [unit.name for unit in self.units]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"chiller unit names must be unique, got {names}")
        check_positive_int(self.max_enumerated_units, "max_enumerated_units")

    @classmethod
    def uniform(
        cls,
        n_units: int,
        unit_capacity_w: float,
        *,
        plant: ChillerPlant | None = None,
        part_load_degradation: float = 0.4,
        maintenance_windows: Sequence[tuple[tuple[float, float], ...]] | None = None,
    ) -> "ChillerBank":
        """N identical units named ``chiller0..N-1``.

        ``maintenance_windows[i]`` optionally gives unit ``i`` its offline
        intervals (shorter sequences leave the remaining units always on).
        """
        check_positive_int(n_units, "n_units")
        plant = plant if plant is not None else ChillerPlant()
        windows = list(maintenance_windows) if maintenance_windows is not None else []
        windows += [()] * (n_units - len(windows))
        return cls(
            units=tuple(
                ChillerUnit(
                    name=f"chiller{index}",
                    capacity_w=unit_capacity_w,
                    plant=plant,
                    part_load_degradation=part_load_degradation,
                    maintenance_windows=tuple(windows[index]),
                )
                for index in range(n_units)
            )
        )

    @property
    def n_units(self) -> int:
        """Number of units in the bank."""
        return len(self.units)

    @property
    def total_capacity_w(self) -> float:
        """Rated thermal capacity of the whole bank."""
        return sum(unit.capacity_w for unit in self.units)

    def available_units(self, time_s: float) -> tuple[ChillerUnit, ...]:
        """The units not under maintenance at ``time_s``."""
        return tuple(unit for unit in self.units if unit.available(time_s))

    def accounting_chiller(self) -> ChillerModel:
        """Unit-COP chiller for per-server *thermal* load accounting.

        Eq. 1 at COP 1 and zero free cooling returns exactly the heat rate
        each server dumps into the condenser water; the datacenter session
        sums these and hands the total to :meth:`stage` for the bank-level
        electrical conversion.
        """
        return ChillerModel(coefficient_of_performance=1.0, free_cooling_fraction=0.0)

    def _candidate_subsets(
        self, available: tuple[ChillerUnit, ...]
    ) -> list[tuple[ChillerUnit, ...]]:
        if len(available) <= self.max_enumerated_units:
            return [
                subset
                for size in range(1, len(available) + 1)
                for subset in itertools.combinations(available, size)
            ]
        ranked = sorted(available, key=lambda unit: -unit.capacity_w)
        return [tuple(ranked[: size + 1]) for size in range(len(ranked))]

    def stage(
        self, supply_temperature_c: float, thermal_load_w: float, time_s: float = 0.0
    ) -> StagingDecision:
        """Commit the cheapest feasible unit subset to a thermal load.

        Zero load commits nothing; a load beyond the available capacity
        commits every available unit in overload (part-load curve degrading
        past rated); no available unit at a positive load is a
        configuration error — the floor would boil.
        """
        check_non_negative(thermal_load_w, "thermal_load_w")
        available = self.available_units(time_s)
        if thermal_load_w == 0.0:
            return StagingDecision(
                time_s=time_s,
                setpoint_c=supply_temperature_c,
                thermal_load_w=0.0,
                units_on=(),
                electrical_power_w=0.0,
                load_fraction=0.0,
                overloaded=False,
                n_available=len(available),
            )
        if not available:
            raise ConfigurationError(
                f"no chiller unit available at t={time_s} s for a "
                f"{thermal_load_w:.1f} W load (all units under maintenance)"
            )

        def commitment_power(subset: tuple[ChillerUnit, ...]) -> tuple[float, float]:
            capacity = sum(unit.capacity_w for unit in subset)
            fraction = thermal_load_w / capacity
            power = sum(
                unit.electrical_power_w(
                    supply_temperature_c, unit.capacity_w * fraction
                )
                for unit in subset
            )
            return power, fraction

        best: tuple[ChillerUnit, ...] | None = None
        best_power = float("inf")
        best_fraction = 0.0
        for subset in self._candidate_subsets(available):
            power, fraction = commitment_power(subset)
            if fraction > 1.0:
                continue
            if power < best_power:
                best, best_power, best_fraction = subset, power, fraction
        overloaded = best is None
        if overloaded:
            best = available
            best_power, best_fraction = commitment_power(available)
        return StagingDecision(
            time_s=time_s,
            setpoint_c=supply_temperature_c,
            thermal_load_w=thermal_load_w,
            units_on=tuple(unit.name for unit in best),
            electrical_power_w=best_power,
            load_fraction=best_fraction,
            overloaded=overloaded,
            n_available=len(available),
        )

    def plant_power_w(
        self,
        supply_temperature_c: float,
        water_loops_and_heats: Iterable[tuple[WaterLoop, float]],
        time_s: float = 0.0,
    ) -> float:
        """Bank electrical power for a set of loops — staged, then summed.

        The per-loop heat rates (Eq. 1 at unit COP — the exact thermal
        loads) are summed and staged through :meth:`stage`; the signature
        mirrors :meth:`ChillerPlant.plant_power_w` with the staging time
        appended.
        """
        accounting = self.accounting_chiller()
        total = sum(
            accounting.cooling_power_w(loop, heat)
            for loop, heat in water_loops_and_heats
        )
        return self.stage(supply_temperature_c, total, time_s).electrical_power_w
