"""Refrigerant thermophysical property models.

Properties are stored as small saturation-line tables (0-80 degC) with linear
interpolation, which is accurate to a few percent over the thermosyphon's
operating range and keeps the library dependency-free.  Anchor values follow
published saturation tables for each fluid.

The paper's design uses R236fa; R134a, R245fa and R1234ze(E) are provided for
the refrigerant-selection design sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.interpolation import LinearTable1D
from repro.utils.validation import check_in_range

#: Temperatures (degC) at which the saturation-line tables are anchored.
_TABLE_TEMPERATURES_C = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0)

#: Reduced pressures the boiling correlations accept (closed interval).
_REDUCED_PRESSURE_RANGE = (1e-4, 0.999)


@dataclass(frozen=True)
class Refrigerant:
    """Saturation-line property model of one refrigerant.

    All property accessors take the saturation temperature in degrees
    Celsius and clamp it to the tabulated 0-80 degC range.
    """

    name: str
    molar_mass_kg_kmol: float
    critical_temperature_c: float
    critical_pressure_kpa: float
    #: Saturation pressure (kPa) vs temperature (degC).
    _pressure_table: LinearTable1D = field(repr=False)
    #: Latent heat of vaporisation (kJ/kg) vs temperature.
    _latent_heat_table: LinearTable1D = field(repr=False)
    #: Saturated liquid density (kg/m^3) vs temperature.
    _liquid_density_table: LinearTable1D = field(repr=False)
    #: Saturated vapor density (kg/m^3) vs temperature.
    _vapor_density_table: LinearTable1D = field(repr=False)
    #: Liquid thermal conductivity (W/m K), weakly temperature dependent.
    liquid_conductivity_w_mk: float = 0.08
    #: Liquid dynamic viscosity (Pa s).
    liquid_viscosity_pa_s: float = 3.0e-4
    #: Liquid specific heat (J/kg K).
    liquid_specific_heat_j_kgk: float = 1300.0
    #: Surface tension (N/m).
    surface_tension_n_m: float = 0.010

    # ------------------------------------------------------------------ #
    # Saturation-line properties
    # ------------------------------------------------------------------ #
    def saturation_pressure_kpa(self, temperature_c: float) -> float:
        """Saturation pressure in kPa at ``temperature_c``."""
        return self._pressure_table(temperature_c)

    def saturation_temperature_c(self, pressure_kpa: float) -> float:
        """Saturation temperature in degC at ``pressure_kpa``."""
        return self._pressure_table.inverse(pressure_kpa)

    def latent_heat_j_kg(self, temperature_c: float) -> float:
        """Latent heat of vaporisation in J/kg."""
        return self._latent_heat_table(temperature_c) * 1e3

    def liquid_density_kg_m3(self, temperature_c: float) -> float:
        """Saturated liquid density in kg/m^3."""
        return self._liquid_density_table(temperature_c)

    def vapor_density_kg_m3(self, temperature_c: float) -> float:
        """Saturated vapor density in kg/m^3."""
        return self._vapor_density_table(temperature_c)

    def reduced_pressure(self, temperature_c: float) -> float:
        """Reduced pressure ``p_sat / p_crit`` (used by boiling correlations)."""
        reduced = self.saturation_pressure_kpa(temperature_c) / self.critical_pressure_kpa
        return check_in_range(reduced, *_REDUCED_PRESSURE_RANGE, "reduced pressure")

    def reduced_pressures(self, temperatures_c: np.ndarray) -> np.ndarray:
        """:meth:`reduced_pressure` at every temperature of an array.

        One table lookup for the whole array; each element is bit-identical
        to the scalar call (the same interpolation and division), and an
        element outside the accepted range raises the scalar call's
        :class:`~repro.exceptions.ValidationError`.
        """
        reduced = self._pressure_table.sample(temperatures_c) / self.critical_pressure_kpa
        low, high = _REDUCED_PRESSURE_RANGE
        inside = (reduced >= low) & (reduced <= high)
        if not inside.all():
            check_in_range(float(reduced[~inside][0]), low, high, "reduced pressure")
        return reduced

    def liquid_prandtl(self) -> float:
        """Liquid Prandtl number (from the constant transport properties)."""
        return (
            self.liquid_specific_heat_j_kgk
            * self.liquid_viscosity_pa_s
            / self.liquid_conductivity_w_mk
        )

    def two_phase_density_kg_m3(self, temperature_c: float, quality: float) -> float:
        """Homogeneous two-phase mixture density at a given vapor quality."""
        quality = check_in_range(quality, 0.0, 1.0, "quality")
        rho_l = self.liquid_density_kg_m3(temperature_c)
        rho_v = self.vapor_density_kg_m3(temperature_c)
        return 1.0 / (quality / rho_v + (1.0 - quality) / rho_l)


def _make_refrigerant(
    name: str,
    molar_mass: float,
    t_crit_c: float,
    p_crit_kpa: float,
    pressures_kpa: tuple[float, ...],
    latent_heats_kj_kg: tuple[float, ...],
    liquid_densities: tuple[float, ...],
    vapor_densities: tuple[float, ...],
    *,
    conductivity: float,
    viscosity: float,
    specific_heat: float,
    surface_tension: float,
) -> Refrigerant:
    return Refrigerant(
        name=name,
        molar_mass_kg_kmol=molar_mass,
        critical_temperature_c=t_crit_c,
        critical_pressure_kpa=p_crit_kpa,
        _pressure_table=LinearTable1D(_TABLE_TEMPERATURES_C, pressures_kpa),
        _latent_heat_table=LinearTable1D(_TABLE_TEMPERATURES_C, latent_heats_kj_kg),
        _liquid_density_table=LinearTable1D(_TABLE_TEMPERATURES_C, liquid_densities),
        _vapor_density_table=LinearTable1D(_TABLE_TEMPERATURES_C, vapor_densities),
        liquid_conductivity_w_mk=conductivity,
        liquid_viscosity_pa_s=viscosity,
        liquid_specific_heat_j_kgk=specific_heat,
        surface_tension_n_m=surface_tension,
    )


#: Property database.  Anchor points at 0/10/20/30/40/50/60/70/80 degC.
REFRIGERANTS: dict[str, Refrigerant] = {
    refrigerant.name: refrigerant
    for refrigerant in (
        _make_refrigerant(
            "R236fa",
            molar_mass=152.04,
            t_crit_c=124.9,
            p_crit_kpa=3200.0,
            pressures_kpa=(160.0, 207.0, 272.0, 321.0, 434.0, 551.0, 687.0, 848.0, 1034.0),
            latent_heats_kj_kg=(168.0, 164.0, 160.0, 155.0, 150.0, 145.0, 139.0, 133.0, 126.0),
            liquid_densities=(1425.0, 1399.0, 1373.0, 1346.0, 1318.0, 1289.0, 1258.0, 1225.0, 1190.0),
            vapor_densities=(10.4, 13.6, 17.6, 22.4, 28.2, 35.2, 43.6, 53.6, 65.6),
            conductivity=0.075,
            viscosity=3.05e-4,
            specific_heat=1265.0,
            surface_tension=0.0105,
        ),
        _make_refrigerant(
            "R134a",
            molar_mass=102.03,
            t_crit_c=101.1,
            p_crit_kpa=4059.0,
            pressures_kpa=(293.0, 415.0, 572.0, 665.0, 1017.0, 1318.0, 1682.0, 2117.0, 2633.0),
            latent_heats_kj_kg=(199.0, 191.0, 182.0, 173.0, 163.0, 152.0, 140.0, 126.0, 109.0),
            liquid_densities=(1295.0, 1261.0, 1225.0, 1187.0, 1147.0, 1102.0, 1053.0, 996.0, 929.0),
            vapor_densities=(14.4, 20.2, 27.8, 32.4, 50.1, 66.3, 87.4, 115.6, 155.2),
            conductivity=0.083,
            viscosity=1.95e-4,
            specific_heat=1425.0,
            surface_tension=0.0081,
        ),
        _make_refrigerant(
            "R245fa",
            molar_mass=134.05,
            t_crit_c=154.0,
            p_crit_kpa=3651.0,
            pressures_kpa=(53.0, 74.0, 101.0, 149.0, 250.0, 344.0, 463.0, 611.0, 791.0),
            latent_heats_kj_kg=(204.0, 200.0, 196.0, 190.0, 184.0, 178.0, 171.0, 164.0, 156.0),
            liquid_densities=(1404.0, 1381.0, 1357.0, 1333.0, 1308.0, 1282.0, 1255.0, 1226.0, 1196.0),
            vapor_densities=(3.1, 4.3, 5.8, 8.6, 13.0, 17.6, 23.4, 30.6, 39.5),
            conductivity=0.081,
            viscosity=4.02e-4,
            specific_heat=1322.0,
            surface_tension=0.0135,
        ),
        _make_refrigerant(
            "R1234ze",
            molar_mass=114.04,
            t_crit_c=109.4,
            p_crit_kpa=3636.0,
            pressures_kpa=(218.0, 310.0, 428.0, 500.0, 766.0, 998.0, 1293.0, 1637.0, 2046.0),
            latent_heats_kj_kg=(184.0, 178.0, 172.0, 163.0, 156.0, 148.0, 139.0, 128.0, 116.0),
            liquid_densities=(1240.0, 1211.0, 1180.0, 1146.0, 1111.0, 1073.0, 1031.0, 985.0, 933.0),
            vapor_densities=(11.7, 16.4, 22.5, 26.3, 40.6, 53.6, 70.3, 92.0, 120.7),
            conductivity=0.075,
            viscosity=1.88e-4,
            specific_heat=1383.0,
            surface_tension=0.0089,
        ),
    )
}


def get_refrigerant(name: str) -> Refrigerant:
    """Return the refrigerant called ``name`` or raise ``ConfigurationError``."""
    try:
        return REFRIGERANTS[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown refrigerant {name!r}; available: {sorted(REFRIGERANTS)}"
        ) from exc
