"""Refrigerant property model tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError, ValidationError
from repro.thermosyphon.refrigerant import REFRIGERANTS, get_refrigerant


class TestDatabase:
    def test_paper_refrigerant_available(self):
        assert "R236fa" in REFRIGERANTS

    def test_alternatives_available(self):
        for name in ("R134a", "R245fa", "R1234ze"):
            assert name in REFRIGERANTS

    def test_unknown_refrigerant(self):
        with pytest.raises(ConfigurationError):
            get_refrigerant("R22")


class TestSaturationCurve:
    @pytest.mark.parametrize("name", sorted(REFRIGERANTS))
    def test_pressure_monotone_in_temperature(self, name):
        refrigerant = get_refrigerant(name)
        pressures = [refrigerant.saturation_pressure_kpa(t) for t in range(0, 81, 10)]
        assert pressures == sorted(pressures)

    @pytest.mark.parametrize("name", sorted(REFRIGERANTS))
    def test_saturation_temperature_inverts_pressure(self, name):
        refrigerant = get_refrigerant(name)
        for temperature in (10.0, 35.0, 60.0):
            pressure = refrigerant.saturation_pressure_kpa(temperature)
            assert refrigerant.saturation_temperature_c(pressure) == pytest.approx(
                temperature, abs=0.5
            )

    def test_r236fa_reference_values(self):
        """Anchor values close to published R236fa saturation data."""
        refrigerant = get_refrigerant("R236fa")
        assert refrigerant.saturation_pressure_kpa(30.0) == pytest.approx(321.0, rel=0.05)
        assert refrigerant.latent_heat_j_kg(30.0) == pytest.approx(155e3, rel=0.05)
        assert refrigerant.liquid_density_kg_m3(30.0) == pytest.approx(1346.0, rel=0.03)

    @pytest.mark.parametrize("name", sorted(REFRIGERANTS))
    def test_latent_heat_decreases_with_temperature(self, name):
        refrigerant = get_refrigerant(name)
        values = [refrigerant.latent_heat_j_kg(t) for t in range(0, 81, 20)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("name", sorted(REFRIGERANTS))
    def test_liquid_denser_than_vapor(self, name):
        refrigerant = get_refrigerant(name)
        for temperature in (10.0, 40.0, 70.0):
            assert refrigerant.liquid_density_kg_m3(temperature) > refrigerant.vapor_density_kg_m3(
                temperature
            )

    @pytest.mark.parametrize("name", sorted(REFRIGERANTS))
    def test_reduced_pressure_in_unit_interval(self, name):
        refrigerant = get_refrigerant(name)
        for temperature in (10.0, 40.0, 70.0):
            assert 0.0 < refrigerant.reduced_pressure(temperature) < 1.0

    @pytest.mark.parametrize("name", sorted(REFRIGERANTS))
    def test_array_reduced_pressures_equal_scalar_calls(self, name):
        """One table lookup per array, each element the scalar call's bits."""
        refrigerant = get_refrigerant(name)
        temperatures = np.linspace(-5.0, 85.0, 2001)
        reduced = refrigerant.reduced_pressures(temperatures)
        assert reduced.tolist() == [
            refrigerant.reduced_pressure(t) for t in temperatures.tolist()
        ]

    def test_array_reduced_pressures_check_the_range(self):
        refrigerant = replace(get_refrigerant("R236fa"), critical_pressure_kpa=500.0)
        with pytest.raises(ValidationError, match="reduced pressure"):
            refrigerant.reduced_pressure(75.0)
        with pytest.raises(ValidationError, match="reduced pressure"):
            refrigerant.reduced_pressures(np.array([30.0, 40.0, 75.0]))
        assert refrigerant.reduced_pressures(np.array([30.0, 40.0])).tolist() == [
            refrigerant.reduced_pressure(30.0),
            refrigerant.reduced_pressure(40.0),
        ]


class TestTwoPhaseMixture:
    @given(quality=st.floats(min_value=0.0, max_value=1.0))
    def test_mixture_density_between_phases(self, quality):
        refrigerant = get_refrigerant("R236fa")
        density = refrigerant.two_phase_density_kg_m3(40.0, quality)
        assert (
            refrigerant.vapor_density_kg_m3(40.0) - 1e-9
            <= density
            <= refrigerant.liquid_density_kg_m3(40.0) + 1e-9
        )

    def test_mixture_density_monotone_in_quality(self):
        refrigerant = get_refrigerant("R236fa")
        densities = [refrigerant.two_phase_density_kg_m3(40.0, x) for x in (0.0, 0.2, 0.5, 1.0)]
        assert densities == sorted(densities, reverse=True)

    def test_prandtl_number_plausible(self):
        for refrigerant in REFRIGERANTS.values():
            assert 1.0 < refrigerant.liquid_prandtl() < 10.0
