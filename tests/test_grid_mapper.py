"""Grid mapper (power rasterisation) tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import FloorplanError, ValidationError
from repro.floorplan.grid_mapper import GridMapper


@pytest.fixture(scope="module")
def mapper(floorplan):
    return GridMapper(floorplan, floorplan.spreader_outline, 19, 19)


class TestPowerConservation:
    def test_total_power_preserved(self, mapper):
        powers = {"core0": 5.0, "core4": 7.0, "llc": 2.0, "memory_controller": 9.0}
        grid = mapper.power_map(powers)
        assert grid.sum() == pytest.approx(sum(powers.values()), rel=1e-9)

    def test_component_mask_sums_to_one(self, mapper, floorplan):
        for component in floorplan:
            mask = mapper.component_mask(component.name)
            assert mask.sum() == pytest.approx(1.0, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        core_power=st.floats(0.0, 20.0),
        llc_power=st.floats(0.0, 5.0),
        uncore_power=st.floats(0.0, 20.0),
    )
    def test_power_conservation_property(self, mapper, core_power, llc_power, uncore_power):
        powers = {"core2": core_power, "llc": llc_power, "uncore_io": uncore_power}
        grid = mapper.power_map(powers)
        assert grid.sum() == pytest.approx(core_power + llc_power + uncore_power, abs=1e-9)
        assert (grid >= 0.0).all()


class TestErrorHandling:
    def test_unknown_component_rejected(self, mapper):
        with pytest.raises(FloorplanError):
            mapper.power_map({"gpu": 10.0})

    def test_negative_power_rejected(self, mapper):
        with pytest.raises(ValidationError):
            mapper.power_map({"core0": -1.0})

    def test_cell_rect_out_of_range(self, mapper):
        with pytest.raises(ValidationError):
            mapper.cell_rect(100, 0)


class TestGeometry:
    def test_power_lands_inside_component_footprint(self, mapper, floorplan):
        core = floorplan.component("core0")
        grid = mapper.power_map({"core0": 10.0})
        rows, columns = np.nonzero(grid)
        for row, column in zip(rows, columns):
            cell = mapper.cell_rect(row, column)
            assert cell.overlap_area(core.rect) > 0.0

    def test_die_mask_covers_die_area(self, mapper, floorplan):
        mask = mapper.die_mask()
        cell_area = mapper.cell_width * mapper.cell_height
        covered = mask.sum() * cell_area
        assert covered == pytest.approx(floorplan.die_outline.area, rel=0.15)

    def test_heat_flux_map_scaling(self, mapper):
        powers = {"core0": 10.0}
        power_map = mapper.power_map(powers)
        flux_map = mapper.heat_flux_map(powers)
        cell_area_m2 = (mapper.cell_width * 1e-3) * (mapper.cell_height * 1e-3)
        assert np.allclose(flux_map * cell_area_m2, power_map)

    def test_cell_centres_monotone(self, mapper):
        xs, ys = mapper.cell_centres_mm()
        assert (np.diff(xs) > 0).all()
        assert (np.diff(ys) > 0).all()

    def test_total_power_helper(self, mapper):
        assert mapper.total_power({"core1": 4.0, "core5": 6.0}) == pytest.approx(10.0)


@pytest.fixture(scope="module")
def fine_mapper(floorplan):
    """0.5 mm cells: every component has cells lying wholly inside it."""
    return GridMapper(floorplan, floorplan.spreader_outline, 76, 76)


def _interior(mapper, component):
    """Boolean mask of the cells lying wholly inside ``component``."""
    cell_area = mapper.cell_width * mapper.cell_height
    coverage = mapper.component_mask(component.name) * component.area_mm2 / cell_area
    return np.isclose(coverage, 1.0, rtol=0.0, atol=1e-9)


class TestHeatFluxMap:
    """The per-cell heat flux is component power over component area."""

    def test_interior_flux_is_power_over_area(self, fine_mapper, floorplan):
        core = floorplan.component("core0")
        flux = fine_mapper.heat_flux_map({"core0": 7.0})
        interior = _interior(fine_mapper, core)
        assert interior.any()
        assert flux[interior] == pytest.approx(7.0 / (core.area_mm2 * 1e-6), rel=1e-9)

    def test_edge_cells_never_exceed_the_component_flux(self, fine_mapper, floorplan):
        """A cell straddling a component edge carries the component's flux
        over its covered fraction only, and the map integrates to the power."""
        core = floorplan.component("core3")
        flux = fine_mapper.heat_flux_map({"core3": 9.0})
        cell_area_m2 = (fine_mapper.cell_width * 1e-3) * (fine_mapper.cell_height * 1e-3)
        assert flux.max() <= 9.0 / (core.area_mm2 * 1e-6) * (1.0 + 1e-9)
        assert flux.sum() * cell_area_m2 == pytest.approx(9.0, rel=1e-9)

    def test_unmentioned_components_have_zero_flux(self, fine_mapper, floorplan):
        flux = fine_mapper.heat_flux_map({"core0": 7.0})
        assert not flux[fine_mapper.component_mask("core0") == 0.0].any()
        assert not flux[_interior(fine_mapper, floorplan.component("llc"))].any()

    def test_empty_mapping_gives_a_zero_map(self, fine_mapper):
        flux = fine_mapper.heat_flux_map({})
        assert flux.shape == (fine_mapper.n_rows, fine_mapper.n_columns)
        assert not flux.any()

    def test_unknown_component_rejected(self, fine_mapper):
        with pytest.raises(FloorplanError):
            fine_mapper.heat_flux_map({"gpu": 5.0})

    def test_negative_power_rejected(self, fine_mapper):
        with pytest.raises(ValidationError):
            fine_mapper.heat_flux_map({"core0": -1.0})

    def test_peak_flux_lies_inside_the_hottest_core(self, fine_mapper, floorplan):
        core3 = floorplan.component("core3")
        flux = fine_mapper.heat_flux_map({"core0": 5.0, "core3": 9.0, "llc": 2.0})
        assert flux.max() == pytest.approx(9.0 / (core3.area_mm2 * 1e-6), rel=1e-9)
        peak = np.unravel_index(np.argmax(flux), flux.shape)
        assert _interior(fine_mapper, core3)[peak]

    def test_core_flux_higher_than_uncore_flux(
        self, fine_mapper, floorplan, power_model, x264
    ):
        """Cores are the densest heat sources on the die, as the paper assumes."""
        breakdown = power_model.all_cores_active(
            x264.core_power_parameters(), 3.2, memory_intensity=x264.memory_intensity
        )
        flux = fine_mapper.heat_flux_map(breakdown.component_power_w)

        def interior_flux(name):
            return flux[_interior(fine_mapper, floorplan.component(name))].max()

        core_flux = interior_flux("core0")
        for uncore in ("llc", "memory_controller", "uncore_io"):
            assert core_flux > interior_flux(uncore)

    def test_no_core_powered_leaves_every_core_cold(self, fine_mapper, floorplan):
        flux = fine_mapper.heat_flux_map({"llc": 2.0, "memory_controller": 6.0})
        for core in floorplan.cores:
            assert not flux[_interior(fine_mapper, core)].any()
