"""Thermal network and the solver cache's steady and transient solve bodies.

The steady solve is validated against a hand-computed one-dimensional
resistance calculation for a uniform power map and a uniform boundary; the
transient step's direction, monotonicity, row independence and input checks
are tested here, and its steady fixed point in ``test_thermal_simulator.py``.
"""

import numpy as np
import pytest

from reference_kernel import TIER_B_C
from repro.exceptions import ValidationError
from repro.floorplan.grid_mapper import GridMapper
from repro.thermal.boundary import BottomBoundary, CoolingBoundary, uniform_cooling_boundary
from repro.thermal.grid import ThermalGrid
from repro.thermal.layers import standard_thermosyphon_stack
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver_cache import FactorizationCache
from repro.utils.geometry import Rect


@pytest.fixture(scope="module")
def small_setup(floorplan):
    stack = standard_thermosyphon_stack()
    outline = floorplan.spreader_outline
    n = 13
    grid = ThermalGrid(outline, stack, n, n)
    mapper = GridMapper(floorplan, outline, n, n)
    die_mask = mapper.die_mask()
    network = ThermalNetwork(grid, die_mask, BottomBoundary(htc_w_m2k=0.0))
    return grid, mapper, die_mask, network


def _steady(cache, power_map, boundary, **kwargs):
    """One map's equilibrium field: a one-row stack through the steady body."""
    return cache._steady_fields(power_map[np.newaxis], boundary, **kwargs)[0]


class TestNetworkAssembly:
    def test_capacitance_positive(self, small_setup):
        _, _, _, network = small_setup
        assert (network.capacitance > 0.0).all()

    def test_bulk_matrix_row_sums_near_zero_without_boundaries(self, small_setup):
        """Pure conduction conserves energy: every row of G sums to ~0."""
        _, _, _, network = small_setup
        row_sums = np.asarray(network.bulk_matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums)) < 1e-6

    def test_power_vector_injected_in_die_layer(self, small_setup):
        grid, _, _, network = small_setup
        power_map = np.zeros((grid.n_rows, grid.n_columns))
        power_map[5, 5] = 10.0
        vector = network.power_vector(power_map)
        assert vector.sum() == pytest.approx(10.0)
        assert vector[grid.flat_index(grid.stack.heat_source_index, 5, 5)] == pytest.approx(10.0)

    def test_power_vector_shape_mismatch(self, small_setup):
        _, _, _, network = small_setup
        with pytest.raises(ValidationError):
            network.power_vector(np.zeros((3, 3)))

    def test_negative_power_rejected(self, small_setup):
        grid, _, _, network = small_setup
        power_map = np.full((grid.n_rows, grid.n_columns), -1.0)
        with pytest.raises(ValidationError):
            network.power_vector(power_map)

    def test_cooling_shape_mismatch_rejected(self, small_setup):
        grid, _, _, network = small_setup
        power_map = np.zeros((grid.n_rows, grid.n_columns))
        with pytest.raises(ValidationError):
            network.system(power_map, uniform_cooling_boundary(3, 3, 1e4, 40.0))


class TestSteadyStateAgainstAnalytic:
    def test_uniform_load_matches_1d_resistance(self, floorplan):
        """Uniform flux + uniform HTC reduces to a 1D series-resistance problem."""
        stack = standard_thermosyphon_stack()
        outline = floorplan.spreader_outline
        n = 13
        grid = ThermalGrid(outline, stack, n, n)
        # All-silicon die mask so the analytic stack is homogeneous in-plane.
        die_mask = np.ones((n, n), dtype=bool)
        network = ThermalNetwork(grid, die_mask, BottomBoundary(htc_w_m2k=0.0))
        cache = FactorizationCache(network)

        total_power = 80.0
        fluid_temperature = 40.0
        htc = 20000.0
        power_map = np.full((n, n), total_power / (n * n))
        boundary = uniform_cooling_boundary(n, n, htc, fluid_temperature)
        temperatures = _steady(cache, power_map, boundary).reshape(
            grid.n_layers, grid.n_rows, grid.n_columns
        )

        area = outline.width * outline.height * 1e-6
        flux = total_power / area
        # Series resistance from the middle of the die to the fluid.
        resistance = 0.0
        die_index = stack.heat_source_index
        resistance += stack[die_index].thickness_m / (2 * stack[die_index].material.thermal_conductivity_w_mk)
        for layer in stack.layers[die_index + 1 :]:
            resistance += layer.thickness_m / layer.material.thermal_conductivity_w_mk
        # The boundary attaches at the middle of the top layer in the network,
        # so remove half of the top layer again and add the convective film.
        resistance -= stack.layers[-1].thickness_m / (
            2 * stack.layers[-1].material.thermal_conductivity_w_mk
        )
        resistance += 1.0 / htc
        expected_die_temperature = fluid_temperature + flux * resistance

        centre = temperatures[0, n // 2, n // 2]
        assert centre == pytest.approx(expected_die_temperature, abs=1.5)

    def test_no_power_relaxes_to_fluid_temperature(self, small_setup):
        grid, _, _, network = small_setup
        cache = FactorizationCache(network)
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1e4, 35.0)
        temperatures = _steady(cache, np.zeros((grid.n_rows, grid.n_columns)), boundary)
        assert np.allclose(temperatures, 35.0, atol=1e-6)

    def test_more_power_is_hotter_everywhere(self, small_setup):
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        low = _steady(cache, mapper.power_map({"core0": 5.0}), boundary)
        high = _steady(cache, mapper.power_map({"core0": 10.0}), boundary)
        assert (high >= low - 1e-9).all()
        assert high.max() > low.max()

    def test_monotone_in_fluid_temperature(self, small_setup):
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        power = mapper.power_map({f"core{i}": 6.0 for i in range(8)})
        cold = _steady(cache, power, uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 30.0))
        warm = _steady(cache, power, uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0))
        assert (warm > cold).all()

    def test_higher_htc_is_cooler(self, small_setup):
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        power = mapper.power_map({f"core{i}": 6.0 for i in range(8)})
        weak = _steady(cache, power, uniform_cooling_boundary(grid.n_rows, grid.n_columns, 5e3, 40.0))
        strong = _steady(cache, power, uniform_cooling_boundary(grid.n_rows, grid.n_columns, 3e4, 40.0))
        assert strong.max() < weak.max()

    @pytest.mark.parametrize("lane", ("exact", "iterative"))
    def test_rows_solve_independently(self, small_setup, lane):
        """Row ``i`` of a stacked steady solve is map ``i`` solved alone, bit
        for bit, on the exact lane and on the iterative lane."""
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        reference = None
        if lane == "iterative":
            reference = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.4e4, 39.0)
        maps = np.stack(
            [
                mapper.power_map({"core0": 8.0}),
                mapper.power_map({f"core{i}": 5.0 for i in range(8)}),
                np.zeros((grid.n_rows, grid.n_columns)),
            ]
        )
        stacked = cache._steady_fields(maps, boundary, reference=reference)
        assert stacked.shape == (len(maps), grid.n_cells)
        for i, power_map in enumerate(maps):
            alone = _steady(cache, power_map, boundary, reference=reference)
            assert np.array_equal(stacked[i], alone)


class TestTransient:
    def test_step_moves_towards_equilibrium(self, small_setup):
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        power = mapper.power_map({f"core{i}": 5.0 for i in range(8)})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        cold_start = np.full((1, grid.n_cells), 20.0)
        after = cache._step_fields(cold_start, power[np.newaxis], boundary, dt_s=0.5)
        assert after.mean() > cold_start.mean()

    def test_stack_length_mismatch_rejected(self, small_setup):
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        power = mapper.power_map({"core0": 8.0})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        with pytest.raises(ValidationError):
            cache._step_fields(
                np.full((2, grid.n_cells), 40.0), power[np.newaxis], boundary, dt_s=0.5
            )

    @pytest.mark.parametrize("stack", ("flat", "wrong_cell_count"))
    def test_malformed_temperature_stack_rejected(self, small_setup, stack):
        """A single flat field or a stack of another grid is refused, not broadcast."""
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        power = mapper.power_map({"core0": 8.0})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        temperatures = {
            "flat": np.full(grid.n_cells, 40.0),
            "wrong_cell_count": np.full((1, grid.n_cells + 1), 40.0),
        }[stack]
        with pytest.raises(ValidationError):
            cache._step_fields(temperatures, power[np.newaxis], boundary, dt_s=0.5)

    @pytest.mark.parametrize("dt_s", (0.0, -0.5))
    def test_non_positive_step_rejected(self, small_setup, dt_s):
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        power = mapper.power_map({"core0": 8.0})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        with pytest.raises(ValidationError):
            cache._step_fields(
                np.full((1, grid.n_cells), 40.0), power[np.newaxis], boundary, dt_s=dt_s
            )

    def test_rows_advance_independently(self, small_setup):
        """Row ``i`` of a stacked step is field ``i`` stepped alone, bit for bit."""
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        maps = np.stack(
            [
                mapper.power_map({"core0": 8.0}),
                mapper.power_map({f"core{i}": 5.0 for i in range(8)}),
                np.zeros((grid.n_rows, grid.n_columns)),
            ]
        )
        fields = np.stack([np.full(grid.n_cells, t) for t in (20.0, 40.0, 60.0)])
        stacked = cache._step_fields(fields, maps, boundary, dt_s=0.5)
        assert stacked.shape == fields.shape
        for i in range(len(fields)):
            alone = cache._step_fields(fields[i : i + 1], maps[i : i + 1], boundary, 0.5)
            assert np.array_equal(stacked[i], alone[0])

    @pytest.mark.parametrize("dt_s", (0.05, 2.0, 60.0))
    def test_cold_start_heats_without_overshoot(self, small_setup, dt_s):
        """From a field below the coolant temperature every cell warms and
        stays below its steady value, and the gap to steady state shrinks
        each step: the backward-Euler operator is an M-matrix, so the march
        is monotone."""
        grid, mapper, _, network = small_setup
        cache = FactorizationCache(network)
        power = mapper.power_map({f"core{i}": 5.0 for i in range(8)})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        steady = _steady(cache, power, boundary)
        field = np.full((1, grid.n_cells), 20.0)
        gaps = [np.max(steady - field)]
        for _ in range(5):
            advanced = cache._step_fields(field, power[np.newaxis], boundary, dt_s)
            assert (advanced >= field - TIER_B_C).all()
            assert (advanced <= steady + TIER_B_C).all()
            field = advanced
            gaps.append(np.max(steady - field))
        assert all(later < earlier for earlier, later in zip(gaps, gaps[1:]))
