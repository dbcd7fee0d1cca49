"""Thermal network, steady-state and transient solver tests.

The steady-state solver is validated against a hand-computed one-dimensional
resistance calculation for a uniform power map and a uniform boundary, and
the transient solver is cross-checked against the steady-state solution.
"""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.floorplan.grid_mapper import GridMapper
from repro.thermal.boundary import BottomBoundary, CoolingBoundary, uniform_cooling_boundary
from repro.thermal.grid import ThermalGrid
from repro.thermal.layers import standard_thermosyphon_stack
from repro.thermal.network import ThermalNetwork
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import TransientSolver
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
        solver = SteadyStateSolver(network)

        total_power = 80.0
        fluid_temperature = 40.0
        htc = 20000.0
        power_map = np.full((n, n), total_power / (n * n))
        boundary = uniform_cooling_boundary(n, n, htc, fluid_temperature)
        temperatures = solver.solve_layers(power_map, boundary)

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
        solver = SteadyStateSolver(network)
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1e4, 35.0)
        temperatures = solver.solve(np.zeros((grid.n_rows, grid.n_columns)), boundary)
        assert np.allclose(temperatures, 35.0, atol=1e-6)

    def test_more_power_is_hotter_everywhere(self, small_setup):
        grid, mapper, _, network = small_setup
        solver = SteadyStateSolver(network)
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        low = solver.solve(mapper.power_map({"core0": 5.0}), boundary)
        high = solver.solve(mapper.power_map({"core0": 10.0}), boundary)
        assert (high >= low - 1e-9).all()
        assert high.max() > low.max()

    def test_monotone_in_fluid_temperature(self, small_setup):
        grid, mapper, _, network = small_setup
        solver = SteadyStateSolver(network)
        power = mapper.power_map({f"core{i}": 6.0 for i in range(8)})
        cold = solver.solve(power, uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 30.0))
        warm = solver.solve(power, uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0))
        assert (warm > cold).all()

    def test_higher_htc_is_cooler(self, small_setup):
        grid, mapper, _, network = small_setup
        solver = SteadyStateSolver(network)
        power = mapper.power_map({f"core{i}": 6.0 for i in range(8)})
        weak = solver.solve(power, uniform_cooling_boundary(grid.n_rows, grid.n_columns, 5e3, 40.0))
        strong = solver.solve(power, uniform_cooling_boundary(grid.n_rows, grid.n_columns, 3e4, 40.0))
        assert strong.max() < weak.max()


class TestTransient:
    def test_settle_matches_steady_state(self, small_setup):
        grid, mapper, _, network = small_setup
        steady = SteadyStateSolver(network)
        transient = TransientSolver(network)
        power = mapper.power_map({f"core{i}": 5.0 for i in range(8)})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        steady_field = steady.solve(power, boundary)
        settled = transient.settle(power, boundary, dt_s=1.0, max_steps=400, tolerance_c=0.001)
        assert settled.steps < 400
        assert np.max(np.abs(settled.temperatures - steady_field)) < 0.2

    def test_settle_reports_non_convergence(self, small_setup):
        grid, mapper, _, network = small_setup
        transient = TransientSolver(network)
        power = mapper.power_map({f"core{i}": 5.0 for i in range(8)})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        result = transient.settle(
            power, boundary, dt_s=0.05, max_steps=2, tolerance_c=1e-9,
            initial_temperature_c=20.0,
        )
        assert not result.converged
        assert result.steps == 2
        assert result.residual_c > 1e-9

    def test_step_moves_towards_equilibrium(self, small_setup):
        grid, mapper, _, network = small_setup
        transient = TransientSolver(network)
        power = mapper.power_map({f"core{i}": 5.0 for i in range(8)})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        cold_start = np.full(grid.n_cells, 20.0)
        after = transient.step(cold_start, power, boundary, dt_s=0.5)
        assert after.mean() > cold_start.mean()

    def test_run_yields_one_field_per_step(self, small_setup):
        grid, mapper, _, network = small_setup
        transient = TransientSolver(network)
        power = mapper.power_map({"core0": 8.0})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        fields = list(transient.run(40.0, [power, power, power], boundary, dt_s=0.5))
        assert len(fields) == 3

    def test_boundary_sequence_length_mismatch(self, small_setup):
        grid, mapper, _, network = small_setup
        transient = TransientSolver(network)
        power = mapper.power_map({"core0": 8.0})
        boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
        with pytest.raises(ValidationError):
            list(transient.run(40.0, [power, power], [boundary], dt_s=0.5))
