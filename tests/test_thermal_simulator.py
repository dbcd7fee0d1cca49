"""High-level thermal simulator tests."""

import numpy as np
import pytest

from reference_kernel import TIER_B_C
from repro.thermal.boundary import uniform_cooling_boundary
from repro.thermal.simulator import ThermalSimulator


@pytest.fixture(scope="module")
def boundary(coarse_thermal_simulator):
    rows, columns = coarse_thermal_simulator.shape
    return uniform_cooling_boundary(rows, columns, 1.8e4, 40.0)


@pytest.fixture(scope="module")
def full_load_result(coarse_thermal_simulator, boundary, x264):
    powers = {f"core{i}": 7.0 for i in range(8)}
    powers.update({"llc": 2.0, "memory_controller": 8.0, "uncore_io": 5.0})
    return coarse_thermal_simulator.steady_state(powers, boundary)


class TestResultAccessors:
    def test_die_hotter_than_package(self, full_load_result):
        die = full_load_result.die_metrics()
        package = full_load_result.package_metrics()
        assert die.theta_max_c > package.theta_max_c
        assert die.theta_avg_c > package.theta_avg_c

    def test_die_gradient_exceeds_package_gradient(self, full_load_result):
        assert (
            full_load_result.die_metrics().grad_max_c_per_mm
            > full_load_result.package_metrics().grad_max_c_per_mm
        )

    def test_case_temperature_between_fluid_and_die(self, full_load_result):
        case = full_load_result.case_temperature_c()
        assert 40.0 < case < full_load_result.die_metrics().theta_max_c

    def test_core_temperatures_cover_all_cores(self, full_load_result):
        temperatures = full_load_result.core_temperatures_c()
        assert set(temperatures) == set(range(8))
        assert all(45.0 < value < 110.0 for value in temperatures.values())

    def test_core_temperature_max_ge_mean(self, full_load_result):
        for index in range(8):
            maximum = full_load_result.core_temperature_c(index, reduce="max")
            mean = full_load_result.core_temperature_c(index, reduce="mean")
            assert maximum >= mean

    def test_invalid_reduce_rejected(self, full_load_result):
        with pytest.raises(ValueError):
            full_load_result.core_temperature_c(0, reduce="median")

    def test_component_temperature(self, full_load_result):
        llc = full_load_result.component_temperature_c("llc")
        assert 40.0 < llc < full_load_result.die_metrics().theta_max_c + 1e-9


class TestSimulatorBehaviour:
    def test_active_cores_hotter_than_idle(self, coarse_thermal_simulator, boundary):
        powers = {"core0": 8.0, "core7": 0.5}
        result = coarse_thermal_simulator.steady_state(powers, boundary)
        assert result.core_temperature_c(0) > result.core_temperature_c(7) + 1.0

    def test_power_map_conserves_power(self, coarse_thermal_simulator):
        powers = {"core0": 5.0, "llc": 2.0}
        assert coarse_thermal_simulator.power_map(powers).sum() == pytest.approx(7.0)

    def test_transient_sequence(self, coarse_thermal_simulator, boundary):
        powers = {f"core{i}": 6.0 for i in range(8)}
        power_maps = coarse_thermal_simulator.power_map(powers)[np.newaxis]
        field = np.full((1, coarse_thermal_simulator.grid.n_cells), 40.0)
        peaks = []
        for _ in range(3):
            field = coarse_thermal_simulator.transient_step_many_from_maps(
                field, power_maps, boundary, dt_s=2.0
            )
            result = coarse_thermal_simulator.result_from_vector(field[0])
            peaks.append(result.die_metrics().theta_max_c)
        # Heating transient: the peak temperature rises monotonically.
        assert peaks == sorted(peaks)

    def test_steady_state_from_map_equivalent(self, coarse_thermal_simulator, boundary):
        powers = {f"core{i}": 6.0 for i in range(8)}
        from_dict = coarse_thermal_simulator.steady_state(powers, boundary)
        from_map = coarse_thermal_simulator.steady_state_from_map(
            coarse_thermal_simulator.power_map(powers), boundary
        )
        assert np.allclose(from_dict.temperatures_c, from_map.temperatures_c)


class TestTransientFixedPoint:
    """A steady field is a fixed point of the backward-Euler step."""

    @pytest.fixture(scope="class", params=(2.0, 1.0), ids=lambda mm: f"{mm}mm")
    def simulator(self, request, floorplan):
        return ThermalSimulator(floorplan, cell_size_mm=request.param)

    @pytest.mark.parametrize("dt_s", (0.05, 2.0, 60.0))
    @pytest.mark.parametrize("cooling", ("uniform", "loop"))
    def test_steady_field_does_not_move(
        self, simulator, thermosyphon_loop, cooling, dt_s
    ):
        full_load = {f"core{i}": 6.0 for i in range(8)}
        full_load.update({"llc": 2.0, "memory_controller": 8.0, "uncore_io": 5.0})
        maps = np.stack(
            [simulator.power_map(powers) for powers in (full_load, {"core0": 8.0})]
        )
        if cooling == "uniform":
            boundary = uniform_cooling_boundary(*simulator.shape, 1.8e4, 40.0)
        else:
            boundary = thermosyphon_loop.cooling_boundary(
                maps[0],
                simulator.grid.cell_pitch_mm(),
                thermosyphon_loop.operating_point(float(maps[0].sum())),
            ).boundary
        steady = simulator.steady_state_many_from_maps(maps, boundary)
        stepped = simulator.transient_step_many_from_maps(steady, maps, boundary, dt_s)
        assert np.max(np.abs(stepped - steady)) <= TIER_B_C
