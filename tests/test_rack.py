"""Rack-level model tests (shared chiller water temperature)."""

import pytest

from repro.core.rack import RackModel, ServerSlot
from repro.exceptions import ConfigurationError
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint


@pytest.fixture(scope="module")
def small_rack():
    slots = [
        ServerSlot(get_benchmark("x264"), QoSConstraint(2.0)),
        ServerSlot(get_benchmark("canneal"), QoSConstraint(2.0)),
    ]
    return RackModel(slots, cell_size_mm=2.5)


class TestEvaluation:
    def test_empty_rack_rejected(self):
        with pytest.raises(ConfigurationError):
            RackModel([])

    def test_evaluate_reports_per_server_results(self, small_rack):
        result = small_rack.evaluate(30.0)
        assert len(result.server_results) == 2
        assert result.total_it_power_w > 0.0
        assert result.chiller_power_w > 0.0
        assert result.worst_case_temperature_c >= max(
            r.case_temperature_c for r in result.server_results
        ) - 1e-9

    def test_colder_water_cools_the_rack(self, small_rack):
        warm = small_rack.evaluate(32.0)
        cold = small_rack.evaluate(20.0)
        assert cold.worst_die_hot_spot_c < warm.worst_die_hot_spot_c

    def test_all_within_limit_at_nominal_water(self, small_rack):
        assert small_rack.evaluate(30.0).all_within_limit

    def test_batched_evaluation_matches_direct_pipeline(self, small_rack):
        """Rack-session evaluation must reproduce per-slot pipeline runs."""
        from repro.thermosyphon.water_loop import WaterLoop

        batched = small_rack.evaluate(28.0)
        for slot, result in zip(small_rack.slots, batched.server_results):
            direct = small_rack._pipeline.run(
                slot.benchmark,
                slot.constraint,
                water_loop=WaterLoop(
                    inlet_temperature_c=28.0,
                    flow_rate_kg_h=small_rack.design.water_flow_rate_kg_h,
                ),
            )
            assert result.case_temperature_c == pytest.approx(
                direct.case_temperature_c, abs=1e-9
            )
            assert result.die_metrics.theta_max_c == pytest.approx(
                direct.die_metrics.theta_max_c, abs=1e-9
            )

    def test_chiller_power_uses_each_servers_water_loop(self, small_rack):
        result = small_rack.evaluate(30.0)
        expected = sum(
            small_rack.chiller.cooling_power_w(r.water_loop, r.package_power_w)
            for r in result.server_results
        )
        assert result.chiller_power_w == pytest.approx(expected)


class TestWaterTemperatureSearch:
    def test_warmest_feasible_water_is_within_bounds(self, small_rack):
        result = small_rack.warmest_feasible_water_temperature(
            low_c=15.0, high_c=40.0, tolerance_c=2.0
        )
        assert 15.0 <= result.water_inlet_temperature_c <= 40.0
        assert result.all_within_limit

    def test_invalid_bisection_bounds(self, small_rack):
        with pytest.raises(ConfigurationError):
            small_rack.warmest_feasible_water_temperature(low_c=40.0, high_c=20.0)

    def test_water_temperature_for_hot_spot_target(self, small_rack):
        nominal = small_rack.evaluate(30.0)
        target = nominal.worst_die_hot_spot_c - 3.0
        result = small_rack.water_temperature_for_hot_spot(
            target, low_c=10.0, high_c=30.0, tolerance_c=1.0
        )
        assert result.water_inlet_temperature_c < 30.0
        assert result.worst_die_hot_spot_c <= target + 0.5
