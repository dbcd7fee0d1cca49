"""Thermosyphon design-space optimiser tests (Section VI)."""

import pytest

from repro.core.design_optimizer import ThermosyphonDesignOptimizer
from repro.core.pipeline import CooledServerSimulation
from repro.power.power_model import CoreActivity
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, SEURET_REFERENCE_DESIGN
from repro.thermosyphon.orientation import Orientation


@pytest.fixture(scope="module")
def optimizer(floorplan, power_model, coarse_thermal_simulator):
    return ThermosyphonDesignOptimizer(
        floorplan,
        power_model=power_model,
        thermal_simulator=coarse_thermal_simulator,
    )


class TestEvaluation:
    def test_worst_case_evaluation_fields(self, optimizer):
        candidate = optimizer.evaluate_design(PAPER_OPTIMIZED_DESIGN)
        assert candidate.die_hot_spot_c > 40.0
        assert candidate.case_temperature_c > 30.0
        assert candidate.feasible == (
            candidate.case_temperature_c <= 85.0 and not candidate.dryout
        )

    def test_worst_case_uses_most_power_hungry_benchmark(self, optimizer):
        assert optimizer.worst_case_benchmark.name == "x264"

    def test_designs_differ_thermally(self, optimizer):
        paper, seuret = optimizer.evaluate_designs(
            [PAPER_OPTIMIZED_DESIGN, SEURET_REFERENCE_DESIGN]
        )
        assert paper.die_hot_spot_c != seuret.die_hot_spot_c

    def test_design_equals_direct_worst_case_simulation(
        self, optimizer, floorplan, power_model, coarse_thermal_simulator
    ):
        (candidate,) = optimizer.evaluate_designs([PAPER_OPTIMIZED_DESIGN])
        worst = optimizer.worst_case_benchmark
        activities = [
            CoreActivity.running(core.core_index, worst.core_power_parameters(), 2)
            for core in floorplan.cores
        ]
        direct = CooledServerSimulation(
            floorplan,
            design=PAPER_OPTIMIZED_DESIGN,
            power_model=power_model,
            thermal_simulator=coarse_thermal_simulator,
        ).simulate_activities(
            activities,
            3.2,
            memory_intensity=worst.memory_intensity,
            benchmark_name=worst.name,
        )
        assert candidate.die_hot_spot_c == direct.die_metrics.theta_max_c
        assert candidate.die_gradient_c_per_mm == direct.die_metrics.grad_max_c_per_mm
        assert candidate.case_temperature_c == direct.case_temperature_c
        assert candidate.dryout == direct.dryout


class TestSweeps:
    def test_orientation_sweep_covers_all_orientations(self, optimizer):
        results = optimizer.sweep_orientations(PAPER_OPTIMIZED_DESIGN)
        assert len(results) == len(Orientation)
        assert {candidate.design.orientation for candidate in results} == set(Orientation)

    def test_evaluate_designs_accepts_a_generator(self, optimizer):
        """Regression: a generator argument must not be silently exhausted."""
        ratios = (0.45, 0.55)
        results = optimizer.evaluate_designs(
            PAPER_OPTIMIZED_DESIGN.with_filling_ratio(ratio) for ratio in ratios
        )
        assert len(results) == len(ratios)
        assert [r.design.filling_ratio for r in results] == list(ratios)

    def test_filling_ratio_sweep_shows_undercharge_penalty(self, optimizer):
        results = optimizer.sweep_filling_ratios(PAPER_OPTIMIZED_DESIGN, (0.2, 0.55))
        starved, nominal = results
        assert starved.die_hot_spot_c > nominal.die_hot_spot_c

    def test_refrigerant_sweep(self, optimizer):
        results = optimizer.sweep_refrigerants(PAPER_OPTIMIZED_DESIGN, ("R236fa", "R134a"))
        assert [candidate.design.refrigerant_name for candidate in results] == [
            "R236fa",
            "R134a",
        ]

    def test_water_sweep_colder_water_is_cooler(self, optimizer):
        results = optimizer.sweep_water(PAPER_OPTIMIZED_DESIGN, (20.0, 35.0), (7.0,))
        cold, warm = results
        assert cold.die_hot_spot_c < warm.die_hot_spot_c


class TestSelectionRules:
    def test_best_feasible_prefers_smaller_hot_spot(self, optimizer):
        candidates = optimizer.sweep_filling_ratios(PAPER_OPTIMIZED_DESIGN, (0.2, 0.45, 0.55))
        best = ThermosyphonDesignOptimizer.best_feasible(candidates)
        feasible = [c for c in candidates if c.feasible] or candidates
        assert best.die_hot_spot_c == min(c.die_hot_spot_c for c in feasible)

    def test_cheapest_water_prefers_warm_low_flow(self, optimizer):
        candidates = optimizer.sweep_water(
            PAPER_OPTIMIZED_DESIGN, (25.0, 30.0), (7.0, 14.0)
        )
        cheapest = ThermosyphonDesignOptimizer.cheapest_water(candidates)
        feasible = [c for c in candidates if c.feasible] or candidates
        warmest = max(c.design.water_inlet_temperature_c for c in feasible)
        assert cheapest.design.water_inlet_temperature_c == warmest

    def test_optimize_returns_feasible_sensible_design(self, optimizer):
        design = optimizer.optimize(
            PAPER_OPTIMIZED_DESIGN,
            refrigerant_names=("R236fa", "R134a"),
            filling_ratios=(0.45, 0.55),
            water_temperatures_c=(25.0, 30.0),
            water_flows_kg_h=(7.0,),
        )
        candidate = optimizer.evaluate_design(design)
        assert candidate.feasible
        # The optimiser must not pick a grossly undercharged loop.
        assert design.filling_ratio >= 0.45
