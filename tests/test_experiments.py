"""Experiment runner tests (shapes and key orderings of every table/figure)."""

import dataclasses

import numpy as np
import pytest

from repro.experiments.cooling_power import run_cooling_power
from repro.experiments.fig2_motivation import run_fig2
from repro.experiments.fig3_qos_exec_time import run_fig3
from repro.experiments.fig5_orientation import run_fig5
from repro.experiments.fig6_mapping_scenarios import SCENARIO_CORE_SETS, run_fig6
from repro.experiments.fig7_thermal_maps import run_fig7
from repro.experiments.fig8_controller_trace import run_fig8
from repro.experiments.table1_cstates import run_table1
from repro.experiments.table2_hotspots import run_table2
from repro.experiments.common import build_platform, paper_approaches
from repro.experiments.runner import main as runner_main
from repro.power.cstates import CState
from repro.power.power_model import ServerPowerModel
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN

QUICK = ("x264", "swaptions", "canneal")


class TestRunnerCli:
    def test_deleted_flag_is_not_a_prefix_of_a_live_one(self, capsys):
        """``--parallel`` was deleted; prefix matching would read it as
        ``--parallel-groups`` and run."""
        with pytest.raises(SystemExit) as exit_info:
            runner_main(["--parallel", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --parallel" in capsys.readouterr().err


class TestPlatform:
    def test_simulations_are_keyed_by_the_design_value(self):
        platform = build_platform(cell_size_mm=2.0)
        variant = dataclasses.replace(PAPER_OPTIMIZED_DESIGN, filling_ratio=0.3)
        assert variant.name == PAPER_OPTIMIZED_DESIGN.name
        assert platform.simulation(PAPER_OPTIMIZED_DESIGN).design == PAPER_OPTIMIZED_DESIGN
        assert platform.simulation(variant).design == variant
        assert platform.simulation(variant) is platform.simulation(variant)

    def test_evaluators_are_keyed_by_name_and_design(self):
        platform = build_platform(cell_size_mm=2.0)
        approach = paper_approaches()[0]
        variant = dataclasses.replace(
            approach, design=dataclasses.replace(approach.design, filling_ratio=0.3)
        )
        assert platform.batch_evaluator(approach).simulation.design == approach.design
        assert platform.batch_evaluator(variant).simulation.design == variant.design


class TestTable1:
    def test_rows_and_rendering(self):
        result = run_table1()
        states = [row.state for row in result.rows]
        assert CState.POLL in states and CState.C1 in states and CState.C1E in states
        text = result.as_table()
        assert "POLL" in text and "27.00" in text and "40.00" in text


class TestFig3:
    def test_series_shapes_and_qos_violations(self):
        result = run_fig3(QUICK)
        assert set(result.normalized_times) == set(QUICK)
        assert all(len(series) == 5 for series in result.normalized_times.values())
        # The baseline configuration (last column) is always 1.0.
        for series in result.normalized_times.values():
            assert series[-1] == pytest.approx(1.0)
            assert all(value >= 1.0 - 1e-9 for value in series)
        # swaptions scales almost linearly, so dropping to 2 cores slows it
        # far more (relative to its own baseline) than poorly-scaling canneal.
        assert result.normalized_times["swaptions"][0] > result.normalized_times["canneal"][0]
        assert "canneal" in result.as_table()


class TestFig2:
    def test_die_hotter_and_steeper_than_package(self, coarse_platform):
        result = run_fig2(coarse_platform)
        assert result.die.theta_max_c > result.package.theta_max_c
        assert result.die.grad_max_c_per_mm > result.package.grad_max_c_per_mm
        assert result.die_package_hot_spot_ratio > 1.0
        # The uniform-flux assumption of [8] underestimates the hot spot.
        assert result.die.theta_max_c >= result.die_uniform_assumption.theta_max_c - 0.5
        assert "Die" in result.as_table()


class TestFig5:
    def test_orientation_comparison_structure(self, coarse_platform):
        result = run_fig5(coarse_platform)
        assert result.design1.orientation.channels_run_east_west
        assert result.design2.orientation.channels_run_north_south
        # The two designs must be close; neither may be catastrophically worse.
        assert abs(result.design1.die.theta_max_c - result.design2.die.theta_max_c) < 5.0
        assert "Design 1" in result.as_table()


class TestFig6:
    def test_scenarios_and_cstates_covered(self, coarse_platform):
        result = run_fig6(coarse_platform)
        assert len(result.results) == len(SCENARIO_CORE_SETS) * 2
        for cstate in (CState.POLL, CState.C1):
            for scenario in SCENARIO_CORE_SETS:
                assert result.result(scenario, cstate).die.theta_max_c > 40.0

    def test_clustered_mapping_is_never_best(self, coarse_platform):
        result = run_fig6(coarse_platform)
        for cstate in (CState.POLL, CState.C1):
            assert result.best_scenario(cstate) != "scenario3_clustered"

    def test_c1_idle_runs_cooler_than_poll(self, coarse_platform):
        result = run_fig6(coarse_platform)
        for scenario in SCENARIO_CORE_SETS:
            assert (
                result.result(scenario, CState.C1).die.theta_max_c
                < result.result(scenario, CState.POLL).die.theta_max_c
            )


class TestTable2:
    @pytest.fixture(scope="class")
    def table2(self, coarse_platform):
        return run_table2(coarse_platform, benchmark_names=QUICK)

    def test_all_approaches_and_qos_levels_present(self, table2):
        approaches = {a.name for a in paper_approaches()}
        assert set(table2.comparison.approaches) == approaches
        assert set(table2.comparison.qos_labels) == {"1x", "2x", "3x"}

    def test_proposed_wins_under_relaxed_qos(self, table2):
        """The paper's headline: the proposed stack reduces hot spots at 2x/3x."""
        for qos in ("2x", "3x"):
            proposed = table2.comparison.row("proposed", qos)
            for baseline in ("[8]+[27]+[9]", "[8]+[27]+[7]"):
                other = table2.comparison.row(baseline, qos)
                assert proposed.die_theta_max_c < other.die_theta_max_c
                assert proposed.die_grad_max_c_per_mm < other.die_grad_max_c_per_mm
                assert proposed.package_theta_max_c < other.package_theta_max_c

    def test_proposed_improves_with_relaxed_qos(self, table2):
        rows = [table2.comparison.row("proposed", qos) for qos in ("1x", "2x", "3x")]
        values = [row.die_theta_max_c for row in rows]
        assert values[0] > values[1] >= values[2]

    def test_per_benchmark_cells_recorded(self, table2):
        assert len(table2.cells) == 3 * 3 * len(QUICK)

    def test_improvement_summary_positive_at_2x(self, table2):
        summary = table2.improvement_summary()
        for key, values in summary.items():
            if "2x" in key:
                assert values["die_theta_max_reduction_c"] > 0.0

    def test_each_benchmark_profiled_once_per_platform(self, monkeypatch):
        """One power evaluation per sweep point plus one per profile record:
        the 3 x 48 records are computed by the first sweep only, and a
        second sweep on the same platform reuses every one of them."""
        calls = 0
        evaluate = ServerPowerModel.evaluate

        def counting_evaluate(self, *args, **kwargs):
            nonlocal calls
            calls += 1
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(ServerPowerModel, "evaluate", counting_evaluate)
        platform = build_platform(cell_size_mm=2.0)
        names = ("x264", "canneal", "ferret")
        first = run_table2(platform, benchmark_names=names)
        assert calls == 27 + 3 * 48
        calls = 0
        second = run_table2(platform, benchmark_names=names[::-1])
        assert calls == 27

        def key(cell):
            return (cell.approach, cell.qos_label, cell.benchmark)

        assert sorted(second.cells, key=key) == sorted(first.cells, key=key)


class TestFig7:
    def test_maps_and_hot_spot_reduction(self, coarse_platform):
        result = run_fig7(coarse_platform, benchmark_name="fluidanimate")
        assert result.proposed.die_map_c.shape == result.state_of_the_art.die_map_c.shape
        assert result.hot_spot_reduction_c > 0.0
        text = result.as_text()
        assert "proposed" in text and "hot spot" in text


class TestFig8:
    def test_modes_agree_and_transient_is_cheaper(self, coarse_platform):
        result = run_fig8(coarse_platform, duration_s=24.0, control_period_s=2.0)
        assert result.steady.periods == result.transient.periods == 12
        # Same controller, same trace: the modes must agree on behaviour...
        assert result.transient.trace.peak_case_temperature_c == pytest.approx(
            result.steady.trace.peak_case_temperature_c, abs=6.0
        )
        # ...but the transient lane must be cheaper in factorizations.
        assert result.factorization_ratio > 1.0
        text = result.as_table()
        assert "transient" in text and "factor." in text


class TestFig9:
    def test_rack_engine_matches_and_is_cheaper(self, coarse_platform):
        from repro.experiments.fig9_rack_trace import run_fig9

        result = run_fig9(
            coarse_platform, n_servers=2, duration_s=16.0, control_period_s=2.0
        )
        assert result.rack.n_periods == len(result.per_server[0].decisions)
        assert result.rack.n_servers == 2
        # Batched engine reproduces the per-server decisions exactly...
        for server in range(result.n_servers):
            for ours, theirs in zip(
                result.rack.server_decisions(server),
                result.per_server[server].decisions,
            ):
                assert ours.case_temperature_c == pytest.approx(
                    theirs.case_temperature_c, abs=1e-12
                )
                assert ours.action is theirs.action
        # ...while paying at least n_servers times fewer factorizations.
        assert result.factorization_ratio >= result.n_servers
        text = result.as_table()
        assert "rack-batched" in text and "factor." in text


class TestCoolingPower:
    def test_chiller_power_reduced(self, coarse_platform):
        result = run_cooling_power(coarse_platform, benchmark_names=QUICK)
        assert result.proposed.chiller_power_w < result.state_of_the_art.chiller_power_w
        assert result.chiller_power_reduction_pct > 20.0
        # The baseline needs colder water to reach the same hot spot.
        assert (
            result.state_of_the_art.water_inlet_temperature_c
            <= result.proposed.water_inlet_temperature_c
        )
        assert "Chiller power reduction" in result.as_table()


class TestFig10:
    def test_supervisory_saves_plant_energy(self, coarse_platform):
        from repro.experiments.fig10_datacenter_trace import run_fig10

        result = run_fig10(
            coarse_platform, n_racks=2, servers_per_rack=2, duration_s=16.0
        )
        assert result.fixed.n_periods == result.supervisory.n_periods == 8
        assert result.supervisory.plant_energy_j < result.fixed.plant_energy_j
        assert result.plant_energy_saved_pct > 0.0
        assert result.supervisory.thermal_violations == 0
        # The fixed run never moves the setpoint; the supervisory run does.
        assert len(set(result.fixed.setpoint_c)) == 1
        assert result.supervisory.setpoint_raises > 0
        text = result.as_table()
        assert "supervisory" in text and "plant" in text

    def test_verbose_table_appends_summaries_with_telemetry_footer(
        self, coarse_platform
    ):
        from repro.experiments.fig10_datacenter_trace import run_fig10
        from repro.obs import Telemetry, set_telemetry

        hub = Telemetry()
        previous = set_telemetry(hub)
        try:
            result = run_fig10(
                coarse_platform, n_racks=2, servers_per_rack=2, duration_s=8.0
            )
            text = result.as_table(verbose=True)
        finally:
            set_telemetry(previous)
        assert "--- fixed run summary ---" in text
        assert "--- supervisory run summary ---" in text
        # The per-run summaries carry the telemetry footer when a hub is on.
        assert "telemetry" in text
        # Default table stays footer-free.
        assert "run summary" not in result.as_table()
