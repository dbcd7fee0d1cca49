"""MPC supervisory control and chiller-bank tests.

The load-bearing guarantees of the model-predictive supervisory layer:

* :func:`plan_setpoint` is exactly brute-force enumeration: rolling every
  candidate out by hand from the same snapshot reproduces the planner's
  per-candidate energies/peaks bit for bit, and the chosen trajectory is
  the cost argmin;
* snapshot/restore is lossless — a restored session replays the identical
  periods, and an MPC run whose only candidate is "hold" commits a trace
  bit-identical to the fixed-setpoint run (rollouts have zero side
  effects);
* the fig10 MPC leg beats the reactive supervisory baseline's plant
  energy at zero thermal violations on both stress scenarios;
* an idle supervisory window (no peak observation, worst peak still
  ``-inf``) holds the setpoint instead of authorizing a raise
  (regression);
* :class:`ChillerBank` staging commits the cheapest feasible subset,
  honours maintenance windows and degrades gracefully into overload.
"""

import math
import types

import pytest

from repro.core.session import T_CASE_MAX_C
from repro.datacenter.model import (
    DatacenterModel,
    DatacenterPeriod,
    DatacenterTrace,
)
from repro.datacenter.mpc import (
    CandidateTrajectory,
    default_candidates,
    plan_setpoint,
    rollout_trajectory,
)
from repro.datacenter.scenarios import build_scenario
from repro.datacenter.supervisory import (
    MpcSupervisoryController,
    SupervisoryAction,
    SupervisoryController,
    SupervisoryDecision,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.experiments.fig10_datacenter_trace import run_fig10
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.chiller import ChillerBank, ChillerPlant, ChillerUnit

CELL_SIZE_MM = 2.5
CONTROL_PERIOD_S = 2.0
DURATION_S = 24.0
WINDOW_S = 8.0

#: Decision fields that must survive a snapshot/restore round trip exactly.
_DECISION_FIELDS = (
    "time_s",
    "case_temperature_c",
    "die_hot_spot_c",
    "package_power_w",
    "water_flow_kg_h",
    "frequency_ghz",
    "action",
    "settle_residual_c",
    "period_peak_case_c",
)


def _floor(floorplan, power_model, **kwargs):
    scenario = build_scenario(
        "flash_crowd",
        n_racks=2,
        servers_per_rack=2,
        duration_s=DURATION_S,
        seed=3,
        floorplan=floorplan,
    )
    kwargs.setdefault("plant", ChillerPlant(free_cooling_outdoor_c=18.0))
    return DatacenterModel(
        scenario.racks,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        **kwargs,
    )


@pytest.fixture(scope="module")
def warm_session(floorplan, power_model):
    """A floor session advanced through one supervisory window.

    Tests that mutate it must snapshot on entry and restore on exit —
    snapshot/restore is exactly the property under test here.
    """
    session = _floor(floorplan, power_model).session()
    session.reset()
    for index in range(4):
        session.advance_period(index * CONTROL_PERIOD_S)
    return session


class _ScriptedSession:
    """Duck-typed session whose physics is an explicit function of setpoint.

    Peak tracks the setpoint one-for-one above ``base_peak_c``; plant power
    falls one W per degree of setpoint — warmer supply is always cheaper,
    so the feasibility guard alone decides how far a planner may raise.
    """

    def __init__(self, *, base_peak_c, setpoint_c=20.0):
        self.base_peak_c = base_peak_c
        self.setpoint_c = setpoint_c
        self.model = types.SimpleNamespace(control_period_s=CONTROL_PERIOD_S)
        self.n_advances = 0
        self.n_restores = 0

    def snapshot(self):
        return self.setpoint_c

    def restore(self, snapshot):
        self.setpoint_c = snapshot
        self.n_restores += 1

    def set_setpoint(self, setpoint_c):
        self.setpoint_c = setpoint_c

    def advance_period(self, time_s, *, n_substeps=None, reference=None):
        self.n_advances += 1
        return types.SimpleNamespace(
            plant_power_w=200.0 - self.setpoint_c,
            worst_period_peak_case_c=self.base_peak_c + self.setpoint_c,
        )


class TestCandidateFamily:
    def test_default_family_shapes(self):
        candidates = default_candidates(4)
        assert [c.name for c in candidates] == [
            "hold",
            "raise-ramp",
            "raise-fast",
            "raise-once",
            "lower-once",
            "lower-ramp",
        ]
        assert all(len(c.steps) == 4 for c in candidates)
        by_name = {c.name: c for c in candidates}
        assert by_name["raise-fast"].steps == (2.0, 2.0, 2.0, 2.0)
        assert by_name["raise-once"].steps == (1.0, 0.0, 0.0, 0.0)
        assert by_name["lower-ramp"].steps == (-1.0, -1.0, -1.0, -1.0)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ValidationError):
            default_candidates(0)

    def test_setpoints_resolve_and_clamp(self):
        controller = SupervisoryController(setpoint_min_c=18.0, setpoint_max_c=40.0)
        fast = CandidateTrajectory("raise-fast", (2.0, 2.0, 2.0))
        assert fast.setpoints_from(39.0, 1.0, controller.clamp) == (40.0, 40.0, 40.0)
        down = CandidateTrajectory("lower-ramp", (-1.0, -1.0, -1.0))
        assert down.setpoints_from(19.5, 1.0, controller.clamp) == (18.5, 18.0, 18.0)


class TestRolloutTrajectory:
    def test_bills_window_at_mean_simulated_power(self):
        session = _ScriptedSession(base_peak_c=30.0)
        energy, peak = rollout_trajectory(
            session,
            (21.0,),
            start_time_s=8.0,
            window_s=WINDOW_S,
            rollout_periods_per_window=1,
            rollout_substeps=1,
        )
        # One simulated period at 179 W billed over the 4-period window.
        assert energy == pytest.approx(179.0 * WINDOW_S)
        assert peak == pytest.approx(51.0)
        assert session.n_advances == 1

    def test_truncates_at_duration(self):
        session = _ScriptedSession(base_peak_c=30.0)
        energy, _ = rollout_trajectory(
            session,
            (21.0, 22.0, 23.0),
            start_time_s=8.0,
            window_s=WINDOW_S,
            rollout_periods_per_window=1,
            rollout_substeps=1,
            duration_s=16.0,
        )
        # Windows starting at or past duration_s are never simulated.
        assert session.n_advances == 1
        assert energy == pytest.approx(179.0 * WINDOW_S)

    def test_partial_final_window_bills_fewer_periods(self):
        session = _ScriptedSession(base_peak_c=30.0)
        energy, _ = rollout_trajectory(
            session,
            (21.0,),
            start_time_s=8.0,
            window_s=WINDOW_S,
            rollout_periods_per_window=1,
            rollout_substeps=1,
            duration_s=12.0,
        )
        # Only 2 of the window's 4 control periods fit before duration_s.
        assert energy == pytest.approx(179.0 * 2 * CONTROL_PERIOD_S)


class TestPlanSetpoint:
    def _controller(self, **kwargs):
        kwargs.setdefault("period_s", WINDOW_S)
        kwargs.setdefault("setpoint_max_c", 40.0)
        kwargs.setdefault("horizon", 3)
        return MpcSupervisoryController(**kwargs)

    def test_feasible_chooses_cheapest(self):
        session = _ScriptedSession(base_peak_c=30.0)
        plan = plan_setpoint(session, self._controller(), time_s=8.0)
        # Warmer is cheaper and every candidate stays under the guard, so
        # the aggressive double-step ramp must win.
        assert plan.chosen.candidate.name == "raise-fast"
        assert plan.n_feasible == len(plan.rollouts) == 6
        assert plan.chosen.cost == min(r.cost for r in plan.rollouts)

    def test_all_infeasible_chooses_coolest(self):
        session = _ScriptedSession(base_peak_c=70.0)
        plan = plan_setpoint(session, self._controller(), time_s=8.0)
        # Every trajectory breaches the guard; the planner must fall back
        # to the plan that cools hardest rather than the cheapest one.
        # lower-once and lower-ramp tie on the worst (first-window) peak,
        # and ties keep candidate order.
        assert plan.n_feasible == 0
        assert plan.chosen.candidate.name == "lower-once"
        assert not plan.chosen.feasible
        assert plan.chosen.worst_peak_case_c == min(
            r.worst_peak_case_c for r in plan.rollouts
        )

    def test_session_restored_after_planning(self):
        session = _ScriptedSession(base_peak_c=30.0, setpoint_c=23.0)
        plan_setpoint(session, self._controller(), time_s=8.0)
        assert session.setpoint_c == 23.0
        assert session.n_restores >= len(default_candidates(3))


class TestMpcControllerValidation:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValidationError):
            MpcSupervisoryController(horizon=0)

    def test_rejects_empty_candidates(self):
        with pytest.raises(ValueError):
            MpcSupervisoryController(candidates=())

    def test_rejects_bad_rollout_fidelity(self):
        with pytest.raises(ValidationError):
            MpcSupervisoryController(rollout_periods_per_window=0)
        with pytest.raises(ValidationError):
            MpcSupervisoryController(rollout_substeps=0)

    def test_observed_violation_short_circuits_to_reactive(self):
        controller = MpcSupervisoryController(setpoint_min_c=18.0)
        # The bare namespace would crash any rollout attempt (no snapshot),
        # so a returned decision proves the planner never rolled out.
        lowered = controller.plan(
            types.SimpleNamespace(setpoint_c=20.0), 8.0, T_CASE_MAX_C
        )
        assert lowered.action is SupervisoryAction.LOWER_SETPOINT
        assert lowered.next_setpoint_c == 19.0
        saturated = controller.plan(
            types.SimpleNamespace(setpoint_c=18.0), 16.0, T_CASE_MAX_C
        )
        assert saturated.action is SupervisoryAction.SATURATED
        assert saturated.next_setpoint_c == 18.0
        assert controller.planning_log == []


class TestMpcOnRealFloor:
    def test_brute_force_enumeration_matches_planner(self, warm_session):
        session = warm_session
        controller = MpcSupervisoryController(
            period_s=WINDOW_S, setpoint_max_c=40.0, horizon=2
        )
        entry = session.snapshot()
        try:
            expected = []
            for candidate in controller.candidates:
                setpoints = candidate.setpoints_from(
                    session.setpoint_c, controller.step_c, controller.clamp
                )
                energy, peak = rollout_trajectory(
                    session,
                    setpoints,
                    start_time_s=WINDOW_S,
                    window_s=controller.period_s,
                    rollout_periods_per_window=controller.rollout_periods_per_window,
                    rollout_substeps=controller.rollout_substeps,
                    duration_s=DURATION_S,
                    reference=entry,
                )
                session.restore(entry)
                expected.append((candidate.name, setpoints, energy, peak))
            plan = plan_setpoint(
                session, controller, time_s=WINDOW_S, duration_s=DURATION_S
            )
            assert len(plan.rollouts) == len(expected)
            for rollout, (name, setpoints, energy, peak) in zip(
                plan.rollouts, expected
            ):
                assert rollout.candidate.name == name
                assert rollout.setpoints_c == setpoints
                # Bit-identical: same snapshot, same engine, same arithmetic.
                assert rollout.plant_energy_j == energy
                assert rollout.worst_peak_case_c == peak
            costs = [r.cost for r in plan.rollouts]
            if plan.n_feasible:
                assert plan.chosen.cost == min(costs)
                # Ties keep candidate order, so the argmin is deterministic.
                assert plan.chosen is plan.rollouts[costs.index(min(costs))]
        finally:
            session.restore(entry)

    def test_snapshot_restore_replays_bit_identically(self, warm_session):
        session = warm_session
        entry = session.snapshot()
        try:
            times = (WINDOW_S, WINDOW_S + CONTROL_PERIOD_S)
            first = [session.advance_period(t) for t in times]
            session.restore(entry)
            second = [session.advance_period(t) for t in times]
            for a, b in zip(first, second):
                assert a.setpoint_c == b.setpoint_c
                assert a.worst_period_peak_case_c == b.worst_period_peak_case_c
                assert a.rack_chiller_power_w == b.rack_chiller_power_w
                for rack_a, rack_b in zip(a.rack_decisions, b.rack_decisions):
                    for da, db in zip(rack_a, rack_b):
                        for fields in _DECISION_FIELDS:
                            assert getattr(da, fields) == getattr(db, fields), fields
        finally:
            session.restore(entry)

    def test_hold_only_mpc_commits_the_fixed_trace(self, floorplan, power_model):
        model = _floor(floorplan, power_model)
        fixed = model.run_trace(duration_s=DURATION_S)
        hold = MpcSupervisoryController(
            period_s=WINDOW_S,
            setpoint_max_c=40.0,
            candidates=(CandidateTrajectory("hold", (0.0, 0.0)),),
        )
        planned = model.run_trace(duration_s=DURATION_S, supervisory=hold)
        # Every decision holds, so the committed trace must be bit-identical
        # to the fixed run — the rollouts left zero side effects behind.
        assert all(
            d.action is SupervisoryAction.HOLD for d in planned.supervisory_decisions
        )
        assert planned.setpoint_c == fixed.setpoint_c
        assert planned.plant_power_w == fixed.plant_power_w
        for rack_fixed, rack_planned in zip(fixed.racks, planned.racks):
            for period_a, period_b in zip(rack_fixed.periods, rack_planned.periods):
                for da, db in zip(period_a, period_b):
                    for name in _DECISION_FIELDS:
                        assert getattr(da, name) == getattr(db, name), name

    def test_mpc_run_logs_every_plan(self, floorplan, power_model):
        model = _floor(floorplan, power_model)
        planner = MpcSupervisoryController(
            period_s=WINDOW_S, setpoint_max_c=40.0, horizon=2
        )
        trace = model.run_trace(duration_s=DURATION_S, supervisory=planner)
        # 24 s at 8 s windows -> decisions at t=8 and t=16 only.
        assert len(trace.supervisory_decisions) == 2
        assert len(planner.planning_log) == 2
        for plan, decision in zip(planner.planning_log, trace.supervisory_decisions):
            assert len(plan.rollouts) == 6
            assert decision.predicted_peak_case_c == plan.chosen.worst_peak_case_c
            assert decision.next_setpoint_c == plan.chosen.setpoints_c[0]


class TestIdleWindowRegression:
    def _stub_run(self, floorplan, power_model, peak_of_time):
        model = _floor(floorplan, power_model)
        session = model.session()

        def fake_advance(time_s, *, n_substeps=None):
            return DatacenterPeriod(
                time_s=time_s,
                setpoint_c=session.setpoint_c,
                rack_decisions=((),) * model.n_racks,
                rack_chiller_power_w=(0.0,) * model.n_racks,
                worst_period_peak_case_c=peak_of_time(time_s),
            )

        session.advance_period = fake_advance
        return session.run(
            duration_s=DURATION_S,
            supervisory=SupervisoryController(period_s=WINDOW_S),
        )

    def test_idle_window_holds_instead_of_raising(self, floorplan, power_model):
        # Regression: a window with no peak observation left worst_peak at
        # -inf; the raise predicate then saw a predicted peak of -inf and
        # authorized an unconditional raise.  It must hold instead.
        trace = self._stub_run(floorplan, power_model, lambda t: float("-inf"))
        assert len(trace.supervisory_decisions) == 2
        for decision in trace.supervisory_decisions:
            assert decision.action is SupervisoryAction.HOLD
            assert math.isnan(decision.worst_peak_case_c)
        assert trace.setpoint_raises == 0
        assert len(set(trace.setpoint_c)) == 1

    def test_idle_window_carries_previous_windows_peak(self, floorplan, power_model):
        # First window observes 84 C (a HOLD — no raise headroom), second
        # window goes idle: its log entry must carry the 84 C forward.
        peak = lambda t: 84.0 if t < WINDOW_S else float("-inf")
        trace = self._stub_run(floorplan, power_model, peak)
        first, second = trace.supervisory_decisions
        assert first.worst_peak_case_c == 84.0
        assert second.action is SupervisoryAction.HOLD
        assert second.worst_peak_case_c == 84.0


class TestFig10Mpc:
    @pytest.mark.parametrize("kind", ["diurnal", "flash_crowd"])
    def test_mpc_beats_reactive_at_zero_violations(self, coarse_platform, kind):
        result = run_fig10(
            coarse_platform,
            scenario_kind=kind,
            n_racks=2,
            servers_per_rack=2,
            duration_s=DURATION_S,
            mpc=True,
        )
        assert result.mpc is not None
        assert result.mpc.thermal_violations == 0
        assert result.supervisory.thermal_violations == 0
        assert result.mpc.plant_energy_j < result.supervisory.plant_energy_j
        assert result.mpc_vs_reactive_saved_pct > 0.0
        assert result.mpc_plant_energy_saved_pct > result.plant_energy_saved_pct
        text = result.as_table()
        assert "mpc" in text and "vs reactive" in text


class TestChillerUnit:
    def test_part_load_curve(self):
        unit = ChillerUnit(name="u", capacity_w=100.0, part_load_degradation=0.4)
        assert unit.part_load_cop_factor(1.0) == pytest.approx(1.0)
        assert unit.part_load_cop_factor(0.5) == pytest.approx(0.9)
        assert unit.part_load_cop_factor(0.0) == pytest.approx(0.6)
        deep = ChillerUnit(
            name="d",
            capacity_w=100.0,
            part_load_degradation=1.0,
            min_part_load_cop_factor=0.25,
        )
        assert deep.part_load_cop_factor(0.0) == pytest.approx(0.25)

    def test_electrical_power_matches_plant_law_at_rated_load(self):
        plant = ChillerPlant(free_cooling_outdoor_c=18.0)
        unit = ChillerUnit(name="u", capacity_w=100.0, plant=plant)
        supply = 22.0
        expected = (
            100.0
            * (1.0 - plant.free_cooling_fraction_at(supply))
            / plant.cop_at(supply)
        )
        assert unit.electrical_power_w(supply, 100.0) == pytest.approx(expected)
        assert unit.electrical_power_w(supply, 0.0) == 0.0

    def test_maintenance_windows_are_half_open(self):
        unit = ChillerUnit(
            name="u", capacity_w=100.0, maintenance_windows=((10.0, 20.0),)
        )
        assert unit.available(9.9)
        assert not unit.available(10.0)
        assert not unit.available(19.9)
        assert unit.available(20.0)

    def test_rejects_inverted_maintenance_window(self):
        with pytest.raises(ConfigurationError):
            ChillerUnit(name="u", capacity_w=100.0, maintenance_windows=((20.0, 10.0),))


class TestChillerBank:
    def _bank(self, **kwargs):
        return ChillerBank.uniform(
            2, 100.0, plant=ChillerPlant(free_cooling_outdoor_c=18.0), **kwargs
        )

    def test_uniform_builds_named_units(self):
        bank = self._bank(maintenance_windows=[((0.0, 5.0),)])
        assert bank.n_units == 2
        assert bank.total_capacity_w == 200.0
        assert [unit.name for unit in bank.units] == ["chiller0", "chiller1"]
        assert bank.units[0].maintenance_windows == ((0.0, 5.0),)
        assert bank.units[1].maintenance_windows == ()

    def test_stage_prefers_one_deep_unit_over_two_shallow(self):
        bank = self._bank()
        decision = bank.stage(22.0, 60.0)
        # 60 W on one 100 W unit runs at 0.6 part load; splitting over two
        # puts each at 0.3 where the part-load curve is markedly worse.
        assert decision.n_units_on == 1
        assert decision.load_fraction == pytest.approx(0.6)
        assert not decision.overloaded
        both = sum(
            unit.electrical_power_w(22.0, 30.0) for unit in bank.units
        )
        assert decision.electrical_power_w < both

    def test_stage_commits_both_units_when_one_cannot_carry(self):
        bank = self._bank()
        decision = bank.stage(22.0, 150.0)
        assert decision.n_units_on == 2
        assert decision.load_fraction == pytest.approx(0.75)
        assert not decision.overloaded

    def test_stage_honours_maintenance(self):
        bank = self._bank(maintenance_windows=[((0.0, 10.0),)])
        during = bank.stage(22.0, 60.0, time_s=5.0)
        assert during.units_on == ("chiller1",)
        assert during.n_available == 1
        after = bank.stage(22.0, 60.0, time_s=10.0)
        assert after.n_available == 2

    def test_stage_overloads_all_available_units(self):
        bank = self._bank()
        decision = bank.stage(22.0, 250.0)
        assert decision.overloaded
        assert decision.n_units_on == 2
        assert decision.load_fraction == pytest.approx(1.25)
        assert decision.electrical_power_w > 0.0

    def test_zero_load_commits_nothing(self):
        decision = self._bank().stage(22.0, 0.0)
        assert decision.units_on == ()
        assert decision.electrical_power_w == 0.0
        assert not decision.overloaded

    def test_no_available_unit_is_a_configuration_error(self):
        bank = self._bank(
            maintenance_windows=[((0.0, 10.0),), ((0.0, 10.0),)]
        )
        with pytest.raises(ConfigurationError):
            bank.stage(22.0, 60.0, time_s=5.0)

    def test_rejects_duplicate_names_and_empty_bank(self):
        unit = ChillerUnit(name="u", capacity_w=100.0)
        with pytest.raises(ConfigurationError):
            ChillerBank(units=(unit, unit))
        with pytest.raises(ConfigurationError):
            ChillerBank(units=())

    def test_large_bank_stages_by_capacity_prefix(self):
        units = tuple(
            ChillerUnit(name=f"u{i}", capacity_w=100.0 + i) for i in range(4)
        )
        bank = ChillerBank(units=units, max_enumerated_units=2)
        decision = bank.stage(22.0, 50.0)
        # Prefix staging starts from the largest unit.
        assert decision.units_on == ("u3",)


class TestChillerBankOnFloor:
    def test_staging_recorded_and_power_consistent(self, floorplan, power_model):
        bank = ChillerBank.uniform(
            2, 300.0, plant=ChillerPlant(free_cooling_outdoor_c=18.0)
        )
        model = _floor(floorplan, power_model, plant=bank)
        trace = model.run_trace(duration_s=DURATION_S)
        assert len(trace.staging) == trace.n_periods
        for power, staging in zip(trace.plant_power_w, trace.staging):
            # Prorated per-rack shares must re-sum to the bank's total.
            assert power == pytest.approx(staging.electrical_power_w)
            assert 0 <= staging.n_units_on <= 2
        assert trace.overloaded_periods == 0
        assert "chiller staging" in trace.summary()


class TestTraceSaturationSurface:
    def test_summary_surfaces_saturations(self):
        decision = SupervisoryDecision(
            time_s=8.0,
            setpoint_c=18.0,
            next_setpoint_c=18.0,
            action=SupervisoryAction.SATURATED,
            worst_peak_case_c=T_CASE_MAX_C,
            predicted_peak_case_c=T_CASE_MAX_C + 1.0,
        )
        trace = DatacenterTrace(
            rack_names=("rack0",),
            racks=[],
            control_period_s=CONTROL_PERIOD_S,
            setpoint_c=[18.0, 18.0],
            plant_power_w=[10.0, 10.0],
            supervisory_decisions=[decision],
        )
        assert trace.setpoint_saturations == 1
        assert trace.setpoint_lowers == 0
        assert "setpoint saturations" in trace.summary()
