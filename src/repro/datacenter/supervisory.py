"""Supervisory chiller-setpoint controller: the slow outer control loop.

The paper's runtime story has two time scales: the water valve and DVFS act
within a control period (seconds), while the chiller water supply
temperature is set per rack and "changes only slowly"
(:class:`~repro.thermosyphon.water_loop.WaterLoop`).  This module is that
slow loop.  Every supervisory period it looks at the worst within-period
peak case temperature any server on the floor reported since its last
decision and moves the shared supply setpoint:

* **raise** the setpoint one step when even the *predicted* peak at the
  raised setpoint stays under ``T_CASE_MAX`` by a guard margin — warmer
  supply water means a smaller chiller lift (better COP) and more free
  cooling, so every degree gained is electrical power saved at the plant;
* **lower** it one step as soon as any server's peak enters the violation
  band, handing headroom back to the fast per-server controllers;
* **hold** otherwise.

The prediction is deliberately a conservative bound rather than a model
call: the case temperature rises at most one-for-one with the condenser
water supply temperature (the thermosyphon saturation point tracks the
water inlet with sensitivity < 1), so ``peak + peak_sensitivity * step``
with ``peak_sensitivity = 1`` upper-bounds the post-raise peak without
paying a speculative rack solve.

:class:`MpcSupervisoryController` replaces that bound with the model
itself: each supervisory period it snapshots the warm floor state, rolls a
small family of candidate setpoint trajectories over a receding horizon
through the real engine (:mod:`repro.datacenter.mpc`) and commits the
first step of the cheapest trajectory whose predicted floor-wide peak
stays under ``T_CASE_MAX`` minus the guard margin.  Because the rollout
*measures* the post-raise peak instead of upper-bounding it, the MPC can
take multi-step raises the reactive rule would never authorize and run
closer to the true feasibility frontier — less plant energy at the same
zero-violation guarantee.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.session import T_CASE_MAX_C
from repro.datacenter.mpc import (
    CandidateTrajectory,
    MpcPlan,
    default_candidates,
    plan_setpoint,
)
from repro.exceptions import ValidationError
from repro.utils.validation import check_non_negative, check_positive, check_positive_int


class SupervisoryAction(enum.Enum):
    """What the supervisory loop did at one of its decision points.

    ``SATURATED`` records a violation observed while the setpoint is
    already clamped at ``setpoint_min_c``: the slow actuator *wants* to
    lower but has no range left, so the plant holds — distinguishable in
    the decision log from a genuinely quiet HOLD window.
    """

    HOLD = "hold"
    RAISE_SETPOINT = "raise_setpoint"
    LOWER_SETPOINT = "lower_setpoint"
    SATURATED = "saturated"


@dataclass(frozen=True)
class SupervisoryDecision:
    """One decision of the slow setpoint loop.

    ``setpoint_c`` is the supply temperature the elapsed window *ran* with;
    ``next_setpoint_c`` is what the following window will run with.
    ``worst_peak_case_c`` is the highest within-period peak case temperature
    any server reported during the window, and ``predicted_peak_case_c`` the
    conservative bound used to authorize a raise.
    """

    time_s: float
    setpoint_c: float
    next_setpoint_c: float
    action: SupervisoryAction
    worst_peak_case_c: float
    predicted_peak_case_c: float


class SupervisoryController:
    """Slow outer-loop actuator on the shared chiller supply temperature.

    Parameters
    ----------
    period_s:
        Supervisory decision period; must be an integer multiple of the
        fast control period it is layered over (validated by the
        datacenter session).
    setpoint_min_c, setpoint_max_c:
        Clamp range of the supply setpoint (plant limits).
    step_c:
        Setpoint move per decision — the actuator is slow and smooth, one
        step per supervisory period.
    guard_margin_c:
        Raises are only authorized while the predicted peak stays below
        ``t_case_max_c - guard_margin_c``.
    violation_margin_c:
        Lowers trigger once the observed peak reaches
        ``t_case_max_c - violation_margin_c`` (0 = only on an actual
        limit hit).
    peak_sensitivity:
        Assumed worst-case rise of the peak case temperature per degree of
        setpoint raise (1.0 is a physical upper bound for a loop whose
        saturation point tracks the water inlet).
    """

    def __init__(
        self,
        *,
        period_s: float = 8.0,
        setpoint_min_c: float = 18.0,
        setpoint_max_c: float = 45.0,
        step_c: float = 1.0,
        guard_margin_c: float = 2.0,
        violation_margin_c: float = 0.0,
        peak_sensitivity: float = 1.0,
        t_case_max_c: float = T_CASE_MAX_C,
    ) -> None:
        self.period_s = check_positive(period_s, "period_s")
        if setpoint_min_c > setpoint_max_c:
            raise ValidationError(
                f"setpoint_min_c {setpoint_min_c} must be <= setpoint_max_c "
                f"{setpoint_max_c}"
            )
        self.setpoint_min_c = setpoint_min_c
        self.setpoint_max_c = setpoint_max_c
        self.step_c = check_positive(step_c, "step_c")
        self.guard_margin_c = check_non_negative(guard_margin_c, "guard_margin_c")
        self.violation_margin_c = check_non_negative(
            violation_margin_c, "violation_margin_c"
        )
        self.peak_sensitivity = check_non_negative(peak_sensitivity, "peak_sensitivity")
        self.t_case_max_c = t_case_max_c

    def clamp(self, setpoint_c: float) -> float:
        """The setpoint clamped to the plant's range."""
        return min(max(setpoint_c, self.setpoint_min_c), self.setpoint_max_c)

    def decide(
        self, time_s: float, setpoint_c: float, worst_peak_case_c: float
    ) -> SupervisoryDecision:
        """One slow-loop decision from the window's worst observed peak."""
        predicted = worst_peak_case_c + self.peak_sensitivity * self.step_c
        if worst_peak_case_c >= self.t_case_max_c - self.violation_margin_c:
            if setpoint_c > self.setpoint_min_c:
                action = SupervisoryAction.LOWER_SETPOINT
                next_setpoint = self.clamp(setpoint_c - self.step_c)
            else:
                # Violation with the setpoint clamped at the plant minimum:
                # nothing left to actuate, but the log must say so — a
                # silent HOLD here is indistinguishable from a quiet window.
                action = SupervisoryAction.SATURATED
                next_setpoint = setpoint_c
        elif (
            predicted <= self.t_case_max_c - self.guard_margin_c
            and setpoint_c < self.setpoint_max_c
        ):
            action = SupervisoryAction.RAISE_SETPOINT
            next_setpoint = self.clamp(setpoint_c + self.step_c)
        else:
            action = SupervisoryAction.HOLD
            next_setpoint = setpoint_c
        return SupervisoryDecision(
            time_s=time_s,
            setpoint_c=setpoint_c,
            next_setpoint_c=next_setpoint,
            action=action,
            worst_peak_case_c=worst_peak_case_c,
            predicted_peak_case_c=predicted,
        )


class MpcSupervisoryController(SupervisoryController):
    """Model-predictive supervisory setpoint control over the real engine.

    Replaces the reactive controller's conservative raise bound with
    receding-horizon rollouts: :meth:`plan` snapshots the warm datacenter
    session, simulates every candidate setpoint trajectory ``horizon``
    supervisory windows forward through the *actual* floor engine (same
    operators, shared factorization caches — a rollout costs only
    back-substitutions), and commits the first step of the cheapest
    trajectory whose predicted floor-wide peak case temperature clears
    ``t_case_max_c - guard_margin_c`` everywhere.  The observed-violation
    case keeps the reactive rule: safety does not wait for a rollout.

    Parameters (beyond :class:`SupervisoryController`)
    --------------------------------------------------
    horizon:
        Number of supervisory windows each rollout looks ahead.
    candidates:
        The trajectory family to evaluate; defaults to
        :func:`~repro.datacenter.mpc.default_candidates` (hold,
        single/double-step raise ramps, one-shot raise, one-shot lower,
        lower ramp — six candidates).  Steps are in units of ``step_c``.
    rollout_periods_per_window, rollout_substeps:
        Rollout fidelity: how many fast control periods of each window are
        actually simulated (the window's plant power is billed at their
        mean) and how many backward-Euler substeps each simulated period
        takes.  The defaults (1, 1) keep the MPC overhead within a few
        reactive-baseline wall-clocks; the guard margin absorbs the
        coarser integration.

    ``planning_log`` keeps every :class:`~repro.datacenter.mpc.MpcPlan`
    (all rollouts + the chosen one) for tests and analysis.
    """

    def __init__(
        self,
        *,
        horizon: int = 4,
        candidates: tuple[CandidateTrajectory, ...] | None = None,
        rollout_periods_per_window: int = 1,
        rollout_substeps: int = 1,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.horizon = check_positive_int(horizon, "horizon")
        self.candidates = (
            tuple(candidates) if candidates is not None else default_candidates(horizon)
        )
        if not self.candidates:
            raise ValidationError("MPC needs at least one candidate trajectory")
        self.rollout_periods_per_window = check_positive_int(
            rollout_periods_per_window, "rollout_periods_per_window"
        )
        self.rollout_substeps = check_positive_int(
            rollout_substeps, "rollout_substeps"
        )
        self.planning_log: list[MpcPlan] = []

    def plan(
        self,
        session,
        time_s: float,
        worst_peak_case_c: float,
        *,
        duration_s: float | None = None,
    ) -> SupervisoryDecision:
        """One MPC decision: roll out candidates, commit the first step.

        ``session`` is the live :class:`~repro.datacenter.model.\
DatacenterSession`; its state is snapshot before and restored after the
        rollouts, so planning leaves the committed trace untouched.  An
        *observed* violation short-circuits to the reactive
        :meth:`~SupervisoryController.decide` (lower now — or record
        SATURATED at the range floor — rather than spend a rollout).
        """
        if worst_peak_case_c >= self.t_case_max_c - self.violation_margin_c:
            return self.decide(time_s, session.setpoint_c, worst_peak_case_c)
        plan = plan_setpoint(session, self, time_s=time_s, duration_s=duration_s)
        self.planning_log.append(plan)
        chosen = plan.chosen
        next_setpoint = chosen.setpoints_c[0] if chosen.setpoints_c else plan.setpoint_c
        if next_setpoint > plan.setpoint_c:
            action = SupervisoryAction.RAISE_SETPOINT
        elif next_setpoint < plan.setpoint_c:
            action = SupervisoryAction.LOWER_SETPOINT
        else:
            action = SupervisoryAction.HOLD
        return SupervisoryDecision(
            time_s=time_s,
            setpoint_c=plan.setpoint_c,
            next_setpoint_c=next_setpoint,
            action=action,
            worst_peak_case_c=worst_peak_case_c,
            predicted_peak_case_c=chosen.worst_peak_case_c,
        )
