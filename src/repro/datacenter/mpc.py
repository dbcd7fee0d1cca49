"""Receding-horizon rollout engine for supervisory setpoint MPC.

The supervisory question — *how warm may the shared chiller water supply
run?* — is answered here by simulation instead of by a worst-case bound.
Each planning step:

1. **Snapshot** the warm floor once
   (:meth:`~repro.datacenter.model.DatacenterSession.snapshot`): each rack
   session's temperature fields and held cooling boundaries, per-server
   actuator state.  Factorization caches and operating-point memos are
   *shared*, not copied.  Each rollout period moves the setpoint or the
   load, so every server refreshes its boundary (a lane march; operating
   points are memoized floor-wide, so the committed trajectory replays
   them for free) and its new operator serves one single-column solve.  The
   snapshot is passed down as every rollout period's ``reference``: a
   server alone on its boundary is then solved by preconditioned
   conjugate gradients from the factor of the boundary it held in the
   snapshot — one factorization per snapshot boundary, which the cache
   then serves to every candidate — instead of factoring each new
   operator.  Rollouts are tier B (1e-9 degC) against exact ones; see
   :mod:`repro.thermal.solver_cache`, "Iterative lane".
2. **Roll out** every :class:`CandidateTrajectory` through the *real*
   engine over ``horizon`` supervisory windows, restoring the snapshot
   between candidates.  Fidelity is tunable: only the first
   ``rollout_periods_per_window`` fast control periods of each window are
   simulated (the window's plant energy is billed at their mean power) and
   each simulated period integrates with ``rollout_substeps`` backward-Euler
   substeps — the controller's guard margin absorbs the coarser
   integration.
3. **Choose** the cheapest trajectory whose predicted floor-wide peak case
   temperature stays under ``t_case_max_c - guard_margin_c`` throughout
   (ties keep candidate order, so a deterministic family gives a
   deterministic plan); when *no* candidate is predicted feasible, the one
   with the lowest predicted peak wins — the plan that cools hardest.  The
   caller commits only the first step and replans at the next supervisory
   period: receding horizon.

The candidate family is deliberately tiny (:func:`default_candidates`
builds six): the setpoint is a slow scalar actuator, so a handful of
ramp/hold shapes spans the useful action space, and the double-step raise
ramp is exactly the move the reactive bound can never authorize — the MPC
validates it against the model instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.telemetry import get_telemetry
from repro.utils.validation import check_positive_int

__all__ = [
    "CandidateTrajectory",
    "MpcPlan",
    "RolloutResult",
    "default_candidates",
    "plan_setpoint",
    "rollout_trajectory",
]


@dataclass(frozen=True)
class CandidateTrajectory:
    """One candidate setpoint trajectory, in units of the controller step.

    ``steps[w]`` is the setpoint move entering supervisory window ``w``,
    measured in multiples of the controller's ``step_c`` (so ``(2.0, 2.0)``
    is a double-step raise ramp).  The absolute setpoints are resolved
    against the live setpoint — and clamped to the plant range — by
    :meth:`setpoints_from`.
    """

    name: str
    steps: tuple[float, ...]

    def setpoints_from(
        self, setpoint_c: float, step_c: float, clamp
    ) -> tuple[float, ...]:
        """The absolute per-window setpoints this candidate visits."""
        points = []
        current = setpoint_c
        for move in self.steps:
            current = clamp(current + move * step_c)
            points.append(current)
        return tuple(points)


@dataclass(frozen=True)
class RolloutResult:
    """One candidate's simulated outcome over the horizon.

    ``plant_energy_j`` bills every window at the mean plant power of its
    simulated periods; ``worst_peak_case_c`` is the highest within-period
    peak case temperature any server reached during the rollout.
    ``feasible`` is the guard-margin check of that peak; the scalar
    :attr:`cost` orders candidates (infeasible = infinite).
    """

    candidate: CandidateTrajectory
    setpoints_c: tuple[float, ...]
    plant_energy_j: float
    worst_peak_case_c: float
    feasible: bool

    @property
    def cost(self) -> float:
        """Trajectory cost: plant energy, infinite when infeasible."""
        return self.plant_energy_j if self.feasible else float("inf")


@dataclass(frozen=True)
class MpcPlan:
    """One planning step's full record: every rollout plus the winner."""

    time_s: float
    setpoint_c: float
    rollouts: tuple[RolloutResult, ...]
    chosen: RolloutResult

    @property
    def n_feasible(self) -> int:
        """How many candidates were predicted feasible."""
        return sum(1 for rollout in self.rollouts if rollout.feasible)


def default_candidates(horizon: int) -> tuple[CandidateTrajectory, ...]:
    """The standard six-trajectory family over ``horizon`` windows.

    hold, single-step raise ramp, double-step raise ramp, one-shot raise,
    one-shot lower and single-step lower ramp.  The double-step ramp is
    the aggressive move a conservative reactive bound cannot take; the
    lower shapes let the planner pre-cool ahead of a predicted load rise.
    """
    check_positive_int(horizon, "horizon")
    rest = (0.0,) * (horizon - 1)
    return (
        CandidateTrajectory("hold", (0.0,) * horizon),
        CandidateTrajectory("raise-ramp", (1.0,) * horizon),
        CandidateTrajectory("raise-fast", (2.0,) * horizon),
        CandidateTrajectory("raise-once", (1.0,) + rest),
        CandidateTrajectory("lower-once", (-1.0,) + rest),
        CandidateTrajectory("lower-ramp", (-1.0,) * horizon),
    )


def rollout_trajectory(
    session,
    setpoints_c: tuple[float, ...],
    *,
    start_time_s: float,
    window_s: float,
    rollout_periods_per_window: int,
    rollout_substeps: int,
    duration_s: float | None = None,
    reference=None,
) -> tuple[float, float]:
    """Simulate one setpoint trajectory forward; return (energy, peak).

    ``session`` is duck-typed: anything with ``set_setpoint``,
    ``advance_period(time_s, n_substeps=..., reference=...)`` returning an
    object with ``plant_power_w`` / ``worst_period_peak_case_c``, and a
    ``model.control_period_s``.  The caller owns snapshot/restore — this
    function mutates the session.  ``reference`` is the snapshot the
    rollout started from, handed to every period (``None`` solves every
    step exactly).

    Each window sets its setpoint, simulates its first
    ``rollout_periods_per_window`` control periods and bills the whole
    window's plant energy at their mean power; the trajectory is truncated
    at ``duration_s`` (the receding horizon never looks past the end of
    the trace).
    """
    control_period_s = session.model.control_period_s
    periods_per_window = int(round(window_s / control_period_s))
    energy_j = 0.0
    worst_peak = float("-inf")
    for w, target in enumerate(setpoints_c):
        window_start = start_time_s + w * window_s
        if duration_s is not None and window_start >= duration_s:
            break
        window_end = window_start + window_s
        if duration_s is not None:
            window_end = min(window_end, duration_s)
        n_window_periods = max(
            1, int(round((window_end - window_start) / control_period_s))
        )
        session.set_setpoint(target)
        n_simulated = min(rollout_periods_per_window, n_window_periods)
        window_power_w = 0.0
        time_s = window_start
        for _ in range(n_simulated):
            period = session.advance_period(
                time_s, n_substeps=rollout_substeps, reference=reference
            )
            window_power_w += period.plant_power_w
            worst_peak = max(worst_peak, period.worst_period_peak_case_c)
            time_s += control_period_s
        energy_j += (
            window_power_w / n_simulated * n_window_periods * control_period_s
        )
    return energy_j, worst_peak


def plan_setpoint(
    session,
    controller,
    *,
    time_s: float,
    duration_s: float | None = None,
) -> MpcPlan:
    """Roll out every candidate from one snapshot and pick the winner.

    ``controller`` supplies the knobs (``candidates``, ``step_c``,
    ``clamp``, ``period_s``, ``guard_margin_c``, ``t_case_max_c``,
    ``rollout_periods_per_window``, ``rollout_substeps``) — in practice an
    :class:`~repro.datacenter.supervisory.MpcSupervisoryController`.  The
    session is restored to the snapshot after every rollout (and on any
    rollout failure), so planning has zero side effects on the committed
    trace.
    """
    setpoint_c = session.setpoint_c
    limit_c = controller.t_case_max_c - controller.guard_margin_c
    obs = get_telemetry()
    with obs.span("mpc.plan", candidates=len(controller.candidates)) as plan_span:
        snapshot = session.snapshot()
        rollouts: list[RolloutResult] = []
        try:
            for candidate in controller.candidates:
                setpoints = candidate.setpoints_from(
                    setpoint_c, controller.step_c, controller.clamp
                )
                with obs.span(
                    "mpc.rollout", candidate=candidate.name
                ) as rollout_span:
                    energy_j, worst_peak = rollout_trajectory(
                        session,
                        setpoints,
                        start_time_s=time_s,
                        window_s=controller.period_s,
                        rollout_periods_per_window=(
                            controller.rollout_periods_per_window
                        ),
                        rollout_substeps=controller.rollout_substeps,
                        duration_s=duration_s,
                        reference=snapshot,
                    )
                    feasible = worst_peak <= limit_c
                    rollout_span.set(
                        feasible=feasible, plant_energy_j=energy_j
                    )
                rollouts.append(
                    RolloutResult(
                        candidate=candidate,
                        setpoints_c=setpoints,
                        plant_energy_j=energy_j,
                        worst_peak_case_c=worst_peak,
                        feasible=feasible,
                    )
                )
                session.restore(snapshot)
        finally:
            session.restore(snapshot)
        chosen = min(rollouts, key=lambda rollout: rollout.cost)
        if not chosen.feasible:
            # Every candidate predicts a guard breach: commit the coolest
            # plan.
            chosen = min(rollouts, key=lambda rollout: rollout.worst_peak_case_c)
        plan_span.set(
            chosen=chosen.candidate.name,
            n_feasible=sum(1 for rollout in rollouts if rollout.feasible),
        )
        return MpcPlan(
            time_s=time_s,
            setpoint_c=setpoint_c,
            rollouts=tuple(rollouts),
            chosen=chosen,
        )
