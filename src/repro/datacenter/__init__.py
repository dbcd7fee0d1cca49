"""Datacenter layer: a floor of racks advanced through stacked group solves.

The top of the scaling ladder this repository climbs (server -> rack ->
datacenter).  A floor of racks — homogeneous or **mixed-SKU**, each
:class:`~repro.datacenter.model.RackSpec` optionally carrying its own
floorplan, thermosyphon design and power model — shares one chiller plant
(:class:`~repro.thermosyphon.chiller.ChillerPlant`) whose water supply
temperature is the *slow* actuator: the
:class:`~repro.datacenter.supervisory.SupervisoryController` raises it to
save plant electrical power while every server's predicted peak case
temperature clears ``T_CASE_MAX``, and drops it the moment any server
enters the violation band — layered on top of the paper's *fast*
per-server valve/DVFS rule.  The
:class:`~repro.datacenter.supervisory.MpcSupervisoryController` replaces
the reactive bound with receding-horizon rollouts through the real engine
(:mod:`repro.datacenter.mpc`) — snapshot the warm floor, simulate a small
family of candidate setpoint trajectories, commit the first step of the
cheapest one predicted to keep every server under the guard margin — and
a staged :class:`~repro.thermosyphon.chiller.ChillerBank` gives the plant
unit-commitment degrees of freedom on top of the setpoint.

The physics of every control period belongs to the
:class:`~repro.datacenter.floor.FloorEngine`: servers across the whole
floor are grouped by hardware (one
:class:`~repro.thermal.simulator.ThermalSimulator` per distinct
floorplan) and by cooling-boundary content, and each group advances
through **one** stacked multi-RHS back-substitution per substep and one
evaporator lane march per boundary refresh, stacked from the rack
sessions, which stay the only owners of per-server state.  A homogeneous
N-rack floor therefore costs roughly one rack's factorizations and solves,
and a heterogeneous floor simply stacks fewer rows per group; both stay
bit-identical to the per-server golden loop (``tests/reference_session.py``)
because batching never changes the arithmetic.  The scenario engine
(:mod:`repro.datacenter.scenarios`) generates seeded, replayable
floor-wide load shapes (diurnal, flash crowd, rolling batch, mixed) from
the existing PARSEC phase traces, optionally cycling several thermosyphon
designs across racks for mixed-SKU floors.
"""

from repro.datacenter.floor import FloorAdvance, FloorEngine, FloorSnapshot
from repro.datacenter.model import (
    DatacenterModel,
    DatacenterPeriod,
    DatacenterSession,
    DatacenterSnapshot,
    DatacenterTrace,
    RackSpec,
)
from repro.datacenter.mpc import (
    CandidateTrajectory,
    MpcPlan,
    RolloutResult,
    default_candidates,
    plan_setpoint,
    rollout_trajectory,
)
from repro.datacenter.scenarios import (
    DEFAULT_BENCHMARKS,
    SCENARIO_KINDS,
    DatacenterScenario,
    build_scenario,
    modulate_trace,
)
from repro.datacenter.supervisory import (
    MpcSupervisoryController,
    SupervisoryAction,
    SupervisoryController,
    SupervisoryDecision,
)

__all__ = [
    "DatacenterModel",
    "DatacenterPeriod",
    "DatacenterSession",
    "DatacenterSnapshot",
    "DatacenterTrace",
    "FloorAdvance",
    "FloorEngine",
    "FloorSnapshot",
    "RackSpec",
    "DatacenterScenario",
    "DEFAULT_BENCHMARKS",
    "SCENARIO_KINDS",
    "build_scenario",
    "modulate_trace",
    "CandidateTrajectory",
    "MpcPlan",
    "MpcSupervisoryController",
    "RolloutResult",
    "SupervisoryAction",
    "SupervisoryController",
    "SupervisoryDecision",
    "default_candidates",
    "plan_setpoint",
    "rollout_trajectory",
]
