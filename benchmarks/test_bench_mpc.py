"""MPC supervisory planning benchmark: rollout overhead vs reactive loop.

Not a paper artefact: pins the cost of the model-predictive supervisory
layer.  Each MPC decision snapshots the warm floor and rolls six candidate
setpoint trajectories ``HORIZON`` windows forward through the real engine.
Every rollout period moves the setpoint or the load, so each server
refreshes its cooling boundary and meets an operator it uses once.  A
server alone on its boundary is solved by preconditioned conjugate
gradients from the factor of the boundary it held in the planning
snapshot — one factorization per server and plan, shared by all
candidates; servers sharing a boundary still factor it.  Operating points
are memoized floor-wide.  ``test_mpc_overhead_vs_reactive`` is a hard
gate (also run by the CI ``--quick`` smoke step): the MPC run must stay
within ``MAX_OVERHEAD`` x the reactive supervisory run's wall-clock — per
supervisory decision, both runs take the same number — so the planner can
never silently regress to cold-cache rollouts or snapshot deep copies.
"""

from __future__ import annotations

import time

from repro.datacenter.model import DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.datacenter.supervisory import (
    MpcSupervisoryController,
    SupervisoryController,
)
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import ServerPowerModel
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.chiller import ChillerPlant

CELL_SIZE_MM = 2.0
N_RACKS = 2
SERVERS_PER_RACK = 4
DURATION_S = 16.0
CONTROL_PERIOD_S = 2.0
SUPERVISORY_PERIOD_S = 8.0
HORIZON = 4
#: The gate: MPC wall-clock per supervisory decision must stay within this
#: multiple of the reactive loop's.  Six candidates x one simulated period
#: per window, each refreshed server solved iteratively from its snapshot
#: boundary's factor (or factored when it shares its boundary), land well
#: under it; a regression to cold-cache rollouts blows straight past.
MAX_OVERHEAD = 5.0
BENCHMARKS = ("x264",)


def _setup():
    floorplan = build_xeon_e5_v4_floorplan()
    power_model = ServerPowerModel(floorplan)
    scenario = build_scenario(
        "diurnal",
        n_racks=N_RACKS,
        servers_per_rack=SERVERS_PER_RACK,
        duration_s=DURATION_S,
        seed=7,
        floorplan=floorplan,
        benchmarks=BENCHMARKS,
    )
    plant = ChillerPlant(free_cooling_outdoor_c=18.0)
    return floorplan, power_model, scenario, plant


def _floor(floorplan, power_model, scenario, plant):
    return DatacenterModel(
        scenario.racks,
        plant=plant,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
    )


def _run_reactive(floorplan, power_model, scenario, plant):
    supervisory = SupervisoryController(
        period_s=SUPERVISORY_PERIOD_S, setpoint_max_c=40.0
    )
    floor = _floor(floorplan, power_model, scenario, plant)
    return floor.run_trace(duration_s=DURATION_S, supervisory=supervisory)


def _run_mpc(floorplan, power_model, scenario, plant):
    planner = MpcSupervisoryController(
        period_s=SUPERVISORY_PERIOD_S, setpoint_max_c=40.0, horizon=HORIZON
    )
    floor = _floor(floorplan, power_model, scenario, plant)
    return floor.run_trace(duration_s=DURATION_S, supervisory=planner), planner


def test_bench_mpc_supervisory_run(benchmark):
    floorplan, power_model, scenario, plant = _setup()
    trace, planner = benchmark(
        lambda: _run_mpc(floorplan, power_model, scenario, plant)
    )
    assert trace.n_periods == int(DURATION_S / CONTROL_PERIOD_S)
    assert trace.thermal_violations == 0
    assert planner.planning_log  # the run really planned


def test_mpc_overhead_vs_reactive(capsys):
    """ISSUE acceptance: MPC stays within 5x reactive wall-clock per decision.

    Both runs take identical supervisory decision counts over the same
    floor, so the total-wall-clock ratio *is* the per-decision ratio.
    Minimum of three repetitions on each side keeps cache-warmup and
    scheduler noise out of the gate.
    """
    floorplan, power_model, scenario, plant = _setup()

    reactive_timings = []
    reactive = None
    for _ in range(3):
        start = time.perf_counter()
        reactive = _run_reactive(floorplan, power_model, scenario, plant)
        reactive_timings.append(time.perf_counter() - start)
    reactive_s = min(reactive_timings)

    mpc_timings = []
    mpc = planner = None
    for _ in range(3):
        start = time.perf_counter()
        mpc, planner = _run_mpc(floorplan, power_model, scenario, plant)
        mpc_timings.append(time.perf_counter() - start)
    mpc_s = min(mpc_timings)

    # Sanity: same floor, same decision cadence, candidates within budget.
    assert mpc is not None and reactive is not None
    assert len(mpc.supervisory_decisions) == len(reactive.supervisory_decisions)
    assert len(planner.candidates) <= 8
    assert mpc.thermal_violations == 0

    n_decisions = max(1, len(mpc.supervisory_decisions))
    overhead = mpc_s / reactive_s
    with capsys.disabled():
        print(
            f"\n[mpc supervisory @ {CELL_SIZE_MM} mm, {N_RACKS}x"
            f"{SERVERS_PER_RACK} servers, horizon {HORIZON}, "
            f"{len(planner.candidates)} candidates] reactive "
            f"{reactive_s * 1e3:.0f} ms, mpc {mpc_s * 1e3:.0f} ms "
            f"({(mpc_s - reactive_s) * 1e3 / n_decisions:.0f} ms/decision "
            f"planning), overhead {overhead:.2f}x"
        )
    assert overhead <= MAX_OVERHEAD
