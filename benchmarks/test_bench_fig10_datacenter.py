"""Datacenter-engine benchmark: supervisory floor trace vs naive re-solve.

Not a paper artefact: pins the cost of the fig10 study's hot path.  The
supervisory datacenter engine advances every server through warm-start
transient steps of the floor engine on one shared factorization cache;
the naive baseline is what a first implementation would do — re-solve
every server to steady state every control period
(:meth:`CooledServerSimulation.simulate_mapping`), invalidating the
simulator's factorization cache before every solve so each one pays its
own banded factorization.  ``test_fig10_supervisory_speedup_vs_naive`` is
a hard gate (also run by the CI ``--quick`` smoke step) so the datacenter
layer cannot silently regress to per-period re-solving.
"""

from __future__ import annotations

import time

from repro.core.runtime_controller import DecisionPolicy, mapping_at_frequency
from repro.core.pipeline import CooledServerSimulation
from repro.datacenter.model import DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.datacenter.supervisory import SupervisoryController
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import ServerPowerModel
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.chiller import ChillerPlant
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN

CELL_SIZE_MM = 2.0
N_RACKS = 2
SERVERS_PER_RACK = 4
DURATION_S = 16.0
CONTROL_PERIOD_S = 2.0
SUPERVISORY_PERIOD_S = 8.0
#: A homogeneous floor — the rack engine's design case (Section V racks are
#: homogeneous): servers sharing a cooling boundary converge their loop once
#: and solve through one multi-column back-substitution, while the naive
#: path pays every server separately.
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


def _supervisory():
    return SupervisoryController(period_s=SUPERVISORY_PERIOD_S, setpoint_max_c=40.0)


def _run_engine(floorplan, power_model, scenario, plant):
    """The datacenter engine: shared simulator, warm-start rack sessions."""
    floor = DatacenterModel(
        scenario.racks,
        plant=plant,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
    )
    return floor.run_trace(duration_s=DURATION_S, supervisory=_supervisory())


def _run_naive(floorplan, power_model, scenario, plant):
    """Naive re-solve: every period, every server, a fresh steady solve.

    Per-rack simulators whose factorization cache is invalidated before
    every solve, so each (server, period) pays one banded factorization —
    the cost model of a first implementation without operator reuse,
    warm-start stepping or multi-RHS batching.  The control logic (fast
    valve/DVFS rule + slow supervisory setpoint) is identical.
    """
    policy = DecisionPolicy()
    supervisory = _supervisory()
    setpoint = PAPER_OPTIMIZED_DESIGN.water_inlet_temperature_c
    periods_per_window = int(round(SUPERVISORY_PERIOD_S / CONTROL_PERIOD_S))
    base_loop = PAPER_OPTIMIZED_DESIGN.water_loop().with_inlet_temperature(setpoint)

    racks = []
    for rack in scenario.racks:
        simulator = ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM)
        racks.append(
            {
                "spec": rack,
                "simulator": simulator,
                "simulations": [
                    CooledServerSimulation(
                        floorplan,
                        power_model=power_model,
                        thermal_simulator=simulator,
                    )
                    for _ in rack.servers
                ],
                "loops": [base_loop] * rack.n_servers,
                "frequencies": [
                    server.mapping.configuration.frequency_ghz
                    for server in rack.servers
                ],
            }
        )

    plant_power_w = []
    window_peak = float("-inf")
    period_index = 0
    time_s = 0.0
    while time_s < DURATION_S:
        chiller = plant.chiller_at(setpoint)
        period_power = 0.0
        for state in racks:
            spec = state["spec"]
            for index, server in enumerate(spec.servers):
                mapping = mapping_at_frequency(
                    server.mapping, state["frequencies"][index]
                )
                phase = spec.server_trace(index).phase_at(time_s)
                state["simulator"].solver_cache.invalidate()
                result = state["simulations"][index].simulate_mapping(
                    server.benchmark,
                    mapping,
                    water_loop=state["loops"][index],
                    activity_factor=phase.activity_factor,
                )
                period_power += chiller.cooling_power_w(
                    state["loops"][index], result.package_power_w
                )
                window_peak = max(window_peak, result.case_temperature_c)
                _, state["loops"][index], state["frequencies"][index] = (
                    policy.decide(
                        result,
                        state["loops"][index],
                        server.benchmark,
                        server.constraint,
                    )
                )
        plant_power_w.append(period_power)
        period_index += 1
        time_s += CONTROL_PERIOD_S
        if period_index % periods_per_window == 0 and time_s < DURATION_S:
            decision = supervisory.decide(time_s, setpoint, window_peak)
            if decision.next_setpoint_c != setpoint:
                setpoint = decision.next_setpoint_c
                for state in racks:
                    state["loops"] = [
                        loop.with_inlet_temperature(setpoint)
                        for loop in state["loops"]
                    ]
            window_peak = float("-inf")
    return plant_power_w


def test_bench_fig10_supervisory_engine(benchmark):
    floorplan, power_model, scenario, plant = _setup()
    trace = benchmark(lambda: _run_engine(floorplan, power_model, scenario, plant))
    assert trace.n_periods == int(DURATION_S / CONTROL_PERIOD_S)
    assert trace.thermal_violations == 0


def test_bench_fig10_naive_resolve(benchmark):
    floorplan, power_model, scenario, plant = _setup()
    plant_power_w = benchmark(
        lambda: _run_naive(floorplan, power_model, scenario, plant)
    )
    assert len(plant_power_w) == int(DURATION_S / CONTROL_PERIOD_S)


def test_fig10_supervisory_speedup_vs_naive(capsys):
    """ISSUE acceptance: supervisory datacenter engine >= 2x vs naive re-solve.

    The naive path factorizes the thermal operator for every (server,
    period) pair; the engine pays a handful of factorizations on one
    shared cache and back-substitutes whole racks per substep.  Observed
    ratio is well above the gate; 2x is the floor so CI noise cannot
    flake it while a regression to re-solving fails loudly.
    """
    floorplan, power_model, scenario, plant = _setup()

    start = time.perf_counter()
    naive_power = _run_naive(floorplan, power_model, scenario, plant)
    naive_s = time.perf_counter() - start

    timings = []
    trace = None
    for _ in range(3):
        start = time.perf_counter()
        trace = _run_engine(floorplan, power_model, scenario, plant)
        timings.append(time.perf_counter() - start)
    engine_s = min(timings)

    # Sanity: both paths saw the same floor and produced full traces.
    assert trace is not None
    assert trace.n_periods == len(naive_power)
    assert trace.thermal_violations == 0

    speedup = naive_s / engine_s
    with capsys.disabled():
        print(
            f"\n[fig10 datacenter @ {CELL_SIZE_MM} mm, {N_RACKS}x"
            f"{SERVERS_PER_RACK} servers, {int(DURATION_S / CONTROL_PERIOD_S)} "
            f"periods] naive {naive_s * 1e3:.0f} ms, engine "
            f"{engine_s * 1e3:.0f} ms, speedup {speedup:.1f}x "
            f"(engine factorizations: {trace.factorizations})"
        )
    assert speedup >= 2.0
