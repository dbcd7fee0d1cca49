"""Floor-engine benchmark: stacked floor-wide solves vs standalone rack traces.

Not a paper artefact: pins the win of the floor engine's ownership
inversion.  Both sides run the *same* racks — one shared thermal
simulator and factorization cache, identical physics and decisions — and
differ only in orchestration: the :class:`DatacenterModel` floor engine
advances every server on the floor through one stacked multi-RHS
back-substitution per (hardware group, cooling boundary) per substep with
floor-wide power-model memoization and lane-march batching, while the
baseline runs one :meth:`ThermosyphonController.run_rack_trace` per rack.
A fixed-setpoint floor reproduces those standalone rack traces bit for
bit (the golden contract of ``tests/test_floor.py``), so the baseline is
the floor's reference model.  ``test_floor_engine_speedup_vs_per_rack``
is a hard gate (also run by the CI ``--quick`` smoke step) so the floor
cannot silently regress to rack-at-a-time stepping;
``test_heterogeneous_floor_runs_stacked`` pins that a mixed-SKU floor
runs through the stacked engine — multiple hardware groups, no fallback.
"""

from __future__ import annotations

import time

from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import ThermosyphonController
from repro.datacenter.model import DatacenterModel, RackSpec
from repro.datacenter.scenarios import build_scenario
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import ServerPowerModel
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.chiller import ChillerPlant
from repro.thermosyphon.design import (
    PAPER_OPTIMIZED_DESIGN,
    SEURET_REFERENCE_DESIGN,
)

CELL_SIZE_MM = 3.0
N_RACKS = 32
SERVERS_PER_RACK = 2
DURATION_S = 24.0
CONTROL_PERIOD_S = 2.0
TRANSIENT_SUBSTEPS = 2
#: One benchmark everywhere: a homogeneous fleet is the floor engine's
#: design case — every server on the floor shares one cooling boundary, so
#: each substep is a single (64, n_cells) back-substitution where the
#: rack traces pay one call per rack (and one power-model evaluation per
#: server where the floor memoizes one per distinct workload).  A wide
#: floor of small racks is the regime the engine exists for: per-rack costs
#: scale with the rack count while the floor's call counts stay fixed, and
#: the shared back-substitution row-work — identical on both sides — is
#: kept from drowning the orchestration gap by the coarse grid.
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
    # Identical servers floor-wide: give every rack rack 0's trace so the
    # whole floor shares one cooling boundary (the homogeneous-fleet case;
    # per-server traces would exercise the same code with more groups).
    shared = scenario.racks[0]
    racks = tuple(
        RackSpec(name=f"rack{i}", servers=shared.servers) for i in range(N_RACKS)
    )
    plant = ChillerPlant(free_cooling_outdoor_c=18.0)
    return floorplan, power_model, racks, plant


def _run(floorplan, power_model, racks, plant):
    floor = DatacenterModel(
        racks,
        plant=plant,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        transient_substeps=TRANSIENT_SUBSTEPS,
    )
    return floor.run_trace(duration_s=DURATION_S)


def _run_rack_traces(floorplan, power_model, racks, plant):
    """The per-rack baseline: one standalone rack trace per rack.

    Every rack runs on one shared thermal simulator at the floor's default
    setpoint.  Returns the per-period plant power (rack chiller powers
    summed in rack order, as the floor sums them) and the factorizations
    of the whole run.
    """
    simulation = CooledServerSimulation(
        floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
    )
    controller = ThermosyphonController(simulation, control_period_s=CONTROL_PERIOD_S)
    setpoint = PAPER_OPTIMIZED_DESIGN.water_inlet_temperature_c
    water_loop = PAPER_OPTIMIZED_DESIGN.water_loop().with_inlet_temperature(setpoint)
    rack_traces = [
        controller.run_rack_trace(
            rack.servers,
            initial_water_loop=water_loop,
            transient_substeps=TRANSIENT_SUBSTEPS,
            chiller=plant.chiller_at(setpoint),
        )
        for rack in racks
    ]
    plant_power_w = [
        sum(powers) for powers in zip(*(trace.chiller_power_w for trace in rack_traces))
    ]
    return plant_power_w, sum(trace.factorizations for trace in rack_traces)


def test_bench_floor_engine(benchmark):
    floorplan, power_model, racks, plant = _setup()
    trace = benchmark(lambda: _run(floorplan, power_model, racks, plant))
    assert trace.n_periods == int(DURATION_S / CONTROL_PERIOD_S)
    assert trace.n_servers == N_RACKS * SERVERS_PER_RACK


def test_bench_floor_per_rack_baseline(benchmark):
    floorplan, power_model, racks, plant = _setup()
    plant_power_w, _ = benchmark(
        lambda: _run_rack_traces(floorplan, power_model, racks, plant)
    )
    assert len(plant_power_w) == int(DURATION_S / CONTROL_PERIOD_S)


def test_floor_engine_speedup_vs_per_rack(capsys):
    """Acceptance gate: floor engine >= 2x standalone rack traces, 32 racks.

    Identical physics on identical hardware — the baseline even keeps the
    shared factorization cache — so the measured gap is pure orchestration:
    stacked multi-RHS solves, floor-wide lane marches and memoized power
    evaluation vs rack-at-a-time stepping.  Observed ratio is above the
    gate with margin; 2x is the floor so CI noise cannot flake it while a
    regression to per-rack physics fails loudly.
    """
    floorplan, power_model, racks, plant = _setup()

    start = time.perf_counter()
    baseline_power_w, baseline_factorizations = _run_rack_traces(
        floorplan, power_model, racks, plant
    )
    per_rack_s = time.perf_counter() - start

    timings = []
    trace = None
    for _ in range(3):
        start = time.perf_counter()
        trace = _run(floorplan, power_model, racks, plant)
        timings.append(time.perf_counter() - start)
    floor_s = min(timings)

    # Sanity: both sides produced the same floor-wide physics.
    assert trace is not None
    assert trace.n_periods == len(baseline_power_w)
    assert trace.plant_power_w == baseline_power_w
    assert trace.factorizations == baseline_factorizations

    speedup = per_rack_s / floor_s
    with capsys.disabled():
        print(
            f"\n[floor engine @ {CELL_SIZE_MM} mm, {N_RACKS}x{SERVERS_PER_RACK} "
            f"servers, {trace.n_periods} periods] per-rack "
            f"{per_rack_s * 1e3:.0f} ms, floor {floor_s * 1e3:.0f} ms, "
            f"speedup {speedup:.1f}x (factorizations: {trace.factorizations})"
        )
    assert speedup >= 2.0


def test_heterogeneous_floor_runs_stacked(capsys):
    """Acceptance gate: a mixed-SKU floor runs through the stacked engine.

    Two floorplans x two thermosyphon designs across four racks: the
    session must report multiple hardware groups (one per distinct thermal
    network) and complete a full supervised-free trace through the floor
    engine — there is no fallback path to fall back to.
    """
    floorplan = build_xeon_e5_v4_floorplan()
    second_floorplan = build_xeon_e5_v4_floorplan(spreader_size_mm=42.0)
    power_model = ServerPowerModel(floorplan)
    scenario = build_scenario(
        "diurnal",
        n_racks=4,
        servers_per_rack=2,
        duration_s=DURATION_S,
        seed=7,
        floorplan=floorplan,
        benchmarks=BENCHMARKS,
        designs=(PAPER_OPTIMIZED_DESIGN, SEURET_REFERENCE_DESIGN),
    )
    racks = tuple(
        RackSpec(
            name=spec.name,
            servers=spec.servers,
            trace=spec.trace,
            floorplan=second_floorplan if index % 2 else None,
            design=spec.design,
        )
        for index, spec in enumerate(scenario.racks)
    )
    floor = DatacenterModel(
        racks,
        plant=ChillerPlant(free_cooling_outdoor_c=18.0),
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        transient_substeps=TRANSIENT_SUBSTEPS,
    )
    assert floor.n_hardware_groups == 2
    session = floor.session()
    assert session.floor_engine is not None
    assert session.floor_engine.n_hardware_groups == 2

    start = time.perf_counter()
    trace = session.run(duration_s=DURATION_S)
    wall_s = time.perf_counter() - start

    assert trace.n_periods == int(DURATION_S / CONTROL_PERIOD_S)
    assert trace.n_servers == 8
    # Both hardware groups held cooling boundaries through the whole run.
    groups = session.floor_engine.boundary_groups()
    assert sum(len(group) for group in groups) == 8
    assert len(groups) >= 2
    with capsys.disabled():
        print(
            f"\n[hetero floor @ {CELL_SIZE_MM} mm, 4x2 servers, 2 hardware "
            f"groups] {wall_s * 1e3:.0f} ms, factorizations: "
            f"{trace.factorizations}"
        )
