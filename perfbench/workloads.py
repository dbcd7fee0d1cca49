"""The four benchmark workloads: seeded inputs, one timed run, its outputs.

Each workload is built from a seed in two phases, as a user would drive the
library: :func:`setup` constructs everything the run needs (floorplans,
scenario, platform, model) through the public API, then :func:`run` performs
the one closed-loop run that is timed.  The program only ever sees the
generated inputs; the outputs it returns are reduced to an :class:`Outcome`
that the checks in :mod:`perfbench.checks` compare and digest.

Workloads
---------
``floor_reactive``
    Diurnal floor, 2 racks x 4 servers, one hardware group, 1.5 mm grid,
    fine period stepping under the reactive supervisory setpoint loop on a
    single chiller plant.
``floor_mpc``
    Flash-crowd floor, 2 x 2 servers, 1.5 mm grid, a 3-unit staged chiller
    bank under receding-horizon MPC (horizon 4).
``coarse_2sku``
    Two SKUs (default and 44 mm spreader), one 2-server rack each, diurnal
    load with 120 s phases, span coarsening through the reduced-order lane,
    two worker threads and a warm store filled by a separate cold run.
``mapping_sweep``
    The paper's Table II: 3 approaches x 3 QoS levels x 13 PARSEC
    benchmarks at 1.0 mm, in a seeded benchmark order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

import numpy as np

#: The seed the pinned reference outputs were recorded at.
DEFAULT_SEED = 7

WORKLOADS = ("floor_reactive", "floor_mpc", "coarse_2sku", "mapping_sweep")

CONTROL_PERIOD_S = 2.0
FLOOR_CELL_SIZE_MM = 1.5
SWEEP_CELL_SIZE_MM = 1.0

#: Simulated seconds per timed run of each floor workload.
DURATION_S = {
    "floor_reactive": 48.0,
    "floor_mpc": 48.0,
    "coarse_2sku": 1440.0,
}
SUPERVISORY_PERIOD_S = {
    "floor_reactive": 8.0,
    "floor_mpc": 8.0,
    "coarse_2sku": 600.0,
}
COARSE_PHASE_DT_S = 120.0
COARSE_SPREADERS_MM = (None, 44.0)
SETPOINT_MAX_C = 40.0


@dataclass
class Outcome:
    """What one run produced, reduced to the checked statistics.

    ``peaks_c`` holds the per-period, per-server within-period peak case
    temperatures of a floor run (``(n_periods, n_servers)``) or the die hot
    spot of every Table II cell (``(n_cells, 1)``).  ``work`` counts the
    units ``work_per_s`` is measured in: simulated server control periods
    on a floor, evaluated sweep points on ``mapping_sweep``.
    """

    work: int
    plant_energy_j: float
    violations: int
    peaks_c: np.ndarray
    extra: dict = field(default_factory=dict)


@dataclass
class Ready:
    """A workload after set-up: everything :func:`run` needs."""

    name: str
    seed: int
    objects: dict


def _floor_model(racks, floorplan, **kwargs):
    from repro.datacenter import DatacenterModel
    from repro.thermal.simulator import ThermalSimulator

    return DatacenterModel(
        racks,
        floorplan=floorplan,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=FLOOR_CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        **kwargs,
    )


def _coarse_racks(seed: int):
    """Two SKUs, one 2-server rack each; SKU ``i`` takes seed ``seed + i``."""
    from repro.datacenter import build_scenario
    from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan

    floorplans = [
        build_xeon_e5_v4_floorplan()
        if spreader is None
        else build_xeon_e5_v4_floorplan(spreader_size_mm=spreader)
        for spreader in COARSE_SPREADERS_MM
    ]
    racks = []
    for index, floorplan in enumerate(floorplans):
        scenario = build_scenario(
            "diurnal",
            n_racks=1,
            servers_per_rack=2,
            duration_s=DURATION_S["coarse_2sku"],
            seed=seed + index,
            phase_dt_s=COARSE_PHASE_DT_S,
            floorplan=floorplan,
        )
        racks.append(
            replace(
                scenario.racks[0],
                name=f"sku{index}",
                floorplan=None if index == 0 else floorplan,
            )
        )
    return floorplans[0], tuple(racks)


def coarse_model(seed: int, *, store_dir=None, fine: bool = False):
    """The ``coarse_2sku`` floor; ``fine=True`` builds its fine-lane twin.

    The fine twin steps every period at full resolution, serially and
    without a warm store: the reference the coarse lane is held to.
    """
    from repro.datacenter.model import CoarseningConfig
    from repro.thermal.warm_store import WarmStore

    floorplan, racks = _coarse_racks(seed)
    if fine:
        return _floor_model(racks, floorplan)
    return _floor_model(
        racks,
        floorplan,
        coarsening=CoarseningConfig(),
        parallel_groups=len(COARSE_SPREADERS_MM),
        warm_store=WarmStore(store_dir),
    )


def expected_work(name: str) -> int:
    """Work units a correct run completes: the workload's spec, restated."""
    if name == "mapping_sweep":
        from repro.workloads.parsec import PARSEC_BENCHMARK_NAMES

        return 3 * 3 * len(PARSEC_BENCHMARK_NAMES)
    servers = {"floor_reactive": 2 * 4, "floor_mpc": 2 * 2, "coarse_2sku": 2 * 2}[name]
    return servers * int(round(DURATION_S[name] / CONTROL_PERIOD_S))


def sweep_order(seed: int) -> tuple[str, ...]:
    """The PARSEC benchmarks in the seeded order the sweep visits them."""
    from repro.workloads.parsec import PARSEC_BENCHMARK_NAMES

    names = list(PARSEC_BENCHMARK_NAMES)
    random.Random(seed).shuffle(names)
    return tuple(names)


def setup(name: str, seed: int, *, store_dir=None) -> Ready:
    """Build the workload's inputs and program objects (the set-up phase)."""
    from repro.datacenter import (
        MpcSupervisoryController,
        SupervisoryController,
        build_scenario,
    )
    from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
    from repro.thermosyphon.chiller import ChillerBank, ChillerPlant

    if name == "floor_reactive":
        floorplan = build_xeon_e5_v4_floorplan()
        scenario = build_scenario(
            "diurnal",
            n_racks=2,
            servers_per_rack=4,
            duration_s=DURATION_S[name],
            seed=seed,
            floorplan=floorplan,
        )
        model = _floor_model(scenario.racks, floorplan, plant=ChillerPlant())
        supervisory = SupervisoryController(
            period_s=SUPERVISORY_PERIOD_S[name], setpoint_max_c=SETPOINT_MAX_C
        )
        return Ready(name, seed, {"model": model, "supervisory": supervisory})
    if name == "floor_mpc":
        floorplan = build_xeon_e5_v4_floorplan()
        scenario = build_scenario(
            "flash_crowd",
            n_racks=2,
            servers_per_rack=2,
            duration_s=DURATION_S[name],
            seed=seed,
            floorplan=floorplan,
        )
        bank = ChillerBank.uniform(
            3,
            120.0 * scenario.n_servers / 3,
            plant=ChillerPlant(free_cooling_outdoor_c=18.0),
        )
        model = _floor_model(scenario.racks, floorplan, plant=bank)
        supervisory = MpcSupervisoryController(
            period_s=SUPERVISORY_PERIOD_S[name], setpoint_max_c=SETPOINT_MAX_C, horizon=4
        )
        return Ready(name, seed, {"model": model, "supervisory": supervisory})
    if name == "coarse_2sku":
        model = coarse_model(seed, store_dir=store_dir)
        supervisory = SupervisoryController(
            period_s=SUPERVISORY_PERIOD_S[name], setpoint_max_c=SETPOINT_MAX_C
        )
        return Ready(name, seed, {"model": model, "supervisory": supervisory})
    if name == "mapping_sweep":
        from repro.experiments.common import build_platform

        platform = build_platform(cell_size_mm=SWEEP_CELL_SIZE_MM)
        return Ready(name, seed, {"platform": platform, "order": sweep_order(seed)})
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _floor_outcome(trace) -> Outcome:
    """Reduce a :class:`~repro.datacenter.DatacenterTrace` to an Outcome."""
    peaks = np.array(
        [
            [d.period_peak_case_c for rack in trace.racks for d in rack.periods[t]]
            for t in range(trace.n_periods)
        ],
        dtype=float,
    )
    extra = {"coarse_spans": trace.coarse_spans}
    if trace.rom_stats is not None:
        extra["rom_stats"] = {
            name: getattr(trace.rom_stats, name) for name in trace.rom_stats.FIELDS
        }
    return Outcome(
        work=trace.n_periods * trace.n_servers,
        plant_energy_j=float(trace.plant_energy_j),
        violations=int(trace.thermal_violations),
        peaks_c=peaks,
        extra=extra,
    )


def run(ready: Ready) -> Outcome:
    """The timed part: one closed-loop run of the workload."""
    objects = ready.objects
    if ready.name == "mapping_sweep":
        from repro.experiments.table2_hotspots import run_table2

        result = run_table2(objects["platform"], benchmark_names=objects["order"])
        cells = sorted(
            result.cells, key=lambda c: (c.approach, c.qos_label, c.benchmark)
        )
        rows = {
            f"{row.approach}|{row.qos_label}": row.die_theta_max_c
            for row in result.comparison.rows
        }
        return Outcome(
            work=len(result.cells),
            plant_energy_j=0.0,
            violations=0,
            peaks_c=np.array([[cell.die_theta_max_c] for cell in cells], dtype=float),
            extra={"rows": rows},
        )
    model = objects["model"]
    session = model.session()
    try:
        trace = session.run(
            duration_s=DURATION_S[ready.name], supervisory=objects["supervisory"]
        )
    finally:
        session.close()
    outcome = _floor_outcome(trace)
    if model.warm_store is not None:
        stats = model.warm_store.stats
        outcome.extra["warm_store"] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "stale": stats.stale,
            "stores": stats.stores,
        }
    if ready.name == "floor_mpc":
        outcome.extra["mpc_plans"] = len(objects["supervisory"].planning_log)
    return outcome
