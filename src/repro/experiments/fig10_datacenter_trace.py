"""Datacenter trace study — fixed vs reactive vs MPC setpoint control.

The datacenter companion of the fig9 rack study and the runtime answer to
the paper's Section VIII argument: the warmer the chiller water, the
cheaper the cooling — *if* every CPU stays under its case-temperature
limit.  A seeded scenario (diurnal by default) drives a floor of racks
behind one shared chiller plant up to three times:

* **fixed** — the chiller supply stays at the design setpoint for the
  whole trace; only the paper's fast per-server valve/DVFS rule acts.
* **supervisory** — the reactive slow loop of
  :class:`~repro.datacenter.supervisory.SupervisoryController` raises the
  setpoint step by step while every server's predicted peak case
  temperature clears ``T_CASE_MAX`` by a guard margin, and drops it on a
  violation.
* **mpc** (``mpc=True``) — the
  :class:`~repro.datacenter.supervisory.MpcSupervisoryController` plans
  the setpoint by receding-horizon rollouts through the real floor
  engine, taking the multi-step raises the reactive bound never
  authorizes.

All runs share the identical floor, scenario and fast rule, so the report
isolates the supervisory layers' contributions: plant energy saved at
zero thermal violations, plus the floor-wide operator-factorization count
that the shared solver cache keeps low (every rack — and every MPC
rollout — draws from one cache).  ``chillers > 1`` swaps the single plant
for a staged :class:`~repro.thermosyphon.chiller.ChillerBank` with
part-load curves, adding unit commitment to every run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.datacenter.model import CoarseningConfig, DatacenterModel, DatacenterTrace
from repro.datacenter.scenarios import DatacenterScenario, build_scenario
from repro.datacenter.supervisory import (
    MpcSupervisoryController,
    SupervisoryController,
)
from repro.experiments.common import Platform, build_platform
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.chiller import ChillerBank, ChillerPlant
from repro.thermosyphon.design import (
    PAPER_OPTIMIZED_DESIGN,
    SEURET_REFERENCE_DESIGN,
)


@dataclass
class Fig10Result:
    """Fixed vs reactive (vs MPC) runs of one datacenter scenario.

    ``mpc`` and ``mpc_wall_time_s`` are ``None`` unless the study ran the
    third, model-predictive leg.
    """

    scenario: DatacenterScenario
    setpoint_c: float
    fixed: DatacenterTrace
    fixed_wall_time_s: float
    supervisory: DatacenterTrace
    supervisory_wall_time_s: float
    mpc: DatacenterTrace | None = None
    mpc_wall_time_s: float | None = None
    n_chillers: int = 1
    coarse: bool = False

    @property
    def plant_energy_saved_pct(self) -> float:
        """Plant electrical energy saved by the reactive supervisory loop."""
        baseline = self.fixed.plant_energy_j
        if baseline <= 0.0:
            return 0.0
        return (baseline - self.supervisory.plant_energy_j) / baseline * 100.0

    @property
    def mpc_plant_energy_saved_pct(self) -> float:
        """Plant energy saved by MPC over the *fixed* baseline."""
        baseline = self.fixed.plant_energy_j
        if self.mpc is None or baseline <= 0.0:
            return 0.0
        return (baseline - self.mpc.plant_energy_j) / baseline * 100.0

    @property
    def mpc_vs_reactive_saved_pct(self) -> float:
        """Plant energy saved by MPC over the *reactive* supervisory run."""
        baseline = self.supervisory.plant_energy_j
        if self.mpc is None or baseline <= 0.0:
            return 0.0
        return (baseline - self.mpc.plant_energy_j) / baseline * 100.0

    def as_table(self, *, verbose: bool = False) -> str:
        """Textual report of every run.

        ``verbose`` appends each run's full :meth:`~repro.datacenter.\
model.DatacenterTrace.summary` — including the telemetry footer when a
        telemetry hub is enabled (span counts, ROM fallback causes, cache
        hit rate).
        """
        scenario = self.scenario
        plant = (
            f"{self.n_chillers}-unit staged bank"
            if self.n_chillers > 1
            else "single plant"
        )
        header = (
            f"Datacenter trace - {scenario.kind} scenario, {scenario.n_racks} racks x "
            f"{scenario.racks[0].n_servers} servers, {scenario.duration_s:.0f} s, "
            f"seed {scenario.seed}, {plant}"
        )
        columns = (
            f"{'control':>12} {'setpoint':>14} {'plant E (kJ)':>13} {'viol.':>6} "
            f"{'peak T_case':>12} {'factor.':>8} {'time (s)':>9}"
        )
        runs: list[tuple[str, DatacenterTrace, float]] = [
            ("fixed", self.fixed, self.fixed_wall_time_s),
            ("supervisory", self.supervisory, self.supervisory_wall_time_s),
        ]
        if self.mpc is not None:
            runs.append(("mpc", self.mpc, self.mpc_wall_time_s or 0.0))
        rows = []
        for label, trace, wall in runs:
            first = trace.setpoint_c[0] if trace.setpoint_c else float("nan")
            last = trace.setpoint_c[-1] if trace.setpoint_c else float("nan")
            rows.append(
                f"{label:>12} {first:>5.1f} -> {last:>4.1f} C "
                f"{trace.plant_energy_j / 1e3:>13.2f} {trace.thermal_violations:>6} "
                f"{trace.peak_period_case_temperature_c:>11.1f}C "
                f"{trace.factorizations:>8} "
                f"{wall:>9.2f}"
            )
        footer = [
            f"supervisory setpoint control: {self.plant_energy_saved_pct:.1f}% plant "
            f"energy saved ({self.supervisory.setpoint_raises} raises, "
            f"{self.supervisory.setpoint_lowers} lowers) at "
            f"{self.supervisory.thermal_violations} thermal violations"
        ]
        if self.mpc is not None:
            footer.append(
                f"mpc setpoint control: {self.mpc_plant_energy_saved_pct:.1f}% plant "
                f"energy saved vs fixed ({self.mpc_vs_reactive_saved_pct:.1f}% vs "
                f"reactive; {self.mpc.setpoint_raises} raises, "
                f"{self.mpc.setpoint_lowers} lowers) at "
                f"{self.mpc.thermal_violations} thermal violations"
            )
        if self.mpc is not None and self.mpc.staging:
            units_on = [s.n_units_on for s in self.mpc.staging]
            footer.append(
                f"chiller bank staging (mpc run): {min(units_on)}-{max(units_on)} "
                f"units on, {self.mpc.overloaded_periods} overloaded periods"
            )
        if self.coarse:
            for label, trace, _ in runs:
                if trace.coarse_periods:
                    rom = trace.rom_stats
                    rom_note = (
                        f", {rom.rom_periods} ROM periods ({rom.fallbacks} fallbacks)"
                        if rom is not None and rom.spans
                        else ""
                    )
                    footer.append(
                        f"{label} coarsening: {trace.coarse_periods} of "
                        f"{trace.n_periods} periods in {trace.coarse_spans} "
                        f"macro-steps{rom_note}"
                    )
        if verbose:
            for label, trace, _ in runs:
                footer.append(f"--- {label} run summary ---")
                footer.append(trace.summary())
        return "\n".join([header, columns, *rows, *footer])


def run_fig10(
    platform: Platform | None = None,
    *,
    scenario_kind: str = "diurnal",
    n_racks: int = 2,
    servers_per_rack: int = 4,
    duration_s: float = 40.0,
    control_period_s: float = 2.0,
    supervisory_period_s: float = 8.0,
    seed: int = 7,
    setpoint_c: float | None = None,
    setpoint_max_c: float = 40.0,
    outdoor_temperature_c: float = 18.0,
    hetero: bool = False,
    mpc: bool = False,
    mpc_horizon: int = 4,
    chillers: int = 1,
    chiller_capacity_w: float | None = None,
    coarse: bool = False,
    coarsening: CoarseningConfig | None = None,
    phase_dt_s: float | None = None,
    envelope_period_s: float | None = None,
    parallel_groups: int = 0,
    warm_store=None,
) -> Fig10Result:
    """Run one scenario under fixed, reactive and (optionally) MPC control.

    Each run gets a fresh thermal simulator (empty factorization cache) —
    the fig9 convention — so the reported wall times and factorization
    counts are cold-cache and comparable; within a run, the floor engine
    stacks every rack's servers through shared per-hardware-group
    operators.  ``n_racks`` scales the floor (the engine's stacked solves
    keep the cost roughly one rack's worth when hardware is shared), and
    ``hetero=True`` cycles the paper-optimized and Seuret reference
    thermosyphon designs across racks — a mixed floor running through the
    same stacked engine, no fallback.

    ``mpc=True`` adds the third leg: a
    :class:`MpcSupervisoryController` with ``mpc_horizon`` supervisory
    windows of lookahead.  ``chillers > 1`` replaces the single plant with
    a staged :class:`ChillerBank` of that many identical units (each of
    ``chiller_capacity_w`` rated thermal load; the default budgets 120 W
    per server across the bank) for *every* run, so the comparison stays
    apples to apples.

    ``coarse=True`` turns on adaptive control-period coarsening (with the
    reduced-order thermal lane) for every run — the long-trace engine of
    :class:`~repro.datacenter.model.CoarseningConfig`; pass ``coarsening``
    to override its knobs.  ``phase_dt_s``/``envelope_period_s`` forward to
    :func:`~repro.datacenter.scenarios.build_scenario` so a multi-day
    trace can keep hour-scale envelope phases (long, locally flat spans
    are what the coarsener converts into macro-steps).

    ``parallel_groups`` and ``warm_store`` forward to
    :class:`~repro.datacenter.model.DatacenterModel`: the former fans the
    floor's hardware groups over worker threads (bit-identical; measured
    slower than serial on 2 vCPUs), the latter persists reduced bases across
    runs (a directory path or a
    :class:`~repro.thermal.warm_store.WarmStore`).
    """
    platform = platform if platform is not None else build_platform()
    scenario = build_scenario(
        scenario_kind,
        n_racks=n_racks,
        servers_per_rack=servers_per_rack,
        duration_s=duration_s,
        seed=seed,
        phase_dt_s=phase_dt_s,
        envelope_period_s=envelope_period_s,
        floorplan=platform.floorplan,
        designs=(
            (PAPER_OPTIMIZED_DESIGN, SEURET_REFERENCE_DESIGN) if hetero else None
        ),
    )
    single_plant = ChillerPlant(free_cooling_outdoor_c=outdoor_temperature_c)
    if chillers > 1:
        n_servers = n_racks * servers_per_rack
        capacity_w = (
            chiller_capacity_w
            if chiller_capacity_w is not None
            else 120.0 * n_servers / chillers
        )
        plant: ChillerPlant | ChillerBank = ChillerBank.uniform(
            chillers, capacity_w, plant=single_plant
        )
    else:
        plant = single_plant
    setpoint = (
        setpoint_c
        if setpoint_c is not None
        else PAPER_OPTIMIZED_DESIGN.water_inlet_temperature_c
    )

    coarse_config = (
        coarsening
        if coarsening is not None
        else (CoarseningConfig() if coarse else None)
    )
    coarse = coarse_config is not None

    def floor() -> DatacenterModel:
        return DatacenterModel(
            scenario.racks,
            plant=plant,
            floorplan=platform.floorplan,
            power_model=platform.power_model,
            thermal_simulator=ThermalSimulator(
                platform.floorplan, cell_size_mm=platform.cell_size_mm
            ),
            control_period_s=control_period_s,
            supply_setpoint_c=setpoint,
            coarsening=coarse_config,
            parallel_groups=parallel_groups,
            warm_store=warm_store,
        )

    start = time.perf_counter()
    fixed = floor().run_trace(duration_s=duration_s)
    fixed_wall_time_s = time.perf_counter() - start

    supervisory = SupervisoryController(
        period_s=supervisory_period_s, setpoint_max_c=setpoint_max_c
    )
    start = time.perf_counter()
    controlled = floor().run_trace(duration_s=duration_s, supervisory=supervisory)
    supervisory_wall_time_s = time.perf_counter() - start

    mpc_trace: DatacenterTrace | None = None
    mpc_wall_time_s: float | None = None
    if mpc:
        planner = MpcSupervisoryController(
            period_s=supervisory_period_s,
            setpoint_max_c=setpoint_max_c,
            horizon=mpc_horizon,
        )
        start = time.perf_counter()
        mpc_trace = floor().run_trace(duration_s=duration_s, supervisory=planner)
        mpc_wall_time_s = time.perf_counter() - start

    return Fig10Result(
        scenario=scenario,
        setpoint_c=setpoint,
        fixed=fixed,
        fixed_wall_time_s=fixed_wall_time_s,
        supervisory=controlled,
        supervisory_wall_time_s=supervisory_wall_time_s,
        mpc=mpc_trace,
        mpc_wall_time_s=mpc_wall_time_s,
        n_chillers=chillers,
        coarse=coarse,
    )
