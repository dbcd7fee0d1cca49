"""Controller-trace study — steady re-solve vs warm-start transient marching.

Not a figure of the paper itself, but the runtime companion of its Section
VII controller discussion: the same flow-rate-first/DVFS-second controller
is played over a phased PARSEC trace twice, once re-solving steady state
every control period (the quasi-static study) and once advancing the
simulation session's warm-start temperature field with cached backward-
Euler steps (``mode="transient"``).  The report compares the control
behaviour (actions, peak temperatures) — which must stay close — and the
cost: operator factorizations and wall time, where the transient lane is
the one that scales to long traces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import ControllerTrace, ThermosyphonController
from repro.experiments.common import Platform, build_platform
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import generate_trace


@dataclass
class ControllerModeCase:
    """One controller mode's trace plus its cost."""

    mode: str
    trace: ControllerTrace
    wall_time_s: float

    @property
    def periods(self) -> int:
        """Number of control periods executed."""
        return len(self.trace.decisions)


@dataclass
class Fig8Result:
    """Steady vs transient controller comparison on one phased trace."""

    benchmark: str
    qos_label: str
    duration_s: float
    control_period_s: float
    steady: ControllerModeCase
    transient: ControllerModeCase

    @property
    def factorization_ratio(self) -> float:
        """Steady-mode factorizations per transient-mode factorization."""
        return self.steady.trace.factorizations / max(
            self.transient.trace.factorizations, 1
        )

    @property
    def speedup(self) -> float:
        """Wall-time ratio steady / transient."""
        return self.steady.wall_time_s / max(self.transient.wall_time_s, 1e-12)

    def as_table(self) -> str:
        """Textual report of both modes."""
        header = (
            f"Controller trace - {self.benchmark} @ QoS {self.qos_label}, "
            f"{self.duration_s:.0f} s trace, {self.control_period_s:.0f} s period"
        )
        columns = (
            f"{'mode':>10} {'periods':>8} {'factor.':>8} {'flow+':>6} {'dvfs-':>6} "
            f"{'emerg.':>7} {'peak T_case':>12} {'time (s)':>9}"
        )
        rows = []
        for case in (self.steady, self.transient):
            trace = case.trace
            rows.append(
                f"{case.mode:>10} {case.periods:>8} {trace.factorizations:>8} "
                f"{trace.flow_increases:>6} {trace.frequency_reductions:>6} "
                f"{trace.emergencies:>7} {trace.peak_case_temperature_c:>11.1f}C "
                f"{case.wall_time_s:>9.2f}"
            )
        footer = (
            f"transient mode: {self.factorization_ratio:.1f}x fewer factorizations, "
            f"{self.speedup:.1f}x faster wall clock"
        )
        return "\n".join([header, columns, *rows, footer])


def run_fig8(
    platform: Platform | None = None,
    *,
    benchmark_name: str = "x264",
    qos_factor: float = 2.0,
    duration_s: float = 60.0,
    control_period_s: float = 2.0,
    n_steady_phases: int = 10,
) -> Fig8Result:
    """Run the controller in both modes over one phased trace.

    Each mode gets its own simulation (and therefore its own empty
    factorization cache): sharing one cache would let the second mode start
    warm from the first mode's operators, biasing both the factorization
    counts and the wall-clock comparison.
    """
    platform = platform if platform is not None else build_platform()
    benchmark = get_benchmark(benchmark_name)
    constraint = QoSConstraint(qos_factor)
    mapper = ThreadMapper(
        platform.floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation
    )
    mapping = mapper.map(
        benchmark, Configuration(8, 2, 3.2), ProposedThermalAwareMapping()
    )
    trace = generate_trace(
        benchmark, n_steady_phases=n_steady_phases, total_duration_s=duration_s
    )

    cases = {}
    for mode in ("steady", "transient"):
        simulation = CooledServerSimulation(
            platform.floorplan,
            design=PAPER_OPTIMIZED_DESIGN,
            power_model=platform.power_model,
            thermal_simulator=ThermalSimulator(
                platform.floorplan, cell_size_mm=platform.cell_size_mm
            ),
        )
        controller = ThermosyphonController(
            simulation, control_period_s=control_period_s
        )
        start = time.perf_counter()
        record = controller.run_trace(
            benchmark, mapping, constraint, trace, mode=mode
        )
        cases[mode] = ControllerModeCase(
            mode=mode, trace=record, wall_time_s=time.perf_counter() - start
        )
    return Fig8Result(
        benchmark=benchmark.name,
        qos_label=constraint.label(),
        duration_s=trace.duration_s,
        control_period_s=control_period_s,
        steady=cases["steady"],
        transient=cases["transient"],
    )
