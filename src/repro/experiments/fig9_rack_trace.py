"""Rack-trace study — batched rack engine vs independent per-server traces.

The rack companion of the fig8 controller study and of Section V's
rack-level evaluation: the same flow-rate-first/DVFS-second controller
drives a homogeneous rack over a phased PARSEC trace twice — once as
independent per-server transient traces (each server a one-server floor
on its own simulation, with its own operator factorizations and lane
marches), and once as one rack trace on a one-rack floor, where every
server sharing a cooling boundary advances through one cached
factorization per substep via multi-column back-substitution.  Both run
on the same floor engine (:class:`~repro.datacenter.floor.FloorEngine`),
so the decisions are identical bit for bit; the report compares the cost:
operator factorizations, wall time, and the rack-wide chiller energy both
paths agree on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import (
    ControllerTrace,
    RackServer,
    RackTrace,
    ThermosyphonController,
)
from repro.experiments.common import Platform, build_platform
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import generate_trace


@dataclass
class Fig9Result:
    """Batched rack engine vs per-server loop on one homogeneous rack trace."""

    benchmark: str
    n_servers: int
    duration_s: float
    control_period_s: float
    rack: RackTrace
    rack_wall_time_s: float
    per_server: list[ControllerTrace]
    per_server_wall_time_s: float

    @property
    def per_server_factorizations(self) -> int:
        """Total factorizations of the independent per-server traces."""
        return sum(trace.factorizations for trace in self.per_server)

    @property
    def factorization_ratio(self) -> float:
        """Per-server factorizations per batched-rack factorization."""
        return self.per_server_factorizations / max(self.rack.factorizations, 1)

    @property
    def speedup(self) -> float:
        """Wall-time ratio per-server / batched rack."""
        return self.per_server_wall_time_s / max(self.rack_wall_time_s, 1e-12)

    def as_table(self) -> str:
        """Textual report of both paths."""
        header = (
            f"Rack trace - {self.n_servers} servers x {self.benchmark}, "
            f"{self.duration_s:.0f} s trace, {self.control_period_s:.0f} s period"
        )
        columns = (
            f"{'engine':>12} {'periods':>8} {'factor.':>8} {'flow+':>6} "
            f"{'emerg.':>7} {'peak T_case':>12} {'time (s)':>9}"
        )
        per_server_flow = sum(trace.flow_increases for trace in self.per_server)
        per_server_emergencies = sum(trace.emergencies for trace in self.per_server)
        per_server_peak = max(
            trace.peak_case_temperature_c for trace in self.per_server
        )
        periods = self.rack.n_periods
        rows = [
            f"{'per-server':>12} {periods:>8} {self.per_server_factorizations:>8} "
            f"{per_server_flow:>6} {per_server_emergencies:>7} "
            f"{per_server_peak:>11.1f}C {self.per_server_wall_time_s:>9.2f}",
            f"{'rack-batched':>12} {periods:>8} {self.rack.factorizations:>8} "
            f"{self.rack.flow_increases:>6} {self.rack.emergencies:>7} "
            f"{self.rack.peak_case_temperature_c:>11.1f}C {self.rack_wall_time_s:>9.2f}",
        ]
        footer = (
            f"batched rack engine: {self.factorization_ratio:.1f}x fewer "
            f"factorizations, {self.speedup:.1f}x faster wall clock; "
            f"rack chiller energy {self.rack.chiller_energy_j / 1e3:.1f} kJ"
        )
        return "\n".join([header, columns, *rows, footer])


def run_fig9(
    platform: Platform | None = None,
    *,
    benchmark_name: str = "x264",
    qos_factor: float = 2.0,
    n_servers: int = 4,
    duration_s: float = 40.0,
    control_period_s: float = 2.0,
    n_steady_phases: int = 8,
) -> Fig9Result:
    """Run the homogeneous rack trace through both engines.

    Each path gets fresh simulations (empty factorization caches) so the
    factorization counts and wall clocks are not biased by warm operators.
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

    def fresh_simulation() -> CooledServerSimulation:
        return CooledServerSimulation(
            platform.floorplan,
            design=PAPER_OPTIMIZED_DESIGN,
            power_model=platform.power_model,
            thermal_simulator=ThermalSimulator(
                platform.floorplan, cell_size_mm=platform.cell_size_mm
            ),
        )

    # Independent per-server traces: each server its own simulation/cache.
    # Both timed regions include simulation construction — the per-server
    # path genuinely pays n_servers network assemblies, the rack path one.
    per_server: list[ControllerTrace] = []
    start = time.perf_counter()
    for _ in range(n_servers):
        controller = ThermosyphonController(
            fresh_simulation(), control_period_s=control_period_s
        )
        per_server.append(
            controller.run_trace(
                benchmark, mapping, constraint, trace, mode="transient"
            )
        )
    per_server_wall_time_s = time.perf_counter() - start

    # Batched rack engine: one shared operator per boundary group.
    servers = [RackServer(benchmark, mapping, constraint) for _ in range(n_servers)]
    start = time.perf_counter()
    controller = ThermosyphonController(
        fresh_simulation(), control_period_s=control_period_s
    )
    rack = controller.run_rack_trace(servers, trace)
    rack_wall_time_s = time.perf_counter() - start

    return Fig9Result(
        benchmark=benchmark.name,
        n_servers=n_servers,
        duration_s=trace.duration_s,
        control_period_s=control_period_s,
        rack=rack,
        rack_wall_time_s=rack_wall_time_s,
        per_server=per_server,
        per_server_wall_time_s=per_server_wall_time_s,
    )
