"""Rack-scale runtime control: every server batched through one operator.

Drives the flow-rate-first/DVFS-second runtime controller over a whole
homogeneous rack at once.  The rack trace runs on a one-rack floor engine
(:class:`repro.datacenter.floor.FloorEngine`), which stacks the per-server
temperature fields into one ``(n_servers, n_cells)`` array and advances all
servers holding the same cooling boundary through a single cached
factorization per substep (multi-column back-substitution), so the rack
trace costs roughly ``n_servers`` times fewer factorizations than
independent per-server traces, with bit-identical decisions.

For comparison the same trace is also run server-by-server as independent
one-server traces, each on its own simulation and factorization cache.
The per-server golden loop both are checked against lives in
``tests/reference_session.py``.

Run with::

    python examples/rack_trace.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import RackServer, ThermosyphonController
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import generate_trace

N_SERVERS = 4


def build_controller() -> ThermosyphonController:
    simulation = CooledServerSimulation(
        design=PAPER_OPTIMIZED_DESIGN, cell_size_mm=1.5
    )
    return ThermosyphonController(simulation, control_period_s=2.0)


def main() -> None:
    benchmark = get_benchmark("x264")
    constraint = QoSConstraint(2.0)
    trace = generate_trace(benchmark, n_steady_phases=10, total_duration_s=60.0)

    controller = build_controller()
    mapper = ThreadMapper(
        controller.simulation.floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation
    )
    mapping = mapper.map(
        benchmark, Configuration(8, 2, 3.2), ProposedThermalAwareMapping()
    )
    servers = [RackServer(benchmark, mapping, constraint) for _ in range(N_SERVERS)]

    start = time.perf_counter()
    rack = controller.run_rack_trace(servers, trace)
    rack_s = time.perf_counter() - start
    print(f"=== batched rack engine ({rack_s:.2f} s) ===")
    print(rack.summary())
    print()

    # The same servers as independent one-server transient traces.
    start = time.perf_counter()
    per_server_factorizations = 0
    for _ in range(N_SERVERS):
        solo = build_controller()
        record = solo.run_trace(
            benchmark, mapping, constraint, trace, mode="transient"
        )
        per_server_factorizations += record.factorizations
    per_server_s = time.perf_counter() - start
    print(f"=== independent per-server traces ({per_server_s:.2f} s) ===")
    print(f"  total factorizations  : {per_server_factorizations}")
    print()
    print(
        f"batched rack engine: "
        f"{per_server_factorizations / max(rack.factorizations, 1):.1f}x fewer "
        f"factorizations, {per_server_s / max(rack_s, 1e-9):.1f}x faster"
    )
    print()

    print(f"{'t (s)':>6} {'worst T_case':>13} {'rack P_chiller':>15}  actions")
    for period, (decisions, chiller_w) in enumerate(
        zip(rack.periods, rack.chiller_power_w)
    ):
        worst = max(d.case_temperature_c for d in decisions)
        actions = ",".join(
            f"s{i}:{d.action.value}"
            for i, d in enumerate(decisions)
            if d.action.value != "none"
        )
        print(
            f"{period * rack.control_period_s:6.1f} {worst:12.1f}C "
            f"{chiller_w:14.1f}W  {actions or '-'}"
        )


if __name__ == "__main__":
    main()
