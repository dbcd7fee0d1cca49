"""Steady vs transient controller trace (paper Section VII runtime study).

Plays the same phased workload trace through the runtime controller twice:

* ``mode="steady"`` re-solves thermal equilibrium every control period —
  every power jitter re-keys the cooling boundary and costs an operator
  factorization;
* ``mode="transient"`` runs the trace on a one-server floor engine
  (``FloorEngine``, the same engine rack and datacenter traces use): the
  temperature field is carried across periods and advanced with cached
  backward-Euler steps — the boundary is held between actuator events, so
  the whole trace runs on a handful of factorizations.

Run with::

    python examples/controller_trace.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import ThermosyphonController
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import generate_trace


def main() -> None:
    benchmark = get_benchmark("x264")
    constraint = QoSConstraint(2.0)
    trace = generate_trace(benchmark, n_steady_phases=10, total_duration_s=60.0)

    records = {}
    for mode in ("steady", "transient"):
        # Fresh simulation per mode: a shared factorization cache would let
        # the second run start warm and skew the printed comparison.
        simulation = CooledServerSimulation(design=PAPER_OPTIMIZED_DESIGN, cell_size_mm=1.5)
        mapper = ThreadMapper(
            simulation.floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation
        )
        mapping = mapper.map(benchmark, Configuration(8, 2, 3.2), ProposedThermalAwareMapping())
        controller = ThermosyphonController(simulation, control_period_s=2.0)
        start = time.perf_counter()
        records[mode] = controller.run_trace(
            benchmark, mapping, constraint, trace, mode=mode
        )
        elapsed = time.perf_counter() - start
        print(f"=== {mode} mode ({elapsed:.2f} s) ===")
        print(records[mode].summary())
        print()

    transient = records["transient"]
    print(f"{'t (s)':>6} {'T_case (C)':>11} {'peak (C)':>9} {'residual':>9} "
          f"{'P (W)':>7} {'flow (kg/h)':>12}  action")
    for decision in transient.decisions:
        print(
            f"{decision.time_s:6.1f} {decision.case_temperature_c:11.1f} "
            f"{decision.period_peak_case_c:9.1f} {decision.settle_residual_c:9.4f} "
            f"{decision.package_power_w:7.1f} {decision.water_flow_kg_h:12.1f}  "
            f"{decision.action.value}"
        )


if __name__ == "__main__":
    main()
