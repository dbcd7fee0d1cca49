"""Controller-trace and lane-march benchmarks: warm-start vs re-solve.

Not a paper artefact: pins the cost of the two hot paths this repository's
runtime studies stress.  ``test_transient_speedup_vs_steady`` gates the
warm-start transient controller lane (cached backward-Euler steps at a held
boundary) against the quasi-static steady re-solve on a jittered trace —
the regime where every power jitter costs the steady path a fresh
factorization.  ``test_lane_march_speedup_vs_reference`` gates the batched
``(n_lanes, n_cells)`` evaporator march against the preserved per-lane
golden loop, and ``test_multi_point_lane_march_speedup`` gates one march
over servers at distinct operating points (a floor refresh) against one
single-point march per server.  The gates also run in the CI ``--quick``
smoke step, so no path can silently regress to factorize-per-period,
per-lane or per-point Python loops.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.pipeline import CooledServerSimulation
from repro.core.runtime_controller import ThermosyphonController
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.loop import ThermosyphonLoop
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace, TracePhase
from tests.reference_lane_march import reference_cooling_boundary

CELL_SIZE_MM = 1.5
N_PERIODS = 30
PERIOD_S = 2.0


def _jittered_trace() -> PhasedTrace:
    """Every control period a distinct activity factor (realistic jitter)."""
    phases = tuple(
        TracePhase(PERIOD_S, 0.9 + 0.001 * index, 0.5) for index in range(N_PERIODS)
    )
    return PhasedTrace("jittered", phases)


def _controller_setup():
    simulation = CooledServerSimulation(cell_size_mm=CELL_SIZE_MM)
    benchmark = get_benchmark("x264")
    mapper = ThreadMapper(simulation.floorplan, orientation=simulation.design.orientation)
    mapping = mapper.map(benchmark, Configuration(8, 2, 3.2), ProposedThermalAwareMapping())
    # A huge relax margin keeps the valve untouched: the benchmark isolates
    # the re-solve cost from actuator events.
    controller = ThermosyphonController(
        simulation, control_period_s=PERIOD_S, relax_margin_c=100.0
    )
    return controller, benchmark, mapping


def _run_trace(mode: str) -> float:
    controller, benchmark, mapping = _controller_setup()
    trace = _jittered_trace()
    start = time.perf_counter()
    record = controller.run_trace(
        benchmark, mapping, QoSConstraint(2.0), trace, mode=mode
    )
    elapsed = time.perf_counter() - start
    assert len(record.decisions) == N_PERIODS
    return elapsed


@pytest.mark.parametrize("mode", ["steady", "transient"])
def test_bench_controller_trace(benchmark, mode):
    controller, bench_workload, mapping = _controller_setup()
    trace = _jittered_trace()
    record = benchmark(
        lambda: controller.run_trace(
            bench_workload, mapping, QoSConstraint(2.0), trace, mode=mode
        )
    )
    assert len(record.decisions) == N_PERIODS


def test_transient_speedup_vs_steady(capsys):
    """Warm-start transient marching must beat steady re-solve on jitter.

    Each mode gets a fresh simulation (empty factorization cache), matching
    how a controller study actually starts.  The observed ratio is ~2-4x at
    1.5 mm cells; the gate sits well below that so CI noise cannot flake
    it, while a regression to factorize-per-period parity fails loudly.
    """
    steady_s = _run_trace("steady")
    transient_s = min(_run_trace("transient") for _ in range(3))
    speedup = steady_s / transient_s
    with capsys.disabled():
        print(
            f"\n[controller trace @ {CELL_SIZE_MM} mm, {N_PERIODS} periods] "
            f"steady {steady_s * 1e3:.0f} ms, transient {transient_s * 1e3:.0f} ms, "
            f"speedup {speedup:.1f}x"
        )
    assert speedup >= 1.3


def _fine_power_map(n: int = 50) -> np.ndarray:
    rng = np.random.default_rng(n)
    power = 0.05 * rng.random((n, n))
    power[:, -n // 4 :] = 0.0
    return power


def test_lane_march_speedup_vs_reference(capsys):
    """Batched lane march must clearly beat the per-lane golden loop.

    At a 50x50 boundary grid the batched march replaces 50 per-lane Python
    marches (2500 per-cell iterations) with two running sums along the
    channel and one vectorized evaluation of the whole ``(50, 50)`` array
    (~30x on a 2-vCPU x86 host).  The two paths are also checked for
    equivalence, so the speed can never come from computing something else.
    """
    loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN)
    power = _fine_power_map()
    pitch = (0.75, 0.75)
    operating_point = loop.operating_point(float(power.sum()))

    start = time.perf_counter()
    reference = reference_cooling_boundary(loop, power, pitch, operating_point)
    reference_s = time.perf_counter() - start

    timings = []
    for _ in range(5):
        start = time.perf_counter()
        batched = loop.cooling_boundary(power, pitch, operating_point)
        timings.append(time.perf_counter() - start)
    batched_s = min(timings)

    scale = np.abs(reference.boundary.htc_w_m2k).max()
    assert (
        np.abs(reference.boundary.htc_w_m2k - batched.boundary.htc_w_m2k).max()
        <= 1e-12 * scale
    )

    speedup = reference_s / batched_s
    with capsys.disabled():
        print(
            f"\n[lane march @ {power.shape[0]}x{power.shape[1]}] "
            f"per-lane {reference_s * 1e3:.2f} ms, batched {batched_s * 1e3:.2f} ms, "
            f"speedup {speedup:.1f}x"
        )
    assert speedup >= 3.0


def test_multi_point_lane_march_speedup(capsys):
    """One march over 8 servers at 8 operating points must beat 8 marches.

    A floor refresh marches every stale server of a hardware group in one
    call, each server at its own operating point (total power and water
    inlet differ).  The ratio is ~3x at 1.5 mm on a 2-vCPU x86 host (8
    calls 2.9-4.3 ms, one call 1.0-1.4 ms); the gate sits at 2x.  Every
    server's boundary must equal its single-point march bit for bit.
    """
    n_servers = 8
    simulator = ThermalSimulator(build_xeon_e5_v4_floorplan(), cell_size_mm=CELL_SIZE_MM)
    pitch = simulator.grid.cell_pitch_mm()
    loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN)
    nominal = PAPER_OPTIMIZED_DESIGN.water_loop()
    rng = np.random.default_rng(8)
    maps = np.stack(
        [(0.1 + 0.02 * index) * rng.random(simulator.shape) for index in range(n_servers)]
    )
    points = [
        loop.operating_point(
            float(power.sum()),
            nominal.with_inlet_temperature(nominal.inlet_temperature_c + 0.5 * index),
        )
        for index, power in enumerate(maps)
    ]
    assert len({point.saturation_temperature_c for point in points}) == n_servers

    single_timings, multi_timings = [], []
    for _ in range(5):
        start = time.perf_counter()
        singles = [
            loop.cooling_boundary(power, pitch, point) for power, point in zip(maps, points)
        ]
        single_timings.append(time.perf_counter() - start)
        start = time.perf_counter()
        multi = loop.cooling_boundaries(maps, pitch, points)
        multi_timings.append(time.perf_counter() - start)
    single_s, multi_s = min(single_timings), min(multi_timings)

    for ours, single in zip(multi, singles):
        assert np.array_equal(ours.boundary.htc_w_m2k, single.boundary.htc_w_m2k)
        assert np.array_equal(
            ours.boundary.fluid_temperature_c, single.boundary.fluid_temperature_c
        )
        assert np.array_equal(ours.outlet_quality_per_lane, single.outlet_quality_per_lane)
        assert ours.dryout == single.dryout

    speedup = single_s / multi_s
    with capsys.disabled():
        print(
            f"\n[multi-point lane march @ {CELL_SIZE_MM} mm, {n_servers} servers at "
            f"{n_servers} points] {n_servers} calls {single_s * 1e3:.2f} ms, one call "
            f"{multi_s * 1e3:.2f} ms, speedup {speedup:.1f}x"
        )
    assert speedup >= 2.0
