"""Rack-engine benchmark: one 8-server floor vs eight one-server floors.

Not a paper artefact: pins the cost of advancing a whole homogeneous rack
through one cold control period on the floor engine, the library's one
transient loop (Section V/VIII rack studies).  The per-server baseline is
what the motivation describes — eight independent one-server floors, each
on its own :class:`~repro.thermal.simulator.ThermalSimulator`, so each pays
its own network assembly, loop convergence, lane march and operator
factorizations — while the 8-server floor shares one simulator, converges
the loop once, marches every server's lanes in one call and
back-substitutes all eight fields through each factorized operator at
once.  ``test_rack_evaluate_speedup_vs_per_server`` is a hard gate (also
run by the CI ``--quick`` smoke step) so the rack path cannot silently
regress to per-server solving; the two paths are also checked for
equality, so the speed can never come from computing something else.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.rack_session import RackSession, ServerLoad
from repro.datacenter.floor import FloorEngine
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import ServerPowerModel
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration
from repro.workloads.parsec import get_benchmark

CELL_SIZE_MM = 1.5
N_SERVERS = 8
#: One cold control period of one backward-Euler substep: a steady
#: initialization plus one step, i.e. one steady and one transient operator.
CONTROL_PERIOD_S = 2.0


def _setup():
    floorplan = build_xeon_e5_v4_floorplan()
    power_model = ServerPowerModel(floorplan)
    benchmark = get_benchmark("x264")
    mapper = ThreadMapper(floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation)
    mapping = mapper.map(
        benchmark, Configuration(8, 2, 3.2), ProposedThermalAwareMapping()
    )
    return floorplan, power_model, ServerLoad(benchmark=benchmark, mapping=mapping)


def _advance_cold_floor(floorplan, power_model, load, n_servers):
    """One cold period of a fresh ``n_servers`` floor on a fresh simulator."""
    rack = RackSession(
        n_servers,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
    )
    advance = FloorEngine([rack]).advance(
        [[load] * n_servers], CONTROL_PERIOD_S, n_substeps=1
    )
    return list(advance.racks[0].servers), rack.thermal_simulator.solver_cache.stats


def _run_per_server_loop(floorplan, power_model, load):
    """Independent one-server floors: fresh simulator and cache each."""
    servers = []
    stats = CacheStats.zero()
    for _ in range(N_SERVERS):
        advanced, server_stats = _advance_cold_floor(floorplan, power_model, load, 1)
        servers.extend(advanced)
        stats = stats + server_stats
    return servers, stats


def _run_batched_rack(floorplan, power_model, load):
    return _advance_cold_floor(floorplan, power_model, load, N_SERVERS)


def test_bench_rack_evaluate_batched(benchmark):
    floorplan, power_model, load = _setup()
    servers = benchmark(lambda: _run_batched_rack(floorplan, power_model, load)[0])
    assert len(servers) == N_SERVERS


def test_bench_rack_evaluate_per_server(benchmark):
    floorplan, power_model, load = _setup()
    servers = benchmark(lambda: _run_per_server_loop(floorplan, power_model, load)[0])
    assert len(servers) == N_SERVERS


def test_rack_evaluate_speedup_vs_per_server(capsys):
    """Gate: the 8-server floor runs >= 3x faster than the per-server floors.

    The per-server side pays 8 network assemblies and 16 factorizations
    (a steady and a backward-Euler operator each) for a homogeneous rack
    the 8-server floor covers with one shared simulator and 2
    factorizations (asserted through merged CacheStats, >= 8x fewer).  The
    gate sits at 3x so CI noise cannot flake it, while a regression to
    per-server solving fails loudly.
    """
    floorplan, power_model, load = _setup()

    start = time.perf_counter()
    per_server, per_server_stats = _run_per_server_loop(floorplan, power_model, load)
    per_server_s = time.perf_counter() - start

    timings = []
    batched = batched_stats = None
    for _ in range(3):
        start = time.perf_counter()
        batched, batched_stats = _run_batched_rack(floorplan, power_model, load)
        timings.append(time.perf_counter() - start)
    batched_s = min(timings)

    # Equality first: speed must not come from a different answer.
    assert len(batched) == len(per_server) == N_SERVERS
    for ours, theirs in zip(batched, per_server):
        assert np.array_equal(
            ours.result.thermal_result.temperatures_c,
            theirs.result.thermal_result.temperatures_c,
        )

    # Factorization reduction: one steady and one transient operator for
    # the whole rack.
    assert per_server_stats.misses == 2 * N_SERVERS
    assert batched_stats.misses == 2
    assert per_server_stats.misses >= 8 * batched_stats.misses

    speedup = per_server_s / batched_s
    with capsys.disabled():
        print(
            f"\n[rack period @ {CELL_SIZE_MM} mm, {N_SERVERS} servers] "
            f"per-server {per_server_s * 1e3:.0f} ms, batched {batched_s * 1e3:.0f} ms, "
            f"speedup {speedup:.1f}x "
            f"(factorizations {per_server_stats.misses} -> {batched_stats.misses})"
        )
    assert speedup >= 3.0
