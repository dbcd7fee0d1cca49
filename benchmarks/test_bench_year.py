"""Simulated-year engine benchmark: threads + warm store + span lattice.

PR 8's long-trace engine made a simulated season cheap; the year tier
stacks three more levers on top of it:

* **thread-parallel group advancement** — a 4-SKU floor advances its four
  hardware groups on worker threads (the banded Cholesky factor and
  solve calls hold the GIL, so only the groups' other NumPy work
  overlaps), bit-identical to the serial engine;
* **persistent warm store** — run N+1 of the same floor loads the first
  reduced Krylov basis of every boundary from disk, paying no first
  Arnoldi build; it still computes the rebuilds of stale bases its own
  states call for (factorizations are rebuilt from the network's bulk
  band, never loaded);
* **floor-wide span lattice** — one searchsorted against a merged event
  lattice per span plan, and span-boundary (not per-period) accounting in
  the run loop.

``test_year_engine_quick_gate`` is the hard CI gate (runs under
``--quick``): on a 4-group floor at fine grid resolution, the year engine
warm (threads + loaded store) must beat the PR 8 engine (serial, cold,
no store) by >= 1.5x while matching it bit for bit with zero first
Arnoldi builds.  The 1.5x is gated on multi-core runners (every CI runner): the
warm store alone contributes ~1.5-1.8x at this scale (the Arnoldi builds
dominate a 1.5 mm cold start, especially under
the deep-Krylov config annual-accuracy studies run) and the
thread-parallel term stacks on top.  A single-core machine has no
thread-parallel term and — in this repo's experience — an order of
magnitude more scheduler noise, so there the wall-clock bound drops to a
smoke "warm is not slower" check (>= 1.1x over interleaved minima) while
the deterministic contracts (zero builds, store hits, bit-identity) stay
hard either way.  ``test_bench_year_cold`` / ``test_bench_year_warm``
record the cold- and warm-run timings as separate entries in
``BENCH_quick.json`` so the perf trajectory of both paths is
machine-readable.

``test_bench_year_1m_periods`` is the headline demonstration — a
1,000,000-period diurnal-over-seasons trace through the year engine, vs
the PR 8 engine measured on a 20k-period slice and extrapolated linearly
(the coarse engine's per-period cost is constant once the cold start has
amortized, which a 20k-period slice guarantees).  The >= 3x target
assumes at least four cores (one per hardware group: the thread-parallel
term is the dominant lever at annual scale, where the one-time cold
start no longer matters); on fewer cores the test documents the measured
ratio and gates parity instead.  It runs only when ``RUN_YEAR`` is set —
it holds a million-period trace in memory and takes tens of minutes.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.datacenter.model import CoarseningConfig, DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.thermal.rom import RomConfig
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.warm_store import WarmStore

CONTROL_PERIOD_S = 2.0
#: Spreader footprints of the four SKUs (same die, distinct thermal
#: networks), giving the floor four hardware groups to advance in parallel.
SKU_SPREADERS_MM = (None, 42.0, 44.0, 46.0)

#: Quick-gate scale: fine grid so Arnoldi builds dominate the cold start
#: (the warm store's term of the speedup), 300
#: periods of 60-period flat envelope phases so dyadic spans form.
GATE_CELL_SIZE_MM = 1.5
GATE_DURATION_S = 600.0
GATE_PHASE_DT_S = 120.0
#: The deep-Krylov configuration annual-accuracy studies run: a richer
#: basis and more Arnoldi extensions per build — exactly the work the
#: warm store removes from run N+1.
GATE_ROM_CONFIG = RomConfig(max_basis=48, krylov_iterations=8)

#: BENCH_quick.json entries: same shape, coarser grid, shorter trace.
BENCH_CELL_SIZE_MM = 2.0
BENCH_DURATION_S = 480.0
BENCH_PHASE_DT_S = 120.0

#: Headline scale: one million 2 s control periods of compressed days
#: (envelope repeats every 12 simulated hours, sampled every 30 envelope
#: minutes) — a simulated year at PR 8's season resolution.
HEADLINE_CELL_SIZE_MM = 4.0
HEADLINE_DURATION_S = 2_000_000.0
HEADLINE_PHASE_DT_S = 1800.0
HEADLINE_ENVELOPE_PERIOD_S = 43_200.0
HEADLINE_SLICE_S = 40_000.0


def _four_group_floor(duration_s, phase_dt_s, servers_per_rack, envelope_period_s=None):
    """A 4-SKU diurnal floor: one rack per spreader footprint."""
    floorplans = [
        build_xeon_e5_v4_floorplan()
        if spreader is None
        else build_xeon_e5_v4_floorplan(spreader_size_mm=spreader)
        for spreader in SKU_SPREADERS_MM
    ]
    racks = []
    for index, floorplan in enumerate(floorplans):
        scenario = build_scenario(
            "diurnal",
            n_racks=1,
            servers_per_rack=servers_per_rack,
            duration_s=duration_s,
            seed=3 + index,
            phase_dt_s=phase_dt_s,
            envelope_period_s=envelope_period_s,
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


def _run(
    floorplan,
    racks,
    cell_size_mm,
    duration_s,
    *,
    parallel_groups=0,
    store=None,
    rom=None,
):
    model = DatacenterModel(
        racks,
        floorplan=floorplan,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=cell_size_mm),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=CoarseningConfig(rom=rom) if rom is not None else CoarseningConfig(),
        parallel_groups=parallel_groups,
        warm_store=store,
    )
    session = model.session()
    try:
        return session.run(duration_s=duration_s)
    finally:
        session.close()


def _peak_grid(trace):
    return np.array(
        [
            [[d.period_peak_case_c for d in period] for period in rack.periods]
            for rack in trace.racks
        ]
    )


def test_bench_year_cold(benchmark):
    """BENCH_quick entry: the PR 8 engine — serial, cold, no store."""
    floorplan, racks = _four_group_floor(BENCH_DURATION_S, BENCH_PHASE_DT_S, 2)
    trace = benchmark(
        lambda: _run(floorplan, racks, BENCH_CELL_SIZE_MM, BENCH_DURATION_S)
    )
    assert trace.n_periods == int(BENCH_DURATION_S / CONTROL_PERIOD_S)
    assert trace.coarse_spans > 0


def test_bench_year_warm(benchmark, tmp_path):
    """BENCH_quick entry: the year engine against a pre-warmed store."""
    floorplan, racks = _four_group_floor(BENCH_DURATION_S, BENCH_PHASE_DT_S, 2)
    store_dir = tmp_path / "warm-store"
    _run(
        floorplan,
        racks,
        BENCH_CELL_SIZE_MM,
        BENCH_DURATION_S,
        store=WarmStore(store_dir),
    )
    trace = benchmark(
        lambda: _run(
            floorplan,
            racks,
            BENCH_CELL_SIZE_MM,
            BENCH_DURATION_S,
            parallel_groups=len(SKU_SPREADERS_MM),
            store=WarmStore(store_dir),
        )
    )
    assert trace.rom_stats is not None
    assert trace.rom_stats.basis_builds == 0


def test_year_engine_quick_gate(capsys):
    """Acceptance gate: year engine warm >= 1.5x the PR 8 engine, bit-equal.

    The first cold run *is* the PR 8 engine (serial, empty caches, no
    store) and doubles as the store-warming pass; the year engine then
    replays the same floor threaded against the loaded store.  Cold and
    warm runs are interleaved and each side takes its minimum, so slow
    scheduler stalls (shared runners) cannot land on one side only.  The
    bit-identity and zero-Arnoldi contracts travel with the perf gate so
    a fast-but-wrong (or silently cold) year engine fails here, not in a
    separate suite.  The 1.5x bound applies on multi-core machines (all
    CI runners), where the thread-parallel term stacks on the warm
    store's; a single-core machine only has the store's term, so the
    wall-clock bound relaxes to "warm is clearly not slower" (1.1x) and
    the structural contracts carry the gate.
    """
    floorplan, racks = _four_group_floor(GATE_DURATION_S, GATE_PHASE_DT_S, 2)
    cold_timings = []
    warm_timings = []
    cold = warm = warm_store = None
    with tempfile.TemporaryDirectory() as directory:
        for repetition in range(3):
            start = time.perf_counter()
            cold_run = _run(
                floorplan,
                racks,
                GATE_CELL_SIZE_MM,
                GATE_DURATION_S,
                store=WarmStore(directory) if repetition == 0 else None,
                rom=GATE_ROM_CONFIG,
            )
            cold_timings.append(time.perf_counter() - start)
            cold = cold_run if cold is None else cold

            warm_store = WarmStore(directory)
            start = time.perf_counter()
            warm = _run(
                floorplan,
                racks,
                GATE_CELL_SIZE_MM,
                GATE_DURATION_S,
                parallel_groups=len(SKU_SPREADERS_MM),
                store=warm_store,
                rom=GATE_ROM_CONFIG,
            )
            warm_timings.append(time.perf_counter() - start)
        system_entries = list(Path(directory).glob("system-*.npz"))
    cold_s = min(cold_timings)
    warm_s = min(warm_timings)

    assert cold.rom_stats is not None and cold.rom_stats.basis_builds > 0
    assert warm is not None and warm.rom_stats is not None
    # No first Arnoldi build: every boundary's first basis is served from
    # the store ...
    assert warm.rom_stats.basis_builds == 0
    assert warm_store.stats.reduced_hits > 0
    # The factorization cache writes and reads no assembled systems.
    assert warm_store.stats.system_hits == warm_store.stats.system_misses == 0
    assert not system_entries
    assert warm_store.stats.stale == 0
    # ... and bit-for-bit the cold run's floor.
    assert warm.n_periods == cold.n_periods
    assert np.array_equal(_peak_grid(warm), _peak_grid(cold))
    assert warm.plant_power_w == cold.plant_power_w
    assert warm.coarse_spans == cold.coarse_spans
    # The reduced-order lane's decisions, cold and warm alike: a cached
    # basis that cannot reach a span's steady state is rebuilt, so no row
    # re-marches its span exactly.
    for run in (cold, warm):
        assert run.rom_stats.fallback_rows == 0
        assert run.rom_stats.rebuild_steady_state == 6
        assert run.rom_stats.rebuild_projection == 0

    speedup = cold_s / warm_s
    target = 1.5 if (os.cpu_count() or 1) >= 2 else 1.1
    with capsys.disabled():
        print(
            f"\n[year quick gate @ {GATE_CELL_SIZE_MM} mm, "
            f"{len(racks)} groups, {cold.n_periods} periods] "
            f"PR 8 cold {cold_s * 1e3:.0f} ms, year warm {warm_s * 1e3:.0f} ms, "
            f"speedup {speedup:.2f}x vs target {target:.1f}x "
            f"(builds {cold.rom_stats.basis_builds}->0, store hits "
            f"{warm_store.stats.reduced_hits}, "
            f"{os.cpu_count()} cpus)"
        )
    assert speedup >= target


@pytest.mark.skipif(
    not os.environ.get("RUN_YEAR"),
    reason="headline-scale demonstration; set RUN_YEAR=1 to run",
)
def test_bench_year_1m_periods(capsys, tmp_path):
    """Headline: 1,000,000 periods of diurnal-over-seasons on 4 groups.

    The PR 8 baseline is the serial cold engine measured over a
    20k-period slice and extrapolated linearly (its per-period cost is
    constant once the cold start has amortized — two orders of magnitude
    before the slice ends).  The slice also leaves a populated warm store
    behind, exactly how a year-scale study would run: seed the store at
    small scale, then pay zero first Arnoldi builds on the annual sweep.  The
    >= 3x target needs one core per hardware group; with fewer cores the
    thread-parallel term vanishes and the test gates parity instead,
    printing the measured ratio either way.
    """
    floorplan, racks = _four_group_floor(
        HEADLINE_DURATION_S,
        HEADLINE_PHASE_DT_S,
        1,
        envelope_period_s=HEADLINE_ENVELOPE_PERIOD_S,
    )
    n_periods = int(HEADLINE_DURATION_S / CONTROL_PERIOD_S)
    assert n_periods >= 1_000_000
    store_dir = tmp_path / "year-store"

    start = time.perf_counter()
    pr8_slice = _run(
        floorplan,
        racks,
        HEADLINE_CELL_SIZE_MM,
        HEADLINE_SLICE_S,
        store=WarmStore(store_dir),
    )
    slice_wall = time.perf_counter() - start
    pr8_estimate = slice_wall * (HEADLINE_DURATION_S / HEADLINE_SLICE_S)

    start = time.perf_counter()
    year = _run(
        floorplan,
        racks,
        HEADLINE_CELL_SIZE_MM,
        HEADLINE_DURATION_S,
        parallel_groups=len(SKU_SPREADERS_MM),
        store=WarmStore(store_dir),
    )
    year_wall = time.perf_counter() - start

    assert year.n_periods == n_periods
    assert year.coarse_periods > n_periods // 2
    assert pr8_slice.coarse_spans > 0

    speedup = pr8_estimate / year_wall
    target = 3.0 if (os.cpu_count() or 1) >= len(SKU_SPREADERS_MM) else 0.9
    with capsys.disabled():
        print(
            f"\n[year headline] {n_periods} periods on {len(racks)} groups: "
            f"year engine {year_wall:.1f} s, PR 8 estimated {pr8_estimate:.0f} s "
            f"(measured {slice_wall:.1f} s over {pr8_slice.n_periods} periods), "
            f"speedup {speedup:.2f}x vs target {target:.1f}x "
            f"({os.cpu_count()} cpus); spans {year.coarse_spans}, "
            f"rom {year.rom_stats}"
        )
    assert speedup >= target
