"""Golden validation of the adaptive coarsening + reduced-order lanes.

The coarse engine (control-period coarsening with the ROM lane,
PR 8's tentpole) must be an *observationally equivalent* accelerator of
the PR 7 fine engine, never a different model:

* on the diurnal and flash_crowd stress scenarios, a coarsened run
  reproduces every per-server within-period peak case temperature to
  0.1 C and misses/invents no thermal violations — while actually
  coarsening (the tests assert spans formed, so they cannot pass
  vacuously);
* the ROM lane falls back to the full solver near the thermal constraint
  (guard band) and on error-bound growth, observable through the
  :class:`~repro.thermal.rom.RomStats` counters;
* a cached basis that cannot reach a span's steady state (its boundary
  held through a power drift) is rebuilt instead of falling back, and on
  the two-SKU floor every row the ROM lane keeps is within 0.1 C of an
  exact replay of its span and reports its last substep's change as its
  settle residual;
* snapshot()/restore() stays lossless with the new lanes — a hold-only
  MPC run over a coarsened trace is bit-identical to the committed
  reactive trace with a frozen setpoint band, and a restored session
  replays identical spans;
* coarse runs are deterministic;
* coarsening alone is exact: spans marched through the full substep
  march instead of the ROM lane reproduce the fine engine bit for bit.
"""

import io
from dataclasses import replace

import numpy as np
import pytest

from repro.core.mapping import ThreadMapper
from repro.core.mapping_policies import ProposedThermalAwareMapping
from repro.core.rack_session import RackSession, ServerLoad
from repro.datacenter.floor import FloorEngine
from repro.datacenter.model import CoarseningConfig, DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.datacenter.supervisory import (
    MpcSupervisoryController,
    SupervisoryController,
)
from repro.exceptions import ConfigurationError
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.obs.export import read_jsonl, write_jsonl
from repro.obs.report import build_report, render_report
from repro.obs.telemetry import Telemetry, set_telemetry
from repro.thermal.rom import RomConfig
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import FactorizationCache
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.workloads.configuration import Configuration

CELL_SIZE_MM = 4.0
CONTROL_PERIOD_S = 2.0
DURATION_S = 240.0
PHASE_DT_S = 60.0
GOLDEN_TOL_C = 0.1


@pytest.fixture(scope="module", params=["diurnal", "flash_crowd"])
def scenario(request, floorplan):
    return build_scenario(
        request.param,
        n_racks=2,
        servers_per_rack=2,
        duration_s=DURATION_S,
        seed=3,
        phase_dt_s=PHASE_DT_S,
        floorplan=floorplan,
    )


def _model(scenario, floorplan, power_model, coarsening, **kwargs):
    return DatacenterModel(
        scenario.racks,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=coarsening,
        **kwargs,
    )


def _run(scenario, floorplan, power_model, coarsening, **kwargs):
    supervisory = kwargs.pop("supervisory", None)
    model = _model(scenario, floorplan, power_model, coarsening, **kwargs)
    return model.run_trace(duration_s=DURATION_S, supervisory=supervisory)


def _peak_grid(trace):
    """(rack, period, server) within-period peak case temperatures."""
    return np.array(
        [
            [[d.period_peak_case_c for d in period] for period in rack.periods]
            for rack in trace.racks
        ]
    )


@pytest.fixture(scope="module")
def fine_trace(scenario, floorplan, power_model):
    return _run(scenario, floorplan, power_model, None)


@pytest.fixture(scope="module")
def coarse_trace(scenario, floorplan, power_model):
    return _run(scenario, floorplan, power_model, CoarseningConfig())


class TestGoldenEquivalence:
    def test_coarsening_actually_engaged(self, coarse_trace):
        assert coarse_trace.coarse_spans > 0
        assert coarse_trace.coarse_periods > 0
        assert coarse_trace.rom_stats is not None
        assert coarse_trace.rom_stats.rom_periods > 0

    def test_period_count_and_timestamps_match(self, fine_trace, coarse_trace):
        assert coarse_trace.n_periods == fine_trace.n_periods
        for rf, rc in zip(fine_trace.racks, coarse_trace.racks):
            times_f = [d.time_s for period in rf.periods for d in period]
            times_c = [d.time_s for period in rc.periods for d in period]
            assert times_c == times_f

    def test_per_server_peaks_within_golden_tolerance(
        self, fine_trace, coarse_trace
    ):
        diff = np.abs(_peak_grid(coarse_trace) - _peak_grid(fine_trace))
        assert float(diff.max()) < GOLDEN_TOL_C

    def test_no_missed_or_spurious_violations(self, fine_trace, coarse_trace):
        assert coarse_trace.thermal_violations == fine_trace.thermal_violations
        assert coarse_trace.peak_period_case_temperature_c == pytest.approx(
            fine_trace.peak_period_case_temperature_c, abs=GOLDEN_TOL_C
        )

    def test_plant_energy_matches(self, fine_trace, coarse_trace):
        assert coarse_trace.plant_energy_j == pytest.approx(
            fine_trace.plant_energy_j, rel=1e-6
        )

    def test_coarse_run_is_deterministic(
        self, scenario, floorplan, power_model, coarse_trace
    ):
        again = _run(scenario, floorplan, power_model, CoarseningConfig())
        assert again.plant_power_w == coarse_trace.plant_power_w
        assert np.array_equal(_peak_grid(again), _peak_grid(coarse_trace))


class TestRomFallback:
    def test_guard_band_forces_fallback_near_constraint(
        self, scenario, floorplan, power_model, fine_trace
    ):
        # A guard band wider than the whole margin to T_CASE_MAX turns every
        # ROM row into a guard fallback: the lane must *detect* proximity
        # and hand the rows to the full solver, never absorb them.
        coarsening = CoarseningConfig(rom=RomConfig(guard_band_c=60.0))
        trace = _run(scenario, floorplan, power_model, coarsening)
        assert trace.rom_stats is not None
        assert trace.rom_stats.fallback_guard > 0
        assert trace.rom_stats.rom_rows == 0
        # Fallback rows rerun the fine physics, so the golden bound holds.
        diff = np.abs(_peak_grid(trace) - _peak_grid(fine_trace))
        assert float(diff.max()) < GOLDEN_TOL_C
        assert trace.thermal_violations == fine_trace.thermal_violations

    def test_error_tolerance_forces_fallback(
        self, scenario, floorplan, power_model
    ):
        coarsening = CoarseningConfig(
            rom=RomConfig(step_error_tol_c=1e-12, projection_tol_c=1e-12)
        )
        trace = _run(scenario, floorplan, power_model, coarsening)
        assert trace.rom_stats is not None
        assert (
            trace.rom_stats.fallback_error + trace.rom_stats.fallback_projection
        ) > 0


class TestSnapshotRestoreWithCoarseLanes:
    def test_hold_only_mpc_is_bit_identical_to_frozen_reactive(
        self, scenario, floorplan, power_model
    ):
        # The reactive controller with a frozen setpoint band emits HOLD
        # every window; hold-only MPC additionally snapshots, rolls out and
        # restores around each window.  Bit-identity of the committed traces
        # proves restore() also restores the coarse-span pattern.
        def run(supervisory):
            return _run(
                scenario,
                floorplan,
                power_model,
                CoarseningConfig(),
                supervisory=supervisory,
                supply_setpoint_c=30.0,
            )

        frozen = SupervisoryController(
            period_s=8.0, setpoint_min_c=30.0, setpoint_max_c=30.0
        )
        from repro.datacenter.mpc import CandidateTrajectory

        hold_only = MpcSupervisoryController(
            period_s=8.0,
            setpoint_min_c=30.0,
            setpoint_max_c=30.0,
            horizon=2,
            candidates=(CandidateTrajectory("hold", (0.0, 0.0)),),
        )
        reactive = run(frozen)
        mpc = run(hold_only)
        assert mpc.coarse_spans == reactive.coarse_spans
        assert mpc.setpoint_c == reactive.setpoint_c
        assert mpc.plant_power_w == reactive.plant_power_w
        assert np.array_equal(_peak_grid(mpc), _peak_grid(reactive))

    def test_restored_session_replays_identical_spans(
        self, scenario, floorplan, power_model
    ):
        session = _model(
            scenario, floorplan, power_model, CoarseningConfig()
        ).session()
        session.reset()
        for index in range(4):
            period = session.advance_period(index * CONTROL_PERIOD_S)
            session._note_period(period)
        snapshot = session.snapshot()
        first = session.advance_span(4 * CONTROL_PERIOD_S, 4)
        session.restore(snapshot)
        second = session.advance_span(4 * CONTROL_PERIOD_S, 4)
        for a, b in zip(first, second):
            assert a.plant_power_w == b.plant_power_w
            assert a.worst_period_peak_case_c == b.worst_period_peak_case_c
        assert snapshot.coarse_state is not None


class TestConfigValidation:
    def test_coarsening_requires_rom_config(self):
        with pytest.raises(ConfigurationError):
            CoarseningConfig(rom=None)

    def test_advance_span_requires_coarsening(
        self, scenario, floorplan, power_model
    ):
        session = _model(scenario, floorplan, power_model, None).session()
        session.advance_period(0.0)
        with pytest.raises(ConfigurationError):
            session.advance_span(CONTROL_PERIOD_S, 4)

    def test_coarsening_config_validation(self):
        with pytest.raises(Exception):
            CoarseningConfig(min_span=1)
        with pytest.raises(Exception):
            CoarseningConfig(min_span=8, max_span=4)
        with pytest.raises(Exception):
            CoarseningConfig(quasi_steady_tol_c=-1.0)

    def test_advance_span_requires_warm_floor(
        self, scenario, floorplan, power_model
    ):
        session = _model(
            scenario, floorplan, power_model, CoarseningConfig()
        ).session()
        session.reset()
        with pytest.raises(ConfigurationError):
            session.advance_span(0.0, 4)


TWO_SKU_DURATION_S = 1440.0


def _two_sku_model(seed, coarsening):
    """Two SKUs (the default spreader and a 44 mm one), one 2-server rack
    each, diurnal load in 120 s phases; SKU ``i`` takes seed ``seed + i``."""
    floorplans = [
        build_xeon_e5_v4_floorplan(),
        build_xeon_e5_v4_floorplan(spreader_size_mm=44.0),
    ]
    racks = []
    for index, floorplan in enumerate(floorplans):
        scenario = build_scenario(
            "diurnal",
            n_racks=1,
            servers_per_rack=2,
            duration_s=TWO_SKU_DURATION_S,
            seed=seed + index,
            phase_dt_s=120.0,
            floorplan=floorplan,
        )
        racks.append(
            replace(
                scenario.racks[0],
                name=f"sku{index}",
                floorplan=None if index == 0 else floorplan,
            )
        )
    return DatacenterModel(
        racks,
        floorplan=floorplans[0],
        thermal_simulator=ThermalSimulator(floorplans[0], cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=coarsening,
    )


def _run_two_sku(seed, coarsening):
    return _two_sku_model(seed, coarsening).run_trace(
        duration_s=TWO_SKU_DURATION_S,
        supervisory=SupervisoryController(period_s=600.0, setpoint_max_c=40.0),
    )


@pytest.fixture(scope="module")
def two_sku_fine():
    """The fine engine's trace of the two-SKU floor at a seed, run once."""
    traces = {}

    def fine(seed):
        if seed not in traces:
            traces[seed] = _run_two_sku(seed, None)
        return traces[seed]

    return fine


class TestExactSpans:
    """Coarsening alone is a tier-A reorganization: the span planner changes
    how periods are grouped, never a result.  The ROM lane is the only
    approximation, so with every span marched through the full substep
    march the coarsened floor equals the fine engine bit for bit."""

    @pytest.mark.parametrize("seed", (7, 1234))
    def test_full_march_spans_equal_fine_engine(self, monkeypatch, two_sku_fine, seed):
        def exact_span(
            self,
            rack_loads,
            dt_s,
            span,
            *,
            rom,
            n_substeps=1,
            force_boundary_refresh=None,
            t_case_max_c=None,
        ):
            return self._advance(
                rack_loads, dt_s, span, n_substeps, force_boundary_refresh,
                rom=None, t_case_max_c=t_case_max_c,
            )

        fine = two_sku_fine(seed)
        monkeypatch.setattr(FloorEngine, "advance_span", exact_span)
        coarse = _run_two_sku(seed, CoarseningConfig())
        assert coarse.coarse_spans > 0
        assert coarse.n_periods == fine.n_periods
        assert np.array_equal(_peak_grid(coarse), _peak_grid(fine))
        assert coarse.plant_energy_j == fine.plant_energy_j


class TestStaleBasisRebuild:
    """A server keeps its cooling boundary while its power stays within 15%
    of the power the boundary was built at, so a cached reduced basis can
    serve a span whose steady state it cannot reach.  Such a basis is
    rebuilt, and the span stays on the ROM lane."""

    def test_power_drift_under_a_held_boundary_rebuilds_the_basis(
        self, floorplan, power_model, x264
    ):
        mapper = ThreadMapper(floorplan, orientation=PAPER_OPTIMIZED_DESIGN.orientation)
        mapping = mapper.map(
            x264, Configuration(8, 2, 3.2), ProposedThermalAwareMapping()
        )
        rack = RackSession(
            1,
            floorplan=floorplan,
            power_model=power_model,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        )
        floor = FloorEngine([rack])
        built = ServerLoad(benchmark=x264, mapping=mapping)
        drifted = replace(built, activity_factor=0.9)
        span, substeps = 16, 4

        floor.advance([[built]], CONTROL_PERIOD_S, n_substeps=substeps)
        floor.advance_span(
            [[built]], CONTROL_PERIOD_S, span, rom=RomConfig(), n_substeps=substeps
        )
        assert floor.rom_stats.basis_builds == 1
        held = rack.held_boundaries()[0]
        snapshot = floor.snapshot()
        before = floor.rom_stats.copy()
        rom = floor.advance_span(
            [[drifted]], CONTROL_PERIOD_S, span, rom=RomConfig(), n_substeps=substeps
        )
        stats = floor.rom_stats.delta(before)
        assert rack.held_boundaries()[0] is held
        assert stats.fallback_rows == 0
        assert stats.basis_rebuilds == 1
        assert stats.rebuild_steady_state == 1
        assert stats.rom_periods == span

        floor.restore(snapshot)
        exact = floor._advance([[drifted]], CONTROL_PERIOD_S, span, substeps, None)
        peaks, exact_peaks = rom.period_peak_case_c[0], exact.period_peak_case_c[0]
        assert np.max(np.abs(peaks - exact_peaks)) <= GOLDEN_TOL_C
        # The span is not a flat line the reduced lane could match by luck.
        assert exact_peaks[0, 0] - exact_peaks[-1, 0] > 0.5


#: Basis rebuilds on the two-SKU floor, all for a missed steady state.
TWO_SKU_REBUILDS = {7: 14, 1234: 16}


def _exact_replay(
    network, caches, boundary, maps_rows, state, sub_dt, span, n_substeps, case_cell
):
    """``FloorEngine._full_march``'s substep loop on a private cache.

    The floor's own cache must stay untouched: evicting a transient factor
    there also evicts the reduced operator of the same key, which would
    change the run under test.
    """
    cache = caches.setdefault(id(network), FactorizationCache(network))
    case_hist = np.empty((span, state.shape[0]))
    peak_hist = np.empty((span, state.shape[0]))
    for j in range(span):
        peak = np.full(state.shape[0], float("-inf"))
        for _ in range(n_substeps):
            previous = state
            state = cache._step_fields(state, maps_rows, boundary, sub_dt)
            np.maximum(peak, state[:, case_cell], out=peak)
        case_hist[j] = state[:, case_cell]
        peak_hist[j] = peak
    residual = np.max(np.abs(state - previous), axis=1)
    return state, case_hist, peak_hist, residual


def _reduced_last_change(op, power_vectors, state, n_steps):
    """The lifted change of the last of ``n_steps`` reduced steps from
    ``state``: the settle residual a ROM span reports."""
    coords, _ = op.project(state)
    affine = op.affine_term(op.reduce_rhs(power_vectors))
    for _ in range(n_steps):
        previous, coords = coords, op.step_matrix @ coords + affine
    return np.max(np.abs(op.lift(coords - previous)), axis=1)


@pytest.fixture(scope="module", params=sorted(TWO_SKU_REBUILDS))
def two_sku_shadowed(request):
    """The coarse two-SKU run with every ROM span replayed exactly beside it.

    Returns ``(seed, trace, kept)``: ``kept`` holds one record per row the
    ROM lane kept — its largest deviation from the exact replay in
    per-period peaks, case temperatures and span-end field, whether its
    span rebuilt a basis for a missed steady state, and its settle
    residual beside the last substep's change in a reduced and in the
    exact replay.
    """
    seed = request.param
    kept = []
    caches = {}
    rom_march = FloorEngine._rom_march

    def shadowed(
        self, group, boundary, maps_rows, state, sub_dt, span, n_substeps,
        t_case_max_c, config, stats,
    ):
        rebuilds_before = stats.rebuild_steady_state
        result = rom_march(
            self, group, boundary, maps_rows, state, sub_dt, span, n_substeps,
            t_case_max_c, config, stats,
        )
        ok, end, cases, peaks, residuals = result
        network = group.simulator.network
        exact_end, exact_cases, exact_peaks, exact_residuals = _exact_replay(
            network, caches, boundary, maps_rows, state, sub_dt,
            span, n_substeps, group.case_cell_index,
        )
        reduced_residuals = _reduced_last_change(
            group.simulator.solver_cache.reduced_operator(boundary, sub_dt),
            network.power_vectors(maps_rows), state, span * n_substeps,
        )
        rebuilt = stats.rebuild_steady_state > rebuilds_before
        for i in np.flatnonzero(ok):
            kept.append({
                "peak": float(np.max(np.abs(peaks[:, i] - exact_peaks[:, i]))),
                "case": float(np.max(np.abs(cases[:, i] - exact_cases[:, i]))),
                "field": float(np.max(np.abs(end[i] - exact_end[i]))),
                "steady_state_rebuild": rebuilt,
                "n_substeps": n_substeps,
                "residual": float(residuals[i]),
                "reduced_residual": float(reduced_residuals[i]),
                "exact_residual": float(exact_residuals[i]),
            })
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FloorEngine, "_rom_march", shadowed)
        trace = _run_two_sku(seed, CoarseningConfig())
    return seed, trace, kept


class TestTwoSkuRomLane:
    """The ROM lane on the two-SKU floor at 4.0 mm: no row falls back, and
    every kept row is within tier C of an exact replay of its span."""

    def test_no_fallbacks_and_unchanged_rebuilds(self, two_sku_shadowed):
        seed, trace, _ = two_sku_shadowed
        stats = trace.rom_stats
        assert stats.fallback_rows == 0
        assert stats.rebuild_steady_state == TWO_SKU_REBUILDS[seed]
        assert stats.rebuild_projection == 0

    def test_peaks_energy_and_violations_match_fine_engine(
        self, two_sku_shadowed, two_sku_fine
    ):
        seed, trace, _ = two_sku_shadowed
        fine = two_sku_fine(seed)
        assert trace.coarse_spans > 0
        assert np.max(np.abs(_peak_grid(trace) - _peak_grid(fine))) <= GOLDEN_TOL_C
        assert trace.plant_energy_j == fine.plant_energy_j
        assert trace.thermal_violations == fine.thermal_violations

    def test_every_kept_row_matches_its_exact_replay(self, two_sku_shadowed):
        _, trace, kept = two_sku_shadowed
        assert len(kept) == trace.rom_stats.rom_rows
        for name in ("peak", "case", "field"):
            assert max(row[name] for row in kept) <= GOLDEN_TOL_C, name
        assert any(row["steady_state_rebuild"] for row in kept)

    def test_kept_row_residual_is_the_last_substep_change(self, two_sku_shadowed):
        """A kept row's settle residual is the lifted change over the span's
        final substep, as the fine lane defines it, not over its last
        period, and it is within tier C of the exact replay's."""
        _, _, kept = two_sku_shadowed
        assert any(row["n_substeps"] > 1 for row in kept)
        for row in kept:
            assert row["residual"] == pytest.approx(row["reduced_residual"], rel=1e-9)
            assert abs(row["residual"] - row["exact_residual"]) <= GOLDEN_TOL_C


class TestRebuildTelemetry:
    def test_rebuild_causes_are_published(self):
        hub = Telemetry()
        previous = set_telemetry(hub)
        try:
            trace = _run_two_sku(7, CoarseningConfig())
            footer = hub.footer()
        finally:
            set_telemetry(previous)
        counters = hub.counters.snapshot()
        assert counters.get("rom.rebuild.steady_state", 0) == TWO_SKU_REBUILDS[7]
        assert counters.get("rom.rebuild.projection", 0) == 0
        assert counters["rom.basis_rebuilds"] == trace.rom_stats.basis_rebuilds == 14
        assert "rom rebuilds projection=0/steady_state=14" in footer
        buffer = io.StringIO()
        write_jsonl(hub, buffer)
        buffer.seek(0)
        events = read_jsonl(buffer)
        report = build_report(events)
        assert report["rom_rebuilds"] == {"projection": 0, "steady_state": 14}
        assert "rom basis rebuild causes" in render_report(events)
        builds = [
            record.attrs["cause"]
            for record in hub.tracer.records()
            if record.name == "rom.build_basis"
        ]
        assert builds.count("steady_state") == 14
        assert set(builds) <= {"cold", "steady_state"}
