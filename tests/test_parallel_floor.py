"""Thread-parallel hardware-group advancement: golden parity with serial.

The parallel floor engine (``parallel_groups >= 2``) fans the per-group
stacked solves of :class:`~repro.datacenter.floor.FloorEngine` over a
persistent worker pool.  Its whole contract is *bit-identity*: results
must match the serial loop exactly — not approximately — because the
per-group state is disjoint and the commit happens in group-index order
on the calling thread.  These tests pin that contract on a mixed-SKU
floor for every engine lane:

* the fine (per-period) lane, fixed setpoint;
* the coarsened lane (dyadic macro-spans through the reduced-order
  Krylov path), including the merged :class:`~repro.thermal.rom.RomStats`
  counters;
* snapshot()/restore() mid-run under the threaded engine;

plus the lifecycle edges: single-group floors never build an executor,
``close()`` is idempotent, negative budgets are rejected, the
cold-floor guard of ``advance_span`` raises on the calling thread before
any worker is involved, and a failing group raises only once every
other group's worker has finished writing its state.
"""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.datacenter.floor import FloorEngine
from repro.datacenter.model import CoarseningConfig, DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.exceptions import ConfigurationError
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.thermal.simulator import ThermalSimulator

CELL_SIZE_MM = 4.0
CONTROL_PERIOD_S = 2.0
FIXED_DURATION_S = 48.0
COARSE_DURATION_S = 240.0
PHASE_DT_S = 60.0

#: Every decision field the serial and threaded engines must agree on.
_DECISION_FIELDS = (
    "time_s",
    "case_temperature_c",
    "die_hot_spot_c",
    "package_power_w",
    "water_flow_kg_h",
    "frequency_ghz",
    "action",
    "settle_residual_c",
    "period_peak_case_c",
)

_ROM_FIELDS = (
    "basis_builds",
    "rebuild_projection",
    "rebuild_steady_state",
    "basis_rebuilds",
    "spans",
    "rom_periods",
    "rom_rows",
    "fallback_rows",
    "fallback_error",
    "fallback_guard",
    "fallback_projection",
)


@pytest.fixture(scope="module")
def sku_floorplans(floorplan):
    """Two SKUs: the shared default and a wider-spreader variant."""
    return (floorplan, build_xeon_e5_v4_floorplan(spreader_size_mm=42.0))


def _mixed_racks(sku_floorplans, duration_s):
    """A mixed-SKU floor: one diurnal rack per SKU, mappings resolved
    against each rack's own floorplan."""
    racks = []
    for index, rack_floorplan in enumerate(sku_floorplans):
        scenario = build_scenario(
            "diurnal",
            n_racks=1,
            servers_per_rack=2,
            duration_s=duration_s,
            seed=3 + index,
            phase_dt_s=PHASE_DT_S,
            floorplan=rack_floorplan,
        )
        racks.append(
            replace(
                scenario.racks[0],
                name=f"sku{index}",
                floorplan=None if index == 0 else rack_floorplan,
            )
        )
    return tuple(racks)


def _model(racks, sku_floorplans, parallel_groups, coarsening=None):
    return DatacenterModel(
        racks,
        floorplan=sku_floorplans[0],
        thermal_simulator=ThermalSimulator(
            sku_floorplans[0], cell_size_mm=CELL_SIZE_MM
        ),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=coarsening,
        parallel_groups=parallel_groups,
    )


def _run(racks, sku_floorplans, parallel_groups, duration_s, coarsening=None):
    """Run a floor; returns the trace and whether a worker pool ran."""
    model = _model(racks, sku_floorplans, parallel_groups, coarsening)
    session = model.session()
    try:
        trace = session.run(duration_s=duration_s)
        threaded = session.floor_engine._executor is not None
    finally:
        session.close()
    return trace, threaded


def _assert_traces_identical(serial, parallel):
    assert parallel.n_periods == serial.n_periods
    assert parallel.setpoint_c == serial.setpoint_c
    assert parallel.plant_power_w == serial.plant_power_w
    assert parallel.coarse_spans == serial.coarse_spans
    assert parallel.coarse_periods == serial.coarse_periods
    for rack_s, rack_p in zip(serial.racks, parallel.racks):
        assert rack_p.chiller_power_w == rack_s.chiller_power_w
        for period_s, period_p in zip(rack_s.periods, rack_p.periods):
            for decision_s, decision_p in zip(period_s, period_p):
                for field in _DECISION_FIELDS:
                    assert getattr(decision_p, field) == getattr(
                        decision_s, field
                    ), field


@pytest.fixture(scope="module")
def fixed_pair(sku_floorplans):
    racks = _mixed_racks(sku_floorplans, FIXED_DURATION_S)
    serial, serial_threaded = _run(racks, sku_floorplans, 0, FIXED_DURATION_S)
    threaded, threaded_ran = _run(racks, sku_floorplans, 2, FIXED_DURATION_S)
    return serial, serial_threaded, threaded, threaded_ran


@pytest.fixture(scope="module")
def coarse_pair(sku_floorplans):
    racks = _mixed_racks(sku_floorplans, COARSE_DURATION_S)
    serial, _ = _run(
        racks, sku_floorplans, 0, COARSE_DURATION_S, CoarseningConfig()
    )
    threaded, threaded_ran = _run(
        racks, sku_floorplans, 2, COARSE_DURATION_S, CoarseningConfig()
    )
    return serial, threaded, threaded_ran


class TestFixedSetpointParity:
    def test_threaded_path_actually_ran(self, fixed_pair):
        serial, serial_threaded, _, threaded_ran = fixed_pair
        assert not serial_threaded
        assert threaded_ran

    def test_bit_identical_decisions(self, fixed_pair):
        serial, _, threaded, _ = fixed_pair
        _assert_traces_identical(serial, threaded)

    def test_mixed_sku_floor_has_two_groups(self, sku_floorplans):
        racks = _mixed_racks(sku_floorplans, FIXED_DURATION_S)
        model = _model(racks, sku_floorplans, 2)
        assert model.n_hardware_groups == 2


class TestCoarsenedParity:
    def test_coarsening_engaged_in_both(self, coarse_pair):
        serial, threaded, threaded_ran = coarse_pair
        assert threaded_ran
        assert serial.coarse_spans > 0
        assert threaded.coarse_spans > 0

    def test_bit_identical_decisions(self, coarse_pair):
        serial, threaded, _ = coarse_pair
        _assert_traces_identical(serial, threaded)

    def test_rom_stats_merge_matches_serial(self, coarse_pair):
        serial, threaded, _ = coarse_pair
        assert serial.rom_stats is not None and threaded.rom_stats is not None
        for field in _ROM_FIELDS:
            assert getattr(threaded.rom_stats, field) == getattr(
                serial.rom_stats, field
            ), field


class TestSnapshotRestore:
    def test_threaded_restore_replays_bit_identical(self, sku_floorplans):
        racks = _mixed_racks(sku_floorplans, FIXED_DURATION_S)
        model = _model(racks, sku_floorplans, 2)
        session = model.session()
        try:
            time_s = 0.0
            for _ in range(2):
                session.advance_period(time_s)
                time_s += CONTROL_PERIOD_S
            snapshot = session.snapshot()
            first = [
                session.advance_period(time_s),
                session.advance_period(time_s + CONTROL_PERIOD_S),
            ]
            session.restore(snapshot)
            second = [
                session.advance_period(time_s),
                session.advance_period(time_s + CONTROL_PERIOD_S),
            ]
            for period_a, period_b in zip(first, second):
                assert period_b.rack_chiller_power_w == period_a.rack_chiller_power_w
                assert (
                    period_b.worst_period_peak_case_c
                    == period_a.worst_period_peak_case_c
                )
                for rack_a, rack_b in zip(
                    period_a.rack_decisions, period_b.rack_decisions
                ):
                    for decision_a, decision_b in zip(rack_a, rack_b):
                        for field in _DECISION_FIELDS:
                            assert getattr(decision_b, field) == getattr(
                                decision_a, field
                            ), field
        finally:
            session.close()


class TestLifecycle:
    def test_negative_budget_rejected_by_model(self, sku_floorplans):
        racks = _mixed_racks(sku_floorplans, FIXED_DURATION_S)
        with pytest.raises(ConfigurationError):
            _model(racks, sku_floorplans, -1)

    def test_negative_budget_rejected_by_engine(self, sku_floorplans):
        racks = _mixed_racks(sku_floorplans, FIXED_DURATION_S)
        model = _model(racks, sku_floorplans, 0)
        session = model.session()
        with pytest.raises(ConfigurationError):
            FloorEngine(session.rack_sessions, parallel_groups=-1)

    def test_single_group_floor_never_builds_a_pool(self, floorplan):
        scenario = build_scenario(
            "diurnal",
            n_racks=2,
            servers_per_rack=1,
            duration_s=8.0,
            seed=3,
            phase_dt_s=PHASE_DT_S,
            floorplan=floorplan,
        )
        model = DatacenterModel(
            scenario.racks,
            floorplan=floorplan,
            thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
            control_period_s=CONTROL_PERIOD_S,
            parallel_groups=8,
        )
        assert model.n_hardware_groups == 1
        session = model.session()
        try:
            session.run(duration_s=8.0)
            assert session.floor_engine._executor is None
        finally:
            session.close()

    def test_close_is_idempotent(self, sku_floorplans):
        racks = _mixed_racks(sku_floorplans, FIXED_DURATION_S)
        model = _model(racks, sku_floorplans, 2)
        session = model.session()
        session.advance_period(0.0)
        assert session.floor_engine._executor is not None
        session.close()
        assert session.floor_engine._executor is None
        session.close()

    def test_cold_floor_span_raises_on_caller(self, sku_floorplans):
        racks = _mixed_racks(sku_floorplans, FIXED_DURATION_S)
        model = _model(
            racks, sku_floorplans, 2, CoarseningConfig()
        )
        session = model.session()
        try:
            with pytest.raises(ConfigurationError):
                session.advance_span(0.0, 4)
        finally:
            session.close()


class TestFailureContainment:
    def test_failed_group_joins_every_worker_before_raising(
        self, sku_floorplans, monkeypatch
    ):
        """Group 0 fails while group 1 is still solving: the advance must
        not raise until group 1 has finished, or group 1 would overwrite
        the state the caller restores after catching the exception."""
        racks = _mixed_racks(sku_floorplans, FIXED_DURATION_S)
        threads_before = set(threading.enumerate())
        model = _model(racks, sku_floorplans, 2)
        session = model.session()
        twin = _model(racks, sku_floorplans, 2).session()
        try:
            time_s = 0.0
            for _ in range(2):
                session.advance_period(time_s)
                twin.advance_period(time_s)
                time_s += CONTROL_PERIOD_S
            snapshot = session.snapshot()

            failing, slow = model.rack_simulators

            def fail(*args, **kwargs):
                raise RuntimeError("group 0 failed")

            step = slow.transient_step_many_from_maps
            delayed = threading.Event()

            def late_step(*args, **kwargs):
                # Hold group 1 back once, so group 0 fails while it runs.
                if not delayed.is_set():
                    delayed.set()
                    time.sleep(0.3)
                return step(*args, **kwargs)

            monkeypatch.setattr(failing, "transient_step_many_from_maps", fail)
            monkeypatch.setattr(slow, "transient_step_many_from_maps", late_step)
            with pytest.raises(RuntimeError, match="group 0 failed"):
                session.advance_period(time_s)
            session.restore(snapshot)
            time.sleep(1.5)
            monkeypatch.undo()

            restored = session.snapshot().floor.rack_snapshots
            for saved, now in zip(snapshot.floor.rack_snapshots, restored):
                assert np.array_equal(now.temperatures, saved.temperatures)
                assert all(a is b for a, b in zip(now.boundaries, saved.boundaries))

            period = session.advance_period(time_s)
            expected = twin.advance_period(time_s)
            assert period.worst_period_peak_case_c == expected.worst_period_peak_case_c
            for rack_a, rack_b in zip(expected.rack_decisions, period.rack_decisions):
                for decision_a, decision_b in zip(rack_a, rack_b):
                    for field in _DECISION_FIELDS:
                        assert getattr(decision_b, field) == getattr(
                            decision_a, field
                        ), field
        finally:
            session.close()
            twin.close()
        leftover = [
            thread
            for thread in threading.enumerate()
            if thread not in threads_before
            and thread.name.startswith("floor-group")
            and thread.is_alive()
        ]
        assert not leftover
