"""Snapshot/restore of a datacenter session is all or nothing.

* A snapshot that does not fit the floor — another rack count, another
  server count in a rack, or fields on another grid — is rejected with
  :class:`ValidationError` before any layer changes: the session's own
  snapshot is unchanged and its next period equals an untouched twin's.
* Fault containment: an exception raised inside a period's thermal solves
  leaves a session that its last snapshot fully repairs — the replayed
  period equals the twin's.
"""

import numpy as np
import pytest

from repro.datacenter.model import DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.exceptions import ValidationError
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.chiller import ChillerPlant

CELL_SIZE_MM = 2.5
CONTROL_PERIOD_S = 2.0
DURATION_S = 24.0


def _model(
    floorplan, power_model, *, n_racks=2, servers_per_rack=2, cell_size_mm=CELL_SIZE_MM
):
    scenario = build_scenario(
        "flash_crowd",
        n_racks=n_racks,
        servers_per_rack=servers_per_rack,
        duration_s=DURATION_S,
        seed=3,
        floorplan=floorplan,
    )
    return DatacenterModel(
        scenario.racks,
        plant=ChillerPlant(free_cooling_outdoor_c=18.0),
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=cell_size_mm),
        control_period_s=CONTROL_PERIOD_S,
    )


def _warm_session(model, n_periods=2):
    session = model.session()
    for index in range(n_periods):
        session.advance_period(index * CONTROL_PERIOD_S)
    return session


def _assert_same_snapshot(a, b):
    assert a.setpoint_c == b.setpoint_c
    assert a.water_loops == b.water_loops
    assert a.frequencies == b.frequencies
    assert a.mappings == b.mappings
    assert a.force_refresh == b.force_refresh
    assert a.coarse_state == b.coarse_state
    assert len(a.floor.rack_snapshots) == len(b.floor.rack_snapshots)
    for rack_a, rack_b in zip(a.floor.rack_snapshots, b.floor.rack_snapshots):
        # Held boundaries are frozen and shared, never copied.
        assert len(rack_a.boundaries) == len(rack_b.boundaries)
        assert all(x is y for x, y in zip(rack_a.boundaries, rack_b.boundaries))
        assert np.array_equal(rack_a.temperatures, rack_b.temperatures)


#: Floors whose snapshots do not fit the 2-rack x 2-server floor at 2.5 mm.
FOREIGN_FLOORS = {
    "2x3-servers": {"servers_per_rack": 3},
    "3-racks": {"n_racks": 3},
    "2.0mm-grid": {"cell_size_mm": 2.0},
}


@pytest.mark.parametrize(
    "foreign", list(FOREIGN_FLOORS.values()), ids=list(FOREIGN_FLOORS)
)
def test_rejected_restore_leaves_every_layer_untouched(
    floorplan, power_model, foreign
):
    model = _model(floorplan, power_model)
    session = _warm_session(model)
    twin = _warm_session(model)
    other = _warm_session(_model(floorplan, power_model, **foreign), n_periods=1)
    before = session.snapshot()
    with pytest.raises(ValidationError):
        session.restore(other.snapshot())
    _assert_same_snapshot(session.snapshot(), before)
    time_s = 2 * CONTROL_PERIOD_S
    assert session.advance_period(time_s) == twin.advance_period(time_s)


@pytest.mark.parametrize(
    "foreign", list(FOREIGN_FLOORS.values()), ids=list(FOREIGN_FLOORS)
)
def test_rejected_reference_leaves_every_layer_untouched(
    floorplan, power_model, foreign
):
    """A rollout reference that does not fit is refused before stage 1.

    One substep is the rollout setting in which the floor reads the
    reference's held boundaries, so a misfit would otherwise precondition
    rows with another server's boundary, or fail only after the refresh
    stage stored new boundaries.
    """
    model = _model(floorplan, power_model)
    session = _warm_session(model)
    twin = _warm_session(model)
    other = _warm_session(_model(floorplan, power_model, **foreign), n_periods=1)
    before = session.snapshot()
    time_s = 2 * CONTROL_PERIOD_S
    with pytest.raises(ValidationError):
        session.advance_period(time_s, n_substeps=1, reference=other.snapshot())
    _assert_same_snapshot(session.snapshot(), before)
    assert session.advance_period(time_s) == twin.advance_period(time_s)


def test_fractional_substep_count_leaves_every_layer_untouched(
    floorplan, power_model
):
    """A fractional per-period substep count is refused before the period
    starts: no held boundary is replaced and no field moves."""
    model = _model(
        floorplan, power_model, n_racks=1, servers_per_rack=1, cell_size_mm=4.0
    )
    session = _warm_session(model, n_periods=1)
    twin = _warm_session(model, n_periods=1)
    before = session.snapshot()
    time_s = CONTROL_PERIOD_S
    with pytest.raises(ValidationError, match="n_substeps"):
        session.advance_period(time_s, n_substeps=2.5)
    _assert_same_snapshot(session.snapshot(), before)
    assert session.advance_period(time_s) == twin.advance_period(time_s)


def test_failed_period_is_repaired_by_the_last_snapshot(
    floorplan, power_model, monkeypatch
):
    model = _model(floorplan, power_model)
    session = _warm_session(model)
    twin = _warm_session(model)
    snapshot = session.snapshot()
    simulator = model.rack_simulators[0]
    original = simulator.transient_step_many_from_maps
    calls = []

    def failing_step(*args, **kwargs):
        # The second solve of the period: boundaries are already refreshed
        # and stored and one solve group has stepped when the fault hits.
        calls.append(None)
        if len(calls) == 2:
            raise RuntimeError("injected solver fault")
        return original(*args, **kwargs)

    time_s = 2 * CONTROL_PERIOD_S
    monkeypatch.setattr(simulator, "transient_step_many_from_maps", failing_step)
    with pytest.raises(RuntimeError, match="injected solver fault"):
        session.advance_period(time_s)
    monkeypatch.undo()
    assert len(calls) == 2
    # The failed period left refreshed boundaries behind for restore to undo.
    held = [rack.boundaries for rack in session.snapshot().floor.rack_snapshots]
    saved = [rack.boundaries for rack in snapshot.floor.rack_snapshots]
    assert any(a is not b for ra, rb in zip(held, saved) for a, b in zip(ra, rb))
    session.restore(snapshot)
    _assert_same_snapshot(session.snapshot(), snapshot)
    assert session.advance_period(time_s) == twin.advance_period(time_s)
