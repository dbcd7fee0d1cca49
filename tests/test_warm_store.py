"""Warm-store tests: persisted bases/operators across runs, bit-identically.

The :class:`~repro.thermal.warm_store.WarmStore` contract:

* a cold coarsened run populates the store with reduced operators and a
  second run of the same floor reads them back — ``RomStats.basis_builds
  == 0`` — while reproducing the cold trace bit for bit;
* only first builds are stored: each run computes its own rebuilds of a
  stale basis;
* the factorization cache neither writes nor reads assembled-system
  entries: it factors from the network's bulk band and assembles nothing
  a stored system could save (the store's system methods stay,
  round-tripped below);
* robustness: corrupt or wrong-version entries are *stale* (counted,
  removed, degrade to a cold build that rewrites them), never exceptions
  or wrong answers;
* first write wins, so rebuilds and concurrent writers cannot change what
  a warm run replays.
"""

import shutil

import numpy as np
import pytest
from scipy import sparse

from repro.datacenter.model import CoarseningConfig, DatacenterModel
from repro.datacenter.scenarios import build_scenario
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.warm_store import FORMAT_VERSION, WarmStore

CELL_SIZE_MM = 4.0
CONTROL_PERIOD_S = 2.0
DURATION_S = 240.0
PHASE_DT_S = 60.0


@pytest.fixture(scope="module")
def scenario(floorplan):
    return build_scenario(
        "diurnal",
        n_racks=2,
        servers_per_rack=2,
        duration_s=DURATION_S,
        seed=3,
        phase_dt_s=PHASE_DT_S,
        floorplan=floorplan,
    )


def _run(scenario, floorplan, power_model, store_path):
    """One coarsened run on a fresh simulator against the given store."""
    store = WarmStore(store_path)
    model = DatacenterModel(
        scenario.racks,
        floorplan=floorplan,
        power_model=power_model,
        thermal_simulator=ThermalSimulator(floorplan, cell_size_mm=CELL_SIZE_MM),
        control_period_s=CONTROL_PERIOD_S,
        coarsening=CoarseningConfig(),
        warm_store=store,
    )
    return model.run_trace(duration_s=DURATION_S), store


def _peak_grid(trace):
    return np.array(
        [
            [[d.period_peak_case_c for d in period] for period in rack.periods]
            for rack in trace.racks
        ]
    )


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("warm-store")


@pytest.fixture(scope="module")
def cold(scenario, floorplan, power_model, store_dir):
    return _run(scenario, floorplan, power_model, store_dir)


@pytest.fixture(scope="module")
def warm(scenario, floorplan, power_model, store_dir, cold):
    return _run(scenario, floorplan, power_model, store_dir)


class TestColdWarmRoundTrip:
    def test_cold_run_builds_and_populates(self, cold):
        trace, store = cold
        assert trace.coarse_spans > 0
        assert trace.rom_stats is not None
        assert trace.rom_stats.basis_builds > 0
        assert store.stats.stores > 0
        assert store.stats.reduced_misses > 0
        assert store.stats.system_hits == store.stats.system_misses == 0
        assert not list(store.path.glob("system-*.npz"))
        assert store.stats.stale == 0

    def test_warm_run_skips_every_arnoldi_build(self, warm):
        trace, store = warm
        assert trace.rom_stats is not None
        assert trace.rom_stats.basis_builds == 0
        assert store.stats.reduced_hits > 0

    def test_store_keeps_first_builds_only(self, cold, warm):
        """A rebuild depends on its run's own states, so the store holds
        one entry per first build and the warm run computes the same
        rebuilds as the cold run."""
        cold_stats = cold[0].rom_stats
        store = cold[1]
        assert cold_stats.basis_rebuilds > 0
        entries = list(store.path.glob("reduced-*.npz"))
        assert len(entries) == store.stats.stores == cold_stats.basis_builds
        assert warm[0].rom_stats.basis_rebuilds == cold_stats.basis_rebuilds

    def test_warm_run_reads_no_assembled_systems(self, warm):
        _, store = warm
        assert store.stats.system_hits == store.stats.system_misses == 0
        assert not list(store.path.glob("system-*.npz"))
        assert store.stats.stale == 0

    def test_warm_trace_is_bit_identical(self, cold, warm):
        cold_trace, _ = cold
        warm_trace, _ = warm
        assert warm_trace.n_periods == cold_trace.n_periods
        assert np.array_equal(_peak_grid(warm_trace), _peak_grid(cold_trace))
        assert warm_trace.plant_power_w == cold_trace.plant_power_w
        assert warm_trace.setpoint_c == cold_trace.setpoint_c
        assert warm_trace.coarse_spans == cold_trace.coarse_spans
        assert warm_trace.coarse_periods == cold_trace.coarse_periods

    def test_corrupt_store_degrades_to_cold(
        self, scenario, floorplan, power_model, cold, tmp_path
    ):
        """Truncate every entry: the run must match the cold trace exactly,
        count the stale entries, and rebuild everything it lost."""
        cold_trace, cold_store = cold
        corrupt_dir = tmp_path / "corrupted"
        shutil.copytree(cold_store.path, corrupt_dir)
        entries = sorted(corrupt_dir.glob("*.npz"))
        assert entries
        for entry in entries:
            entry.write_bytes(b"not an npz archive")
        trace, store = _run(scenario, floorplan, power_model, corrupt_dir)
        assert store.stats.stale > 0
        assert trace.rom_stats.basis_builds == cold_trace.rom_stats.basis_builds
        assert np.array_equal(_peak_grid(trace), _peak_grid(cold_trace))
        assert trace.plant_power_w == cold_trace.plant_power_w

    def test_damaged_entries_are_replaced(
        self, scenario, floorplan, power_model, cold, tmp_path
    ):
        """The run that finds every entry truncated rewrites them all, so
        the next run is warm again, bit for bit the cold run."""
        cold_trace, cold_store = cold
        damaged_dir = tmp_path / "damaged"
        shutil.copytree(cold_store.path, damaged_dir)
        entries = sorted(damaged_dir.glob("*.npz"))
        assert entries
        for entry in entries:
            entry.write_bytes(entry.read_bytes()[:64])
        _, repairing = _run(scenario, floorplan, power_model, damaged_dir)
        assert repairing.stats.stale == len(entries)
        assert repairing.stats.stores == len(entries)
        trace, store = _run(scenario, floorplan, power_model, damaged_dir)
        assert store.stats.stale == 0
        assert store.stats.reduced_hits == len(entries)
        assert trace.rom_stats.basis_builds == 0
        assert np.array_equal(_peak_grid(trace), _peak_grid(cold_trace))
        assert trace.plant_power_w == cold_trace.plant_power_w


class TestStoreUnit:
    def _system(self):
        matrix = sparse.csc_matrix(
            np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        )
        rhs = np.array([1.0, 2.0, 3.0])
        return matrix, rhs

    def test_system_round_trip(self, tmp_path):
        store = WarmStore(tmp_path)
        matrix, rhs = self._system()
        key = store.system_key("net", "transient", ("token",), 0.5)
        assert store.store_system(key, matrix, rhs)
        loaded = store.load_system(key)
        assert loaded is not None
        loaded_matrix, loaded_rhs = loaded
        assert (loaded_matrix != matrix).nnz == 0
        assert np.array_equal(loaded_rhs, rhs)
        assert store.stats.system_hits == 1

    def test_first_write_wins(self, tmp_path):
        store = WarmStore(tmp_path)
        matrix, rhs = self._system()
        key = store.system_key("net", "steady", ("token",), None)
        assert store.store_system(key, matrix, rhs)
        assert not store.store_system(key, matrix * 2.0, rhs * 2.0)
        loaded_matrix, loaded_rhs = store.load_system(key)
        assert (loaded_matrix != matrix).nnz == 0
        assert np.array_equal(loaded_rhs, rhs)
        assert store.stats.stores == 1

    def test_missing_entry_is_a_miss_not_stale(self, tmp_path):
        store = WarmStore(tmp_path)
        key = store.system_key("net", "steady", ("token",), None)
        assert store.load_system(key) is None
        assert store.stats.system_misses == 1
        assert store.stats.stale == 0

    def test_wrong_format_version_is_stale(self, tmp_path):
        store = WarmStore(tmp_path)
        matrix, rhs = self._system()
        key = store.system_key("net", "transient", ("token",), 0.25)
        store.store_system(key, matrix, rhs)
        path = store._entry_path("system", key)
        payload = dict(np.load(path))
        payload["format_version"] = np.array(FORMAT_VERSION + 1)
        np.savez(path, **payload)
        assert store.load_system(key) is None
        assert store.stats.stale == 1
        assert not path.exists()

    def test_shape_mismatch_is_stale(self, tmp_path):
        store = WarmStore(tmp_path)
        matrix, rhs = self._system()
        key = store.system_key("net", "transient", ("token",), 0.125)
        store.store_system(key, matrix, np.append(rhs, 4.0))
        assert store.load_system(key) is None
        assert store.stats.stale == 1
        assert not store._entry_path("system", key).exists()
        # The evicted entry no longer blocks a correct one.
        assert store.store_system(key, matrix, rhs)
        assert store.load_system(key) is not None

    def test_incomplete_reduced_entry_is_evicted(self, tmp_path):
        store = WarmStore(tmp_path)
        key = ("net", ("token",), 0.5, ())
        path = store._entry_path("reduced", key)
        store._write_entry(path, {"format_version": np.array(FORMAT_VERSION)})
        assert store.load_reduced(key) is None
        assert store.stats.stale == 1
        assert store.stats.reduced_misses == 1
        assert not path.exists()

    def test_distinct_keys_distinct_entries(self, tmp_path):
        store = WarmStore(tmp_path)
        a = store.system_key("net", "transient", ("token",), 0.5)
        b = store.system_key("net", "transient", ("token",), 0.25)
        c = store.system_key("other", "transient", ("token",), 0.5)
        paths = {store._entry_path("system", key) for key in (a, b, c)}
        assert len(paths) == 3


class TestDefaults:
    def test_no_store_runs_cold(self, scenario, floorplan):
        model = DatacenterModel(
            scenario.racks,
            floorplan=floorplan,
            thermal_simulator=ThermalSimulator(
                floorplan, cell_size_mm=CELL_SIZE_MM
            ),
            control_period_s=CONTROL_PERIOD_S,
        )
        assert model.warm_store is None
        assert model.thermal_simulator.solver_cache.warm_store is None
