"""Unit tests for the observability layer (``repro.obs``).

The load-bearing guarantees:

* the span ring buffer is bounded — overflow evicts the oldest record
  and counts drops, it never grows or throws;
* span attribution is correct under threads: per-thread nesting stacks
  mean concurrent spans carry their own thread id and depth, both from
  raw threads and from the thread-parallel floor engine;
* exporters round-trip — a JSONL dump parses back and feeds the report
  builder, and the Chrome trace document is schema-valid
  (Perfetto-loadable);
* the legacy stats surfaces behave exactly like the dataclasses they
  were: :class:`CacheStats` and :class:`WarmStoreStats` as *views* over
  telemetry counter bags, :class:`RomStats` as a plain dataclass;
* the solver cache's iterative lane publishes its solves, cap fallbacks
  and PCG steps to the hub, and the report prints them;
* ``config_digest`` encodes values, not ``repr``: the same configuration
  digests the same in two processes, and a changed trace phase changes it.
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro import obs
from repro.exceptions import ValidationError
from repro.obs import (
    NULL_TELEMETRY,
    Counters,
    Histogram,
    Telemetry,
    Tracer,
    build_report,
    config_digest,
    get_telemetry,
    read_jsonl,
    render_report,
    run_manifest,
    set_telemetry,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.report import main as report_main
from repro.thermal.rom import RomStats
from repro.thermal.warm_store import WarmStore, WarmStoreStats


@pytest.fixture()
def hub():
    """A fresh installed hub, restored to the previous hub afterwards."""
    hub = Telemetry()
    previous = set_telemetry(hub)
    try:
        yield hub
    finally:
        set_telemetry(previous)


class TestCounters:
    def test_add_get_snapshot(self):
        counters = Counters()
        counters.add("a")
        counters.add("a", 4)
        counters.add("b", 2)
        assert counters.get("a") == 5
        assert counters.get("missing") == 0
        assert counters.snapshot() == {"a": 5, "b": 2}
        assert len(counters) == 2

    def test_snapshot_is_independent(self):
        counters = Counters()
        counters.add("a")
        snap = counters.snapshot()
        counters.add("a")
        assert snap == {"a": 1}

    def test_concurrent_increments_are_lossless(self):
        counters = Counters()

        def work():
            for _ in range(1000):
                counters.add("n")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counters.get("n") == 8000


class TestHistogram:
    def test_bucket_placement(self):
        histogram = Histogram((1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 50.0, 500.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        # 0.5 and 1.0 land in the first bucket (inclusive upper bound),
        # 500.0 lands in the implicit overflow bucket.
        assert snap["counts"] == [2, 1, 1, 1]
        assert snap["total"] == 5
        assert snap["sum"] == pytest.approx(556.5)

    def test_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((10.0, 1.0))


class TestHub:
    def test_null_hub_is_default_and_inert(self):
        hub = get_telemetry()
        assert hub is NULL_TELEMETRY
        assert not hub.enabled
        hub.inc("x")
        hub.gauge("g", 1.0)
        hub.observe("h", 3.0)
        with hub.span("s", attr=1) as span:
            span.set(more=2)
        assert hub.counters.snapshot() == {}
        assert hub.tracer.started == 0
        assert hub.footer() == ""

    def test_set_telemetry_returns_previous(self, hub):
        assert get_telemetry() is hub
        other = Telemetry()
        assert set_telemetry(other) is hub
        assert set_telemetry(hub) is other

    def test_metric_families(self, hub):
        hub.inc("cache.hits", 3)
        hub.inc("cache.misses")
        hub.gauge("queue.depth", 4.0)
        hub.observe("latency_us", 42.0, bounds=(10.0, 100.0))
        with hub.span("work", kind="test"):
            pass
        assert hub.counters.get("cache.hits") == 3
        assert hub.gauges_snapshot() == {"queue.depth": 4.0}
        assert hub.histograms_snapshot()["latency_us"]["total"] == 1
        assert hub.tracer.started == 1

    def test_footer_mentions_spans_fallbacks_and_hit_rate(self, hub):
        with hub.span("s"):
            pass
        hub.inc("rom.fallback.guard", 2)
        hub.inc("cache.hits", 3)
        hub.inc("cache.misses", 1)
        footer = hub.footer()
        assert "1 spans" in footer
        assert "guard=2" in footer
        assert "75.0%" in footer

    def test_footer_mentions_rebuild_causes(self, hub):
        assert "rom rebuilds" not in hub.footer()
        hub.inc("rom.rebuild.steady_state", 3)
        assert "rom rebuilds projection=0/steady_state=3" in hub.footer()


class TestRingBounding:
    def test_overflow_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(capacity=8)
        for index in range(20):
            with tracer.span("s", {"i": index}):
                pass
        records = tracer.records()
        assert len(records) == 8
        assert tracer.started == 20
        assert tracer.dropped == 12
        # Oldest-first, truncated to the newest `capacity` spans.
        assert [record.attrs["i"] for record in records] == list(range(12, 20))

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestThreadedAttribution:
    def test_threads_keep_independent_nesting_stacks(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def work(label):
            barrier.wait()
            for _ in range(50):
                with tracer.span("outer", {"who": label}):
                    with tracer.span("inner", {"who": label}):
                        pass

        threads = [
            threading.Thread(target=work, args=(index,)) for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        records = tracer.records()
        assert len(records) == 4 * 50 * 2
        for record in records:
            expected_depth = 0 if record.name == "outer" else 1
            assert record.depth == expected_depth, record
        # Each record is attributed to the thread that ran it: within one
        # thread id, inner/outer alternate and counts match exactly.
        by_thread = {}
        for record in records:
            by_thread.setdefault(record.thread_id, []).append(record)
        assert len(by_thread) == 4
        for thread_records in by_thread.values():
            names = [record.name for record in thread_records]
            assert names.count("inner") == names.count("outer") == 50
            whos = {record.attrs["who"] for record in thread_records}
            assert len(whos) == 1

    def test_span_nesting_depth_is_per_thread_not_global(self):
        tracer = Tracer()
        ready = threading.Event()
        release = threading.Event()

        def other():
            ready.set()
            release.wait()
            with tracer.span("other.top", {}):
                pass

        thread = threading.Thread(target=other)
        thread.start()
        ready.wait()
        with tracer.span("main.top", {}):
            release.set()
            thread.join()
        for record in tracer.records():
            assert record.depth == 0


class TestExporters:
    def _populated(self):
        hub = Telemetry()
        hub.inc("cache.hits", 7)
        hub.inc("rom.fallback.guard", 1)
        hub.gauge("pool.workers", 2.0)
        hub.observe("floor.queue_latency_us", 12.0, bounds=(10.0, 100.0))
        with hub.span("floor.advance", n_substeps=4):
            with hub.span("rom.march", group=0):
                pass
        return hub

    def test_jsonl_round_trip(self):
        hub = self._populated()
        buffer = io.StringIO()
        count = write_jsonl(
            hub, buffer, manifest=run_manifest(config={"x": 1}, seed=3)
        )
        buffer.seek(0)
        events = read_jsonl(buffer)
        assert len(events) == count
        types = [event["type"] for event in events]
        assert types[0] == "manifest"
        assert "counter" in types and "gauge" in types
        assert "histogram" in types and "span_summary" in types
        assert types.count("span") == 2
        manifest = events[0]
        assert manifest["seed"] == 3
        assert manifest["config_digest"]
        span_names = {e["name"] for e in events if e["type"] == "span"}
        assert span_names == {"floor.advance", "rom.march"}

    def test_report_builds_from_round_tripped_events(self):
        hub = self._populated()
        buffer = io.StringIO()
        write_jsonl(hub, buffer)
        buffer.seek(0)
        report = build_report(read_jsonl(buffer))
        assert report["counters"]["cache.hits"] == 7
        assert set(report["layers"]) == {"floor", "rom"}
        assert report["rom_fallbacks"] == {"error": 0, "guard": 1, "projection": 0}
        assert report["rom_rebuilds"] == {"projection": 0, "steady_state": 0}
        text = render_report(read_jsonl(io.StringIO(buffer.getvalue())))
        assert "floor" in text and "rom" in text

    def test_chrome_trace_schema(self):
        hub = self._populated()
        buffer = io.StringIO()
        document = write_chrome_trace(hub, buffer)
        # The returned document and the written file agree.
        assert json.loads(buffer.getvalue()) == json.loads(
            json.dumps(document, default=str)
        )
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"
        complete = [event for event in events if event["ph"] == "X"]
        assert len(complete) == 2
        for event in complete:
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "args"}
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        # Nested span starts at or after its parent, within its extent.
        parent = next(e for e in complete if e["name"] == "floor.advance")
        child = next(e for e in complete if e["name"] == "rom.march")
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + 1e-6

    def test_report_cli(self, tmp_path, capsys):
        hub = self._populated()
        path = tmp_path / "run.jsonl"
        write_jsonl(hub, path, manifest=run_manifest(seed=11))
        assert report_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "floor" in out
        assert "seed" in out


class TestStatsViews:
    """The legacy stats dataclasses as views over telemetry counters."""

    def test_cache_stats_view_matches_legacy_dataclass(self, floorplan):
        # Old behaviour: two plain ints on the cache.  New behaviour: a
        # Counters bag rendered through the same frozen CacheStats.  Equal
        # field-for-field after a miss + two hits.
        from repro.floorplan.grid_mapper import GridMapper
        from repro.thermal.boundary import (
            BottomBoundary,
            uniform_cooling_boundary,
        )
        from repro.thermal.grid import ThermalGrid
        from repro.thermal.layers import standard_thermosyphon_stack
        from repro.thermal.network import ThermalNetwork
        from repro.thermal.solver_cache import CacheStats, FactorizationCache

        outline = floorplan.spreader_outline
        grid = ThermalGrid(outline, standard_thermosyphon_stack(), 9, 9)
        mapper = GridMapper(floorplan, outline, 9, 9)
        network = ThermalNetwork(grid, mapper.die_mask(), BottomBoundary())
        cache = FactorizationCache(network)
        boundary = uniform_cooling_boundary(9, 9, 1.5e4, 40.0)
        for _ in range(3):
            cache.steady_operator(boundary)
        assert cache.stats == CacheStats(
            hits=2, misses=1, steady_entries=1, transient_entries=0
        )
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        assert cache.stats + CacheStats.zero() == cache.stats

    def test_rom_stats_view_matches_legacy_dataclass(self):
        stats = RomStats(basis_builds=2, fallback_guard=1)
        assert stats.basis_builds == 2
        assert stats.fallback_guard == 1
        assert stats.spans == 0
        # Legacy mutation styles: augmented assignment and plain set.
        stats.spans += 3
        stats.rom_periods = 12
        assert stats.spans == 3 and stats.rom_periods == 12
        # copy / merge / delta / equality semantics of the old dataclass.
        before = stats.copy()
        stats.merge(RomStats(fallback_error=4, spans=1))
        assert stats.spans == 4 and stats.fallback_error == 4
        delta = stats.delta(before)
        assert delta == RomStats(fallback_error=4, spans=1)
        assert stats.fallbacks == 5
        with pytest.raises(TypeError):
            RomStats(not_a_field=1)

    def test_warm_store_stats_view_matches_legacy_dataclass(self, tmp_path):
        store = WarmStore(tmp_path)
        matrix = sparse.identity(4, format="csc")
        rhs = np.ones(4)
        key = store.system_key("net", "steady", ("b",), None)
        assert store.load_system(key) is None  # miss
        assert store.store_system(key, matrix, rhs)
        assert store.load_system(key) is not None  # hit
        assert store.stats == WarmStoreStats(
            system_hits=1, system_misses=1, stores=1
        )
        assert store.stats.hits == 1
        assert store.stats.misses == 1


class TestInstrumentedEngine:
    def test_threaded_floor_spans_attributed_per_group(
        self, hub, floorplan, power_model
    ):
        # A mixed-SKU floor (two hardware groups) under parallel_groups=2:
        # the pool actually runs, and span attribution must name each group
        # and survive the worker threads.
        from dataclasses import replace

        from repro.datacenter.model import DatacenterModel
        from repro.datacenter.scenarios import build_scenario
        from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
        from repro.thermal.simulator import ThermalSimulator

        skus = (floorplan, build_xeon_e5_v4_floorplan(spreader_size_mm=42.0))
        racks = []
        for index, sku in enumerate(skus):
            scenario = build_scenario(
                "diurnal",
                n_racks=1,
                servers_per_rack=2,
                duration_s=8.0,
                seed=3 + index,
                floorplan=sku,
            )
            racks.append(
                replace(
                    scenario.racks[0],
                    name=f"sku{index}",
                    floorplan=None if index == 0 else sku,
                )
            )
        model = DatacenterModel(
            tuple(racks),
            floorplan=skus[0],
            thermal_simulator=ThermalSimulator(skus[0], cell_size_mm=4.0),
            control_period_s=2.0,
            parallel_groups=2,
        )
        model.run_trace(duration_s=8.0)
        records = hub.tracer.records()
        advance = [r for r in records if r.name == "floor.advance"]
        groups = [r for r in records if r.name == "floor.advance_group"]
        assert advance and groups
        assert {record.attrs["group"] for record in groups} == {0, 1}
        # Group spans ran on pool worker threads, never on the advancing
        # thread; per-thread stacks keep each at depth 0 on its worker.
        advancing_threads = {record.thread_id for record in advance}
        for record in groups:
            assert record.thread_id not in advancing_threads
            assert record.depth == 0
        # The queue-latency histogram saw one observation per group task.
        latency = hub.histograms_snapshot()["floor.queue_latency_us"]
        assert latency["total"] == len(groups)
        assert hub.counters.get("session.periods") == 4


class TestIterativeLaneTelemetry:
    def test_counters_reach_the_hub_and_the_report(self, hub, floorplan):
        from repro.thermal.boundary import CoolingBoundary, uniform_cooling_boundary
        from repro.thermal.simulator import ThermalSimulator

        simulator = ThermalSimulator(floorplan, cell_size_mm=2.5)
        n_rows, n_columns = simulator.shape
        moved = uniform_cooling_boundary(n_rows, n_columns, 2.1e4, 31.0)
        near = uniform_cooling_boundary(n_rows, n_columns, 2.0e4, 30.0)
        # A rough boundary a hundred times stronger: PCG hits the step cap.
        far = CoolingBoundary(
            htc_w_m2k=np.random.default_rng(0).uniform(2.0e5, 2.0e6, simulator.shape),
            fluid_temperature_c=np.full(simulator.shape, 30.0),
        )
        fields = np.full((1, simulator.grid.n_cells), 45.0)
        maps = simulator.power_map({f"core{i}": 8.0 for i in range(8)})[np.newaxis]
        for reference in (near, far):
            simulator.transient_step_many_from_maps(
                fields, maps, moved, 2.0, reference=reference
            )
        assert hub.counters.get("cache.iterative_solves") == 2
        assert hub.counters.get("cache.iterative_fallbacks") == 1
        steps = hub.histograms_snapshot()["cache.iterative_steps"]
        assert steps["total"] == 2
        # A run publishes its factorizations as cache.misses.
        misses = simulator.solver_cache.stats.misses
        hub.inc("cache.misses", misses)
        buffer = io.StringIO()
        write_jsonl(hub, buffer)
        buffer.seek(0)
        text = render_report(read_jsonl(buffer))
        assert f"0.0% hit rate, {misses} factorizations" in text
        assert "iterative lane: 2 solves, 1 cap fallbacks" in text
        assert f"{steps['sum'] / 2:.1f} PCG steps per solve" in text


_DIGEST_SCRIPT = """
from repro.datacenter.scenarios import build_scenario
from repro.obs import config_digest
rack = build_scenario(
    "diurnal", n_racks=1, servers_per_rack=1, duration_s=8.0, seed=7
).racks[0]
print(config_digest(rack))
"""


class TestConfigDigest:
    def _rack(self):
        from repro.datacenter.scenarios import build_scenario

        return build_scenario(
            "diurnal", n_racks=1, servers_per_rack=1, duration_s=8.0, seed=7
        ).racks[0]

    def test_same_config_same_digest_in_two_processes(self):
        # Regression: the digest hashed repr(), and a PhasedTrace's repr
        # carries its memory address, so each process printed another one.
        src = Path(__file__).resolve().parents[1] / "src"
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
            result = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            digests.add(result.stdout.strip())
        assert digests == {config_digest(self._rack())}

    def test_changed_trace_phase_changes_digest(self):
        from repro.workloads.trace import PhasedTrace

        rack = self._rack()
        server = rack.servers[0]
        phases = list(server.trace.phases)

        def with_phases(new_phases):
            trace = PhasedTrace(server.trace.name, tuple(new_phases))
            return dataclasses.replace(
                rack, servers=(dataclasses.replace(server, trace=trace),)
            )

        # A rebuilt trace with equal phases is the same configuration...
        assert config_digest(with_phases(phases)) == config_digest(rack)
        # ...and one changed phase is another.
        phases[0] = dataclasses.replace(
            phases[0], activity_factor=phases[0].activity_factor + 0.1
        )
        assert config_digest(with_phases(phases)) != config_digest(rack)

    def test_unencodable_values_raise(self):
        with pytest.raises(ValidationError):
            config_digest({"callback": lambda: None})
        with pytest.raises(ValidationError):
            config_digest({"lock": threading.Lock()})
        cyclic: list = []
        cyclic.append(cyclic)
        with pytest.raises(ValidationError):
            config_digest(cyclic)
