"""Workload profiler tests (the P and Q vectors of Algorithm 1)."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.power.cstates import CState
from repro.workloads.configuration import Configuration, baseline_configuration, default_configuration_space
from repro.workloads.profiler import WorkloadProfiler
from repro.workloads.qos import QoSConstraint


class TestProfileRecords:
    def test_profile_covers_configuration_space(self, profiler, x264):
        space = default_configuration_space()
        records = profiler.profile(x264, space)
        assert len(records) == len(space)
        assert [record.configuration for record in records] == list(space)

    def test_baseline_has_normalized_time_one(self, profiler, x264):
        record = profiler.profile_configuration(x264, baseline_configuration())
        assert record.normalized_time == pytest.approx(1.0)
        assert record.qos_value == pytest.approx(1.0)

    def test_energy_is_power_times_time(self, profiler, x264):
        record = profiler.profile_configuration(x264, Configuration(4, 2, 2.9))
        assert record.energy_j == pytest.approx(record.package_power_w * record.execution_time_s)

    def test_power_increases_with_frequency(self, profiler, x264):
        low = profiler.profile_configuration(x264, Configuration(8, 2, 2.6))
        high = profiler.profile_configuration(x264, Configuration(8, 2, 3.2))
        assert high.package_power_w > low.package_power_w

    def test_idle_cstate_affects_profiled_power(self, power_model, x264):
        poll_profiler = WorkloadProfiler(power_model, idle_cstate=CState.POLL)
        c1e_profiler = WorkloadProfiler(power_model, idle_cstate=CState.C1E)
        configuration = Configuration(2, 2, 3.2)
        assert (
            poll_profiler.profile_configuration(x264, configuration).package_power_w
            > c1e_profiler.profile_configuration(x264, configuration).package_power_w
        )


class TestProfileOnce:
    def test_records_are_computed_once_per_profiler(self, power_model, x264):
        profiler = WorkloadProfiler(power_model)
        configuration = Configuration(4, 2, 2.9)
        first = profiler.profile_configuration(x264, configuration)
        assert profiler.profile_configuration(x264, configuration) is first
        assert profiler.profile(x264, (configuration,))[0] is first

    def test_stored_subset_matches_fresh_profiles_in_order(self, power_model, x264):
        profiler = WorkloadProfiler(power_model)
        space = default_configuration_space()
        profiler.profile(x264, space)
        subset = space[::-5]
        records = profiler.profile(x264, subset)
        assert [record.configuration for record in records] == list(subset)
        assert records == tuple(
            WorkloadProfiler(power_model).profile_configuration(x264, configuration)
            for configuration in subset
        )

    def test_racing_threads_all_get_the_first_stored_record(self, power_model, x264):
        profiler = WorkloadProfiler(power_model)
        space = default_configuration_space()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                futures = [
                    executor.submit(profiler.profile, x264, space) for _ in range(8)
                ]
                results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        results.append(profiler.profile(x264, space))
        for records in results[1:]:
            assert all(a is b for a, b in zip(records, results[0]))


class TestSortingAndFiltering:
    def test_sorted_by_power_is_ascending(self, profiler, x264):
        records = profiler.profile(x264)
        ordered = WorkloadProfiler.sorted_by_power(records)
        powers = [record.package_power_w for record in ordered]
        assert powers == sorted(powers)

    def test_feasible_filter_matches_constraint(self, profiler, x264):
        records = profiler.profile(x264)
        constraint = QoSConstraint(2.0)
        feasible = WorkloadProfiler.feasible(records, constraint)
        assert feasible
        assert all(record.satisfies(constraint) for record in feasible)
        infeasible = set(records) - set(feasible)
        assert all(not record.satisfies(constraint) for record in infeasible)

    def test_satisfies_uses_execution_time(self, profiler, canneal):
        record = profiler.profile_configuration(canneal, Configuration(1, 1, 2.6))
        assert record.normalized_time > 1.0
        assert not record.satisfies(QoSConstraint(1.0))
