"""Factorization-cache tests.

The load-bearing guarantees: cached solves match the cache-less SuperLU
golden of ``tests/reference_kernel.py`` to 1e-9 degC (steady-state and
transient, including a cooling-boundary change mid-run), the cache is
invalidated by content — not identity — of the boundary, it stays bounded
under boundary sweeps, and reusing the factorization actually makes
repeated transient stepping faster.
"""

import time

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.floorplan.grid_mapper import GridMapper
from repro.thermal.boundary import BottomBoundary, CoolingBoundary, uniform_cooling_boundary
from repro.thermal.grid import ThermalGrid
from repro.thermal.layers import standard_thermosyphon_stack
from repro.thermal.network import ThermalNetwork
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import FactorizationCache

from reference_kernel import golden_steady, golden_transient_step


@pytest.fixture(scope="module")
def setup(floorplan):
    stack = standard_thermosyphon_stack()
    outline = floorplan.spreader_outline
    n = 13
    grid = ThermalGrid(outline, stack, n, n)
    mapper = GridMapper(floorplan, outline, n, n)
    network = ThermalNetwork(grid, mapper.die_mask(), BottomBoundary())
    return grid, mapper, network


def _boundary(grid, htc=1.5e4, fluid=40.0):
    return uniform_cooling_boundary(grid.n_rows, grid.n_columns, htc, fluid)


def _steady(cache, power, boundary):
    """One map's equilibrium field: a one-row stack through the steady body."""
    return cache._steady_fields(power[np.newaxis], boundary)[0]


def _march(cache, powers, boundaries, dt_s):
    """Backward-Euler fields from 45 degC, stepped as one-row stacks."""
    state = np.full((1, cache.network.grid.n_cells), 45.0)
    fields = []
    for power, boundary in zip(powers, boundaries):
        state = cache._step_fields(state, power[np.newaxis], boundary, dt_s)
        fields.append(state[0])
    return fields


def _golden_run(network, powers, boundaries, dt_s):
    """Backward-Euler fields from 45 degC, one SuperLU factorization a step."""
    state = np.full(network.grid.n_cells, 45.0)
    fields = []
    for power, boundary in zip(powers, boundaries):
        state = golden_transient_step(network, state, power, boundary, dt_s)
        fields.append(state)
    return fields


class TestCacheToken:
    def test_equal_content_shares_token(self, setup):
        grid, _, _ = setup
        a = _boundary(grid)
        b = _boundary(grid)
        assert a is not b
        assert a.cache_token() == b.cache_token()

    def test_any_cell_change_changes_token(self, setup):
        grid, _, _ = setup
        a = _boundary(grid)
        htc = a.htc_w_m2k.copy()
        htc[3, 7] += 1.0
        b = CoolingBoundary(htc_w_m2k=htc, fluid_temperature_c=a.fluid_temperature_c.copy())
        assert a.cache_token() != b.cache_token()

    def test_fluid_change_changes_token(self, setup):
        grid, _, _ = setup
        assert _boundary(grid, fluid=40.0).cache_token() != _boundary(grid, fluid=41.0).cache_token()


class TestSteadyEquivalence:
    def test_cached_matches_uncached_to_1e9(self, setup):
        grid, mapper, network = setup
        cache = FactorizationCache(network)
        boundary = _boundary(grid)
        for powers in ({"core0": 8.0}, {f"core{i}": 6.0 for i in range(8)}, {"llc": 3.0}):
            power = mapper.power_map(powers)
            golden = golden_steady(network, power, boundary)
            assert np.max(np.abs(_steady(cache, power, boundary) - golden)) < 1e-9

    def test_repeated_solves_hit_the_cache(self, setup):
        grid, mapper, network = setup
        cache = FactorizationCache(network)
        boundary = _boundary(grid)
        for i in range(4):
            _steady(cache, mapper.power_map({"core0": float(i + 1)}), boundary)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 3

    def test_boundary_change_invalidates_by_content(self, setup):
        grid, mapper, network = setup
        cache = FactorizationCache(network)
        power = mapper.power_map({f"core{i}": 6.0 for i in range(8)})

        warm = _boundary(grid, fluid=40.0)
        _steady(cache, power, warm)
        cold = _boundary(grid, fluid=30.0)
        result = _steady(cache, power, cold)
        assert cache.stats.steady_entries == 2
        assert np.max(np.abs(result - golden_steady(network, power, cold))) < 1e-9


class TestTransientEquivalence:
    def test_cached_run_matches_uncached_to_1e9(self, setup):
        grid, mapper, network = setup
        cache = FactorizationCache(network)
        boundary = _boundary(grid)
        powers = [mapper.power_map({"core0": 2.0 * (i + 1)}) for i in range(6)]
        boundaries = [boundary] * len(powers)
        for a, b in zip(
            _march(cache, powers, boundaries, dt_s=0.5),
            _golden_run(network, powers, boundaries, dt_s=0.5),
        ):
            assert np.max(np.abs(a - b)) < 1e-9

    def test_cooling_change_mid_run_matches_uncached(self, setup):
        """A boundary swap halfway through must re-key the cached operator."""
        grid, mapper, network = setup
        cache = FactorizationCache(network)
        powers = [mapper.power_map({f"core{i}": 5.0 for i in range(8)})] * 6
        boundaries = [_boundary(grid, htc=1.0e4)] * 3 + [_boundary(grid, htc=2.5e4)] * 3
        cached_fields = _march(cache, powers, boundaries, dt_s=0.5)
        golden_fields = _golden_run(network, powers, boundaries, dt_s=0.5)
        assert len(cached_fields) == len(golden_fields) == 6
        for a, b in zip(cached_fields, golden_fields):
            assert np.max(np.abs(a - b)) < 1e-9
        # Two distinct boundaries at one dt: exactly two factorizations.
        assert cache.stats.transient_entries == 2
        assert cache.stats.misses == 2
        assert cache.stats.hits == 4

    def test_dt_is_part_of_the_key(self, setup):
        grid, mapper, network = setup
        cache = FactorizationCache(network)
        boundary = _boundary(grid)
        state = np.full((1, grid.n_cells), 45.0)
        power = mapper.power_map({"core0": 8.0})[np.newaxis]
        cache._step_fields(state, power, boundary, dt_s=0.5)
        cache._step_fields(state, power, boundary, dt_s=1.0)
        assert cache.stats.transient_entries == 2


class TestCacheManagement:
    def test_lru_bound(self, setup):
        grid, mapper, network = setup
        cache = FactorizationCache(network, max_entries=3)
        power = mapper.power_map({"core0": 5.0})
        for fluid in (30.0, 32.0, 34.0, 36.0, 38.0):
            _steady(cache, power, _boundary(grid, fluid=fluid))
        assert cache.stats.steady_entries == 3

    def test_explicit_invalidate_clears_entries(self, setup):
        grid, mapper, network = setup
        cache = FactorizationCache(network)
        boundary = _boundary(grid)
        power = mapper.power_map({"core0": 5.0})
        _steady(cache, power, boundary)
        cache._step_fields(
            np.full((1, grid.n_cells), 45.0), power[np.newaxis], boundary, dt_s=0.5
        )
        assert len(cache) == 2
        cache.invalidate()
        assert len(cache) == 0
        # Solves still work after invalidation (operators are rebuilt).
        _steady(cache, power, boundary)
        assert cache.stats.steady_entries == 1

    def test_max_entries_validated(self, setup):
        _, _, network = setup
        with pytest.raises(ValidationError):
            FactorizationCache(network, max_entries=0)

    def test_transient_eviction_drops_reduced_lane_too(self, setup):
        """Regression: evicting a transient factor under LRU pressure must take
        the same key's reduced-order operator with it — an orphaned basis
        would pin memory for a (boundary, dt) the cache already dropped,
        and could later be served against a freshly rebuilt factor."""
        grid, _, network = setup
        cache = FactorizationCache(network, max_entries=2)
        boundaries = [_boundary(grid, fluid=fluid) for fluid in (30.0, 32.0, 34.0)]
        operators = [object(), object(), object()]
        dt_s = 0.5
        for boundary, operator in zip(boundaries[:2], operators[:2]):
            cache.transient_operator(boundary, dt_s)
            cache.store_reduced_operator(boundary, dt_s, operator)
        assert cache.reduced_entries == 2
        # The third transient evicts the first (LRU): its reduced twin goes.
        cache.transient_operator(boundaries[2], dt_s)
        cache.store_reduced_operator(boundaries[2], dt_s, operators[2])
        assert cache.reduced_operator(boundaries[0], dt_s) is None
        assert cache.reduced_operator(boundaries[1], dt_s) is operators[1]
        assert cache.reduced_operator(boundaries[2], dt_s) is operators[2]
        assert cache.reduced_entries == 2

    def test_shared_cache_between_solvers(self, floorplan):
        """A simulator's steady solves and transient steps share one cache."""
        simulator = ThermalSimulator(floorplan, cell_size_mm=2.0)
        boundary = _boundary(simulator.grid)
        maps = simulator.power_map({"core0": 5.0})[np.newaxis]
        fields = simulator.steady_state_many_from_maps(maps, boundary)
        simulator.transient_step_many_from_maps(fields, maps, boundary, 0.5)
        stats = simulator.solver_cache.stats
        assert (stats.steady_entries, stats.transient_entries) == (1, 1)
        assert (stats.misses, stats.hits) == (2, 0)

    def test_boundary_arrays_are_frozen(self, setup):
        grid, _, _ = setup
        boundary = _boundary(grid)
        with pytest.raises(ValueError):
            boundary.htc_w_m2k[0, 0] = 1.0
        with pytest.raises(ValueError):
            boundary.fluid_temperature_c[0, 0] = 1.0


class TestSpeedup:
    def test_cached_run_factorizes_once_not_per_step(self, setup):
        """Deterministic form of the speedup claim: 30 steps, 1 factorization."""
        grid, mapper, network = setup
        cache = FactorizationCache(network)
        powers = [mapper.power_map({f"core{i}": 5.0 for i in range(8)})] * 30
        _march(cache, powers, [_boundary(grid)] * len(powers), dt_s=0.5)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 29

    def test_factorization_reuse_speeds_up_transient_stepping(self, setup):
        """>= 2x on repeated transient steps at one boundary.

        The slow side is the same step with the cache invalidated before
        every step, so each step pays one factorization.  The true margin
        is ~20x; the retry loop absorbs scheduling noise on loaded CI
        runners so a single hiccup cannot fail the tier-1 suite.
        """
        grid, mapper, network = setup
        boundary = _boundary(grid)
        powers = [mapper.power_map({f"core{i}": 5.0 for i in range(8)})[np.newaxis]] * 30
        cache = FactorizationCache(network)

        def run(refactor_every_step):
            state = np.full((1, grid.n_cells), 45.0)
            start = time.perf_counter()
            for power in powers:
                if refactor_every_step:
                    cache.invalidate()
                state = cache._step_fields(state, power, boundary, 0.5)
            return time.perf_counter() - start, state

        run(False)  # warm the factorization outside the timed window
        timings = []
        for _ in range(3):
            refactored_s, refactored = run(True)
            cached_s, cached = run(False)
            assert np.array_equal(cached, refactored)
            timings.append((cached_s, refactored_s))
            if cached_s < refactored_s / 2.0:
                break
        else:
            pytest.fail(f"no attempt reached 2x: {timings}")
