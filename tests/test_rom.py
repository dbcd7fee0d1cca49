"""Reduced-order thermal lane unit tests.

The load-bearing guarantees of :mod:`repro.thermal.rom`:

* the Krylov basis is orthonormal and the affine step factorization
  (``step_matrix`` / ``affine_term``) reproduces :meth:`ReducedOperator.step`
  exactly;
* a reduced march tracks the full backward-Euler solver to within the
  a-posteriori bound — and the bound itself is a rigorous upper bound on
  the single-step lift error (the M-matrix contraction argument);
* the case-cell readout agrees with lifting the whole field;
* :class:`FactorizationCache` stores reduced operators beside the
  Cholesky factors (bounded, content-keyed, cleared by ``invalidate``)
  without perturbing the factorization hit/miss statistics;
* a rebuild seeded with ``previous_basis`` still spans the stale basis,
  so recurring boundaries stop churning.
"""

import numpy as np
import pytest

from repro.floorplan.grid_mapper import GridMapper
from repro.thermal.boundary import BottomBoundary, uniform_cooling_boundary
from repro.thermal.grid import ThermalGrid
from repro.thermal.layers import standard_thermosyphon_stack
from repro.thermal.network import ThermalNetwork
from repro.thermal.rom import (
    RomConfig,
    RomStats,
    build_reduced_operator,
)
from repro.thermal.solver_cache import FactorizationCache

DT_S = 0.5
CASE_CELL = 0


@pytest.fixture(scope="module")
def setup(floorplan):
    stack = standard_thermosyphon_stack()
    outline = floorplan.spreader_outline
    n = 13
    grid = ThermalGrid(outline, stack, n, n)
    mapper = GridMapper(floorplan, outline, n, n)
    network = ThermalNetwork(grid, mapper.die_mask(), BottomBoundary())
    cache = FactorizationCache(network)
    boundary = uniform_cooling_boundary(grid.n_rows, grid.n_columns, 1.5e4, 40.0)
    power_maps = np.stack(
        [
            mapper.power_map({"core0": 8.0, "llc": 3.0}),
            mapper.power_map({f"core{i}": 5.0 for i in range(8)}),
        ]
    )
    seed_fields = np.full((2, grid.n_cells), 45.0)
    seed_fields[1] += 2.0
    return grid, mapper, network, cache, boundary, power_maps, seed_fields


def _build(setup, config=None, **kwargs):
    _, _, network, cache, boundary, power_maps, seed_fields = setup
    power_vectors = network.power_vectors(power_maps)
    return build_reduced_operator(
        network,
        cache,
        boundary,
        DT_S,
        seed_fields,
        power_vectors,
        CASE_CELL,
        config if config is not None else RomConfig(),
        **kwargs,
    )


class TestBasis:
    def test_basis_is_orthonormal(self, setup):
        op = _build(setup)
        gram = op.basis.T @ op.basis
        assert np.max(np.abs(gram - np.eye(op.order))) < 1e-10

    def test_order_capped_by_max_basis(self, setup):
        op = _build(setup, config=RomConfig(max_basis=3))
        assert op.order <= 3

    def test_seed_fields_project_exactly(self, setup):
        *_, seed_fields = setup
        op = _build(setup)
        _, entry_error = op.project(seed_fields)
        assert np.max(entry_error) < 1e-8

    def test_rebuild_with_previous_basis_spans_it(self, setup):
        stale = _build(setup, config=RomConfig(max_basis=4, krylov_iterations=0))
        rebuilt = _build(setup, previous_basis=stale.basis)
        projected = rebuilt.basis @ (rebuilt.basis.T @ stale.basis)
        assert np.max(np.abs(projected - stale.basis)) < 1e-8


class TestStepping:
    def test_affine_factorization_matches_step(self, setup):
        _, _, network, *_ , power_maps, seed_fields = setup
        op = _build(setup)
        power_vectors = network.power_vectors(power_maps)
        reduced_rhs = op.reduce_rhs(power_vectors)
        coords, _ = op.project(seed_fields)
        affine = op.affine_term(reduced_rhs)
        assert np.max(
            np.abs((op.step_matrix @ coords + affine) - op.step(coords, reduced_rhs))
        ) < 1e-10

    def test_case_readout_matches_lift(self, setup):
        *_, seed_fields = setup
        op = _build(setup)
        coords, _ = op.project(seed_fields)
        assert np.max(
            np.abs(op.case_temperatures(coords) - op.lift(coords)[:, CASE_CELL])
        ) < 1e-12

    def test_march_tracks_full_solver_within_bound(self, setup):
        _, _, network, cache, boundary, power_maps, seed_fields = setup
        op = _build(setup)
        power_vectors = network.power_vectors(power_maps)
        full_rhs = op.boundary_rhs[np.newaxis, :] + power_vectors
        reduced_rhs = op.reduce_rhs(power_vectors)
        coords, entry_error = op.project(seed_fields)
        full = seed_fields.copy()
        error = entry_error.copy()
        for _ in range(20):
            new_coords = op.step(coords, reduced_rhs)
            error += op.step_error_bound(new_coords, coords, full_rhs)
            coords = new_coords
            full = cache._step_fields(full, power_maps, boundary, DT_S)
        actual = np.max(np.abs(op.lift(coords) - full), axis=1)
        assert np.all(actual <= error + 1e-9)
        # The basis was seeded with these trajectories, so the actual error
        # stays far inside the 0.1 C golden criterion of the coarse lane.
        assert np.max(actual) < 5e-3

    def test_step_error_bound_is_rigorous_per_step(self, setup):
        _, _, network, cache, boundary, power_maps, seed_fields = setup
        # A deliberately poor basis, so the bound has something to bound.
        op = _build(setup, config=RomConfig(max_basis=2, krylov_iterations=0))
        power_vectors = network.power_vectors(power_maps)
        full_rhs = op.boundary_rhs[np.newaxis, :] + power_vectors
        reduced_rhs = op.reduce_rhs(power_vectors)
        coords, _ = op.project(seed_fields)
        new_coords = op.step(coords, reduced_rhs)
        bound = op.step_error_bound(new_coords, coords, full_rhs)
        # Exact full-space step FROM the lifted previous iterate: the
        # difference to the lifted new iterate is exactly K^-1 r, which the
        # capacitance-weighted bound must dominate.
        exact = cache._step_fields(op.lift(coords), power_maps, boundary, DT_S)
        actual = np.max(np.abs(op.lift(new_coords) - exact), axis=1)
        assert np.all(actual <= bound + 1e-9)
        assert np.all(bound > 0.0)


class TestSteadyStateBound:
    def test_vanishes_when_the_basis_holds_the_steady_target(self, setup):
        _, _, network, _, _, power_maps, _ = setup
        op = _build(setup)
        assert np.all(op.steady_state_bound(network.power_vectors(power_maps)) < 1e-9)

    def test_charges_a_steady_target_outside_the_basis(self, setup):
        _, mapper, network, *_ = setup
        op = _build(setup)
        drifted = network.power_vectors(
            np.stack([mapper.power_map({"core5": 9.0, "llc": 1.0})])
        )
        assert op.steady_state_bound(drifted)[0] > 1e-3

    def test_is_the_step_bound_where_the_reduced_march_settles(self, setup):
        _, mapper, network, *_, seed_fields = setup
        op = _build(setup)
        power_vectors = network.power_vectors(
            np.stack([mapper.power_map({"core5": 9.0, "llc": 1.0})] * 2)
        )
        full_rhs = op.boundary_rhs[np.newaxis, :] + power_vectors
        affine = op.affine_term(op.reduce_rhs(power_vectors))
        coords, _ = op.project(seed_fields)
        for _ in range(4000):
            previous, coords = coords, op.step_matrix @ coords + affine
        np.testing.assert_allclose(
            op.step_error_bound(coords, previous, full_rhs),
            op.steady_state_bound(power_vectors),
            rtol=1e-6,
        )
        # The same fixed point from the Galerkin form V^T A V y* = V^T b.
        fixed_point = np.linalg.solve(
            op.basis.T @ op.conductance_basis, op.reduce_rhs(power_vectors)
        )
        np.testing.assert_allclose(coords, fixed_point, rtol=1e-8)


class TestCacheIntegration:
    def test_store_and_retrieve(self, setup):
        _, _, network, _, boundary, *_ = setup
        cache = FactorizationCache(network)
        assert cache.reduced_operator(boundary, DT_S) is None
        op = _build((None, None, network, cache, *setup[4:]))
        cache.store_reduced_operator(boundary, DT_S, op)
        assert cache.reduced_operator(boundary, DT_S) is op
        assert cache.reduced_operator(boundary, DT_S * 2.0) is None
        assert cache.reduced_entries == 1

    def test_reduced_lookups_do_not_count_as_cache_stats(self, setup):
        _, _, network, _, boundary, *_ = setup
        cache = FactorizationCache(network)
        before = cache.stats
        cache.reduced_operator(boundary, DT_S)
        after = cache.stats
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_lru_bounded_and_invalidated(self, setup):
        grid, _, network, *_ = setup
        cache = FactorizationCache(network, max_entries=2)
        op = _build((None, None, network, cache, *setup[4:]))
        for fluid in (30.0, 31.0, 32.0):
            boundary = uniform_cooling_boundary(
                grid.n_rows, grid.n_columns, 1.5e4, fluid
            )
            cache.store_reduced_operator(boundary, DT_S, op)
        assert cache.reduced_entries == 2
        cache.invalidate()
        assert cache.reduced_entries == 0


class TestConfigAndStats:
    def test_config_validation(self):
        with pytest.raises(Exception):
            RomConfig(max_basis=0)
        with pytest.raises(Exception):
            RomConfig(krylov_iterations=-1)
        with pytest.raises(Exception):
            RomConfig(step_error_tol_c=0.0)

    def test_stats_copy_delta_and_fallbacks(self):
        stats = RomStats(basis_builds=2, fallback_error=1, fallback_guard=2)
        snap = stats.copy()
        stats.basis_builds += 3
        stats.fallback_projection += 4
        delta = stats.delta(snap)
        assert delta.basis_builds == 3
        assert delta.fallback_projection == 4
        assert delta.fallback_error == 0
        assert stats.fallbacks == 1 + 2 + 4
        assert snap.fallbacks == 3

    def test_basis_rebuilds_total_both_causes(self):
        stats = RomStats(rebuild_projection=2, rebuild_steady_state=3)
        assert stats.basis_rebuilds == 5
        assert "basis_rebuilds" not in RomStats.FIELDS
