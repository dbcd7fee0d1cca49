"""Contract tests of the banded Cholesky kernel behind the factorization cache.

* Tier A against the assemble-and-scatter golden
  (``tests/reference_kernel.py``): factoring from the recorded bulk band
  reproduces the factor of the assembled operator and its boundary RHS
  bit for bit, steady and at both MPC substeps, on every grid below, and
  again after :meth:`FactorizationCache.invalidate` picks up a new bulk.
* Tier B (<= 1e-9 degC) against the COLAMD SuperLU golden
  (``tests/reference_kernel.py``) for steady operators and for the
  backward-Euler operators at the MPC floor's two substeps, on the 2.0,
  1.5 and 1.0 mm grids and on non-square grids of both orientations.
* Tier A for multi-column solves: an ``(n, k)`` solve returns columns
  bit-identical to ``k`` single-column solves and leaves its input alone,
  which the floor engine's cross-rack stacking relies on.
* The factor does not depend on the BLAS thread count.
* A steady operator that no boundary ties to a temperature raises
  :class:`ConvergenceError`, single or stacked, instead of returning
  nonsense.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from reference_kernel import TIER_B_C, golden_factor, golden_solve
from repro.exceptions import ConvergenceError
from repro.floorplan.grid_mapper import GridMapper
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.thermal.boundary import BottomBoundary, CoolingBoundary, uniform_cooling_boundary
from repro.thermal.grid import ThermalGrid
from repro.thermal.layers import standard_thermosyphon_stack
from repro.thermal.network import ThermalNetwork
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import BandOrdering, FactorizationCache

CELL_SIZES_MM = (2.0, 1.5, 1.0)
#: Substeps of the MPC floor's transient lane.
DT_S = (0.5, 2.0)
CORE_POWER = {f"core{i}": 6.0 + i for i in range(8)}


def _boundary(n_rows: int, n_columns: int, seed: int = 0) -> CoolingBoundary:
    """A non-uniform boundary with a dry (zero-HTC) first row."""
    rng = np.random.default_rng(seed)
    htc = rng.uniform(5.0e3, 3.0e4, (n_rows, n_columns))
    htc[0] = 0.0
    fluid = rng.uniform(30.0, 45.0, (n_rows, n_columns))
    return CoolingBoundary(htc_w_m2k=htc, fluid_temperature_c=fluid)


def _network(floorplan, n_rows: int, n_columns: int) -> ThermalNetwork:
    outline = floorplan.spreader_outline
    grid = ThermalGrid(outline, standard_thermosyphon_stack(), n_rows, n_columns)
    mapper = GridMapper(floorplan, outline, n_rows, n_columns)
    return ThermalNetwork(grid, mapper.die_mask(), BottomBoundary())


def _power_vector(floorplan, network: ThermalNetwork) -> np.ndarray:
    grid = network.grid
    mapper = GridMapper(floorplan, grid.outline, grid.n_rows, grid.n_columns)
    return network.power_vector(mapper.power_map(CORE_POWER))


def _assert_tier_b_against_golden(floorplan, network: ThermalNetwork) -> None:
    grid = network.grid
    cache = FactorizationCache(network)
    cooling = _boundary(grid.n_rows, grid.n_columns)
    power = _power_vector(floorplan, network)
    matrix, boundary_rhs = network.conductance_system(cooling)

    steady = cache.steady_operator(cooling)
    rhs = steady.boundary_rhs + power
    field = steady.solve(rhs)
    assert np.max(np.abs(field - golden_solve(matrix, rhs))) <= TIER_B_C

    start = np.random.default_rng(1).uniform(40.0, 70.0, grid.n_cells)
    for dt_s in DT_S:
        transient = cache.transient_operator(cooling, dt_s)
        rhs = boundary_rhs + power + transient.capacitance_over_dt * start
        system = matrix + sparse.diags(network.capacitance / dt_s)
        stepped = transient.solve(rhs)
        assert np.max(np.abs(stepped - golden_solve(system, rhs))) <= TIER_B_C


@pytest.fixture(scope="module", params=CELL_SIZES_MM, ids=lambda mm: f"{mm}mm")
def simulator(request, floorplan):
    return ThermalSimulator(floorplan, cell_size_mm=request.param)


class TestBandOrdering:
    def test_half_bandwidth_is_narrow_axis_times_layers(self, simulator):
        grid = simulator.grid
        ordering = BandOrdering(grid)
        assert ordering.bandwidth == min(grid.n_rows, grid.n_columns) * grid.n_layers

    @pytest.mark.parametrize("shape", [(9, 14), (14, 9)], ids=["wide", "tall"])
    def test_renumbered_operator_fills_its_band_exactly(self, floorplan, shape):
        network = _network(floorplan, *shape)
        ordering = BandOrdering(network.grid)
        assert ordering.bandwidth == min(shape) * network.grid.n_layers
        matrix, _ = network.conductance_system(_boundary(*shape))
        renumbered = matrix.tocsr()[ordering.perm][:, ordering.perm].tocoo()
        assert np.max(np.abs(renumbered.row - renumbered.col)) == ordering.bandwidth
        assert np.array_equal(ordering.perm[ordering.inverse], np.arange(matrix.shape[0]))


def _assert_tier_a_against_golden(cache: FactorizationCache, cooling) -> None:
    network = cache.network
    steady = cache.steady_operator(cooling)
    factor, boundary_rhs = golden_factor(network, cooling)
    assert np.array_equal(steady.solve.factor, factor)
    assert np.array_equal(steady.boundary_rhs, boundary_rhs)
    for dt_s in DT_S:
        transient = cache.transient_operator(cooling, dt_s)
        factor, boundary_rhs = golden_factor(network, cooling, dt_s)
        assert np.array_equal(transient.solve.factor, factor)
        assert np.array_equal(transient.boundary_rhs, boundary_rhs)


class TestTierAAgainstAssembledGolden:
    def test_steady_and_transient_factors(self, simulator):
        grid = simulator.grid
        cache = FactorizationCache(simulator.network)
        _assert_tier_a_against_golden(cache, _boundary(grid.n_rows, grid.n_columns))

    @pytest.mark.parametrize("shape", [(9, 14), (14, 9)], ids=["wide", "tall"])
    def test_non_square_grids(self, floorplan, shape):
        cache = FactorizationCache(_network(floorplan, *shape))
        _assert_tier_a_against_golden(cache, _boundary(*shape))

    def test_invalidate_picks_up_a_new_bulk(self, floorplan):
        """Swap the bulk matrix in place: after invalidate() the next factor
        is the golden of the new bulk, not of the recorded old one."""
        shape = (9, 14)
        network = _network(floorplan, *shape)
        other = _network(build_xeon_e5_v4_floorplan(spreader_size_mm=42.0), *shape)
        cache = FactorizationCache(network)
        cooling = _boundary(*shape)
        _assert_tier_a_against_golden(cache, cooling)
        old_factor = cache.steady_operator(cooling).solve.factor
        network._bulk_matrix = other.bulk_matrix
        cache.invalidate()
        assert len(cache) == 0
        _assert_tier_a_against_golden(cache, cooling)
        assert not np.array_equal(cache.steady_operator(cooling).solve.factor, old_factor)


class TestTierBAgainstGolden:
    def test_steady_and_transient_operators(self, floorplan, simulator):
        _assert_tier_b_against_golden(floorplan, simulator.network)

    @pytest.mark.parametrize("shape", [(9, 14), (14, 9)], ids=["wide", "tall"])
    def test_non_square_grids(self, floorplan, shape):
        _assert_tier_b_against_golden(floorplan, _network(floorplan, *shape))


class TestMultiColumnSolve:
    @pytest.mark.parametrize("kind", ["steady", "transient"])
    def test_columns_match_single_solves_bit_for_bit(self, simulator, kind):
        grid = simulator.grid
        cache = FactorizationCache(simulator.network)
        cooling = _boundary(grid.n_rows, grid.n_columns)
        if kind == "steady":
            operator = cache.steady_operator(cooling)
        else:
            operator = cache.transient_operator(cooling, 0.5)
        rhs = np.random.default_rng(2).uniform(0.0, 50.0, (grid.n_cells, 5))
        before = rhs.copy()
        stacked = operator.solve(rhs)
        assert np.array_equal(rhs, before)
        # Callers hand over transposed (Fortran-ordered) stacks as well.
        assert np.array_equal(operator.solve(np.asfortranarray(rhs)), stacked)
        for column in range(rhs.shape[1]):
            single = rhs[:, column].copy()
            assert np.array_equal(operator.solve(single), stacked[:, column])
            assert np.array_equal(single, before[:, column])


def test_threads_sharing_one_cache_match_serial_bit_for_bit(floorplan):
    """Interleaved factorizations and solves on one cache shared across
    threads reproduce the serial fields exactly."""
    simulator = ThermalSimulator(floorplan, cell_size_mm=2.0)
    network = simulator.network
    boundaries = [_boundary(*simulator.shape, seed=seed) for seed in range(4)]
    power = _power_vector(floorplan, network)

    def fields(cache, boundary):
        steady = cache.steady_operator(boundary)
        field = steady.solve(steady.boundary_rhs + power)
        transient = cache.transient_operator(boundary, 0.5)
        rhs = transient.boundary_rhs + power + transient.capacitance_over_dt * field
        return field, transient.solve(rhs)

    serial = [fields(FactorizationCache(network), boundary) for boundary in boundaries]
    shared = FactorizationCache(network)
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [
                pool.submit(fields, shared, boundaries[index % len(boundaries)])
                for index in range(24)
            ]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(previous)
    for index, (field, stepped) in enumerate(results):
        expected_field, expected_stepped = serial[index % len(boundaries)]
        assert np.array_equal(field, expected_field)
        assert np.array_equal(stepped, expected_stepped)
    # One steady and one transient factorization per boundary, no more.
    assert shared.stats.misses == 2 * len(boundaries)


_FACTOR_DIGEST_SCRIPT = """
import hashlib
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.thermal.boundary import uniform_cooling_boundary
from repro.thermal.simulator import ThermalSimulator

simulator = ThermalSimulator(build_xeon_e5_v4_floorplan(), cell_size_mm=1.0)
n_rows, n_columns = simulator.shape
cooling = uniform_cooling_boundary(n_rows, n_columns, 1.5e4, 40.0)
cache = simulator.solver_cache
digest = hashlib.blake2b(digest_size=16)
for operator in (cache.steady_operator(cooling), cache.transient_operator(cooling, 0.5)):
    digest.update(operator.solve.factor.tobytes())
    digest.update(operator.solve(operator.boundary_rhs).tobytes())
print(digest.hexdigest())
"""


def test_factor_is_independent_of_blas_thread_count():
    src = Path(__file__).resolve().parent.parent / "src"
    digests = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(src), os.environ.get("PYTHONPATH")])
            ),
        }
        result = subprocess.run(
            [sys.executable, "-c", _FACTOR_DIGEST_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        digests.append(result.stdout.strip())
    assert len(digests[0]) == 32
    assert digests[0] == digests[1]


class TestUngroundedSteadyOperator:
    """All-zero top HTC plus a zero bottom HTC: the steady operator is singular."""

    @pytest.fixture(scope="class", params=(2.0, 1.5), ids=lambda mm: f"{mm}mm")
    def ungrounded(self, request, floorplan):
        simulator = ThermalSimulator(
            floorplan,
            cell_size_mm=request.param,
            bottom_boundary=BottomBoundary(htc_w_m2k=0.0),
        )
        n_rows, n_columns = simulator.shape
        return simulator, uniform_cooling_boundary(n_rows, n_columns, 0.0, 40.0)

    def test_steady_state_raises(self, ungrounded):
        simulator, cooling = ungrounded
        with pytest.raises(ConvergenceError, match="non-zero heat transfer coefficient"):
            simulator.steady_state(CORE_POWER, cooling)

    def test_steady_state_many_raises(self, ungrounded):
        simulator, cooling = ungrounded
        maps = np.stack([simulator.power_map(CORE_POWER)] * 3)
        with pytest.raises(ConvergenceError, match="non-zero heat transfer coefficient"):
            simulator.steady_state_many_from_maps(maps, cooling)

    def test_transient_step_stays_finite(self, ungrounded):
        """``C/dt > 0`` keeps the backward-Euler operator definite."""
        simulator, cooling = ungrounded
        field = simulator.transient_step_many_from_maps(
            np.full((1, simulator.grid.n_cells), 45.0),
            simulator.power_map(CORE_POWER)[np.newaxis],
            cooling,
            0.5,
        )
        assert np.all(np.isfinite(field))
        assert field.max() > 45.0

    def test_one_grounded_cell_is_enough(self, ungrounded):
        simulator, cooling = ungrounded
        htc = np.zeros(simulator.shape)
        htc[0, 0] = 1.0e4
        grounded = CoolingBoundary(
            htc_w_m2k=htc, fluid_temperature_c=cooling.fluid_temperature_c
        )
        result = simulator.steady_state({"core0": 1.0}, grounded)
        assert np.all(np.isfinite(result.temperatures_c))
