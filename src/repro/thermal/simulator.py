"""High-level thermal simulator tying floorplan, network and solvers together.

Steady fields come from :meth:`ThermalSimulator.steady_state` (and its
per-cell-map forms); the one transient step is
:meth:`ThermalSimulator.transient_step_many_from_maps`, which the floor
engine (:class:`repro.datacenter.floor.FloorEngine`) marches.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

import numpy as np

from repro.exceptions import ValidationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.grid_mapper import GridMapper
from repro.thermal.boundary import BottomBoundary, CoolingBoundary
from repro.thermal.grid import ThermalGrid
from repro.thermal.layers import LayerStack, standard_thermosyphon_stack
from repro.thermal.metrics import ThermalMetrics, compute_metrics
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver_cache import FactorizationCache
from repro.thermal.steady_state import SteadyStateSolver
from repro.thermal.transient import TransientSolver
from repro.utils.validation import check_positive


def case_cell_row_column(
    floorplan: Floorplan, outline, n_rows: int, n_columns: int
) -> tuple[int, int]:
    """Grid cell holding the ``T_CASE`` measurement point (die centre).

    The single source of the case-temperature cell selection, shared by
    :meth:`ThermalResult.case_temperature_c` and the rack engine's
    within-period peak scan so the two can never diverge.
    """
    centre_x, centre_y = floorplan.die_outline.center
    column = int((centre_x - outline.x) / outline.width * n_columns)
    row = int((centre_y - outline.y) / outline.height * n_rows)
    return min(max(row, 0), n_rows - 1), min(max(column, 0), n_columns - 1)


@dataclass
class ThermalResult:
    """Temperature field of one simulation plus convenience accessors."""

    temperatures_c: np.ndarray  # (n_layers, n_rows, n_columns)
    die_mask: np.ndarray
    cell_pitch_mm: tuple[float, float]
    die_layer_index: int
    spreader_layer_index: int
    floorplan: Floorplan
    grid_mapper: GridMapper

    # ------------------------------------------------------------------ #
    # Maps
    # ------------------------------------------------------------------ #
    def die_map(self) -> np.ndarray:
        """Temperature map of the silicon (junction) layer, full grid."""
        return self.temperatures_c[self.die_layer_index]

    def package_map(self) -> np.ndarray:
        """Temperature map of the heat-spreader (package/case) layer."""
        return self.temperatures_c[self.spreader_layer_index]

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def die_metrics(self) -> ThermalMetrics:
        """Hot spot, average and max gradient over the die area."""
        return compute_metrics(self.die_map(), self.cell_pitch_mm, self.die_mask)

    def package_metrics(self) -> ThermalMetrics:
        """Hot spot, average and max gradient over the package (die shadow)."""
        return compute_metrics(self.package_map(), self.cell_pitch_mm, self.die_mask)

    def case_temperature_c(self) -> float:
        """T_CASE: temperature at the centre of the heat spreader.

        The thermal design constraint of Section VI is
        ``T_CASE <= T_CASE_MAX`` (85 degC), measured at the centre of the
        heat-spreader surface.
        """
        n_rows, n_columns = self.package_map().shape
        row, column = case_cell_row_column(
            self.floorplan, self.grid_mapper.outline, n_rows, n_columns
        )
        return float(self.package_map()[row, column])

    def core_temperature_c(self, core_index: int, *, reduce: str = "max") -> float:
        """Temperature of one core (max or mean over the cells it covers)."""
        core = self.floorplan.core(core_index)
        return self.component_temperature_c(core.name, reduce=reduce)

    def core_temperatures_c(self, *, reduce: str = "max") -> dict[int, float]:
        """Per-core temperatures keyed by logical core index."""
        return {
            core.core_index: self.core_temperature_c(core.core_index, reduce=reduce)
            for core in self.floorplan.cores
        }

    def component_temperature_c(self, name: str, *, reduce: str = "max") -> float:
        """Temperature of a floorplan component (max or mean over its cells)."""
        if reduce not in ("max", "mean"):
            raise ValidationError(f"reduce must be 'max' or 'mean', got {reduce!r}")
        weights = self.grid_mapper.component_mask(name)
        selected = self.die_map()[weights > 0.0]
        if selected.size == 0:
            return float("nan")
        return float(selected.max() if reduce == "max" else selected.mean())


class ThermalSimulator:
    """Steady-state solves and the transient step over a floorplan.

    Parameters
    ----------
    floorplan:
        The die/package floorplan; the grid covers its spreader outline.
    stack:
        Layer stack; defaults to the standard thermosyphon assembly.
    cell_size_mm:
        Target in-plane cell size.  The actual size is the spreader extent
        divided by the nearest integer cell count.
    bottom_boundary:
        Heat path from the package bottom to the server ambient.

    The steady-state and transient solvers share one
    :class:`FactorizationCache` (:attr:`solver_cache`).  Repeated solves at
    an unchanged cooling boundary reuse one factorization; a boundary
    change re-keys the cache automatically.  Call
    :meth:`invalidate_solver_cache` if the network is ever mutated in
    place.
    """

    def __init__(
        self,
        floorplan: Floorplan,
        *,
        stack: LayerStack | None = None,
        cell_size_mm: float = 1.0,
        bottom_boundary: BottomBoundary | None = None,
    ) -> None:
        check_positive(cell_size_mm, "cell_size_mm")
        self.floorplan = floorplan
        self.cell_size_mm = cell_size_mm
        self.stack = stack if stack is not None else standard_thermosyphon_stack()
        outline = floorplan.spreader_outline
        n_columns = max(int(round(outline.width / cell_size_mm)), 4)
        n_rows = max(int(round(outline.height / cell_size_mm)), 4)
        self.grid = ThermalGrid(outline, self.stack, n_rows, n_columns)
        self.grid_mapper = GridMapper(floorplan, outline, n_rows, n_columns)
        self.die_mask = self.grid_mapper.die_mask()
        # Shared by the network and every ThermalResult: a write through
        # one of them raises instead of corrupting the others.
        self.die_mask.setflags(write=False)
        self.network = ThermalNetwork(self.grid, self.die_mask, bottom_boundary)
        self.solver_cache = FactorizationCache(self.network)
        self._steady_solver = SteadyStateSolver(self.network, cache=self.solver_cache)
        self._transient_solver = TransientSolver(
            self.network, cache=self.solver_cache
        )

    def invalidate_solver_cache(self) -> None:
        """Drop cached factorizations."""
        self.solver_cache.invalidate()

    # ------------------------------------------------------------------ #
    # Shapes and helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, int]:
        """In-plane grid shape ``(n_rows, n_columns)``."""
        return self.grid.n_rows, self.grid.n_columns

    def power_map(self, component_power_w: Mapping[str, float]) -> np.ndarray:
        """Rasterise per-component power onto the grid."""
        return self.grid_mapper.power_map(component_power_w)

    def _result(self, flat_temperatures: np.ndarray) -> ThermalResult:
        grid = self.grid
        return ThermalResult(
            temperatures_c=flat_temperatures.reshape(
                grid.n_layers, grid.n_rows, grid.n_columns
            ),
            die_mask=self.die_mask,
            cell_pitch_mm=grid.cell_pitch_mm(),
            die_layer_index=self.stack.heat_source_index,
            spreader_layer_index=self.stack.index_of("heat_spreader"),
            floorplan=self.floorplan,
            grid_mapper=self.grid_mapper,
        )

    # ------------------------------------------------------------------ #
    # Solvers
    # ------------------------------------------------------------------ #
    def steady_state(
        self,
        component_power_w: Mapping[str, float],
        cooling: CoolingBoundary,
    ) -> ThermalResult:
        """Equilibrium temperatures for a component power dictionary."""
        power_map = self.power_map(component_power_w)
        flat = self._steady_solver.solve(power_map, cooling)
        return self._result(flat)

    def steady_state_from_map(
        self,
        power_map_w: np.ndarray,
        cooling: CoolingBoundary,
        *,
        reference: CoolingBoundary | None = None,
    ) -> ThermalResult:
        """Equilibrium temperatures for an explicit per-cell power map.

        A ``reference`` boundary routes the solve through the solver
        cache's iterative lane (see :meth:`SteadyStateSolver.solve`).
        """
        flat = self._steady_solver.solve(
            np.asarray(power_map_w, dtype=float), cooling, reference=reference
        )
        return self._result(flat)

    def steady_state_many_from_maps(
        self, power_maps_w: np.ndarray, cooling: CoolingBoundary
    ) -> np.ndarray:
        """Equilibrium fields for many power maps at one shared boundary.

        ``power_maps_w`` has shape ``(k, n_rows, n_columns)``; returns the
        flat fields as ``(k, n_cells)``, each row identical to the
        corresponding :meth:`steady_state_from_map` solve.  One cached
        factorization serves all ``k`` maps (multi-column back-substitution);
        wrap rows with :meth:`result_from_vector` as needed.
        """
        return self._steady_solver.solve_many(
            np.asarray(power_maps_w, dtype=float), cooling
        )

    def transient_step_many_from_maps(
        self,
        temperatures: np.ndarray,
        power_maps_w: np.ndarray,
        cooling: CoolingBoundary,
        dt_s: float,
        *,
        reference: CoolingBoundary | None = None,
    ) -> np.ndarray:
        """One backward-Euler step for many fields at one shared boundary.

        ``temperatures`` is ``(k, n_cells)``, ``power_maps_w`` is
        ``(k, n_rows, n_columns)``, and all ``k`` fields advance through one
        cached operator in a single multi-column back-substitution.  A
        ``reference`` boundary routes the step through the solver cache's
        iterative lane instead (see :meth:`TransientSolver.step_many`).
        """
        return self._transient_solver.step_many(
            np.asarray(temperatures, dtype=float),
            np.asarray(power_maps_w, dtype=float),
            cooling,
            dt_s,
            reference=reference,
        )

    def result_from_vector(self, flat_temperatures: np.ndarray) -> ThermalResult:
        """Wrap a flat temperature vector in a :class:`ThermalResult`."""
        flat = np.asarray(flat_temperatures, dtype=float).ravel()
        if flat.size != self.grid.n_cells:
            raise ValidationError(
                f"temperature vector has {flat.size} entries, expected {self.grid.n_cells}"
            )
        return self._result(flat)
