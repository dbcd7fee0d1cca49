"""Assembly of the sparse thermal conductance network.

The network follows the standard compact thermal modelling approach used by
3D-ICE and HotSpot: every grid cell becomes a node, neighbouring cells are
connected by conductances computed from the series combination of their
half-cell resistances, the top layer exchanges heat with the micro-channel
fluid through per-cell convective conductances, and the bottom layer leaks a
small amount of heat to the server ambient through the package substrate.

Vectorized construction
-----------------------
Assembly is fully array-based (no per-cell Python loops), which is what makes
fine grids (<= 0.75 mm cells) affordable on the first solve:

* Each layer contributes a per-cell conductivity plane derived from the die
  mask (:meth:`repro.thermal.layers.Layer.conductivity_field`), stacked into
  one ``(n_layers, n_rows, n_columns)`` array.
* From that array the per-cell *half resistances* along each axis are
  computed once; the conductance between two neighbours is the reciprocal of
  the sum of two shifted slices (east/west, north/south, up/down) — one
  ``(L, R, C-1)``, ``(L, R-1, C)`` and ``(L-1, R, C)`` array respectively.
* Each neighbour direction emits a single COO triplet batch (both symmetric
  off-diagonal entries plus its additions to the diagonal), and one
  ``coo_matrix`` call builds the matrix.

The per-edge conductances are computed with the same floating-point
expressions as the original loop assembler (kept as the golden model in
``tests/reference_assembly.py``); only the order in which the diagonal
accumulates differs, so vectorized and reference assemblies agree to
<= 1e-12 relative.  The cost model is O(n_cells) NumPy work with small
constants — assembly at 0.75 mm cells went from seconds (triple loop) to
tens of milliseconds, >= 20x faster (see ``benchmarks/test_bench_assembly``).
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy import sparse

from repro.exceptions import ValidationError
from repro.thermal.boundary import BottomBoundary, CoolingBoundary
from repro.thermal.grid import ThermalGrid


class ThermalNetwork:
    """Sparse conductance/capacitance assembly for a grid and die mask."""

    def __init__(
        self,
        grid: ThermalGrid,
        die_mask: np.ndarray,
        bottom_boundary: BottomBoundary | None = None,
    ) -> None:
        die_mask = np.asarray(die_mask, dtype=bool)
        if die_mask.shape != (grid.n_rows, grid.n_columns):
            raise ValidationError(
                f"die mask shape {die_mask.shape} does not match grid "
                f"({grid.n_rows}, {grid.n_columns})"
            )
        self.grid = grid
        self.die_mask = die_mask
        self.bottom_boundary = bottom_boundary if bottom_boundary is not None else BottomBoundary()
        self._conductivity = self._conductivity_fields()
        self._bulk_matrix, self._bottom_rhs = self._assemble_bulk()
        self._capacitance = self._assemble_capacitance()
        self._top_half_resistance = self._top_half_resistance_field()

    # ------------------------------------------------------------------ #
    # Assembly
    # ------------------------------------------------------------------ #
    def _conductivity_fields(self) -> np.ndarray:
        """Per-cell conductivity, shape ``(n_layers, n_rows, n_columns)``."""
        return np.stack(
            [layer.conductivity_field(self.die_mask) for layer in self.grid.stack]
        )

    def _layer_thicknesses(self) -> np.ndarray:
        return np.array([layer.thickness_m for layer in self.grid.stack], dtype=float)

    def _assemble_bulk(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        """Conduction network plus the (fixed) bottom boundary."""
        grid = self.grid
        n = grid.n_cells
        n_layers, n_rows, n_columns = grid.n_layers, grid.n_rows, grid.n_columns
        k = self._conductivity
        thickness = self._layer_thicknesses()[:, np.newaxis, np.newaxis]
        index = np.arange(n).reshape(n_layers, n_rows, n_columns)

        diag = np.zeros((n_layers, n_rows, n_columns), dtype=float)
        bottom_rhs = np.zeros(n, dtype=float)
        row_batches: list[np.ndarray] = []
        col_batches: list[np.ndarray] = []
        value_batches: list[np.ndarray] = []

        def couple(index_a: np.ndarray, index_b: np.ndarray, g: np.ndarray) -> None:
            flat_a, flat_b, flat_g = index_a.ravel(), index_b.ravel(), g.ravel()
            row_batches.extend((flat_a, flat_b))
            col_batches.extend((flat_b, flat_a))
            value_batches.extend((-flat_g, -flat_g))

        # East-west neighbours: half resistance = length / (2 k A_cross) with
        # cross-section = thickness x cell height; the edge conductance is the
        # reciprocal sum of the two adjoining half resistances.
        if n_columns > 1:
            half = grid.cell_width_m / (2.0 * k * (thickness * grid.cell_height_m))
            g_east = 1.0 / (half[:, :, :-1] + half[:, :, 1:])
            couple(index[:, :, :-1], index[:, :, 1:], g_east)
            diag[:, :, :-1] += g_east
            diag[:, :, 1:] += g_east

        # North-south neighbours: cross-section = thickness x cell width.
        if n_rows > 1:
            half = grid.cell_height_m / (2.0 * k * (thickness * grid.cell_width_m))
            g_north = 1.0 / (half[:, :-1, :] + half[:, 1:, :])
            couple(index[:, :-1, :], index[:, 1:, :], g_north)
            diag[:, :-1, :] += g_north
            diag[:, 1:, :] += g_north

        # Vertical neighbours: half resistance = thickness / (2 k A_cell).
        if n_layers > 1:
            half = thickness / (2.0 * k * grid.cell_area_m2)
            g_vertical = 1.0 / (half[:-1] + half[1:])
            couple(index[:-1], index[1:], g_vertical)
            diag[:-1] += g_vertical
            diag[1:] += g_vertical

        # Bottom boundary: bottom layer to ambient through the substrate/board.
        bottom = self.bottom_boundary
        if bottom.htc_w_m2k > 0.0:
            area = grid.cell_area_m2
            resistance = thickness[0] / (2.0 * k[0] * area) + 1.0 / (bottom.htc_w_m2k * area)
            g_bottom = 1.0 / resistance
            diag[0] += g_bottom
            bottom_rhs[: grid.cells_per_layer] = (
                g_bottom * bottom.ambient_temperature_c
            ).ravel()

        row_batches.append(np.arange(n))
        col_batches.append(np.arange(n))
        value_batches.append(diag.ravel())
        matrix = sparse.coo_matrix(
            (
                np.concatenate(value_batches),
                (np.concatenate(row_batches), np.concatenate(col_batches)),
            ),
            shape=(n, n),
        ).tocsr()
        return matrix, bottom_rhs

    def _assemble_capacitance(self) -> np.ndarray:
        """Per-cell heat capacity in J/K."""
        grid = self.grid
        planes = [
            (grid.cell_area_m2 * layer.thickness_m) * layer.capacity_field(self.die_mask)
            for layer in grid.stack
        ]
        return np.concatenate([plane.ravel() for plane in planes])

    def _top_half_resistance_field(self) -> np.ndarray:
        """Half-cell conduction resistance of the top layer, per cell."""
        grid = self.grid
        top_layer = grid.n_layers - 1
        thickness = grid.stack[top_layer].thickness_m
        return thickness / (2.0 * self._conductivity[top_layer] * grid.cell_area_m2)

    # ------------------------------------------------------------------ #
    # Per-simulation system assembly
    # ------------------------------------------------------------------ #
    def _top_boundary_terms(
        self, cooling: CoolingBoundary
    ) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal additions and RHS contributions of the top boundary."""
        grid = self.grid
        if cooling.shape != (grid.n_rows, grid.n_columns):
            raise ValidationError(
                f"cooling boundary shape {cooling.shape} does not match grid "
                f"({grid.n_rows}, {grid.n_columns})"
            )
        top_layer = grid.n_layers - 1
        area = grid.cell_area_m2
        htc = cooling.htc_w_m2k
        active = htc > 0.0
        # Guard the h=0 division rather than filtering, so one expression
        # produces the whole plane; inactive cells contribute nothing.
        safe_htc = np.where(active, htc, 1.0)
        g = np.where(
            active,
            1.0 / (self._top_half_resistance + 1.0 / (safe_htc * area)),
            0.0,
        )
        diag_add = np.zeros(grid.n_cells, dtype=float)
        rhs_add = np.zeros(grid.n_cells, dtype=float)
        top_slice = grid.layer_slice(top_layer)
        diag_add[top_slice] = g.ravel()
        rhs_add[top_slice] = (g * cooling.fluid_temperature_c).ravel()
        return diag_add, rhs_add

    def power_vector(self, power_map_w: np.ndarray) -> np.ndarray:
        """Flat power-injection vector of one per-cell power map: one row of
        :meth:`power_vectors`."""
        return self.power_vectors(np.asarray(power_map_w, dtype=float)[np.newaxis])[0]

    def power_vectors(self, power_maps_w: np.ndarray) -> np.ndarray:
        """Stacked power-injection vectors for many per-cell power maps.

        ``power_maps_w`` has shape ``(k, n_rows, n_columns)``; the result has
        shape ``(k, n_cells)``: each map scattered into the heat-source
        layer.  Used to build multi-column right-hand sides in one scatter.
        """
        grid = self.grid
        power_maps_w = np.asarray(power_maps_w, dtype=float)
        if power_maps_w.ndim != 3 or power_maps_w.shape[1:] != (
            grid.n_rows,
            grid.n_columns,
        ):
            raise ValidationError(
                f"power map stack shape {power_maps_w.shape} does not match "
                f"(k, {grid.n_rows}, {grid.n_columns})"
            )
        if np.any(power_maps_w < 0.0):
            raise ValidationError("power maps must be non-negative")
        vectors = np.zeros((power_maps_w.shape[0], grid.n_cells), dtype=float)
        source_layer = grid.stack.heat_source_index
        vectors[:, grid.layer_slice(source_layer)] = power_maps_w.reshape(
            power_maps_w.shape[0], -1
        )
        return vectors

    def boundary_terms(
        self, cooling: CoolingBoundary
    ) -> tuple[np.ndarray, np.ndarray]:
        """What a cooling boundary adds to the bulk system.

        Returns the per-cell diagonal addition (the top-layer convective
        conductance, zero below the top layer) and the boundary RHS
        (bottom ambient plus top fluid terms).  The operator is
        :attr:`bulk_matrix` plus that diagonal; only the diagonal and the
        RHS depend on the boundary.
        """
        diag_add, rhs_add = self._top_boundary_terms(cooling)
        return diag_add, self._bottom_rhs + rhs_add

    def conductance_system(
        self, cooling: CoolingBoundary
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """Power-independent part of the system for a cooling boundary.

        Returns the full conductance matrix ``A`` (bulk conduction, bottom
        boundary and the top convective boundary) together with the boundary
        RHS (bottom ambient plus top fluid terms).  The complete steady-state
        RHS is this boundary RHS plus :meth:`power_vector` — power never
        enters the matrix, which is what makes factorization caching across
        power maps possible.
        """
        diag_add, boundary_rhs = self.boundary_terms(cooling)
        matrix = (self._bulk_matrix + sparse.diags(diag_add)).tocsr()
        return matrix, boundary_rhs

    def system(
        self, power_map_w: np.ndarray, cooling: CoolingBoundary
    ) -> tuple[sparse.csr_matrix, np.ndarray]:
        """Full steady-state system ``A @ T = b`` for given power and cooling."""
        matrix, boundary_rhs = self.conductance_system(cooling)
        return matrix, boundary_rhs + self.power_vector(power_map_w)

    def content_key(self) -> str:
        """Content hash identifying this network's assembled operators.

        Two networks with byte-identical bulk matrices, capacitances, top
        half-resistances and bottom-boundary RHS produce identical
        :meth:`conductance_system` output for equal cooling boundaries, so
        the hex digest is a process-independent key for persisting derived
        operators (see :mod:`repro.thermal.warm_store`).  Memoised on first
        use under the network's immutability contract.
        """
        key = getattr(self, "_content_key", None)
        if key is None:
            bulk = self._bulk_matrix.tocsr()
            digest = hashlib.blake2b(digest_size=16)
            digest.update(
                repr(
                    (self.grid.n_layers, self.grid.n_rows, self.grid.n_columns)
                ).encode()
            )
            for array in (
                bulk.data,
                bulk.indices,
                bulk.indptr,
                self._capacitance,
                self._top_half_resistance,
                self._bottom_rhs,
            ):
                digest.update(np.ascontiguousarray(array).tobytes())
            key = digest.hexdigest()
            self._content_key = key
        return key

    @property
    def capacitance(self) -> np.ndarray:
        """Per-cell heat capacity vector in J/K."""
        return self._capacitance.copy()

    @property
    def bulk_matrix(self) -> sparse.csr_matrix:
        """Conduction-plus-bottom-boundary matrix (no top boundary)."""
        return self._bulk_matrix.copy()
