"""Reduced-order thermal lane: Krylov-projected backward-Euler stepping.

A datacenter floor in quasi-steady state pays a full multi-RHS
back-substitution per substep for fields that barely move.  This module
projects the backward-Euler operator of one ``(cooling boundary, dt)``
pair onto a small Krylov subspace and steps the transient there —
``O(k^2)`` per step instead of a sparse triangular solve — lifting back
only what the controller reads (the per-server case-cell temperature)
until the span ends, when the full field is reconstructed once.

Subspace construction
---------------------
The backward-Euler step map is ``T+ = M T + K_dt^{-1} b`` with
``K_dt = A + C/dt`` and ``M = K_dt^{-1} (C/dt)``; its fixed point is the
steady state ``A^{-1} b``.  The basis is therefore seeded per row group
with the current fields ``T0`` and their steady targets ``A^{-1} b``,
block-extended with a few applications of ``M`` (Arnoldi-style, using the
*cached* Cholesky factors — build cost is a handful of
back-substitutions), and orthonormalised by pivoted QR capped at
``max_basis`` columns.  The exact trajectory satisfies
``T_j - T_inf = M^j (T0 - T_inf)``, so for
quasi-steady spans a couple of Krylov blocks capture it to solver
precision.

A-posteriori error bound (the fallback trigger)
-----------------------------------------------
``A`` is a resistive-network matrix: symmetric, non-positive
off-diagonals, non-negative row sums.  ``K_dt`` is then strictly
diagonally dominant with row sums at least ``c_i/dt``, which makes
``M = K_dt^{-1} (C/dt)`` a sup-norm contraction (``||M||_inf <= 1``).
The full-space residual of a reduced step,
``r = K_dt T~ - b - (C/dt) T_prev~``, converts into a temperature error
through ``K_dt^{-1} r = M (dt r / c)`` — so the per-step lift error is
rigorously bounded by the *capacitance-weighted* residual
``max_i dt |r_i| / c_i`` (far sharper than the classical
``||r||_inf * dt / min(c)`` whenever the residual lives away from the
smallest-capacitance cells).  Because ``M`` is a contraction the per-step
bounds accumulate additively on top of the entry projection error
``||T0 - V V^T T0||_inf``.

Power injections are held for a whole coarse span (that is what makes
the span quasi-steady), so the residual evolves smoothly along it.  The
marcher (:meth:`repro.datacenter.floor.FloorEngine._rom_march`) therefore
evaluates the per-step bound at three reduced substeps of the span only
— the first, the middle and the last, which coincide on spans of one or
two substeps — each sample costing two ``(n, k)`` mat-vecs, and charges
the largest sampled value for every substep.  The per-step bound is
rigorous; the span's accumulated charge is an estimate, since a substep
between the samples could exceed the sampled maximum.  Sampling keeps
the whole ROM span free of per-step ``O(n)`` work, and the golden-model
tests pin the end-to-end error empirically.

Whenever that charge — the largest of the three sampled per-step bounds
times the substep count — or the lifted case temperature's proximity to
the thermal constraint exceeds tolerance, the caller falls back to the
full factorized solver for the affected rows; the :class:`RomStats`
counters make every such decision observable.

Cached beside the Cholesky factors: :class:`~repro.thermal.solver_cache.\
FactorizationCache` stores one :class:`ReducedOperator` per
``(boundary content, dt)`` key, so committed traces and replays rebuild a
basis only when it is stale for the span at hand.  Two tests decide that,
both before the span marches:

* **projection** — an entry field lies outside the cached basis
  (:meth:`ReducedOperator.project` against ``projection_tol_c``);
* **steady state** — the basis cannot reach the steady state of the
  span's held power (:meth:`ReducedOperator.steady_state_bound`, charged
  for every substep against ``step_error_tol_c``).  A server keeps its
  boundary while its total power stays within 15% of the power the
  boundary was built at, so one cached basis serves power maps other than
  the one whose steady targets seeded it.  Its reduced march would head
  for the wrong steady state, trip the span's error charge and send the
  whole span back to the full solver; rebuilding first keeps it reduced.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import ClassVar

import numpy as np
from scipy import linalg as dense_linalg

from repro.utils.validation import (
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

__all__ = ["ReducedOperator", "RomConfig", "RomStats", "build_reduced_operator"]


@dataclass(frozen=True)
class RomConfig:
    """Knobs of the reduced-order lane.

    ``max_basis`` caps the subspace dimension (pivoted QR keeps the best
    columns); ``krylov_iterations`` is the number of Arnoldi block
    extensions applied to the seed block.  The default depth is 4, the
    fastest measured on the 1.5 mm two-SKU floor (perfbench's
    ``coarse_2sku``): depths 3, 4, 5 and 6 left 6, 1, 1 and 0 rows falling
    back per run at seeds 7 and 1234 alike, and every run computes its
    stale-basis rebuilds at this depth, so depths 5 and 6 spent more on
    bases than the last fallback row costs.  ``projection_tol_c`` bounds the
    entry projection error before a cached basis is rebuilt from the
    current states; ``step_error_tol_c`` caps a span's error charge (the
    largest of the rigorous per-step a-posteriori bounds sampled at three
    substeps, times the substep count: an estimate of the accumulated lift
    error, not a bound) before the affected rows fall back to the full
    solver, and the charge of a cached basis that misses the span's steady
    state before it is rebuilt; ``guard_band_c`` falls
    back whenever a lifted case temperature comes within this margin of
    ``T_CASE_MAX`` — the ROM never arbitrates a constraint decision.
    """

    max_basis: int = 32
    krylov_iterations: int = 4
    projection_tol_c: float = 0.05
    step_error_tol_c: float = 0.05
    guard_band_c: float = 2.0

    def __post_init__(self) -> None:
        check_positive_int(self.max_basis, "max_basis")
        check_non_negative_int(self.krylov_iterations, "krylov_iterations")
        check_positive(self.projection_tol_c, "projection_tol_c")
        check_positive(self.step_error_tol_c, "step_error_tol_c")
        check_positive(self.guard_band_c, "guard_band_c")


@dataclass
class RomStats:
    """Counters of the reduced-order lane's decisions (floor-lifetime).

    ``spans`` counts coarse spans attempted through the ROM;
    ``rom_periods`` the control periods actually integrated in reduced
    space (summed over rows); ``fallback_error`` / ``fallback_guard`` /
    ``fallback_projection`` the rows returned to the full solver because
    the span's error charge (largest sampled per-step bound times the
    substep count) exceeded its tolerance, a lifted case temperature entered
    the constraint guard band, or the entry states left the span of a
    (re)built basis.  ``basis_builds`` counts cold builds;
    ``rebuild_projection`` / ``rebuild_steady_state`` the replacements of a
    stale cached basis, because an entry state left its span or it cannot
    reach the steady state of the span's held power, and
    :attr:`basis_rebuilds` their total.
    """

    #: The counter names, in declaration order.
    FIELDS: ClassVar[tuple[str, ...]]

    basis_builds: int = 0
    rebuild_projection: int = 0
    rebuild_steady_state: int = 0
    spans: int = 0
    rom_periods: int = 0
    rom_rows: int = 0
    fallback_rows: int = 0
    fallback_error: int = 0
    fallback_guard: int = 0
    fallback_projection: int = 0

    def copy(self) -> "RomStats":
        """An independent snapshot of the current counters."""
        return replace(self)

    def merge(self, other: "RomStats") -> None:
        """Fold another counter set into this one, in place.

        The thread-parallel floor engine hands every hardware group its own
        scratch counter set and merges them back in group-index order after
        the join — integer addition is order-independent, but the fixed
        order keeps the commit path deterministic by construction.
        """
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def delta(self, before: "RomStats") -> "RomStats":
        """Counter activity since a :meth:`copy` snapshot."""
        return RomStats(
            **{
                name: getattr(self, name) - getattr(before, name)
                for name in self.FIELDS
            }
        )

    @property
    def fallbacks(self) -> int:
        """Total row-level fallbacks to the full solver."""
        return self.fallback_error + self.fallback_guard + self.fallback_projection

    @property
    def basis_rebuilds(self) -> int:
        """Total replacements of a stale cached basis, whatever the cause."""
        return self.rebuild_projection + self.rebuild_steady_state


RomStats.FIELDS = tuple(f.name for f in dataclass_fields(RomStats))


@dataclass(frozen=True)
class ReducedOperator:
    """One ``(cooling boundary, dt)`` operator projected onto a Krylov basis.

    ``basis`` is the orthonormal ``(n_cells, k)`` matrix ``V``.  The
    reduced step solves ``(V^T K_dt V) y+ = V^T b + (V^T (C/dt) V) y``
    through a dense LU of the ``k x k`` matrix; ``conductance_basis``
    (``K V``) and ``capacitance_basis`` (``(C/dt) V``) are precomputed so
    the full-space residual of a reduced iterate costs two ``(n, k)``
    mat-vecs.  ``inverse_capacitance_dt`` is the per-cell ``dt / c_i``
    weight that converts a residual into a rigorous temperature error
    bound through the ``M``-contraction (see the module docstring).
    """

    basis: np.ndarray
    dt_s: float
    boundary_rhs: np.ndarray
    reduced_lu: tuple
    reduced_capacitance: np.ndarray
    conductance_basis: np.ndarray
    capacitance_basis: np.ndarray
    basis_boundary_rhs: np.ndarray
    case_cell_index: int
    inverse_capacitance_dt: np.ndarray
    step_matrix: np.ndarray

    @property
    def order(self) -> int:
        """Dimension ``k`` of the reduced space."""
        return self.basis.shape[1]

    # ------------------------------------------------------------------ #
    # Projection / lifting
    # ------------------------------------------------------------------ #
    def project(self, fields: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project ``(m, n)`` fields; returns ``(Y, entry_error)``.

        ``Y`` is ``(k, m)`` reduced coordinates; ``entry_error[i]`` is the
        sup-norm distance of row ``i`` from the subspace — the first term
        of the a-posteriori bound, and the staleness test of a cached
        basis.
        """
        coords = self.basis.T @ fields.T
        lifted = self.basis @ coords
        entry_error = np.max(np.abs(fields.T - lifted), axis=0)
        return coords, entry_error

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """Reconstruct full ``(m, n)`` fields from ``(k, m)`` coordinates."""
        return (self.basis @ coords).T

    def reduce_rhs(self, power_vectors: np.ndarray) -> np.ndarray:
        """``V^T (boundary_rhs + power_vector)`` for ``(m, n)`` power vectors."""
        return self.basis_boundary_rhs[:, np.newaxis] + self.basis.T @ power_vectors.T

    def case_temperatures(self, coords: np.ndarray) -> np.ndarray:
        """Lift only the controller-read observable: the case-cell row."""
        return self.basis[self.case_cell_index] @ coords

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self, coords: np.ndarray, reduced_rhs: np.ndarray) -> np.ndarray:
        """One backward-Euler step in reduced space (``O(k^2)`` per row)."""
        rhs = reduced_rhs + self.reduced_capacitance @ coords
        return dense_linalg.lu_solve(self.reduced_lu, rhs)

    def affine_term(self, reduced_rhs: np.ndarray) -> np.ndarray:
        """``K_r^{-1} rhs_r`` — the constant part of the affine step map.

        The RHS is held for a whole coarse span, so the marcher factors the
        step into ``y+ = step_matrix @ y + affine`` and pays one dense
        ``lu_solve`` per span; each substep is then a bare ``(k, k)``
        matmul, with none of the LAPACK wrapper overhead that would
        otherwise dominate at small ``k``.
        """
        return dense_linalg.lu_solve(self.reduced_lu, reduced_rhs)

    def step_error_bound(
        self,
        coords_new: np.ndarray,
        coords_old: np.ndarray,
        full_rhs: np.ndarray,
    ) -> np.ndarray:
        """Per-row sup-norm error bound of one reduced step.

        ``full_rhs`` is ``(m, n)``: ``boundary_rhs + power_vector`` per
        row.  The residual of the lifted iterate is assembled from the
        precomputed ``K V`` and ``(C/dt) V`` factors and weighted by the
        per-cell ``dt / c_i`` gain — a rigorous (M-matrix) bound on the
        true error added by this step, valid to accumulate across a span
        because the step map is a sup-norm contraction.
        """
        residual = (
            self.conductance_basis @ coords_new
            + self.capacitance_basis @ (coords_new - coords_old)
            - full_rhs.T
        )
        return np.max(
            np.abs(residual) * self.inverse_capacitance_dt[:, np.newaxis], axis=0
        )

    def steady_state_bound(self, power_vectors: np.ndarray) -> np.ndarray:
        """Per-row per-step error bound at the reduced steady state.

        The reduced march of a held power converges to the fixed point
        ``y*`` of ``y+ = step_matrix @ y + affine``, i.e. the solution of
        ``(I - step_matrix) y* = affine`` (equivalently
        ``V^T A V y* = V^T b``): one ``k x k`` solve.  The reduced step
        stands still there, so :meth:`step_error_bound` at ``(y*, y*)`` is
        the error every substep of a span that reaches ``y*`` adds: zero
        when the steady target ``A^{-1} b`` lies in the basis, the
        per-step bound of the miss otherwise.  Two ``(n, k)`` mat-vecs.
        """
        affine = self.affine_term(self.reduce_rhs(power_vectors))
        fixed_point = dense_linalg.solve(np.eye(self.order) - self.step_matrix, affine)
        full_rhs = self.boundary_rhs[np.newaxis, :] + power_vectors
        return self.step_error_bound(fixed_point, fixed_point, full_rhs)


def _orthonormal_columns(columns: np.ndarray, max_basis: int) -> np.ndarray:
    """Pivoted-QR orthonormalisation, pruned to the numerically independent
    columns and capped at ``max_basis``."""
    q, r, _ = dense_linalg.qr(columns, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag.size == 0 or diag[0] <= 0.0:
        raise ValueError("reduced basis seeds are all zero")
    keep = int(np.sum(diag > diag[0] * 1e-12))
    keep = max(1, min(keep, max_basis))
    return np.ascontiguousarray(q[:, :keep])


def build_reduced_operator(
    network,
    cache,
    cooling,
    dt_s: float,
    seed_fields: np.ndarray,
    power_vectors: np.ndarray,
    case_cell_index: int,
    config: RomConfig,
    previous_basis: np.ndarray | None = None,
) -> ReducedOperator:
    """Build a :class:`ReducedOperator` for one ``(cooling, dt)`` pair.

    ``seed_fields`` is the ``(m, n)`` stack of current fields of the rows
    that will step through the operator and ``power_vectors`` their
    ``(m, n)`` power injections.  The Krylov construction draws every
    solve from ``cache`` (the shared
    :class:`~repro.thermal.solver_cache.FactorizationCache`), so a build
    costs a few cached back-substitutions, never a new factorization
    beyond the ones the full lane needs anyway.

    ``previous_basis`` (a stale cached basis) is folded into
    the seed block on a rebuild, so a boundary the floor keeps returning
    to accumulates a basis that spans its whole operating envelope and
    the rebuild rate decays over a long trace instead of churning.
    """
    check_positive(dt_s, "dt_s")
    transient_op = cache.transient_operator(cooling, dt_s)
    steady_op = cache.steady_operator(cooling)
    boundary_rhs = transient_op.boundary_rhs
    capacitance_over_dt = transient_op.capacitance_over_dt

    full_rhs = boundary_rhs[np.newaxis, :] + power_vectors
    steady_targets = np.asarray(steady_op.solve(full_rhs.T), dtype=float)
    if steady_targets.ndim == 1:
        steady_targets = steady_targets[:, np.newaxis]

    block = np.concatenate([seed_fields.T, steady_targets], axis=1)
    blocks = [block]
    for _ in range(config.krylov_iterations):
        block = np.asarray(
            transient_op.solve(capacitance_over_dt[:, np.newaxis] * block),
            dtype=float,
        )
        blocks.append(block)
    if previous_basis is not None:
        blocks.append(np.asarray(previous_basis, dtype=float))
    basis = _orthonormal_columns(np.concatenate(blocks, axis=1), config.max_basis)

    conductance, _ = network.conductance_system(cooling)
    conductance_basis = np.asarray(conductance @ basis, dtype=float)
    capacitance_basis = capacitance_over_dt[:, np.newaxis] * basis
    reduced_system = basis.T @ (conductance_basis + capacitance_basis)
    reduced_lu = dense_linalg.lu_factor(reduced_system)
    reduced_capacitance = basis.T @ capacitance_basis
    return ReducedOperator(
        basis=basis,
        dt_s=float(dt_s),
        boundary_rhs=boundary_rhs,
        reduced_lu=reduced_lu,
        reduced_capacitance=reduced_capacitance,
        conductance_basis=conductance_basis,
        capacitance_basis=capacitance_basis,
        basis_boundary_rhs=basis.T @ boundary_rhs,
        case_cell_index=int(case_cell_index),
        inverse_capacitance_dt=float(dt_s) / np.asarray(network.capacitance, dtype=float),
        step_matrix=dense_linalg.lu_solve(reduced_lu, reduced_capacitance),
    )
