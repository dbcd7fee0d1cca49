"""Golden references for the thermal factorization kernel.

* **Tier A** — :func:`golden_factor` is the assemble-and-scatter
  factorization the cache used before it factored from the recorded bulk
  band: assemble the sparse operator through
  :meth:`~repro.thermal.network.ThermalNetwork.conductance_system` (plus
  ``diags(C/dt)`` for a transient operator), scatter the upper band of its
  CSC form into LAPACK band storage and factor it with ``dpbtrf``.  The
  cache's factors must equal it bit for bit.
* **Tier B** — COLAMD-ordered SuperLU (:func:`scipy.sparse.linalg.splu`)
  is a general sparse LU that assumes nothing about the operator's
  symmetry or band structure.  The banded Cholesky kernel of
  :mod:`repro.thermal.solver_cache` is held to it at contract tier B.
  :func:`golden_steady` and :func:`golden_transient_step` solve the fully
  assembled system through it, one factorization per solve, with no cache.
* :func:`cached_transient_step` is the single-column backward-Euler step
  through a :class:`~repro.thermal.solver_cache.FactorizationCache`: one
  field, one cached operator, one back-substitution.  The library steps
  stacks of fields (``FactorizationCache._step_fields``, behind
  ``ThermalSimulator.transient_step_many_from_maps``); the per-server
  golden loop of ``tests/reference_session.py`` steps one field at a time
  through this helper.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.linalg import splu

from repro.thermal.solver_cache import BandOrdering

#: Contract tier B: a kernel swap may move a temperature by at most this.
TIER_B_C = 1e-9


def golden_solve(matrix: sparse.spmatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` through COLAMD-ordered SuperLU."""
    return splu(matrix.tocsc(), permc_spec="COLAMD").solve(rhs)


def golden_steady(network, power_map_w: np.ndarray, cooling) -> np.ndarray:
    """Steady field of ``network.system(power_map_w, cooling)`` by SuperLU."""
    matrix, rhs = network.system(power_map_w, cooling)
    return golden_solve(matrix, rhs)


def golden_transient_step(
    network, temperatures: np.ndarray, power_map_w: np.ndarray, cooling, dt_s: float
) -> np.ndarray:
    """One backward-Euler step, ``(A + C/dt) T' = b + C/dt T``, by SuperLU."""
    matrix, rhs = network.system(power_map_w, cooling)
    capacitance_over_dt = network.capacitance / float(dt_s)
    return golden_solve(
        matrix + sparse.diags(capacitance_over_dt),
        rhs + capacitance_over_dt * np.asarray(temperatures, dtype=float).ravel(),
    )


def cached_transient_step(
    cache, temperatures: np.ndarray, power_map_w: np.ndarray, cooling, dt_s: float
) -> np.ndarray:
    """One backward-Euler step of one field through ``cache``'s operator."""
    operator = cache.transient_operator(cooling, dt_s)
    rhs = (
        operator.boundary_rhs
        + cache.network.power_vector(np.asarray(power_map_w, dtype=float))
        + operator.capacitance_over_dt * np.asarray(temperatures, dtype=float).ravel()
    )
    return np.asarray(operator.solve(rhs), dtype=float)


def golden_factor(network, cooling, dt_s: float | None = None):
    """Band factor and boundary RHS of an assembled operator.

    Returns ``(factor, boundary_rhs)`` for the steady operator
    (``dt_s=None``) or the backward-Euler operator ``A + C/dt``.
    """
    matrix, boundary_rhs = network.conductance_system(cooling)
    if dt_s is not None:
        matrix = matrix + sparse.diags(network.capacitance / float(dt_s))
    ordering = BandOrdering(network.grid)
    matrix = matrix.tocsc()
    columns = ordering.inverse[
        np.repeat(np.arange(ordering.n_cells), np.diff(matrix.indptr))
    ]
    offsets = columns - ordering.inverse[matrix.indices]
    assert np.all(np.abs(offsets) <= ordering.bandwidth)
    upper = offsets >= 0
    band = np.zeros((ordering.bandwidth + 1, ordering.n_cells), order="F")
    band[ordering.bandwidth - offsets[upper], columns[upper]] = matrix.data[upper]
    factor, info = dpbtrf(band, overwrite_ab=True)
    assert info == 0
    return factor, boundary_rhs
