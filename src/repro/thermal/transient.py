"""Transient (time-marching) solution of the thermal network.

A backward-Euler scheme is used: it is unconditionally stable, so the
controller studies can take steps of hundreds of milliseconds without the
millikelvin-scale time constants of the thin TIM layers forcing tiny steps.

The backward-Euler operator ``A + C/dt`` depends only on the cooling
boundary and the step size, so the solver draws it from a
:class:`FactorizationCache`: a whole trace at a fixed boundary factorizes
once and every step is a single back-substitution.

:meth:`TransientSolver.step_many` is the one step: it advances a stack of
fields (one row per server) through one operator.  The floor engine's
substep march (:class:`repro.datacenter.floor.FloorEngine`) is the only
time loop built on it.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.thermal.boundary import CoolingBoundary
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver_cache import FactorizationCache
from repro.utils.validation import check_positive


class TransientSolver:
    """Backward-Euler time integration of ``C dT/dt = -A T + b``.

    ``cache`` as for :class:`~repro.thermal.steady_state.SteadyStateSolver`.
    """

    def __init__(
        self, network: ThermalNetwork, *, cache: FactorizationCache | None = None
    ) -> None:
        self.network = network
        self.cache = cache if cache is not None else FactorizationCache(network)

    def step_many(
        self,
        temperatures: np.ndarray,
        power_maps_w: np.ndarray,
        cooling: CoolingBoundary,
        dt_s: float,
        *,
        reference: CoolingBoundary | None = None,
    ) -> np.ndarray:
        """Advance many temperature fields one step at a shared boundary.

        ``temperatures`` has shape ``(k, n_cells)`` and ``power_maps_w``
        shape ``(k, n_rows, n_columns)``; the advanced fields come back as
        ``(k, n_cells)``.  All ``k`` fields share one backward-Euler operator
        (one factorization) and are back-substituted as a multi-column RHS;
        ``dpbtrs`` back-substitutes each column independently, so row ``i``
        does not depend on the other rows.

        With a ``reference`` boundary the operator is not factored: each
        field is solved by the cache's iterative lane
        (:meth:`FactorizationCache.preconditioned_transient_operator`),
        preconditioned by the factor of ``(reference, dt_s)`` and within
        tier B of the exact step.
        """
        check_positive(dt_s, "dt_s")
        grid = self.network.grid
        temperatures = np.asarray(temperatures, dtype=float)
        power_maps_w = np.asarray(power_maps_w, dtype=float)
        if temperatures.ndim != 2 or temperatures.shape[1] != grid.n_cells:
            raise ValidationError(
                f"temperature stack shape {temperatures.shape} does not match "
                f"(k, {grid.n_cells})"
            )
        if temperatures.shape[0] != power_maps_w.shape[0]:
            raise ValidationError(
                "temperature stack and power map stack disagree on the number "
                f"of fields ({temperatures.shape[0]} vs {power_maps_w.shape[0]})"
            )
        if reference is None:
            operator = self.cache.transient_operator(cooling, dt_s)
        else:
            operator = self.cache.preconditioned_transient_operator(
                cooling, reference, dt_s
            )
        rhs = (
            operator.boundary_rhs[:, np.newaxis]
            + self.network.power_vectors(power_maps_w).T
            + operator.capacitance_over_dt[:, np.newaxis] * temperatures.T
        )
        return np.asarray(operator.solve(rhs), dtype=float).T
