"""Steady-state solution of the thermal network.

The solver runs through a :class:`FactorizationCache`: the operator is
factorized once per distinct cooling boundary and every further solve
(different power map, same cooling) is a single back-substitution.  A
solve given a ``reference`` boundary takes the cache's iterative lane
instead and factors nothing for its own boundary.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConvergenceError
from repro.thermal.boundary import CoolingBoundary
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver_cache import FactorizationCache


class SteadyStateSolver:
    """Solves ``A @ T = b`` for the equilibrium temperature field.

    Parameters
    ----------
    network:
        The assembled thermal network.
    cache:
        A factorization cache to draw operators from; share one instance
        between solvers of the same network to share factorizations.  When
        ``None``, a private cache is created.
    """

    def __init__(
        self, network: ThermalNetwork, *, cache: FactorizationCache | None = None
    ) -> None:
        self.network = network
        self.cache = cache if cache is not None else FactorizationCache(network)

    def solve(
        self,
        power_map_w: np.ndarray,
        cooling: CoolingBoundary,
        *,
        reference: CoolingBoundary | None = None,
    ) -> np.ndarray:
        """Return the flat temperature vector (degrees Celsius).

        With a ``reference`` boundary the operator is not factored: the
        field is solved by the cache's iterative lane
        (:meth:`FactorizationCache.preconditioned_steady_operator`),
        preconditioned by the factor of ``reference`` and within tier B of
        the exact solve.

        Raises
        ------
        ConvergenceError
            If no boundary ties the field to a temperature (a zero-HTC top
            boundary everywhere with no bottom path), the operator cannot
            be factorized, or the linear solve produces non-finite values.
        """
        if reference is None:
            operator = self.cache.steady_operator(cooling)
        else:
            operator = self.cache.preconditioned_steady_operator(cooling, reference)
        rhs = operator.boundary_rhs + self.network.power_vector(power_map_w)
        temperatures = operator.solve(rhs)
        if not np.all(np.isfinite(temperatures)):
            raise ConvergenceError(
                "steady-state solve produced non-finite temperatures; "
                "check that at least one boundary has a non-zero heat transfer coefficient"
            )
        return np.asarray(temperatures, dtype=float)

    def solve_many(
        self, power_maps_w: np.ndarray, cooling: CoolingBoundary
    ) -> np.ndarray:
        """Solve many power maps at one cooling boundary in a single call.

        ``power_maps_w`` has shape ``(k, n_rows, n_columns)``; the result has
        shape ``(k, n_cells)``.  This is one factorization plus one
        multi-column back-substitution — ``dpbtrs`` back-substitutes each
        column independently, so row ``i`` is identical to
        ``solve(power_maps_w[i], cooling)``.  This is what lets a rack of
        servers sharing one boundary pay a single operator for all of them.
        """
        power_maps_w = np.asarray(power_maps_w, dtype=float)
        operator = self.cache.steady_operator(cooling)
        rhs = (
            operator.boundary_rhs[:, np.newaxis]
            + self.network.power_vectors(power_maps_w).T
        )
        temperatures = np.asarray(operator.solve(rhs), dtype=float).T
        if not np.all(np.isfinite(temperatures)):
            raise ConvergenceError(
                "steady-state solve produced non-finite temperatures; "
                "check that at least one boundary has a non-zero heat transfer coefficient"
            )
        return temperatures
