"""Steady-state solution of the thermal network.

By default the solver runs through a :class:`FactorizationCache`: the
operator is factorized once per distinct cooling boundary and every further
solve (different power map, same cooling) is a single back-substitution.
Pass ``use_cache=False`` to recover the direct ``spsolve`` path.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse.linalg import spsolve

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.thermal.boundary import CoolingBoundary
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver_cache import FactorizationCache, check_steady_solvable


class SteadyStateSolver:
    """Solves ``A @ T = b`` for the equilibrium temperature field.

    Parameters
    ----------
    network:
        The assembled thermal network.
    cache:
        A factorization cache to draw operators from; share one instance
        between solvers of the same network to share factorizations.  When
        ``None`` and ``use_cache`` is true, a private cache is created.
    use_cache:
        Set to ``False`` to disable factorization reuse entirely (one
        ``spsolve`` per call; useful for benchmarking the cache itself).
    """

    def __init__(
        self,
        network: ThermalNetwork,
        *,
        cache: FactorizationCache | None = None,
        use_cache: bool = True,
    ) -> None:
        self.network = network
        if cache is not None and not use_cache:
            raise ConfigurationError(
                "use_cache=False contradicts an explicit cache; pass one or the other"
            )
        if cache is not None:
            self.cache: FactorizationCache | None = cache
        else:
            self.cache = FactorizationCache(network) if use_cache else None

    def solve(self, power_map_w: np.ndarray, cooling: CoolingBoundary) -> np.ndarray:
        """Return the flat temperature vector (degrees Celsius).

        Raises
        ------
        ConvergenceError
            If no boundary ties the field to a temperature (a zero-HTC top
            boundary everywhere with no bottom path), the operator cannot
            be factorized, or the linear solve produces non-finite values.
        """
        if self.cache is not None:
            operator = self.cache.steady_operator(cooling)
            rhs = operator.boundary_rhs + self.network.power_vector(power_map_w)
            temperatures = operator.solve(rhs)
        else:
            check_steady_solvable(self.network, cooling)
            matrix, rhs = self.network.system(power_map_w, cooling)
            temperatures = spsolve(matrix, rhs)
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
        shape ``(k, n_cells)``.  Through the cache this is one factorization
        plus one multi-column back-substitution — ``dpbtrs`` back-substitutes
        each column independently, so row ``i`` is identical to
        ``solve(power_maps_w[i], cooling)``.  This is what lets a rack of
        servers sharing one boundary pay a single operator for all of them.
        """
        power_maps_w = np.asarray(power_maps_w, dtype=float)
        if self.cache is not None:
            operator = self.cache.steady_operator(cooling)
            rhs = (
                operator.boundary_rhs[:, np.newaxis]
                + self.network.power_vectors(power_maps_w).T
            )
            temperatures = np.asarray(operator.solve(rhs), dtype=float).T
        else:
            temperatures = np.stack(
                [self.solve(power_map, cooling) for power_map in power_maps_w]
            )
        if not np.all(np.isfinite(temperatures)):
            raise ConvergenceError(
                "steady-state solve produced non-finite temperatures; "
                "check that at least one boundary has a non-zero heat transfer coefficient"
            )
        return temperatures

    def solve_layers(
        self, power_map_w: np.ndarray, cooling: CoolingBoundary
    ) -> np.ndarray:
        """Temperatures reshaped to ``(n_layers, n_rows, n_columns)``."""
        flat = self.solve(power_map_w, cooling)
        grid = self.network.grid
        return flat.reshape(grid.n_layers, grid.n_rows, grid.n_columns)
