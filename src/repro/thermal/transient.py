"""Transient (time-marching) solution of the thermal network.

A backward-Euler scheme is used: it is unconditionally stable, so the
controller studies can take steps of hundreds of milliseconds without the
millikelvin-scale time constants of the thin TIM layers forcing tiny steps.

The backward-Euler operator ``A + C/dt`` depends only on the cooling
boundary and the step size, so the solver draws it from a
:class:`FactorizationCache`: a whole trace at a fixed boundary factorizes
once and every step is a single back-substitution.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.thermal.boundary import CoolingBoundary
from repro.thermal.network import ThermalNetwork
from repro.thermal.solver_cache import FactorizationCache
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SettleResult:
    """Outcome of a :meth:`TransientSolver.settle` run.

    ``converged`` is False when the field was still changing by more than
    the tolerance after ``max_steps`` — the returned temperatures are then
    the last iterate, not an equilibrium.
    """

    temperatures: np.ndarray
    steps: int
    converged: bool
    residual_c: float


class TransientSolver:
    """Backward-Euler time integration of ``C dT/dt = -A T + b``.

    ``cache`` as for :class:`~repro.thermal.steady_state.SteadyStateSolver`.
    """

    def __init__(
        self, network: ThermalNetwork, *, cache: FactorizationCache | None = None
    ) -> None:
        self.network = network
        self.cache = cache if cache is not None else FactorizationCache(network)

    def step(
        self,
        temperatures: np.ndarray,
        power_map_w: np.ndarray,
        cooling: CoolingBoundary,
        dt_s: float,
    ) -> np.ndarray:
        """Advance the temperature field by one time step."""
        check_positive(dt_s, "dt_s")
        grid = self.network.grid
        temperatures = np.asarray(temperatures, dtype=float).ravel()
        if temperatures.size != grid.n_cells:
            raise ValidationError(
                f"temperature vector has {temperatures.size} entries, expected {grid.n_cells}"
            )
        operator = self.cache.transient_operator(cooling, dt_s)
        rhs = (
            operator.boundary_rhs
            + self.network.power_vector(power_map_w)
            + operator.capacitance_over_dt * temperatures
        )
        return np.asarray(operator.solve(rhs), dtype=float)

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
        (one factorization) and are back-substituted as a multi-column RHS,
        with row ``i`` identical to
        ``step(temperatures[i], power_maps_w[i], cooling, dt_s)``.

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

    def run(
        self,
        initial_temperature_c: float | np.ndarray,
        power_maps_w: Sequence[np.ndarray],
        cooling: CoolingBoundary | Sequence[CoolingBoundary],
        dt_s: float,
    ) -> Iterator[np.ndarray]:
        """Yield the temperature field after every step of a power sequence.

        ``cooling`` may be a single boundary reused for every step or one
        boundary per step (for flow-rate control studies).  With a single
        boundary the backward-Euler operator is factorized once and reused
        for the whole sequence.
        """
        grid = self.network.grid
        if np.isscalar(initial_temperature_c):
            state = np.full(grid.n_cells, float(initial_temperature_c), dtype=float)
        else:
            state = np.asarray(initial_temperature_c, dtype=float).ravel().copy()
            if state.size != grid.n_cells:
                raise ValidationError(
                    f"initial temperature vector has {state.size} entries, "
                    f"expected {grid.n_cells}"
                )
        boundaries: Sequence[CoolingBoundary]
        if isinstance(cooling, CoolingBoundary):
            boundaries = [cooling] * len(power_maps_w)
        else:
            boundaries = list(cooling)
            if len(boundaries) != len(power_maps_w):
                raise ValidationError(
                    "number of cooling boundaries must match number of power maps"
                )
        for power_map, boundary in zip(power_maps_w, boundaries):
            state = self.step(state, power_map, boundary, dt_s)
            yield state.copy()

    def settle(
        self,
        power_map_w: np.ndarray,
        cooling: CoolingBoundary,
        *,
        dt_s: float = 0.5,
        max_steps: int = 200,
        tolerance_c: float = 0.01,
        initial_temperature_c: float = 45.0,
    ) -> SettleResult:
        """March in time until the field stops changing.

        Useful as a cross-check of the steady-state solver: both must agree.
        Check :attr:`SettleResult.converged` — hitting ``max_steps`` with the
        field still moving is reported, not silently returned.
        """
        grid = self.network.grid
        state = np.full(grid.n_cells, float(initial_temperature_c), dtype=float)
        residual = float("inf")
        for step_index in range(1, max_steps + 1):
            new_state = self.step(state, power_map_w, cooling, dt_s)
            residual = float(np.max(np.abs(new_state - state)))
            state = new_state
            if residual < tolerance_c:
                return SettleResult(
                    temperatures=state,
                    steps=step_index,
                    converged=True,
                    residual_c=residual,
                )
        return SettleResult(
            temperatures=state,
            steps=max_steps,
            converged=False,
            residual_c=residual,
        )
