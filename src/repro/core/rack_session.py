"""Rack-scale simulation engine: every server batched through one operator.

Section V evaluates whole racks — many thermosyphon-cooled servers behind
one chiller — and rack hardware is homogeneous: every server carries the
same CPU, the same thermosyphon design and therefore the *same thermal
network*.  :class:`RackSession` exploits that: instead of running
``n_servers`` independent :class:`~repro.core.session.SimulationSession`
pipelines (each paying its own operator factorization, lane march and
loop-convergence iteration), it owns the stacked per-server state —

* the temperature fields as one ``(n_servers, n_cells)`` array, and
* one held cooling-boundary state per server (operating point + per-cell
  HTC/fluid maps), refreshed under the single-server session's drift test
  (:data:`~repro.core.session.BOUNDARY_REFRESH_TOL`) —

and batches every layer of the evaluation:

1. **Loop layer** — servers are grouped by ``(water loop, total power)``;
   each group converges the thermosyphon operating point once.
2. **Thermosyphon layer** — every server being refreshed marches its
   evaporator lanes, at its own operating point, in one stacked
   ``(n_servers * n_lanes, n_cells)`` array through
   :meth:`ThermosyphonLoop.cooling_boundaries`.
3. **Solver layer** — servers are grouped by cooling-boundary content
   (:meth:`CoolingBoundary.cache_token`); each group is solved through one
   cached factorization with a single multi-column back-substitution
   (:meth:`ThermalSimulator.steady_state_many_from_maps` /
   :meth:`~ThermalSimulator.transient_step_many_from_maps`).

Because ``dpbtrs`` back-substitutes multi-column right-hand sides column
by column and the lane march is elementwise across lanes, every batched
result is identical (to the last bit) to the per-server path — the
per-server session stays the golden model.  On a homogeneous rack the
whole rack costs *one* factorization where independent sessions pay
``n_servers``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.session import (
    EvaluationResult,
    build_evaluation_result,
    power_drift_exceeds,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import PowerBreakdown, ServerPowerModel
from repro.thermal.simulator import ThermalSimulator, case_cell_row_column
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint, ThermosyphonLoop
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_positive
from repro.workloads.benchmark import BenchmarkCharacteristics


@dataclass(frozen=True)
class ServerLoad:
    """The resolved work one server carries during a rack step.

    ``water_loop`` is the server's condenser water condition (``None`` uses
    the design default — the shared-chiller case where every server sees the
    same inlet temperature and flow).
    """

    benchmark: BenchmarkCharacteristics
    mapping: WorkloadMapping
    activity_factor: float = 1.0
    water_loop: WaterLoop | None = None


@dataclass(frozen=True)
class _HeldBoundary:
    """One server's held cooling-boundary state on the transient lane."""

    operating_point: LoopOperatingPoint
    boundary_result: BoundaryResult
    water_loop: WaterLoop
    total_power_w: float


@dataclass(frozen=True)
class RackSessionSnapshot:
    """Frozen copy of a :class:`RackSession`'s mutable state.

    Captures everything :meth:`RackSession.advance` evolves — the stacked
    temperature fields and the held cooling boundaries.  The boundary
    entries are themselves frozen dataclasses, so only the field array
    needs a defensive copy; a snapshot/restore pair is two array copies,
    which is what makes speculative MPC rollouts cheap.
    """

    temperatures: np.ndarray | None
    boundaries: tuple[_HeldBoundary | None, ...]


@dataclass(frozen=True)
class ServerAdvance:
    """Per-server outcome of one :meth:`RackSession.advance` call."""

    result: EvaluationResult
    settle_residual_c: float
    period_peak_case_c: float
    boundary_refreshed: bool


@dataclass(frozen=True)
class RackAdvance:
    """Outcome of one rack-wide transient control period."""

    servers: tuple[ServerAdvance, ...]
    dt_s: float
    n_substeps: int

    @property
    def boundary_refreshes(self) -> int:
        """How many servers rebuilt their cooling boundary this period."""
        return sum(1 for server in self.servers if server.boundary_refreshed)

    @property
    def worst_case_temperature_c(self) -> float:
        """Highest period-end case temperature across the rack."""
        return max(server.result.case_temperature_c for server in self.servers)

    @property
    def worst_period_peak_case_c(self) -> float:
        """Highest within-period case temperature across the rack."""
        return max(server.period_peak_case_c for server in self.servers)


class RackSession:
    """Many identical servers simulated through one shared thermal operator.

    Parameters
    ----------
    n_servers:
        Number of servers in the rack.  Every :meth:`solve_steady` /
        :meth:`advance` call must provide exactly this many loads.
    floorplan, design, power_model, thermal_simulator, cell_size_mm:
        The shared hardware substrate, as for
        :class:`~repro.core.session.SimulationSession`.  One thermal
        simulator (network + factorization cache) serves the whole rack.
    """

    def __init__(
        self,
        n_servers: int,
        *,
        floorplan: Floorplan | None = None,
        design: ThermosyphonDesign = PAPER_OPTIMIZED_DESIGN,
        power_model: ServerPowerModel | None = None,
        thermal_simulator: ThermalSimulator | None = None,
        cell_size_mm: float = 1.0,
    ) -> None:
        if n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {n_servers}")
        self.n_servers = int(n_servers)
        self.floorplan = floorplan if floorplan is not None else build_xeon_e5_v4_floorplan()
        self.design = design
        self.power_model = (
            power_model if power_model is not None else ServerPowerModel(self.floorplan)
        )
        self.thermal_simulator = (
            thermal_simulator
            if thermal_simulator is not None
            else ThermalSimulator(self.floorplan, cell_size_mm=cell_size_mm)
        )
        self.loop = ThermosyphonLoop(design)
        self._mapper = ThreadMapper(self.floorplan, orientation=design.orientation)
        self._temperatures: np.ndarray | None = None
        self._boundaries: list[_HeldBoundary | None] = [None] * self.n_servers
        # Case temperature is one cell of the heat-spreader plane; resolve
        # its flat index once so the substep peak scan is a single gather.
        self._case_cell_index = self._resolve_case_cell_index()

    # ------------------------------------------------------------------ #
    # Introspection and state management
    # ------------------------------------------------------------------ #
    @property
    def temperatures(self) -> np.ndarray | None:
        """Stacked ``(n_servers, n_cells)`` fields, or None before a trace."""
        if self._temperatures is None:
            return None
        return self._temperatures.copy()

    def reset(self) -> None:
        """Forget every server's temperature field and boundary state."""
        self._temperatures = None
        self._boundaries = [None] * self.n_servers

    def snapshot(self) -> RackSessionSnapshot:
        """Copy the session's mutable state for a later :meth:`restore`.

        The hardware substrate (simulator, factorization cache, mapper) is
        shared, not copied — a restored session replays through the same
        cached factorizations, so a speculative rollout pays only
        back-substitutions.
        """
        return RackSessionSnapshot(
            temperatures=(
                None if self._temperatures is None else self._temperatures.copy()
            ),
            boundaries=tuple(self._boundaries),
        )

    def restore(
        self, snapshot: RackSessionSnapshot, *, fields: np.ndarray | None = None
    ) -> None:
        """Rewind the session to a :meth:`snapshot`'s state.

        ``fields`` optionally rebinds the temperature state onto an
        externally restored array — the floor engine passes the row-block
        view into its restored group array, preserving the view
        relationship :meth:`finish_advance` established; standalone callers
        omit it and re-adopt a private copy of the snapshot's array.
        """
        if len(snapshot.boundaries) != self.n_servers:
            raise ValidationError(
                f"snapshot holds {len(snapshot.boundaries)} servers, "
                f"session has {self.n_servers}"
            )
        self._boundaries = list(snapshot.boundaries)
        if fields is not None:
            self._temperatures = fields
        elif snapshot.temperatures is None:
            self._temperatures = None
        else:
            self._temperatures = snapshot.temperatures.copy()

    def cache_stats(self) -> CacheStats:
        """Factorization-cache counters of the shared thermal simulator.

        :class:`CacheStats` is additive, so rack studies spanning several
        sessions (for example the per-server golden loop next to this
        engine) can merge their counters with ``sum(..., CacheStats.zero())``.
        """
        cache = self.thermal_simulator.solver_cache
        if cache is None:
            return CacheStats.zero()
        return cache.stats

    def _resolve_case_cell_index(self) -> int:
        simulator = self.thermal_simulator
        grid = simulator.grid
        row, column = case_cell_row_column(
            self.floorplan, simulator.grid_mapper.outline, grid.n_rows, grid.n_columns
        )
        spreader = simulator.stack.index_of("heat_spreader")
        return spreader * grid.cells_per_layer + row * grid.n_columns + column

    # ------------------------------------------------------------------ #
    # Shared batched stages
    # ------------------------------------------------------------------ #
    def _check_loads(self, loads: Sequence[ServerLoad]) -> list[ServerLoad]:
        loads = list(loads)
        if len(loads) != self.n_servers:
            raise ValidationError(
                f"expected {self.n_servers} server loads, got {len(loads)}"
            )
        return loads

    def _evaluate_power(
        self, loads: Sequence[ServerLoad], *, memo: dict | None = None
    ) -> tuple[list[PowerBreakdown], np.ndarray, list[WaterLoop]]:
        """Per-server power models; returns breakdowns, stacked maps, loops.

        ``memo`` optionally caches ``(breakdown, power_map)`` pairs keyed by
        the load's (benchmark, mapping, activity) identity — the power model
        is a deterministic pure function of those, so servers carrying the
        same workload at the same activity share one evaluation.  The floor
        engine passes one memo per hardware group (mapper and power model
        are fixed per group, so the key never crosses models).
        """
        breakdowns: list[PowerBreakdown] = []
        maps: list[np.ndarray] = []
        water_loops: list[WaterLoop] = []
        for load in loads:
            key = (
                (id(load.benchmark), id(load.mapping), load.activity_factor)
                if memo is not None
                else None
            )
            cached = memo.get(key) if memo is not None else None
            if cached is None:
                activities = self._mapper.activities(
                    load.benchmark, load.mapping, activity_factor=load.activity_factor
                )
                breakdown = self.power_model.evaluate(
                    activities,
                    load.mapping.configuration.frequency_ghz,
                    memory_intensity=load.benchmark.memory_intensity,
                )
                power_map = self.thermal_simulator.power_map(
                    breakdown.component_power_w
                )
                if memo is not None:
                    memo[key] = (breakdown, power_map)
            else:
                breakdown, power_map = cached
            breakdowns.append(breakdown)
            maps.append(power_map)
            water_loops.append(
                load.water_loop if load.water_loop is not None else self.design.water_loop()
            )
        return breakdowns, np.stack(maps), water_loops

    def _operating_points(
        self,
        power_maps: np.ndarray,
        water_loops: Sequence[WaterLoop],
        server_indices: Sequence[int],
    ) -> dict[int, LoopOperatingPoint]:
        """Converge the loop once per distinct (water loop, total power).

        Identical hardware at the same heat load and water condition reaches
        the same operating point, so a homogeneous rack converges the
        condenser/circulation iteration once instead of ``n_servers`` times.
        """
        points: dict[int, LoopOperatingPoint] = {}
        groups: dict[tuple, LoopOperatingPoint] = {}
        for index in server_indices:
            total_power = float(power_maps[index].sum())
            key = (water_loops[index], total_power)
            point = groups.get(key)
            if point is None:
                point = self.loop.operating_point(total_power, water_loops[index])
                groups[key] = point
            points[index] = point
        return points

    def _cooling_boundaries(
        self,
        power_maps: np.ndarray,
        operating_points: dict[int, LoopOperatingPoint],
    ) -> dict[int, BoundaryResult]:
        """One lane march for every server in ``operating_points``."""
        indices = list(operating_points)
        results = self.loop.cooling_boundaries(
            power_maps[indices],
            self.thermal_simulator.grid.cell_pitch_mm(),
            [operating_points[index] for index in indices],
        )
        return dict(zip(indices, results))

    def _group_by_boundary(
        self, boundaries: Sequence[BoundaryResult]
    ) -> list[list[int]]:
        """Server indices grouped by cooling-boundary content."""
        groups: dict[tuple, list[int]] = {}
        for index, boundary in enumerate(boundaries):
            groups.setdefault(boundary.boundary.cache_token(), []).append(index)
        return list(groups.values())

    def _steady_fields(
        self, power_maps: np.ndarray, boundaries: Sequence[BoundaryResult]
    ) -> np.ndarray:
        """Equilibrium fields for every server, one solve per boundary group."""
        fields = np.empty(
            (len(boundaries), self.thermal_simulator.grid.n_cells), dtype=float
        )
        for indices in self._group_by_boundary(boundaries):
            fields[indices] = self.thermal_simulator.steady_state_many_from_maps(
                power_maps[indices], boundaries[indices[0]].boundary
            )
        return fields

    def _build_results(
        self,
        loads: Sequence[ServerLoad],
        breakdowns: Sequence[PowerBreakdown],
        fields: np.ndarray,
        operating_points: dict[int, LoopOperatingPoint],
        boundaries: Sequence[BoundaryResult],
        water_loops: Sequence[WaterLoop],
    ) -> list[EvaluationResult]:
        results = []
        for index, load in enumerate(loads):
            results.append(
                build_evaluation_result(
                    benchmark_name=load.benchmark.name,
                    configuration=load.mapping.configuration,
                    mapping=load.mapping,
                    breakdown=breakdowns[index],
                    thermal_result=self.thermal_simulator.result_from_vector(
                        fields[index]
                    ),
                    operating_point=operating_points[index],
                    boundary_result=boundaries[index],
                    water_loop=water_loops[index],
                )
            )
        return results

    # ------------------------------------------------------------------ #
    # Quasi-static lane
    # ------------------------------------------------------------------ #
    def solve_steady(self, loads: Sequence[ServerLoad]) -> list[EvaluationResult]:
        """Equilibrium evaluation of every server, batched per boundary.

        Results are identical to running each load through a fresh
        :meth:`SimulationSession.solve_steady_mapping`, but servers sharing a
        cooling boundary (a homogeneous rack) cost one factorization and one
        multi-column back-substitution for the whole group.
        """
        loads = self._check_loads(loads)
        breakdowns, power_maps, water_loops = self._evaluate_power(loads)
        operating_points = self._operating_points(
            power_maps, water_loops, range(len(loads))
        )
        boundary_map = self._cooling_boundaries(power_maps, operating_points)
        boundaries = [boundary_map[index] for index in range(len(loads))]
        fields = self._steady_fields(power_maps, boundaries)
        return self._build_results(
            loads, breakdowns, fields, operating_points, boundaries, water_loops
        )

    # ------------------------------------------------------------------ #
    # Transient lane
    # ------------------------------------------------------------------ #
    def _needs_refresh(
        self, server: int, total_power: float, water_loop: WaterLoop, force: bool
    ) -> bool:
        state = self._boundaries[server]
        if force or state is None or state.water_loop != water_loop:
            return True
        return power_drift_exceeds(total_power, state.total_power_w)

    def normalize_force_flags(
        self, force_boundary_refresh: bool | Sequence[bool]
    ) -> list[bool]:
        """One refresh flag per server from a scalar or per-server sequence."""
        if isinstance(force_boundary_refresh, bool):
            return [force_boundary_refresh] * self.n_servers
        force = [bool(flag) for flag in force_boundary_refresh]
        if len(force) != self.n_servers:
            raise ValidationError(
                f"expected {self.n_servers} refresh flags, got {len(force)}"
            )
        return force

    def plan_refresh(
        self,
        power_maps: np.ndarray,
        water_loops: Sequence[WaterLoop],
        force: Sequence[bool],
    ) -> list[bool]:
        """Which servers must rebuild their cooling boundary this period.

        Pure planning — nothing is rebuilt yet.  The standalone
        :meth:`advance` refreshes the flagged servers rack-locally through
        :meth:`refresh_boundaries`; the datacenter floor engine instead
        collects every flagged server on the floor and batches the loop
        convergence and lane marches across racks before handing each
        boundary back through :meth:`store_boundary`.
        """
        return [
            self._needs_refresh(
                index, float(power_maps[index].sum()), water_loops[index], force[index]
            )
            for index in range(self.n_servers)
        ]

    def store_boundary(
        self,
        index: int,
        operating_point: LoopOperatingPoint,
        boundary_result: BoundaryResult,
        water_loop: WaterLoop,
        total_power_w: float,
    ) -> None:
        """Hold one server's freshly converged cooling-boundary state."""
        self._boundaries[index] = _HeldBoundary(
            operating_point=operating_point,
            boundary_result=boundary_result,
            water_loop=water_loop,
            total_power_w=total_power_w,
        )

    def refresh_boundaries(
        self,
        power_maps: np.ndarray,
        water_loops: Sequence[WaterLoop],
        refreshed: Sequence[bool],
    ) -> None:
        """Rebuild the flagged servers' boundaries, batched rack-locally."""
        stale = [index for index in range(self.n_servers) if refreshed[index]]
        if not stale:
            return
        operating_points = self._operating_points(power_maps, water_loops, stale)
        boundary_map = self._cooling_boundaries(power_maps, operating_points)
        for index in stale:
            self.store_boundary(
                index,
                operating_points[index],
                boundary_map[index],
                water_loops[index],
                float(power_maps[index].sum()),
            )

    def held_boundaries(self) -> list[_HeldBoundary]:
        """Every server's held boundary state (raises before the first hold)."""
        held = [state for state in self._boundaries if state is not None]
        if len(held) != self.n_servers:
            raise ValidationError(
                "not every server holds a cooling boundary yet; refresh first"
            )
        return held

    @property
    def case_cell_index(self) -> int:
        """Flat cell index of the ``T_CASE`` measurement point."""
        return self._case_cell_index

    @property
    def fields(self) -> np.ndarray | None:
        """The live stacked state array (no copy; None before a trace).

        The floor engine reads this to seed its group arrays and rebinds it
        through :meth:`finish_advance` — ordinary callers should use the
        copying :attr:`temperatures` instead.
        """
        return self._temperatures

    def finish_advance(
        self,
        loads: Sequence[ServerLoad],
        breakdowns: Sequence[PowerBreakdown],
        water_loops: Sequence[WaterLoop],
        fields: np.ndarray,
        residuals: np.ndarray,
        peak_case: np.ndarray,
        refreshed: Sequence[bool],
        dt_s: float,
        n_substeps: int,
    ) -> RackAdvance:
        """Adopt advanced fields and build the per-server results.

        ``fields`` becomes the session's state — when the floor engine
        calls this, it is a row-block **view** of the floor's stacked group
        array, which is exactly how a rack session participates in a floor:
        same API, state owned one level up.
        """
        self._temperatures = fields
        held = self.held_boundaries()
        servers = []
        for index, load in enumerate(loads):
            state = held[index]
            result = build_evaluation_result(
                benchmark_name=load.benchmark.name,
                configuration=load.mapping.configuration,
                mapping=load.mapping,
                breakdown=breakdowns[index],
                thermal_result=self.thermal_simulator.result_from_vector(fields[index]),
                operating_point=state.operating_point,
                boundary_result=state.boundary_result,
                water_loop=water_loops[index],
            )
            servers.append(
                ServerAdvance(
                    result=result,
                    settle_residual_c=float(residuals[index]),
                    period_peak_case_c=float(peak_case[index]),
                    boundary_refreshed=bool(refreshed[index]),
                )
            )
        return RackAdvance(servers=tuple(servers), dt_s=dt_s, n_substeps=n_substeps)

    def advance(
        self,
        loads: Sequence[ServerLoad],
        dt_s: float = 1.0,
        *,
        n_substeps: int = 1,
        force_boundary_refresh: bool | Sequence[bool] = False,
    ) -> RackAdvance:
        """Advance every server's field by ``dt_s`` at its current load.

        The rack-wide counterpart of :meth:`SimulationSession.advance`: the
        first call initializes all fields from batched steady solves, later
        calls take ``n_substeps`` backward-Euler steps in which servers
        holding the same cooling boundary advance through one cached
        operator per substep.  ``force_boundary_refresh`` is one flag for
        the whole rack or one per server (per-server actuator events).

        Composed of the same stages the datacenter floor engine drives —
        power evaluation, refresh planning, boundary refresh, steady init,
        substep marching, :meth:`finish_advance` — with the physics batched
        rack-locally instead of floor-wide.
        """
        loads = self._check_loads(loads)
        check_positive(dt_s, "dt_s")
        if n_substeps < 1:
            raise ValidationError(f"n_substeps must be >= 1, got {n_substeps}")
        force = self.normalize_force_flags(force_boundary_refresh)

        breakdowns, power_maps, water_loops = self._evaluate_power(loads)

        # Refresh stale boundaries, batching the loop/evaporator work of the
        # refreshing servers; the rest keep their held state.
        refreshed = self.plan_refresh(power_maps, water_loops, force)
        self.refresh_boundaries(power_maps, water_loops, refreshed)
        boundaries = [state.boundary_result for state in self.held_boundaries()]

        if self._temperatures is None:
            self._temperatures = self._steady_fields(power_maps, boundaries)

        fields = self._temperatures
        sub_dt = dt_s / n_substeps
        residuals = np.zeros(self.n_servers, dtype=float)
        peak_case = np.full(self.n_servers, float("-inf"), dtype=float)
        groups = self._group_by_boundary(boundaries)
        for _ in range(n_substeps):
            new_fields = np.empty_like(fields)
            for indices in groups:
                new_fields[indices] = (
                    self.thermal_simulator.transient_step_many_from_maps(
                        fields[indices],
                        power_maps[indices],
                        boundaries[indices[0]].boundary,
                        sub_dt,
                    )
                )
            residuals = np.max(np.abs(new_fields - fields), axis=1)
            fields = new_fields
            peak_case = np.maximum(peak_case, fields[:, self._case_cell_index])

        return self.finish_advance(
            loads,
            breakdowns,
            water_loops,
            fields,
            residuals,
            peak_case,
            refreshed,
            dt_s,
            n_substeps,
        )
