"""Per-rack state of the floor engine: fields, held boundaries and stage methods.

Section V evaluates whole racks — many thermosyphon-cooled servers behind
one chiller — and rack hardware is homogeneous: every server carries the
same CPU, the same thermosyphon design and therefore the *same thermal
network*.  A :class:`RackSession` is the only owner of one rack's state —

* the temperature fields as one ``(n_servers, n_cells)`` array, and
* one held cooling-boundary state per server (operating point + per-cell
  HTC/fluid maps), refreshed under the drift test
  (:data:`~repro.core.session.BOUNDARY_REFRESH_TOL`) —

and the stage methods :class:`repro.datacenter.floor.FloorEngine` drives
each control period: power evaluation (:meth:`RackSession._evaluate_power`),
refresh planning (:meth:`RackSession.plan_refresh`), holding a refreshed
boundary (:meth:`RackSession.store_boundary`) and adopting the advanced
fields as per-server results (:meth:`RackSession.finish_advance`).  The
physics — loop convergence, lane marches, stacked solves — runs in the
floor engine, the library's one transient loop, and the datacenter
session's loop drives it.  A standalone rack is a one-rack floor: see
:meth:`ThermosyphonController.run_rack_trace`, which seeds that floor from
a supplied session with :meth:`RackSession.snapshot` and hands the rack's
state back through :meth:`RackSession.restore`.
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
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint, ThermosyphonLoop
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_positive_int
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

    Captures everything a floor period evolves — the stacked temperature
    fields and the held cooling boundaries.  The boundary entries are
    themselves frozen dataclasses, so only the field array needs a
    defensive copy; a snapshot/restore pair is two array copies, which is
    what makes speculative MPC rollouts cheap.
    """

    temperatures: np.ndarray | None
    boundaries: tuple[_HeldBoundary | None, ...]


@dataclass(frozen=True)
class ServerAdvance:
    """Per-server outcome of one transient control period."""

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
    """One rack's transient state, advanced by the floor engine.

    Parameters
    ----------
    n_servers:
        Number of servers in the rack.  Every floor period must provide
        exactly this many loads for it.
    floorplan, design, power_model, thermal_simulator, cell_size_mm:
        The shared hardware substrate, as for
        :class:`~repro.core.pipeline.CooledServerSimulation`.  One thermal
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
        if isinstance(n_servers, int) and n_servers < 1:
            raise ConfigurationError(f"n_servers must be >= 1, got {n_servers}")
        self.n_servers = check_positive_int(n_servers, "n_servers")
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

    def check_snapshot(self, snapshot: RackSessionSnapshot) -> None:
        """Raise :class:`ValidationError` unless ``snapshot`` fits this rack."""
        if len(snapshot.boundaries) != self.n_servers:
            raise ValidationError(
                f"snapshot holds {len(snapshot.boundaries)} servers, "
                f"session has {self.n_servers}"
            )
        shape = (self.n_servers, self.thermal_simulator.grid.n_cells)
        fields = snapshot.temperatures
        if fields is not None and fields.shape != shape:
            raise ValidationError(
                f"snapshot fields have shape {fields.shape}, session needs {shape}"
            )

    def restore(self, snapshot: RackSessionSnapshot) -> None:
        """Rewind the session to a private copy of a :meth:`snapshot`'s state.

        A snapshot that fails :meth:`check_snapshot` leaves it untouched.
        """
        self.check_snapshot(snapshot)
        self._boundaries = list(snapshot.boundaries)
        self._temperatures = (
            None if snapshot.temperatures is None else snapshot.temperatures.copy()
        )

    def _resolve_case_cell_index(self) -> int:
        simulator = self.thermal_simulator
        grid = simulator.grid
        row, column = case_cell_row_column(
            self.floorplan, simulator.grid_mapper.outline, grid.n_rows, grid.n_columns
        )
        spreader = simulator.stack.index_of("heat_spreader")
        return spreader * grid.cells_per_layer + row * grid.n_columns + column

    # ------------------------------------------------------------------ #
    # Stages the floor engine drives
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

        Pure planning — nothing is rebuilt yet.  The floor engine collects
        every flagged server on the floor and batches the loop convergence
        and lane marches across racks before handing each boundary back
        through :meth:`store_boundary`.
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

        The floor engine stacks it into its group solve every period and
        hands the advanced rows back through :meth:`finish_advance` —
        ordinary callers should use the copying :attr:`temperatures`
        instead.
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

        ``fields`` becomes the session's state.  The floor engine passes
        this rack's rows of the group stack it just advanced; it never
        writes that stack again, so the session is the state's only owner.
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
