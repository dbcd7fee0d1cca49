"""Floor engine: every server on the floor stacked through shared operators.

:class:`FloorEngine` is the library's one transient physics loop, and the
datacenter session (:class:`repro.datacenter.model.DatacenterSession`) is
the one loop that drives it: over a whole floor, or over the one-rack floor
that :meth:`ThermosyphonController.run_rack_trace` (and therefore
``run_trace(mode="transient")``) builds.  Advancing racks one at a time
would make a homogeneous 20-rack floor pay 20 multi-RHS
back-substitutions per substep where the physics permits one, so every
period the engine stacks the fields of each **hardware group** (racks
sharing one thermal network, i.e. one
:class:`~repro.thermal.simulator.ThermalSimulator`) into one
``(n_servers_in_group, n_cells)`` array and advances it as a whole.  The
rack sessions stay the only owners of per-server state: the floor keeps no
field arrays between periods.  Each control period runs four floor-wide
batched stages:

1. **Power** — per-server power models, memoized per hardware group:
   servers carrying the same (benchmark, mapping, activity) triple share
   one evaluation, because the power model is a deterministic pure
   function of them.
2. **Refresh** — every stale cooling boundary on the floor is grouped by
   (thermosyphon design, water condition, total power), and each group
   converges the loop operating point *once*.  The evaporator lanes of
   every stale server then march through **one** stacked
   :meth:`~repro.thermosyphon.loop.ThermosyphonLoop.cooling_boundaries`
   call per (design, hardware group), each server at its own operating
   point — across racks and operating points, not per rack or per point.
3. **Solve** — stacked from the rack sessions, the group's fields are
   partitioned by cooling-boundary content; cold rows are
   steady-initialized (``steady_state_many_from_maps``), then each solve
   group marches all its backward-Euler substeps through one
   :meth:`~repro.thermal.simulator.ThermalSimulator.\
transient_step_many_from_maps` per substep — one factorization and one
   multi-RHS back-substitution for *all* servers sharing an operator,
   whatever rack they sit in.  That march is the engine's only substep
   loop: a fine period (:meth:`FloorEngine.advance`) is a span of one,
   and a coarse span (:meth:`FloorEngine.advance_span`) runs it only for
   the rows its reduced-order lane hands back.
4. **Finish** — each rack session takes its rows of the advanced group
   stack back through :meth:`RackSession.finish_advance`, so the rack-level
   API (results, settle residuals, boundary hold policy) is unchanged.

Because ``dpbtrs`` back-substitutes multi-column right-hand sides column
by column and the lane march is elementwise across servers, stacking
across racks changes *nothing numerically*: at a fixed setpoint every
server of the floor is bit-identical to the per-server loop kept as the
golden model in ``tests/reference_session.py``.  Heterogeneous floors
(mixed SKUs/designs) need no fallback — each hardware group simply stacks
fewer rows.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from repro.core.rack_session import (
    RackAdvance,
    RackSession,
    RackSessionSnapshot,
    ServerLoad,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.obs.telemetry import get_telemetry
from repro.thermal.boundary import CoolingBoundary
from repro.thermal.rom import RomConfig, RomStats, build_reduced_operator
from repro.thermosyphon.loop import BoundaryResult, LoopOperatingPoint
from repro.utils.validation import (
    check_non_negative_int,
    check_positive,
    check_positive_int,
)

__all__ = ["FloorAdvance", "FloorEngine", "FloorSnapshot"]


@dataclass(frozen=True)
class FloorSnapshot:
    """Frozen copy of the floor's warm state for speculative rollouts.

    Every rack session's :class:`RackSessionSnapshot` (fields and held
    boundaries) — the sessions are the floor's only per-server state, so a
    restored floor is *warm*: the next advance carries fields instead of
    re-solving steady state, and every cached factorization and memoized
    operating point survives (they live on the shared simulators/engine,
    not in the snapshot).  A rollout still meets a new operator for every
    boundary it refreshes; passed back to :meth:`FloorEngine.advance` as
    ``reference``, the snapshot's held boundaries precondition those
    single-use solves, so they need no factorization of their own.
    """

    rack_snapshots: tuple[RackSessionSnapshot, ...]


@dataclass(frozen=True)
class FloorAdvance:
    """Outcome of ``span`` floor-wide control periods of physics.

    A fine control period is a span of one.  ``racks[r]`` is rack ``r``'s
    :class:`RackAdvance` *for the final period of the span* (the one the
    controller's decision rule evaluates), built by
    :meth:`RackSession.finish_advance`.  ``period_case_c[r]`` /
    ``period_peak_case_c[r]`` are ``(span, n_servers)`` arrays of
    per-period-end case temperatures and within-period peaks, read off the
    full substep march or, in a coarse span, the reduced-order lane — the
    per-period observability that lets a coarse trace keep the fine lane's
    record shape.  ``period_worst_peak_c[j]`` is the floor-wide worst
    within-period peak of period ``j``, and ``worst_period_peak_case_c``
    the span's — the floor-level predicted-peak input of the supervisory
    setpoint loop.
    """

    racks: tuple[RackAdvance, ...]
    span: int
    period_case_c: tuple[np.ndarray, ...]
    period_peak_case_c: tuple[np.ndarray, ...]
    period_worst_peak_c: np.ndarray

    @property
    def worst_period_peak_case_c(self) -> float:
        """Highest within-span peak case temperature across the floor."""
        return float(self.period_worst_peak_c.max())

    @property
    def n_racks(self) -> int:
        """Number of racks advanced."""
        return len(self.racks)


class _HardwareGroup:
    """One stack of racks sharing a thermal network (and its cache)."""

    def __init__(
        self, index: int, rack_indices: list[int], sessions: Sequence[RackSession]
    ):
        # Stable position in the floor's group list — the ``group=`` span
        # attribute, so traces attribute work to groups across threads.
        self.index = index
        self.rack_indices = rack_indices
        self.simulator = sessions[rack_indices[0]].thermal_simulator
        self.case_cell_index = sessions[rack_indices[0]].case_cell_index
        self.n_servers = sum(sessions[r].n_servers for r in rack_indices)
        # Contiguous row blocks, one per rack, in rack order.
        self.rack_rows: dict[int, slice] = {}
        offset = 0
        for r in rack_indices:
            self.rack_rows[r] = slice(offset, offset + sessions[r].n_servers)
            offset += sessions[r].n_servers


class FloorEngine:
    """Advances every rack on the floor through stacked group solves.

    Parameters
    ----------
    rack_sessions:
        One :class:`RackSession` per rack.  Sessions sharing a thermal
        simulator form one hardware group and stack their state; sessions
        with distinct simulators (mixed SKUs) form separate groups — the
        engine handles any mix, there is no homogeneous-only fast path to
        fall back from.
    parallel_groups:
        Worker-thread budget for advancing hardware groups concurrently.
        ``0`` (the default) and ``1`` run the serial loop; ``>= 2`` fans
        the per-group solves of :meth:`advance` / :meth:`advance_span`
        over a persistent thread pool.  Every hardware group owns a
        disjoint slice of floor state (its own simulator, factorization
        cache and rack sessions).  The banded
        Cholesky factorizations and back-substitutions that dominate a
        group's step hold the GIL, so groups overlap only their NumPy work
        that releases it; the factor and solve calls themselves take turns.
        On a 2-vCPU host that makes threads slower than the serial loop:
        the two-SKU perfbench ``coarse_2sku`` floor (seed 7, warm store
        filled) ran in 1.25-1.39 s serially and 1.64-1.75 s with
        ``parallel_groups=2``.  A budget that is not an ``int`` raises
        :class:`ValidationError`; a negative one raises
        :class:`ConfigurationError`.
        Results are **bit-identical** to the serial loop: workers never
        share mutable state, and all commits that have an order (RomStats
        merging, worst-peak reduction) happen on the calling thread in
        group-index order after the join.
    """

    def __init__(
        self, rack_sessions: Sequence[RackSession], *, parallel_groups: int = 0
    ) -> None:
        if isinstance(parallel_groups, int) and parallel_groups < 0:
            raise ConfigurationError(
                f"parallel_groups must be >= 0, got {parallel_groups}"
            )
        self.parallel_groups = check_non_negative_int(parallel_groups, "parallel_groups")
        self.rack_sessions = list(rack_sessions)
        if not self.rack_sessions:
            raise ConfigurationError("a floor engine needs at least one rack session")
        by_simulator: dict[int, list[int]] = {}
        for r, session in enumerate(self.rack_sessions):
            by_simulator.setdefault(id(session.thermal_simulator), []).append(r)
        self._groups = [
            _HardwareGroup(index, rack_indices, self.rack_sessions)
            for index, rack_indices in enumerate(by_simulator.values())
        ]
        self._group_of_rack: dict[int, _HardwareGroup] = {}
        for group in self._groups:
            for r in group.rack_indices:
                self._group_of_rack[r] = group
        # Floor-lifetime operating-point memo: the loop convergence is a
        # deterministic pure function of (design, water condition, total
        # power), so a key converged during an MPC rollout is free when the
        # committed trajectory replays it — and vice versa.  Insertion-order
        # eviction bounds it on long traces with ever-fresh loads.
        self._point_memo: dict[tuple, LoopOperatingPoint] = {}
        self._point_memo_max_entries = 4096
        # Decisions of the reduced-order lane behind :meth:`advance_span`,
        # accumulated for the floor's lifetime — trace engines report deltas.
        self.rom_stats = RomStats()
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------------ #
    # Thread-parallel group dispatch
    # ------------------------------------------------------------------ #
    def _map_groups(self, worker: Callable[[_HardwareGroup], object]) -> list:
        """Run ``worker`` once per hardware group, results in group order.

        The threaded path only changes *where* each group's solves run;
        workers write exclusively to their group's disjoint state (plus
        disjoint indices of caller-owned result lists, which is safe under
        the GIL), and the returned list is always in group-index order so
        every order-sensitive commit on the caller side is deterministic
        regardless of completion order.  Every worker is joined before
        this returns or raises (the first failure in group-index order), so
        no group is still writing floor state once the caller sees an
        exception — and, say, restores a snapshot.
        """
        if self.parallel_groups < 2 or len(self._groups) < 2:
            return [worker(group) for group in self._groups]
        obs = get_telemetry()
        run = worker
        if obs.enabled:
            # Thread-pool queue latency: time from submission to the moment
            # a worker actually picks the group up.  Observation only — the
            # result order is unchanged.
            submit_ns = time.perf_counter_ns()

            def timed_worker(group: _HardwareGroup) -> object:
                obs.observe(
                    "floor.queue_latency_us",
                    (time.perf_counter_ns() - submit_ns) / 1_000.0,
                )
                return worker(group)

            run = timed_worker
        executor = self._ensure_executor()
        futures = [executor.submit(run, group) for group in self._groups]
        wait(futures)
        return [future.result() for future in futures]

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=min(self.parallel_groups, len(self._groups)),
                thread_name_prefix="floor-group",
            )
        return self._executor

    def close(self) -> None:
        """Shut down the worker pool (idempotent; serial floors are no-ops)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def n_racks(self) -> int:
        """Number of racks on the floor."""
        return len(self.rack_sessions)

    @property
    def n_servers(self) -> int:
        """Total number of servers across the floor."""
        return sum(session.n_servers for session in self.rack_sessions)

    @property
    def n_hardware_groups(self) -> int:
        """Number of distinct thermal networks (stacked solve groups)."""
        return len(self._groups)

    def boundary_groups(self) -> list[list[tuple[int, int]]]:
        """Current solve partition: ``(rack, server)`` pairs per operator.

        Servers land in the same group when they share both a thermal
        network and a cooling-boundary content
        (:meth:`~repro.thermal.boundary.CoolingBoundary.cache_token`) —
        exactly the servers whose next substep is one stacked solve.  A
        valve action, DVFS move or water-setpoint change re-partitions the
        floor at the next advance.  Servers that have not held a boundary
        yet (before the first advance) are omitted.
        """
        partition: dict[tuple, list[tuple[int, int]]] = {}
        for group in self._groups:
            for r in group.rack_indices:
                session = self.rack_sessions[r]
                for s, state in enumerate(session._boundaries):
                    if state is None:
                        continue
                    token = (id(group), state.boundary_result.boundary.cache_token())
                    partition.setdefault(token, []).append((r, s))
        return list(partition.values())

    def reset(self) -> None:
        """Cold-start the floor: reset every rack session."""
        for session in self.rack_sessions:
            session.reset()

    # ------------------------------------------------------------------ #
    # Snapshot / restore for speculative rollouts
    # ------------------------------------------------------------------ #
    def snapshot(self) -> FloorSnapshot:
        """Copy the floor's warm mutable state for a later :meth:`restore`.

        One field copy per rack session plus its (frozen) boundary tuple —
        no simulator, cache or network state is copied, which is what keeps
        an MPC rollout's cost down to the back-substitutions the rollout
        itself performs.
        """
        return FloorSnapshot(
            rack_snapshots=tuple(session.snapshot() for session in self.rack_sessions)
        )

    def restore(self, snapshot: FloorSnapshot) -> None:
        """Rewind the floor to a :meth:`snapshot`'s state, still warm.

        All or nothing: every rack session checks its snapshot before any
        is restored, so a snapshot that does not fit raises
        :class:`ValidationError` with the floor untouched.  Each session
        restores a private copy of its fields (the snapshot stays valid for
        further restores — one snapshot serves every candidate of an MPC
        planning step), so the next advance carries fields bit-identically.
        """
        self._check_snapshot(snapshot, "snapshot")
        for session, saved in zip(self.rack_sessions, snapshot.rack_snapshots):
            session.restore(saved)

    def _check_snapshot(self, snapshot: FloorSnapshot, name: str) -> None:
        """Raise :class:`ValidationError` unless every rack of it fits."""
        if len(snapshot.rack_snapshots) != self.n_racks:
            raise ValidationError(
                f"{name} holds {len(snapshot.rack_snapshots)} racks, "
                f"floor has {self.n_racks}"
            )
        for r, (session, saved) in enumerate(
            zip(self.rack_sessions, snapshot.rack_snapshots)
        ):
            try:
                session.check_snapshot(saved)
            except ValidationError as error:
                raise ValidationError(f"{name} rack {r}: {error}") from None

    # ------------------------------------------------------------------ #
    # The floor-wide step: a fine period is a span of one
    # ------------------------------------------------------------------ #
    def advance(
        self,
        rack_loads: Sequence[Sequence[ServerLoad]],
        dt_s: float,
        *,
        n_substeps: int = 1,
        force_boundary_refresh: Sequence[bool | Sequence[bool]] | None = None,
        reference: FloorSnapshot | None = None,
    ) -> FloorAdvance:
        """Advance every server on the floor by ``dt_s``.

        ``rack_loads[r]`` is rack ``r``'s per-server loads;
        ``force_boundary_refresh[r]`` is that rack's flag or per-server
        flags.  The first advance of a cold session initializes its fields
        from a steady solve; later ones take ``n_substeps`` backward-Euler
        steps of ``dt_s / n_substeps``.  Every server's result is
        bit-identical to advancing it alone — the stacking only changes how
        many rows each factorized operator back-substitutes at once.
        Arguments, ``reference`` included, are checked before any state
        changes.

        ``reference`` is the snapshot an MPC rollout started from, and must
        fit the floor as a :meth:`restore` argument would.  With it, a
        single-substep period solves a solve group iteratively
        (within tier B of the exact step) when the group is one server
        whose boundary differs from the one it held in ``reference``: the
        solver cache's iterative lane, preconditioned by the factor of
        that reference boundary.  Every other group factors as usual.  The
        rule reads only the request and the snapshot, never the cache.
        """
        check_positive(dt_s, "dt_s")
        check_positive_int(n_substeps, "n_substeps")
        if reference is not None:
            self._check_snapshot(reference, "reference snapshot")
        with get_telemetry().span("floor.advance", n_substeps=n_substeps):
            return self._advance(
                rack_loads, dt_s, 1, n_substeps, force_boundary_refresh,
                reference=reference,
            )

    def advance_span(
        self,
        rack_loads: Sequence[Sequence[ServerLoad]],
        dt_s: float,
        span: int,
        *,
        rom: RomConfig,
        n_substeps: int = 1,
        force_boundary_refresh: Sequence[bool | Sequence[bool]] | None = None,
        t_case_max_c: float | None = None,
    ) -> FloorAdvance:
        """Advance every server by ``span`` control periods of ``dt_s`` each.

        The caller (the datacenter session's coarsening planner) guarantees
        the span is quasi-steady: loads are held, no actuator fired last
        period and every settle residual is below tolerance.  Under that
        contract the floor advances the whole span without per-period
        decision evaluation, every solve group through two lanes:

        * **ROM lane** (configured by ``rom``): step in the cached Krylov
          subspace at the fine substep size — ``O(k^2)`` per substep —
          lifting only the case-cell readout per substep and the full
          field once at span end.  A cached basis is rebuilt first when
          it is stale for the span: an entry field lies outside it, or it
          cannot reach the steady state of the span's held power (a held
          boundary serves up to 15% of power drift).  The span's error is
          estimated, not bounded: the rigorous per-step a-posteriori bound
          (two ``(n, k)`` mat-vecs) is evaluated at the first, middle and
          last substep, and the largest sample is charged to every
          substep.
        * **Full fallback lane**: rows whose projection error or span
          error charge (the largest sampled per-step bound times the
          substep count) exceeds its tolerance, or whose lifted case
          temperature enters the ``t_case_max_c`` guard band, rerun the
          *entire* span through the substep march every :meth:`advance`
          runs (identical physics to ``span`` calls of it); the
          :class:`~repro.thermal.rom.RomStats` counters record why.

        Only the lanes differ from :meth:`advance`: stages 1, 2 and 4 and
        the result type are shared, and a span of one still runs the ROM
        lane.  Requires a warm floor (every rack session carrying a
        field); cold starts must go through :meth:`advance` first.
        Arguments and warmth are checked before any state changes.
        """
        check_positive(dt_s, "dt_s")
        check_positive_int(span, "span")
        check_positive_int(n_substeps, "n_substeps")
        # Warm check before stage 2 stores any refreshed boundary, so a
        # cold floor raises with its state untouched.
        if any(session.fields is None for session in self.rack_sessions):
            raise ConfigurationError(
                "advance_span requires a warm floor; advance at least "
                "one fine control period first"
            )
        with get_telemetry().span(
            "floor.advance_span", span=span, n_substeps=n_substeps
        ):
            return self._advance(
                rack_loads, dt_s, span, n_substeps, force_boundary_refresh,
                rom=rom, t_case_max_c=t_case_max_c,
            )

    def _advance(
        self,
        rack_loads: Sequence[Sequence[ServerLoad]],
        dt_s: float,
        span: int,
        n_substeps: int,
        force_boundary_refresh: Sequence[bool | Sequence[bool]] | None,
        *,
        rom: RomConfig | None = None,
        t_case_max_c: float | None = None,
        reference: FloorSnapshot | None = None,
    ) -> FloorAdvance:
        """Stages 1-4 for ``span`` periods of the whole floor.

        Stages 1-2 run once floor-wide; stages 3-4 run per hardware group
        on the stacked arrays — concurrently when ``parallel_groups``
        allows, since each group's state is disjoint.  ``rom`` (only from
        :meth:`advance_span`) puts every solve group on the reduced-order
        lane with full fallback; without it every group marches at full
        resolution.
        """
        obs = get_telemetry()
        loads, breakdowns, power_maps, water_loops, refreshed, boundaries = (
            self._prepare_period(rack_loads, force_boundary_refresh)
        )
        rack_advances: list[RackAdvance | None] = [None] * self.n_racks
        period_case: list[np.ndarray | None] = [None] * self.n_racks
        period_peak: list[np.ndarray | None] = [None] * self.n_racks
        if rom is None:
            group_span, span_attrs = "floor.advance_group", {}
        else:
            group_span, span_attrs = "floor.advance_group_span", {"span": span}

        def run_group(group: _HardwareGroup) -> RomStats:
            # Each worker accumulates ROM decisions on a private scratch
            # counter set; the merge below happens serially in group-index
            # order, keeping ``rom_stats`` deterministic under threads.
            scratch = RomStats()
            with obs.span(group_span, group=group.index, **span_attrs):
                self._advance_group(
                    group, loads, breakdowns, power_maps, water_loops, boundaries,
                    refreshed, rack_advances, period_case, period_peak, dt_s,
                    span, n_substeps, rom, t_case_max_c, reference, scratch,
                )
            return scratch

        for scratch in self._map_groups(run_group):
            self.rom_stats.merge(scratch)
            if obs.enabled:
                # Publish the span's ROM decisions to the hub on the
                # calling thread, in group-index order — the live
                # counters behind the rebuild- and fallback-cause report.
                for counter, value in (
                    ("rom.basis_builds", scratch.basis_builds),
                    ("rom.basis_rebuilds", scratch.basis_rebuilds),
                    ("rom.rebuild.projection", scratch.rebuild_projection),
                    ("rom.rebuild.steady_state", scratch.rebuild_steady_state),
                    ("rom.fallback.error", scratch.fallback_error),
                    ("rom.fallback.guard", scratch.fallback_guard),
                    ("rom.fallback.projection", scratch.fallback_projection),
                ):
                    if value:
                        obs.inc(counter, value)
        return FloorAdvance(
            racks=tuple(rack_advances),  # type: ignore[arg-type]
            span=span,
            period_case_c=tuple(period_case),  # type: ignore[arg-type]
            period_peak_case_c=tuple(period_peak),  # type: ignore[arg-type]
            period_worst_peak_c=np.max(np.concatenate(period_peak, axis=1), axis=1),
        )

    # ------------------------------------------------------------------ #
    # Stages 1-2: per-advance preparation
    # ------------------------------------------------------------------ #
    def _prepare_period(
        self,
        rack_loads: Sequence[Sequence[ServerLoad]],
        force_boundary_refresh: Sequence[bool | Sequence[bool]] | None,
    ):
        """Stage 1 (memoized power) + stage 2 (batched boundary refresh).

        Run once per advance whatever its span, so a coarse span sees
        exactly the power maps and held boundaries a fine period at the
        same loads would.
        """
        if len(rack_loads) != self.n_racks:
            raise ValidationError(
                f"expected loads for {self.n_racks} racks, got {len(rack_loads)}"
            )
        if force_boundary_refresh is None:
            force_boundary_refresh = [False] * self.n_racks
        elif len(force_boundary_refresh) != self.n_racks:
            raise ValidationError(
                f"expected refresh flags for {self.n_racks} racks, "
                f"got {len(force_boundary_refresh)}"
            )

        # Stage 1: power models, memoized within each hardware group.  The
        # memo key is (benchmark, mapping, activity) identity, so it is only
        # shared between sessions agreeing on power model, mapper
        # orientation and grid — keyed accordingly.
        memos: dict[tuple, dict] = {}
        loads: list[list[ServerLoad]] = []
        breakdowns: list[list] = []
        power_maps: list[np.ndarray] = []
        water_loops: list[list] = []
        refreshed: list[list[bool]] = []
        for r, session in enumerate(self.rack_sessions):
            checked = session._check_loads(rack_loads[r])
            force = session.normalize_force_flags(force_boundary_refresh[r])
            memo = memos.setdefault(
                (
                    id(session.thermal_simulator),
                    id(session.power_model),
                    session.design.orientation,
                ),
                {},
            )
            rack_breakdowns, rack_maps, rack_loops = session._evaluate_power(
                checked, memo=memo
            )
            loads.append(checked)
            breakdowns.append(rack_breakdowns)
            power_maps.append(rack_maps)
            water_loops.append(rack_loops)
            refreshed.append(session.plan_refresh(rack_maps, rack_loops, force))

        self._refresh_boundaries_floor_wide(power_maps, water_loops, refreshed)

        boundaries = [
            [state.boundary_result for state in self.rack_sessions[r].held_boundaries()]
            for r in range(self.n_racks)
        ]
        return loads, breakdowns, power_maps, water_loops, refreshed, boundaries

    # ------------------------------------------------------------------ #
    # Stage 2: floor-wide boundary refresh
    # ------------------------------------------------------------------ #
    def _refresh_boundaries_floor_wide(
        self,
        power_maps: Sequence[np.ndarray],
        water_loops: Sequence[Sequence],
        refreshed: Sequence[Sequence[bool]],
    ) -> None:
        """Converge and march every stale boundary on the floor, batched.

        Identical hardware at the same water condition and heat load
        reaches the same loop operating point, so the condenser iteration
        runs once per distinct (design, water loop, total power) across the
        *whole floor*; the evaporator lane march then runs once per
        (design, hardware group) with the power maps of every stale member
        server — whatever rack it sits in and whatever its operating point
        — stacked into a single call.
        """
        # (design, water loop, total power) -> [(rack, server, total), ...]
        point_members: dict[tuple, list[tuple[int, int, float]]] = {}
        for r, session in enumerate(self.rack_sessions):
            for s in range(session.n_servers):
                if not refreshed[r][s]:
                    continue
                total = float(power_maps[r][s].sum())
                key = (session.design, water_loops[r][s], total)
                point_members.setdefault(key, []).append((r, s, total))
        if not point_members:
            return
        with get_telemetry().span(
            "floor.refresh_boundaries", points=len(point_members)
        ):
            self._converge_and_march_points(point_members, power_maps, water_loops)

    def _converge_and_march_points(
        self,
        point_members: dict[tuple, list[tuple[int, int, float]]],
        power_maps: Sequence[np.ndarray],
        water_loops: Sequence[Sequence],
    ) -> None:
        # One loop convergence per distinct point, then one lane march per
        # (design, hardware group): the grid is fixed per hardware group, so
        # every member of a march shares its shape and pitch.
        marches: dict[tuple, list[tuple[int, int, float, LoopOperatingPoint]]] = {}
        for key, members in point_members.items():
            design, water_loop, total = key
            point: LoopOperatingPoint | None = self._point_memo.get(key)
            if point is None:
                first_session = self.rack_sessions[members[0][0]]
                point = first_session.loop.operating_point(total, water_loop)
                while len(self._point_memo) >= self._point_memo_max_entries:
                    self._point_memo.pop(next(iter(self._point_memo)))
                self._point_memo[key] = point
            for r, s, member_total in members:
                group = self._group_of_rack[r]
                marches.setdefault((design, group.index), []).append(
                    (r, s, member_total, point)
                )
        for members in marches.values():
            session0 = self.rack_sessions[members[0][0]]
            results: list[BoundaryResult] = session0.loop.cooling_boundaries(
                np.stack([power_maps[r][s] for r, s, _, _ in members]),
                session0.thermal_simulator.grid.cell_pitch_mm(),
                [point for _, _, _, point in members],
            )
            for (r, s, member_total, point), result in zip(members, results):
                self.rack_sessions[r].store_boundary(
                    s, point, result, water_loops[r][s], member_total
                )

    # ------------------------------------------------------------------ #
    # Stages 3-4: stacked init and span march of one hardware group
    # ------------------------------------------------------------------ #
    def _advance_group(
        self,
        group: _HardwareGroup,
        loads: Sequence[Sequence[ServerLoad]],
        breakdowns: Sequence[Sequence],
        power_maps: Sequence[np.ndarray],
        water_loops: Sequence[Sequence],
        boundaries: Sequence[Sequence[BoundaryResult]],
        refreshed: Sequence[Sequence[bool]],
        rack_advances: list[RackAdvance | None],
        period_case: list[np.ndarray | None],
        period_peak: list[np.ndarray | None],
        dt_s: float,
        span: int,
        n_substeps: int,
        rom: RomConfig | None,
        t_case_max_c: float | None,
        reference: FloorSnapshot | None,
        stats: RomStats,
    ) -> None:
        simulator = group.simulator
        n = group.n_servers

        # Stack this group's power maps and boundaries in rack-row order.
        group_maps = np.concatenate([power_maps[r] for r in group.rack_indices])
        group_boundaries: list[BoundaryResult] = []
        for r in group.rack_indices:
            group_boundaries.extend(boundaries[r])

        # Solve partition: rows sharing a cooling-boundary content advance
        # through one cached operator.
        token_rows: dict[tuple, list[int]] = {}
        for row, boundary in enumerate(group_boundaries):
            token_rows.setdefault(boundary.boundary.cache_token(), []).append(row)

        # Stack the group's carried fields from its rack sessions; a cold
        # session (first advance, or reset) is steady-initialized, batched
        # per operator across the whole group.
        fields = np.empty((n, simulator.grid.n_cells), dtype=float)
        cold: set[int] = set()
        for r in group.rack_indices:
            rows = group.rack_rows[r]
            carried = self.rack_sessions[r].fields
            if carried is None:
                cold.update(range(rows.start, rows.stop))
            else:
                fields[rows] = carried
        for rows in token_rows.values():
            init_rows = [row for row in rows if row in cold]
            if init_rows:
                fields[init_rows] = simulator.steady_state_many_from_maps(
                    group_maps[init_rows], group_boundaries[init_rows[0]].boundary
                )

        # The iterative lane (see :meth:`advance`) reads each row's boundary
        # in ``reference``; only single-substep periods take it.
        held = (
            self._reference_boundaries(group, reference)
            if reference is not None and n_substeps == 1
            else None
        )
        sub_dt = dt_s / n_substeps
        end = np.empty_like(fields)
        case_hist = np.empty((span, n), dtype=float)
        peak_hist = np.empty((span, n), dtype=float)
        residuals = np.empty(n, dtype=float)

        def march(
            rows: list[int],
            boundary: CoolingBoundary,
            preconditioner: CoolingBoundary | None = None,
        ) -> None:
            end[rows], case_hist[:, rows], peak_hist[:, rows], residuals[rows] = (
                self._full_march(
                    group, boundary, group_maps[rows], fields[rows], sub_dt,
                    span, n_substeps, preconditioner,
                )
            )

        obs = get_telemetry()
        for token, rows in token_rows.items():
            boundary = group_boundaries[rows[0]].boundary
            if rom is None:
                # A one-server solve group whose boundary moved away from
                # the one it held in ``reference`` is preconditioned by it.
                preconditioner = None
                if held is not None and len(rows) == 1:
                    before = held[rows[0]]
                    if before is not None and before.cache_token() != token:
                        preconditioner = before
                march(rows, boundary, preconditioner)
                continue
            stats.spans += 1
            with obs.span(
                "rom.march", group=group.index, rows=len(rows)
            ) as march_span:
                causes_before = (
                    stats.fallback_projection,
                    stats.fallback_error,
                    stats.fallback_guard,
                )
                ok, rom_end, cases, peaks, res = self._rom_march(
                    group, boundary, group_maps[rows], fields[rows], sub_dt,
                    span, n_substeps, t_case_max_c, rom, stats,
                )
                # The *why* of every row returned to the full solver:
                # projection drift, error-bound trip, or guard band.
                march_span.set(
                    fallback_projection=stats.fallback_projection
                    - causes_before[0],
                    fallback_error=stats.fallback_error - causes_before[1],
                    fallback_guard=stats.fallback_guard - causes_before[2],
                )
            kept = np.flatnonzero(ok)
            kept_rows = [rows[i] for i in kept]
            if kept_rows:
                end[kept_rows] = rom_end[kept]
                case_hist[:, kept_rows] = cases[:, kept]
                peak_hist[:, kept_rows] = peaks[:, kept]
                residuals[kept_rows] = res[kept]
            fallback = [row for i, row in enumerate(rows) if not ok[i]]
            if fallback:
                stats.fallback_rows += len(fallback)
                with obs.span(
                    "rom.full_march", group=group.index, rows=len(fallback)
                ):
                    march(fallback, boundary)

        # Stage 4: every rack session takes its rows of the advanced stack
        # back and builds its per-server results for the span's last period.
        for r in group.rack_indices:
            rows = group.rack_rows[r]
            rack_advances[r] = self.rack_sessions[r].finish_advance(
                loads[r],
                breakdowns[r],
                water_loops[r],
                end[rows],
                residuals[rows],
                peak_hist[-1, rows],
                refreshed[r],
                dt_s,
                n_substeps,
            )
            period_case[r] = case_hist[:, rows]
            period_peak[r] = peak_hist[:, rows]

    def _reference_boundaries(
        self, group: _HardwareGroup, reference: FloorSnapshot
    ) -> list[CoolingBoundary | None]:
        """Each group row's boundary in ``reference`` (rack-row order)."""
        held: list[CoolingBoundary | None] = []
        for r in group.rack_indices:
            held.extend(
                None if state is None else state.boundary_result.boundary
                for state in reference.rack_snapshots[r].boundaries
            )
        return held

    def _rom_march(
        self,
        group: _HardwareGroup,
        boundary,
        power_maps_rows: np.ndarray,
        state: np.ndarray,
        sub_dt: float,
        span: int,
        n_substeps: int,
        t_case_max_c: float | None,
        config: RomConfig,
        stats: RomStats,
    ):
        """March one solve group through the reduced space.

        The cached basis of ``(boundary, sub_dt)`` is built on a miss and
        rebuilt once when it is stale: an entry field lies outside it
        (``projection``), or the per-step bound at the reduced fixed point
        of the held power, charged for every substep, exceeds
        ``step_error_tol_c`` (``steady_state``; see
        :meth:`~repro.thermal.rom.ReducedOperator.steady_state_bound`).
        Returns ``(ok, end_fields, case_hist, peak_hist, residuals)``,
        ``residuals`` being each row's largest lifted change over the final
        substep; entries of rows with ``ok[i]`` False are unspecified —
        those rows rerun through :meth:`_full_march`.  Build, rebuild and
        fallback causes are counted on ``stats`` (a row can trip both the
        error and guard tests) — the caller's scratch counters under
        thread-parallel dispatch.
        """
        simulator = group.simulator
        cache = simulator.solver_cache
        network = simulator.network
        m = state.shape[0]
        power_vecs = network.power_vectors(power_maps_rows)
        obs = get_telemetry()

        total_substeps = span * n_substeps
        op = cache.reduced_operator(boundary, sub_dt, config)
        if op is None:
            cause = "cold"
        else:
            coords, entry_error = op.project(state)
            if bool(np.any(entry_error > config.projection_tol_c)):
                cause = "projection"
            elif bool(
                np.any(
                    op.steady_state_bound(power_vecs) * total_substeps
                    > config.step_error_tol_c
                )
            ):
                # A held boundary serves up to 15% of power drift, so the
                # cached basis can miss the steady state of this span's
                # power, which the reduced march would then head away from.
                cause = "steady_state"
            else:
                cause = None
        if cause is not None:
            # Build, or rebuild a stale basis once, from the current states
            # and their steady targets; a rebuild folds the stale basis back
            # in, so recurring boundaries accrete their whole operating
            # envelope.  Rows still outside the new basis then fall back.
            with obs.span("rom.build_basis", group=group.index, cause=cause):
                op = build_reduced_operator(
                    network, cache, boundary, sub_dt, state, power_vecs,
                    group.case_cell_index, config,
                    previous_basis=None if op is None else op.basis,
                )
            cache.store_reduced_operator(boundary, sub_dt, op, config)
            if cause == "cold":
                stats.basis_builds += 1
            elif cause == "projection":
                stats.rebuild_projection += 1
            else:
                stats.rebuild_steady_state += 1
            coords, entry_error = op.project(state)
        ok = entry_error <= config.projection_tol_c
        stats.fallback_projection += int(np.sum(~ok))

        full_rhs = op.boundary_rhs[np.newaxis, :] + power_vecs
        reduced_rhs = op.reduce_rhs(power_vecs)
        affine = op.affine_term(reduced_rhs)
        step_matrix = op.step_matrix
        case_readout = op.basis[op.case_cell_index]
        sampled_bound = np.zeros(m, dtype=float)
        case_hist = np.empty((span, m), dtype=float)
        peak_hist = np.empty((span, m), dtype=float)
        previous = coords
        step_index = 0
        for j in range(span):
            peak = np.full(m, float("-inf"))
            for _ in range(n_substeps):
                new_coords = step_matrix @ coords + affine
                if step_index in (0, total_substeps // 2, total_substeps - 1):
                    # Power is held across the span, so the residual varies
                    # smoothly along it: sampling the full-space bound at the
                    # first, middle and last substep keeps every other step
                    # free of O(n) work (the whole point of the reduced lane).
                    np.maximum(
                        sampled_bound,
                        op.step_error_bound(new_coords, coords, full_rhs),
                        out=sampled_bound,
                    )
                previous, coords = coords, new_coords
                step_index += 1
                case = case_readout @ coords
                np.maximum(peak, case, out=peak)
            case_hist[j] = case
            peak_hist[j] = peak
        error = entry_error + sampled_bound * total_substeps
        error_fail = error > config.step_error_tol_c
        guard_fail = np.zeros(m, dtype=bool)
        if t_case_max_c is not None:
            # Error-inflated proximity test: the ROM never arbitrates a
            # constraint decision.
            guard_fail = (
                np.max(peak_hist, axis=0) + error
                >= t_case_max_c - config.guard_band_c
            )
        stats.fallback_error += int(np.sum(error_fail & ok))
        stats.fallback_guard += int(np.sum(guard_fail & ok))
        ok &= ~(error_fail | guard_fail)
        n_ok = int(np.sum(ok))
        stats.rom_rows += n_ok
        stats.rom_periods += n_ok * span

        end_fields = op.lift(coords)
        # The settle residual is the final substep's change, as in
        # :meth:`_full_march`.
        residuals = np.max(np.abs(op.lift(coords - previous)), axis=1)
        return ok, end_fields, case_hist, peak_hist, residuals

    def _full_march(
        self,
        group: _HardwareGroup,
        boundary: CoolingBoundary,
        maps_rows: np.ndarray,
        state: np.ndarray,
        sub_dt: float,
        span: int,
        n_substeps: int,
        reference: CoolingBoundary | None = None,
    ):
        """March one solve group's rows through ``span`` full periods.

        The engine's only backward-Euler substep loop: a fine period
        marches every solve group through it, a coarse span only the rows
        its reduced-order lane hands back — the same solves either way, so
        fallback rows lose nothing to the coarse lane.  ``reference``
        routes every step through the solver cache's iterative lane (see
        :meth:`advance`).  Returns ``(end_fields, case_hist, peak_hist,
        residuals)``.
        """
        m = state.shape[0]
        case_hist = np.empty((span, m), dtype=float)
        peak_hist = np.empty((span, m), dtype=float)
        residual = np.zeros(m, dtype=float)
        for j in range(span):
            peak = np.full(m, float("-inf"))
            for _ in range(n_substeps):
                new_state = group.simulator.transient_step_many_from_maps(
                    state, maps_rows, boundary, sub_dt, reference=reference
                )
                residual = np.max(np.abs(new_state - state), axis=1)
                state = new_state
                np.maximum(peak, state[:, group.case_cell_index], out=peak)
            case_hist[j] = state[:, group.case_cell_index]
            peak_hist[j] = peak
        return state, case_hist, peak_hist, residual
