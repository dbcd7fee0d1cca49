"""Datacenter floor: N racks, one shared chiller plant, two control loops.

The top layer of the simulation stack.  A :class:`DatacenterModel` owns a
floor of racks — each rack a set of servers with their own workloads,
mappings, QoS contracts, phased activity traces and (optionally) its own
hardware: a :class:`RackSpec` may carry a per-rack floorplan, thermosyphon
design and power model, so the floor can mix SKUs.  One shared
:class:`~repro.thermosyphon.chiller.ChillerPlant` supplies every rack's
condenser water.  :class:`DatacenterSession` executes the floor over time:

* every control period, the
  :class:`~repro.datacenter.floor.FloorEngine` advances **every server on
  the floor** through per-hardware-group stacked solves — one
  :class:`~repro.thermal.simulator.ThermalSimulator` (and factorization
  cache) per distinct floorplan, one multi-RHS back-substitution per
  (hardware group, cooling boundary) per substep, one lane march per
  (design, hardware group) across racks and operating points.  Each rack's
  :class:`~repro.core.rack_session.RackSession` owns its servers' fields
  and held boundaries; the engine stacks them per period;
* each server then runs the paper's fast flow-first/DVFS-second rule
  (:class:`~repro.core.runtime_controller.DecisionPolicy`, or any policy
  with its ``decide``), so at a fixed setpoint every server reproduces the
  per-server golden loop of ``tests/reference_session.py`` bit for bit;
* a :class:`~repro.datacenter.supervisory.SupervisoryController`, when
  given, closes the slow outer loop on the chiller water supply setpoint,
  reading the floor-level within-period peak straight off the stacked
  group fields and trading thermal headroom for plant electrical power.

The result is a :class:`DatacenterTrace`: per-rack
:class:`~repro.core.runtime_controller.RackTrace` series, the setpoint
schedule, per-period plant power/energy, the supervisory decision log and
the merged solver-cache statistics of the whole floor.

:meth:`DatacenterSession.run` is the library's one driver loop.  A rack
trace (:meth:`ThermosyphonController.run_rack_trace`, and through it
``run_trace(mode="transient")``) is a one-rack, fixed-setpoint run of it,
with the controller as the policy and its chiller as the plant.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from repro.core.mapping import WorkloadMapping
from repro.core.rack_session import RackSession, ServerLoad
from repro.core.runtime_controller import (
    ControllerAction,
    ControllerDecision,
    DecisionPolicy,
    RackServer,
    RackTrace,
    apply_rack_decisions,
    mapping_at_frequency,
)
from repro.core.session import T_CASE_MAX_C
from repro.datacenter.floor import FloorEngine, FloorSnapshot
from repro.datacenter.span import SpanPlanner
from repro.thermal.rom import RomConfig, RomStats
from repro.thermal.warm_store import WarmStore
from repro.datacenter.supervisory import (
    SupervisoryAction,
    SupervisoryController,
    SupervisoryDecision,
)
from repro.exceptions import ConfigurationError, ValidationError
from repro.floorplan.floorplan import Floorplan
from repro.obs.telemetry import get_telemetry
from repro.floorplan.xeon_e5_v4 import build_xeon_e5_v4_floorplan
from repro.power.power_model import ServerPowerModel
from repro.thermal.simulator import ThermalSimulator
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.chiller import (
    ChillerBank,
    ChillerModel,
    ChillerPlant,
    StagingDecision,
)
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN, ThermosyphonDesign
from repro.thermosyphon.water_loop import WaterLoop
from repro.workloads.trace import PhasedTrace
from repro.utils.validation import (
    check_non_negative_int,
    check_positive,
    check_positive_int,
)


@dataclass(frozen=True)
class RackSpec:
    """One rack of the floor: name, servers, trace and optional hardware.

    ``trace`` is the rack-level fallback activity trace; servers carrying
    their own :attr:`RackServer.trace` follow that instead.  Every server
    must end up with a trace one way or the other.

    ``floorplan``, ``design`` and ``power_model`` override the floor-wide
    hardware substrate for this rack (``None`` inherits the model default).
    Racks naming the same floorplan object share one thermal simulator and
    factorization cache; racks with distinct floorplans form separate
    hardware groups in the floor engine — that is what a mixed-SKU floor
    looks like.
    """

    name: str
    servers: tuple[RackServer, ...]
    trace: PhasedTrace | None = None
    floorplan: Floorplan | None = None
    design: ThermosyphonDesign | None = None
    power_model: ServerPowerModel | None = None

    def __post_init__(self) -> None:
        if not self.servers:
            raise ConfigurationError(f"rack {self.name!r} needs at least one server")

    @property
    def n_servers(self) -> int:
        """Number of servers in this rack."""
        return len(self.servers)

    def server_trace(self, index: int) -> PhasedTrace:
        """The resolved activity trace of server ``index``."""
        server = self.servers[index]
        trace = server.trace if server.trace is not None else self.trace
        if trace is None:
            raise ConfigurationError(
                f"server {index} of rack {self.name!r} has no trace: give the "
                "RackServer its own or set the rack-level fallback"
            )
        return trace


@dataclass(frozen=True)
class CoarseningConfig:
    """Knobs of adaptive control-period coarsening (the million-period lane).

    A span of ``K`` control periods is advanced in one quasi-steady step
    only while, at the last evaluated period, **all** of these
    held: every fast decision was ``NONE`` (no actuator event), every
    settle residual was at most ``quasi_steady_tol_c`` (the largest
    per-cell change over the period's final substep), the floor's worst
    within-period peak stayed ``guard_band_c`` below the policy's
    ``t_case_max_c``, no server with an open valve sat within
    ``relax_guard_c`` of the relax (``DECREASE_FLOW``) threshold, no
    boundary refresh was pending, and no scenario-trace phase boundary,
    supervisory window boundary or run end falls inside the span.  Any
    trigger drops the run back to single-period stepping.

    Spans are quantized to powers of two between ``min_span`` and
    ``max_span``.  ``rom`` configures the reduced-order lane every span
    steps through (:class:`~repro.thermal.rom.RomConfig`), whose error
    charge sends rows back to the full solver when it exceeds tolerance.
    The charge is the largest of three sampled rigorous per-step bounds
    times the substep count: an estimate, not a bound.
    """

    min_span: int = 4
    max_span: int = 64
    quasi_steady_tol_c: float = 0.05
    guard_band_c: float = 2.0
    relax_guard_c: float = 0.5
    rom: RomConfig = RomConfig()

    def __post_init__(self) -> None:
        if not isinstance(self.rom, RomConfig):
            raise ConfigurationError(
                f"rom must be a RomConfig, got {self.rom!r}"
            )
        check_positive_int(self.min_span, "min_span")
        check_positive_int(self.max_span, "max_span")
        if self.min_span < 2:
            raise ConfigurationError(
                f"min_span must be >= 2, got {self.min_span}"
            )
        if self.max_span < self.min_span:
            raise ConfigurationError(
                f"max_span ({self.max_span}) must be >= min_span "
                f"({self.min_span})"
            )
        check_positive(self.quasi_steady_tol_c, "quasi_steady_tol_c")
        check_positive(self.guard_band_c, "guard_band_c")
        check_positive(self.relax_guard_c, "relax_guard_c")


@dataclass
class DatacenterTrace:
    """Everything one datacenter run produced.

    ``racks[r]`` is rack ``r``'s :class:`RackTrace` (per-server decisions
    and per-period rack chiller power at the plant's efficiency for the
    period's setpoint); its per-rack ``factorizations``/``cache_stats`` are
    left ``None`` because the whole floor shares one operator cache —
    the floor-wide counters live on this object instead.
    ``setpoint_c[t]`` and ``plant_power_w[t]`` carry the supply setpoint
    and total plant electrical power of control period ``t``, and
    ``supervisory_decisions`` logs the slow loop (empty on a fixed-setpoint
    run).  On a :class:`~repro.thermosyphon.chiller.ChillerBank` plant,
    ``staging[t]`` records period ``t``'s unit commitment (empty on a
    single-``ChillerPlant`` run).
    """

    rack_names: tuple[str, ...]
    racks: list[RackTrace]
    control_period_s: float
    t_case_max_c: float = T_CASE_MAX_C
    setpoint_c: list[float] = field(default_factory=list)
    plant_power_w: list[float] = field(default_factory=list)
    supervisory_decisions: list[SupervisoryDecision] = field(default_factory=list)
    staging: list[StagingDecision] = field(default_factory=list)
    factorizations: int | None = None
    cache_stats: CacheStats | None = None
    coarse_spans: int = 0
    coarse_periods: int = 0
    rom_stats: RomStats | None = None

    @property
    def n_racks(self) -> int:
        """Number of racks on the floor."""
        return len(self.racks)

    @property
    def n_servers(self) -> int:
        """Total number of servers across all racks."""
        return sum(rack.n_servers for rack in self.racks)

    @property
    def n_periods(self) -> int:
        """Number of executed control periods."""
        return len(self.plant_power_w)

    @property
    def plant_energy_j(self) -> float:
        """Plant electrical energy over the whole trace."""
        return sum(self.plant_power_w) * self.control_period_s

    @property
    def mean_plant_power_w(self) -> float:
        """Average plant electrical power over the trace."""
        if not self.plant_power_w:
            return float("nan")
        return sum(self.plant_power_w) / len(self.plant_power_w)

    @property
    def peak_case_temperature_c(self) -> float:
        """Highest period-end case temperature across the floor."""
        return max(
            (rack.peak_case_temperature_c for rack in self.racks),
            default=float("nan"),
        )

    @property
    def peak_period_case_temperature_c(self) -> float:
        """Highest case temperature including within-period transient peaks."""
        return max(
            (rack.peak_period_case_temperature_c for rack in self.racks),
            default=float("nan"),
        )

    @property
    def thermal_violations(self) -> int:
        """(period, server) pairs whose within-period peak hit ``T_CASE_MAX``.

        Counts against the within-period transient peak — the strictest
        reading of the constraint — falling back to the period-end value
        where no transient diagnostic is present.
        """
        count = 0
        for rack in self.racks:
            for period in rack.periods:
                for decision in period:
                    peak = (
                        decision.period_peak_case_c
                        if decision.period_peak_case_c is not None
                        else decision.case_temperature_c
                    )
                    if peak >= self.t_case_max_c:
                        count += 1
        return count

    @property
    def emergencies(self) -> int:
        """Unresolved thermal emergencies across the whole floor."""
        return sum(rack.emergencies for rack in self.racks)

    @property
    def setpoint_raises(self) -> int:
        """Number of supervisory setpoint raises."""
        return sum(
            1
            for d in self.supervisory_decisions
            if d.action is SupervisoryAction.RAISE_SETPOINT
        )

    @property
    def setpoint_lowers(self) -> int:
        """Number of supervisory setpoint lowers."""
        return sum(
            1
            for d in self.supervisory_decisions
            if d.action is SupervisoryAction.LOWER_SETPOINT
        )

    @property
    def setpoint_saturations(self) -> int:
        """Windows that violated while clamped at the setpoint minimum."""
        return sum(
            1
            for d in self.supervisory_decisions
            if d.action is SupervisoryAction.SATURATED
        )

    @property
    def overloaded_periods(self) -> int:
        """Periods the chiller bank ran beyond its available rated capacity."""
        return sum(1 for s in self.staging if s.overloaded)

    def summary(self) -> str:
        """Human-readable digest of the datacenter trace."""
        lines = [
            f"datacenter trace ({self.n_racks} racks / {self.n_servers} servers, "
            f"{self.n_periods} periods)",
            f"  setpoint schedule     : {self.setpoint_c[0]:.1f} C -> "
            f"{self.setpoint_c[-1]:.1f} C "
            f"({self.setpoint_raises} raises, {self.setpoint_lowers} lowers)"
            if self.setpoint_c
            else "  setpoint schedule     : (empty)",
            f"  plant energy          : {self.plant_energy_j / 1e3:.1f} kJ "
            f"(mean {self.mean_plant_power_w:.1f} W)",
            f"  peak case temperature : {self.peak_case_temperature_c:.1f} C "
            f"(within-period {self.peak_period_case_temperature_c:.1f} C)",
            f"  thermal violations    : {self.thermal_violations}",
            f"  unresolved emergencies: {self.emergencies}",
        ]
        if self.supervisory_decisions:
            lines.append(
                f"  setpoint saturations  : {self.setpoint_saturations} "
                f"(violation while clamped at the setpoint minimum)"
            )
        if self.staging:
            units_on = [s.n_units_on for s in self.staging]
            lines.append(
                f"  chiller staging       : {min(units_on)}-{max(units_on)} "
                f"units on, {self.overloaded_periods} overloaded periods"
            )
        if self.coarse_spans:
            lines.append(
                f"  coarse spans          : {self.coarse_spans} "
                f"({self.coarse_periods}/{self.n_periods} periods coarsened)"
            )
        if self.rom_stats is not None and self.rom_stats.spans:
            lines.append(
                f"  reduced-order lane    : {self.rom_stats.rom_periods} "
                f"periods in reduced space, {self.rom_stats.fallbacks} "
                f"row fallbacks, {self.rom_stats.basis_builds} basis builds"
            )
        if self.factorizations is not None:
            lines.append(f"  operator factorizations: {self.factorizations}")
        if self.cache_stats is not None:
            lines.append(
                f"  solver cache hit rate  : {self.cache_stats.hit_rate:.1%} "
                f"({self.cache_stats.hits} hits / {self.cache_stats.misses} misses)"
            )
        obs = get_telemetry()
        if obs.enabled:
            # Compact telemetry footer (spans, fallback causes, cache hit
            # rate) — counter-derived only, never wall-clock, so summaries
            # stay reproducible across machines.
            footer = obs.footer()
            if footer:
                lines.append(f"  telemetry             : {footer}")
        return "\n".join(lines)


@dataclass(frozen=True)
class DatacenterPeriod:
    """Outcome of one floor-wide control period (step-wise API).

    On a :class:`~repro.thermosyphon.chiller.ChillerBank` plant,
    ``staging`` records the period's unit commitment and
    ``rack_chiller_power_w`` carries each rack's *prorated share* of the
    bank's electrical power (prorated by the rack's thermal load), so
    ``plant_power_w == sum(rack_chiller_power_w)`` holds for both plant
    kinds.  ``staging`` is ``None`` on a single-``ChillerPlant`` floor.
    """

    time_s: float
    setpoint_c: float
    rack_decisions: tuple[tuple[ControllerDecision, ...], ...]
    rack_chiller_power_w: tuple[float, ...]
    worst_period_peak_case_c: float
    staging: StagingDecision | None = None

    @property
    def plant_power_w(self) -> float:
        """Total plant electrical power this period."""
        return sum(self.rack_chiller_power_w)


@dataclass(frozen=True)
class DatacenterSnapshot:
    """Frozen copy of a :class:`DatacenterSession`'s mutable state.

    Everything :meth:`DatacenterSession.advance_period` evolves: the
    setpoint, the per-server actuator state (water loops, frequencies,
    resolved mappings, pending refresh flags) and the floor physics state
    (one :class:`~repro.datacenter.floor.FloorSnapshot`).  The MPC planner
    takes one snapshot per supervisory decision and restores it after
    every candidate rollout.
    """

    setpoint_c: float
    water_loops: tuple[tuple[WaterLoop, ...], ...]
    frequencies: tuple[tuple[float, ...], ...]
    mappings: tuple[tuple[WorkloadMapping, ...], ...]
    force_refresh: tuple[tuple[bool, ...], ...]
    floor: FloorSnapshot
    # Coarsening-eligibility signals of the last committed period, restored
    # so MPC rollouts (which mutate the setpoint mid-plan) leave the
    # committed trace's span pattern untouched.
    coarse_state: tuple | None = None


class DatacenterModel:
    """A floor of racks behind one shared chiller plant.

    Parameters
    ----------
    racks:
        The floor layout: one :class:`RackSpec` per rack.
    plant:
        The shared :class:`ChillerPlant`; its COP/free-cooling laws make
        the supply setpoint an energy lever.  A
        :class:`~repro.thermosyphon.chiller.ChillerBank` adds unit
        staging: per-server loads are accounted thermally (Eq. 1 at unit
        COP) and the bank commits the cheapest feasible unit subset to
        the floor total every period.  A
        :class:`~repro.thermosyphon.chiller.ChillerModel` is a
        fixed-efficiency plant: the same COP and free-cooling fraction at
        every setpoint.
    floorplan, design, power_model, thermal_simulator, cell_size_mm:
        The *default* hardware substrate — racks whose :class:`RackSpec`
        does not override it share this floorplan, design, power model and
        thermal simulator (and therefore one factorization cache).  Racks
        carrying their own floorplan get one simulator per distinct
        floorplan, built at the default simulator's cell size.
    control_period_s, transient_substeps:
        The fast loop's period and backward-Euler substeps per period.
    policy:
        The per-server fast decision rule (default: the paper's
        :class:`~repro.core.runtime_controller.DecisionPolicy`, valve
        first, DVFS second).  Anything with that class's ``decide``
        signature and ``t_case_max_c`` / ``relax_margin_c`` attributes
        will do: a :class:`~repro.core.runtime_controller.\
ThermosyphonController` passed here steers the floor with its own
        ``decide`` and QoS overrides.
    supply_setpoint_c:
        Initial chiller water supply temperature (default: the design's
        nominal water inlet).
    coarsening:
        A :class:`CoarseningConfig` enables adaptive control-period
        coarsening: quasi-steady stretches advance in dyadic multi-period
        spans through the reduced-order Krylov lane, and any actuator
        event, residual growth, envelope step or constraint proximity
        drops back to single-period stepping.  ``None`` (default) keeps
        every period at full resolution.
    parallel_groups:
        Worker-thread budget handed to the
        :class:`~repro.datacenter.floor.FloorEngine`: ``>= 2`` advances
        the floor's hardware groups on worker threads (the banded Cholesky
        factor and solve calls hold the GIL, so only the groups' other
        NumPy work overlaps); ``0`` (default) and ``1`` keep the serial
        loop.  Results are bit-identical either way.  On a 2-vCPU host
        threads cost time: the two-SKU perfbench ``coarse_2sku`` floor
        (seed 7, warm store filled) ran in 1.25-1.39 s serially and
        1.64-1.75 s with ``parallel_groups=2``, because the bundled
        OpenBLAS's worker thread already keeps the second vCPU busy.  A
        budget that is not an ``int`` raises :class:`ValidationError`; a
        negative one raises :class:`ConfigurationError`.
    warm_store:
        A :class:`~repro.thermal.warm_store.WarmStore` (or a directory
        path for one) attached to every hardware group's factorization
        cache, so reduced-order bases persist across runs — run ``N+1``
        of the same floor skips every first Arnoldi build while staying
        bit-identical to the cold run.  ``None`` (default) runs fully
        cold.
    """

    def __init__(
        self,
        racks,
        *,
        plant: ChillerPlant | ChillerBank | ChillerModel | None = None,
        floorplan: Floorplan | None = None,
        design: ThermosyphonDesign = PAPER_OPTIMIZED_DESIGN,
        power_model: ServerPowerModel | None = None,
        thermal_simulator: ThermalSimulator | None = None,
        cell_size_mm: float = 1.0,
        control_period_s: float = 2.0,
        transient_substeps: int = 4,
        policy: DecisionPolicy | None = None,
        supply_setpoint_c: float | None = None,
        coarsening: CoarseningConfig | None = None,
        parallel_groups: int = 0,
        warm_store: WarmStore | str | os.PathLike | None = None,
    ) -> None:
        if isinstance(parallel_groups, int) and parallel_groups < 0:
            raise ConfigurationError(
                f"parallel_groups must be >= 0, got {parallel_groups}"
            )
        self.parallel_groups = check_non_negative_int(parallel_groups, "parallel_groups")
        self.racks = tuple(racks)
        if not self.racks:
            raise ConfigurationError("a datacenter needs at least one rack")
        for rack in self.racks:
            for index in range(rack.n_servers):
                rack.server_trace(index)  # raises when a server has no trace
        self.plant = plant if plant is not None else ChillerPlant()
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
        # Resolve each rack's hardware once: racks naming the same floorplan
        # object share one simulator (and one power model, unless the spec
        # carries its own) — the floor engine groups stacked state by these
        # simulator identities.
        simulators: dict[int, ThermalSimulator] = {
            id(self.floorplan): self.thermal_simulator
        }
        power_models: dict[int, ServerPowerModel] = {
            id(self.floorplan): self.power_model
        }
        rack_floorplans: list[Floorplan] = []
        rack_designs: list[ThermosyphonDesign] = []
        rack_power_models: list[ServerPowerModel] = []
        rack_simulators: list[ThermalSimulator] = []
        for rack in self.racks:
            rack_floorplan = rack.floorplan if rack.floorplan is not None else self.floorplan
            simulator = simulators.get(id(rack_floorplan))
            if simulator is None:
                simulator = ThermalSimulator(
                    rack_floorplan, cell_size_mm=self.thermal_simulator.cell_size_mm
                )
                simulators[id(rack_floorplan)] = simulator
            if rack.power_model is not None:
                rack_power_model = rack.power_model
            else:
                rack_power_model = power_models.get(id(rack_floorplan))
                if rack_power_model is None:
                    rack_power_model = ServerPowerModel(rack_floorplan)
                    power_models[id(rack_floorplan)] = rack_power_model
            rack_floorplans.append(rack_floorplan)
            rack_designs.append(rack.design if rack.design is not None else self.design)
            rack_power_models.append(rack_power_model)
            rack_simulators.append(simulator)
        self.rack_floorplans = tuple(rack_floorplans)
        self.rack_designs = tuple(rack_designs)
        self.rack_power_models = tuple(rack_power_models)
        self.rack_simulators = tuple(rack_simulators)
        self.control_period_s = check_positive(control_period_s, "control_period_s")
        self.transient_substeps = check_positive_int(
            transient_substeps, "transient_substeps"
        )
        self.policy = policy if policy is not None else DecisionPolicy()
        self.supply_setpoint_c = (
            supply_setpoint_c
            if supply_setpoint_c is not None
            else design.water_inlet_temperature_c
        )
        self.coarsening = coarsening
        if warm_store is not None and not isinstance(warm_store, WarmStore):
            warm_store = WarmStore(warm_store)
        self.warm_store = warm_store
        if self.warm_store is not None:
            for simulator in simulators.values():
                simulator.solver_cache.attach_warm_store(self.warm_store)

    @property
    def n_racks(self) -> int:
        """Number of racks on the floor."""
        return len(self.racks)

    @property
    def n_servers(self) -> int:
        """Total number of servers across all racks."""
        return sum(rack.n_servers for rack in self.racks)

    @property
    def n_hardware_groups(self) -> int:
        """Distinct thermal networks across the floor (1 when homogeneous)."""
        return len({id(simulator) for simulator in self.rack_simulators})

    @property
    def duration_s(self) -> float:
        """Longest trace duration across the floor."""
        return max(
            rack.server_trace(index).duration_s
            for rack in self.racks
            for index in range(rack.n_servers)
        )

    def session(self, *, setpoint_c: float | None = None) -> "DatacenterSession":
        """A fresh execution session over this floor."""
        return DatacenterSession(self, setpoint_c=setpoint_c)

    def run_trace(
        self,
        *,
        supervisory: SupervisoryController | None = None,
        setpoint_c: float | None = None,
        duration_s: float | None = None,
    ) -> DatacenterTrace:
        """Run the whole floor: fixed setpoint, or supervisory outer loop."""
        return self.session(setpoint_c=setpoint_c).run(
            duration_s=duration_s, supervisory=supervisory
        )


class DatacenterSession:
    """Executes a :class:`DatacenterModel` period by period.

    Owns the mutable floor state: one :class:`RackSession` per rack (each
    on its rack's resolved hardware, and the only owner of its servers'
    fields), the :class:`FloorEngine` stacking those sessions per hardware
    group every period, the per-server actuator settings (water valve and
    DVFS level) and the current chiller supply setpoint.
    :meth:`ThermosyphonController.run_rack_trace` is a one-rack session
    seeded through :meth:`snapshot` / :meth:`restore` and driven by
    :meth:`run`.  The supervisory loop only ever acts *between* periods by
    re-issuing every server's water loop at a new inlet temperature (the
    rack sessions then refresh their cooling boundaries because the water
    condition changed — the same path a valve action takes).
    """

    def __init__(self, model: DatacenterModel, *, setpoint_c: float | None = None) -> None:
        self.model = model
        self.setpoint_c = (
            setpoint_c if setpoint_c is not None else model.supply_setpoint_c
        )
        self.rack_sessions = [
            RackSession(
                rack.n_servers,
                floorplan=model.rack_floorplans[r],
                design=model.rack_designs[r],
                power_model=model.rack_power_models[r],
                thermal_simulator=model.rack_simulators[r],
            )
            for r, rack in enumerate(model.racks)
        ]
        self.floor_engine = FloorEngine(
            self.rack_sessions, parallel_groups=model.parallel_groups
        )
        # Eligibility signals of the last committed period, feeding the
        # coarsening planner: (all decisions NONE, worst settle residual,
        # floor worst peak, the decisions themselves).  None = not
        # quasi-steady (a run's first period, or the setpoint just moved).
        self._coarse_state: tuple | None = None
        self._traces = [
            [rack.server_trace(index) for index in range(rack.n_servers)]
            for rack in model.racks
        ]
        # One floor-wide event lattice for span planning: the per-plan cost
        # becomes a single searchsorted instead of an O(n_servers) scan of
        # every trace's next phase boundary.
        self._span_planner = (
            SpanPlanner(
                (trace for rack_traces in self._traces for trace in rack_traces),
                model.control_period_s,
                min_span=model.coarsening.min_span,
                max_span=model.coarsening.max_span,
            )
            if model.coarsening is not None
            else None
        )
        base_loops = [
            model.rack_designs[r].water_loop().with_inlet_temperature(self.setpoint_c)
            for r in range(model.n_racks)
        ]
        self._water_loops = [
            [base_loops[r]] * rack.n_servers for r, rack in enumerate(model.racks)
        ]
        self._frequencies = [
            [server.mapping.configuration.frequency_ghz for server in rack.servers]
            for rack in model.racks
        ]
        # Identical servers share mapping objects; memoize per (mapping,
        # frequency) so the floor resolves each distinct pair once instead
        # of once per server — here and on every later DVFS rebuild.
        self._mapping_memo: dict = {}
        self._mappings = [
            [
                self._memoized_mapping(
                    server.mapping, server.mapping.configuration.frequency_ghz
                )
                for server in rack.servers
            ]
            for rack in model.racks
        ]
        self._force_refresh = [[False] * rack.n_servers for rack in model.racks]

    def _memoized_mapping(self, mapping, frequency_ghz: float):
        key = (id(mapping), frequency_ghz)
        resolved = self._mapping_memo.get(key)
        if resolved is None:
            resolved = mapping_at_frequency(mapping, frequency_ghz)
            self._mapping_memo[key] = resolved
        return resolved

    def _rack_loads(self, r: int, time_s: float) -> list[ServerLoad]:
        """Rack ``r``'s server loads for the period starting at ``time_s``.

        A server whose DVFS level moved since its mapping was resolved
        takes the memoized mapping at its new frequency.
        """
        mappings = self._mappings[r]
        frequencies = self._frequencies[r]
        loads = []
        for s, server in enumerate(self.model.racks[r].servers):
            if mappings[s].configuration.frequency_ghz != frequencies[s]:
                mappings[s] = self._memoized_mapping(server.mapping, frequencies[s])
            phase = self._traces[r][s].phase_at(time_s)
            loads.append(
                ServerLoad(
                    benchmark=server.benchmark,
                    mapping=mappings[s],
                    activity_factor=phase.activity_factor,
                    water_loop=self._water_loops[r][s],
                )
            )
        return loads

    def reset(self) -> None:
        """Cold-start the floor (every rack's fields and held boundaries)."""
        self.floor_engine.reset()
        self._coarse_state = None

    def close(self) -> None:
        """Release the floor engine's worker pool (serial floors: no-op)."""
        self.floor_engine.close()

    def snapshot(self) -> DatacenterSnapshot:
        """Copy the session's mutable state for a later :meth:`restore`.

        Cheap by design: the actuator state is a few tuples of frozen
        values and the physics state copies one temperature array per
        rack — no simulator, factorization cache or memo is duplicated, so
        a restored session replays through warm caches.
        """
        return DatacenterSnapshot(
            setpoint_c=self.setpoint_c,
            water_loops=tuple(tuple(loops) for loops in self._water_loops),
            frequencies=tuple(tuple(f) for f in self._frequencies),
            mappings=tuple(tuple(m) for m in self._mappings),
            force_refresh=tuple(tuple(f) for f in self._force_refresh),
            floor=self.floor_engine.snapshot(),
            coarse_state=self._coarse_state,
        )

    def restore(self, snapshot: DatacenterSnapshot) -> None:
        """Rewind the session to a :meth:`snapshot`'s state.

        All or nothing: a snapshot whose rack count, per-rack server counts
        or field shapes do not fit this floor raises
        :class:`ValidationError` before any state changes (the actuator
        tuples are checked here, then :meth:`FloorEngine.restore` checks
        the physics state before it restores any rack).  The snapshot
        stays valid — one snapshot serves every candidate rollout of an
        MPC planning step.
        """
        sizes = [rack.n_servers for rack in self.model.racks]
        for name in ("water_loops", "frequencies", "mappings", "force_refresh"):
            held = [len(entries) for entries in getattr(snapshot, name)]
            if held != sizes:
                raise ValidationError(
                    f"snapshot {name} cover racks of {held} servers, "
                    f"floor has {sizes}"
                )
        self.floor_engine.restore(snapshot.floor)
        self.setpoint_c = snapshot.setpoint_c
        self._water_loops = [list(loops) for loops in snapshot.water_loops]
        self._frequencies = [list(f) for f in snapshot.frequencies]
        self._mappings = [list(m) for m in snapshot.mappings]
        self._force_refresh = [list(f) for f in snapshot.force_refresh]
        self._coarse_state = snapshot.coarse_state

    def _distinct_caches(self) -> list:
        """The floor's factorization caches, each exactly once.

        Racks sharing a simulator share its cache; heterogeneous floors
        carry one cache per hardware group.  Dedupe by cache identity so
        merged floor-wide stats neither double-count a shared cache nor
        drop a per-SKU one.
        """
        caches = {id(s.solver_cache): s.solver_cache for s in self.model.rack_simulators}
        return list(caches.values())

    def cache_stats(self) -> CacheStats:
        """Merged counters of every distinct factorization cache on the floor."""
        return sum(
            (cache.stats for cache in self._distinct_caches()), CacheStats.zero()
        )

    def set_setpoint(self, setpoint_c: float) -> None:
        """Move the chiller supply setpoint (the slow actuator).

        Re-issues every server's water loop at the new inlet temperature
        while keeping each server's own valve (flow-rate) state; the rack
        sessions rebuild their cooling boundaries at the next advance
        because the water condition changed.
        """
        if setpoint_c == self.setpoint_c:
            return
        self.setpoint_c = setpoint_c
        self._water_loops = [
            [loop.with_inlet_temperature(setpoint_c) for loop in rack_loops]
            for rack_loops in self._water_loops
        ]
        # The floor's thermal response to the new inlet temperature is a
        # transient: the last period's residuals no longer certify
        # quasi-steadiness, so the next period steps at full resolution.
        self._coarse_state = None

    def advance_period(
        self,
        time_s: float,
        *,
        n_substeps: int | None = None,
        reference: DatacenterSnapshot | None = None,
    ) -> DatacenterPeriod:
        """One floor-wide control period: floor physics + fast decisions.

        Each rack's loads are resolved per server, the floor engine
        advances every server through one stacked solve per (hardware
        group, cooling boundary) per substep, and
        :func:`~repro.core.runtime_controller.apply_rack_decisions` runs
        the policy on each rack's results.
        A fine period is a span of one: :meth:`advance_span` shares this
        step body and differs only in the floor lanes it runs.

        ``n_substeps`` overrides the model's backward-Euler substep count
        for this period only — MPC rollouts trade integration resolution
        for speed; the committed trace always runs the model's own.
        ``reference`` is the snapshot an MPC rollout started from: it lets
        the floor engine solve single-use rollout steps iteratively,
        preconditioned by the boundaries held in it (see
        :meth:`FloorEngine.advance`).  The committed trace never passes
        one.
        """
        return self._advance(time_s, 1, n_substeps=n_substeps, reference=reference)[0]

    # ------------------------------------------------------------------ #
    # Adaptive control-period coarsening
    # ------------------------------------------------------------------ #
    def advance_span(
        self, time_s: float, span: int, *, n_substeps: int | None = None
    ) -> list[DatacenterPeriod]:
        """Advance ``span`` control periods in one quasi-steady span.

        Only valid under :meth:`_plan_span`'s eligibility contract (held
        loads, no pending actuator event, warm floor) on a model built
        with a :class:`CoarseningConfig`.  The floor marches the whole span
        through :meth:`FloorEngine.advance_span` (reduced space with full
        fallback — see there; a span of one still takes that lane); the
        fast decision rule is evaluated once, on the final period's
        physics, exactly where the fine lane would next be allowed to act.
        The rest is :meth:`advance_period`'s step body.  Held periods are
        recorded as full :class:`DatacenterPeriod`\\ s at the held
        operating point — per-period case temperatures and within-period
        peaks come from the span lanes' readouts, the energy bill
        replicates the held actuator settings' chiller power (a staged
        bank is still re-staged per period: unit commitments may be
        time-dependent through maintenance windows) — so every
        trace-shape invariant (period counts, energy accounting,
        violation scanning) is preserved.
        """
        if self.model.coarsening is None:
            raise ConfigurationError(
                "advance_span needs a model built with a CoarseningConfig"
            )
        return self._advance(
            time_s, span, n_substeps=n_substeps, rom=self.model.coarsening.rom
        )

    def _advance(
        self,
        time_s: float,
        span: int,
        *,
        n_substeps: int | None,
        reference: DatacenterSnapshot | None = None,
        rom: RomConfig | None = None,
    ) -> list[DatacenterPeriod]:
        """The step body of :meth:`advance_period` and :meth:`advance_span`.

        ``rom`` (only from :meth:`advance_span`) selects the floor's span
        lanes; without it the floor advances one fine period.
        """
        model = self.model
        substeps = n_substeps if n_substeps is not None else model.transient_substeps
        bank = model.plant if isinstance(model.plant, ChillerBank) else None
        # A staged bank accounts per-server loads *thermally* (Eq. 1 at
        # unit COP — the exact condenser heat rate) and converts the floor
        # total to electrical power through its unit commitment below; a
        # single plant keeps the setpoint-dependent per-rack chiller.
        chiller = (
            bank.accounting_chiller()
            if bank is not None
            else model.plant.chiller_at(self.setpoint_c)
        )
        rack_loads = [self._rack_loads(r, time_s) for r in range(model.n_racks)]
        if rom is None:
            floor_advance = self.floor_engine.advance(
                rack_loads,
                model.control_period_s,
                n_substeps=substeps,
                force_boundary_refresh=self._force_refresh,
                reference=None if reference is None else reference.floor,
            )
        else:
            floor_advance = self.floor_engine.advance_span(
                rack_loads,
                model.control_period_s,
                span,
                rom=rom,
                n_substeps=substeps,
                force_boundary_refresh=self._force_refresh,
                t_case_max_c=model.policy.t_case_max_c,
            )
        # Period stamps accumulate exactly like run()'s outer loop, so a
        # coarse trace's time axis is bit-identical to the fine lane's.
        times = []
        stamp = time_s
        for _ in range(span):
            times.append(stamp)
            stamp += model.control_period_s

        final_decisions: list[tuple[ControllerDecision, ...]] = []
        rack_chiller_w: list[float] = []
        for r, rack in enumerate(model.racks):
            decisions, period_chiller_w = apply_rack_decisions(
                floor_advance.racks[r],
                rack.servers,
                self._frequencies[r],
                self._water_loops[r],
                self._force_refresh[r],
                times[-1],
                model.policy,
                chiller,
            )
            final_decisions.append(decisions)
            rack_chiller_w.append(period_chiller_w)
        thermal_load_w = sum(rack_chiller_w)

        periods: list[DatacenterPeriod] = []
        for j, period_time in enumerate(times):
            if j == span - 1:
                decisions_j = tuple(final_decisions)
            else:
                decisions_j = tuple(
                    tuple(
                        replace(
                            decision,
                            time_s=period_time,
                            action=ControllerAction.NONE,
                            case_temperature_c=float(
                                floor_advance.period_case_c[r][j, s]
                            ),
                            period_peak_case_c=float(
                                floor_advance.period_peak_case_c[r][j, s]
                            ),
                        )
                        for s, decision in enumerate(final_decisions[r])
                    )
                    for r in range(model.n_racks)
                )
            staging_j = None
            chiller_w_j = rack_chiller_w
            if bank is not None:
                staging_j = bank.stage(self.setpoint_c, thermal_load_w, period_time)
                if thermal_load_w > 0.0:
                    # Prorate the bank's electrical power back onto the
                    # racks by their thermal share, so plant_power_w stays
                    # the sum of the per-rack chiller powers for both plant
                    # kinds.
                    scale = staging_j.electrical_power_w / thermal_load_w
                    chiller_w_j = [power * scale for power in rack_chiller_w]
            periods.append(
                DatacenterPeriod(
                    time_s=period_time,
                    setpoint_c=self.setpoint_c,
                    rack_decisions=decisions_j,
                    rack_chiller_power_w=tuple(chiller_w_j),
                    worst_period_peak_case_c=float(
                        floor_advance.period_worst_peak_c[j]
                    ),
                    staging=staging_j,
                )
            )
        return periods

    def _note_period(self, period: DatacenterPeriod) -> None:
        """Record the eligibility signals the coarsening planner reads."""
        if self.model.coarsening is None:
            return
        all_none = True
        max_residual = 0.0
        for decisions in period.rack_decisions:
            for decision in decisions:
                if decision.action is not ControllerAction.NONE:
                    all_none = False
                residual = decision.settle_residual_c
                if residual is None:
                    max_residual = float("inf")
                else:
                    max_residual = max(max_residual, residual)
        self._coarse_state = (
            all_none,
            max_residual,
            period.worst_period_peak_case_c,
            period.rack_decisions,
        )

    def _plan_span(
        self,
        time_s: float,
        duration: float,
        periods_per_window: int,
        period_index: int,
    ) -> tuple[int, str | None]:
        """``(span, dropback_reason)`` for the next step.

        The span is 1 (fine stepping) unless every coarsening trigger is
        clear: the last committed period saw only ``NONE`` decisions with
        settle residuals inside ``quasi_steady_tol_c``, the floor's peak
        clears the constraint guard band, no open-valve server sits within
        the relax drift guard of a ``DECREASE_FLOW`` trigger, no boundary
        refresh is pending, and the span fits before the next scenario
        phase boundary, supervisory window boundary and run end.  The
        geometric part — event lattice, window cap, run end, dyadic
        quantization — is the floor-wide
        :class:`~repro.datacenter.span.SpanPlanner`'s
        :meth:`~repro.datacenter.span.SpanPlanner.plan`.

        ``dropback_reason`` names the trigger that forced a fine step
        (``None`` for a coarse span) — the explainability record behind
        the ``coarsen.dropback.*`` telemetry counters: why did *this*
        period run at full resolution?
        """
        cfg = self.model.coarsening
        if cfg is None:
            return 1, "disabled"
        state = self._coarse_state
        if state is None:
            # No signals: a run's first period, or a reset or setpoint
            # move cleared them.
            return 1, "cold_start"
        all_none, max_residual, worst_peak, rack_decisions = state
        if not all_none:
            return 1, "actuator"
        if max_residual > cfg.quasi_steady_tol_c:
            return 1, "residual"
        policy = self.model.policy
        if worst_peak > policy.t_case_max_c - cfg.guard_band_c:
            return 1, "peak_guard"
        if any(any(flags) for flags in self._force_refresh):
            return 1, "refresh_pending"
        # Relax-band drift guard: a server with an open valve whose case
        # temperature is barely above the DECREASE_FLOW threshold could
        # drift across it mid-span; keep such periods at full resolution.
        relax_threshold_c = policy.t_case_max_c - policy.relax_margin_c
        for r, decisions in enumerate(rack_decisions):
            for s, decision in enumerate(decisions):
                loop = self._water_loops[r][s]
                if (
                    loop.flow_rate_kg_h > loop.min_flow_rate_kg_h
                    and decision.case_temperature_c
                    < relax_threshold_c + cfg.relax_guard_c
                ):
                    return 1, "relax_guard"
        span = self._span_planner.plan(
            time_s, duration, periods_per_window, period_index
        )
        if span <= 1:
            # Quasi-steady, but the event lattice (phase boundary, window
            # boundary or run end) left no room for a span.
            return 1, "lattice"
        return span, None

    def run(
        self,
        *,
        duration_s: float | None = None,
        supervisory: SupervisoryController | None = None,
    ) -> DatacenterTrace:
        """Run the floor from the session's state and assemble the trace.

        A fresh session starts cold.  A session that already ran, or was
        given a :meth:`restore`, continues from its fields, held
        boundaries, valves, frequencies and setpoint; :meth:`reset`
        cold-starts its floor again.  Only the coarsening signals are
        cleared, so the first period steps fine.  The trace's time axis
        starts at 0.

        With ``supervisory`` the slow loop decides every
        ``supervisory.period_s`` (which must be an integer multiple of the
        fast control period); its setpoint moves take effect from the next
        control period.  A controller exposing a callable ``plan``
        attribute (:class:`~repro.datacenter.supervisory.\
MpcSupervisoryController`) is handed the live session for receding-horizon
        rollouts; otherwise the reactive ``decide`` runs on the window's
        observed peak.  A window that produced no peak observation (the
        worst peak is still ``-inf``) holds the setpoint and logs the
        previous window's peak — it must never reach the raise predicate,
        where ``-inf`` would authorize an unconditional raise.  Without
        ``supervisory`` the setpoint stays fixed; a one-rack fixed-setpoint
        run is :meth:`ThermosyphonController.run_rack_trace`.
        """
        model = self.model
        duration = duration_s if duration_s is not None else model.duration_s
        check_positive(duration, "duration_s")
        periods_per_window = 0
        if supervisory is not None:
            ratio = supervisory.period_s / model.control_period_s
            periods_per_window = int(round(ratio))
            if periods_per_window < 1 or abs(ratio - periods_per_window) > 1e-9:
                raise ConfigurationError(
                    f"supervisory period {supervisory.period_s} s must be an "
                    f"integer multiple of the control period "
                    f"{model.control_period_s} s"
                )
        self._coarse_state = None
        obs = get_telemetry()
        caches = self._distinct_caches()
        stats_before = [cache.stats for cache in caches]
        stores = {
            id(cache.warm_store): cache.warm_store
            for cache in caches
            if getattr(cache, "warm_store", None) is not None
        }
        store_stats_before = {key: store.stats for key, store in stores.items()}
        rom_before = (
            self.floor_engine.rom_stats.copy()
            if model.coarsening is not None
            else None
        )

        trace = DatacenterTrace(
            rack_names=tuple(rack.name for rack in model.racks),
            racks=[
                RackTrace(control_period_s=model.control_period_s)
                for _ in model.racks
            ],
            control_period_s=model.control_period_s,
            t_case_max_c=model.policy.t_case_max_c,
        )
        window_peak = float("-inf")
        carried_peak = float("nan")
        period_index = 0
        time_s = 0.0
        while time_s < duration:
            # Coarsening: when the last period certified quasi-steadiness
            # (and no trigger is pending), a whole dyadic span advances in
            # one step; otherwise a single fine period.  Spans never
            # cross a supervisory window boundary, so the window block
            # below can stay per-period.
            span, dropback = self._plan_span(
                time_s, duration, periods_per_window, period_index
            )
            with obs.span("session.span", span=span, reason=dropback):
                if span > 1:
                    periods = self.advance_span(time_s, span)
                    trace.coarse_spans += 1
                    trace.coarse_periods += span
                else:
                    periods = [self.advance_period(time_s)]
            if obs.enabled:
                obs.inc("session.spans")
                obs.inc("session.periods", span)
                if dropback is not None:
                    obs.inc(f"coarsen.dropback.{dropback}")
            # Span-boundary accounting: one bulk commit per span.  The
            # planner never lets a span cross a supervisory window
            # boundary, so the window block below only needs to run at the
            # span end — per-period bookkeeping collapses to list extends,
            # a max over the span's peaks and one eligibility note on the
            # final period (intermediate notes are never read: no plan
            # happens inside a span).  The per-period float time
            # accumulation is kept verbatim so phase lookups stay
            # bit-identical to the fine lane's.
            for r in range(model.n_racks):
                rack_trace = trace.racks[r]
                rack_trace.periods.extend(
                    period.rack_decisions[r] for period in periods
                )
                rack_trace.chiller_power_w.extend(
                    period.rack_chiller_power_w[r] for period in periods
                )
            trace.setpoint_c.extend(period.setpoint_c for period in periods)
            trace.plant_power_w.extend(period.plant_power_w for period in periods)
            if periods[0].staging is not None:
                trace.staging.extend(period.staging for period in periods)
            window_peak = max(
                window_peak,
                max(period.worst_period_peak_case_c for period in periods),
            )
            period_index += len(periods)
            for _ in periods:
                # One addition per period, on the fine and coarse lanes
                # alike, so the per-period phase lookups see bit-identical
                # times.
                time_s += model.control_period_s
            # Note the final period's eligibility signals *before* the
            # window block: a setpoint move below must leave the next
            # period fine (set_setpoint clears the signals).
            self._note_period(periods[-1])
            if (
                supervisory is not None
                and period_index % periods_per_window == 0
                and time_s < duration
            ):
                if window_peak == float("-inf"):
                    # No server reported a peak this window.  The raise
                    # predicate must never see -inf (the predicted peak
                    # would be -inf too and a raise always authorized):
                    # hold, carrying the previous window's peak in the log.
                    decision = SupervisoryDecision(
                        time_s=time_s,
                        setpoint_c=self.setpoint_c,
                        next_setpoint_c=self.setpoint_c,
                        action=SupervisoryAction.HOLD,
                        worst_peak_case_c=carried_peak,
                        predicted_peak_case_c=carried_peak,
                    )
                else:
                    carried_peak = window_peak
                    plan = getattr(supervisory, "plan", None)
                    if callable(plan):
                        decision = plan(
                            self, time_s, window_peak, duration_s=duration
                        )
                    else:
                        decision = supervisory.decide(
                            time_s, self.setpoint_c, window_peak
                        )
                trace.supervisory_decisions.append(decision)
                self.set_setpoint(decision.next_setpoint_c)
                window_peak = float("-inf")
        if rom_before is not None:
            trace.rom_stats = self.floor_engine.rom_stats.delta(rom_before)
        trace.cache_stats = sum(
            (cache.stats.delta(before) for cache, before in zip(caches, stats_before)),
            CacheStats.zero(),
        )
        trace.factorizations = trace.cache_stats.misses
        if obs.enabled:
            # Publish this run's cache and warm-store *deltas* to the hub
            # once, at the end — the live per-instance bags keep counting
            # across runs, the hub records what this run contributed.
            obs.inc("cache.hits", trace.cache_stats.hits)
            obs.inc("cache.misses", trace.cache_stats.misses)
            for key, store in stores.items():
                before = store_stats_before[key]
                after = store.stats
                for name in (
                    "reduced_hits",
                    "reduced_misses",
                    "system_hits",
                    "system_misses",
                    "stores",
                    "stale",
                ):
                    delta = getattr(after, name) - getattr(before, name)
                    if delta:
                        obs.inc(f"warm_store.{name}", delta)
        return trace
