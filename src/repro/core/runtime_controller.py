"""Runtime thermosyphon controller (last paragraph of Section VII).

During execution the only fast actuator is the water-flow valve.  The
controller therefore follows the paper's rule: increase the water flow rate
only when a thermal emergency occurs (``T_CASE >= T_CASE_MAX``); if the
valve is already fully open, lower the core frequency one level — but only
if the QoS constraint still holds at the lower frequency; if neither
actuator is available the emergency is reported.

Two execution modes are offered by :meth:`ThermosyphonController.run_trace`:

``mode="steady"``
    The original quasi-static study: each control period the workload
    phase's power is evaluated and the loop and thermal models are solved
    to *equilibrium* at the current actuator settings.  Every power jitter
    produces a new cooling boundary and therefore (cache misses aside) a
    new operator factorization.

``mode="transient"``
    The time-domain study, closer to the paper's runtime claim: the trace
    runs as a one-server :meth:`ThermosyphonController.run_rack_trace`,
    i.e. as one :class:`~repro.datacenter.model.DatacenterSession` run of
    a one-server floor — the library's one driver loop around its one
    transient engine (:class:`~repro.datacenter.floor.FloorEngine`), with
    the controller as the floor's decision policy.  The temperature field
    is carried across periods and advanced with backward-Euler steps; the
    cooling boundary is held between actuator events (and refreshed on
    large power drift), so a whole trace runs on a handful of
    factorizations — each period is a few cached back-substitutions.
    Decisions gain transient diagnostics: the settle residual (how far
    from equilibrium the period ended) and the peak case temperature
    observed *within* the period.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

from repro.core.mapping import ThreadMapper, WorkloadMapping
from repro.core.pipeline import CooledServerSimulation, EvaluationResult, T_CASE_MAX_C
from repro.core.rack_session import RackSession
from repro.exceptions import ConfigurationError, ThermalEmergencyError
from repro.power.dvfs import CORE_FREQUENCIES_GHZ
from repro.thermal.solver_cache import CacheStats
from repro.thermosyphon.chiller import ChillerModel
from repro.thermosyphon.water_loop import WaterLoop
from repro.utils.validation import check_positive
from repro.workloads.benchmark import BenchmarkCharacteristics
from repro.workloads.configuration import Configuration
from repro.workloads.qos import QoSConstraint
from repro.workloads.trace import PhasedTrace


class ControllerAction(enum.Enum):
    """What the controller did at the end of a control period."""

    NONE = "none"
    INCREASE_FLOW = "increase_flow"
    DECREASE_FLOW = "decrease_flow"
    LOWER_FREQUENCY = "lower_frequency"
    EMERGENCY = "emergency"


#: Actions that change an actuator setting for the next period; in transient
#: mode they force a cooling-boundary refresh at the next evaluation.
ACTUATOR_ACTIONS = frozenset(
    {
        ControllerAction.INCREASE_FLOW,
        ControllerAction.DECREASE_FLOW,
        ControllerAction.LOWER_FREQUENCY,
    }
)


def mapping_at_frequency(
    mapping: WorkloadMapping, frequency_ghz: float
) -> WorkloadMapping:
    """The mapping re-pinned to ``frequency_ghz``.

    Returns ``mapping`` itself when the frequency already matches, so a
    trace without DVFS actions never rebuilds configuration or mapping
    objects.
    """
    if mapping.configuration.frequency_ghz == frequency_ghz:
        return mapping
    return replace(
        mapping,
        configuration=replace(mapping.configuration, frequency_ghz=frequency_ghz),
    )


def qos_allows_frequency(
    benchmark: BenchmarkCharacteristics,
    configuration: Configuration,
    constraint: QoSConstraint,
    frequency_ghz: float,
) -> bool:
    """True when the QoS constraint still holds at the candidate frequency."""
    candidate = Configuration(
        n_cores=configuration.n_cores,
        threads_per_core=configuration.threads_per_core,
        frequency_ghz=frequency_ghz,
    )
    return constraint.is_satisfied_by(benchmark, candidate)


@dataclass(frozen=True)
class DecisionPolicy:
    """The paper's flow-first/DVFS-second rule as a standalone value.

    Extracted from :class:`ThermosyphonController` so engines without a
    single-server simulation — the datacenter floor of
    :mod:`repro.datacenter`, which drives many racks through shared
    operators — can apply the identical per-server rule.  The controller
    delegates to this class, so both lanes can never diverge.

    ``qos_filter`` optionally replaces the default QoS feasibility check;
    the controller binds its own (possibly subclass-overridden)
    ``_qos_allows_frequency`` here so custom QoS rules keep steering every
    lane.
    """

    t_case_max_c: float = T_CASE_MAX_C
    flow_step_kg_h: float = 2.0
    relax_margin_c: float = 8.0
    raise_on_unresolved: bool = False
    qos_filter: "Callable[..., bool] | None" = None

    def __post_init__(self) -> None:
        check_positive(self.flow_step_kg_h, "flow_step_kg_h")

    def qos_allows_frequency(
        self,
        benchmark: BenchmarkCharacteristics,
        configuration: Configuration,
        constraint: QoSConstraint,
        frequency_ghz: float,
    ) -> bool:
        """True when the constraint still holds at the candidate frequency."""
        check = self.qos_filter if self.qos_filter is not None else qos_allows_frequency
        return check(benchmark, configuration, constraint, frequency_ghz)

    def decide(
        self,
        result: EvaluationResult,
        water_loop: WaterLoop,
        benchmark: BenchmarkCharacteristics,
        constraint: QoSConstraint,
    ) -> tuple[ControllerAction, WaterLoop, float]:
        """Pick the next action given the latest thermal evaluation.

        Returns the action, the water loop for the next period and the core
        frequency for the next period.
        """
        frequency = result.configuration.frequency_ghz
        if result.case_temperature_c >= self.t_case_max_c:
            if not water_loop.at_maximum_flow:
                return (
                    ControllerAction.INCREASE_FLOW,
                    water_loop.with_flow_rate(
                        water_loop.flow_rate_kg_h + self.flow_step_kg_h
                    ),
                    frequency,
                )
            lower_levels = [f for f in CORE_FREQUENCIES_GHZ if f < frequency]
            for candidate in sorted(lower_levels, reverse=True):
                if self.qos_allows_frequency(
                    benchmark, result.configuration, constraint, candidate
                ):
                    return ControllerAction.LOWER_FREQUENCY, water_loop, candidate
            if self.raise_on_unresolved:
                raise ThermalEmergencyError(
                    f"T_CASE {result.case_temperature_c:.1f} degC >= "
                    f"{self.t_case_max_c:.1f} degC with the valve fully open and no "
                    "QoS-feasible frequency reduction available"
                )
            return ControllerAction.EMERGENCY, water_loop, frequency

        relaxed_enough = (
            result.case_temperature_c < self.t_case_max_c - self.relax_margin_c
        )
        above_minimum_flow = water_loop.flow_rate_kg_h > water_loop.min_flow_rate_kg_h
        if relaxed_enough and above_minimum_flow:
            return (
                ControllerAction.DECREASE_FLOW,
                water_loop.with_flow_rate(
                    water_loop.flow_rate_kg_h - self.flow_step_kg_h
                ),
                frequency,
            )
        return ControllerAction.NONE, water_loop, frequency


@dataclass(frozen=True)
class ControllerDecision:
    """State and action of one control period.

    ``water_flow_kg_h`` and ``frequency_ghz`` are the actuator settings the
    period was *evaluated* with — the settings that produced
    ``case_temperature_c``.  The action's resulting settings appear in the
    following period's decision.

    In transient mode two diagnostics are populated (None in steady mode):
    ``settle_residual_c`` is the largest per-cell temperature change over
    the period's final substep (how far from equilibrium the period ended),
    and ``period_peak_case_c`` is the highest case temperature observed at
    any substep within the period — the transient field can overshoot the
    period-end value that the decision is based on.
    """

    time_s: float
    case_temperature_c: float
    die_hot_spot_c: float
    package_power_w: float
    water_flow_kg_h: float
    frequency_ghz: float
    action: ControllerAction
    settle_residual_c: float | None = None
    period_peak_case_c: float | None = None


@dataclass
class ControllerTrace:
    """Time series of controller decisions.

    ``mode`` records how the trace was produced ("steady" re-solves
    equilibrium each period; "transient" advances a warm-start temperature
    field).  ``factorizations`` counts the thermal-operator factorizations
    the trace cost (:meth:`ThermosyphonController.run_trace` always sets
    it) — the headline difference between the modes.
    """

    decisions: list[ControllerDecision] = field(default_factory=list)
    mode: str = "steady"
    factorizations: int | None = None

    @property
    def emergencies(self) -> int:
        """Number of periods that ended in an unresolvable emergency."""
        return sum(1 for d in self.decisions if d.action is ControllerAction.EMERGENCY)

    @property
    def flow_increases(self) -> int:
        """Number of valve-opening actions."""
        return sum(1 for d in self.decisions if d.action is ControllerAction.INCREASE_FLOW)

    @property
    def frequency_reductions(self) -> int:
        """Number of DVFS down-steps."""
        return sum(1 for d in self.decisions if d.action is ControllerAction.LOWER_FREQUENCY)

    @property
    def peak_case_temperature_c(self) -> float:
        """Highest observed case temperature (period-end values)."""
        return max((d.case_temperature_c for d in self.decisions), default=float("nan"))

    @property
    def peak_period_case_temperature_c(self) -> float:
        """Highest case temperature including within-period transient peaks.

        Falls back to the period-end peak when transient diagnostics are
        absent (steady mode).
        """
        peaks = [
            d.period_peak_case_c for d in self.decisions if d.period_peak_case_c is not None
        ]
        if not peaks:
            return self.peak_case_temperature_c
        return max(peaks)

    def summary(self) -> str:
        """Human-readable digest of the trace."""
        lines = [
            f"controller trace ({self.mode} mode, {len(self.decisions)} periods)",
            f"  valve openings        : {self.flow_increases}",
            f"  frequency reductions  : {self.frequency_reductions}",
            f"  unresolved emergencies: {self.emergencies}",
            f"  peak case temperature : {self.peak_case_temperature_c:.1f} C",
        ]
        if self.mode == "transient":
            residuals = [
                d.settle_residual_c
                for d in self.decisions
                if d.settle_residual_c is not None
            ]
            lines.append(
                f"  peak within-period    : {self.peak_period_case_temperature_c:.1f} C"
            )
            if residuals:
                lines.append(
                    f"  final settle residual : {residuals[-1]:.4g} C/step"
                )
        if self.factorizations is not None:
            lines.append(f"  operator factorizations: {self.factorizations}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RackServer:
    """One server of a rack trace: its workload, mapping and QoS contract.

    ``trace`` optionally gives the server its own phased activity trace;
    servers without one follow the shared trace passed to
    :meth:`ThermosyphonController.run_rack_trace`.
    """

    benchmark: BenchmarkCharacteristics
    mapping: WorkloadMapping
    constraint: QoSConstraint
    trace: PhasedTrace | None = None


@dataclass
class RackTrace:
    """Time series of per-server controller decisions over a whole rack.

    ``periods[t][s]`` is server ``s``'s decision at control period ``t``.
    ``chiller_power_w`` carries the rack-wide chiller electrical power of
    each period (Eq. 1 summed over the servers at their evaluated water
    loops).  ``factorizations`` counts the thermal-operator factorizations
    the whole rack trace cost, and ``cache_stats`` carries this trace's
    hit/miss activity together with the cache's entry counts *at trace end*
    (entries may include operators from earlier studies on a shared
    simulator) — on a homogeneous rack the batched engine pays one
    factorization where independent per-server traces would pay
    ``n_servers``.  A datacenter run's per-rack records
    (``DatacenterTrace.racks``) leave both None, since it counts
    floor-wide; :meth:`ThermosyphonController.run_rack_trace` returns its
    one-rack run's record with those floor-wide counts attached.
    """

    periods: list[tuple[ControllerDecision, ...]] = field(default_factory=list)
    chiller_power_w: list[float] = field(default_factory=list)
    control_period_s: float = 2.0
    mode: str = "transient"
    factorizations: int | None = None
    cache_stats: CacheStats | None = None

    @property
    def n_periods(self) -> int:
        """Number of executed control periods."""
        return len(self.periods)

    @property
    def n_servers(self) -> int:
        """Number of servers in the rack."""
        return len(self.periods[0]) if self.periods else 0

    def server_decisions(self, server: int) -> list[ControllerDecision]:
        """One server's decision series across the trace."""
        return [period[server] for period in self.periods]

    def _count(self, action: ControllerAction) -> int:
        return sum(
            1 for period in self.periods for d in period if d.action is action
        )

    @property
    def emergencies(self) -> int:
        """Number of (period, server) pairs ending in an unresolved emergency."""
        return self._count(ControllerAction.EMERGENCY)

    @property
    def flow_increases(self) -> int:
        """Number of valve-opening actions across all servers."""
        return self._count(ControllerAction.INCREASE_FLOW)

    @property
    def frequency_reductions(self) -> int:
        """Number of DVFS down-steps across all servers."""
        return self._count(ControllerAction.LOWER_FREQUENCY)

    @property
    def peak_case_temperature_c(self) -> float:
        """Highest period-end case temperature across the rack and trace."""
        return max(
            (d.case_temperature_c for period in self.periods for d in period),
            default=float("nan"),
        )

    @property
    def peak_period_case_temperature_c(self) -> float:
        """Highest case temperature including within-period transient peaks."""
        peaks = [
            d.period_peak_case_c
            for period in self.periods
            for d in period
            if d.period_peak_case_c is not None
        ]
        return max(peaks) if peaks else self.peak_case_temperature_c

    @property
    def mean_chiller_power_w(self) -> float:
        """Average rack-wide chiller power over the trace."""
        if not self.chiller_power_w:
            return float("nan")
        return sum(self.chiller_power_w) / len(self.chiller_power_w)

    @property
    def chiller_energy_j(self) -> float:
        """Rack-wide chiller energy over the whole trace."""
        return sum(self.chiller_power_w) * self.control_period_s

    def summary(self) -> str:
        """Human-readable digest of the rack trace."""
        lines = [
            f"rack trace ({self.n_servers} servers, {self.n_periods} periods, "
            f"{self.mode} mode)",
            f"  valve openings        : {self.flow_increases}",
            f"  frequency reductions  : {self.frequency_reductions}",
            f"  unresolved emergencies: {self.emergencies}",
            f"  peak case temperature : {self.peak_case_temperature_c:.1f} C",
            f"  peak within-period    : {self.peak_period_case_temperature_c:.1f} C",
            f"  mean chiller power    : {self.mean_chiller_power_w:.1f} W",
        ]
        if self.factorizations is not None:
            lines.append(f"  operator factorizations: {self.factorizations}")
        if self.cache_stats is not None:
            lines.append(
                f"  solver cache hit rate  : {self.cache_stats.hit_rate:.1%} "
                f"({self.cache_stats.hits} hits / {self.cache_stats.misses} misses)"
            )
        return "\n".join(lines)


def apply_rack_decisions(
    advance,
    servers: Sequence[RackServer],
    frequencies: list[float],
    water_loops: list[WaterLoop],
    force_refresh: list[bool],
    time_s: float,
    policy,
    chiller: ChillerModel,
) -> tuple[tuple[ControllerDecision, ...], float]:
    """Apply the fast per-server rule to one rack's advanced physics.

    The decision stage of :class:`repro.datacenter.model.DatacenterSession`,
    run once per rack every period: walks a
    :class:`~repro.core.rack_session.RackAdvance`, charges the rack's
    chiller power and lets ``policy`` pick each server's next actuator
    settings.  ``policy`` is anything with the
    :meth:`DecisionPolicy.decide` signature (a controller passed as the
    floor's policy steers it with its own ``decide``).  ``frequencies``,
    ``water_loops`` and ``force_refresh`` are updated **in place**; returns
    the period's decisions and the rack chiller electrical power, both
    evaluated at the settings the period actually ran with.
    """
    decisions = []
    period_chiller_w = 0.0
    for index, server in enumerate(servers):
        step = advance.servers[index]
        result = step.result
        evaluated_flow_kg_h = water_loops[index].flow_rate_kg_h
        evaluated_frequency_ghz = frequencies[index]
        period_chiller_w += chiller.cooling_power_w(
            water_loops[index], result.package_power_w
        )
        action, water_loops[index], frequencies[index] = policy.decide(
            result, water_loops[index], server.benchmark, server.constraint
        )
        force_refresh[index] = action in ACTUATOR_ACTIONS
        decisions.append(
            ControllerDecision(
                time_s=time_s,
                case_temperature_c=result.case_temperature_c,
                die_hot_spot_c=result.die_metrics.theta_max_c,
                package_power_w=result.package_power_w,
                water_flow_kg_h=evaluated_flow_kg_h,
                frequency_ghz=evaluated_frequency_ghz,
                action=action,
                settle_residual_c=step.settle_residual_c,
                period_peak_case_c=step.period_peak_case_c,
            )
        )
    return tuple(decisions), period_chiller_w


class ThermosyphonController:
    """Flow-rate-first, DVFS-second thermal emergency controller."""

    def __init__(
        self,
        simulation: CooledServerSimulation,
        *,
        t_case_max_c: float = T_CASE_MAX_C,
        flow_step_kg_h: float = 2.0,
        control_period_s: float = 2.0,
        relax_margin_c: float = 8.0,
        raise_on_unresolved: bool = False,
    ) -> None:
        self.simulation = simulation
        self.t_case_max_c = t_case_max_c
        self.flow_step_kg_h = check_positive(flow_step_kg_h, "flow_step_kg_h")
        self.control_period_s = check_positive(control_period_s, "control_period_s")
        #: When the case temperature falls this far below the limit the
        #: controller closes the valve again to save pumping/chiller effort.
        self.relax_margin_c = relax_margin_c
        self.raise_on_unresolved = raise_on_unresolved

    # ------------------------------------------------------------------ #
    # Single-period decision
    # ------------------------------------------------------------------ #
    @property
    def policy(self) -> DecisionPolicy:
        """The controller's current decision rule as a standalone value.

        The QoS check is bound back to ``self._qos_allows_frequency``, so a
        subclass overriding it steers single-server and rack traces alike.
        """
        return DecisionPolicy(
            t_case_max_c=self.t_case_max_c,
            flow_step_kg_h=self.flow_step_kg_h,
            relax_margin_c=self.relax_margin_c,
            raise_on_unresolved=self.raise_on_unresolved,
            qos_filter=self._qos_allows_frequency,
        )

    def _qos_allows_frequency(
        self,
        benchmark: BenchmarkCharacteristics,
        configuration: Configuration,
        constraint: QoSConstraint,
        frequency_ghz: float,
    ) -> bool:
        return qos_allows_frequency(
            benchmark, configuration, constraint, frequency_ghz
        )

    def decide(
        self,
        result: EvaluationResult,
        water_loop: WaterLoop,
        benchmark: BenchmarkCharacteristics,
        constraint: QoSConstraint,
    ) -> tuple[ControllerAction, WaterLoop, float]:
        """Pick the next action given the latest thermal evaluation.

        Returns the action, the water loop for the next period and the core
        frequency for the next period.  Delegates to :class:`DecisionPolicy`
        with the controller's current parameters.
        """
        return self.policy.decide(result, water_loop, benchmark, constraint)

    # ------------------------------------------------------------------ #
    # Trace execution
    # ------------------------------------------------------------------ #
    def run_trace(
        self,
        benchmark: BenchmarkCharacteristics,
        mapping: WorkloadMapping,
        constraint: QoSConstraint,
        trace: PhasedTrace,
        *,
        initial_water_loop: WaterLoop | None = None,
        mode: str = "steady",
        transient_substeps: int = 4,
    ) -> ControllerTrace:
        """Run the controller over a phased workload trace.

        ``mode="steady"`` re-solves equilibrium each period (the original
        quasi-static study); ``mode="transient"`` runs the trace as a
        one-server :meth:`run_rack_trace` — a warm-start temperature field
        advanced with ``transient_substeps`` backward-Euler substeps per
        control period on a one-server floor, with the transient
        diagnostics populated on every decision.  The decision rule itself
        is identical in both modes.
        """
        if mode not in ("steady", "transient"):
            raise ConfigurationError(
                f"mode must be 'steady' or 'transient', got {mode!r}"
            )
        if mode == "transient":
            rack = self.run_rack_trace(
                [RackServer(benchmark, mapping, constraint)],
                trace,
                initial_water_loop=initial_water_loop,
                transient_substeps=transient_substeps,
            )
            return ControllerTrace(
                decisions=[period[0] for period in rack.periods],
                mode="transient",
                factorizations=rack.factorizations,
            )
        simulation = self.simulation
        mapper = ThreadMapper(
            simulation.floorplan, orientation=simulation.design.orientation
        )
        water_loop = (
            initial_water_loop
            if initial_water_loop is not None
            else simulation.design.water_loop()
        )
        frequency = mapping.configuration.frequency_ghz
        record = ControllerTrace(mode=mode)
        cache = simulation.thermal_simulator.solver_cache
        misses_before = cache.stats.misses

        current_mapping = mapping
        time_s = 0.0
        while time_s < trace.duration_s:
            phase = trace.phase_at(time_s)
            if current_mapping.configuration.frequency_ghz != frequency:
                # Only rebuild configuration/mapping when DVFS actually acted.
                current_mapping = mapping_at_frequency(mapping, frequency)
            result = simulation.simulate_mapping(
                benchmark,
                current_mapping,
                mapper=mapper,
                water_loop=water_loop,
                activity_factor=phase.activity_factor,
            )
            # Capture the actuator settings this period actually ran with
            # before decide() computes the next period's settings.
            evaluated_flow_kg_h = water_loop.flow_rate_kg_h
            evaluated_frequency_ghz = frequency
            action, water_loop, frequency = self.decide(
                result, water_loop, benchmark, constraint
            )
            record.decisions.append(
                ControllerDecision(
                    time_s=time_s,
                    case_temperature_c=result.case_temperature_c,
                    die_hot_spot_c=result.die_metrics.theta_max_c,
                    package_power_w=result.package_power_w,
                    water_flow_kg_h=evaluated_flow_kg_h,
                    frequency_ghz=evaluated_frequency_ghz,
                    action=action,
                )
            )
            time_s += self.control_period_s
        record.factorizations = cache.stats.misses - misses_before
        return record

    # ------------------------------------------------------------------ #
    # Rack trace execution
    # ------------------------------------------------------------------ #
    def run_rack_trace(
        self,
        servers: Sequence[RackServer],
        trace: PhasedTrace | None = None,
        *,
        initial_water_loop: WaterLoop | None = None,
        transient_substeps: int = 4,
        rack_session: RackSession | None = None,
        chiller: ChillerModel | None = None,
    ) -> RackTrace:
        """Run the controller over a whole rack of servers at once.

        The trace is one :meth:`~repro.datacenter.model.DatacenterSession.run`
        of a one-rack, fixed-setpoint
        :class:`~repro.datacenter.model.DatacenterModel`, with this
        controller as the floor's policy (so a subclass overriding
        :meth:`decide` steers it) and ``chiller`` as its fixed-efficiency
        plant.  Every server follows the decision rule
        of :meth:`run_trace` in transient mode — flow first, DVFS second,
        per-server valve and frequency state — while the floor engine
        advances servers holding the same cooling boundary through a single
        cached operator per substep, so a homogeneous rack trace costs
        roughly ``n_servers`` times fewer factorizations than independent
        per-server traces.

        ``trace`` is the shared activity trace; servers carrying their own
        :attr:`RackServer.trace` follow it instead (the rack runs until the
        longest trace ends, shorter traces idling on their final phase).
        Every server starts at ``initial_water_loop`` (default: the
        design's).  ``rack_session`` may be supplied to continue from
        accumulated state (its temperature fields and held boundaries seed
        the run and receive the rack's state at its end — call
        :meth:`RackSession.reset` first for a cold start) or to use a
        custom substrate; by default the floor is built on the
        simulation's floorplan, power model and thermal simulator, so the
        factorization cache is shared with any single-server studies on the
        same simulation.  The returned record carries the run's
        factorization count and cache statistics.
        """
        # Imported here: repro.datacenter imports this module (through
        # its model), so a module-level import would be circular.
        from repro.datacenter.model import DatacenterModel, RackSpec

        servers = tuple(servers)
        if rack_session is not None and rack_session.n_servers != len(servers):
            raise ConfigurationError(
                f"rack session is sized for {rack_session.n_servers} servers, "
                f"got {len(servers)}"
            )
        substrate = rack_session if rack_session is not None else self.simulation
        session = DatacenterModel(
            [RackSpec("rack", servers, trace)],
            plant=chiller if chiller is not None else ChillerModel(),
            floorplan=substrate.floorplan,
            design=substrate.design,
            power_model=substrate.power_model,
            thermal_simulator=substrate.thermal_simulator,
            control_period_s=self.control_period_s,
            transient_substeps=transient_substeps,
            policy=self,
        ).session()
        start = session.snapshot()
        water_loop = (
            initial_water_loop
            if initial_water_loop is not None
            else self.simulation.design.water_loop()
        )
        floor = start.floor
        if rack_session is not None:
            floor = replace(floor, rack_snapshots=(rack_session.snapshot(),))
        session.restore(
            replace(start, water_loops=((water_loop,) * len(servers),), floor=floor)
        )
        run = session.run()
        if rack_session is not None:
            rack_session.restore(session.rack_sessions[0].snapshot())
        record = run.racks[0]
        record.factorizations = run.factorizations
        record.cache_stats = run.cache_stats
        return record
