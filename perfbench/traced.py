"""The traced run: per-layer metrics, accounting, and the layer predictions."""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

from perfbench.layers import BUCKET_METRICS, attribute

DROPBACK_REASONS = (
    "actuator",
    "residual",
    "peak_guard",
    "relax_guard",
    "refresh_pending",
    "lattice",
    "cold_start",
)

#: Per-layer metrics the traced run prints, in report order, with units.
PER_LAYER_UNITS = {
    "session.steps": "count",
    "session.periods_per_step": "ratio",
    **{f"session.dropback.{reason}": "count" for reason in DROPBACK_REASONS},
    "session.snapshot_ms": "ms",
    "session.restore_ms": "ms",
    "session.self_ms": "ms",
    "floor.advance_calls": "count",
    "floor.span_calls": "count",
    "floor.self_ms": "ms",
    "floor.group_wait_ms": "ms",
    "mpc.plans": "count",
    "mpc.rollouts": "count",
    "mpc.rollout_periods": "count",
    "mpc.feasible_ratio": "ratio",
    "mpc.factorizations": "count",
    "mpc.plan_ms_p50": "ms",
    "mpc.plan_ms_max": "ms",
    "mpc.self_ms": "ms",
    "span.plans": "count",
    "span.plan_ms": "ms",
    "cache.lookups": "count",
    "cache.factorizations": "count",
    "cache.hit_rate": "ratio",
    "cache.factorize_ms": "ms",
    "cache.factorize_ms_mean": "ms",
    "cache.lookup_ms": "ms",
    "solve.calls": "count",
    "solve.columns": "count",
    "solve.columns_per_call": "ratio",
    "solve.backsub_ms": "ms",
    "rom.basis_builds": "count",
    "rom.build_ms": "ms",
    "rom.march_ms": "ms",
    "rom.full_march_ms": "ms",
    "rom.rows": "count",
    "rom.fallback_rows": "count",
    "rom.fallback_ratio": "ratio",
    "rom.fallback.error": "count",
    "rom.fallback.guard": "count",
    "rom.fallback.projection": "count",
    "rom.max_peak_err_c": "degC",
    "warm_store.hits": "count",
    "warm_store.misses": "count",
    "warm_store.stale": "count",
    "warm_store.load_ms": "ms",
    "warm_store.store_ms": "ms",
    "warm_store.disk_mb": "MB",
    "warm_store.cold_run_s": "s",
    "warm_store.cold_rss_mb": "MB",
    "loop.operating_points": "count",
    "loop.operating_point_ms": "ms",
    "loop.lane_marches": "count",
    "loop.lane_rows": "count",
    "loop.lane_march_ms": "ms",
    "chiller.stage_calls": "count",
    "chiller.stage_ms": "ms",
    "power.evals": "count",
    "power.eval_ms": "ms",
    "decide.calls": "count",
    "decide_ms": "ms",
    "sweep.points": "count",
    "sweep.point_ms_p50": "ms",
    "sweep.point_ms_p90": "ms",
    "sweep.self_ms": "ms",
    "select.calls": "count",
    "select_ms": "ms",
    "map_ms": "ms",
    "metrics_ms": "ms",
    "trace.wall_ms": "ms",
    "trace.spans": "count",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def _inside(inner, outer) -> list:
    """The spans of ``inner`` that lie within one of the ``outer`` spans.

    The outer spans (planning steps, rollouts) run on the main thread one
    after another, so they never overlap; anything running during one of
    them, on any thread, runs on its behalf.
    """
    outer = sorted(outer, key=lambda span: span.start_ns)
    starts = [span.start_ns for span in outer]
    found = []
    for span in inner:
        at = bisect.bisect_right(starts, span.start_ns) - 1
        if at >= 0 and span.end_ns <= outer[at].end_ns:
            found.append(span)
    return found


def layer_metrics(
    hub, main_thread: int, start_ns: int, end_ns: int, outcome
) -> tuple[dict, list]:
    """Every per-layer metric of one traced run, plus accounting errors.

    ``hub`` is the run's enabled :mod:`repro.obs` telemetry hub: its tracer
    holds the wrapped calls and the program's own spans, and its existing
    counters supply the coarsening drop-back reasons, step counts and the
    floor's group queue wait.
    """
    records = hub.tracer.records()
    self_ms, unattributed_ms = attribute(records, main_thread, start_ns, end_ns)
    wall_ms = (end_ns - start_ns) / 1e6
    errors = []
    if hub.tracer.dropped:
        errors.append(f"the span ring dropped {hub.tracer.dropped} spans")
    unknown = set(self_ms) - set(BUCKET_METRICS)
    if unknown:
        errors.append(f"spans charged to unreported buckets: {sorted(unknown)}")
    total = sum(self_ms.values()) + unattributed_ms
    if abs(total - wall_ms) > 1e-6 * wall_ms + 1e-3:
        errors.append(
            f"self times + unattributed = {total:.3f} ms != wall {wall_ms:.3f} ms"
        )

    by_name = defaultdict(list)
    for record in records:
        if record.end_ns > start_ns and record.start_ns < end_ns:
            by_name[record.name].append(record)

    def spans(*names):
        return [span for name in names for span in by_name[name]]

    def duration_ms(span):
        return (span.end_ns - span.start_ns) / 1e6

    counters = hub.counters.snapshot()
    m = {metric: self_ms.get(name, 0.0) for name, metric in BUCKET_METRICS.items()}
    steps = counters.get("session.spans", 0)
    m["session.steps"] = steps
    m["session.periods_per_step"] = counters.get("session.periods", 0) / steps if steps else 0.0
    for reason in DROPBACK_REASONS:
        m[f"session.dropback.{reason}"] = counters.get(f"coarsen.dropback.{reason}", 0)
    m["session.snapshot_ms"] = sum(map(duration_ms, spans("DatacenterSession.snapshot")))
    m["session.restore_ms"] = sum(map(duration_ms, spans("DatacenterSession.restore")))

    m["floor.advance_calls"] = len(by_name["FloorEngine.advance"])
    m["floor.span_calls"] = len(by_name["FloorEngine.advance_span"])
    queue = hub.histograms_snapshot().get("floor.queue_latency_us")
    m["floor.group_wait_ms"] = queue["sum"] / 1e3 if queue else 0.0

    plans = spans("supervisory.plan_setpoint")
    plan_ms = sorted(map(duration_ms, plans))
    rollouts = sum(span.attrs.get("rollouts", 0) for span in plans)
    factorizations = spans("cache.factorize")
    m["mpc.plans"] = len(plans)
    m["mpc.rollouts"] = len(by_name["mpc.rollout_trajectory"])
    rollout_periods = _inside(
        spans("DatacenterSession.advance_period"), spans("mpc.rollout_trajectory")
    )
    m["mpc.rollout_periods"] = len(rollout_periods)
    m["mpc.feasible_ratio"] = (
        sum(span.attrs.get("feasible", 0) for span in plans) / rollouts if rollouts else 0.0
    )
    m["mpc.factorizations"] = len(_inside(factorizations, plans))
    m["mpc.plan_ms_p50"] = statistics.median(plan_ms) if plan_ms else 0.0
    m["mpc.plan_ms_max"] = plan_ms[-1] if plan_ms else 0.0

    m["span.plans"] = len(by_name["SpanPlanner.plan"])

    lookups = spans(
        "FactorizationCache.transient_operator", "FactorizationCache.steady_operator"
    )
    misses = len(factorizations)
    m["cache.lookups"] = len(lookups)
    m["cache.factorizations"] = misses
    m["cache.hit_rate"] = 1.0 - misses / len(lookups) if lookups else 0.0
    m["cache.factorize_ms_mean"] = m["cache.factorize_ms"] / misses if misses else 0.0

    solves = spans(
        "ThermalSimulator.transient_step_many_from_maps",
        "ThermalSimulator.steady_state_many_from_maps",
        "ThermalSimulator.steady_state_from_map",
    )
    columns = sum(span.attrs["columns"] for span in solves)
    m["solve.calls"] = len(solves)
    m["solve.columns"] = columns
    m["solve.columns_per_call"] = columns / len(solves) if solves else 0.0

    rom = outcome.extra.get("rom_stats") or {}
    rows = rom.get("rom_rows", 0) + rom.get("fallback_rows", 0)
    m["rom.basis_builds"] = len(by_name["floor.build_reduced_operator"])
    m["rom.rows"] = rows
    m["rom.fallback_rows"] = rom.get("fallback_rows", 0)
    m["rom.fallback_ratio"] = rom.get("fallback_rows", 0) / rows if rows else 0.0
    for cause in ("error", "guard", "projection"):
        m[f"rom.fallback.{cause}"] = rom.get(f"fallback_{cause}", 0)
    m["rom.max_peak_err_c"] = 0.0

    store = outcome.extra.get("warm_store") or {}
    for name in ("hits", "misses", "stale"):
        m[f"warm_store.{name}"] = store.get(name, 0)
    m["warm_store.disk_mb"] = 0.0
    m["warm_store.cold_run_s"] = 0.0
    m["warm_store.cold_rss_mb"] = 0.0

    marches = spans("ThermosyphonLoop.cooling_boundaries")
    m["loop.operating_points"] = len(by_name["ThermosyphonLoop.operating_point"])
    m["loop.lane_marches"] = len(marches)
    m["loop.lane_rows"] = sum(span.attrs["columns"] for span in marches)

    m["chiller.stage_calls"] = len(spans("ChillerBank.stage", "ChillerPlant.chiller_at"))
    m["power.evals"] = len(by_name["ServerPowerModel.evaluate"])
    m["decide.calls"] = len(by_name["model.apply_rack_decisions"])

    points = sorted(map(duration_ms, spans("BatchEvaluator.evaluate")))
    m["sweep.points"] = len(points)
    m["sweep.point_ms_p50"] = _quantile(points, 0.5)
    m["sweep.point_ms_p90"] = _quantile(points, 0.9)
    m["select.calls"] = len(
        spans("QoSAwareConfigSelector.select", "PackAndCapSelector.select")
    )

    m["trace.wall_ms"] = wall_ms
    m["trace.spans"] = len(records)
    m["trace.unattributed_ms"] = unattributed_ms
    m["trace.overhead_pct"] = 0.0
    return m, errors


def _share(m: dict, *metrics: str) -> float:
    return sum(m[name] for name in metrics) / m["trace.wall_ms"]


def _largest_bucket(m: dict) -> str:
    return max(BUCKET_METRICS.values(), key=lambda name: m[name])


def predictions(name: str, m: dict, outcome) -> list[tuple[str, bool, str]]:
    """The layer table's "heavy on / light on" predictions for one workload.

    Each entry is ``(claim, confirmed, evidence)``; a refuted prediction is
    reported, never treated as a failed run.
    """
    largest = _largest_bucket(m)
    factor_backsub = _share(m, "cache.factorize_ms", "solve.backsub_ms")
    idle_threads = m["floor.group_wait_ms"] == 0.0
    out = []
    if name == "floor_reactive":
        out.append((
            "every server holds its own boundary: solve.columns_per_call == 1.0",
            m["solve.columns_per_call"] == 1.0,
            f"solve.columns_per_call = {m['solve.columns_per_call']:.3f}",
        ))
        out.append((
            "factorization + back-substitution take over half the traced wall time",
            factor_backsub > 0.5,
            f"share = {factor_backsub:.1%}",
        ))
        out.append((
            "MPC, ROM, warm store and group threads stay idle",
            m["mpc.plans"] == 0 and m["rom.basis_builds"] == 0
            and m["warm_store.hits"] == 0 and idle_threads,
            f"mpc.plans={m['mpc.plans']}, rom.basis_builds={m['rom.basis_builds']}, "
            f"warm_store.hits={m['warm_store.hits']}, group_wait={m['floor.group_wait_ms']:.1f} ms",
        ))
    elif name == "floor_mpc":
        out.append((
            "factorization is the largest self-time bucket",
            largest == "cache.factorize_ms",
            f"largest = {largest} ({m[largest]:.0f} ms of {m['trace.wall_ms']:.0f} ms)",
        ))
        out.append((
            "rollouts mint new boundaries: cache hit rate below 90%",
            m["cache.hit_rate"] < 0.9,
            f"cache.hit_rate = {m['cache.hit_rate']:.1%}",
        ))
        out.append((
            "snapshot/restore is exercised once per planning step and rollout",
            m["mpc.plans"] > 0 and m["session.restore_ms"] > 0.0,
            f"mpc.plans={m['mpc.plans']}, mpc.rollouts={m['mpc.rollouts']}, "
            f"restore={m['session.restore_ms']:.1f} ms",
        ))
    elif name == "coarse_2sku":
        out.append((
            "factorization + back-substitution are a small share (< 25%)",
            factor_backsub < 0.25,
            f"share = {factor_backsub:.1%}",
        ))
        out.append((
            "spans form: session.periods_per_step > 1",
            m["session.periods_per_step"] > 1.0,
            f"session.periods_per_step = {m['session.periods_per_step']:.2f}",
        ))
        cold_builds = outcome.extra["rom_stats"]["basis_builds"]
        out.append((
            "the warm store serves every first-time basis: no cold Arnoldi build",
            cold_builds == 0 and m["warm_store.hits"] > 0,
            f"cold builds={cold_builds}, drift rebuilds={m['rom.basis_builds']}, "
            f"warm_store.hits={m['warm_store.hits']}",
        ))
        out.append((
            "the group fan-out waits on its thread pool (floor.group_wait_ms > 0)",
            not idle_threads,
            f"floor.group_wait_ms = {m['floor.group_wait_ms']:.2f}",
        ))
    elif name == "mapping_sweep":
        out.append((
            "factorization is the largest self-time bucket",
            largest == "cache.factorize_ms",
            f"largest = {largest} ({m[largest]:.0f} ms of {m['trace.wall_ms']:.0f} ms)",
        ))
        selection = _share(m, "select_ms", "power.eval_ms")
        out.append((
            "configuration selection + power evaluation take at least 20%",
            selection >= 0.2,
            f"share = {selection:.1%}",
        ))
        out.append((
            "floor, MPC and ROM layers are unused",
            m["floor.advance_calls"] == 0 and m["mpc.plans"] == 0
            and m["rom.basis_builds"] == 0,
            f"floor.advance_calls={m['floor.advance_calls']}, mpc.plans={m['mpc.plans']}",
        ))
        from perfbench.checks import paper_ordering

        margin = paper_ordering(outcome)["1x"]
        out.append((
            "paper claim at 1x QoS: proposed die hot spot <= each baseline's",
            margin >= 0.0,
            f"best baseline - proposed = {margin:+.4f} C",
        ))
    return out
