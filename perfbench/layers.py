"""Outside-in per-layer tracing for the traced benchmark run.

:func:`install` wraps the public entry points of every layer, in the
benchmark process only and without touching the program's source: each
callable is replaced where its caller looks it up (a method on its class,
or a function in the namespace of the module that imported it).  A wrapper
opens a span on the active :mod:`repro.obs` hub — a no-op while telemetry
is disabled — so the wrapped calls and the program's own spans land in one
tracer, each on the thread that ran it.  Wrapper spans are named after the
callable they wrap (``FloorEngine.advance``, ``supervisory.plan_setpoint``)
and never collide with the program's dotted span names (``floor.advance``,
``mpc.plan``).

:func:`attribute` turns the recorded spans into per-bucket *self* times
that add up, together with the unattributed remainder, exactly to the
traced wall time.  It sweeps the run's timeline and gives every instant to
the innermost open span of the busy threads.  While any worker thread (the
floor engine's group fan-out) has a span open, the main thread is blocked
waiting for it, so the instant is split evenly between the busy workers.
The program opens ``floor.advance_group`` / ``floor.advance_group_span``
around each worker's whole share of a period, so every busy worker has a
span of its own.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict


def _rows(position: int):
    def after(args, result):
        return {"columns": int(args[position].shape[0])}

    return after


def _plan_after(args, result):
    return {"rollouts": len(result.rollouts), "feasible": result.n_feasible}


def wrap(owner, attr: str, name: str, after=None) -> None:
    """Replace ``owner.attr`` with a wrapper that records span ``name``.

    ``after(args, result)`` returns attributes attached to the span.
    """
    from repro.obs import get_telemetry

    original = inspect.getattr_static(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        obs = get_telemetry()
        if not obs.enabled:
            return original(*args, **kwargs)
        with obs.span(name) as span:
            result = original(*args, **kwargs)
            if after is not None:
                span.set(**after(args, result))
        return result

    setattr(owner, attr, traced)


#: Self-time bucket of every wrapped entry point, by span name.
WRAPPED = {
    "DatacenterSession.run": "session",
    "DatacenterSession.advance_period": "session",
    "DatacenterSession.advance_span": "session",
    "DatacenterSession.snapshot": "session",
    "DatacenterSession.restore": "session",
    "FloorEngine.advance": "floor",
    "FloorEngine.advance_span": "floor",
    "supervisory.plan_setpoint": "mpc",
    "mpc.rollout_trajectory": "mpc",
    "SpanPlanner.plan": "span",
    "FactorizationCache.transient_operator": "cache.lookup",
    "FactorizationCache.steady_operator": "cache.lookup",
    "FactorizationCache.reduced_operator": "cache.lookup",
    "ThermalSimulator.transient_step_many_from_maps": "solve",
    "ThermalSimulator.steady_state_many_from_maps": "solve",
    "ThermalSimulator.steady_state_from_map": "solve",
    "floor.build_reduced_operator": "rom.build",
    "WarmStore.load_reduced": "warm_store.load",
    "WarmStore.load_system": "warm_store.load",
    "WarmStore.store_reduced": "warm_store.store",
    "WarmStore.store_system": "warm_store.store",
    "ThermosyphonLoop.operating_point": "loop.operating_point",
    "ThermosyphonLoop.cooling_boundaries": "loop.lane_march",
    "ChillerBank.stage": "chiller",
    "ChillerPlant.chiller_at": "chiller",
    "ServerPowerModel.evaluate": "power",
    "model.apply_rack_decisions": "decide",
    "BatchEvaluator.evaluate": "sweep",
    "QoSAwareConfigSelector.select": "select",
    "PackAndCapSelector.select": "select",
    "ThreadMapper.map": "map",
    "simulator.compute_metrics": "metrics",
}

#: Self-time bucket of every span the program opens itself.
PROGRAM_SPANS = {
    "session.span": "session",
    "floor.advance": "floor",
    "floor.advance_span": "floor",
    "floor.advance_group": "floor",
    "floor.advance_group_span": "floor",
    "floor.refresh_boundaries": "floor",
    "floor.macro_march": "floor",
    "mpc.plan": "mpc",
    "mpc.rollout": "mpc",
    "cache.factorize": "cache.factorize",
    "rom.build_basis": "rom.build",
    "rom.march": "rom.march",
    "rom.full_march": "rom.full_march",
    "warm_store.load": "warm_store.load",
    "warm_store.store": "warm_store.store",
}

SPAN_BUCKETS = {**WRAPPED, **PROGRAM_SPANS}

#: Self-time buckets: each is reported as one ``*_ms`` per-layer metric.
BUCKET_METRICS = {
    "session": "session.self_ms",
    "floor": "floor.self_ms",
    "mpc": "mpc.self_ms",
    "span": "span.plan_ms",
    "cache.factorize": "cache.factorize_ms",
    "cache.lookup": "cache.lookup_ms",
    "solve": "solve.backsub_ms",
    "rom.build": "rom.build_ms",
    "rom.march": "rom.march_ms",
    "rom.full_march": "rom.full_march_ms",
    "warm_store.load": "warm_store.load_ms",
    "warm_store.store": "warm_store.store_ms",
    "loop.operating_point": "loop.operating_point_ms",
    "loop.lane_march": "loop.lane_march_ms",
    "chiller": "chiller.stage_ms",
    "power": "power.eval_ms",
    "decide": "decide_ms",
    "sweep": "sweep.self_ms",
    "select": "select_ms",
    "map": "map_ms",
    "metrics": "metrics_ms",
}


def install() -> None:
    """Wrap every layer's public entry points (see the README's layer table)."""
    import repro.datacenter.floor as floor
    import repro.datacenter.model as model
    import repro.datacenter.mpc as mpc
    import repro.datacenter.supervisory as supervisory
    import repro.thermal.simulator as simulator
    from repro.baselines.pack_and_cap import PackAndCapSelector
    from repro.core.batch import BatchEvaluator
    from repro.core.config_selection import QoSAwareConfigSelector
    from repro.core.mapping import ThreadMapper
    from repro.datacenter.span import SpanPlanner
    from repro.power.power_model import ServerPowerModel
    from repro.thermal.solver_cache import FactorizationCache
    from repro.thermal.warm_store import WarmStore
    from repro.thermosyphon.chiller import ChillerBank, ChillerPlant
    from repro.thermosyphon.loop import ThermosyphonLoop

    attrs = {
        "ThermosyphonLoop.cooling_boundaries": _rows(1),
        "ThermalSimulator.transient_step_many_from_maps": _rows(1),
        "ThermalSimulator.steady_state_many_from_maps": _rows(1),
        "ThermalSimulator.steady_state_from_map": lambda args, result: {"columns": 1},
        "supervisory.plan_setpoint": _plan_after,
    }
    # Module-level functions are wrapped in the namespace that calls them.
    owners = {
        "model": model,
        "floor": floor,
        "supervisory": supervisory,
        "mpc": mpc,
        "simulator": simulator,
    }
    for owner in (
        model.DatacenterSession,
        floor.FloorEngine,
        simulator.ThermalSimulator,
        PackAndCapSelector,
        BatchEvaluator,
        QoSAwareConfigSelector,
        ThreadMapper,
        SpanPlanner,
        ServerPowerModel,
        FactorizationCache,
        WarmStore,
        ChillerBank,
        ChillerPlant,
        ThermosyphonLoop,
    ):
        owners[owner.__name__] = owner
    for name in WRAPPED:
        owner, _, attr = name.partition(".")
        wrap(owners[owner], attr, name, attrs.get(name))


def attribute(
    records, main_thread: int, start_ns: int, end_ns: int
) -> tuple[dict, float]:
    """Per-bucket self time (ms) and the unattributed remainder (ms).

    ``records`` are the tracer's closed spans.  The buckets and the
    remainder partition ``[start_ns, end_ns)`` exactly.
    """
    events = []
    for index, record in enumerate(records):
        lo, hi = max(record.start_ns, start_ns), min(record.end_ns, end_ns)
        if hi > lo:
            # At one instant closes sort before opens (a span that ends
            # where its sibling starts never looks nested), inner closes
            # before outer ones and outer opens before inner ones.
            events.append((lo, 1, record.depth, index))
            events.append((hi, 0, -record.depth, index))
    events.sort()
    open_spans: dict[int, list[int]] = defaultdict(list)
    self_ns: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    previous = start_ns
    for instant, kind, _, index in events:
        if instant > previous:
            busy = [
                stack[-1]
                for thread, stack in open_spans.items()
                if stack and thread != main_thread
            ]
            if not busy and open_spans[main_thread]:
                busy = [open_spans[main_thread][-1]]
            if busy:
                share = (instant - previous) / len(busy)
                for leaf in busy:
                    name = records[leaf].name
                    self_ns[SPAN_BUCKETS.get(name, name)] += share
            else:
                unattributed += instant - previous
            previous = instant
        stack = open_spans[records[index].thread_id]
        if kind:
            stack.append(index)
        else:
            stack.remove(index)
    unattributed += end_ns - previous
    return {name: value / 1e6 for name, value in self_ns.items()}, unattributed / 1e6
