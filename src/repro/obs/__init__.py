"""Unified observability layer: telemetry, span tracing, exporters, reports.

Disabled by default at zero cost; a run opts in with::

    from repro import obs

    hub = obs.enable()
    ...  # run the engine
    obs.write_jsonl(hub, "run.jsonl", manifest=obs.run_manifest(seed=7))
    obs.disable()

then ``python -m repro.obs.report run.jsonl`` renders the breakdown.
See the README's "Observability" section for the full recipe.
"""

from repro.obs.export import (
    config_digest,
    read_jsonl,
    run_manifest,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Counters,
    Histogram,
    Telemetry,
    disable,
    enable,
    get_telemetry,
    set_telemetry,
)
from repro.obs.tracing import SpanRecord, Tracer


def __getattr__(name: str):
    # Lazy: importing the report module eagerly would make
    # ``python -m repro.obs.report`` execute it twice (runpy warns when
    # the -m target is already in sys.modules via its package import).
    if name in ("build_report", "render_report"):
        from repro.obs import report

        return getattr(report, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counters",
    "Histogram",
    "NULL_TELEMETRY",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "build_report",
    "config_digest",
    "disable",
    "enable",
    "get_telemetry",
    "read_jsonl",
    "render_report",
    "run_manifest",
    "set_telemetry",
    "write_chrome_trace",
    "write_jsonl",
]
