"""Exporters for a :class:`~repro.obs.telemetry.Telemetry` hub.

Two interchange formats plus a run manifest:

* **JSON-lines** (:func:`write_jsonl` / :func:`read_jsonl`) — one event
  per line, self-describing via a ``type`` field (``manifest``,
  ``counter``, ``gauge``, ``histogram``, ``span``).  The native format
  of the ``--telemetry out.jsonl`` runner flag and the
  ``repro.obs.report`` CLI.
* **Chrome trace-event** (:func:`write_chrome_trace`) — ``"X"`` complete
  events with microsecond ``ts``/``dur``, loadable in Perfetto or
  ``chrome://tracing`` for a visual per-thread timeline of a run.

The manifest (:func:`run_manifest`) pins what produced a stream: a
config digest (stable hash of the configuration's values, the same in
every process), the scenario seed, and interpreter/library versions —
enough to tell two JSONL artifacts apart without trusting filenames.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import platform
import sys
import types
from typing import IO, Any

import numpy as np

from repro.exceptions import ValidationError
from repro.obs.telemetry import Telemetry

__all__ = [
    "config_digest",
    "read_jsonl",
    "run_manifest",
    "write_chrome_trace",
    "write_jsonl",
]


#: Values with no configuration content of their own to encode.
_UNENCODABLE = (
    type,
    types.FunctionType,
    types.MethodType,
    types.BuiltinFunctionType,
    types.ModuleType,
)


def _encode(value: Any, active: set[int]) -> bytes:
    """Canonical bytes of a configuration value (see :func:`config_digest`).

    ``active`` holds the ids of the containers being encoded, so a cycle
    raises instead of recursing forever.
    """
    if isinstance(value, enum.Enum):
        return f"enum:{type(value).__qualname__}.{value.name};".encode()
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return f"{type(value).__name__}:{value!r};".encode()
    if isinstance(value, (float, np.floating)):
        return f"float:{float(value)!r};".encode()
    if isinstance(value, np.generic):
        return _encode(value.item(), active)
    if isinstance(value, np.ndarray):
        if value.dtype.hasobject:
            raise ValidationError("config_digest cannot encode an object array")
        content = hashlib.blake2b(np.ascontiguousarray(value).tobytes()).hexdigest()
        return f"ndarray:{value.dtype.str}:{value.shape}:{content};".encode()
    if isinstance(value, _UNENCODABLE):
        raise ValidationError(f"config_digest cannot encode {value!r}")
    if id(value) in active:
        raise ValidationError("config_digest cannot encode a cyclic value")
    active.add(id(value))
    try:
        name = type(value).__qualname__
        if isinstance(value, (list, tuple)):
            parts = [_encode(item, active) for item in value]
        elif isinstance(value, (set, frozenset)):
            parts = sorted(_encode(item, active) for item in value)
        elif isinstance(value, dict):
            parts = sorted(
                _encode(key, active) + b"=" + _encode(item, active)
                for key, item in value.items()
            )
        elif dataclasses.is_dataclass(value):
            parts = [
                f"{field.name}=".encode() + _encode(getattr(value, field.name), active)
                for field in dataclasses.fields(value)
            ]
        else:
            try:
                attributes = vars(value)
            except TypeError:
                raise ValidationError(
                    f"config_digest cannot encode a {name} (no __dict__)"
                ) from None
            parts = [_encode(attributes, active)]
    finally:
        active.discard(id(value))
    return f"{name}(".encode() + b",".join(parts) + b");"


def config_digest(config: Any) -> str:
    """Stable short digest of a configuration's values.

    The digest hashes a value encoding, not ``repr``: dataclasses by their
    fields, lists and tuples in order, sets and dicts sorted (dicts by
    key), NumPy arrays by dtype, shape and a blake2b of their bytes, floats
    by ``repr``, enum members by name, and any other object by its class
    name and ``vars()``.  No memory address enters it, so the same
    configuration gives the same digest in every process.  Values the
    encoding cannot handle — callables, classes, modules, objects without
    a ``__dict__``, object arrays and cycles — raise
    :class:`~repro.exceptions.ValidationError`.
    """
    return hashlib.blake2b(_encode(config, set()), digest_size=8).hexdigest()


def run_manifest(
    *, config: Any = None, seed: int | None = None, extra: dict | None = None
) -> dict:
    """Provenance record written as the first JSONL event."""
    manifest = {
        "type": "manifest",
        "format_version": 1,
        "python": platform.python_version(),
        "seed": seed,
        "config_digest": config_digest(config) if config is not None else None,
    }
    for module_name in ("numpy", "scipy"):
        module = sys.modules.get(module_name)
        if module is not None:
            manifest[f"{module_name}_version"] = getattr(module, "__version__", None)
    if extra:
        manifest.update(extra)
    return manifest


def _events(hub: Telemetry, manifest: dict | None) -> list[dict]:
    events: list[dict] = []
    if manifest is not None:
        events.append(manifest)
    for name, value in sorted(hub.counters.snapshot().items()):
        events.append({"type": "counter", "name": name, "value": value})
    for name, value in sorted(hub.gauges_snapshot().items()):
        events.append({"type": "gauge", "name": name, "value": value})
    for name, snap in sorted(hub.histograms_snapshot().items()):
        events.append({"type": "histogram", "name": name, **snap})
    tracer = hub.tracer
    events.append(
        {
            "type": "span_summary",
            "started": tracer.started,
            "dropped": tracer.dropped,
            "capacity": tracer.capacity,
        }
    )
    for record in tracer.records():
        events.append(
            {
                "type": "span",
                "name": record.name,
                "start_ns": record.start_ns,
                "end_ns": record.end_ns,
                "thread_id": record.thread_id,
                "depth": record.depth,
                "attrs": record.attrs,
            }
        )
    return events


def write_jsonl(hub: Telemetry, path_or_file, *, manifest: dict | None = None) -> int:
    """Dump the hub as JSON-lines; returns the number of events written."""
    events = _events(hub, manifest)
    if hasattr(path_or_file, "write"):
        _write_lines(path_or_file, events)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _write_lines(handle, events)
    return len(events)


def _write_lines(handle: IO[str], events: list[dict]) -> None:
    for event in events:
        handle.write(json.dumps(event, sort_keys=True, default=str))
        handle.write("\n")


def read_jsonl(path_or_file) -> list[dict]:
    """Parse a JSON-lines stream back into a list of event dicts."""
    if hasattr(path_or_file, "read"):
        lines = path_or_file.read().splitlines()
    else:
        with open(path_or_file, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def write_chrome_trace(hub: Telemetry, path_or_file, *, process_name: str = "repro") -> dict:
    """Write the span ring as a Chrome trace-event JSON document.

    Every span becomes one ``"X"`` (complete) event with microsecond
    timestamps relative to the earliest retained span, so the file loads
    directly in Perfetto.  Returns the document (handy for schema
    validation in tests).
    """
    records = hub.tracer.records()
    origin_ns = min((record.start_ns for record in records), default=0)
    trace_events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for record in records:
        trace_events.append(
            {
                "name": record.name,
                "ph": "X",
                "ts": (record.start_ns - origin_ns) / 1_000.0,
                "dur": record.duration_ns / 1_000.0,
                "pid": 1,
                "tid": record.thread_id,
                "args": dict(record.attrs),
            }
        )
    document = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    if hasattr(path_or_file, "write"):
        json.dump(document, path_or_file, default=str)
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            json.dump(document, handle, default=str)
    return document
