"""Run-report CLI over a telemetry JSON-lines stream.

::

    python -m repro.obs.report run.jsonl

renders, from the events exported by :func:`repro.obs.export.write_jsonl`:

* a per-layer time breakdown — *exclusive* (self) span time aggregated
  by the first dotted component of each span name (``floor``, ``rom``,
  ``cache``, ``session``, ``mpc``, ``warm_store``), so a layer is
  charged only for time not already attributed to a nested child span;
* cache and warm-store hit rates from the published counters, with the
  factorization count and the iterative lane's solves, cap fallbacks and
  mean PCG steps beside them;
* the ROM fallback cause histogram (error bound / guard band /
  projection residual);
* coarsening efficiency — committed control periods per stacked solve;
* per-thread utilization — depth-0 busy time over the stream extent.

Everything is computed from the artifact alone; the report never needs
the run's code or config, which is what makes JSONL streams from CI and
remote worker fleets comparable offline.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from repro.obs.export import read_jsonl

__all__ = ["build_report", "main", "render_report"]


def _self_times(spans: list[dict]) -> dict[str, float]:
    """Exclusive time (µs) per span name.

    Spans from one thread obey stack discipline (the tracer pushes and
    pops on a per-thread stack), so a start-ordered sweep with a stack
    recovers the nesting: each span's duration minus its direct
    children's durations is its self time.
    """
    per_name: dict[str, float] = defaultdict(float)
    by_thread: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_thread[span["thread_id"]].append(span)
    for thread_spans in by_thread.values():
        thread_spans.sort(key=lambda s: (s["start_ns"], -s["end_ns"]))
        stack: list[dict] = []
        for span in thread_spans:
            while stack and span["start_ns"] >= stack[-1]["end_ns"]:
                stack.pop()
            duration_us = (span["end_ns"] - span["start_ns"]) / 1_000.0
            if stack:
                per_name[stack[-1]["name"]] -= duration_us
            per_name[span["name"]] += duration_us
            stack.append(span)
    return dict(per_name)


def _thread_utilization(spans: list[dict]) -> dict[int, float]:
    """Fraction of the stream extent each thread spent in depth-0 spans."""
    if not spans:
        return {}
    extent_ns = max(s["end_ns"] for s in spans) - min(s["start_ns"] for s in spans)
    if extent_ns <= 0:
        return {}
    busy: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.get("depth", 0) == 0:
            busy[span["thread_id"]] += span["end_ns"] - span["start_ns"]
    return {tid: ns / extent_ns for tid, ns in busy.items()}


def build_report(events: list[dict]) -> dict:
    """Aggregate a JSONL event list into the report's structured form."""
    counters = {e["name"]: e["value"] for e in events if e.get("type") == "counter"}
    histograms = {e["name"]: e for e in events if e.get("type") == "histogram"}
    spans = [e for e in events if e.get("type") == "span"]
    manifest = next((e for e in events if e.get("type") == "manifest"), None)
    span_summary = next((e for e in events if e.get("type") == "span_summary"), None)

    self_times = _self_times(spans)
    layers: dict[str, dict] = defaultdict(lambda: {"self_us": 0.0, "count": 0})
    for span in spans:
        layer = span["name"].split(".", 1)[0]
        layers[layer]["count"] += 1
    for name, self_us in self_times.items():
        layers[name.split(".", 1)[0]]["self_us"] += self_us

    def rate(hits: int, misses: int) -> float | None:
        total = hits + misses
        return hits / total if total else None

    fallbacks = {
        cause: counters.get(f"rom.fallback.{cause}", 0)
        for cause in ("error", "guard", "projection")
    }
    steps = histograms.get("cache.iterative_steps")
    spans_committed = counters.get("session.spans", 0)
    periods_committed = counters.get("session.periods", 0)
    return {
        "manifest": manifest,
        "span_summary": span_summary,
        "counters": counters,
        "layers": dict(layers),
        "cache_hit_rate": rate(
            counters.get("cache.hits", 0), counters.get("cache.misses", 0)
        ),
        "factorizations": counters.get("cache.misses", 0),
        "iterative": {
            "solves": counters.get("cache.iterative_solves", 0),
            "fallbacks": counters.get("cache.iterative_fallbacks", 0),
            "mean_steps": (
                steps["sum"] / steps["total"] if steps and steps["total"] else None
            ),
        },
        "warm_store_hit_rate": rate(
            counters.get("warm_store.reduced_hits", 0)
            + counters.get("warm_store.system_hits", 0),
            counters.get("warm_store.reduced_misses", 0)
            + counters.get("warm_store.system_misses", 0),
        ),
        "rom_fallbacks": fallbacks,
        "dropbacks": {
            name.split(".", 2)[2]: value
            for name, value in counters.items()
            if name.startswith("coarsen.dropback.")
        },
        "periods_per_span": (
            periods_committed / spans_committed if spans_committed else None
        ),
        "thread_utilization": _thread_utilization(spans),
    }


def render_report(events: list[dict]) -> str:
    """Human-readable text rendering of :func:`build_report`."""
    report = build_report(events)
    lines: list[str] = []

    manifest = report["manifest"]
    if manifest:
        lines.append(
            "run: config "
            + str(manifest.get("config_digest"))
            + f", seed {manifest.get('seed')}, python {manifest.get('python')}"
        )
    summary = report["span_summary"]
    if summary:
        lines.append(
            f"spans: {summary['started']} started, {summary['dropped']} dropped "
            f"(ring capacity {summary['capacity']})"
        )

    layers = report["layers"]
    if layers:
        lines.append("")
        lines.append("per-layer time (exclusive)")
        total_us = sum(layer["self_us"] for layer in layers.values()) or 1.0
        width = max(len(name) for name in layers)
        for name, layer in sorted(
            layers.items(), key=lambda item: -item[1]["self_us"]
        ):
            lines.append(
                f"  {name:<{width}}  {layer['self_us'] / 1_000.0:>10.2f} ms  "
                f"{layer['self_us'] / total_us:>6.1%}  ({layer['count']} spans)"
            )

    lines.append("")
    lines.append("caches")
    hit_rate = report["cache_hit_rate"]
    lines.append(
        "  factorization cache: "
        + (
            f"{hit_rate:.1%} hit rate, {report['factorizations']} factorizations"
            if hit_rate is not None
            else "idle"
        )
    )
    iterative = report["iterative"]
    if iterative["solves"]:
        line = (
            f"  iterative lane: {iterative['solves']} solves, "
            f"{iterative['fallbacks']} cap fallbacks"
        )
        if iterative["mean_steps"] is not None:
            line += f", {iterative['mean_steps']:.1f} PCG steps per solve"
        lines.append(line)
    store_rate = report["warm_store_hit_rate"]
    lines.append(
        "  warm store: "
        + (f"{store_rate:.1%} hit rate" if store_rate is not None else "idle")
    )

    fallbacks = report["rom_fallbacks"]
    if any(fallbacks.values()):
        lines.append("")
        lines.append("rom fallback causes")
        for cause, count in fallbacks.items():
            lines.append(f"  {cause:<10} {count}")

    dropbacks = report["dropbacks"]
    if dropbacks:
        lines.append("")
        lines.append("coarsening fine-step drop-backs")
        for reason, count in sorted(dropbacks.items(), key=lambda item: -item[1]):
            lines.append(f"  {reason:<15} {count}")
    if report["periods_per_span"] is not None:
        lines.append("")
        lines.append(
            f"coarsening efficiency: {report['periods_per_span']:.2f} periods/span "
            f"({report['counters'].get('session.periods', 0)} periods, "
            f"{report['counters'].get('session.spans', 0)} solves)"
        )

    utilization = report["thread_utilization"]
    if utilization:
        lines.append("")
        lines.append("thread utilization (depth-0 busy / stream extent)")
        for tid, fraction in sorted(utilization.items()):
            lines.append(f"  thread {tid}: {fraction:.1%}")

    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a run report from a telemetry JSON-lines stream.",
        allow_abbrev=False,
    )
    parser.add_argument("jsonl", help="telemetry stream written by --telemetry / write_jsonl")
    args = parser.parse_args(argv)
    sys.stdout.write(render_report(read_jsonl(args.jsonl)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
