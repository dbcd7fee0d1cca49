"""Benchmark regression report: BENCH_quick.json vs the committed baseline.

The CI ``--quick`` step records every benchmark's timing in
``BENCH_quick.json``; this tool diffs it against the committed
``benchmarks/BENCH_baseline.json`` and prints a human-readable table of
per-benchmark ratios.  Benchmarks beyond the tolerance band fail the
report (exit code 1), so a perf regression surfaces in CI next to the
hard speedup gates instead of only in an artifact nobody opens.

The band is deliberately wide (default 4x): CI runners are shared,
noisy machines and the baseline was recorded on different hardware — the
report is a tripwire for order-of-magnitude regressions (an accidental
O(n^2), a cache that stopped hitting), not a microbenchmark referee.
The hard gates in the benchmark suite pin the relative speedups that
actually matter; this report pins the absolute trajectory.

Usage::

    python benchmarks/bench_report.py BENCH_quick.json
    python benchmarks/bench_report.py BENCH_quick.json --max-regression 4.0
    python benchmarks/bench_report.py BENCH_quick.json --update-baseline
    python benchmarks/bench_report.py BENCH_quick.json --telemetry "$BENCH_OUT/TELEMETRY_quick.jsonl"

``--update-baseline`` rewrites ``BENCH_baseline.json`` from the current
run (means only, machine metadata stripped) — commit the result when a
deliberate perf change moves the floor.

``--telemetry`` points at a telemetry JSONL artifact (the CI ``--quick``
step emits ``TELEMETRY_quick.jsonl`` into ``$BENCH_OUT``); when the file
exists the report appends engine-level columns — factorizations, cache
hit rate, ROM fallbacks and basis rebuilds by cause, warm-store traffic —
so a perf ratio and the engine behaviour behind it land in the same CI
log.  A missing artifact is skipped silently: timing-only invocations
keep working.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).parent / "BENCH_baseline.json"


def _means(report: dict) -> dict[str, float]:
    """``{benchmark name: mean seconds}`` from a pytest-benchmark JSON."""
    means = {}
    for entry in report.get("benchmarks", []):
        means[entry["name"]] = float(entry["stats"]["mean"])
    return means


def load_report(path: Path) -> dict[str, float]:
    with path.open() as handle:
        return _means(json.load(handle))


def write_baseline(current: dict[str, float], path: Path) -> None:
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean}}
            for name, mean in sorted(current.items())
        ]
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")


def compare(
    baseline: dict[str, float],
    current: dict[str, float],
    max_regression: float,
) -> tuple[str, list[str]]:
    """Render the ratio table; returns ``(table, regressions)``."""
    names = sorted(set(baseline) | set(current))
    width = max((len(name) for name in names), default=4)
    lines = [
        f"{'benchmark':<{width}} {'baseline':>12} {'current':>12} {'ratio':>8}  verdict"
    ]
    regressions: list[str] = []
    for name in names:
        base = baseline.get(name)
        mean = current.get(name)
        if base is None:
            lines.append(
                f"{name:<{width}} {'-':>12} {mean * 1e3:>10.1f}ms {'-':>8}  new"
            )
            continue
        if mean is None:
            lines.append(
                f"{name:<{width}} {base * 1e3:>10.1f}ms {'-':>12} {'-':>8}  missing"
            )
            regressions.append(f"{name}: present in baseline but not in this run")
            continue
        ratio = mean / base
        verdict = "ok"
        if ratio > max_regression:
            verdict = "REGRESSION"
            regressions.append(
                f"{name}: {mean * 1e3:.1f} ms vs baseline {base * 1e3:.1f} ms "
                f"({ratio:.1f}x > {max_regression:.1f}x band)"
            )
        elif ratio < 1.0 / max_regression:
            verdict = "faster (update baseline?)"
        lines.append(
            f"{name:<{width}} {base * 1e3:>10.1f}ms {mean * 1e3:>10.1f}ms "
            f"{ratio:>7.2f}x  {verdict}"
        )
    return "\n".join(lines), regressions


def telemetry_summary(path: Path) -> str | None:
    """Engine-level columns from a telemetry JSONL artifact, or None.

    Reads the counter events directly (no ``repro`` import needed, so the
    report stays runnable without ``PYTHONPATH=src``).  Unreadable or
    counter-free artifacts yield None — telemetry is advisory here, never
    a report failure.
    """
    if not path.exists():
        return None
    counters: dict[str, int] = {}
    try:
        with path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                event = json.loads(line)
                if event.get("type") == "counter":
                    counters[event["name"]] = int(event["value"])
    except (OSError, ValueError, KeyError):
        return None
    if not counters:
        return None
    lines = [f"telemetry ({path.name}):"]
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    if hits or misses:
        rate = hits / (hits + misses)
        lines.append(
            f"  factorizations: {misses} ({hits} cache hits, {rate:.1%} hit rate)"
        )
    fallbacks = {
        name.rsplit(".", 1)[1]: value
        for name, value in sorted(counters.items())
        if name.startswith("rom.fallback.")
    }
    if fallbacks:
        causes = ", ".join(f"{cause}={value}" for cause, value in fallbacks.items())
        lines.append(f"  rom fallbacks: {sum(fallbacks.values())} ({causes})")
    basis_builds = counters.get("rom.basis_builds", 0)
    basis_rebuilds = counters.get("rom.basis_rebuilds", 0)
    if basis_builds or basis_rebuilds:
        rebuilds = {
            name.rsplit(".", 1)[1]: value
            for name, value in sorted(counters.items())
            if name.startswith("rom.rebuild.")
        }
        line = f"  rom bases: {basis_builds} built, {basis_rebuilds} rebuilt"
        if rebuilds:
            causes = ", ".join(f"{cause}={value}" for cause, value in rebuilds.items())
            line += f" ({causes})"
        lines.append(line)
    warm = {
        name.split(".", 1)[1]: value
        for name, value in sorted(counters.items())
        if name.startswith("warm_store.")
    }
    if warm:
        traffic = ", ".join(f"{field}={value}" for field, value in warm.items())
        lines.append(f"  warm store: {traffic}")
    spans = counters.get("session.spans", 0)
    periods = counters.get("session.periods", 0)
    if spans:
        lines.append(
            f"  coarsening: {periods} periods in {spans} spans "
            f"({periods / spans:.2f} periods/span)"
        )
    if len(lines) == 1:
        return None
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("report", type=Path, help="pytest-benchmark JSON to check")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=BASELINE_PATH,
        help="committed baseline JSON (default: benchmarks/BENCH_baseline.json)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=4.0,
        help="fail when current/baseline mean exceeds this ratio (default 4.0)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run instead of checking it",
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        default=None,
        metavar="JSONL",
        help="telemetry JSONL artifact to summarise alongside the timings "
        "(missing file = silently skipped)",
    )
    arguments = parser.parse_args(argv)

    current = load_report(arguments.report)
    if not current:
        print(f"no benchmarks found in {arguments.report}", file=sys.stderr)
        return 1
    if arguments.update_baseline:
        write_baseline(current, arguments.baseline)
        print(f"baseline updated: {arguments.baseline} ({len(current)} benchmarks)")
        return 0
    if not arguments.baseline.exists():
        # No committed baseline yet: every benchmark is "new", which is a
        # report, not a failure — otherwise the first run of a fresh
        # benchmark file (or a fresh clone) would fail CI before anyone
        # could record the baseline it is asking for.
        print(
            f"no baseline at {arguments.baseline}; reporting every benchmark "
            "as new (run with --update-baseline to record one)"
        )
        baseline: dict[str, float] = {}
    else:
        baseline = load_report(arguments.baseline)
    table, regressions = compare(baseline, current, arguments.max_regression)
    print(table)
    if arguments.telemetry is not None:
        summary = telemetry_summary(arguments.telemetry)
        if summary is not None:
            print(f"\n{summary}")
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond the tolerance band:")
        for line in regressions:
            print(f"  {line}")
        return 1
    print(f"\nall {len(current)} benchmarks within {arguments.max_regression:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
