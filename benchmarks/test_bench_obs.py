"""Observability overhead gates + the CI telemetry artifact.

Not a paper artefact: pins the cost contract of the telemetry layer on
the fig10 quick leg (2 racks x 2 servers, fixed + reactive supervisory
runs on the shared platform).

* **Disabled mode <= 5%**: the null hub's whole cost at an
  instrumentation site is one method call returning a shared no-op.
  Wall-clock diffing two multi-second runs cannot resolve a 5% bound on
  shared CI runners, so the gate is analytic: measure the per-site no-op
  cost directly (tight loop, hundreds of thousands of calls), multiply
  by the number of instrumentation events an *enabled* run of the same
  leg actually records, and require the product under 5% of the
  measured leg runtime.  That bounds the true disabled overhead from
  above with microbenchmark precision.
* **Enabled mode <= 25%**: enabled runs pay real clock reads, a lock and
  a ring append per span; interleaved off/on repetitions, each side
  taking its minimum, keep shared-runner stalls from landing on one side.

``test_obs_overhead_gates`` also exports the enabled run's stream to
``TELEMETRY_quick.jsonl`` in ``$BENCH_OUT`` — the CI ``--quick`` step sets
it, renders and uploads the file (with its report text) next to
``BENCH_quick.json``, and ``bench_report.py --telemetry`` folds its
counters into the regression report.  Without ``$BENCH_OUT`` the file
goes to the test's temporary directory, never into the source tree.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.experiments.fig10_datacenter_trace import run_fig10
from repro.obs import (
    Telemetry,
    get_telemetry,
    render_report,
    read_jsonl,
    run_manifest,
    set_telemetry,
    write_jsonl,
)

ARTIFACT_NAME = "TELEMETRY_quick.jsonl"

N_RACKS = 2
SERVERS_PER_RACK = 2
DURATION_S = 24.0
REPETITIONS = 3
DISABLED_BUDGET = 0.05
ENABLED_BUDGET = 1.25
NULL_LOOP = 200_000


def _leg(platform):
    """The fig10 quick leg: fixed + reactive supervisory runs."""
    return run_fig10(
        platform,
        n_racks=N_RACKS,
        servers_per_rack=SERVERS_PER_RACK,
        duration_s=DURATION_S,
    )


def _null_site_cost_s() -> float:
    """Measured per-site cost of a disabled instrumentation point.

    One span enter/exit plus one counter increment against the null hub
    — the two shapes every hot-path site uses.  Returns seconds per
    site (half the loop body, which exercises two sites)."""
    hub = get_telemetry()
    assert not hub.enabled, "null-cost measurement needs telemetry disabled"
    start = time.perf_counter()
    for _ in range(NULL_LOOP):
        with hub.span("bench"):
            pass
        hub.inc("bench")
    elapsed = time.perf_counter() - start
    return elapsed / (2 * NULL_LOOP)


def _artifact_path(tmp_path: Path) -> Path:
    """``$BENCH_OUT/TELEMETRY_quick.jsonl``, or under ``tmp_path`` when unset."""
    directory = Path(os.environ.get("BENCH_OUT") or tmp_path)
    directory.mkdir(parents=True, exist_ok=True)
    return directory / ARTIFACT_NAME


def test_obs_overhead_gates(platform, capsys, tmp_path):
    """Disabled <= 5% (analytic), enabled <= 25% (measured), artifact out."""
    disabled_timings: list[float] = []
    enabled_timings: list[float] = []
    hub: Telemetry | None = None
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        _leg(platform)
        disabled_timings.append(time.perf_counter() - start)

        hub = Telemetry()
        previous = set_telemetry(hub)
        try:
            start = time.perf_counter()
            result = _leg(platform)
            enabled_timings.append(time.perf_counter() - start)
        finally:
            set_telemetry(previous)
    assert hub is not None
    disabled_s = min(disabled_timings)
    enabled_s = min(enabled_timings)

    # Non-vacuity: the enabled runs actually recorded the leg.
    assert hub.tracer.started > 0
    assert hub.counters.get("session.periods") > 0
    assert result.supervisory.n_periods == int(DURATION_S / 2.0)

    # Disabled gate: per-site no-op cost x recorded event volume.
    site_cost_s = _null_site_cost_s()
    events = hub.tracer.started + sum(hub.counters.snapshot().values())
    disabled_overhead_s = events * site_cost_s
    enabled_ratio = enabled_s / disabled_s

    # CI artifact: the last enabled repetition's full stream + manifest.
    manifest = run_manifest(
        config={
            "leg": "fig10-quick",
            "n_racks": N_RACKS,
            "servers_per_rack": SERVERS_PER_RACK,
            "duration_s": DURATION_S,
        },
        seed=7,
    )
    artifact = _artifact_path(tmp_path)
    n_events = write_jsonl(hub, artifact, manifest=manifest)
    # The artifact round-trips through the report renderer.
    report_text = render_report(read_jsonl(artifact))
    assert "per-layer time" in report_text

    with capsys.disabled():
        print(
            f"\n[obs overhead gate @ fig10 quick leg, "
            f"{int(DURATION_S / 2.0)} periods] disabled {disabled_s * 1e3:.0f} ms, "
            f"enabled {enabled_s * 1e3:.0f} ms ({enabled_ratio:.3f}x vs "
            f"{ENABLED_BUDGET:.2f}x budget); null site {site_cost_s * 1e9:.0f} ns "
            f"x {events} events = {disabled_overhead_s * 1e3:.2f} ms "
            f"({disabled_overhead_s / disabled_s:.2%} vs {DISABLED_BUDGET:.0%} "
            f"budget); artifact {artifact} ({n_events} events)"
        )

    assert disabled_overhead_s <= DISABLED_BUDGET * disabled_s, (
        f"disabled-mode telemetry overhead {disabled_overhead_s * 1e3:.2f} ms "
        f"exceeds {DISABLED_BUDGET:.0%} of the {disabled_s * 1e3:.0f} ms leg"
    )
    assert enabled_ratio <= ENABLED_BUDGET, (
        f"enabled telemetry cost {enabled_ratio:.2f}x exceeds the "
        f"{ENABLED_BUDGET:.2f}x budget"
    )


def test_bench_obs_enabled_leg(benchmark, platform):
    """BENCH_quick entry: the fig10 quick leg with telemetry enabled."""

    def run():
        previous = set_telemetry(Telemetry())
        try:
            return _leg(platform)
        finally:
            set_telemetry(previous)

    result = benchmark(run)
    assert result.fixed.n_periods == int(DURATION_S / 2.0)
