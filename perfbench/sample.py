"""One benchmark sample, run in a fresh process by ``perfbench/run.py``.

Modes:

``timed``
    Set the workload up, run it once untraced, check the outputs and print
    one JSON line: set-up and run times, work done, peak RSS, digest.
``fill``
    The ``coarse_2sku`` cold run that fills a fresh warm store; it prints
    the same record (its run time and RSS become the cold-run metrics).
``traced``
    Like ``timed``, with every layer's entry points wrapped
    (:mod:`perfbench.layers`) and :mod:`repro.obs` telemetry enabled; adds
    the per-layer metrics and predictions, and writes the hub (counters
    and spans) to ``--spans-out`` as :mod:`repro.obs` JSON lines.  On
    ``coarse_2sku`` it then runs the fine-lane twin of the same floor,
    untraced, for the tier-C check.
``setup``
    Set the workload up and stop: one more set-up time.

``--t0`` is the parent's ``time.monotonic()`` just before it spawned this
process, so set-up time covers interpreter start and imports.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Span ring size of the traced run: far above the largest run's span count,
#: so no span is dropped (a dropped span fails the run).
SPAN_CAPACITY = 1 << 20
def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _record(args, ready_at: float, run_s: float, peak_rss_mb: float, outcome, errors) -> dict:
    from perfbench import checks

    return {
        "ok": not errors,
        "errors": errors,
        "setup_s": ready_at - args.t0,
        "run_s": run_s,
        "work": outcome.work,
        "work_per_s": outcome.work / run_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": checks.digest(outcome),
        "plant_energy_j": outcome.plant_energy_j,
        "violations": outcome.violations,
    }


def run_sample(args) -> dict:
    from perfbench import checks, workloads

    name, seed = args.workload, args.seed
    traced_run = args.mode == "traced"
    if traced_run:
        from perfbench import layers

        layers.install()
    ready = workloads.setup(name, seed, store_dir=args.store)
    ready_at = time.monotonic()
    if args.mode == "setup":
        return {"ok": True, "errors": [], "setup_s": ready_at - args.t0}
    if traced_run:
        from repro import obs

        hub = obs.enable(span_capacity=SPAN_CAPACITY)
    start_ns = time.perf_counter_ns()
    try:
        outcome = workloads.run(ready)
    finally:
        end_ns = time.perf_counter_ns()
        if traced_run:
            obs.disable()
    run_s = (end_ns - start_ns) / 1e9
    peak_rss_mb = _peak_rss_mb()

    errors = checks.check_invariants(
        name, outcome, workloads.expected_work(name), cold=args.mode == "fill"
    )
    if args.mode != "fill":
        errors += checks.check_reference(name, seed, outcome, checks.load_reference())
    record = _record(args, ready_at, run_s, peak_rss_mb, outcome, errors)
    if not traced_run:
        return record

    from perfbench import traced

    metrics, accounting_errors = traced.layer_metrics(
        hub, threading.get_ident(), start_ns, end_ns, outcome
    )
    errors += accounting_errors
    if name == "coarse_2sku":
        metrics["warm_store.disk_mb"] = sum(
            f.stat().st_size for f in Path(args.store).iterdir()
        ) / 2**20
        fine = workloads.run(
            workloads.Ready(
                name,
                seed,
                {
                    "model": workloads.coarse_model(seed, fine=True),
                    "supervisory": ready.objects["supervisory"],
                },
            )
        )
        errors += checks.compare(
            outcome,
            fine.peaks_c,
            fine.plant_energy_j,
            fine.violations,
            checks.TIER_C,
            "coarse lane vs fine lane",
        )
        if outcome.peaks_c.shape == fine.peaks_c.shape:
            metrics["rom.max_peak_err_c"] = float(abs(outcome.peaks_c - fine.peaks_c).max())
    if args.spans_out:
        from repro.obs.export import run_manifest, write_jsonl

        manifest = run_manifest(seed=seed, extra={"workload": name})
        write_jsonl(hub, args.spans_out, manifest=manifest)
    record["ok"] = not errors
    record["metrics"] = metrics
    record["predictions"] = traced.predictions(name, metrics, outcome)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument(
        "--mode", choices=("timed", "fill", "traced", "setup"), default="timed"
    )
    parser.add_argument("--store", help="warm-store directory (coarse_2sku)")
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    try:
        record = run_sample(args)
    except Exception as error:  # reported as a failed sample, with its traceback
        traceback.print_exc()
        record = {"ok": False, "errors": [f"{type(error).__name__}: {error}"]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
