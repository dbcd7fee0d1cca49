"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload floor_reactive --seed 7 --seconds 40 --trace 0

Every timed sample runs in a fresh process (``perfbench/sample.py``), one
at a time (a closed loop with one caller).  Samples repeat until
``--seconds`` of measuring is spent (at least two); the metrics are the
medians over samples.  Set-up-only samples fill the time the last timed
sample leaves over, and count towards the ``setup_s`` median.
``--trace 1`` takes the same untraced samples and then one traced sample,
and prints the per-layer metrics instead.  The last line of standard
output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--write-reference`` re-pins ``perfbench/reference.json``: the default-seed
outputs the checks compare against.  Run it only when a change is meant to
move the simulated results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT))

from perfbench.traced import PER_LAYER_UNITS  # noqa: E402

MIN_SAMPLES = 2
SAMPLE_TIMEOUT_S = 150
#: ``personality(2)`` flag that turns address-space randomization off.
ADDR_NO_RANDOMIZE = 0x0040000
WORK_UNIT = {
    "floor_reactive": "server-periods",
    "floor_mpc": "server-periods",
    "coarse_2sku": "server-periods",
    "mapping_sweep": "points",
}
#: Seconds one calibration pass takes on a quiet host: ``work_per_s`` is
#: scaled to a host of that speed.
CALIBRATION_REFERENCE_S = 0.1
CALIBRATION_GRID = 40


def calibrate() -> float:
    """Seconds a fixed kernel takes now: the host's current speed.

    The kernel mixes what the workloads spend their time on — the sparse
    LU factorization of a layered grid Laplacian, back-substitutions and
    interpreted Python — and calls nothing of the program, so no change
    to the program moves it.  It runs in this process, so it adds nothing
    to a sample's peak RSS.  The faster of two passes: interference that
    comes and goes is the samples' median's job; this tracks the host's
    slower swings in speed.
    """
    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import splu

    n = CALIBRATION_GRID
    size = 3 * n * n
    offsets = [0, 1, -1, n, -n, n * n, -n * n]
    matrix = sparse.diags(
        [6.0] + [-1.0] * 6, offsets, shape=(size, size), format="csc"
    )
    rhs = np.ones(size)
    passes = []
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for k in range(200_000):
            total += k
        factor = splu(matrix)
        for _ in range(20):
            factor.solve(rhs)
        passes.append(time.perf_counter() - start)
    return min(passes)


def _fixed_layout() -> None:
    """Turn off address-space randomization in the child (best effort)."""
    try:
        libc = ctypes.CDLL(None)
        libc.personality(libc.personality(0xFFFFFFFF) | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def measured(mode: str, workload: str, seed: int, index: int, **options) -> dict:
    """A timed or traced sample, with ``work_per_s`` scaled to host speed.

    The calibration kernel runs just before and just after the sample;
    scaling by its mean time takes out the host's swings in speed over
    minutes, which on a shared virtual machine move the raw throughput by
    a third.
    """
    before = calibrate()
    record = spawn(mode, workload, seed, index, **options)
    record["calibration_s"] = (before + calibrate()) / 2
    if record.get("ok"):
        record["work_per_s"] *= record["calibration_s"] / CALIBRATION_REFERENCE_S
    return record


def spawn(mode: str, workload: str, seed: int, index: int, **options) -> dict:
    """Run one ``sample.py`` process to completion and parse its record.

    The process runs without address-space randomization and with hash
    seed ``index``: its memory layout then depends only on ``index``.  Peak
    RSS swings by a fifth with the layout, since the program leaves large
    arrays in reference cycles for the collector and the layout decides
    when it runs.  So sample ``index`` of every run gets the same layout,
    and the median over samples averages over several.
    """
    command = [sys.executable, str(HERE / "sample.py"), "--workload", workload]
    command += ["--seed", str(seed), "--mode", mode]
    for flag, value in options.items():
        if value is not None:
            command += [f"--{flag.replace('_', '-')}", str(value)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--t0", repr(t0)],
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": str(index)},
            preexec_fn=_fixed_layout,
            capture_output=True,
            text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"{mode} sample timed out"], "wall_s": SAMPLE_TIMEOUT_S}
    wall_s = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        record = {"ok": False, "errors": [f"{mode} sample exited {proc.returncode}: {tail}"]}
    if proc.returncode != 0:
        record["ok"] = False
    if proc.stderr.strip() and not record.get("ok"):
        sys.stderr.write(proc.stderr)
    record["wall_s"] = wall_s
    return record


def one_sample(workload: str, seed: int, index: int, mode: str = "timed") -> dict:
    """One sample; ``coarse_2sku`` first fills a fresh warm store, cold."""
    spans_out = OUT / f"spans-{workload}-seed{seed}.jsonl" if mode == "traced" else None
    if workload != "coarse_2sku":
        return measured(mode, workload, seed, index, spans_out=spans_out)
    store = OUT / f"store-{seed}-{index}"
    shutil.rmtree(store, ignore_errors=True)
    try:
        fill = spawn("fill", workload, seed, index, store=store)
        record = measured(mode, workload, seed, index, store=store, spans_out=spans_out)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    record["errors"] = record.get("errors", []) + [f"fill: {e}" for e in fill.get("errors", [])]
    if not fill.get("ok"):
        record["ok"] = False
    elif record.get("ok"):
        # The set-up of a warm run includes the cold run that filled its store.
        record["setup_s"] += fill["wall_s"]
        record["cold_run_s"] = fill["run_s"]
        record["cold_rss_mb"] = fill["peak_rss_mb"]
        if (fill["digest"], fill["plant_energy_j"]) != (
            record["digest"],
            record["plant_energy_j"],
        ):
            record["ok"] = False
            record["errors"].append(
                f"warm run differs from the cold run that filled its store: "
                f"{record['digest']} vs {fill['digest']}"
            )
    return record


def setup_probes(
    workload: str, seed: int, first_index: int, budget_s: float
) -> list[float]:
    """Set-up-only samples in the time the last timed sample left over.

    A set-up is a short interval, so host noise moves it most; more of
    them steady its median.  ``coarse_2sku`` takes none: its set-up holds
    a whole cold run, which never fits in the time left.
    """
    setups: list[float] = []
    if workload == "coarse_2sku":
        return setups
    start = time.monotonic()
    cost_s = 0.0
    while time.monotonic() - start + cost_s <= budget_s:
        probe = spawn("setup", workload, seed, first_index + len(setups))
        if not probe.get("ok"):
            break
        setups.append(probe["setup_s"])
        cost_s = probe["wall_s"]
    return setups


def timed_samples(
    workload: str, seed: int, seconds: float
) -> tuple[list[dict], list[float]]:
    """Untraced samples until ``seconds`` of measuring is spent (>= 2).

    Returns the samples and the set-up times of every sample and probe.
    """
    samples = []
    start = time.monotonic()
    while True:
        sample = one_sample(workload, seed, len(samples))
        samples.append(sample)
        status = "ok" if sample.get("ok") else f"FAILED {sample.get('errors')}"
        print(
            f"  sample {len(samples)}: setup {sample.get('setup_s', float('nan')):.3f} s, "
            f"run {sample.get('run_s', float('nan')):.3f} s, "
            f"calibration {sample.get('calibration_s', float('nan')):.4f} s, "
            f"rss {sample.get('peak_rss_mb', float('nan')):.0f} MB, "
            f"digest {sample.get('digest')} [{status}]"
        )
        elapsed = time.monotonic() - start
        per_sample = elapsed / len(samples)
        if len(samples) >= MIN_SAMPLES and elapsed + per_sample > seconds:
            break
    setups = [s["setup_s"] for s in samples if s.get("ok")]
    probes = setup_probes(workload, seed, len(samples), seconds - elapsed)
    if probes:
        print(f"  {len(probes)} set-up probes: " + ", ".join(f"{p:.3f} s" for p in probes))
    return samples, setups + probes


def end_to_end(good: list[dict], setups: list[float]) -> dict:
    """The end-to-end metrics: medians over a run's passing samples."""
    return {
        "work_per_s": {
            "value": statistics.median(s["work_per_s"] for s in good),
            "unit": "1/s",
        },
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(s["peak_rss_mb"] for s in good),
            "unit": "MB",
        },
    }


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The last line of standard output: the run's result object."""
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'timed'} run")
    samples, setups = timed_samples(workload, seed, seconds)
    good = [s for s in samples if s.get("ok")]
    if not good:
        print("every sample failed; no metrics to report", file=sys.stderr)
        print_result(False, len(samples), len(samples), {})
        return 1
    metrics = end_to_end(good, setups)
    failed = len(samples) - len(good)
    digests = {s["digest"] for s in good}
    attempted = len(samples)
    print(
        f"  work_per_s {metrics['work_per_s']['value']:.4f} 1/s "
        f"({WORK_UNIT[workload]} per host second), "
        f"setup_s {metrics['setup_s']['value']:.4f} s, "
        f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB, "
        f"error_rate {failed / attempted:.4f} ({failed}/{attempted} runs failed), "
        f"digest {','.join(sorted(digests))}"
    )
    if trace:
        traced = one_sample(workload, seed, attempted, mode="traced")
        attempted += 1
        if not traced.get("ok"):
            failed += 1
            print(f"  traced run FAILED: {traced.get('errors')}", file=sys.stderr)
        if "metrics" not in traced:
            print_result(False, attempted, failed, {})
            return 1
        layer = traced["metrics"]
        layer["trace.overhead_pct"] = 100.0 * (
            metrics["work_per_s"]["value"] / traced["work_per_s"] - 1.0
        )
        if workload == "coarse_2sku":
            layer["warm_store.cold_run_s"] = traced["cold_run_s"]
            layer["warm_store.cold_rss_mb"] = traced["cold_rss_mb"]
        digests.add(traced["digest"])
        print(f"  traced digest {traced['digest']}")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"    {name:28s} {layer[name]:14.4f} {unit}")
        for claim, confirmed, evidence in traced["predictions"]:
            print(f"  prediction {'CONFIRMED' if confirmed else 'REFUTED'}: {claim} ({evidence})")
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
    if len(digests) > 1:
        print(f"  runs disagree on the digest: {sorted(digests)}", file=sys.stderr)
    print_result(failed == 0 and len(digests) == 1, attempted, failed, metrics)
    return 0


def write_reference() -> int:
    """Re-pin the default-seed outputs of every workload (in process)."""
    import tempfile

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import checks, workloads

    reference = {}
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=OUT) as store:
            if name == "coarse_2sku":
                workloads.run(workloads.setup(name, workloads.DEFAULT_SEED, store_dir=store))
            ready = workloads.setup(name, workloads.DEFAULT_SEED, store_dir=store)
            outcome = workloads.run(ready)
        reference[name] = {"seed": workloads.DEFAULT_SEED, **checks.reference_entry(outcome)}
        print(f"{name}: digest {reference[name]['digest']}, energy {outcome.plant_energy_j!r} J")
    checks.REFERENCE_PATH.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.write_reference:
        OUT.mkdir(exist_ok=True)
        return write_reference()
    if args.workload not in WORK_UNIT:
        parser.error(f"--workload must be one of {sorted(WORK_UNIT)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
