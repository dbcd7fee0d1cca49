"""Benchmark-report tool tests (``benchmarks/bench_report.py``).

The report is CI's perf tripwire, so its exit-code semantics are part of
the contract: a *missing baseline file* and *benchmarks new to the
baseline* are reports, not failures (otherwise the first run of any fresh
benchmark file fails CI before a baseline can exist), while a benchmark
that regressed beyond the band — or vanished from the run — fails.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_report",
    Path(__file__).parent.parent / "benchmarks" / "bench_report.py",
)
bench_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_report)


def _write_report(path, means):
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"mean": mean}} for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


def _main(report, baseline, *extra):
    return bench_report.main(
        [str(report), "--baseline", str(baseline), *extra]
    )


class TestMissingBaseline:
    def test_nonexistent_baseline_reports_new_and_passes(self, tmp_path, capsys):
        report = _write_report(tmp_path / "run.json", {"bench_a": 0.5})
        assert _main(report, tmp_path / "no-such-baseline.json") == 0
        out = capsys.readouterr().out
        assert "no baseline" in out
        assert "new" in out

    def test_benchmark_new_to_existing_baseline_passes(self, tmp_path, capsys):
        baseline = _write_report(tmp_path / "base.json", {"bench_a": 0.5})
        report = _write_report(
            tmp_path / "run.json", {"bench_a": 0.5, "bench_b": 2.0}
        )
        assert _main(report, baseline) == 0
        assert "new" in capsys.readouterr().out


class TestRegressionGate:
    def test_within_band_passes(self, tmp_path):
        baseline = _write_report(tmp_path / "base.json", {"bench_a": 0.5})
        report = _write_report(tmp_path / "run.json", {"bench_a": 1.5})
        assert _main(report, baseline) == 0

    def test_beyond_band_fails(self, tmp_path, capsys):
        baseline = _write_report(tmp_path / "base.json", {"bench_a": 0.5})
        report = _write_report(tmp_path / "run.json", {"bench_a": 5.0})
        assert _main(report, baseline) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_missing_benchmark_fails(self, tmp_path, capsys):
        baseline = _write_report(
            tmp_path / "base.json", {"bench_a": 0.5, "bench_b": 0.5}
        )
        report = _write_report(tmp_path / "run.json", {"bench_a": 0.5})
        assert _main(report, baseline) == 1
        assert "missing" in capsys.readouterr().out

    def test_empty_run_fails(self, tmp_path):
        report = _write_report(tmp_path / "run.json", {})
        assert _main(report, tmp_path / "base.json") == 1


class TestUpdateBaseline:
    def test_update_writes_and_subsequent_check_passes(self, tmp_path):
        baseline = tmp_path / "base.json"
        report = _write_report(tmp_path / "run.json", {"bench_a": 0.75})
        assert _main(report, baseline, "--update-baseline") == 0
        assert baseline.exists()
        assert bench_report.load_report(baseline) == {"bench_a": 0.75}
        assert _main(report, baseline) == 0


class TestTelemetrySummary:
    def test_rebuild_causes_print_beside_fallback_causes(self, tmp_path):
        artifact = tmp_path / "telemetry.jsonl"
        counters = {
            "rom.fallback.error": 6,
            "rom.basis_builds": 0,
            "rom.basis_rebuilds": 14,
            "rom.rebuild.steady_state": 14,
        }
        artifact.write_text(
            "".join(
                json.dumps({"type": "counter", "name": name, "value": value}) + "\n"
                for name, value in counters.items()
            )
        )
        summary = bench_report.telemetry_summary(artifact)
        assert "rom fallbacks: 6 (error=6)" in summary
        assert "rom bases: 0 built, 14 rebuilt (steady_state=14)" in summary
