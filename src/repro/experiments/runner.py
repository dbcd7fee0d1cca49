"""Run every experiment and print the full reproduction report.

Usage::

    python -m repro.experiments.runner            # full suite (slow)
    python -m repro.experiments.runner --quick    # reduced benchmark set
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from repro import obs
from repro.experiments.common import build_platform
from repro.experiments.cooling_power import run_cooling_power
from repro.experiments.fig2_motivation import run_fig2
from repro.experiments.fig3_qos_exec_time import run_fig3
from repro.experiments.fig5_orientation import run_fig5
from repro.experiments.fig6_mapping_scenarios import run_fig6
from repro.experiments.fig7_thermal_maps import run_fig7
from repro.experiments.fig8_controller_trace import run_fig8
from repro.experiments.fig9_rack_trace import run_fig9
from repro.experiments.fig10_datacenter_trace import run_fig10
from repro.experiments.table1_cstates import run_table1
from repro.experiments.table2_hotspots import run_table2
from repro.workloads.parsec import PARSEC_BENCHMARK_NAMES

#: Reduced benchmark set used by ``--quick`` runs and the test suite.
QUICK_BENCHMARKS: tuple[str, ...] = ("x264", "swaptions", "canneal", "streamcluster")


def run_all(
    *,
    quick: bool = False,
    cell_size_mm: float = 1.0,
    racks: int = 2,
    hetero: bool = False,
    mpc: bool = False,
    chillers: int = 1,
    coarse: bool = False,
    fig10_duration_s: float | None = None,
    parallel_groups: int = 0,
    warm_store: str | None = None,
    telemetry: str | None = None,
    verbose: bool = False,
) -> str:
    """Run every experiment and return the combined textual report.

    ``racks``/``hetero`` size the fig10 datacenter floor and optionally mix
    thermosyphon designs across its racks (exercising the floor engine's
    multi-group path); ``mpc`` adds fig10's model-predictive third leg and
    ``chillers`` swaps its plant for an N-unit staged chiller bank.
    ``coarse`` turns on fig10's adaptive control-period coarsening +
    reduced-order thermal lane (the long-trace engine), and
    ``fig10_duration_s`` overrides the fig10 trace length — together they
    make multi-day traces practical from the command line.
    ``parallel_groups`` fans fig10's hardware groups over worker threads
    (bit-identical; measured slower than serial on 2 vCPUs) and
    ``warm_store`` names a directory
    that persists reduced bases across invocations
    — the year-scale knobs (see the README's simulated-year recipe).
    ``telemetry`` names a ``.jsonl`` path: a telemetry hub is enabled for
    the whole suite and the run's counters, histograms and spans are
    exported there (plus a Chrome/Perfetto trace next to it) when the suite
    finishes.  ``verbose`` appends each fig10 run's full trace summary —
    including the telemetry footer when the hub is on.
    """
    platform = build_platform(cell_size_mm=cell_size_mm)
    benchmarks = QUICK_BENCHMARKS if quick else PARSEC_BENCHMARK_NAMES
    sections: list[str] = []

    previous_hub = None
    hub = None
    if telemetry is not None:
        hub = obs.Telemetry()
        previous_hub = obs.set_telemetry(hub)

    start = time.time()
    try:
        sections.append(run_table1().as_table())
        sections.append(run_fig3(benchmarks).as_table())
        sections.append(run_fig2(platform).as_table())
        sections.append(run_fig5(platform).as_table())
        sections.append(run_fig6(platform).as_table())
        table2 = run_table2(platform, benchmark_names=benchmarks)
        sections.append(table2.as_table())
        improvements = table2.improvement_summary()
        improvement_lines = ["Improvements of the proposed approach:"]
        for key, values in improvements.items():
            improvement_lines.append(
                f"  vs {key}: die hot spot -{values['die_theta_max_reduction_c']:.1f} C, "
                f"die gradient -{values['die_grad_reduction_pct']:.0f}%"
            )
        sections.append("\n".join(improvement_lines))
        sections.append(run_fig7(platform).as_text())
        sections.append(run_fig8(platform, duration_s=30.0 if quick else 60.0).as_table())
        sections.append(
            run_fig9(
                platform,
                n_servers=2 if quick else 4,
                duration_s=20.0 if quick else 40.0,
            ).as_table()
        )
        sections.append(
            run_fig10(
                platform,
                n_racks=racks,
                servers_per_rack=2 if quick else 4,
                duration_s=(
                    fig10_duration_s
                    if fig10_duration_s is not None
                    else (24.0 if quick else 48.0)
                ),
                hetero=hetero,
                mpc=mpc,
                chillers=chillers,
                coarse=coarse,
                parallel_groups=parallel_groups,
                warm_store=warm_store,
            ).as_table(verbose=verbose)
        )
        sections.append(
            run_cooling_power(platform, benchmark_names=benchmarks).as_table()
        )
    finally:
        if hub is not None:
            try:
                manifest = obs.run_manifest(
                    config={
                        "quick": quick,
                        "cell_size_mm": cell_size_mm,
                        "racks": racks,
                        "hetero": hetero,
                        "mpc": mpc,
                        "chillers": chillers,
                        "coarse": coarse,
                        "fig10_duration_s": fig10_duration_s,
                        "parallel_groups": parallel_groups,
                    }
                )
                events = obs.write_jsonl(hub, telemetry, manifest=manifest)
                trace_path = Path(telemetry).with_suffix(".trace.json")
                obs.write_chrome_trace(hub, trace_path)
                sections.append(
                    f"Telemetry: {events} events -> {telemetry} "
                    f"(Chrome trace: {trace_path})"
                )
            finally:
                obs.set_telemetry(previous_hub)
    elapsed = time.time() - start
    sections.append(f"Total experiment time: {elapsed:.1f} s")
    return "\n\n".join(sections)


def main(argv: list[str] | None = None) -> None:
    """Command-line entry point (``argv`` defaults to ``sys.argv[1:]``)."""
    # No prefix matching: a deleted flag must fail, not resolve to a longer one.
    parser = argparse.ArgumentParser(description=__doc__, allow_abbrev=False)
    parser.add_argument("--quick", action="store_true", help="use a reduced benchmark set")
    parser.add_argument(
        "--cell-size-mm",
        type=float,
        default=1.0,
        help="thermal grid cell size in millimetres (smaller = finer, slower)",
    )
    parser.add_argument(
        "--racks",
        type=int,
        default=2,
        metavar="N",
        help="number of racks on the fig10 datacenter floor",
    )
    parser.add_argument(
        "--hetero",
        action="store_true",
        help="cycle two thermosyphon designs across the fig10 floor's racks",
    )
    parser.add_argument(
        "--mpc",
        action="store_true",
        help="add fig10's model-predictive supervisory run (receding-horizon "
        "rollouts next to the fixed and reactive baselines)",
    )
    parser.add_argument(
        "--chillers",
        type=int,
        default=1,
        metavar="N",
        help="size of the fig10 staged chiller bank (1 = single plant)",
    )
    parser.add_argument(
        "--coarse",
        action="store_true",
        help="run fig10 with adaptive control-period coarsening and the "
        "reduced-order thermal lane (long-trace engine)",
    )
    parser.add_argument(
        "--fig10-duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="override the fig10 trace duration (pair with --coarse for "
        "long, multi-day traces)",
    )
    parser.add_argument(
        "--parallel-groups",
        type=int,
        default=0,
        metavar="N",
        help="advance the fig10 floor's hardware groups on N worker threads "
        "(bit-identical; measured slower than serial on 2 vCPUs)",
    )
    parser.add_argument(
        "--warm-store",
        default=None,
        metavar="DIR",
        help="persist reduced-order bases to DIR so "
        "repeat runs skip every first Arnoldi build",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="OUT.jsonl",
        help="enable the telemetry hub and export counters, histograms and "
        "spans to OUT.jsonl (plus a Perfetto-loadable OUT.trace.json); "
        "render it with `python -m repro.obs.report OUT.jsonl`",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print each fig10 run's full trace summary (includes the "
        "telemetry footer when --telemetry is on)",
    )
    arguments = parser.parse_args(argv)
    print(
        run_all(
            quick=arguments.quick,
            cell_size_mm=arguments.cell_size_mm,
            racks=arguments.racks,
            hetero=arguments.hetero,
            mpc=arguments.mpc,
            chillers=arguments.chillers,
            coarse=arguments.coarse,
            fig10_duration_s=arguments.fig10_duration,
            parallel_groups=arguments.parallel_groups,
            warm_store=arguments.warm_store,
            telemetry=arguments.telemetry,
            verbose=arguments.verbose,
        )
    )


if __name__ == "__main__":
    main()
