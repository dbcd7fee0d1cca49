"""Table II — thermal hot spots and spatial gradients per approach and QoS.

For every QoS level (1x, 2x, 3x) and every approach (proposed,
[8]+[27]+[9], [8]+[27]+[7]) the workloads are run end to end (configuration
selection, mapping, thermal evaluation) and the die/package hot spots and
maximum spatial gradients are averaged across the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.comparison import ApproachComparison, ComparisonRow
from repro.experiments.common import (
    Approach,
    Platform,
    build_platform,
    evaluate_approach_batch,
    paper_approaches,
)
from repro.workloads.parsec import PARSEC_BENCHMARK_NAMES
from repro.workloads.qos import QoSConstraint


@dataclass(frozen=True)
class Table2Cell:
    """Per-benchmark evaluation backing one averaged Table II row."""

    approach: str
    qos_label: str
    benchmark: str
    die_theta_max_c: float
    die_grad_max_c_per_mm: float
    package_theta_max_c: float
    package_grad_max_c_per_mm: float


@dataclass
class Table2Result:
    """Averaged Table II plus the per-benchmark detail."""

    comparison: ApproachComparison
    cells: list[Table2Cell] = field(default_factory=list)

    def as_table(self) -> str:
        """Render in the layout of the paper's Table II."""
        return self.comparison.as_table()

    def improvement_summary(self) -> dict[str, dict[str, float]]:
        """Reductions of the proposed approach vs each baseline at each QoS."""
        summary: dict[str, dict[str, float]] = {}
        for approach in self.comparison.approaches:
            if approach == "proposed":
                continue
            for qos in self.comparison.qos_labels:
                key = f"{approach} @ {qos}"
                summary[key] = self.comparison.improvement_over(approach, "proposed", qos)
        return summary


def run_table2(
    platform: Platform | None = None,
    *,
    benchmark_names: tuple[str, ...] = PARSEC_BENCHMARK_NAMES,
    qos_factors: tuple[float, ...] = (1.0, 2.0, 3.0),
    approaches: tuple[Approach, ...] | None = None,
) -> Table2Result:
    """Run the full Table II sweep (batched per approach and QoS level)."""
    platform = platform if platform is not None else build_platform()
    approaches = approaches if approaches is not None else paper_approaches()
    comparison = ApproachComparison()
    cells: list[Table2Cell] = []
    for approach in approaches:
        for factor in qos_factors:
            constraint = QoSConstraint(factor)
            die_max: list[float] = []
            die_grad: list[float] = []
            package_max: list[float] = []
            package_grad: list[float] = []
            results = evaluate_approach_batch(
                platform, approach, benchmark_names, constraint
            )
            for name, result in zip(benchmark_names, results):
                die_max.append(result.die_metrics.theta_max_c)
                die_grad.append(result.die_metrics.grad_max_c_per_mm)
                package_max.append(result.package_metrics.theta_max_c)
                package_grad.append(result.package_metrics.grad_max_c_per_mm)
                cells.append(
                    Table2Cell(
                        approach=approach.name,
                        qos_label=constraint.label(),
                        benchmark=name,
                        die_theta_max_c=result.die_metrics.theta_max_c,
                        die_grad_max_c_per_mm=result.die_metrics.grad_max_c_per_mm,
                        package_theta_max_c=result.package_metrics.theta_max_c,
                        package_grad_max_c_per_mm=result.package_metrics.grad_max_c_per_mm,
                    )
                )
            comparison.add(
                ComparisonRow(
                    approach=approach.name,
                    qos_label=constraint.label(),
                    die_theta_max_c=float(np.mean(die_max)),
                    die_grad_max_c_per_mm=float(np.mean(die_grad)),
                    package_theta_max_c=float(np.mean(package_max)),
                    package_grad_max_c_per_mm=float(np.mean(package_grad)),
                )
            )
    return Table2Result(comparison=comparison, cells=cells)
