"""Section VIII-B — chiller cooling-power comparison.

The paper argues that without the proposed design and mapping, reaching the
same hot-spot temperature requires colder chiller water (20 degC instead of
30 degC at the same flow rate) and produces a larger water temperature rise
across the condenser, which together increase the chiller power computed by
Eq. 1 by at least 45%.

This experiment reproduces that comparison: the proposed stack is evaluated
at its nominal water temperature, the state-of-the-art stack's water
temperature is lowered until it matches the proposed hot spot, and the
chiller power of both operating points is compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table, percentage_reduction
from repro.experiments.common import (
    Approach,
    Platform,
    build_platform,
    evaluate_approach_batch,
    paper_approaches,
)
from repro.thermosyphon.chiller import ChillerModel
from repro.workloads.parsec import PARSEC_BENCHMARK_NAMES
from repro.workloads.qos import QoSConstraint


@dataclass
class CoolingOperatingPoint:
    """One approach's rack-averaged cooling operating point."""

    approach: str
    water_inlet_temperature_c: float
    average_hot_spot_c: float
    average_package_power_w: float
    average_water_delta_t_c: float
    chiller_power_w: float


@dataclass
class CoolingPowerResult:
    """Proposed vs state-of-the-art chiller power."""

    proposed: CoolingOperatingPoint
    state_of_the_art: CoolingOperatingPoint

    @property
    def chiller_power_reduction_pct(self) -> float:
        """Chiller power reduction achieved by the proposed approach."""
        return percentage_reduction(
            self.state_of_the_art.chiller_power_w, self.proposed.chiller_power_w
        )

    def as_table(self) -> str:
        """Render the cooling-power comparison."""
        headers = (
            "Approach",
            "Water inlet (C)",
            "Avg hot spot (C)",
            "Avg package power (W)",
            "Water delta-T (C)",
            "Chiller power (W)",
        )
        rows = [
            (
                point.approach,
                point.water_inlet_temperature_c,
                point.average_hot_spot_c,
                point.average_package_power_w,
                point.average_water_delta_t_c,
                point.chiller_power_w,
            )
            for point in (self.proposed, self.state_of_the_art)
        ]
        footer = f"\nChiller power reduction: {self.chiller_power_reduction_pct:.1f}%"
        return format_table(headers, rows, title="Section VIII-B - chiller cooling power") + footer


def _evaluate_stack(
    platform: Platform,
    approach: Approach,
    benchmark_names: tuple[str, ...],
    constraint: QoSConstraint,
    water_inlet_temperature_c: float,
    chiller: ChillerModel,
) -> CoolingOperatingPoint:
    hot_spots: list[float] = []
    powers: list[float] = []
    delta_ts: list[float] = []
    chiller_power = 0.0
    results = evaluate_approach_batch(
        platform,
        approach,
        benchmark_names,
        constraint,
        water_inlet_temperature_c=water_inlet_temperature_c,
    )
    for result in results:
        hot_spots.append(result.die_metrics.theta_max_c)
        powers.append(result.package_power_w)
        delta_ts.append(result.water_delta_t_c)
        # The evaluated water loop is carried on the result, so the chiller
        # accounting reflects the operating point that actually ran.
        chiller_power += result.chiller_power_w(chiller)
    return CoolingOperatingPoint(
        approach=approach.name,
        water_inlet_temperature_c=water_inlet_temperature_c,
        average_hot_spot_c=float(np.mean(hot_spots)),
        average_package_power_w=float(np.mean(powers)),
        average_water_delta_t_c=float(np.mean(delta_ts)),
        chiller_power_w=chiller_power,
    )


def run_cooling_power(
    platform: Platform | None = None,
    *,
    benchmark_names: tuple[str, ...] = PARSEC_BENCHMARK_NAMES,
    qos_factor: float = 2.0,
    proposed_water_temperature_c: float = 30.0,
    water_search_low_c: float = 10.0,
    water_tolerance_c: float = 0.5,
) -> CoolingPowerResult:
    """Compare chiller power of the proposed and state-of-the-art stacks.

    The state-of-the-art stack's water inlet temperature is lowered (by
    bisection) until its average hot spot matches the proposed stack's hot
    spot at the nominal 30 degC water, mirroring the paper's argument.
    """
    platform = platform if platform is not None else build_platform()
    constraint = QoSConstraint(qos_factor)
    chiller = ChillerModel()
    approaches = paper_approaches()
    proposed = next(a for a in approaches if a.name == "proposed")
    baseline = next(a for a in approaches if a.name == "[8]+[27]+[9]")

    proposed_point = _evaluate_stack(
        platform, proposed, benchmark_names, constraint, proposed_water_temperature_c,
        chiller,
    )

    target_hot_spot = proposed_point.average_hot_spot_c

    # Bisection on the baseline's water temperature to match the hot spot.
    low = water_search_low_c
    high = proposed_water_temperature_c
    baseline_at_high = _evaluate_stack(
        platform, baseline, benchmark_names, constraint, high, chiller
    )
    if baseline_at_high.average_hot_spot_c <= target_hot_spot:
        baseline_point = baseline_at_high
    else:
        baseline_point = _evaluate_stack(
            platform, baseline, benchmark_names, constraint, low, chiller
        )
        low_temperature, high_temperature = low, high
        while high_temperature - low_temperature > water_tolerance_c:
            middle = 0.5 * (low_temperature + high_temperature)
            candidate = _evaluate_stack(
                platform, baseline, benchmark_names, constraint, middle, chiller
            )
            if candidate.average_hot_spot_c <= target_hot_spot:
                baseline_point = candidate
                low_temperature = middle
            else:
                high_temperature = middle

    return CoolingPowerResult(proposed=proposed_point, state_of_the_art=baseline_point)
