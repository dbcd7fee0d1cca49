"""Output checks: digests, pinned reference outputs, per-workload invariants.

Every check returns a list of error strings (empty when it passes), so the
checks compose and a failed sample reports every reason at once.

Contract tiers (as the ROADMAP defines them):

* tier B — per-server per-period peaks within 1e-9 degC, plant energy
  within 1e-9 relative, identical violation counts;
* tier C — peaks within 0.1 degC, plant energy within 1e-6 relative,
  identical violation counts.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

TIER_B = {"peak_c": 1e-9, "energy_rel": 1e-9}
TIER_C = {"peak_c": 0.1, "energy_rel": 1e-6}
#: The tier each workload's default-seed outputs are held to.
REFERENCE_TIER = {
    "floor_reactive": TIER_B,
    "floor_mpc": TIER_B,
    "coarse_2sku": TIER_C,
    "mapping_sweep": TIER_B,
}
#: QoS levels at which the proposed stack must have the coolest die.
PAPER_ORDERING_QOS = ("2x", "3x")
BASELINES = ("[8]+[27]+[9]", "[8]+[27]+[7]")


def digest(outcome) -> str:
    """Short content digest of the simulated statistics.

    Peaks are rounded to 1e-6 degC and plant energy to 1e-6 J first, so the
    digest names the simulated result rather than its last floating-point
    bits.
    """
    hasher = hashlib.blake2b(digest_size=8)
    hasher.update(np.round(outcome.peaks_c, 6).astype(np.float64).tobytes())
    hasher.update(repr(round(outcome.plant_energy_j, 6)).encode())
    hasher.update(repr(outcome.violations).encode())
    return hasher.hexdigest()


def compare(outcome, peaks_c, plant_energy_j, violations, tier, label) -> list[str]:
    """Errors of ``outcome`` against expected outputs at a contract tier."""
    peaks_c = np.asarray(peaks_c, dtype=float)
    if outcome.peaks_c.shape != peaks_c.shape:
        return [f"{label}: peaks shape {outcome.peaks_c.shape} != {peaks_c.shape}"]
    errors = []
    worst = float(np.max(np.abs(outcome.peaks_c - peaks_c))) if peaks_c.size else 0.0
    if not worst <= tier["peak_c"]:
        errors.append(f"{label}: peak deviation {worst:.3g} C > {tier['peak_c']} C")
    scale = max(abs(plant_energy_j), 1.0)
    energy_rel = abs(outcome.plant_energy_j - plant_energy_j) / scale
    if not energy_rel <= tier["energy_rel"]:
        errors.append(
            f"{label}: plant energy {outcome.plant_energy_j!r} J vs "
            f"{plant_energy_j!r} J (relative {energy_rel:.3g})"
        )
    if outcome.violations != violations:
        errors.append(f"{label}: {outcome.violations} violations != {violations}")
    return errors


def load_reference() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def reference_entry(outcome) -> dict:
    return {
        "plant_energy_j": outcome.plant_energy_j,
        "violations": outcome.violations,
        "digest": digest(outcome),
        "peaks_c": outcome.peaks_c.tolist(),
    }


def check_reference(name: str, seed: int, outcome, reference: dict) -> list[str]:
    """Compare against the pinned outputs when run at their seed."""
    entry = reference.get(name)
    if entry is None or entry["seed"] != seed:
        return []
    return compare(
        outcome,
        entry["peaks_c"],
        entry["plant_energy_j"],
        entry["violations"],
        REFERENCE_TIER[name],
        f"{name} vs reference (seed {seed})",
    )


def paper_ordering(outcome) -> dict[str, float]:
    """Per QoS level: best baseline die hot spot minus the proposed one."""
    rows = outcome.extra["rows"]
    return {
        qos: min(rows[f"{baseline}|{qos}"] for baseline in BASELINES)
        - rows[f"proposed|{qos}"]
        for qos in ("1x", "2x", "3x")
    }


def check_invariants(name: str, outcome, expected_work: int, *, cold=False) -> list[str]:
    """Checks that hold at every seed (``cold``: the warm-store fill run)."""
    errors = []
    if outcome.work != expected_work:
        errors.append(f"work {outcome.work} != expected {expected_work}")
    if not np.all(np.isfinite(outcome.peaks_c)):
        errors.append("non-finite peak temperatures")
    if name == "mapping_sweep":
        margins = paper_ordering(outcome)
        for qos in PAPER_ORDERING_QOS:
            if margins[qos] < 0.0:
                errors.append(
                    f"paper ordering broken at {qos}: proposed die hot spot is "
                    f"{-margins[qos]:.4f} C above the best baseline"
                )
        return errors
    if not (np.isfinite(outcome.plant_energy_j) and outcome.plant_energy_j > 0.0):
        errors.append(f"plant energy {outcome.plant_energy_j!r} J is not positive")
    if name == "floor_mpc" and outcome.extra["mpc_plans"] < 1:
        errors.append("the MPC planner never ran")
    if name == "coarse_2sku":
        rom = outcome.extra["rom_stats"]
        store = outcome.extra["warm_store"]
        if outcome.extra["coarse_spans"] < 1:
            errors.append("no coarse span formed")
        if cold:
            if rom["basis_builds"] < 1 or store["stores"] < 1:
                errors.append(f"cold run filled no warm store: {rom}, {store}")
        elif rom["basis_builds"] != 0:
            errors.append(f"warm run built {rom['basis_builds']} bases (expected 0)")
        elif store["hits"] < 1 or store["stale"]:
            errors.append(f"warm store not used cleanly: {store}")
    return errors
