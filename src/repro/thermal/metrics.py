"""Thermal metrics: hot spot, average temperature and spatial gradient.

These are the three quantities the paper reports for every experiment:
``theta_max`` (the hot spot), ``theta_avg`` and ``grad_theta_max`` (the
maximum spatial thermal gradient in degrees Celsius per millimetre).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError

#: 4-connectivity structuring element (no diagonal adjacency).
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class ThermalMetrics:
    """Summary metrics of one temperature map."""

    theta_max_c: float
    theta_avg_c: float
    grad_max_c_per_mm: float

    def as_row(self) -> dict[str, float]:
        """Dictionary form used by the reporting helpers."""
        return {
            "theta_max_c": self.theta_max_c,
            "theta_avg_c": self.theta_avg_c,
            "grad_max_c_per_mm": self.grad_max_c_per_mm,
        }


def _validated_map(temperature_map_c: np.ndarray, mask: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    temperature_map_c = np.asarray(temperature_map_c, dtype=float)
    if temperature_map_c.ndim != 2:
        raise ValidationError("temperature map must be two-dimensional")
    if mask is None:
        mask = np.ones_like(temperature_map_c, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != temperature_map_c.shape:
            raise ValidationError(
                f"mask shape {mask.shape} does not match map shape {temperature_map_c.shape}"
            )
    if not mask.any():
        raise ValidationError("mask selects no cells")
    return temperature_map_c, mask


def max_spatial_gradient(
    temperature_map_c: np.ndarray,
    cell_pitch_mm: tuple[float, float],
    mask: np.ndarray | None = None,
) -> float:
    """Maximum temperature difference per millimetre between adjacent cells.

    Only pairs where *both* cells belong to the mask are considered, so the
    artificial step at the die boundary does not dominate the result.
    """
    temperature_map_c, mask = _validated_map(temperature_map_c, mask)
    pitch_x_mm, pitch_y_mm = cell_pitch_mm
    if pitch_x_mm <= 0.0 or pitch_y_mm <= 0.0:
        raise ValidationError("cell pitch must be positive")

    best = 0.0
    # east-west neighbours
    diff_x = np.abs(np.diff(temperature_map_c, axis=1)) / pitch_x_mm
    valid_x = mask[:, :-1] & mask[:, 1:]
    if valid_x.any():
        best = max(best, float(diff_x[valid_x].max()))
    # north-south neighbours
    diff_y = np.abs(np.diff(temperature_map_c, axis=0)) / pitch_y_mm
    valid_y = mask[:-1, :] & mask[1:, :]
    if valid_y.any():
        best = max(best, float(diff_y[valid_y].max()))
    return best


def compute_metrics(
    temperature_map_c: np.ndarray,
    cell_pitch_mm: tuple[float, float],
    mask: np.ndarray | None = None,
) -> ThermalMetrics:
    """Hot spot, average and maximum gradient of a temperature map."""
    temperature_map_c, mask = _validated_map(temperature_map_c, mask)
    values = temperature_map_c[mask]
    return ThermalMetrics(
        theta_max_c=float(values.max()),
        theta_avg_c=float(values.mean()),
        grad_max_c_per_mm=max_spatial_gradient(temperature_map_c, cell_pitch_mm, mask),
    )


def hot_spot_count(
    temperature_map_c: np.ndarray,
    threshold_c: float,
    mask: np.ndarray | None = None,
) -> int:
    """Number of connected regions hotter than ``threshold_c``.

    The mapping policy aims to minimise both the magnitude and the *number*
    of hot spots; this helper counts 4-connected regions above a threshold
    with one vectorized ``scipy.ndimage.label`` pass (it replaced a per-cell
    Python flood fill that dominated fine-grid metric extraction).
    ``scipy.ndimage`` is imported on the first call, not with this module:
    no run needs it, and importing it costs about 0.12 s of start-up.
    """
    from scipy import ndimage

    temperature_map_c, mask = _validated_map(temperature_map_c, mask)
    hot = (temperature_map_c >= threshold_c) & mask
    _, count = ndimage.label(hot, structure=_CROSS)
    return int(count)


@dataclass(frozen=True)
class HotSpot:
    """Location and temperature of the hottest masked cell."""

    row: int
    column: int
    temperature_c: float


def hot_spot_location(
    temperature_map_c: np.ndarray,
    mask: np.ndarray | None = None,
) -> HotSpot:
    """Coordinates and value of the hottest cell within the mask.

    Ties resolve to the lowest flat index (row-major), matching what a
    per-cell scan in reading order would report.
    """
    temperature_map_c, mask = _validated_map(temperature_map_c, mask)
    masked = np.where(mask, temperature_map_c, -np.inf)
    flat = int(np.argmax(masked))
    row, column = divmod(flat, temperature_map_c.shape[1])
    return HotSpot(row=row, column=column, temperature_c=float(temperature_map_c[row, column]))
