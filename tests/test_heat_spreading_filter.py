"""The lane march's heat-spreading filter equals ``scipy.ndimage``'s, bit for bit.

``ThermosyphonLoop.cooling_boundaries`` smooths each die power map with a
private NumPy Gaussian (``repro.thermosyphon.loop._spread_heat``) instead of
``scipy.ndimage.gaussian_filter(maps, sigma=(0, s_rows, s_cols),
mode="nearest")``, so no run has to import ``scipy.ndimage``.  Equality is
exact (``assert_array_equal``), not a tolerance: the NumPy filter builds
scipy's weights with scipy's arithmetic, replicates edges as ``"nearest"``
does, filters rows then columns, and sums every cell in the order of
scipy's symmetric ``correlate1d`` C loop (``w_0 x_i``, then
``+= (x_{i-j} + x_{i+j}) w_j`` for ``j = r ... 1``), one rounding per
operation.  That loop is compiled without fused multiply-add on the
x86-64 wheels CI installs, so it rounds each product and each sum
separately, as NumPy does.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.loop import HEAT_SPREADING_SIGMA_MM, ThermosyphonLoop, _spread_heat
from repro.thermosyphon.orientation import Orientation

#: (pitch_x_mm, pitch_y_mm): square pitches over 0.5-3.0 mm (kernel radii
#: 12 down to 2 cells), anisotropic pairs, and a 15 mm pitch whose sigma of
#: 0.1 cells truncates to a radius of 0.
PITCHES = [
    (0.5, 0.5),
    (0.75, 0.75),
    (1.0, 1.0),
    (1.5, 1.5),
    (2.0, 2.0),
    (3.0, 3.0),
    (0.5, 3.0),
    (2.0, 0.75),
    (15.0, 15.0),
]

#: (n_servers, n_rows, n_columns): one and eight servers, square and
#: non-square grids, and grids narrower than every radius above 2.
SHAPES = [(1, 25, 25), (8, 7, 19), (1, 19, 4), (8, 3, 2), (1, 1, 1)]


def _maps(kind: str, shape: tuple[int, int, int]) -> np.ndarray:
    rng = np.random.default_rng(sum(shape) * 31 + len(kind))
    if kind == "zero":
        return np.zeros(shape)
    maps = rng.random(shape)
    if kind == "sparse":
        return np.where(maps > 0.9, 40.0 * maps, 0.0)
    if kind == "large":
        return 1e9 * maps
    return 1.5 * maps


def _scipy(maps: np.ndarray, pitch: tuple[float, float]) -> np.ndarray:
    pitch_x_mm, pitch_y_mm = pitch
    return gaussian_filter(
        maps,
        sigma=(0.0, HEAT_SPREADING_SIGMA_MM / pitch_y_mm, HEAT_SPREADING_SIGMA_MM / pitch_x_mm),
        mode="nearest",
    )


class TestEqualsScipy:
    @pytest.mark.parametrize("kind", ["random", "zero", "sparse", "large"])
    @pytest.mark.parametrize("pitch", PITCHES, ids=[f"{x}x{y}mm" for x, y in PITCHES])
    def test_every_shape(self, pitch, kind):
        pitch_x_mm, pitch_y_mm = pitch
        for shape in SHAPES:
            maps = _maps(kind, shape)
            ours = _spread_heat(
                maps, HEAT_SPREADING_SIGMA_MM / pitch_y_mm, HEAT_SPREADING_SIGMA_MM / pitch_x_mm
            )
            np.testing.assert_array_equal(ours, _scipy(maps, pitch), err_msg=str(shape))

    @pytest.mark.parametrize("sigma", [0.0, 0.1, 1.5])
    def test_returns_a_new_array(self, sigma):
        """A zero sigma skips its axis, as scipy does; the input is never written."""
        maps = _maps("random", (8, 7, 19))
        before = maps.copy()
        out = _spread_heat(maps, sigma, sigma)
        np.testing.assert_array_equal(
            out, gaussian_filter(maps, sigma=(0.0, sigma, sigma), mode="nearest")
        )
        out *= 2.0
        np.testing.assert_array_equal(maps, before)


@pytest.mark.parametrize("orientation", list(Orientation), ids=[o.value for o in Orientation])
def test_lane_march_is_unchanged_by_the_filter(orientation, monkeypatch):
    """The whole boundary is the one a scipy-filtered march gives."""
    loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN.with_orientation(orientation))
    maps = _maps("random", (3, 13, 17)) * 0.6
    points = [loop.operating_point(float(m.sum())) for m in maps]
    ours = loop.cooling_boundaries(maps, (1.5, 1.0), points)
    monkeypatch.setattr(
        "repro.thermosyphon.loop._spread_heat",
        lambda stack, s_rows, s_cols: gaussian_filter(
            stack, sigma=(0.0, s_rows, s_cols), mode="nearest"
        ),
    )
    golden = loop.cooling_boundaries(maps, (1.5, 1.0), points)
    for a, b in zip(ours, golden):
        np.testing.assert_array_equal(a.boundary.htc_w_m2k, b.boundary.htc_w_m2k)
        np.testing.assert_array_equal(
            a.boundary.fluid_temperature_c, b.boundary.fluid_temperature_c
        )
        np.testing.assert_array_equal(a.outlet_quality_per_lane, b.outlet_quality_per_lane)
