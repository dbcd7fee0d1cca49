"""Golden-model equivalence of the evaporator lane march, at two tiers.

``EvaporatorModel.solve_channels`` marches all lanes together: two running
sums along the channel (the subcooling left and the quality gained) replace
a loop over cells, and every output is then evaluated once on the
``(n_lanes, n_cells)`` arrays.  Two goldens in ``tests/reference_lane_march``
hold it:

* the scalar ``solve_channel``, marched lane by lane, to <= 1e-12 (tier B:
  vectorized arithmetic may round differently), across orientations,
  reversed flow, dryout overload and subcooled / vapor-preloaded inlets —
  the fast path only counts if it is the same physics;
* the batched cell-by-cell loop the running sums replaced, to ``==`` on
  quality, fluid temperature, HTC and dryout (tier A): the sums subtract
  and add in the loop's own order, and with non-negative heat the loop's
  clamps are absorbing, so no bit may move.  Heat that is negative or not
  finite is rejected before the march.

One ``cooling_boundaries`` call over servers at distinct operating points
must reproduce a single-point call for every server bit for bit: the floor
engine marches all of a hardware group's stale servers in one call.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from reference_lane_march import reference_cooling_boundary, reference_solve_channels
from repro.exceptions import ValidationError
from repro.thermal.simulator import ThermalSimulator
from repro.thermosyphon.design import PAPER_OPTIMIZED_DESIGN
from repro.thermosyphon.evaporator import EvaporatorModel
from repro.thermosyphon.loop import ThermosyphonLoop
from repro.thermosyphon.orientation import Orientation
from repro.thermosyphon.refrigerant import get_refrigerant

RTOL = 1e-12


def _assert_field_close(reference: np.ndarray, batched: np.ndarray) -> None:
    scale = max(float(np.abs(reference).max()), 1.0)
    np.testing.assert_allclose(batched, reference, rtol=RTOL, atol=RTOL * scale)


@pytest.fixture(scope="module")
def model():
    return EvaporatorModel(get_refrigerant("R236fa"))


def _lane_heats(n_lanes: int, n_cells: int, *, scale: float = 0.5) -> np.ndarray:
    """Deterministic uneven heat pattern: every lane differs."""
    rng = np.random.default_rng(n_lanes * 97 + n_cells)
    return scale * rng.random((n_lanes, n_cells))


#: (inlet_subcooling_c, inlet_quality, mass_flow_kg_s, heat_scale_w) cases:
#: subcooled inlet, saturated inlet, vapor-preloaded inlet (undercharge),
#: and a dryout overload.
MARCH_CASES = {
    "subcooled-inlet": (3.0, 0.0, 6e-5, 0.5),
    "saturated-inlet": (0.0, 0.0, 6e-5, 0.5),
    "vapor-preloaded": (0.0, 0.2, 6e-5, 0.5),
    "dryout-overload": (0.0, 0.0, 3e-5, 2.5),
    "deep-subcooling": (8.0, 0.0, 1e-4, 0.2),
}


class TestSolveChannelsEquivalence:
    @pytest.mark.parametrize("case", list(MARCH_CASES), ids=list(MARCH_CASES))
    @pytest.mark.parametrize("slope", [0.0, 0.015], ids=["flat-tsat", "sloped-tsat"])
    @pytest.mark.parametrize(
        "shape", [(6, 24), (1, 8), (17, 3)], ids=["6x24", "1x8", "17x3"]
    )
    def test_batched_matches_scalar_march(self, model, case, slope, shape):
        subcooling, inlet_quality, mass_flow, heat_scale = MARCH_CASES[case]
        heats = _lane_heats(*shape, scale=heat_scale)
        batch = model.solve_channels(
            heats,
            mass_flow,
            41.0,
            inlet_subcooling_c=subcooling,
            inlet_quality=inlet_quality,
            cell_base_area_m2=1e-6,
            saturation_slope_c_per_cell=slope,
        )
        for lane in range(shape[0]):
            scalar = model.solve_channel(
                heats[lane],
                mass_flow,
                41.0,
                inlet_subcooling_c=subcooling,
                inlet_quality=inlet_quality,
                cell_base_area_m2=1e-6,
                saturation_slope_c_per_cell=slope,
            )
            _assert_field_close(scalar.quality, batch.quality[lane])
            _assert_field_close(scalar.fluid_temperature_c, batch.fluid_temperature_c[lane])
            _assert_field_close(scalar.base_htc_w_m2k, batch.base_htc_w_m2k[lane])
            assert bool(batch.dryout_per_lane[lane]) == scalar.dryout
            assert batch.outlet_quality_per_lane[lane] == pytest.approx(
                scalar.outlet_quality, rel=RTOL
            )

    def test_dryout_case_actually_dries_out(self, model):
        """Guard: the overload case must exercise the dryout branch."""
        subcooling, inlet_quality, mass_flow, heat_scale = MARCH_CASES["dryout-overload"]
        batch = model.solve_channels(
            np.full((4, 30), heat_scale),
            mass_flow,
            41.0,
            inlet_subcooling_c=subcooling,
            inlet_quality=inlet_quality,
            cell_base_area_m2=1e-6,
        )
        assert batch.dryout
        assert batch.dryout_per_lane.all()

    def test_lane_accessor_round_trips(self, model):
        heats = _lane_heats(3, 10)
        batch = model.solve_channels(heats, 6e-5, 41.0, cell_base_area_m2=1e-6)
        lane = batch.lane(1)
        np.testing.assert_array_equal(lane.quality, batch.quality[1])
        assert lane.outlet_quality == pytest.approx(batch.outlet_quality_per_lane[1])

    def test_rejects_one_dimensional_input(self, model):
        with pytest.raises(Exception):
            model.solve_channels(np.ones(5), 1e-4, 41.0, cell_base_area_m2=1e-6)

    @pytest.mark.parametrize(
        "flows, t_sats",
        [
            (np.full(3, 6e-5), 41.0),
            (6e-5, np.full(5, 41.0)),
            (np.full((4, 1), 6e-5), 41.0),
        ],
        ids=["short-flows", "long-t-sat", "two-dimensional-flows"],
    )
    def test_rejects_per_lane_arrays_of_the_wrong_length(self, model, flows, t_sats):
        with pytest.raises(ValidationError, match="shape"):
            model.solve_channels(
                _lane_heats(4, 10), flows, t_sats, cell_base_area_m2=1e-6
            )

    @pytest.mark.parametrize("bad", [0.0, -6e-5, np.nan], ids=["zero", "negative", "nan"])
    def test_rejects_non_positive_flows(self, model, bad):
        flows = np.full(4, 6e-5)
        flows[2] = bad
        with pytest.raises(ValidationError, match="mass_flow_kg_s"):
            model.solve_channels(_lane_heats(4, 10), flows, 41.0, cell_base_area_m2=1e-6)

    def test_lanes_at_distinct_points_match_single_point_marches(self, model):
        heats = _lane_heats(6, 12)
        flows = np.array([6e-5, 6e-5, 3e-5, 3e-5, 6e-5, 1e-4])
        t_sats = np.array([41.0, 41.0, 38.5, 38.5, 44.0, 41.0])
        batch = model.solve_channels(
            heats, flows, t_sats, cell_base_area_m2=1e-6, saturation_slope_c_per_cell=0.015
        )
        for lane in range(heats.shape[0]):
            single = model.solve_channels(
                heats[lane : lane + 1],
                float(flows[lane]),
                float(t_sats[lane]),
                cell_base_area_m2=1e-6,
                saturation_slope_c_per_cell=0.015,
            )
            assert np.array_equal(batch.quality[lane], single.quality[0])
            assert np.array_equal(batch.base_htc_w_m2k[lane], single.base_htc_w_m2k[0])
            assert np.array_equal(
                batch.fluid_temperature_c[lane], single.fluid_temperature_c[0]
            )
            assert batch.dryout_per_lane[lane] == single.dryout_per_lane[0]


def _assert_equals_cell_loop(model, heats, flows, t_sats, **march):
    """``solve_channels`` == the golden cell-by-cell loop on every output."""
    ours = model.solve_channels(heats, flows, t_sats, **march)
    golden = reference_solve_channels(model, heats, flows, t_sats, **march)
    assert np.array_equal(ours.quality, golden.quality)
    assert np.array_equal(ours.fluid_temperature_c, golden.fluid_temperature_c)
    assert np.array_equal(ours.base_htc_w_m2k, golden.base_htc_w_m2k)
    assert np.array_equal(ours.dryout_per_lane, golden.dryout_per_lane)
    return ours


def _march_kwargs(case: str, slope: float) -> dict:
    subcooling, inlet_quality, _, _ = MARCH_CASES[case]
    return {
        "inlet_subcooling_c": subcooling,
        "inlet_quality": inlet_quality,
        "cell_base_area_m2": 1e-6,
        "saturation_slope_c_per_cell": slope,
    }


class TestRunningSumsEqualTheCellLoop:
    """Tier A: the running sums reproduce the golden cell loop bit for bit."""

    @pytest.mark.parametrize("case", list(MARCH_CASES), ids=list(MARCH_CASES))
    @pytest.mark.parametrize("slope", [0.0, 0.015], ids=["flat-tsat", "sloped-tsat"])
    @pytest.mark.parametrize(
        "shape", [(6, 24), (1, 8), (17, 3)], ids=["6x24", "1x8", "17x3"]
    )
    def test_every_march_case(self, model, case, slope, shape):
        _, _, mass_flow, heat_scale = MARCH_CASES[case]
        _assert_equals_cell_loop(
            model,
            _lane_heats(*shape, scale=heat_scale),
            mass_flow,
            41.0,
            **_march_kwargs(case, slope),
        )

    @pytest.mark.parametrize("case", list(MARCH_CASES), ids=list(MARCH_CASES))
    @pytest.mark.parametrize("slope", [0.0, 0.015], ids=["flat-tsat", "sloped-tsat"])
    def test_zero_heat_lanes_and_cells(self, model, case, slope):
        """Cold lanes stay at the inlet state; cold cells add exactly 0.0."""
        _, _, mass_flow, heat_scale = MARCH_CASES[case]
        heats = _lane_heats(6, 24, scale=heat_scale)
        heats[1] = 0.0
        heats[2, :8] = 0.0
        heats[3, 12:] = 0.0
        heats[4, ::3] = 0.0
        batch = _assert_equals_cell_loop(
            model, heats, mass_flow, 41.0, **_march_kwargs(case, slope)
        )
        assert not batch.dryout_per_lane[1]

    @pytest.mark.parametrize("case", list(MARCH_CASES), ids=list(MARCH_CASES))
    @pytest.mark.parametrize("slope", [0.0, 0.015], ids=["flat-tsat", "sloped-tsat"])
    def test_lanes_at_distinct_operating_points(self, model, case, slope):
        _, _, mass_flow, heat_scale = MARCH_CASES[case]
        flows = mass_flow * np.array([1.0, 1.0, 0.5, 0.5, 1.0, 1.7])
        t_sats = np.array([41.0, 41.0, 38.5, 38.5, 44.0, 41.0])
        _assert_equals_cell_loop(
            model,
            _lane_heats(6, 12, scale=heat_scale),
            flows,
            t_sats,
            **_march_kwargs(case, slope),
        )

    def test_the_subcooled_region_ends_mid_channel(self, model):
        """Guard: some lanes of the subcooled cases change region mid-channel."""
        for case in ("subcooled-inlet", "deep-subcooling"):
            _, _, mass_flow, heat_scale = MARCH_CASES[case]
            batch = model.solve_channels(
                _lane_heats(6, 24, scale=heat_scale),
                mass_flow,
                41.0,
                **_march_kwargs(case, 0.0),
            )
            boiling = batch.quality > 0.0
            assert (boiling[:, -1] & ~boiling[:, 0]).any()

    @pytest.mark.parametrize(
        "bad", [-1e-3, np.nan, np.inf, -np.inf], ids=["negative", "nan", "inf", "-inf"]
    )
    def test_rejects_negative_or_non_finite_heat(self, model, bad):
        heats = _lane_heats(4, 10)
        heats[2, 5] = bad
        with pytest.raises(ValidationError, match="heat_per_cell_w"):
            model.solve_channels(heats, 6e-5, 41.0, cell_base_area_m2=1e-6)

    def test_reduced_pressure_range_is_still_checked(self):
        """A row whose reduced pressure leaves the correlation's range raises."""
        refrigerant = replace(get_refrigerant("R236fa"), critical_pressure_kpa=500.0)
        model = EvaporatorModel(refrigerant)
        with pytest.raises(ValidationError, match="reduced pressure"):
            model.solve_channels(
                _lane_heats(2, 5), 6e-5, 75.0, cell_base_area_m2=1e-6
            )


def _power_map(shape: tuple[int, int], *, scale: float = 1.2) -> np.ndarray:
    """Deterministic non-uniform power map with a cold (zero-power) margin."""
    rng = np.random.default_rng(shape[0] * 13 + shape[1])
    power = scale * rng.random(shape)
    power[:, -max(shape[1] // 4, 1):] = 0.0  # dead area downstream, as on the die
    return power


class TestCoolingBoundaryEquivalence:
    PITCH = (1.5, 1.5)

    @pytest.mark.parametrize("orientation", list(Orientation), ids=[o.value for o in Orientation])
    @pytest.mark.parametrize("shape", [(10, 14), (1, 9), (8, 8)], ids=["10x14", "1x9", "8x8"])
    def test_matches_reference_across_orientations(self, orientation, shape):
        loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN.with_orientation(orientation))
        power = _power_map(shape)
        operating_point = loop.operating_point(float(power.sum()))
        reference = reference_cooling_boundary(loop, power, self.PITCH, operating_point)
        batched = loop.cooling_boundary(power, self.PITCH, operating_point)
        _assert_field_close(reference.boundary.htc_w_m2k, batched.boundary.htc_w_m2k)
        _assert_field_close(
            reference.boundary.fluid_temperature_c, batched.boundary.fluid_temperature_c
        )
        _assert_field_close(
            reference.outlet_quality_per_lane, batched.outlet_quality_per_lane
        )
        assert batched.max_quality == pytest.approx(reference.max_quality, rel=RTOL)
        assert batched.dryout == reference.dryout

    def test_matches_reference_with_vapor_preloaded_inlet(self):
        """Undercharged design: inlet quality > 0 skips the subcooled region."""
        design = PAPER_OPTIMIZED_DESIGN.with_filling_ratio(0.25)
        loop = ThermosyphonLoop(design)
        assert loop.filling_ratio_effects().inlet_quality > 0.0
        power = _power_map((9, 9))
        operating_point = loop.operating_point(float(power.sum()))
        reference = reference_cooling_boundary(loop, power, self.PITCH, operating_point)
        batched = loop.cooling_boundary(power, self.PITCH, operating_point)
        _assert_field_close(reference.boundary.htc_w_m2k, batched.boundary.htc_w_m2k)
        _assert_field_close(
            reference.boundary.fluid_temperature_c, batched.boundary.fluid_temperature_c
        )

    @pytest.mark.parametrize(
        "orientation",
        [Orientation.WEST_TO_EAST, Orientation.NORTH_TO_SOUTH],
        ids=["west-to-east", "north-to-south"],
    )
    def test_matches_reference_under_dryout_overload(self, orientation):
        loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN.with_orientation(orientation))
        power = _power_map((12, 12), scale=14.0)
        operating_point = loop.operating_point(float(power.sum()))
        reference = reference_cooling_boundary(loop, power, self.PITCH, operating_point)
        batched = loop.cooling_boundary(power, self.PITCH, operating_point)
        assert reference.dryout, "overload case must exercise the dryout branch"
        assert batched.dryout
        _assert_field_close(reference.boundary.htc_w_m2k, batched.boundary.htc_w_m2k)
        _assert_field_close(
            reference.boundary.fluid_temperature_c, batched.boundary.fluid_temperature_c
        )
        _assert_field_close(
            reference.outlet_quality_per_lane, batched.outlet_quality_per_lane
        )


class TestMultiPointCoolingBoundaries:
    """One call over servers at distinct operating points == single-point calls."""

    PITCH = (1.5, 1.5)
    SHAPE = (10, 14)
    #: (power scale, water inlet offset in degC) per server; the last
    #: server is overloaded into dryout.
    SERVERS = ((1.0, 0.0), (1.3, 0.0), (0.7, 3.0), (1.0, -2.0), (14.0, 1.0))

    def _servers(self, loop):
        nominal = loop.design.water_loop()
        maps, points = [], []
        for index, (scale, offset) in enumerate(self.SERVERS):
            rng = np.random.default_rng(100 + index)
            power = scale * rng.random(self.SHAPE)
            power[:, -3:] = 0.0
            water = nominal.with_inlet_temperature(nominal.inlet_temperature_c + offset)
            maps.append(power)
            points.append(loop.operating_point(float(power.sum()), water))
        return np.stack(maps), points

    def _assert_matches_single_point_calls(self, loop):
        maps, points = self._servers(loop)
        assert len({(p.total_heat_w, p.saturation_temperature_c) for p in points}) == len(
            points
        )
        results = loop.cooling_boundaries(maps, self.PITCH, points)
        assert len(results) == len(points)
        for power, point, ours in zip(maps, points, results):
            single = loop.cooling_boundary(power, self.PITCH, point)
            assert np.array_equal(ours.boundary.htc_w_m2k, single.boundary.htc_w_m2k)
            assert np.array_equal(
                ours.boundary.fluid_temperature_c, single.boundary.fluid_temperature_c
            )
            assert np.array_equal(
                ours.outlet_quality_per_lane, single.outlet_quality_per_lane
            )
            assert ours.max_quality == single.max_quality
            assert ours.dryout == single.dryout
        assert results[-1].dryout, "the overloaded server must dry out"
        assert not results[0].dryout

    @pytest.mark.parametrize("orientation", list(Orientation), ids=[o.value for o in Orientation])
    def test_every_orientation(self, orientation):
        self._assert_matches_single_point_calls(
            ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN.with_orientation(orientation))
        )

    @pytest.mark.parametrize("orientation", list(Orientation), ids=[o.value for o in Orientation])
    def test_vapor_preloaded_inlet(self, orientation):
        design = PAPER_OPTIMIZED_DESIGN.with_filling_ratio(0.25).with_orientation(orientation)
        loop = ThermosyphonLoop(design)
        assert loop.filling_ratio_effects().inlet_quality > 0.0
        self._assert_matches_single_point_calls(loop)

    def test_points_must_share_the_inlet_state(self):
        loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN)
        undercharged = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN.with_filling_ratio(0.25))
        maps, points = self._servers(loop)
        points[1] = undercharged.operating_point(points[1].total_heat_w)
        with pytest.raises(ValidationError, match="inlet state"):
            loop.cooling_boundaries(maps, self.PITCH, points)

    def test_needs_one_point_per_server(self):
        loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN)
        maps, points = self._servers(loop)
        with pytest.raises(ValidationError, match="one operating point per server"):
            loop.cooling_boundaries(maps, self.PITCH, points[:-1])


class TestCoolingBoundariesEqualTheCellLoop:
    """Tier A on whole stacks: the Xeon grid at the paper's cell sizes.

    Three servers at distinct operating points (one overloaded) march in
    one ``cooling_boundaries`` call, once with the running sums and once
    with the golden cell loop patched in; every field must agree bit for
    bit.
    """

    #: Power scale per server (the last one overloaded) and its water
    #: inlet offset in degC.
    SERVERS = ((0.6, 0.0), (1.0, 2.0), (5.0, -1.0))

    @pytest.mark.parametrize("orientation", list(Orientation), ids=[o.value for o in Orientation])
    @pytest.mark.parametrize("cell_size_mm", [2.0, 1.5, 1.0, 0.5])
    def test_stack_matches_cell_loop(self, floorplan, orientation, cell_size_mm, monkeypatch):
        simulator = ThermalSimulator(floorplan, cell_size_mm=cell_size_mm)
        pitch = simulator.grid.cell_pitch_mm()
        loop = ThermosyphonLoop(PAPER_OPTIMIZED_DESIGN.with_orientation(orientation))
        nominal = loop.design.water_loop()
        rng = np.random.default_rng(24)
        maps, points = [], []
        for scale, offset in self.SERVERS:
            component_power = {
                component.name: scale * (2.0 + 6.0 * rng.random())
                for component in floorplan.components
            }
            power = simulator.power_map(component_power)
            water = nominal.with_inlet_temperature(nominal.inlet_temperature_c + offset)
            maps.append(power)
            points.append(loop.operating_point(float(power.sum()), water))
        maps = np.stack(maps)

        ours = loop.cooling_boundaries(maps, pitch, points)
        monkeypatch.setattr(
            loop.evaporator,
            "solve_channels",
            partial(reference_solve_channels, loop.evaporator),
        )
        golden = loop.cooling_boundaries(maps, pitch, points)
        for a, b in zip(ours, golden):
            assert np.array_equal(a.boundary.htc_w_m2k, b.boundary.htc_w_m2k)
            assert np.array_equal(
                a.boundary.fluid_temperature_c, b.boundary.fluid_temperature_c
            )
            assert np.array_equal(a.outlet_quality_per_lane, b.outlet_quality_per_lane)
            assert a.max_quality == b.max_quality
            assert a.dryout == b.dryout
        assert ours[-1].dryout, "the overloaded server must dry out"
