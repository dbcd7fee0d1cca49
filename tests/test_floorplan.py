"""Floorplan container and Xeon E5 v4 floorplan tests."""

import pytest

from repro.exceptions import FloorplanError
from repro.floorplan.component import Component, ComponentKind
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.xeon_e5_v4 import (
    XEON_E5_V4_DIE_HEIGHT_MM,
    XEON_E5_V4_DIE_WIDTH_MM,
    build_xeon_e5_v4_floorplan,
)
from repro.utils.geometry import Rect


def _simple_floorplan():
    die = Rect(0.0, 0.0, 10.0, 10.0)
    return Floorplan(
        "simple",
        die,
        [
            Component("core0", ComponentKind.CORE, Rect(0.0, 0.0, 4.0, 4.0), core_index=0),
            Component("core1", ComponentKind.CORE, Rect(6.0, 0.0, 4.0, 4.0), core_index=1),
            Component("llc", ComponentKind.LLC, Rect(0.0, 5.0, 10.0, 5.0)),
        ],
    )


class TestFloorplanValidation:
    def test_valid_floorplan_builds(self):
        floorplan = _simple_floorplan()
        assert len(floorplan) == 3
        assert floorplan.n_cores == 2

    def test_duplicate_names_rejected(self):
        die = Rect(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(FloorplanError, match="duplicate"):
            Floorplan(
                "bad",
                die,
                [
                    Component("core0", ComponentKind.CORE, Rect(0.0, 0.0, 2.0, 2.0), core_index=0),
                    Component("core0", ComponentKind.CORE, Rect(4.0, 4.0, 2.0, 2.0), core_index=1),
                ],
            )

    def test_out_of_bounds_component_rejected(self):
        die = Rect(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(FloorplanError, match="outside"):
            Floorplan(
                "bad",
                die,
                [Component("core0", ComponentKind.CORE, Rect(8.0, 8.0, 4.0, 4.0), core_index=0)],
            )

    def test_overlapping_components_rejected(self):
        die = Rect(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(FloorplanError, match="overlap"):
            Floorplan(
                "bad",
                die,
                [
                    Component("a", ComponentKind.CORE, Rect(0.0, 0.0, 5.0, 5.0), core_index=0),
                    Component("b", ComponentKind.CORE, Rect(4.0, 4.0, 5.0, 5.0), core_index=1),
                ],
            )

    def test_duplicate_core_indices_rejected(self):
        die = Rect(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(FloorplanError):
            Floorplan(
                "bad",
                die,
                [
                    Component("a", ComponentKind.CORE, Rect(0.0, 0.0, 2.0, 2.0), core_index=0),
                    Component("b", ComponentKind.CORE, Rect(4.0, 4.0, 2.0, 2.0), core_index=0),
                ],
            )

    def test_core_without_index_rejected(self):
        die = Rect(0.0, 0.0, 10.0, 10.0)
        with pytest.raises(FloorplanError, match="core_index"):
            Floorplan(
                "bad",
                die,
                [
                    Component("a", ComponentKind.CORE, Rect(0.0, 0.0, 2.0, 2.0), core_index=0),
                    Component("b", ComponentKind.CORE, Rect(4.0, 4.0, 2.0, 2.0)),
                ],
            )

    def test_lookup_unknown_component(self):
        with pytest.raises(FloorplanError):
            _simple_floorplan().component("nonexistent")

    def test_contains_and_iteration(self):
        floorplan = _simple_floorplan()
        assert "llc" in floorplan
        assert "dram" not in floorplan
        assert {component.name for component in floorplan} == {"core0", "core1", "llc"}


class TestXeonFloorplan:
    def test_core_count_and_area(self, floorplan):
        assert floorplan.n_cores == 8
        assert floorplan.die_area_mm2 == pytest.approx(
            XEON_E5_V4_DIE_WIDTH_MM * XEON_E5_V4_DIE_HEIGHT_MM
        )
        # The paper quotes a 246 mm^2 die.
        assert 240.0 <= floorplan.die_area_mm2 <= 252.0

    def test_die_centred_on_spreader(self, floorplan):
        die = floorplan.die_outline
        spreader = floorplan.spreader_outline
        assert die.center[0] == pytest.approx(spreader.center[0])
        assert die.center[1] == pytest.approx(spreader.center[1])

    def test_has_expected_components(self, floorplan):
        for name in ("llc", "memory_controller", "uncore_io", "dead_east",
                     "reserved_west", "reserved_east"):
            assert name in floorplan
        for index in range(8):
            assert f"core{index}" in floorplan

    def test_core_rows_pair_west_and_east_columns(self, floorplan):
        rows = floorplan.core_rows()
        assert len(rows) == 4
        for row in rows:
            assert len(row) == 2
            west, east = row
            # Cores i and i+4 share a row by construction.
            assert east == west + 4

    def test_core_columns(self, floorplan):
        columns = floorplan.core_columns()
        assert len(columns) == 2
        assert columns[0] == (0, 1, 2, 3)
        assert columns[1] == (4, 5, 6, 7)

    def test_core_row_of_consistency(self, floorplan):
        for core in floorplan.cores:
            row = floorplan.core_row_of(core.core_index)
            assert core.core_index in floorplan.core_rows()[row]

    def test_corner_cores_are_extreme_rows(self, floorplan):
        corners = floorplan.corner_cores()
        assert len(corners) == 4
        rows = {floorplan.core_row_of(core) for core in corners}
        # Corner cores must come from the northernmost and southernmost rows.
        assert rows == {0, 3}

    def test_cores_sorted_by_distance_to_west_edge(self, floorplan):
        outline = floorplan.spreader_outline
        ordered = floorplan.cores_sorted_by_distance_to(outline.x, outline.center[1])
        # The first four must all be in the western column.
        assert set(ordered[:4]) == {0, 1, 2, 3}

    def test_dead_area_dissipates_no_power(self, floorplan):
        dead = floorplan.component("dead_east")
        assert not dead.kind.dissipates_power

    def test_summary_mentions_every_component(self, floorplan):
        summary = floorplan.summary()
        for component in floorplan:
            assert component.name in summary

    def test_component_areas_positive(self, floorplan):
        for name, area in floorplan.component_areas().items():
            assert area > 0.0, name

    def test_unknown_core_index(self, floorplan):
        with pytest.raises(FloorplanError):
            floorplan.core(42)

    def test_neighbouring_cores_symmetry(self, floorplan):
        neighbours_of_0 = floorplan.neighbouring_cores(0, radius_mm=3.0)
        for other in neighbours_of_0:
            assert 0 in floorplan.neighbouring_cores(other, radius_mm=3.0)
