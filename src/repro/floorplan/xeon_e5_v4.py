"""Intel Xeon E5 v4 (Broadwell-EP, 8 active cores) die floorplan.

The layout follows the die shot described in the paper (Fig. 2c): two columns
of cores flank a central last-level cache, the memory controller runs along
the south edge, the queue / uncore / IO strip runs along the north edge, one
reserved core slot sits at the bottom of each core column (the die is
fabricated as a deca-core part with two cores fused off), and a dead area
with no power dissipation occupies the east side of the die.

All dimensions are in millimetres.  The die area matches the 246 mm^2 quoted
in the paper; individual block sizes are estimates consistent with published
Broadwell-EP die shots and only need to be *relatively* correct for the
thermal and mapping studies.
"""

from __future__ import annotations

from repro.floorplan.component import Component, ComponentKind
from repro.floorplan.floorplan import Floorplan
from repro.utils.geometry import Rect

#: Die width (east-west extent) in millimetres.
XEON_E5_V4_DIE_WIDTH_MM = 18.0

#: Die height (north-south extent) in millimetres.
XEON_E5_V4_DIE_HEIGHT_MM = 13.7

#: Heat-spreader (integrated heat spreader, IHS) side length in millimetres.
#: The thermosyphon evaporator covers this square area.
XEON_E5_V4_SPREADER_SIZE_MM = 38.0

# Internal layout constants (millimetres).
_UNCORE_STRIP_HEIGHT = 1.7
_MEMCTL_STRIP_HEIGHT = 1.5
_CORE_COLUMN_WIDTH = 4.6
_CORE_SLOT_HEIGHT = 2.1
_LLC_WIDTH = 6.2
_WEST_COLUMN_X = 0.0
_LLC_X = _WEST_COLUMN_X + _CORE_COLUMN_WIDTH
_EAST_COLUMN_X = _LLC_X + _LLC_WIDTH
_DEAD_X = _EAST_COLUMN_X + _CORE_COLUMN_WIDTH
_CORE_BAND_Y = _MEMCTL_STRIP_HEIGHT
_CORE_BAND_HEIGHT = XEON_E5_V4_DIE_HEIGHT_MM - _UNCORE_STRIP_HEIGHT - _MEMCTL_STRIP_HEIGHT


def _core_slot_rect(column_x: float, slot: int) -> Rect:
    """Rectangle of the ``slot``-th core slot (0 = north) in a core column."""
    top_y = _CORE_BAND_Y + _CORE_BAND_HEIGHT
    y = top_y - (slot + 1) * _CORE_SLOT_HEIGHT
    return Rect(column_x, y, _CORE_COLUMN_WIDTH, _CORE_SLOT_HEIGHT)


def build_xeon_e5_v4_floorplan(*, spreader_size_mm: float = XEON_E5_V4_SPREADER_SIZE_MM) -> Floorplan:
    """Build the 8-core Broadwell-EP floorplan used throughout the paper.

    Core numbering (logical index / name) follows the paper's figure:
    cores 0-3 ("core0".."core3", the paper's Core1..Core4) occupy the west
    column from north to south, and cores 4-7 (Core5..Core8) occupy the east
    column from north to south.  Cores ``i`` and ``i + 4`` therefore share a
    horizontal micro-channel row.

    Parameters
    ----------
    spreader_size_mm:
        Side length of the square heat spreader.  The die is centred on it.
    """
    die = Rect(0.0, 0.0, XEON_E5_V4_DIE_WIDTH_MM, XEON_E5_V4_DIE_HEIGHT_MM)

    components: list[Component] = []

    # North strip: queue, uncore and IO controllers.
    components.append(
        Component(
            name="uncore_io",
            kind=ComponentKind.UNCORE_IO,
            rect=Rect(
                0.0,
                XEON_E5_V4_DIE_HEIGHT_MM - _UNCORE_STRIP_HEIGHT,
                XEON_E5_V4_DIE_WIDTH_MM,
                _UNCORE_STRIP_HEIGHT,
            ),
        )
    )

    # South strip: memory controller.
    components.append(
        Component(
            name="memory_controller",
            kind=ComponentKind.MEMORY_CONTROLLER,
            rect=Rect(0.0, 0.0, XEON_E5_V4_DIE_WIDTH_MM, _MEMCTL_STRIP_HEIGHT),
        )
    )

    # West core column: core0..core3 from north to south, reserved slot last.
    for slot in range(4):
        components.append(
            Component(
                name=f"core{slot}",
                kind=ComponentKind.CORE,
                rect=_core_slot_rect(_WEST_COLUMN_X, slot),
                core_index=slot,
            )
        )
    components.append(
        Component(
            name="reserved_west",
            kind=ComponentKind.RESERVED,
            rect=_core_slot_rect(_WEST_COLUMN_X, 4),
        )
    )

    # Central last-level cache.
    components.append(
        Component(
            name="llc",
            kind=ComponentKind.LLC,
            rect=Rect(_LLC_X, _CORE_BAND_Y, _LLC_WIDTH, _CORE_BAND_HEIGHT),
        )
    )

    # East core column: core4..core7 from north to south, reserved slot last.
    for slot in range(4):
        components.append(
            Component(
                name=f"core{slot + 4}",
                kind=ComponentKind.CORE,
                rect=_core_slot_rect(_EAST_COLUMN_X, slot),
                core_index=slot + 4,
            )
        )
    components.append(
        Component(
            name="reserved_east",
            kind=ComponentKind.RESERVED,
            rect=_core_slot_rect(_EAST_COLUMN_X, 4),
        )
    )

    # Dead area on the east edge of the die (no power).
    components.append(
        Component(
            name="dead_east",
            kind=ComponentKind.DEAD,
            rect=Rect(
                _DEAD_X,
                _CORE_BAND_Y,
                XEON_E5_V4_DIE_WIDTH_MM - _DEAD_X,
                _CORE_BAND_HEIGHT,
            ),
        )
    )

    # Centre the die on the square heat spreader.
    offset_x = (spreader_size_mm - XEON_E5_V4_DIE_WIDTH_MM) / 2.0
    offset_y = (spreader_size_mm - XEON_E5_V4_DIE_HEIGHT_MM) / 2.0
    shifted_components = [
        Component(
            name=component.name,
            kind=component.kind,
            rect=component.rect.translated(offset_x, offset_y),
            core_index=component.core_index,
        )
        for component in components
    ]
    shifted_die = die.translated(offset_x, offset_y)
    spreader = Rect(0.0, 0.0, spreader_size_mm, spreader_size_mm)

    return Floorplan(
        name="xeon_e5_v4_broadwell_ep_8c",
        die_outline=shifted_die,
        components=shifted_components,
        spreader_outline=spreader,
    )
