"""Floorplan container with validation and core-topology queries."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.exceptions import FloorplanError
from repro.floorplan.component import Component
from repro.utils.geometry import Rect


class Floorplan:
    """A validated set of non-overlapping components on a die outline.

    The floorplan also records the package / heat-spreader outline, which is
    the surface the thermosyphon evaporator covers, and the offset of the die
    inside that outline.  Thermal grids are built over the spreader outline;
    the die power map is injected in the cells the die covers.
    """

    def __init__(
        self,
        name: str,
        die_outline: Rect,
        components: Iterable[Component],
        *,
        spreader_outline: Rect | None = None,
    ) -> None:
        self.name = name
        self.die_outline = die_outline
        self.components: tuple[Component, ...] = tuple(components)
        if spreader_outline is None:
            spreader_outline = die_outline
        self.spreader_outline = spreader_outline
        self._by_name = {component.name: component for component in self.components}
        self._validate()
        # The components are frozen, so the core topology is computed once.
        #: All core components sorted by ``core_index``.
        self.cores: tuple[Component, ...] = tuple(
            sorted(
                (c for c in self.components if c.is_core), key=lambda c: c.core_index
            )
        )
        self._core_by_index = {core.core_index: core for core in self.cores}
        self._core_rows = self._core_bands(axis=1)
        self._core_columns = self._core_bands(axis=0)

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def _validate(self) -> None:
        if len(self._by_name) != len(self.components):
            names = [component.name for component in self.components]
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise FloorplanError(f"duplicate component names: {duplicates}")

        tolerance = 1e-6
        for component in self.components:
            rect = component.rect
            outside = (
                rect.x < self.die_outline.x - tolerance
                or rect.y < self.die_outline.y - tolerance
                or rect.x2 > self.die_outline.x2 + tolerance
                or rect.y2 > self.die_outline.y2 + tolerance
            )
            if outside:
                raise FloorplanError(
                    f"component {component.name!r} extends outside the die outline"
                )

        die = self.die_outline
        spreader = self.spreader_outline
        if (
            die.x < spreader.x - tolerance
            or die.y < spreader.y - tolerance
            or die.x2 > spreader.x2 + tolerance
            or die.y2 > spreader.y2 + tolerance
        ):
            raise FloorplanError("die outline must lie within the spreader outline")

        components = self.components
        for i, first in enumerate(components):
            for second in components[i + 1 :]:
                # A tolerance absorbs floating-point slivers created when a
                # floorplan is translated to centre the die on the spreader.
                if first.rect.overlap_area(second.rect) > 1e-6:
                    raise FloorplanError(
                        f"components {first.name!r} and {second.name!r} overlap"
                    )

        core_indices = [c.core_index for c in self.components if c.is_core]
        if len(set(core_indices)) != len(core_indices) or None in core_indices:
            raise FloorplanError("every core must carry a unique, non-None core_index")

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def component(self, name: str) -> Component:
        """Return the component called ``name`` or raise ``FloorplanError``."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise FloorplanError(f"no component named {name!r} in floorplan {self.name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self.components)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def n_cores(self) -> int:
        """Number of schedulable cores."""
        return len(self.cores)

    def core(self, core_index: int) -> Component:
        """Return the core with logical index ``core_index``."""
        try:
            return self._core_by_index[core_index]
        except KeyError:
            raise FloorplanError(f"no core with index {core_index}") from None

    @property
    def die_area_mm2(self) -> float:
        """Die area in square millimetres."""
        return self.die_outline.area

    # ------------------------------------------------------------------ #
    # Core topology queries used by the mapping policies
    # ------------------------------------------------------------------ #
    def core_rows(self) -> tuple[tuple[int, ...], ...]:
        """Cores grouped by physical row (south to north).

        Two cores belong to the same row when their centres lie within half
        a core height of each other vertically — i.e. they sit over the same
        group of east-west micro-channels.  For the Xeon E5 v4 floorplan
        this yields four rows of two cores (one from each core column).
        """
        return self._core_rows

    def core_row_of(self, core_index: int) -> int:
        """Physical row index (0 = southernmost) of a core; see :meth:`core_rows`."""
        for row_index, row in enumerate(self.core_rows()):
            if core_index in row:
                return row_index
        raise FloorplanError(f"no core with index {core_index}")

    def core_columns(self) -> tuple[tuple[int, ...], ...]:
        """Cores grouped by physical column (west to east)."""
        return self._core_columns

    def _core_bands(self, axis: int) -> tuple[tuple[int, ...], ...]:
        """Cores grouped by centre position along ``axis`` (0 = x, 1 = y).

        Cores are visited in ascending centre position; each joins the first
        band whose founding centre lies within half the smallest core extent
        along ``axis``, or founds a new band.
        """
        if not self.cores:
            return ()
        tolerance = (
            min((core.rect.width, core.rect.height)[axis] for core in self.cores) / 2.0
        )
        bands: list[list[int]] = []
        band_centres: list[float] = []
        for core in sorted(self.cores, key=lambda c: c.rect.center[axis]):
            position = core.rect.center[axis]
            for band, centre in zip(bands, band_centres):
                if abs(position - centre) <= tolerance:
                    band.append(core.core_index)
                    break
            else:
                bands.append([core.core_index])
                band_centres.append(position)
        return tuple(tuple(sorted(band)) for band in bands)

    def core_column_of(self, core_index: int) -> int:
        """Physical column index (0 = westernmost) of a core."""
        for column_index, column in enumerate(self.core_columns()):
            if core_index in column:
                return column_index
        raise FloorplanError(f"no core with index {core_index}")

    def corner_cores(self) -> tuple[int, ...]:
        """Logical indices of the cores nearest the four die corners.

        Conventional thermal balancing (the paper's scenario #2) starts
        loading the CPU from the corners because corner cores have the most
        lateral silicon to spread heat into.
        """
        die = self.die_outline
        corners = (
            (die.x, die.y),
            (die.x2, die.y),
            (die.x, die.y2),
            (die.x2, die.y2),
        )
        chosen: list[int] = []
        for corner_x, corner_y in corners:
            best: Component | None = None
            best_distance = float("inf")
            for core in self.cores:
                if core.core_index in chosen:
                    continue
                cx, cy = core.rect.center
                distance = ((cx - corner_x) ** 2 + (cy - corner_y) ** 2) ** 0.5
                if distance < best_distance:
                    best = core
                    best_distance = distance
            if best is not None:
                chosen.append(best.core_index)
        return tuple(chosen)

    def cores_sorted_by_distance_to(self, point_x: float, point_y: float) -> tuple[int, ...]:
        """Core indices ordered by distance of their centre to a point.

        Used by the inlet-first baseline mapping ([7]): cores closest to the
        coolant inlet are loaded first.
        """
        def distance(core: Component) -> float:
            cx, cy = core.rect.center
            return ((cx - point_x) ** 2 + (cy - point_y) ** 2) ** 0.5

        ordered = sorted(self.cores, key=distance)
        return tuple(core.core_index for core in ordered)

    def neighbouring_cores(self, core_index: int, radius_mm: float) -> tuple[int, ...]:
        """Cores whose centres lie within ``radius_mm`` of the given core."""
        reference = self.core(core_index)
        neighbours = [
            c.core_index
            for c in self.cores
            if c.core_index != core_index and reference.rect.distance_to(c.rect) <= radius_mm
        ]
        return tuple(sorted(neighbours))

    # ------------------------------------------------------------------ #
    # Summaries
    # ------------------------------------------------------------------ #
    def summary(self) -> str:
        """Human-readable one-line-per-component description."""
        lines = [f"Floorplan {self.name!r}: die {self.die_outline.width:.1f} x "
                 f"{self.die_outline.height:.1f} mm ({self.die_area_mm2:.0f} mm^2), "
                 f"{self.n_cores} cores"]
        for component in self.components:
            lines.append(f"  - {component}")
        return "\n".join(lines)

    def component_areas(self) -> dict[str, float]:
        """Mapping of component name to area in mm^2."""
        return {component.name: component.area_mm2 for component in self.components}
