"""Rectangular floorplan units.

All geometry is in meters, matching the library-wide SI convention
(see EXPERIMENTS.md, "Conventions").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import FloorplanError


class UnitKind(enum.Enum):
    """Functional classification of a floorplan block.

    The kind drives the per-area leakage density (cores leak more per mm²
    than SRAM arrays) and which metrics consider the unit (hot-spot and
    gradient statistics are computed over all units; scheduling only
    targets ``CORE`` units).
    """

    CORE = "core"
    CACHE = "cache"
    CROSSBAR = "crossbar"
    OTHER = "other"


@dataclass(frozen=True)
class Unit:
    """A rectangular block on a die layer.

    Parameters
    ----------
    name:
        Unique name within a floorplan, e.g. ``"core_0"``.
    x, y:
        Lower-left corner in meters from the die origin.
    width, height:
        Extent in meters. Must be strictly positive.
    kind:
        Functional classification (:class:`UnitKind`).
    """

    name: str
    x: float
    y: float
    width: float
    height: float
    kind: UnitKind = UnitKind.OTHER

    def __post_init__(self) -> None:
        if self.width <= 0.0 or self.height <= 0.0:
            raise FloorplanError(
                f"unit {self.name!r} has non-positive size "
                f"{self.width} x {self.height}"
            )
        if self.x < 0.0 or self.y < 0.0:
            raise FloorplanError(
                f"unit {self.name!r} has negative origin ({self.x}, {self.y})"
            )

    @property
    def area(self) -> float:
        """Block area in m²."""
        return self.width * self.height

    @property
    def x2(self) -> float:
        """Right edge in meters."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge in meters."""
        return self.y + self.height

    @property
    def center(self) -> tuple:
        """(x, y) of the block centroid in meters."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    def overlap_area(self, other: "Unit") -> float:
        """Area of the intersection with ``other`` in m² (0 if disjoint)."""
        dx = min(self.x2, other.x2) - max(self.x, other.x)
        dy = min(self.y2, other.y2) - max(self.y, other.y)
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return dx * dy

    def overlap_rect(self, x1: float, y1: float, x2: float, y2: float) -> float:
        """Area of intersection with an axis-aligned rectangle, in m²."""
        dx = min(self.x2, x2) - max(self.x, x1)
        dy = min(self.y2, y2) - max(self.y, y1)
        if dx <= 0.0 or dy <= 0.0:
            return 0.0
        return dx * dy

    def contains_point(self, px: float, py: float) -> bool:
        """True if (px, py) lies inside the block (closed lower edges)."""
        return self.x <= px < self.x2 and self.y <= py < self.y2
