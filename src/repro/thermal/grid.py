"""Floorplan-to-grid mapping (HotSpot grid-mode block interface).

A :class:`GridMapper` relates the rectangular units of one die floorplan
to the regular ``nrows x ncols`` thermal grid of that layer:

- **power injection**: a unit's power is spread uniformly over its area,
  so cell ``c`` receives ``P_u * overlap(u, c) / area(u)``;
- **temperature readback**: a unit's temperature is the area-weighted
  mean (or max) of the cells it overlaps.

Both directions reuse one dense overlap matrix; floorplans have tens of
units and grids have at most a few hundred cells, so dense is fastest.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.errors import ThermalModelError
from repro.floorplan.floorplan import Floorplan


class GridMapper:
    """Area-overlap mapping between one floorplan and its thermal grid.

    Parameters
    ----------
    floorplan:
        The die layout.
    nrows, ncols:
        Grid resolution. Cell (r, c) spans
        ``x in [c*dx, (c+1)*dx), y in [r*dy, (r+1)*dy)`` with row 0 at the
        bottom of the die (y = 0).
    """

    def __init__(self, floorplan: Floorplan, nrows: int, ncols: int) -> None:
        if nrows < 1 or ncols < 1:
            raise ThermalModelError(f"grid must be at least 1x1, got {nrows}x{ncols}")
        self.floorplan = floorplan
        self.nrows = nrows
        self.ncols = ncols
        self.dx = floorplan.width / ncols
        self.dy = floorplan.height / nrows
        self.unit_names: List[str] = floorplan.unit_names()
        self._unit_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.unit_names)
        }
        self._overlap = self._build_overlap()
        # Fraction of each unit inside each cell; rows sum to 1 because
        # floorplans tile the die.
        self._unit_areas = np.array([u.area for u in floorplan.units])
        self._power_weights = self._overlap / self._unit_areas[:, None]
        # Per-unit normalized temperature weights (identical to power
        # weights for exact tilings; kept separate for clarity).
        self._temp_weights = self._power_weights
        # Cells counted toward each unit's max-temperature readback,
        # precomputed so per-tick readback is pure NumPy.
        self._max_mask = self._overlap > 1e-3 * self.cell_area
        self._has_max_cells = self._max_mask.any(axis=1)
        # Flattened cell indices + segment offsets of the masked cells,
        # so the per-tick max readback is a single gather + reduceat
        # instead of materializing an (n_units x n_cells) where-matrix.
        unit_rows, cell_cols = np.nonzero(self._max_mask)
        self._max_cell_idx = cell_cols
        self._max_offsets = np.searchsorted(
            unit_rows, np.arange(len(self.unit_names))[self._has_max_cells]
        )
        self._max_scatter = np.nonzero(self._has_max_cells)[0]

    # ------------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        """Number of grid cells on this layer."""
        return self.nrows * self.ncols

    @property
    def cell_area(self) -> float:
        """Area of one grid cell in m²."""
        return self.dx * self.dy

    def cell_index(self, row: int, col: int) -> int:
        """Flat index of cell (row, col), row-major with row 0 at y=0."""
        if not (0 <= row < self.nrows and 0 <= col < self.ncols):
            raise ThermalModelError(f"cell ({row}, {col}) out of range")
        return row * self.ncols + col

    def _build_overlap(self) -> np.ndarray:
        overlap = np.zeros((len(self.unit_names), self.n_cells))
        for ui, unit in enumerate(self.floorplan.units):
            # Only iterate cells the unit's bounding box touches.
            c_lo = max(0, int(unit.x / self.dx))
            c_hi = min(self.ncols - 1, int((unit.x2 - 1e-15) / self.dx))
            r_lo = max(0, int(unit.y / self.dy))
            r_hi = min(self.nrows - 1, int((unit.y2 - 1e-15) / self.dy))
            for r in range(r_lo, r_hi + 1):
                y1, y2 = r * self.dy, (r + 1) * self.dy
                for c in range(c_lo, c_hi + 1):
                    x1, x2 = c * self.dx, (c + 1) * self.dx
                    area = unit.overlap_rect(x1, y1, x2, y2)
                    if area > 0.0:
                        overlap[ui, r * self.ncols + c] = area
        return overlap

    # ------------------------------------------------------------------
    # power injection

    def cell_powers(self, powers: Dict[str, float]) -> np.ndarray:
        """Distribute per-unit powers (W) onto grid cells.

        Unknown unit names raise; units omitted from the dict get 0 W.
        """
        vec = np.zeros(len(self.unit_names))
        for name, power in powers.items():
            try:
                vec[self._unit_index[name]] = power
            except KeyError:
                raise ThermalModelError(
                    f"unknown unit {name!r} on floorplan {self.floorplan.name!r}"
                ) from None
        return self.cell_powers_from_vector(vec)

    def cell_powers_from_vector(self, unit_power_vec: np.ndarray) -> np.ndarray:
        """Distribute a per-unit power vector (canonical order) onto cells."""
        if unit_power_vec.shape != (len(self.unit_names),):
            raise ThermalModelError(
                f"expected power vector of length {len(self.unit_names)}"
            )
        return self._overlap.T @ (unit_power_vec / self._unit_areas)

    @property
    def power_weights(self) -> np.ndarray:
        """The (n_units x n_cells) cell-weight rows, ``overlap / area``.

        ``cell_powers = power_weights.T @ unit_power_vec``; the thermal
        model stacks these blocks into its sparse node projection.
        """
        return self._power_weights

    # ------------------------------------------------------------------
    # temperature readback

    def _check_cells(self, cell_temps: np.ndarray) -> None:
        if cell_temps.shape != (self.n_cells,):
            raise ThermalModelError(
                f"expected {self.n_cells} cell temperatures, got {cell_temps.shape}"
            )

    def unit_temperature_vector(self, cell_temps: np.ndarray) -> np.ndarray:
        """Area-weighted mean per unit, in ``unit_names`` order."""
        self._check_cells(cell_temps)
        return self._temp_weights @ cell_temps

    def unit_max_vector(self, cell_temps: np.ndarray) -> np.ndarray:
        """Max overlapped-cell temperature per unit, ``unit_names`` order."""
        self._check_cells(cell_temps)
        out = np.full(len(self.unit_names), np.nan)
        if self._max_cell_idx.size:
            out[self._max_scatter] = np.maximum.reduceat(
                cell_temps[self._max_cell_idx], self._max_offsets
            )
        return out

    def max_readback_index(self):
        """``(cell_idx, segment_offsets, unit_idx)`` behind the max readback.

        ``maximum.reduceat(cell_temps[cell_idx], segment_offsets)``
        yields the per-unit max rows for the units listed in
        ``unit_idx`` (units overlapping no cell are absent). The thermal
        model stacks these per-die triples into its global readback
        index.
        """
        return self._max_cell_idx, self._max_offsets, self._max_scatter

    def unit_temperatures(self, cell_temps: np.ndarray) -> Dict[str, float]:
        """Area-weighted mean temperature of every unit."""
        means = self.unit_temperature_vector(cell_temps)
        return {name: float(means[i]) for name, i in self._unit_index.items()}

    def unit_max_temperatures(self, cell_temps: np.ndarray) -> Dict[str, float]:
        """Max cell temperature over each unit's overlapped cells."""
        maxes = self.unit_max_vector(cell_temps)
        return {name: float(maxes[i]) for name, i in self._unit_index.items()}
