"""Temperature- and voltage-dependent leakage power.

The paper assumes a base leakage density of 0.5 W/mm² at 383 K (Bose,
PACS'03) and applies the second-order polynomial temperature model of
Su et al. (ISLPED'03), with coefficients fitted empirically to match the
normalized leakage values in that work. Leakage also scales with supply
voltage; over the paper's narrow 0.85-1.0 V/f range a quadratic factor
is an adequate fit.

Different structural areas leak differently — SRAM arrays are heavily
optimized for leakage compared to logic — so the model carries one
density per :class:`~repro.floorplan.unit.UnitKind`.

The polynomial is clamped below by a small positive floor (leakage never
vanishes) and above by a ceiling. Below the ceiling, the superlinear
growth at high temperature is the temperature-leakage feedback loop the
paper warns about, and the thermal solver sees it; the ceiling bounds a
runaway feedback loop, so such a configuration settles at a
catastrophic-but-finite operating point instead of diverging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.errors import PowerModelError
from repro.floorplan.unit import UnitKind

# Reference point from the paper: 0.5 W/mm^2 at 383 K for core logic.
REFERENCE_TEMPERATURE_K = 383.0
CORE_LEAKAGE_DENSITY_W_PER_MM2 = 0.5

# Per-kind base densities at 383 K, W/mm^2. The paper's 0.5 W/mm² figure
# is for processing-core logic; SRAM arrays use low-leakage cells and
# leak roughly an order of magnitude less per area, crossbar/misc logic
# sits in between.
DEFAULT_DENSITIES: Dict[UnitKind, float] = {
    UnitKind.CORE: CORE_LEAKAGE_DENSITY_W_PER_MM2,
    UnitKind.CACHE: 0.05,
    UnitKind.CROSSBAR: 0.10,
    UnitKind.OTHER: 0.05,
}


@dataclass(frozen=True)
class LeakageModel:
    """Second-order polynomial leakage model.

    ``P_leak(T, V, area) = density(kind) * area * poly(T) * (V/V0)²`` with
    ``poly(T) = 1 + k1·(T − 383) + k2·(T − 383)²``, ``poly(383 K) = 1``.

    The default coefficients reproduce the normalized curve of Su et al.:
    leakage at 45 C is ~0.37x the 110 C value and roughly doubles per
    ~45 K in the operating range.

    Attributes
    ----------
    k1, k2:
        Polynomial coefficients (1/K and 1/K²).
    densities:
        Base leakage density per unit kind at 383 K, W/mm².
    floor:
        Lower clamp on the polynomial (leakage never goes negative).
    ceiling:
        Upper clamp on the polynomial. Physically, subthreshold leakage
        saturates once the device self-limits; numerically, the clamp
        bounds the temperature-leakage feedback loop so a runaway
        configuration settles at a catastrophic-but-finite operating
        point instead of diverging (real parts would have tripped their
        thermal shutdown long before).
    """

    k1: float = 0.010
    k2: float = 2.0e-5
    densities: Dict[UnitKind, float] = field(
        default_factory=lambda: dict(DEFAULT_DENSITIES)
    )
    floor: float = 0.05
    ceiling: float = 1.3

    def normalized(self, temperature_k: float) -> float:
        """Polynomial factor, 1.0 at the 383 K reference point."""
        dt = temperature_k - REFERENCE_TEMPERATURE_K
        value = 1.0 + self.k1 * dt + self.k2 * dt * dt
        return min(max(value, self.floor), self.ceiling)

    def normalized_array(self, temperatures_k: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`normalized` — identical per-element results
        (same operation order and clamping as the scalar path)."""
        dt = temperatures_k - REFERENCE_TEMPERATURE_K
        value = 1.0 + self.k1 * dt + self.k2 * dt * dt
        return np.minimum(np.maximum(value, self.floor), self.ceiling)

    def power(
        self,
        kind: UnitKind,
        area_m2: float,
        temperature_k: float,
        relative_voltage: float = 1.0,
    ) -> float:
        """Leakage power (W) of one unit at the given temperature/voltage."""
        if area_m2 <= 0.0:
            raise PowerModelError(f"unit area must be positive, got {area_m2}")
        if not 0.0 < relative_voltage <= 1.0:
            raise PowerModelError(
                f"relative voltage must be in (0,1], got {relative_voltage}"
            )
        try:
            density = self.densities[kind]
        except KeyError:
            raise PowerModelError(f"no leakage density for unit kind {kind}") from None
        area_mm2 = area_m2 * 1e6
        v_scale = relative_voltage * relative_voltage
        return density * area_mm2 * self.normalized(temperature_k) * v_scale


DEFAULT_LEAKAGE = LeakageModel()
