"""Per-core temperature sensors.

The paper assumes each core has a thermal sensor read at every sampling
interval (§IV-D). Real sensors quantize and add noise; both effects are
modeled here and default to off so experiments stay deterministic unless
a study opts in (the sensor-noise ablation does).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.errors import ThermalModelError
from repro.thermal.model import ThermalModel


class TemperatureSensor:
    """One sensor: optional Gaussian noise and quantization.

    Parameters
    ----------
    noise_sigma:
        Standard deviation of additive Gaussian noise in kelvin (0 = ideal).
    quantization_step:
        Reading granularity in kelvin (0 = continuous). Typical on-die
        sensors quantize to ~1 C.
    rng:
        Seeded generator; required when ``noise_sigma > 0``.
    """

    def __init__(
        self,
        noise_sigma: float = 0.0,
        quantization_step: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if noise_sigma < 0.0:
            raise ThermalModelError("noise sigma must be non-negative")
        if quantization_step < 0.0:
            raise ThermalModelError("quantization step must be non-negative")
        if noise_sigma > 0.0 and rng is None:
            raise ThermalModelError("noisy sensors need a seeded rng")
        self.noise_sigma = noise_sigma
        self.quantization_step = quantization_step
        self._rng = rng

    def read(self, true_temperature_k: float) -> float:
        """One reading of the given true temperature (K)."""
        value = true_temperature_k
        if self.noise_sigma > 0.0:
            value += float(self._rng.normal(0.0, self.noise_sigma))
        if self.quantization_step > 0.0:
            value = round(value / self.quantization_step) * self.quantization_step
        return value


class SensorBank:
    """One sensor per core of a :class:`ThermalModel`."""

    def __init__(
        self,
        model: ThermalModel,
        noise_sigma: float = 0.0,
        quantization_step: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        rng = np.random.default_rng(seed) if noise_sigma > 0.0 else None
        self.model = model
        self.core_names: List[str] = model.core_names
        # One shared generator across all sensors.
        self._sensors = {
            name: TemperatureSensor(noise_sigma, quantization_step, rng)
            for name in self.core_names
        }
        unit_index = {name: i for i, name in enumerate(model.unit_names)}
        self._core_cols = np.fromiter(
            (unit_index[name] for name in self.core_names),
            dtype=np.intp,
            count=len(self.core_names),
        )
        self._ideal = noise_sigma == 0.0 and quantization_step == 0.0

    @property
    def ideal(self) -> bool:
        """Whether readings are the true temperatures (no noise or
        quantization) — lets batched callers fuse the gather."""
        return self._ideal

    def read_cores(
        self, max_vector: Optional[np.ndarray] = None
    ) -> Dict[str, float]:
        """Current sensor reading (K) for every core.

        Sensors are placed at each core's hottest location (standard
        practice — thermal sensors guard the known hot spot), so the
        reading is the max cell temperature over the core's area.

        ``max_vector`` lets the hot path pass a per-unit max readback it
        already computed this tick (must equal
        ``model.unit_max_vector()`` for the current state).
        """
        if max_vector is None:
            max_vector = self.model.unit_max_vector()
        true_temps = max_vector[self._core_cols]
        if self._ideal:
            return {
                name: float(temp)
                for name, temp in zip(self.core_names, true_temps)
            }
        return {
            name: self._sensors[name].read(float(temp))
            for name, temp in zip(self.core_names, true_temps)
        }

    def read_cores_vector(
        self, max_vector: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Current sensor readings (K) as a per-core array.

        Array twin of :meth:`read_cores` (same values, same RNG draw
        order for noisy sensors), consumed by the engine's
        structure-of-arrays tick path.
        """
        if max_vector is None:
            max_vector = self.model.unit_max_vector()
        true_temps = max_vector[self._core_cols]
        if self._ideal:
            return true_temps
        return np.array([
            self._sensors[name].read(float(temp))
            for name, temp in zip(self.core_names, true_temps)
        ])
