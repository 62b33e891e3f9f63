"""Offline thermal-index computation (§III-B).

The thermal index alpha_i in (0, 1) distinguishes core locations: higher
means more hot-spot prone. The paper sets the indices offline from the
steady-state temperature of the cores under typical workloads — which
implicitly encodes both the in-layer position (center vs corner) and
the layer's distance from the heat sink — after finding runtime
estimation gave very similar results.

``compute_thermal_indices`` runs that analysis: a uniform nominal load
on every core, steady-state solve, then min-max normalization of the
core temperatures into ``[alpha_min, alpha_max]``.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import PolicyError
from repro.power.chip_power import ChipPowerModel
from repro.power.vf import DEFAULT_VF_TABLE
from repro.thermal.model import ThermalModel

ALPHA_MIN = 0.15
ALPHA_MAX = 0.85
# Utilization of the characterization load on every core.
CHARACTERIZATION_UTIL = 0.7


def compute_thermal_indices(
    thermal: ThermalModel,
    power: ChipPowerModel,
    alpha_min: float = ALPHA_MIN,
    alpha_max: float = ALPHA_MAX,
) -> Dict[str, float]:
    """Steady-state-derived thermal index per core.

    Parameters
    ----------
    thermal:
        The 3D thermal model of the system.
    power:
        The chip power model (supplies realistic leakage and shared-unit
        power under the characterization load).
    alpha_min, alpha_max:
        Normalization range; must satisfy 0 < alpha_min <= alpha_max < 1.
    """
    if not 0.0 < alpha_min <= alpha_max < 1.0:
        raise PolicyError(
            f"alpha range must satisfy 0 < min <= max < 1, "
            f"got [{alpha_min}, {alpha_max}]"
        )
    # Leakage at ambient for the characterization solve; the ranking is
    # insensitive to the leakage operating point.
    steady = thermal.steady_state(
        power.uniform_load(
            CHARACTERIZATION_UTIL,
            DEFAULT_VF_TABLE[0],
            memory_intensity=0.5,
            temperature_k=thermal.ambient_k,
        )
    )

    core_temps = {core: steady[core] for core in power.core_names}
    t_min = min(core_temps.values())
    t_max = max(core_temps.values())
    if t_max - t_min < 1e-9:
        mid = 0.5 * (alpha_min + alpha_max)
        return {core: mid for core in core_temps}
    span = alpha_max - alpha_min
    return {
        core: alpha_min + span * (temp - t_min) / (t_max - t_min)
        for core, temp in core_temps.items()
    }
