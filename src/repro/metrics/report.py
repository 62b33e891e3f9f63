"""One-call metric summary over a simulation result."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.metrics.cycles import (
    DEFAULT_CYCLE_THRESHOLD_K,
    DEFAULT_WINDOW_TICKS,
    thermal_cycle_fraction,
)
from repro.metrics.energy import average_power, total_energy
from repro.metrics.gradients import DEFAULT_GRADIENT_K, spatial_gradient_fraction
from repro.metrics.hotspots import DEFAULT_THRESHOLD_K, hot_spot_fraction
from repro.metrics.performance import mean_response_time, normalized_delay
from repro.sched.engine import SimulationResult


@dataclass(frozen=True)
class MetricsReport:
    """The paper's headline numbers for one run.

    Attributes
    ----------
    policy:
        Policy name.
    hot_spot_pct:
        % of (core, tick) samples above 85 C (Figures 3/4).
    gradient_pct:
        % of ticks with a per-layer spatial gradient above 15 C (Fig 5).
    cycle_pct:
        % of sliding windows with core-averaged ΔT above 20 C (Fig 6);
        ``None`` when the run is shorter than one window.
    mean_response_s:
        Mean job response time; ``None`` when no job completed.
    normalized_delay:
        Response time normalized to the baseline run (1.0 = Default);
        ``None`` without a baseline, or when either run completed no
        job.
    energy_j, avg_power_w:
        Chip energy/power over the run.
    peak_temperature_c:
        Hottest core sample in Celsius.
    """

    policy: str
    hot_spot_pct: float
    gradient_pct: float
    cycle_pct: Optional[float]
    mean_response_s: Optional[float]
    normalized_delay: Optional[float]
    energy_j: float
    avg_power_w: float
    peak_temperature_c: float


def summarize(
    result: SimulationResult,
    baseline: Optional[SimulationResult] = None,
    hot_threshold_k: float = DEFAULT_THRESHOLD_K,
    gradient_threshold_k: float = DEFAULT_GRADIENT_K,
    cycle_threshold_k: float = DEFAULT_CYCLE_THRESHOLD_K,
    cycle_window_ticks: int = DEFAULT_WINDOW_TICKS,
) -> MetricsReport:
    """Compute the full metric set for one simulation run.

    A metric the run cannot define is ``None`` (see
    :class:`MetricsReport`), so a short or idle run still summarizes.
    """
    completed = result.jobs.finished().any()
    delay = None
    if (baseline is not None and completed
            and baseline.jobs.finished().any()):
        delay = normalized_delay(result.jobs, baseline.jobs)
    cycles = None
    if result.n_ticks >= cycle_window_ticks:
        cycles = 100.0 * thermal_cycle_fraction(
            result.core_peak_temps_k, cycle_threshold_k, cycle_window_ticks
        )
    return MetricsReport(
        policy=result.policy_name,
        hot_spot_pct=100.0
        * hot_spot_fraction(result.core_peak_temps_k, hot_threshold_k),
        gradient_pct=100.0
        * spatial_gradient_fraction(result.layer_spreads_k, gradient_threshold_k),
        cycle_pct=cycles,
        mean_response_s=mean_response_time(result.jobs) if completed else None,
        normalized_delay=delay,
        energy_j=result.energy_j,
        avg_power_w=average_power(result.total_power_w),
        peak_temperature_c=float(result.core_peak_temps_k.max()) - 273.15,
    )
