"""Observability layer: per-job statistics, trace recorder, tick
profiler, and campaign resilience counters.

Everything here is strictly observational — enabling telemetry must
never change a scheduling, power, or thermal outcome (the differential
harnesses assert eager runs stay bit-identical with telemetry on).
See docs/OBSERVABILITY.md for the contracts and overhead numbers.
"""

from repro.obs.profiler import (
    NULL_PROFILER,
    PHASES,
    TickProfiler,
    merge_phase_summaries,
)
from repro.obs.resilience import ResilienceStats
from repro.obs.stats import JobStatsCollector
from repro.obs.telemetry import (
    EngineTelemetry,
    NULL_TELEMETRY,
    TelemetryConfig,
)
from repro.obs.trace import EVENT_NAMES, NULL_TRACE, TraceRecorder

__all__ = [
    "NULL_PROFILER",
    "PHASES",
    "ResilienceStats",
    "TickProfiler",
    "merge_phase_summaries",
    "JobStatsCollector",
    "EngineTelemetry",
    "NULL_TELEMETRY",
    "TelemetryConfig",
    "EVENT_NAMES",
    "NULL_TRACE",
    "TraceRecorder",
]
