"""Per-job lifecycle statistics collected from engine hooks.

:class:`~repro.obs.telemetry.EngineTelemetry` updates the collector's
fields in place at four lifecycle moments per job, plus migrations:

- arrival — the job became runnable;
- dispatch — the job was placed on a core's queue (first placement
  defines *dispatch latency*: arrival -> queue);
- start — the job reached the head of a run queue for the first time
  (arrival -> head defines *queue wait*; with single-slot cores the
  head job is the one executing);
- completion — response-time sample (arrival -> completion).

Samples are exact (raw lists, not histograms) because jobs-per-run is
thousands, not billions; summaries reuse the percentile helpers in
``repro.metrics.performance`` so CLI reports and telemetry agree on
every number.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

__all__ = ["JobStatsCollector"]


class JobStatsCollector:
    """Accumulates job lifecycle samples and lifecycle counts."""

    __slots__ = (
        "arrivals", "dispatches", "completions", "migrations",
        "preemptions", "dispatch_latencies", "queue_waits", "responses",
        "dispatched_ids", "started_ids",
    )

    def __init__(self) -> None:
        self.arrivals = 0
        self.dispatches = 0
        self.completions = 0
        self.migrations = 0
        self.preemptions = 0
        self.dispatch_latencies: List[float] = []
        self.queue_waits: List[float] = []
        self.responses: List[float] = []
        # Public on purpose: EngineTelemetry's hooks update the
        # collector's fields directly (one method call per event adds
        # up against the 10% overhead gate).
        self.dispatched_ids: Set[int] = set()
        self.started_ids: Set[int] = set()

    def on_migration(self, preempt: bool) -> None:
        self.migrations += 1
        if preempt:
            self.preemptions += 1

    def summary(
        self,
        core_names: Sequence[str] = (),
        core_occupancy: Optional[Sequence[float]] = None,
    ) -> Dict[str, object]:
        """JSON-ready job statistics.

        ``core_occupancy`` is the mean per-core utilization over the
        run (one float per core, engine-recorded); pairing it with the
        core names here keeps the telemetry snapshot self-describing.
        """
        # Imported here, not at module level: repro.metrics pulls in the
        # engine (lifetime metrics), which pulls in repro.obs — the
        # summary path is cold, so the lazy import breaks the cycle for
        # free.
        from repro.metrics.performance import latency_summary

        out: Dict[str, object] = {
            "arrivals": self.arrivals,
            "dispatches": self.dispatches,
            "completions": self.completions,
            "migrations": self.migrations,
            "preemptions": self.preemptions,
            "response_time_s": latency_summary(self.responses),
            "queue_wait_s": latency_summary(self.queue_waits),
            "dispatch_latency_s": latency_summary(self.dispatch_latencies),
        }
        if core_occupancy is not None:
            out["core_occupancy"] = {
                (core_names[i] if i < len(core_names) else f"core{i}"):
                    float(v)
                for i, v in enumerate(core_occupancy)
            }
        return out
