"""Engine telemetry façade: one object, every observability concern.

The engine holds exactly one attribute, ``self._obs``.  When telemetry
is off it is :data:`NULL_TELEMETRY` — a shared singleton whose hook
methods are empty bodies, so disabled lifecycle sites cost one
attribute load and an empty call, and the per-tick hot loop costs
nothing at all (its micro-counters are plain ``int`` adds that never
branch; see ``sched/engine.py``).  When on, the façade fans each hook
out to the metrics registry, the per-job stats collector, and the
trace ring buffer.

Hooks fire at *decision* sites only (dispatch, start-of-execution,
completion, migration, DPM/V-f/gating transitions, span close,
event jump) — all of which are microsecond-scale code paths already,
so instrumenting them cannot perturb the simulation: telemetry reads
engine state, never writes it, and eager runs stay bit-identical with
telemetry enabled (asserted in the differential harnesses).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.profiler import NULL_PROFILER, TickProfiler
from repro.obs.stats import JobStatsCollector
from repro.obs.trace import (
    EV_ARRIVAL,
    EV_COMPLETION,
    EV_DISPATCH,
    EV_DPM_SLEEP,
    EV_DPM_WAKE,
    EV_EVENT_JUMP,
    EV_GATE,
    EV_MIGRATION,
    EV_SPAN_CLOSE,
    EV_START,
    EV_VF_CHANGE,
    NULL_TRACE,
    TraceRecorder,
)

__all__ = ["TelemetryConfig", "EngineTelemetry", "NULL_TELEMETRY"]

#: Bucket upper edges (seconds) for lifecycle latency histograms.
#: Jobs are 10 ms .. tens of seconds; ticks are 100 ms.
LATENCY_BOUNDS_S = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 60.0)


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """What to record.  All fields are observational — no setting here
    may change scheduling, power, or thermal results."""

    metrics: bool = True
    trace: bool = False
    profile: bool = True
    trace_capacity: int = 65536

    @property
    def enabled(self) -> bool:
        return self.metrics or self.trace or self.profile


class EngineTelemetry:
    """Live fan-out of engine lifecycle hooks to registry/stats/trace."""

    __slots__ = (
        "config", "registry", "stats", "trace", "profiler",
        "_c_dispatch", "_c_complete", "_c_migration", "_c_preempt",
        "_c_sleep", "_c_wake", "_c_vf", "_c_gate", "_c_span_close",
        "_c_ev_jumps", "_c_ev_jump_ticks", "_c_ev_skipped",
        "_h_response", "_h_queue_wait",
    )

    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.registry = MetricsRegistry()
        self.stats = JobStatsCollector()
        self.trace = (
            TraceRecorder(self.config.trace_capacity)
            if self.config.trace else NULL_TRACE
        )
        self.profiler = (
            TickProfiler() if self.config.profile else NULL_PROFILER
        )
        reg = self.registry
        self._c_dispatch = reg.counter("jobs.dispatched")
        self._c_complete = reg.counter("jobs.completed")
        self._c_migration = reg.counter("jobs.migrations")
        self._c_preempt = reg.counter("jobs.preemptions")
        self._c_sleep = reg.counter("dpm.sleeps")
        self._c_wake = reg.counter("dpm.wakes")
        self._c_vf = reg.counter("policy.vf_changes")
        self._c_gate = reg.counter("policy.gate_changes")
        self._c_span_close = reg.counter("span.closes")
        self._c_ev_jumps = reg.counter("event.jumps")
        self._c_ev_jump_ticks = reg.counter("event.jump_ticks")
        self._c_ev_skipped = reg.counter("event.skipped_ticks")
        self._h_response = reg.histogram("jobs.response_time_s",
                                         LATENCY_BOUNDS_S)
        self._h_queue_wait = reg.histogram("jobs.queue_wait_s",
                                           LATENCY_BOUNDS_S)

    # -- job lifecycle -------------------------------------------------
    #
    # The four job hooks fire several times per tick, so they update
    # the stats collector's fields and counter values directly rather
    # than through their method wrappers — each saved call is ~100 ns
    # x thousands of events against the 10% overhead gate in
    # benchmarks/bench_obs_overhead.py.

    def job_arrival(self, t: float, job) -> None:
        self.stats.arrivals += 1
        self.trace.emit(t, EV_ARRIVAL, -1, job.job_id, job.work_s)

    def job_dispatch(self, t: float, job, core_idx: int) -> None:
        self._c_dispatch.value += 1
        st = self.stats
        st.dispatches += 1
        jid = job.job_id
        if jid not in st.dispatched_ids:
            st.dispatched_ids.add(jid)
            st.dispatch_latencies.append(t - job.arrival_time)
        self.trace.emit(t, EV_DISPATCH, core_idx, jid)

    def job_start(self, t: float, job, core_idx: int) -> None:
        st = self.stats
        jid = job.job_id
        if jid not in st.started_ids:
            st.started_ids.add(jid)
            wait = t - job.arrival_time
            st.queue_waits.append(wait)
            self._h_queue_wait.observe(wait)
        self.trace.emit(t, EV_START, core_idx, jid)

    def job_complete(self, t: float, job, core_idx: int) -> None:
        self._c_complete.value += 1
        st = self.stats
        st.completions += 1
        response = t - job.arrival_time
        st.responses.append(response)
        self._h_response.observe(response)
        self.trace.emit(t, EV_COMPLETION, core_idx, job.job_id, response)

    def migration(self, t: float, job, src_idx: int, dst_idx: int,
                  preempt: bool) -> None:
        self._c_migration.inc()
        if preempt:
            self._c_preempt.inc()
        self.stats.on_migration(preempt)
        self.trace.emit(t, EV_MIGRATION, dst_idx, job.job_id,
                        float(src_idx))

    # -- power / thermal management transitions ------------------------

    def dpm_sleep(self, t: float, core_idx: int) -> None:
        self._c_sleep.inc()
        self.trace.emit(t, EV_DPM_SLEEP, core_idx)

    def dpm_wake(self, t: float, core_idx: int) -> None:
        self._c_wake.inc()
        self.trace.emit(t, EV_DPM_WAKE, core_idx)

    def vf_change(self, t: float, core_idx: int, vf_index: int) -> None:
        self._c_vf.inc()
        self.trace.emit(t, EV_VF_CHANGE, core_idx, -1, float(vf_index))

    def gate_change(self, t: float, core_idx: int, gated: bool) -> None:
        self._c_gate.inc()
        self.trace.emit(t, EV_GATE, core_idx, -1, 1.0 if gated else 0.0)

    # -- event fidelity ------------------------------------------------

    def span_close(self, t: float, core_idx: int) -> None:
        self._c_span_close.inc()
        self.trace.emit(t, EV_SPAN_CLOSE, core_idx)

    def event_jump(self, t: float, ticks: int, skipped: int) -> None:
        self._c_ev_jumps.inc()
        self._c_ev_jump_ticks.inc(ticks)
        self._c_ev_skipped.inc(skipped)
        self.trace.emit(t, EV_EVENT_JUMP, -1, -1, float(ticks))

    # -- snapshot ------------------------------------------------------

    def snapshot(
        self,
        core_names: Sequence[str] = (),
        core_occupancy=None,
    ) -> Dict[str, object]:
        """JSON-ready telemetry for the obs-owned concerns.

        The engine wraps this with its own micro-counters and cache
        statistics to form the full ``SimulationResult.telemetry``
        payload.
        """
        out: Dict[str, object] = {
            "registry": self.registry.snapshot(),
            "job_stats": self.stats.summary(core_names, core_occupancy),
        }
        if self.profiler.enabled and self.profiler.ticks:
            out["phases"] = self.profiler.summary()
        if self.config.trace:
            out["trace"] = self.trace.to_lists()
        return out


class _NullTelemetry:
    """Disabled telemetry: every hook is an empty body.

    Mirrors the full public surface of :class:`EngineTelemetry` (the
    static null-parity contract rule holds the two in lockstep):
    instruments resolve to the shared no-op registry, ``stats`` is
    ``None`` (callers gate on ``enabled`` before reading job stats),
    and ``snapshot`` returns an empty-but-well-formed payload.
    """

    __slots__ = ()
    enabled = False
    config = None
    registry = NULL_REGISTRY
    stats = None
    profiler = NULL_PROFILER
    trace = NULL_TRACE

    def snapshot(
        self,
        core_names: Sequence[str] = (),
        core_occupancy=None,
    ) -> Dict[str, object]:
        return {"registry": NULL_REGISTRY.snapshot(), "job_stats": {}}

    def job_arrival(self, t, job):
        pass

    def job_dispatch(self, t, job, core_idx):
        pass

    def job_start(self, t, job, core_idx):
        pass

    def job_complete(self, t, job, core_idx):
        pass

    def migration(self, t, job, src_idx, dst_idx, preempt):
        pass

    def dpm_sleep(self, t, core_idx):
        pass

    def dpm_wake(self, t, core_idx):
        pass

    def vf_change(self, t, core_idx, vf_index):
        pass

    def gate_change(self, t, core_idx, gated):
        pass

    def span_close(self, t, core_idx):
        pass

    def event_jump(self, t, ticks, skipped):
        pass


NULL_TELEMETRY = _NullTelemetry()
