"""Engine telemetry façade: one object, every observability concern.

The engine holds exactly one attribute, ``self._obs``.  When telemetry
is off it is :data:`NULL_TELEMETRY` — a shared singleton whose hook
methods are empty bodies, so disabled lifecycle sites cost one
attribute load and an empty call, and the per-tick hot loop costs
nothing at all (its decision-site counters are plain ``int`` adds that
never branch; see ``sched/engine.py``).  When on, the façade feeds
each hook to the per-job stats collector and the trace ring buffer.

Each fact has one home: lifecycle counts and latency samples live in
the job stats, decision-site counts (heap traffic, clock jumps, DPM,
V/f and gating transitions) in the engine's counters, events in the
trace ring and phase times in the tick profiler.

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

from repro.errors import ConfigurationError
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


@dataclass(frozen=True, slots=True)
class TelemetryConfig:
    """What to record beyond the job stats and the tick profile, which
    every telemetry run keeps.  Observational: no setting here may
    change scheduling, power, or thermal results."""

    trace: bool = False
    trace_capacity: int = 65536

    def __post_init__(self) -> None:
        if self.trace_capacity < 1:
            raise ConfigurationError(
                "trace capacity must be at least 1 event, "
                f"got {self.trace_capacity}"
            )


class EngineTelemetry:
    """Live fan-out of engine lifecycle hooks to job stats and trace."""

    __slots__ = ("config", "stats", "trace", "profiler")

    enabled = True

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self.stats = JobStatsCollector()
        self.trace = (
            TraceRecorder(self.config.trace_capacity)
            if self.config.trace else NULL_TRACE
        )
        self.profiler = TickProfiler()

    # -- job lifecycle -------------------------------------------------
    #
    # The four job hooks fire several times per tick, so they update
    # the stats collector's fields directly — each saved call is
    # ~100 ns x thousands of events against the 10% overhead gate in
    # benchmarks/bench_obs_overhead.py.

    def job_arrival(self, t: float, job) -> None:
        self.stats.arrivals += 1
        self.trace.emit(t, EV_ARRIVAL, -1, job.job_id, job.work_s)

    def job_dispatch(self, t: float, job, core_idx: int) -> None:
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
            st.queue_waits.append(t - job.arrival_time)
        self.trace.emit(t, EV_START, core_idx, jid)

    def job_complete(self, t: float, job, core_idx: int) -> None:
        st = self.stats
        st.completions += 1
        response = t - job.arrival_time
        st.responses.append(response)
        self.trace.emit(t, EV_COMPLETION, core_idx, job.job_id, response)

    def migration(self, t: float, job, src_idx: int, dst_idx: int,
                  preempt: bool) -> None:
        self.stats.on_migration(preempt)
        self.trace.emit(t, EV_MIGRATION, dst_idx, job.job_id,
                        float(src_idx))

    # -- power / thermal management transitions ------------------------

    def dpm_sleep(self, t: float, core_idx: int) -> None:
        self.trace.emit(t, EV_DPM_SLEEP, core_idx)

    def dpm_wake(self, t: float, core_idx: int) -> None:
        self.trace.emit(t, EV_DPM_WAKE, core_idx)

    def vf_change(self, t: float, core_idx: int, vf_index: int) -> None:
        self.trace.emit(t, EV_VF_CHANGE, core_idx, -1, float(vf_index))

    def gate_change(self, t: float, core_idx: int, gated: bool) -> None:
        self.trace.emit(t, EV_GATE, core_idx, -1, 1.0 if gated else 0.0)

    # -- event fidelity ------------------------------------------------

    def span_close(self, t: float, core_idx: int) -> None:
        self.trace.emit(t, EV_SPAN_CLOSE, core_idx)

    def event_jump(self, t: float, ticks: int) -> None:
        self.trace.emit(t, EV_EVENT_JUMP, -1, -1, float(ticks))

    # -- snapshot ------------------------------------------------------

    def snapshot(
        self,
        core_names: Sequence[str] = (),
        core_occupancy=None,
    ) -> Dict[str, object]:
        """JSON-ready telemetry for the obs-owned concerns.

        The engine adds its own ``engine`` section (fidelity, policy
        and decision-site counters) to form the full
        ``SimulationResult.telemetry`` payload.
        """
        out: Dict[str, object] = {
            "job_stats": self.stats.summary(core_names, core_occupancy),
        }
        if self.profiler.ticks:
            out["phases"] = self.profiler.summary()
        if self.config.trace:
            out["trace"] = self.trace.to_lists()
        return out


class _NullTelemetry:
    """Disabled telemetry: every hook is an empty body.

    Mirrors the full public surface of :class:`EngineTelemetry`
    (``tests/test_obs.py::TestNullParity`` holds the two in lockstep):
    ``stats`` is ``None`` (callers gate on ``enabled`` before reading
    job stats), and ``snapshot`` returns an empty-but-well-formed
    payload.
    """

    __slots__ = ()
    enabled = False
    config = None
    stats = None
    profiler = NULL_PROFILER
    trace = NULL_TRACE

    def snapshot(
        self,
        core_names: Sequence[str] = (),
        core_occupancy=None,
    ) -> Dict[str, object]:
        return {"job_stats": {}}

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

    def event_jump(self, t, ticks):
        pass


NULL_TELEMETRY = _NullTelemetry()
