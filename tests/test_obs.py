"""Unit tests for the observability layer (repro.obs).

Engine-integrated behaviour (counter cross-checks, bit-identity with
telemetry on) lives in test_engine_heap.py / test_engine_event.py; this
file covers the primitives: trace ring buffer and Chrome-trace export,
tick-phase profiler, job statistics, and the telemetry facade.
"""

import json
from dataclasses import fields

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    EngineTelemetry,
    EVENT_NAMES,
    NULL_PROFILER,
    NULL_TELEMETRY,
    NULL_TRACE,
    PHASES,
    TelemetryConfig,
    TickProfiler,
    TraceRecorder,
    merge_phase_summaries,
)
from repro.obs.profiler import PH_POLICY, PH_THERMAL
from repro.obs.trace import (
    EV_ARRIVAL,
    EV_COMPLETION,
    EV_DISPATCH,
    EV_DPM_SLEEP,
    EV_DPM_WAKE,
    EV_GATE,
    EV_MIGRATION,
    EV_START,
    EV_VF_CHANGE,
)
from repro.workload.benchmarks import benchmark
from repro.workload.job import Job


def make_job(job_id=1, arrival=0.0, work=1.0):
    return Job(job_id, 0, benchmark("gcc"), arrival, work)


class TestTraceRecorder:
    def test_emit_and_events(self):
        tr = TraceRecorder(capacity=8)
        tr.emit(0.1, EV_ARRIVAL, job=3)
        tr.emit(0.2, EV_DISPATCH, core=1, job=3)
        assert len(tr) == 2
        assert tr.dropped == 0
        events = tr.events()
        assert events[0] == (0.1, EV_ARRIVAL, -1, 3, 0.0)
        assert events[1][2] == 1

    def test_ring_wrap_drops_oldest(self):
        tr = TraceRecorder(capacity=4)
        for i in range(10):
            tr.emit(float(i), EV_ARRIVAL, job=i)
        assert tr.emitted == 10
        assert tr.dropped == 6
        assert len(tr) == 4
        # Oldest-first, only the newest 4 retained.
        assert [e[3] for e in tr.events()] == [6, 7, 8, 9]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_to_lists_shape(self):
        tr = TraceRecorder(capacity=4)
        tr.emit(1.0, EV_COMPLETION, core=0, job=2, value=3.5)
        data = tr.to_lists()
        assert data["columns"] == ["time_s", "event", "core", "job", "value"]
        # Rows are the raw event tuples (JSON renders them as arrays).
        assert data["rows"] == [(1.0, EV_COMPLETION, 0, 2, 3.5)]
        import json as _json

        assert _json.loads(_json.dumps(data))["rows"] == [
            [1.0, EV_COMPLETION, 0, 2, 3.5]
        ]

    def test_chrome_trace_structure(self):
        tr = TraceRecorder(capacity=16)
        tr.emit(0.0, EV_ARRIVAL, job=1)
        tr.emit(0.1, EV_DISPATCH, core=0, job=1)
        tr.emit(0.5, EV_MIGRATION, core=1, job=1)
        tr.emit(0.9, EV_COMPLETION, core=1, job=1)
        doc = tr.to_chrome_trace(core_names=("c0", "c1"))
        events = doc["traceEvents"]
        # Metadata names both core tracks plus the system track.
        names = [e["args"].get("name") for e in events if e["ph"] == "M"]
        assert "c0" in names and "c1" in names and "system" in names
        # Residency reconstruction: dispatch->migration and
        # migration->completion become two duration slices.
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 2
        assert slices[0]["ts"] == pytest.approx(0.1e6)
        assert slices[0]["dur"] == pytest.approx(0.4e6)
        assert slices[1]["dur"] == pytest.approx(0.4e6)
        # Instant events carry the simulation time in microseconds.
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 4
        assert json.loads(json.dumps(doc))  # JSON-serializable

    def test_write_files(self, tmp_path):
        tr = TraceRecorder(capacity=8)
        tr.emit(0.0, EV_ARRIVAL, job=1)
        tr.emit(0.1, EV_DISPATCH, core=0, job=1)
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "trace.jsonl"
        tr.write_chrome_trace(chrome, ("c0",))
        tr.write_jsonl(jsonl, ("c0",))
        assert "traceEvents" in json.loads(chrome.read_text())
        lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
        assert lines[0]["event"] == "arrival"
        assert lines[1]["core"] == "c0"

    def test_null_trace_is_inert(self):
        NULL_TRACE.emit(0.0, EV_ARRIVAL)
        assert len(NULL_TRACE) == 0
        assert NULL_TRACE.events() == []

    def test_event_names_cover_all_types(self):
        assert sorted(EVENT_NAMES) == list(range(1, 12))


def profiler_with(ticks, **seconds):
    """A profiler holding ``seconds`` per phase name over ``ticks``."""
    prof = TickProfiler()
    for name, spent in seconds.items():
        prof.totals[PHASES.index(name)] = spent
    prof.tick_done(ticks)
    return prof


class TestTickProfiler:
    def test_lap_accumulates(self):
        prof = TickProfiler()
        prof.begin()
        prof.lap(PH_THERMAL)
        prof.lap(PH_POLICY)
        prof.tick_done(10)
        summary = prof.summary()
        assert summary["ticks"] == 10
        policy = summary["phases"]["policy"]
        assert policy["ms_per_tick"] == pytest.approx(
            policy["total_s"] / 10 * 1e3)
        assert "thermal" in summary["phases"]
        assert summary["total_s"] == pytest.approx(sum(prof.totals))

    def test_zero_phases_omitted(self):
        prof = profiler_with(1, policy=1.0)
        assert list(prof.summary()["phases"]) == ["policy"]

    def test_merge(self):
        """Folding runs adds their phase times and their ticks."""
        a = profiler_with(2, policy=1.0)
        b = profiler_with(2, policy=3.0)
        merged = merge_phase_summaries([a.summary(), b.summary()])
        assert merged["phases"]["policy"]["total_s"] == pytest.approx(4.0)
        assert merged["ticks"] == 4
        assert merged["ms_per_tick"] == pytest.approx(1000.0)

    def test_merge_phase_summaries(self):
        a = profiler_with(10, policy=1.0)
        b = profiler_with(10, policy=1.0, thermal=2.0)
        merged = merge_phase_summaries([a.summary(), None, b.summary(), {}])
        assert merged["runs"] == 2
        assert merged["ticks"] == 20
        assert merged["phases"]["policy"]["total_s"] == pytest.approx(2.0)
        assert merged["phases"]["thermal"]["share_pct"] == pytest.approx(50.0)

    def test_null_profiler_disabled(self):
        assert not NULL_PROFILER.enabled
        NULL_PROFILER.begin()
        NULL_PROFILER.lap(PH_POLICY)
        NULL_PROFILER.tick_done()
        assert NULL_PROFILER.summary()["ticks"] == 0

    def test_phase_constants_match_names(self):
        assert len(PHASES) == 8
        assert PHASES[PH_THERMAL] == "thermal"
        assert PHASES[PH_POLICY] == "policy"


class TestJobStats:
    def test_lifecycle_counts_and_samples(self):
        tel = EngineTelemetry()
        job = make_job(job_id=1, arrival=0.0)
        tel.job_arrival(0.0, job)
        tel.job_dispatch(0.1, job, 0)
        tel.job_dispatch(0.5, job, 0)  # re-dispatch: count, no new sample
        tel.job_start(0.2, job, 0)
        tel.job_start(0.6, job, 0)  # repeat start: no new sample
        tel.job_complete(1.0, job, 0)
        tel.migration(0.7, job, 0, 1, preempt=True)
        tel.migration(0.8, job, 1, 0, preempt=False)
        stats = tel.stats
        assert stats.arrivals == 1
        assert stats.dispatches == 2
        assert stats.completions == 1
        assert stats.migrations == 2
        assert stats.preemptions == 1
        assert stats.dispatch_latencies == [pytest.approx(0.1)]
        assert stats.queue_waits == [pytest.approx(0.2)]
        assert stats.responses == [pytest.approx(1.0)]

    def test_summary_shape(self):
        tel = EngineTelemetry()
        job = make_job(job_id=1, arrival=0.0)
        tel.job_arrival(0.0, job)
        tel.job_dispatch(0.0, job, 0)
        tel.job_start(0.0, job, 0)
        tel.job_complete(2.0, job, 0)
        summary = tel.stats.summary(("c0", "c1"), [0.5, 0.25])
        assert summary["completions"] == 1
        assert summary["response_time_s"]["mean"] == pytest.approx(2.0)
        assert summary["response_time_s"]["p95"] == pytest.approx(2.0)
        assert summary["core_occupancy"] == {"c0": 0.5, "c1": 0.25}
        assert json.loads(json.dumps(summary)) == summary


class TestTelemetryFacade:
    def test_config_enabled_logic(self):
        """Any config turns telemetry on; it has only the trace to set."""
        assert EngineTelemetry(TelemetryConfig()).enabled
        assert not NULL_TELEMETRY.enabled
        assert [f.name for f in fields(TelemetryConfig)] == [
            "trace", "trace_capacity"]

    @pytest.mark.parametrize("capacity", [0, -5])
    def test_trace_capacity_below_one_refused(self, capacity):
        with pytest.raises(ConfigurationError, match="trace capacity"):
            TelemetryConfig(trace=True, trace_capacity=capacity)

    def test_hooks_feed_stats_and_trace(self):
        tel = EngineTelemetry(TelemetryConfig(trace=True, trace_capacity=64))
        job = make_job(job_id=7, arrival=0.0)
        tel.job_arrival(0.0, job)
        tel.job_dispatch(0.1, job, 0)
        tel.job_start(0.1, job, 0)
        tel.job_complete(1.0, job, 0)
        tel.migration(0.5, job, 0, 1, preempt=True)
        tel.dpm_sleep(0.6, 2)
        tel.dpm_wake(0.7, 2)
        tel.vf_change(0.8, 1, 3)
        tel.gate_change(0.9, 1, True)
        snap = tel.snapshot(("c0", "c1", "c2"), None)
        assert set(snap) == {"job_stats", "trace"}
        stats = snap["job_stats"]
        assert (stats["arrivals"], stats["dispatches"], stats["completions"],
                stats["migrations"], stats["preemptions"]) == (1, 1, 1, 1, 1)
        assert stats["response_time_s"]["count"] == 1
        assert snap["trace"]["emitted"] == 9
        events = [row[1] for row in snap["trace"]["rows"]]
        assert events == [EV_ARRIVAL, EV_DISPATCH, EV_START, EV_COMPLETION,
                          EV_MIGRATION, EV_DPM_SLEEP, EV_DPM_WAKE,
                          EV_VF_CHANGE, EV_GATE]

    def test_repeat_start_observed_once(self):
        tel = EngineTelemetry(TelemetryConfig())
        job = make_job(job_id=1)
        tel.job_start(0.1, job, 0)
        tel.job_start(0.2, job, 0)
        snap = tel.snapshot((), None)
        assert snap["job_stats"]["queue_wait_s"]["count"] == 1

    def test_trace_disabled_by_default(self):
        tel = EngineTelemetry(TelemetryConfig())
        assert tel.trace is NULL_TRACE
        snap = tel.snapshot((), None)
        assert "trace" not in snap

    def test_null_telemetry_is_inert(self):
        job = make_job()
        NULL_TELEMETRY.job_arrival(0.0, job)
        NULL_TELEMETRY.job_complete(1.0, job, 0)
        assert not NULL_TELEMETRY.enabled
        assert NULL_TELEMETRY.profiler is NULL_PROFILER


class TestNullParity:
    """Every public method/attribute of a real telemetry object exists
    on its NULL_* singleton, is callable, and stays inert. Telemetry is
    off by default, so a missing member would raise only on the
    untraced path."""

    def test_every_public_member_exists_on_the_null_twin(self):
        pairs = [
            (TickProfiler(), NULL_PROFILER),
            (TraceRecorder(4), NULL_TRACE),
            (EngineTelemetry(), NULL_TELEMETRY),
        ]
        for real, null in pairs:
            public = [
                name for name in dir(real)
                if not name.startswith("_") or name == "__len__"
            ]
            missing = [n for n in public if not hasattr(null, n)]
            assert not missing, (
                f"{type(null).__name__} lacks {missing} from "
                f"{type(real).__name__}"
            )

    def test_null_telemetry_full_hook_surface(self):
        t = NULL_TELEMETRY
        job = make_job()
        t.job_arrival(0.0, job)
        t.job_dispatch(0.0, job, 0)
        t.job_start(0.0, job, 0)
        t.job_complete(1.0, job, 0)
        t.migration(1.0, job, 0, 1, True)
        t.dpm_sleep(1.0, 0)
        t.dpm_wake(2.0, 0)
        t.vf_change(2.0, 0, 1)
        t.gate_change(2.0, 0, True)
        t.span_close(2.0, 0)
        t.event_jump(2.0, 5)
        assert t.snapshot(("c0",)) == {"job_stats": {}}
        assert t.stats is None and t.config is None
        assert t.trace is NULL_TRACE and t.profiler is NULL_PROFILER

    def test_null_trace_exports_are_empty_but_well_formed(self, tmp_path):
        NULL_TRACE.emit(0.0, EV_ARRIVAL, 0, 1, 1.0)
        assert len(NULL_TRACE) == 0
        assert NULL_TRACE.events() == []
        assert NULL_TRACE.dropped == 0
        assert NULL_TRACE.to_chrome_trace(("c0",))["traceEvents"] == []
        chrome_path = tmp_path / "trace.json"
        NULL_TRACE.write_chrome_trace(chrome_path, ("c0",))
        assert json.loads(chrome_path.read_text())["traceEvents"] == []
        jsonl_path = tmp_path / "trace.jsonl"
        NULL_TRACE.write_jsonl(jsonl_path)
        assert jsonl_path.read_text() == ""
