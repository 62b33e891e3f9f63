"""Unit tests for the observability layer (repro.obs).

Engine-integrated behaviour (counter cross-checks, bit-identity with
telemetry on) lives in test_engine_heap.py / test_engine_event.py; this
file covers the primitives: metrics registry, trace ring buffer and
Chrome-trace export, tick-phase profiler, job statistics, and the
telemetry facade.
"""

import json

import pytest

from repro.obs import (
    Counter,
    EngineTelemetry,
    EVENT_NAMES,
    Gauge,
    Histogram,
    JobStatsCollector,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_PROFILER,
    NULL_REGISTRY,
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
    EV_MIGRATION,
)
from repro.workload.benchmarks import benchmark
from repro.workload.job import Job


def make_job(job_id=1, arrival=0.0, work=1.0):
    return Job(job_id, 0, benchmark("gcc"), arrival, work)


class TestCounterGauge:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert c.snapshot() == 5

    def test_gauge_last_write_wins(self):
        g = Gauge("x")
        g.set(1.5)
        g.set(2.5)
        assert g.snapshot() == 2.5

    def test_null_counter_is_inert(self):
        NULL_COUNTER.inc(100)
        assert NULL_COUNTER.snapshot() == 0


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("lat", (1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 5.0):
            h.observe(v)
        # bounds are inclusive upper edges; 5.0 overflows.
        assert h.counts == [2, 1, 1]
        assert h.count == 4
        assert h.snapshot()["sum"] == pytest.approx(8.0)
        assert h.snapshot()["min"] == 0.5
        assert h.snapshot()["max"] == 5.0

    def test_percentile_reports_bucket_bound(self):
        h = Histogram("lat", (1.0, 2.0, 4.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(3.0)
        assert h.percentile(50.0) == 1.0
        assert h.percentile(100.0) == 4.0

    def test_overflow_percentile_is_exact_max(self):
        h = Histogram("lat", (1.0,))
        h.observe(7.25)
        assert h.percentile(99.0) == 7.25

    def test_empty_percentile_is_zero(self):
        assert Histogram("lat", (1.0,)).percentile(50.0) == 0.0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("lat", ())
        with pytest.raises(ValueError):
            Histogram("lat", (2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("lat", (1.0, 1.0))

    def test_snapshot_json_round_trip(self):
        h = Histogram("lat", (1.0, 2.0))
        h.observe(0.3)
        assert json.loads(json.dumps(h.snapshot())) == h.snapshot()


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        h = reg.histogram("h", (1.0,))
        assert reg.histogram("h") is h

    def test_histogram_bounds_required_on_first_use(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h")

    def test_snapshot_sorted_and_grouped(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.gauge("g").set(1.0)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["counters"]["a"] == 2
        assert snap["gauges"]["g"] == 1.0


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


class TestTickProfiler:
    def test_lap_accumulates(self):
        prof = TickProfiler()
        prof.begin()
        prof.lap(PH_THERMAL)
        prof.add(PH_POLICY, 0.25)
        prof.tick_done(10)
        summary = prof.summary()
        assert summary["ticks"] == 10
        assert summary["phases"]["policy"]["total_s"] == pytest.approx(0.25)
        assert summary["phases"]["policy"]["ms_per_tick"] == pytest.approx(25.0)
        assert "thermal" in summary["phases"]

    def test_zero_phases_omitted(self):
        prof = TickProfiler()
        prof.add(PH_POLICY, 1.0)
        prof.tick_done()
        assert list(prof.summary()["phases"]) == ["policy"]

    def test_merge(self):
        a, b = TickProfiler(), TickProfiler()
        a.add(PH_POLICY, 1.0)
        a.tick_done(2)
        b.add(PH_POLICY, 3.0)
        b.tick_done(2)
        a.merge(b)
        assert a.summary()["phases"]["policy"]["total_s"] == pytest.approx(4.0)
        assert a.ticks == 4

    def test_merge_phase_summaries(self):
        a = TickProfiler()
        a.add(PH_POLICY, 1.0)
        a.tick_done(10)
        b = TickProfiler()
        b.add(PH_POLICY, 1.0)
        b.add(PH_THERMAL, 2.0)
        b.tick_done(10)
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
        stats = JobStatsCollector()
        stats.on_arrival(0.0, 1)
        stats.on_dispatch(0.1, 1, 0.0)
        stats.on_dispatch(0.5, 1, 0.0)  # re-dispatch: count, no new sample
        assert stats.on_start(0.2, 1, 0.0) is True
        assert stats.on_start(0.6, 1, 0.0) is False
        stats.on_complete(1.0, 1, 0.0)
        stats.on_migration(preempt=True)
        stats.on_migration(preempt=False)
        assert stats.arrivals == 1
        assert stats.dispatches == 2
        assert stats.completions == 1
        assert stats.migrations == 2
        assert stats.preemptions == 1
        assert stats.dispatch_latencies == [pytest.approx(0.1)]
        assert stats.queue_waits == [pytest.approx(0.2)]
        assert stats.responses == [pytest.approx(1.0)]

    def test_summary_shape(self):
        stats = JobStatsCollector()
        stats.on_arrival(0.0, 1)
        stats.on_dispatch(0.0, 1, 0.0)
        stats.on_start(0.0, 1, 0.0)
        stats.on_complete(2.0, 1, 0.0)
        summary = stats.summary(("c0", "c1"), [0.5, 0.25])
        assert summary["completions"] == 1
        assert summary["response_time_s"]["mean"] == pytest.approx(2.0)
        assert summary["response_time_s"]["p95"] == pytest.approx(2.0)
        assert summary["core_occupancy"] == {"c0": 0.5, "c1": 0.25}
        assert json.loads(json.dumps(summary)) == summary


class TestTelemetryFacade:
    def test_config_enabled_logic(self):
        assert TelemetryConfig().enabled
        assert TelemetryConfig(metrics=False, profile=False,
                               trace=True).enabled
        assert not TelemetryConfig(metrics=False, profile=False).enabled

    def test_hooks_feed_stats_registry_and_trace(self):
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
        counters = snap["registry"]["counters"]
        assert counters["jobs.dispatched"] == 1
        assert counters["jobs.completed"] == 1
        assert counters["jobs.migrations"] == 1
        assert counters["jobs.preemptions"] == 1
        assert counters["dpm.sleeps"] == 1
        assert counters["dpm.wakes"] == 1
        assert counters["policy.vf_changes"] == 1
        assert counters["policy.gate_changes"] == 1
        assert snap["job_stats"]["completions"] == 1
        assert snap["trace"]["emitted"] == 9
        hist = snap["registry"]["histograms"]["jobs.response_time_s"]
        assert hist["count"] == 1

    def test_repeat_start_observed_once(self):
        tel = EngineTelemetry(TelemetryConfig())
        job = make_job(job_id=1)
        tel.job_start(0.1, job, 0)
        tel.job_start(0.2, job, 0)
        snap = tel.snapshot((), None)
        assert snap["registry"]["histograms"]["jobs.queue_wait_s"]["count"] == 1

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
    """Runtime complement to the static null-parity contract rule
    (`repro-dtm lint`): every public method/attribute on the NULL_*
    singletons must exist, be callable, and stay inert."""

    def test_every_public_member_exists_on_the_null_twin(self):
        pairs = [
            (Counter("x"), NULL_COUNTER),
            (Gauge("x"), NULL_GAUGE),
            (Histogram("x", (1.0,)), NULL_HISTOGRAM),
            (MetricsRegistry(), NULL_REGISTRY),
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
        snap = t.snapshot(("c0",))
        assert snap["registry"] == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert snap["job_stats"] == {}
        assert t.stats is None and t.config is None
        assert t.trace is NULL_TRACE and t.profiler is NULL_PROFILER

    def test_null_registry_hands_back_inert_instruments(self):
        counter = NULL_REGISTRY.counter("jobs")
        counter.inc(7)
        assert counter is NULL_COUNTER and counter.snapshot() == 0
        gauge = NULL_REGISTRY.gauge("temp")
        gauge.set(2.5)
        assert gauge is NULL_GAUGE and gauge.snapshot() == 0.0
        hist = NULL_REGISTRY.histogram("lat")  # no bounds required
        hist.observe(1.0)
        assert hist is NULL_HISTOGRAM
        assert hist.percentile(99.0) == 0.0
        assert hist.snapshot()["count"] == 0
        assert NULL_REGISTRY.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

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

    def test_null_profiler_merge_is_inert(self):
        real = TickProfiler()
        real.add(PH_POLICY, 1.0)
        real.tick_done()
        NULL_PROFILER.begin()
        NULL_PROFILER.lap(PH_POLICY)
        NULL_PROFILER.add(PH_POLICY, 5.0)
        NULL_PROFILER.tick_done()
        NULL_PROFILER.merge(real)
        assert NULL_PROFILER.ticks == 0
        assert NULL_PROFILER.summary() == {
            "ticks": 0, "total_s": 0.0, "ms_per_tick": 0.0, "phases": {},
        }
