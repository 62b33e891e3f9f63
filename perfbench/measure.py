"""Timing loop, statistics, calibration and per-layer derivation.

One *iteration* is a whole campaign life cycle on a fresh, empty store:

1. set-up: build the :class:`ExperimentRunner`, characterize the thermal
   indices of the workload's stacks, open the empty store and expand
   the campaign (``setup_s``);
2. campaign: one driver runs every run of the campaign to the store, in
   a closed loop over the executor (``campaign_s``; per-run latency is
   the executor's ``start`` to ``ok`` progress event);
3. read: reopen the store, run the same campaign again (every run
   ``cached``) and render the workload's tables (``read_s``).
"""

from __future__ import annotations

import math
import multiprocessing
import resource
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.runner import ExperimentRunner
from repro.campaign import CampaignExecutor, ResultStore, run_key
from repro.sched.engine import EngineConfig

from tracing import Tracer
from workloads import Workload

#: Percentile of ``run_tail_ms``. It is fixed, not the highest one with
#: ten samples beyond it, so it does not move with the number of
#: iterations a run fits in; full-size untraced runs fit enough
#: iterations to keep ten samples beyond it.
TAIL_PCT = 90.0
#: Lower percentiles tried when fewer than ten samples lie beyond.
TAIL_LADDER = (75.0, 50.0)

PHASES = ("interval", "power", "thermal", "sensors", "dpm", "policy",
          "record", "event_jump")


def median(values: List[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: List[float], pct: float = TAIL_PCT) -> Dict[str, float]:
    """The ``pct`` percentile (nearest rank), or the highest ladder
    percentile below it with at least ten samples beyond it."""
    data = sorted(values)
    n = len(data)
    for pct in (pct,) + tuple(p for p in TAIL_LADDER if p < pct):
        rank = math.ceil(round(pct * n / 100.0, 9))  # 1-based
        if n - rank >= 10:
            break
    return {"pct": pct, "value": data[max(rank - 1, 0)] if n else 0.0,
            "n": n}


def reap_children(timeout: float = 30.0) -> None:
    """Join every child process (pool workers shut down without wait)."""
    for child in multiprocessing.active_children():
        child.join(timeout)


def peak_rss_mb(workers: int) -> float:
    """Driver peak RSS plus ``workers`` x the largest pool worker's peak.

    An upper bound: a forked worker counts the pages it shares with the
    driver once more.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# ----------------------------------------------------------------------
# calibration


def calibrate() -> Dict[str, float]:
    """Fastest of nine times of a fixed NumPy and a fixed Python kernel.

    The NumPy half is a 96x96 linear solve plus matrix-vector products,
    the shape of the thermal step; the Python half is a loop of integer
    arithmetic and dict updates, the shape of the scheduler's interval.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96)) + 96.0 * np.eye(96)
    b = rng.standard_normal(96)

    def numpy_kernel() -> float:
        x = b
        for _ in range(200):
            x = np.linalg.solve(a, x) + a @ x * 1e-3
        return float(x[0])

    def python_kernel() -> int:
        table: Dict[int, int] = {}
        acc = 0
        for i in range(60000):
            acc = (acc * 31 + i) % 1000003
            table[acc & 255] = table.get(acc & 255, 0) + 1
        return acc + len(table)

    out = {}
    for name, kernel in (("numpy_ms", numpy_kernel),
                         ("python_ms", python_kernel)):
        kernel()
        times = []
        for _ in range(9):
            t0 = perf_counter()
            kernel()
            times.append((perf_counter() - t0) * 1e3)
        out[name] = min(times)
    out["total_ms"] = out["numpy_ms"] + out["python_ms"]
    return out


def src_lines(src: Path) -> int:
    return sum(
        len(path.read_text().splitlines())
        for path in sorted(src.rglob("*.py"))
    )


# ----------------------------------------------------------------------
# one iteration


class Probe:
    """A ~1 ms fixed CPU kernel the driver runs between its own events.

    The host shares its cores with other tenants, whose load slows this
    benchmark by up to 2x, changing within a second. ``maybe()`` runs
    from the executor's progress callback, at most once per ``EVERY_S``:
    on the serial backend between two runs, on the pool backends right
    after a unit finished, when that worker's core is free.

    :meth:`scaled` turns a wall interval into reference-speed seconds:
    the probes' own time is left out, and each stretch between two
    probes is scaled by ``REF_PROBE_MS`` over the median duration of the
    probes nearest to it.
    """

    #: Probe duration on the reference host when no other tenant loads it.
    REF_PROBE_MS = 0.8
    #: Probes on each side of a stretch whose median sets its speed.
    WINDOW = 3

    #: Least wall time between two probes raised by ``maybe()``.
    EVERY_S = 0.05

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64)) + 64.0 * np.eye(64)
        self._b = rng.standard_normal(64)
        self.marks: List[Tuple[float, float]] = []  # (start, end) per probe

    def run(self) -> None:
        t0 = perf_counter()
        x = self._b
        for _ in range(16):
            x = np.linalg.solve(self._a, x)
        acc = 0
        for i in range(3000):
            acc = (acc * 31 + i) % 1000003
        self.marks.append((t0, perf_counter()))

    def bracket(self) -> None:
        """Three probes in a row, on each side of a timed phase."""
        for _ in range(3):
            self.run()

    def maybe(self) -> None:
        if perf_counter() - self.marks[-1][1] >= self.EVERY_S:
            self.run()

    def stretches(self) -> List[Tuple[float, float, float]]:
        """(start, end, factor) of every stretch between two probes."""
        durations = [end - start for start, end in self.marks]
        out = []
        for k in range(1, len(self.marks)):
            near = durations[max(k - self.WINDOW, 0):k + self.WINDOW]
            factor = self.REF_PROBE_MS / (median(near) * 1e3)
            out.append((self.marks[k - 1][1], self.marks[k][0], factor))
        return out

    @staticmethod
    def scaled(stretches, a: float, b: float) -> float:
        """Reference-speed seconds of the wall interval [a, b]."""
        total = 0.0
        for lo, hi, factor in stretches:
            if hi > a and lo < b:
                total += (min(b, hi) - max(a, lo)) * factor
        return total


@dataclass
class Sample:
    #: Phase times net of probes, scaled to the reference host speed.
    setup_s: float = 0.0
    campaign_s: float = 0.0
    read_s: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: Host wall time of each phase, probes included.
    campaign_wall_s: float = 0.0
    read_wall_s: float = 0.0
    campaign_probe_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    cached: int = 0
    rendered: Any = None
    stats: Dict[str, int] = field(default_factory=dict)
    runner: Optional[ExperimentRunner] = None
    roots: Dict[str, int] = field(default_factory=dict)  # phase -> span


def _probe_time(probe: Probe, a: float, b: float) -> float:
    return sum(min(b, end) - max(a, start) for start, end in probe.marks
               if end > a and start < b)


def setup(workload: Workload, root: Path, probe: Probe):
    """The timed set-up phase; returns (runner, store, scaled seconds).

    Set-up raises no progress events; the probes bracketing it give its
    speed.
    """
    probe.bracket()
    t0 = perf_counter()
    runner = ExperimentRunner()
    for exp_id, grid in workload.stacks:
        runner.thermal_indices(exp_id, grid)
    store = ResultStore(root)
    workload.campaign.expand()
    t1 = perf_counter()
    probe.bracket()
    return runner, store, probe.scaled(probe.stretches(), t0, t1)


def iterate(workload: Workload, root: Path,
            tracer: Optional[Tracer] = None) -> Sample:
    sample = Sample()
    probe = Probe()

    def phase(name: str):
        if tracer is None:
            return nullcontext()
        sample.roots[name] = len(tracer.spans)
        return tracer.span(name)

    with phase("setup"):
        runner, store, sample.setup_s = setup(workload, root, probe)
    sample.runner = runner

    starts: Dict[str, float] = {}
    runs: List[Tuple[float, float]] = []

    def progress(event: str, key: str, detail: str) -> None:
        now = perf_counter()
        if event == "start":
            starts[key] = now
        elif event == "ok":
            runs.append((starts.pop(key), now))
        probe.maybe()

    executor = CampaignExecutor(
        store=store, backend=workload.backend,
        max_workers=workload.workers, progress=progress, runner=runner,
        telemetry=tracer is not None,
    )
    probe.bracket()
    with phase("campaign"):
        t0 = perf_counter()
        run = executor.run_campaign(workload.campaign)
        t1 = perf_counter()
    probe.bracket()
    stretches = probe.stretches()
    sample.campaign_wall_s = t1 - t0
    sample.campaign_probe_s = _probe_time(probe, t0, t1)
    sample.campaign_s = probe.scaled(stretches, t0, t1)
    sample.latencies_ms = [1e3 * probe.scaled(stretches, a, b)
                           for a, b in runs]
    reap_children()
    counts = run.counts()
    sample.failed = counts.get("error", 0) + counts.get("quarantined", 0)
    sample.attempted = sample.failed + counts.get("ok", 0)
    sample.stats = executor.stats.snapshot()

    cached: List[str] = []

    def read_progress(event: str, key: str, detail: str) -> None:
        if event == "cached":
            cached.append(key)
        probe.maybe()

    probe.bracket()
    with phase("read"):
        t0 = perf_counter()
        reopened = ResultStore(root)
        CampaignExecutor(
            store=reopened, backend=workload.backend,
            max_workers=workload.workers, runner=runner,
            progress=read_progress,
        ).run_campaign(workload.campaign)
        with (tracer.span("report.render") if tracer else nullcontext()):
            sample.rendered = workload.render(reopened, workload.campaign)
        t1 = perf_counter()
    probe.bracket()
    sample.read_wall_s = t1 - t0
    sample.read_s = probe.scaled(probe.stretches(), t0, t1)
    sample.cached = len(cached)
    return sample


# ----------------------------------------------------------------------
# per-layer metrics of one traced iteration (host time, unscaled)


def _durations_ms(tracer: Tracer, indices: List[int]) -> List[float]:
    return [tracer.duration(i) * 1e3 for i in indices]


def _build_timing(workload: Workload,
                  seeded: ExperimentRunner) -> Dict[str, float]:
    """Cold and cached ``build_engine`` on a fresh runner, per stack.

    A fresh runner seeded with the driver's indices is what every pool
    worker starts from; its first build per stack assembles the RC
    network and factorizations.
    """
    first, cached = [], []
    specs = {}
    for spec in workload.campaign.expand():
        specs.setdefault((spec.exp_id, tuple(spec.grid)), spec)
    runner = ExperimentRunner()
    for (exp_id, grid), indices in seeded.seeded_indices().items():
        runner.seed_thermal_indices(exp_id, grid, indices)
    for spec in specs.values():
        for bucket in (first, cached):
            t0 = perf_counter()
            runner.build_engine(spec)
            bucket.append((perf_counter() - t0) * 1e3)
    return {"first": median(first), "cached": median(cached)}


def layer_metrics(workload: Workload, sample: Sample, tracer: Tracer,
                  store: ResultStore) -> Dict[str, float]:
    s, c, r = (sample.roots[k] for k in ("setup", "campaign", "read"))
    m: Dict[str, float] = {}

    m["spec.expand_ms"] = _durations_ms(tracer, tracer.under(s, "spec.expand"))[0]
    m["runner.thermal_indices_ms"] = sum(_durations_ms(
        tracer, [i for i in tracer.under(s, "runner.thermal_indices")
                 if tracer.spans[i][3] == s]))
    builds = _build_timing(workload, sample.runner)
    driver_builds = _durations_ms(tracer, tracer.under(c, "runner.build_engine"))
    m["runner.build_engine_first_ms"] = builds["first"]
    m["runner.build_engine_ms"] = (
        median(driver_builds) if driver_builds else builds["cached"])

    # Engine phases and event counters from the telemetry sidecars;
    # fused batches carry one shared profile per batch, deduplicated.
    totals = dict.fromkeys(PHASES, 0.0)
    run_ticks = 0
    jumps = jumped = 0
    batches: Dict[str, Dict[str, Any]] = {}
    serial_compute = 0.0
    for spec in workload.campaign.expand():
        snap = store.load_telemetry(run_key(spec)) or {}
        counters = (snap.get("engine") or {}).get("counters") or {}
        jumps += int(counters.get("event_jumps", 0))
        jumped += int(counters.get("event_jump_ticks", 0))
        run_ticks += int(round(spec.duration_s
                               / EngineConfig.sampling_interval_s))
        batch = snap.get("batch")
        if batch is not None:
            phases = batch["phases"]
            tag = repr((batch["n_lanes"], phases["ticks"], phases["total_s"]))
            batches[tag] = batch
            continue
        phases = snap.get("phases") or {}
        serial_compute += float(phases.get("total_s", 0.0))
        for name, entry in (phases.get("phases") or {}).items():
            if name in totals:
                totals[name] += float(entry["total_s"])
    batch_totals = dict.fromkeys(PHASES, 0.0)
    batch_ticks = lane_ticks = 0
    batch_compute = 0.0
    for batch in batches.values():
        phases = batch["phases"]
        batch_ticks += int(phases["ticks"])
        lane_ticks += int(phases["ticks"]) * int(batch["n_lanes"])
        batch_compute += float(phases["total_s"])
        for name, entry in phases["phases"].items():
            if name in batch_totals:
                batch_totals[name] += float(entry["total_s"])
                totals[name] += float(entry["total_s"])
    # engine.*: whichever tick engine ran the runs, per run-tick.
    m["engine.ms_per_tick"] = sum(totals.values()) / max(run_ticks, 1) * 1e3
    for name in PHASES:
        m[f"engine.{name}_ms_per_tick"] = totals[name] / max(run_ticks, 1) * 1e3
    m["event.jumps"] = float(jumps)
    m["event.skipped_frac"] = jumped / max(run_ticks, 1)
    m["batch.ms_per_lane_tick"] = batch_compute / max(lane_ticks, 1) * 1e3
    for name in PHASES[:-1]:
        m[f"batch.{name}_ms_per_tick"] = (
            batch_totals[name] / max(batch_ticks, 1) * 1e3)
    m["batch.lanes_per_unit"] = (
        sum(b["n_lanes"] for b in batches.values()) / len(batches)
        if batches else 0.0)

    saves = _durations_ms(tracer, tracer.under(c, "store.save"))
    m["result_io.save_result_ms"] = median(
        _durations_ms(tracer, tracer.under(c, "result_io.save_result")))
    m["result_io.load_result_ms"] = median(
        _durations_ms(tracer, tracer.under(r, "result_io.load_result")))
    m["store.save_p50_ms"] = median(saves)
    m["store.save_tail_ms"] = tail(saves)["value"]
    decile = max(len(saves) // 10, 1)
    m["store.save_growth"] = (
        (sum(saves[-decile:]) / decile) / (sum(saves[:decile]) / decile)
        if saves else 0.0)
    m["store.open_ms"] = _durations_ms(tracer, tracer.under(r, "store.open"))[0]
    m["store.has_us"] = 1e3 * median(
        _durations_ms(tracer, tracer.under(r, "store.has")))
    m["store.load_ms"] = median(
        _durations_ms(tracer, tracer.under(r, "store.load")))
    m["store.keys"] = float(len(store.keys()))

    # Executor: the part of campaign_s no timed child call explains
    # (probe time is the benchmark's own and stays out of it).
    save_s = sum(saves) / 1e3
    wall = sample.campaign_wall_s - sample.campaign_probe_s
    if workload.backend == "serial":
        busy = sum(tracer.duration(i)
                   for i in tracer.under(c, "runner.run"))
        executor = tracer.under(c, "executor.run_campaign")[0]
        m["executor.overhead_s"] = (
            tracer.self_time(executor) - sample.campaign_probe_s)
        m["executor.worker_busy_frac"] = busy / wall
    else:
        compute = serial_compute + batch_compute
        m["executor.overhead_s"] = wall - save_s - compute / workload.workers
        m["executor.worker_busy_frac"] = compute / (workload.workers * wall)
    m["executor.units"] = float(
        len(batches) + len(workload.campaign.expand())
        - sum(int(b["n_lanes"]) for b in batches.values()))
    m["executor.retries"] = float(sample.stats.get("retries", 0))

    render_s = sum(
        tracer.duration(i) - sum(tracer.duration(j)
                                 for j in tracer.under(i, "store.load"))
        for i in tracer.under(r, "report.render"))
    m["report.render_ms"] = render_s * 1e3
    return m
