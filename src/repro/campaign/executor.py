"""Serial and process-pool execution of campaign run lists.

The executor turns a :class:`CampaignSpec` (or explicit RunSpec list)
into completed entries in a :class:`ResultStore`:

- runs whose key is already in the store are skipped (resume), and a
  key listed twice runs once,
- thermal indices are characterized once per (exp_id, grid) in the
  driver and persisted in the store,
- before any run starts, the driver builds every per-stack operator
  the pending runs will read (:meth:`ExperimentRunner.prepare`: thermal
  assemblies with their propagators, modal bases, power models) and
  hands these caches with the indices to every pool worker's
  :class:`ExperimentRunner` — ``map`` pools included — so no worker
  rebuilds them. Under ``fork`` the workers inherit them
  copy-on-write; under ``spawn`` and ``forkserver`` they are pickled,
  and each assembly's steady-state solver refactorizes its LU
  factorization on load,
- the ``batched`` backend packs compatible event runs into units that
  a worker advances through one fused tick loop
  (:class:`~repro.sched.batch.BatchSimulationEngine`); an eager run is
  a unit of its own, simulated by the serial engine,
- every pool unit runs under a wall-clock **watchdog**; a hung worker
  is killed, innocents are requeued uncharged, and the culprit is
  retried (see :class:`~repro.campaign.resilience.ResiliencePolicy`),
- one failure model on every backend: a run that raises is recorded as
  ``error`` at once, with no retry in that campaign, and the next
  campaign tries the key once more. Only a worker death or a watchdog
  timeout is retried, up to the policy's attempt budget, and a retried
  run is simulated again from tick 0. A fused unit that raises splits
  into singletons to find the failing lane.

Pool workers write the store: each publishes the run dirs of the units
it simulates (:func:`~repro.campaign.store.publish_run`, the code
:meth:`ResultStore.save` runs on the serial backend) and reports back
per lane only the key and whether its rename won. A result crosses the
pipe only when the executor has no store. The driver writes the rest:
thermal indices, failure records and the resilience tally. A store
error (an exception from a save, in the driver or in a worker) ends
the campaign; it is not a run failure. A worker that dies before its
rename leaves only a hidden temp dir, which is not a record, and the
unit is retried; one that dies after the rename but before reporting
leaves the key published, and the retry simulates the run again,
loses the rename and reports ``cached`` (``save-race``). A store has
one driver: a second driver on the same store duplicates work, and
the rename keeps each key published and charged once across every
process.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.runner import ExperimentRunner, RunnerCaches, RunSpec
from repro.campaign.faults import inject_fault, reset_fault_cache
from repro.campaign.resilience import ResiliencePolicy
from repro.campaign.spec import CampaignSpec, run_key
from repro.campaign.store import ResultStore, publish_run
from repro.errors import ConfigurationError, ReproError
from repro.obs.resilience import ResilienceStats
from repro.sched.engine import SimulationResult

#: ``progress(event, key, detail)`` with event in {"cached", "start",
#: "retry", "ok", "error"}.
ProgressCallback = Callable[[str, str, str], None]

BACKENDS = ("serial", "parallel", "batched")

#: Default lane count per fused batch of the ``batched`` backend.
DEFAULT_BATCH_SIZE = 16

#: What a pool unit reports per lane: ``(key, charged, result)``. With
#: a store the worker has published the run, ``charged`` says whether
#: its rename won, and ``result`` is None; without one the result
#: crosses the pipe and ``charged`` is True.
Lane = Tuple[str, bool, Optional[SimulationResult]]

# Per-worker state, created once by the pool initializer and reused for
# every run the worker executes.
_WORKER_RUNNER: Optional[ExperimentRunner] = None
_WORKER_STORE: Optional[str] = None  # root the worker publishes into

#: Attribute under which a pool worker attaches a failed run's error
#: record (:func:`_format_error`) to the exception it raises: formatted
#: while the run's traceback is live, since the pool hands the driver
#: the exception with only a text copy of it.
_RECORD = "campaign_error_record"


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _init_worker(
    caches: RunnerCaches, store_root: Optional[str] = None
) -> None:
    """Pool initializer: a plain runner holding the driver's caches,
    and the root of the store the worker publishes into (None: the
    worker returns its results instead).

    The one code path for every start method: ``fork`` inherits the
    arguments, ``spawn`` and ``forkserver`` unpickle them. The store is
    not opened: publishing lists no ``runs/`` and reads no record, and
    the driver's open already swept old temp dirs.
    """
    global _WORKER_RUNNER, _WORKER_STORE
    _WORKER_RUNNER = ExperimentRunner()
    _WORKER_RUNNER.install_caches(caches)
    _WORKER_STORE = store_root
    # Fault plans are env-driven and fire-once markers live on disk;
    # drop any injector state inherited from a forked parent.
    reset_fault_cache()


def worker_runner() -> ExperimentRunner:
    """The process-local :class:`ExperimentRunner` of a pool worker.

    Inside a worker of this module's pools the runner holds the
    driver's caches (thermal indices, assemblies with their solvers
    and modal bases, power models) and keeps every cache warm across
    the runs the worker executes. Called outside a pool (serial
    backend, driver process, tests) it lazily creates a plain runner,
    so ``sweep`` functions can use it unconditionally.
    """
    global _WORKER_RUNNER
    if _WORKER_RUNNER is None:
        _WORKER_RUNNER = ExperimentRunner()
    return _WORKER_RUNNER


def _publish_lanes(
    pairs: Sequence[Tuple[str, RunSpec]],
    results: Sequence[SimulationResult],
) -> Tuple[List[Lane], Optional[Exception]]:
    """Publish a unit's results in lane order; the lanes and any error.

    A save that raises is a store error, not a run failure: the worker
    stops there and hands the error back with the lanes published
    before it, and the driver raises it.
    """
    lanes: List[Lane] = []
    for (key, spec), result in zip(pairs, results):
        if _WORKER_STORE is None:
            lanes.append((key, True, result))
            continue
        try:
            _, charged = publish_run(_WORKER_STORE, spec, result)
        except Exception as exc:
            return lanes, exc
        lanes.append((key, charged, None))
    return lanes, None


def _simulate(pairs: Sequence[Tuple[str, RunSpec]]) -> List[SimulationResult]:
    """A pool unit's results: one run, or one fused batch.

    A run that raises leaves with its error record attached under
    :data:`_RECORD`, so the record a pool run leaves is the one line
    the serial backend records for it.
    """
    try:
        if _WORKER_RUNNER is None:
            # A plain raise (not assert): `python -O` strips asserts,
            # which would turn an initializer failure into a bare
            # AttributeError.
            raise RuntimeError("worker initializer did not run")
        inject_fault("worker_run", pairs[0][0])
        if len(pairs) == 1:
            return [_WORKER_RUNNER.run(pairs[0][1])]
        return _WORKER_RUNNER.run_batch([spec for _, spec in pairs])
    except Exception as exc:
        setattr(exc, _RECORD, _format_error(exc))
        raise


def _run_in_worker(
    pairs: Tuple[Tuple[str, RunSpec], ...],
) -> Tuple[List[Lane], Optional[Exception]]:
    """Simulate one pool unit and publish its runs."""
    return _publish_lanes(pairs, _simulate(pairs))


@dataclass(frozen=True)
class RunOutcome:
    """What happened to one run of a campaign."""

    key: str
    spec: RunSpec
    status: str  # "ok" | "error" | "cached"
    error: Optional[str] = None


@dataclass
class _UnitState:
    """Driver-side retry bookkeeping for one pool submission unit."""

    unit: List[Tuple[str, RunSpec]]
    attempts: int = 0
    deadline: float = 0.0  # monotonic; watchdog expiry of the attempt
    started: float = 0.0  # monotonic; submission time of the attempt


@dataclass
class CampaignRun:
    """Outcome list of one ``run_campaign`` invocation."""

    campaign: CampaignSpec
    outcomes: List[RunOutcome] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        """Outcome tally per status."""
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally

    def failed(self) -> Dict[str, str]:
        """Key -> error text for failed runs."""
        return {o.key: o.error or "" for o in self.outcomes
                if o.status == "error"}


class CampaignExecutor:
    """Runs campaign specs against an optional persistent store.

    Parameters
    ----------
    store:
        Result store for resume/persistence; ``None`` keeps results
        in memory only (used by ``run_policies`` and ``sweep``).
    backend:
        ``"serial"`` (in-process), ``"parallel"`` (process pool, one
        run per task) or ``"batched"`` (process pool, compatible event
        runs packed into fused :class:`~repro.sched.batch.\
BatchSimulationEngine` batches of up to ``batch_size`` lanes; eager
        runs and runs with no batch partner fall back to the plain
        per-run pool path).
    max_workers:
        Pool size for the pool backends (default:
        :func:`available_cpus`, the CPUs this process may run on).
    progress:
        Optional ``(event, key, detail)`` callback.
    runner:
        Runner for the serial backend and for thermal-index
        characterization (default: a fresh one). Passing the caller's
        runner shares its index cache.
    batch_size:
        Max lanes per fused batch (``batched`` backend only).
    telemetry:
        Collect engine telemetry (job stats, engine counters, tick
        profiler) for every run this executor computes. Observational:
        run keys ignore the flag, so telemetry-on campaigns still reuse
        plain cached results (those simply lack a telemetry sidecar).
    resilience:
        Watchdog deadline and attempt budget of the pool backends
        (default: :class:`ResiliencePolicy()`). A run that raises is
        recorded as failed at once on every backend; only a worker
        death or a watchdog timeout is retried, and only the pool
        backends have either (an in-process crash takes the serial
        driver down with it).

    After each ``run_campaign``/``run_specs`` call, ``stats`` holds the
    resilience counters of that execution (also merged into the store's
    cumulative ``resilience.json`` when a store is attached).
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        backend: str = "parallel",
        max_workers: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
        runner: Optional[ExperimentRunner] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        telemetry: bool = False,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; known: {list(BACKENDS)}"
            )
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1")
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        resilience = (
            resilience if resilience is not None else ResiliencePolicy()
        )
        self.store = store
        self.backend = backend
        self.max_workers = max_workers or available_cpus()
        self.progress = progress
        self.runner = runner if runner is not None else ExperimentRunner()
        self.batch_size = batch_size
        self.telemetry = telemetry
        self.resilience = resilience
        self.stats = ResilienceStats()

    # ------------------------------------------------------------------
    # public API

    def run_campaign(self, campaign: CampaignSpec) -> CampaignRun:
        """Execute every pending run of ``campaign``.

        A run that fails becomes an ``error`` outcome and the campaign
        goes on; the next campaign tries it once more. A store error
        does not: an ``OSError`` from saving a result, in the driver or
        in a pool worker, ends the campaign and propagates. Runs saved
        before it stay in the store, so the next campaign serves them
        and simulates the rest from tick 0.
        """
        outcomes, _ = self._execute(campaign.expand_keyed(), strict=False,
                                    keep_results=False)
        return CampaignRun(campaign=campaign, outcomes=outcomes)

    def run_specs(
        self, specs: Sequence[RunSpec]
    ) -> Dict[str, SimulationResult]:
        """Execute explicit specs and return their results by run key.

        Strict: the first failing run raises its own exception, and so
        does a store error (an ``OSError`` from a save; see
        :meth:`run_campaign`). With a store attached the returned
        results are store round-trips, so values are identical whether
        a run was computed now or loaded from a previous campaign.
        """
        outcomes, results = self._execute(
            [(run_key(spec), spec) for spec in specs], strict=True,
            keep_results=self.store is None,
        )
        if self.store is None:
            return {o.key: results[o.key] for o in outcomes}
        loaded: Dict[str, SimulationResult] = {}
        for o in outcomes:
            if not self.store.has(o.key):
                raise ConfigurationError(
                    f"run {o.key!r} completed but its run dir is "
                    "incomplete on disk"
                )
            loaded[o.key] = self.store.load(o.key)
        return loaded

    def map(self, fn: Callable[[Any], Any], values: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` over ``values`` on this executor's backend.

        Generic escape hatch used by :func:`repro.analysis.sweep.sweep`;
        the parallel backend requires ``fn`` and the values to be
        picklable (module-level functions, not lambdas).

        The pool starts through the same :func:`_init_worker`
        initializer as campaign runs, with this executor's runner's
        caches: a mapped ``fn`` that simulates via
        :func:`worker_runner` reuses every index and operator the
        runner holds instead of rebuilding it per process. ``map``
        cannot see which stacks ``fn`` will use; call
        ``runner.prepare`` first to have them built once.
        """
        values = list(values)
        if self.backend == "serial" or len(values) <= 1:
            return [fn(value) for value in values]
        workers = min(self.max_workers, len(values))
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(self.runner.caches(),),
        ) as pool:
            return list(pool.map(fn, values))

    # ------------------------------------------------------------------
    # internals

    def _emit(self, event: str, key: str, detail: str = "") -> None:
        if self.progress is not None:
            self.progress(event, key, detail)

    def _execute(
        self, keyed: List[Tuple[str, RunSpec]], strict: bool,
        keep_results: bool,
    ) -> Tuple[List[RunOutcome], Dict[str, SimulationResult]]:
        outcome_by_key: Dict[str, RunOutcome] = {}
        results: Dict[str, SimulationResult] = {}
        self.stats = ResilienceStats()

        keys: List[str] = []  # each key once, in first-listed order
        pending: Dict[str, RunSpec] = {}
        for key, spec in keyed:
            if key in outcome_by_key or key in pending:
                continue
            keys.append(key)
            if self.store is not None and self.store.has(key):
                outcome_by_key[key] = RunOutcome(key, spec, "cached")
                self._emit("cached", key)
            else:
                if self.telemetry and not spec.telemetry:
                    # Key-neutral: run_key ignores the telemetry flag,
                    # so resume/caching behave exactly as without it.
                    spec = replace(spec, telemetry=True)
                pending[key] = spec

        try:
            if pending:
                pairs = list(pending.items())
                self._share_thermal_indices(pairs)
                self.runner.prepare(spec for _, spec in pairs)
                if self.backend == "serial":
                    self._run_serial(pairs, strict, outcome_by_key, results)
                else:
                    self._run_pool(self._make_units(pairs), strict,
                                   outcome_by_key, results)
        finally:
            if self.store is not None:
                tally = self.stats.snapshot()
                if any(tally.values()):
                    try:
                        self.store.record_resilience(tally)
                    except OSError:
                        pass  # telemetry only; never fail the campaign

        ordered = [outcome_by_key[key] for key in keys
                   if key in outcome_by_key]
        if not keep_results:
            results = {}
        return ordered, results

    def _share_thermal_indices(
        self, pending: List[Tuple[str, RunSpec]]
    ) -> None:
        """Characterize (or reload) indices once per (exp_id, grid).

        A stack that fails to build is skipped, as in
        :meth:`ExperimentRunner.prepare`: its runs raise the same error
        as their own failures.
        """
        combos = []
        for _, spec in pending:
            combo = (spec.exp_id, (spec.grid[0], spec.grid[1]))
            if combo not in combos:
                combos.append(combo)
        for exp_id, grid in combos:
            indices = None
            if self.store is not None:
                indices = self.store.load_thermal_indices(exp_id, grid)
            if indices is not None:
                self.runner.seed_thermal_indices(exp_id, grid, indices)
            else:
                try:
                    indices = self.runner.thermal_indices(exp_id, grid)
                except ReproError:
                    continue
                if self.store is not None:
                    self.store.save_thermal_indices(exp_id, grid, indices)

    def _record_ok(
        self,
        key: str,
        spec: RunSpec,
        charged: bool,
        outcomes: Dict[str, RunOutcome],
    ) -> None:
        outcomes[key] = RunOutcome(key, spec, "ok")
        if charged:
            self._emit("ok", key)
        else:
            # Another process published this key's run dir first;
            # identical result, but the charge belongs to the rename
            # winner.
            self._emit("cached", key, "save-race")

    def _record_error(
        self,
        key: str,
        spec: RunSpec,
        message: str,
        outcomes: Dict[str, RunOutcome],
    ) -> None:
        if self.store is not None:
            try:
                self.store.record_failure(spec, message)
            except OSError:
                pass  # advisory record; the in-memory outcome stands
        outcomes[key] = RunOutcome(key, spec, "error", error=message)
        self._emit("error", key, message)

    def _run_serial(
        self,
        pending: List[Tuple[str, RunSpec]],
        strict: bool,
        outcomes: Dict[str, RunOutcome],
        results: Dict[str, SimulationResult],
    ) -> None:
        for key, spec in pending:
            self._emit("start", key)
            try:
                result = self.runner.run(spec)
            except Exception as exc:
                self._record_error(key, spec, _format_error(exc), outcomes)
                if strict:
                    raise
            else:
                charged = True
                if self.store is not None:
                    self.store.save(spec, result)
                    charged = self.store.last_save_charged
                results[key] = result
                self._record_ok(key, spec, charged, outcomes)

    def _make_units(
        self, pending: List[Tuple[str, RunSpec]]
    ) -> List[List[Tuple[str, RunSpec]]]:
        """Partition pending runs into pool submission units.

        The ``parallel`` backend takes one run per unit. The
        ``batched`` backend groups batch-compatible event runs (same
        exp, grid, duration — :meth:`ExperimentRunner.\
batch_group_key`) into units of up to ``batch_size`` lanes that a
        worker advances through one fused tick loop; eager runs and
        incompatible leftovers stay singleton units on the plain
        per-run path.
        Within a group the chunk size is also capped so one compatible
        sweep splits across the whole pool (a single 16-lane batch on
        an 8-worker pool would leave 7 workers idle and lose to the
        plain parallel backend); batches keep at least 2 lanes so the
        fused loop still amortizes something.
        """
        if self.backend != "batched":
            return [[pair] for pair in pending]
        specs = [spec for _, spec in pending]
        units: List[List[Tuple[str, RunSpec]]] = []
        for group in ExperimentRunner.group_batchable(specs):
            per_worker = -(-len(group) // self.max_workers)  # ceil
            chunk = min(self.batch_size, max(2, per_worker))
            for start in range(0, len(group), chunk):
                units.append(
                    [pending[i] for i in group[start:start + chunk]]
                )
        return units

    def _run_pool(
        self,
        units: List[List[Tuple[str, RunSpec]]],
        strict: bool,
        outcomes: Dict[str, RunOutcome],
        results: Dict[str, SimulationResult],
    ) -> None:
        """Drive submission units through a watchdogged pool.

        A unit is either one run or one fused batch. A run that raises
        is recorded as ``error`` at once: runs are deterministic, so a
        retry would raise again. A fused unit that raises is split into
        singletons, so the failure isolates to the offending spec
        instead of poisoning its batch mates.

        Only the environment failing is retried, up to the policy's
        attempt budget. Each submitted attempt carries a wall-clock
        deadline; when it expires the pool is killed (the only way to
        reap a hung worker), innocents are requeued uncharged, and the
        culprit is retried on a fresh pool. A worker crash
        (``BrokenProcessPool``) is handled the same way, blamed on the
        first unit observed failing.

        A store error a worker hands back raises here, after the lanes
        it published are recorded, and the pool is killed so no worker
        publishes after the campaign ends.

        In strict mode the queue still drains completely (matching the
        store-everything semantics of ``run_specs``) and the first
        terminal failure raises at the end.
        """
        policy = self.resilience
        initargs = (
            self.runner.caches(),
            None if self.store is None else str(self.store.root),
        )
        queue: Deque[_UnitState] = deque(
            _UnitState(unit=unit) for unit in units
        )
        inflight: Dict[Any, _UnitState] = {}
        pool: Optional[ProcessPoolExecutor] = None
        first_error: Optional[Exception] = None

        def submit(state: _UnitState) -> None:
            state.started = time.monotonic()
            duration = max(spec.duration_s for _, spec in state.unit)
            state.deadline = state.started + policy.unit_deadline_s(
                duration, len(state.unit)
            )
            for key, _ in state.unit:
                self._emit("start", key)
            # Raises BrokenProcessPool when a worker died since the last
            # wake; the unit is then not charged an attempt.
            inflight[pool.submit(_run_in_worker, tuple(state.unit))] = state
            state.attempts += 1

        def kill_pool() -> None:
            # Cooperative shutdown never reaps a worker stuck inside a
            # run; kill the processes first, then drop the executor.
            # `_processes` is a CPython implementation detail, hence
            # the guard — without it this degrades to a plain
            # shutdown, never a crash.
            nonlocal pool
            if pool is None:
                return
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.kill()
                except Exception:
                    pass
            pool.shutdown(wait=False, cancel_futures=True)
            pool = None

        def requeue_innocents() -> None:
            # Bystanders of a pool kill get their attempt back: their
            # eviction says nothing about their own run.
            for state in inflight.values():
                state.attempts -= 1
                queue.append(state)
            inflight.clear()

        def fail_transient(state: _UnitState, message: str) -> None:
            # Crash/timeout: environment trouble, not the run's fault.
            # Retry on a fresh pool while attempts remain.
            nonlocal first_error
            key0, spec0 = state.unit[0]
            if state.attempts < policy.max_attempts:
                self.stats.retry()
                self._emit("retry", key0, message)
                queue.append(state)
                return
            elapsed = time.monotonic() - state.started
            full = f"{message} (attempt {state.attempts}, {elapsed:.1f}s)"
            if strict and first_error is None:
                first_error = ConfigurationError(full)
            # Best available attribution: blame the first lane only;
            # its batch mates are retried as fresh singletons instead
            # of inheriting an error entry they did nothing to earn.
            self._record_error(key0, spec0, full, outcomes)
            for pair in state.unit[1:]:
                queue.append(_UnitState(unit=[pair]))

        try:
            while queue or inflight:
                if pool is None:
                    pool = ProcessPoolExecutor(
                        max_workers=min(
                            self.max_workers, max(len(queue), 1)
                        ),
                        initializer=_init_worker,
                        initargs=initargs,
                    )
                try:
                    while queue and len(inflight) < self.max_workers:
                        submit(queue[0])
                        queue.popleft()
                except BrokenProcessPool:
                    # The pool takes no more units, so this one stays
                    # queued. An inflight future reports the crash
                    # below; with none inflight, start a fresh pool.
                    if not inflight:
                        kill_pool()
                        continue
                timeout = min(
                    state.deadline for state in inflight.values()
                ) - time.monotonic()
                # A wait past TIMEOUT_MAX overflows; a deadline that
                # far off is simply waited for again on the next wake.
                done, _ = wait(
                    set(inflight),
                    timeout=min(max(timeout, 0.05), threading.TIMEOUT_MAX),
                    return_when=FIRST_COMPLETED,
                )
                crashed = False
                for future in done:
                    state = inflight.pop(future, None)
                    if state is None:
                        continue
                    unit = state.unit
                    try:
                        payload = future.result()
                    except BrokenProcessPool as exc:
                        if crashed:
                            # Collateral of the crash already blamed
                            # this wake; requeue uncharged.
                            state.attempts -= 1
                            queue.append(state)
                            continue
                        crashed = True
                        self.stats.crash()
                        fail_transient(
                            state,
                            "worker process crashed during this run: "
                            f"{exc}",
                        )
                    except Exception as exc:
                        if len(unit) > 1:
                            # One lane poisoned the whole batch; run
                            # its members alone to find it.
                            for pair in unit:
                                queue.append(_UnitState(unit=[pair]))
                            continue
                        if strict and first_error is None:
                            first_error = exc
                        key, spec = unit[0]
                        message = (getattr(exc, _RECORD, None)
                                   or _format_error(exc))
                        self._record_error(key, spec, message, outcomes)
                    else:
                        lanes, store_error = payload
                        specs = dict(unit)
                        for key, charged, result in lanes:
                            if self.store is None:
                                results[key] = result
                            else:
                                self.store.note_saved(key, specs[key])
                            self._record_ok(key, specs[key], charged,
                                            outcomes)
                        if store_error is not None:
                            raise store_error
                if crashed:
                    # The remaining inflight futures all ride the same
                    # broken pool; requeue them onto a fresh one.
                    requeue_innocents()
                    kill_pool()
                    continue
                # Watchdog: expire overdue attempts. Killing the pool
                # is the only way to reap a hung worker, so innocents
                # requeue uncharged alongside the culprit's retry.
                now = time.monotonic()
                expired = [
                    future for future, state in inflight.items()
                    if state.deadline <= now and not future.done()
                ]
                if expired:
                    for future in expired:
                        state = inflight.pop(future)
                        budget = state.deadline - state.started
                        self.stats.timeout()
                        fail_transient(
                            state,
                            "run exceeded its "
                            f"{budget:.0f}s watchdog deadline",
                        )
                    requeue_innocents()
                    kill_pool()
        except BaseException:
            # The campaign ends here (a store error, an interrupt).
            kill_pool()
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        if strict and first_error is not None:
            raise first_error


def _format_error(exc: BaseException) -> str:
    """One-line error class + message plus the root-cause frame.

    The location comes from the end of the exception's cause chain
    (``__cause__``, falling back to a non-suppressed ``__context__``),
    so a run that wraps a low-level failure — ``raise
    ConfigurationError(...) from exc`` — still points at the line that
    actually went wrong, and the root cause's own type/message is
    appended when it differs from the outer exception. A pool worker
    calls it while the run's traceback is live (:func:`_simulate`), so
    a run records the same line on every backend.
    """
    root = exc
    seen = {id(root)}
    while True:
        nxt = root.__cause__
        if nxt is None and not root.__suppress_context__:
            nxt = root.__context__
        if nxt is None or id(nxt) in seen:
            break
        seen.add(id(nxt))
        root = nxt
    frames = traceback.extract_tb(root.__traceback__)
    location = f" [{frames[-1].filename}:{frames[-1].lineno}]" if frames else ""
    message = f"{type(exc).__name__}: {exc}"
    if root is not exc:
        message += f" (caused by {type(root).__name__}: {root})"
    return message + location
