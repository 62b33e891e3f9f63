"""ExperimentRunner: build and run one (EXP, policy, workload) study.

This is the top of the stack: it assembles the thermal model, power
model, thermal indices, policy, and workload into a
:class:`~repro.sched.engine.SimulationEngine`, with every knob
defaulted to the paper's setup. The figure benches and examples all go
through here. :meth:`ExperimentRunner.run_batch` fuses compatible
event runs into one :class:`~repro.sched.batch.BatchSimulationEngine`
tick loop; an eager run always runs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.base import SystemView
from repro.core.registry import build_policy
from repro.core.thermal_index import compute_thermal_indices
from repro.errors import ConfigurationError, ReproError
from repro.floorplan.experiments import ExperimentConfig, build_experiment
from repro.obs.telemetry import TelemetryConfig
from repro.power.chip_power import ChipPowerModel
from repro.power.vf import DEFAULT_VF_TABLE
from repro.sched.dpm import FixedTimeoutDPM
from repro.sched.engine import EngineConfig, SimulationEngine, SimulationResult
from repro.sched.workload_source import ClosedLoopSource, WorkloadSource
from repro.thermal.model import ThermalAssembly, ThermalModel
from repro.workload.benchmarks import default_server_mix
from repro.workload.generator import SyntheticWorkload


@dataclass(frozen=True)
class RunSpec:
    """Declarative description of one simulation run.

    Attributes
    ----------
    exp_id:
        The paper's EXP-1..4 stack configuration.
    policy:
        Registry name, e.g. ``"Adapt3D"`` or ``"Adapt3D&DVFS_TT"``.
    duration_s:
        Simulated seconds, stored as a float, finite and above 0 (the
        paper ran 30-minute traces; the benches default shorter for
        runtime, see EXPERIMENTS.md).
    with_dpm:
        Enable the fixed-timeout power manager (Figures 4-6).
    seed:
        Workload + policy seed.
    grid:
        Thermal grid resolution (rows, cols): two positive ints, stored
        as a tuple.
    benchmark_mix:
        Optional explicit (benchmark name, thread count) pairs; defaults
        to the consolidated server mix sized to the core count.
    policy_params:
        Optional (name, value) pairs forwarded to the policy
        constructor — lets ablation sweeps (e.g. Adapt3D's beta
        constants) stay declarative and campaign-hashable.
    sensor_noise_sigma:
        Additive Gaussian sensor noise in kelvin, stored as a float,
        finite and at least 0 (0 = ideal sensors); the sensor-noise
        campaign axis plumbs through here.
    workload_mix:
        Optional named workload-mix scenario
        (:func:`repro.workload.benchmarks.named_mix`), scaled to the
        stack's core count at build time. Mutually exclusive with
        ``benchmark_mix``.
    fidelity:
        Interval-execution fidelity: ``"event"`` (default; event-driven
        time advance: lazy per-core spans, and the clock jumps between
        heap events over a reduced-order modal thermal stepper) or
        ``"eager"`` (the per-event reference semantics). Event tracks
        eager within the tolerance documented in docs/ENGINE.md, and
        every event path — clock jumps, batched lanes — gives one
        result per spec, bit for bit.
    telemetry:
        Collect engine telemetry (per-job stats, engine counters,
        tick-phase profile) during the run. Strictly
        observational — results are identical either way — so the flag
        is **excluded from the campaign run key** (see
        ``repro.campaign.spec``): cached results satisfy telemetry-on
        requests and vice versa. Trace-event recording is not enabled
        here (it is sized per run by the ``repro trace`` CLI).
    """

    exp_id: int
    policy: str
    duration_s: float = 120.0
    with_dpm: bool = False
    seed: int = 2009
    grid: Tuple[int, int] = (8, 8)
    benchmark_mix: Optional[Tuple[Tuple[str, int], ...]] = None
    policy_params: Optional[Tuple[Tuple[str, float], ...]] = None
    sensor_noise_sigma: float = 0.0
    workload_mix: Optional[str] = None
    fidelity: str = "event"
    telemetry: bool = False

    def __post_init__(self) -> None:
        # One value, one key: the run key hashes each field's JSON, in
        # which 2 and 2.0, or [4, 4] and (4, 4), are spelled apart.
        object.__setattr__(self, "grid", check_grid(self.grid))
        object.__setattr__(self, "duration_s",
                           check_duration(self.duration_s))
        object.__setattr__(self, "sensor_noise_sigma",
                           check_noise_sigma(self.sensor_noise_sigma))


def check_grid(grid: object) -> Tuple[int, int]:
    """``grid`` as a ``(rows, cols)`` tuple of two positive ints.

    Anything else (bools included) raises :class:`ConfigurationError`:
    a runner reads only ``grid[0]`` and ``grid[1]``, so ``(4, 4, 4)``
    would run a 4x4 simulation under a key no 4x4 request hits.
    """
    if (
        isinstance(grid, (list, tuple))
        and len(grid) == 2
        and all(
            isinstance(n, int) and not isinstance(n, bool) and n > 0
            for n in grid
        )
    ):
        return (grid[0], grid[1])
    raise ConfigurationError(
        f"grid {grid!r} is not two positive ints (rows, cols)"
    )


def check_duration(duration_s: object) -> float:
    """``duration_s`` as a float: finite and at least one tick long.

    Anything else raises :class:`ConfigurationError`. The engine runs
    ``round(duration_s / sampling_interval_s)`` ticks and refuses zero,
    so a duration that rounds to no tick at
    ``EngineConfig.sampling_interval_s`` is refused here, before any
    engine or pool starts; NaN or infinity has no tick count.
    """
    value = _finite_float(duration_s, "duration_s")
    # round() halves to even: 0.5 ticks is 0, anything above is >= 1.
    if value / EngineConfig.sampling_interval_s > 0.5:
        return value
    raise ConfigurationError(
        f"duration_s {duration_s!r} is shorter than one "
        f"{EngineConfig.sampling_interval_s} s tick"
    )


def check_noise_sigma(sigma: object) -> float:
    """``sigma`` as a float: finite and at least 0 K.

    Anything else raises :class:`ConfigurationError`: a NaN sigma would
    draw no noise under a key of its own. ``-0.0`` is returned as
    ``0.0``, which it equals but would not key as.
    """
    value = _finite_float(sigma, "sensor_noise_sigma")
    if value >= 0.0:
        return value + 0.0
    raise ConfigurationError(f"sensor_noise_sigma {sigma!r} is below 0 K")


def _finite_float(value: object, name: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if math.isfinite(out):
        return out
    raise ConfigurationError(f"{name} {value!r} is not a finite number")


#: Key of the per-stack caches: ``(exp_id, (grid_rows, grid_cols))``.
StackKey = Tuple[int, Tuple[int, int]]


@dataclass(frozen=True)
class RunnerCaches:
    """The caches of an :class:`ExperimentRunner`, shared, not copied.

    What a campaign driver hands its pool workers: thermal indices and
    :class:`ThermalAssembly` objects per stack, power models per
    exp_id. Everything here pickles, for the start methods that send
    initializer arguments to a worker.
    """

    indices: Dict[StackKey, Dict[str, float]]
    assemblies: Dict[StackKey, ThermalAssembly]
    power: Dict[int, ChipPowerModel]


class ExperimentRunner:
    """Builds engines from :class:`RunSpec` values, caching system setup.

    Three caches amortize engine assembly across runs, keyed so every
    run on the same stack shares them:

    - thermal indices per (exp_id, grid) — a steady-state solve that
      every policy on the same stack shares,
    - the :class:`~repro.thermal.model.ThermalAssembly` per (exp_id,
      grid) — RC network assembly, the LU factorization, the interval
      propagator and the modal basis; the runner always builds stacks
      from the experiment configuration with the default sampling
      parameters, so the key fully determines the assembly,
    - the (stateless) :class:`ChipPowerModel` per exp_id.

    The frozen :class:`ExperimentConfig` is cached per exp_id too, beside
    the power model: building it re-validates every floorplan (an
    O(n²) overlap check). It stays out of :class:`RunnerCaches`, since
    any process rebuilds it in well under a millisecond.

    A campaign driver fills them for every pending run
    (:meth:`prepare`) and installs them in each pool worker's runner
    (:meth:`caches`, :meth:`install_caches`).
    """

    def __init__(self) -> None:
        self._index_cache: Dict[StackKey, Dict[str, float]] = {}
        self._assembly_cache: Dict[StackKey, ThermalAssembly] = {}
        self._power_cache: Dict[int, ChipPowerModel] = {}
        self._config_cache: Dict[int, ExperimentConfig] = {}

    # ------------------------------------------------------------------

    def _experiment(self, exp_id: int) -> ExperimentConfig:
        config = self._config_cache.get(exp_id)
        if config is None:
            config = self._config_cache[exp_id] = build_experiment(exp_id)
        return config

    def _build_thermal(
        self,
        exp_id: int,
        grid: Tuple[int, int],
        config: ExperimentConfig,
    ) -> ThermalModel:
        key = (exp_id, (grid[0], grid[1]))
        thermal = ThermalModel(
            config,
            nrows=grid[0],
            ncols=grid[1],
            assembly=self._assembly_cache.get(key),
        )
        self._assembly_cache[key] = thermal.assembly
        return thermal

    def _build_power(self, exp_id: int, config: ExperimentConfig) -> ChipPowerModel:
        if exp_id not in self._power_cache:
            self._power_cache[exp_id] = ChipPowerModel(config)
        return self._power_cache[exp_id]

    def build_engine(
        self,
        spec: RunSpec,
        telemetry_config: Optional[TelemetryConfig] = None,
    ) -> SimulationEngine:
        """Assemble the full simulation stack for one run.

        ``telemetry_config`` overrides the default telemetry wiring
        (the ``repro trace`` CLI passes one with trace recording on);
        without it ``spec.telemetry`` selects a plain
        :class:`TelemetryConfig` or none at all.
        """
        config = self._experiment(spec.exp_id)
        thermal = self._build_thermal(spec.exp_id, spec.grid, config)
        power = self._build_power(spec.exp_id, config)
        indices = self._thermal_indices(spec, config, thermal, power)

        positions = {}
        for plan in config.layers:
            for unit in plan.cores():
                positions[unit.name] = unit.center
        view = SystemView(
            core_names=tuple(power.core_names),
            core_layer=config.core_layer_map(),
            n_layers=config.n_layers,
            vf_table=DEFAULT_VF_TABLE,
            thermal_indices=indices,
            core_positions=positions,
        )

        workload = self._build_workload(spec, config)
        policy = build_policy(spec.policy, **dict(spec.policy_params or ()))
        engine_config = EngineConfig(
            duration_s=spec.duration_s,
            dpm=FixedTimeoutDPM() if spec.with_dpm else None,
            sensor_noise_sigma=spec.sensor_noise_sigma,
            seed=spec.seed,
            fidelity=spec.fidelity,
            telemetry=(
                telemetry_config
                if telemetry_config is not None
                else (TelemetryConfig() if spec.telemetry else None)
            ),
        )
        return SimulationEngine(
            thermal=thermal,
            power=power,
            policy=policy,
            workload=workload,
            config=engine_config,
            system_view=view,
        )

    def prepare(self, specs: Iterable[RunSpec]) -> None:
        """Build every per-stack operator the given runs will read.

        Per stack this builds the :class:`ThermalAssembly` (with its
        propagator) and the power model, and the modal basis when an
        event spec runs there (serial event runs and batched event
        lanes both step it). Thermal indices are left to
        :meth:`thermal_indices`.

        Operators that fail to build are skipped: the runs that need
        them raise the same error when they run.
        """
        # (exp_id, grid) -> whether an event spec needs the modal basis.
        needs: Dict[StackKey, bool] = {}
        for spec in specs:
            key = (spec.exp_id, (spec.grid[0], spec.grid[1]))
            needs[key] = needs.get(key, False) or spec.fidelity == "event"
        for (exp_id, grid), modal in needs.items():
            try:
                config = self._experiment(exp_id)
                self._build_power(exp_id, config)
                thermal = self._build_thermal(exp_id, grid, config)
                if modal:
                    # The event loop's own entry point.
                    thermal.modal_jump()
            except ReproError:
                continue

    def caches(self) -> RunnerCaches:
        """This runner's caches, for :meth:`install_caches` elsewhere."""
        return RunnerCaches(
            indices=dict(self._index_cache),
            assemblies=dict(self._assembly_cache),
            power=dict(self._power_cache),
        )

    def install_caches(self, caches: RunnerCaches) -> None:
        """Adopt another runner's caches (a pool worker adopts its
        campaign driver's), so runs on those stacks build nothing."""
        self._index_cache.update(caches.indices)
        self._assembly_cache.update(caches.assemblies)
        self._power_cache.update(caches.power)

    def run(self, spec: RunSpec) -> SimulationResult:
        """Build and execute one run."""
        return self.build_engine(spec).run()

    @staticmethod
    def batch_group_key(spec: RunSpec) -> Optional[Tuple]:
        """Compatibility key of the batched engine, or ``None`` for a
        spec that runs alone.

        Event runs sharing this key can ride one
        :class:`~repro.sched.batch.BatchSimulationEngine` tick loop:
        same stack and grid (one :class:`ThermalAssembly`) and the same
        duration (the fused loop advances every lane the same number
        of ticks). Policies, seeds, DPM, mixes and sensor noise may
        differ within a group. An eager run, the per-event reference,
        never fuses.
        """
        if spec.fidelity != "event":
            return None
        return (spec.exp_id, (spec.grid[0], spec.grid[1]), spec.duration_s)

    @classmethod
    def group_batchable(
        cls, specs: Sequence[RunSpec]
    ) -> List[List[int]]:
        """Partition spec indices into batch-compatible groups.

        Each eager spec is a group of its own. Groups preserve
        first-occurrence order and each group preserves input order,
        so callers can map results back by index.
        """
        groups: List[List[int]] = []
        by_key: Dict[Tuple, List[int]] = {}
        for i, spec in enumerate(specs):
            key = cls.batch_group_key(spec)
            if key is None:
                groups.append([i])
            elif key in by_key:
                by_key[key].append(i)
            else:
                by_key[key] = [i]
                groups.append(by_key[key])
        return groups

    def run_batch(
        self, specs: Sequence[RunSpec], propagation: str = "exact"
    ) -> List[SimulationResult]:
        """Run several specs, batching compatible ones into fused loops.

        Specs are grouped by :meth:`group_batchable`; each multi-run
        group of event specs advances through one
        :class:`~repro.sched.batch.BatchSimulationEngine` (every lane
        shares this runner's cached :class:`ThermalAssembly` and power
        model), and every other spec runs alone through :meth:`run`.
        Results come back in input order, each bit-identical to
        :meth:`run` on the same spec.

        ``propagation`` accepts only ``"exact"`` and raises
        :class:`~repro.errors.ConfigurationError` for anything else.
        perfbench's seed-batch check still passes it; a change to the
        benchmark removes that argument and this parameter together
        (ROADMAP item 1).
        """
        from repro.sched.batch import BatchSimulationEngine

        if propagation != "exact":
            raise ConfigurationError(
                f"unknown propagation mode {propagation!r}; the batched "
                "engine has one thermal step, 'exact'"
            )
        specs = list(specs)
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        for group in self.group_batchable(specs):
            if len(group) == 1:
                results[group[0]] = self.run(specs[group[0]])
                continue
            lanes = [self.build_engine(specs[i]) for i in group]
            batch = BatchSimulationEngine(lanes)
            for i, result in zip(group, batch.run()):
                results[i] = result
        return results  # type: ignore[return-value]

    def run_policies(
        self,
        base: RunSpec,
        policies: Sequence[str],
        executor: Optional["object"] = None,
    ) -> Dict[str, SimulationResult]:
        """Run several policies on otherwise identical specs.

        Delegates to the campaign executor; pass a configured
        :class:`~repro.campaign.executor.CampaignExecutor` to run the
        policies in parallel or against a persistent result store. The
        default is the in-process serial backend, reusing this runner's
        thermal-index cache.
        """
        from repro.campaign.executor import CampaignExecutor
        from repro.campaign.spec import run_key

        if executor is None:
            executor = CampaignExecutor(backend="serial", runner=self)
        specs = [replace(base, policy=name) for name in policies]
        results = executor.run_specs(specs)
        return {spec.policy: results[run_key(spec)] for spec in specs}

    # ------------------------------------------------------------------

    def thermal_indices(
        self, exp_id: int, grid: Tuple[int, int] = (8, 8)
    ) -> Dict[str, float]:
        """Thermal indices for (exp_id, grid), computed once and cached.

        Campaigns persist these per (exp_id, grid) in the store and
        hand them to pool workers with the rest of :meth:`caches`, so
        no process redoes the steady-state solve.
        """
        key = (exp_id, (grid[0], grid[1]))
        if key not in self._index_cache:
            config = self._experiment(exp_id)
            thermal = self._build_thermal(exp_id, grid, config)
            power = self._build_power(exp_id, config)
            self._index_cache[key] = compute_thermal_indices(thermal, power)
        return self._index_cache[key]

    def seed_thermal_indices(
        self, exp_id: int, grid: Tuple[int, int], indices: Dict[str, float]
    ) -> None:
        """Pre-populate the index cache (e.g. from a campaign store)."""
        self._index_cache[(exp_id, (grid[0], grid[1]))] = dict(indices)

    def seeded_indices(self) -> Dict[StackKey, Dict[str, float]]:
        """Snapshot of the whole index cache, in seeding form."""
        return {key: dict(value) for key, value in self._index_cache.items()}

    def _thermal_indices(
        self,
        spec: RunSpec,
        config: ExperimentConfig,
        thermal: ThermalModel,
        power: ChipPowerModel,
    ) -> Dict[str, float]:
        key = (spec.exp_id, spec.grid)
        if key not in self._index_cache:
            self._index_cache[key] = compute_thermal_indices(thermal, power)
        return self._index_cache[key]

    def _build_workload(
        self, spec: RunSpec, config: ExperimentConfig
    ) -> WorkloadSource:
        if spec.workload_mix is not None and spec.benchmark_mix is not None:
            raise ConfigurationError(
                "set either workload_mix (named scenario) or "
                "benchmark_mix (explicit pairs), not both"
            )
        if spec.workload_mix is not None:
            from repro.workload.benchmarks import named_mix

            mix = named_mix(spec.workload_mix, config.n_cores)
        elif spec.benchmark_mix is None:
            mix = default_server_mix(config.n_cores)
        else:
            from repro.workload.benchmarks import benchmark

            mix = [(benchmark(name), count) for name, count in spec.benchmark_mix]
        workload = SyntheticWorkload(mix, seed=spec.seed)
        return ClosedLoopSource(workload)
