"""Policy framework: contexts, actions, and the policy base class.

The engine calls a policy at two points:

- **job arrival** — ``select_core(job, ctx)`` returns the name of the
  core whose dispatch queue receives the job;
- **sampling tick** (every 100 ms) — ``on_tick(ctx)`` returns a
  :class:`PolicyActions` with V/f settings, clock-gating, and migrations
  to apply for the next interval.

Policies see only what the paper's runtime sees: sensor temperatures,
last-interval utilization, queue lengths, and static system facts
(:class:`SystemView`). No offline IPC profiling — that is the paper's
stated advantage over Zhu et al. [28].
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import PolicyError
from repro.power.states import CODE_STATE, STATE_CODE, CoreState
from repro.power.vf import VFTable
from repro.thermal.materials import kelvin
from repro.workload.job import Job

# The paper's thresholds (§III-B): 85 C critical, 80 C preferred.
DEFAULT_THRESHOLD_K = kelvin(85.0)
DEFAULT_PREFERRED_K = kelvin(80.0)


@dataclass(frozen=True)
class SystemView:
    """Static facts a policy may use.

    Attributes
    ----------
    core_names:
        All cores in canonical (layer-major) order.
    core_layer:
        Core name -> tier index (0 = adjacent to the heat sink).
    n_layers:
        Number of silicon tiers.
    vf_table:
        The available V/f settings.
    thermal_threshold_k:
        The critical temperature (85 C in the paper).
    preferred_temperature_k:
        The safe operating target T_pref (80 C in the paper).
    thermal_indices:
        Core name -> alpha in (0, 1); higher = more hot-spot prone.
        Computed offline from steady-state analysis
        (:func:`repro.core.thermal_index.compute_thermal_indices`).
    core_positions:
        Core name -> (x, y) die coordinates of the core center, used by
        the floorplan-aware DVFS policy.
    """

    core_names: Tuple[str, ...]
    core_layer: Mapping[str, int]
    n_layers: int
    vf_table: VFTable
    thermal_threshold_k: float = DEFAULT_THRESHOLD_K
    preferred_temperature_k: float = DEFAULT_PREFERRED_K
    thermal_indices: Mapping[str, float] = field(default_factory=dict)
    core_positions: Mapping[str, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.core_names:
            raise PolicyError("system has no cores")
        for name, alpha in self.thermal_indices.items():
            if not 0.0 < alpha < 1.0:
                raise PolicyError(
                    f"thermal index of {name!r} must be in (0,1), got {alpha}"
                )


class ArrayBackedMapping(Mapping):
    """Read-only, *live* name->value Mapping view over a NumPy array.

    The engine maintains its per-core state as parallel arrays; this
    view gives dict-shaped consumers (policies written against the
    Mapping contract) access without copying. Reads always reflect the
    array's current contents — exactly the semantics the per-dispatch
    dict copies used to snapshot, since the engine mutates the arrays
    at the same sites it used to rebuild the dicts.
    """

    __slots__ = ("_index", "_array", "_convert")

    def __init__(
        self,
        index: Mapping[str, int],
        array: np.ndarray,
        convert: Callable = float,
    ) -> None:
        self._index = index
        self._array = array
        self._convert = convert

    def __getitem__(self, name: str):
        return self._convert(self._array[self._index[name]])

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


def state_from_code(code) -> CoreState:
    """Decode a :data:`~repro.power.states.STATE_CODE` array element."""
    return CODE_STATE[int(code)]


@dataclass(frozen=True, slots=True)
class TickArrays:
    """Structure-of-arrays twin of the per-core tick snapshots.

    All arrays are indexed by position in ``core_names``. Every
    registered policy decides on these arrays (or plain-list unloads of
    them); the :class:`CoreSnapshot` mapping built on top is the
    interface for custom policies.
    """

    core_names: Tuple[str, ...]
    temperature_k: np.ndarray
    utilization: np.ndarray
    state_codes: np.ndarray
    vf_index: np.ndarray
    queue_length: np.ndarray


class SnapshotArrayMapping(Mapping):
    """Mapping of name -> :class:`CoreSnapshot` materialized on access.

    Backed by a :class:`TickArrays`: a custom policy reading
    ``ctx.cores`` pays only for the snapshots it touches, and the
    registered policies, which read the arrays, pay for none.
    """

    __slots__ = ("_arrays", "_index")

    def __init__(self, index: Mapping[str, int], arrays: "TickArrays") -> None:
        self._index = index
        self._arrays = arrays

    def __getitem__(self, name: str) -> "CoreSnapshot":
        i = self._index[name]
        a = self._arrays
        return CoreSnapshot(
            temperature_k=float(a.temperature_k[i]),
            utilization=float(a.utilization[i]),
            state=CODE_STATE[int(a.state_codes[i])],
            vf_index=int(a.vf_index[i]),
            queue_length=int(a.queue_length[i]),
        )

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)


@dataclass(frozen=True, slots=True)
class CoreSnapshot:
    """One core's observable state at a tick boundary.

    Attributes
    ----------
    temperature_k:
        Sensor reading at the end of the last interval.
    utilization:
        Busy fraction of the last interval.
    state:
        Core state entering the new interval.
    vf_index:
        Current V/f level index.
    queue_length:
        Jobs in the dispatch queue (including the running one).
    """

    temperature_k: float
    utilization: float
    state: CoreState
    vf_index: int
    queue_length: int


@dataclass(frozen=True, slots=True)
class TickContext:
    """Everything a policy sees at a sampling tick.

    ``arrays`` is the structure-of-arrays view every registered policy
    decides on; ``cores`` is the per-core :class:`CoreSnapshot` mapping
    custom policies may read instead (materialized on access when the
    engine builds the context). A context built from ``cores`` alone
    (tests, custom harnesses, the test-only scan oracle) gets its
    ``arrays`` packed once, here, in mapping order.
    """

    time: float
    cores: Mapping[str, CoreSnapshot]
    arrays: Optional[TickArrays] = None

    def __post_init__(self) -> None:
        if self.arrays is None:
            snaps = list(self.cores.values())
            object.__setattr__(self, "arrays", TickArrays(
                core_names=tuple(self.cores),
                temperature_k=np.array(
                    [s.temperature_k for s in snaps], dtype=np.float64),
                utilization=np.array(
                    [s.utilization for s in snaps], dtype=np.float64),
                state_codes=np.array(
                    [STATE_CODE[s.state] for s in snaps], dtype=np.int64),
                vf_index=np.array([s.vf_index for s in snaps], dtype=np.int64),
                queue_length=np.array(
                    [s.queue_length for s in snaps], dtype=np.int64),
            ))

    def temperature(self, core: str) -> float:
        """Sensor temperature (K) of one core."""
        return self.cores[core].temperature_k


@dataclass(frozen=True, slots=True)
class AllocationContext:
    """What a policy sees when placing an arriving job.

    Attributes
    ----------
    time:
        Arrival time (s).
    queue_lengths:
        Current dispatch-queue length per core.
    temperatures_k:
        Most recent sensor reading per core.
    states:
        Current core states.
    last_core:
        Where the job's thread ran previously (locality hint), if known.
    core_names, temperatures_vec, queue_lengths_list, state_codes_list:
        Structure-of-arrays view of the same data, positions following
        ``core_names``: an array of temperatures, and plain lists of
        queue lengths and :data:`~repro.power.states.STATE_CODE` state
        codes. Every registered policy decides on
        these; the Mappings above are the interface for custom
        policies. The engine passes live views of its own state (valid
        for the duration of the ``select_core`` call), in the system's
        core order; a context built from the Mappings alone gets them
        packed once, here, in mapping order.
    """

    time: float
    queue_lengths: Mapping[str, int]
    temperatures_k: Mapping[str, float]
    states: Mapping[str, CoreState]
    last_core: Optional[str] = None
    core_names: Optional[Tuple[str, ...]] = None
    temperatures_vec: Optional[np.ndarray] = None
    queue_lengths_list: Optional[List[int]] = None
    state_codes_list: Optional[List[int]] = None

    def __post_init__(self) -> None:
        if self.core_names is None:
            names = tuple(self.queue_lengths)
            pack = object.__setattr__
            pack(self, "core_names", names)
            pack(self, "temperatures_vec", np.array(
                [self.temperatures_k[n] for n in names], dtype=np.float64))
            pack(self, "queue_lengths_list",
                 [self.queue_lengths[n] for n in names])
            pack(self, "state_codes_list",
                 [STATE_CODE[self.states[n]] for n in names])


@dataclass(frozen=True, slots=True)
class Migration:
    """One job move between dispatch queues.

    Attributes
    ----------
    source, destination:
        Core names.
    move_running:
        Move the head (running) job — thermal migrations do this; queue
        rebalancing moves the tail job to avoid disturbing execution.
    swap:
        If the destination is busy, exchange jobs (paper §III-B, Migr).
    """

    source: str
    destination: str
    move_running: bool = True
    swap: bool = True


@dataclass(slots=True)
class PolicyActions:
    """Control decisions applied at a tick boundary.

    Attributes
    ----------
    vf_settings:
        Core name -> V/f index for the next interval. Omitted cores keep
        their setting.
    gated:
        Cores whose clock is gated for the next interval; cores *not*
        listed are ungated (gating is re-asserted each tick).
    migrations:
        Job moves between dispatch queues.
    """

    vf_settings: Dict[str, int] = field(default_factory=dict)
    gated: List[str] = field(default_factory=list)
    migrations: List[Migration] = field(default_factory=list)


class Policy(abc.ABC):
    """Base class of all DTM policies."""

    #: Short name used in result tables (overridden per policy).
    name: str = "policy"

    def __init__(self) -> None:
        self._system: Optional[SystemView] = None

    @property
    def system(self) -> SystemView:
        """The attached system; raises if the policy is unattached."""
        if self._system is None:
            raise PolicyError(f"{self.name}: policy not attached to a system")
        return self._system

    def attach(self, system: SystemView) -> None:
        """Bind the policy to a system before the simulation starts."""
        self._system = system

    @abc.abstractmethod
    def select_core(self, job: Job, ctx: AllocationContext) -> str:
        """Choose the dispatch queue for an arriving job."""

    def on_tick(self, ctx: TickContext) -> PolicyActions:
        """Per-interval control; the default does nothing."""
        return PolicyActions()

    def tick_is_noop(self, queue_lengths: Sequence[int]) -> bool:
        """Whether :meth:`on_tick` would provably return no actions and
        mutate no state, given the per-core ``queue_lengths`` (system
        core order). The engine then skips the call, which cannot change
        any result. Only the base no-op qualifies here; a subclass that
        overrides ``on_tick`` never inherits the skip unless it
        overrides this hook too.
        """
        return type(self).on_tick is Policy.on_tick
