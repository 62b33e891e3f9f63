"""The manifests ARE the contracts.

Each constant below names the code a rule covers; adding a function to
a hot loop, a per-tick class, or a NULL singleton means extending the
matching manifest in the same diff (a manifest entry that no longer
resolves is itself a finding, so renames cannot silently drop
coverage).  Tests override individual fields of :class:`Manifest` to
point rules at fixture snippets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

__all__ = ["Manifest"]

# ---------------------------------------------------------------------------
# hot-path-alloc: functions that run per tick (or several times per
# tick) and therefore must not allocate — no displays/comprehensions,
# no closures, no f-strings, no **kwargs splats.  Expressions inside
# `raise` statements are exempt: error paths are cold by definition.
#
# Deliberately NOT listed (documented exclusions, see docs/CONTRACTS.md):
#   - SimulationEngine._gather_utilization: eager-loop twin that feeds a
#     generator expression to np.fromiter — measured faster than any
#     preallocated alternative at n<=16.
#   - SimulationEngine._memory_intensity: its non-span branch is eager's
#     per-tick path and gathers the running heads' intensities into a
#     list (one per tick, not per event); the span branch reads an
#     incremental accumulator.
# ---------------------------------------------------------------------------
HOT_PATH_FUNCTIONS: Tuple[Tuple[str, str], ...] = (
    ("src/repro/sched/engine.py", "SimulationEngine._run_ticks"),
    ("src/repro/sched/engine.py", "SimulationEngine._quiet_ticks_event"),
    ("src/repro/sched/engine.py", "SimulationEngine._advance_interval_heap"),
    ("src/repro/sched/engine.py", "SimulationEngine._advance_interval_span"),
    ("src/repro/sched/engine.py", "SimulationEngine._pop_due_completions"),
    ("src/repro/sched/engine.py", "SimulationEngine._touch_core"),
    ("src/repro/sched/engine.py", "SimulationEngine._execute"),
    ("src/repro/sched/engine.py", "SimulationEngine._span_utilization"),
    ("src/repro/sched/engine.py", "SimulationEngine._sync_queue_state"),
    ("src/repro/sched/engine.py", "SimulationEngine._sync_vf_row"),
    ("src/repro/sched/engine.py", "SimulationEngine._apply_vf_level"),
    ("src/repro/sched/engine.py", "SimulationEngine._dispatch"),
    ("src/repro/sched/engine.py", "SimulationEngine._allocation_context"),
    ("src/repro/sched/engine.py", "SimulationEngine._run_policy"),
    ("src/repro/sched/engine.py", "SimulationEngine._tick_context"),
    ("src/repro/sched/engine.py", "SimulationEngine._policy_tick_noop"),
    ("src/repro/thermal/model.py", "ThermalModel.step_vector"),
    ("src/repro/thermal/model.py", "ModalJump.advance"),
    ("src/repro/thermal/model.py", "ModalJump.advance_rows"),
    ("src/repro/power/chip_power.py", "ChipPowerModel.power_factors"),
    ("src/repro/power/chip_power.py", "ChipPowerModel.power_eval"),
    ("src/repro/power/chip_power.py", "ChipPowerModel.event_factors"),
    ("src/repro/power/chip_power.py", "ChipPowerModel.event_eval"),
)

#: Every def with this name under the directory is hot (dispatch-time
#: policy scoring): (directory, method name).
HOT_PATH_METHOD_SWEEPS: Tuple[Tuple[str, str], ...] = (
    ("src/repro/core", "select_core"),
)

# ---------------------------------------------------------------------------
# slots-coverage: classes instantiated per tick (or per event) must
# declare __slots__ (directly or via @dataclass(slots=True)) so
# instances carry no __dict__.
# ---------------------------------------------------------------------------
#: Every top-level class in these modules must be slotted.
SLOTS_MODULES: Tuple[str, ...] = (
    "src/repro/obs/trace.py",
    "src/repro/obs/profiler.py",
    "src/repro/obs/stats.py",
    "src/repro/obs/telemetry.py",
    "src/repro/obs/resilience.py",
)

#: Explicit per-tick classes elsewhere: (module, class name).
SLOTS_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("src/repro/sched/engine.py", "_CoreRuntime"),
    ("src/repro/core/base.py", "ArrayBackedMapping"),
    ("src/repro/core/base.py", "SnapshotArrayMapping"),
    ("src/repro/core/base.py", "TickArrays"),
    ("src/repro/core/base.py", "CoreSnapshot"),
    ("src/repro/core/base.py", "TickContext"),
    ("src/repro/core/base.py", "AllocationContext"),
    ("src/repro/core/base.py", "Migration"),
    ("src/repro/core/base.py", "PolicyActions"),
)

# ---------------------------------------------------------------------------
# span-close-on-mutation: in the engine, core-row state the span fast
# path trusts may only change if the open span is closed first.
# ---------------------------------------------------------------------------
SPAN_ENGINE_MODULE = "src/repro/sched/engine.py"

#: Core attributes a compiled span caches assumptions about.
SPAN_VISIBLE_ATTRS: FrozenSet[str] = frozenset(
    {"gated", "sleeping", "halted", "vf_index", "speed", "stall_until"}
)

#: Calling any of these counts as closing/invalidating the span.
SPAN_DIRTY_CALLS: FrozenSet[str] = frozenset(
    {"_invalidate_event", "_touch_core", "_sync_queue_state", "_sync_vf_row"}
)

#: Scopes allowed to mutate span-visible state directly: the sanctioned
#: sync helpers themselves, and setup that runs before any span opens.
SPAN_EXEMPT_SCOPES: FrozenSet[str] = frozenset(
    {
        "SimulationEngine._touch_core",
        "SimulationEngine._sync_queue_state",
        "SimulationEngine._sync_vf_row",
        "SimulationEngine._prepare_run",
    }
)
SPAN_EXEMPT_PREFIXES: Tuple[str, ...] = ("_CoreRuntime.",)

# ---------------------------------------------------------------------------
# key-neutrality: the serialized RunSpec field set (fields minus
# spec_to_dict's drops) and the CampaignSpec axes are fingerprinted
# against a checked-in golden; changing either without bumping
# KEY_VERSION silently poisons the content-addressed result store.
# ---------------------------------------------------------------------------
KEY_SPEC_MODULE = "src/repro/campaign/spec.py"
KEY_RUNSPEC_MODULE = "src/repro/analysis/runner.py"
KEY_GOLDEN_PATH = "src/repro/contracts/key_golden.json"

# ---------------------------------------------------------------------------
# null-parity: (module, real class, null class).  The disabled path
# holds the null singleton where enabled code holds the real object, so
# every public method/attribute of the real class must exist on the
# null class.
# ---------------------------------------------------------------------------
NULL_PARITY_PAIRS: Tuple[Tuple[str, str, str], ...] = (
    ("src/repro/obs/telemetry.py", "EngineTelemetry", "_NullTelemetry"),
    ("src/repro/obs/trace.py", "TraceRecorder", "_NullTrace"),
    ("src/repro/obs/profiler.py", "TickProfiler", "_NullProfiler"),
)

# ---------------------------------------------------------------------------
# config-coverage: every EngineConfig / RunSpec knob must appear as a
# keyword argument somewhere in the differential-harness test files, so
# no knob ships without a harness exercising it.
# ---------------------------------------------------------------------------
CONFIG_SOURCES: Tuple[Tuple[str, str], ...] = (
    ("src/repro/sched/engine.py", "EngineConfig"),
    ("src/repro/analysis/runner.py", "RunSpec"),
)
COVERAGE_TEST_FILES: Tuple[str, ...] = (
    "tests/test_engine_heap.py",
    "tests/test_engine_span.py",
    "tests/test_engine_event.py",
    "tests/test_engine_batch.py",
)
#: knob -> alternate keyword names that count as covering it
#: (RunSpec.with_dpm is the declarative switch that builds EngineConfig.dpm).
COVERAGE_ALIASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("dpm", ("with_dpm",)),
)

BASELINE_PATH = "src/repro/contracts/baseline.json"


@dataclass(frozen=True, slots=True)
class Manifest:
    """All rule configuration in one overridable bundle."""

    hot_path_functions: Tuple[Tuple[str, str], ...] = HOT_PATH_FUNCTIONS
    hot_path_method_sweeps: Tuple[Tuple[str, str], ...] = \
        HOT_PATH_METHOD_SWEEPS
    slots_modules: Tuple[str, ...] = SLOTS_MODULES
    slots_classes: Tuple[Tuple[str, str], ...] = SLOTS_CLASSES
    span_engine_module: str = SPAN_ENGINE_MODULE
    span_visible_attrs: FrozenSet[str] = SPAN_VISIBLE_ATTRS
    span_dirty_calls: FrozenSet[str] = SPAN_DIRTY_CALLS
    span_exempt_scopes: FrozenSet[str] = SPAN_EXEMPT_SCOPES
    span_exempt_prefixes: Tuple[str, ...] = SPAN_EXEMPT_PREFIXES
    key_spec_module: str = KEY_SPEC_MODULE
    key_runspec_module: str = KEY_RUNSPEC_MODULE
    key_golden_path: str = KEY_GOLDEN_PATH
    null_parity_pairs: Tuple[Tuple[str, str, str], ...] = NULL_PARITY_PAIRS
    config_sources: Tuple[Tuple[str, str], ...] = CONFIG_SOURCES
    coverage_test_files: Tuple[str, ...] = COVERAGE_TEST_FILES
    coverage_aliases: Tuple[Tuple[str, Tuple[str, ...]], ...] = \
        COVERAGE_ALIASES
    baseline_path: str = BASELINE_PATH
