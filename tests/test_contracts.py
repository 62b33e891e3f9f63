"""Static checks on the engine's per-tick code and its config surface.

Three properties that no behavioural test sees, each checked over the
lists kept below as module constants:

- config coverage: every ``EngineConfig`` and ``RunSpec`` field is set
  as a keyword somewhere in the four differential harness files, so no
  knob ships without a harness that compares it;
- slots coverage: the listed per-tick classes and every class defined
  in the ``obs`` modules declare ``__slots__``, so their instances
  carry no ``__dict__``;
- hot-path allocation: the listed per-tick functions and every
  ``select_core`` under ``src/repro/core/`` build no comprehension,
  display, closure, f-string or ``**`` splat.

A listed name that no longer resolves fails its check, so a rename
cannot drop coverage silently. Each check also runs on a fixture that
seeds a violation.
"""

import ast
import importlib
import textwrap
import types
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from repro.analysis.runner import RunSpec
from repro.sched.engine import EngineConfig

REPO = Path(__file__).resolve().parents[1]

# -- config coverage ---------------------------------------------------

HARNESS_FILES = (
    "tests/test_engine_heap.py",
    "tests/test_engine_span.py",
    "tests/test_engine_event.py",
    "tests/test_engine_batch.py",
)
#: field -> another keyword that covers it (``RunSpec.with_dpm`` is the
#: declarative switch that builds ``EngineConfig.dpm``).
COVERAGE_ALIASES = {"dpm": "with_dpm"}


def uncovered_fields(config_classes, harness_paths, aliases):
    """``Class.field`` for each field no harness call sets by keyword."""
    used = set()
    for path in harness_paths:
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, ast.Call):
                used.update(kw.arg for kw in node.keywords if kw.arg)
    return [
        f"{cls.__name__}.{field.name}"
        for cls in config_classes
        for field in fields(cls)
        if field.name not in used and aliases.get(field.name) not in used
    ]


class TestConfigCoverageRule:
    @dataclass(frozen=True)
    class Config:
        covered: float = 1.0
        aliased: bool = False
        uncovered: int = 3

    def harness(self, tmp_path, call):
        path = tmp_path / "test_diff.py"
        path.write_text(f"def test_one():\n    {call}\n")
        return [path]

    def test_fires_on_uncovered_knob_and_honours_aliases(self, tmp_path):
        paths = self.harness(tmp_path, "run(covered=2.0, with_alias=True)")
        assert uncovered_fields(
            [self.Config], paths, {"aliased": "with_alias"}
        ) == ["Config.uncovered"]

    def test_quiet_when_all_knobs_covered(self, tmp_path):
        paths = self.harness(
            tmp_path, "run(covered=2.0, aliased=True, uncovered=5)"
        )
        assert uncovered_fields([self.Config], paths, {}) == []

    def test_every_engine_knob_meets_a_harness(self):
        assert uncovered_fields(
            [EngineConfig, RunSpec],
            [REPO / name for name in HARNESS_FILES],
            COVERAGE_ALIASES,
        ) == []


# -- slots coverage ----------------------------------------------------

#: Every class defined in these modules must be slotted.
SLOTS_MODULES = (
    "repro.obs.trace",
    "repro.obs.profiler",
    "repro.obs.stats",
    "repro.obs.telemetry",
    "repro.obs.resilience",
)
#: Per-tick (or per-event) classes elsewhere. ``SystemView`` is built
#: once per run and stays unlisted.
SLOTS_CLASSES = (
    "repro.sched.engine._CoreRuntime",
    "repro.core.base.ArrayBackedMapping",
    "repro.core.base.SnapshotArrayMapping",
    "repro.core.base.TickArrays",
    "repro.core.base.CoreSnapshot",
    "repro.core.base.TickContext",
    "repro.core.base.AllocationContext",
    "repro.core.base.Migration",
    "repro.core.base.PolicyActions",
)


def module_classes(module):
    return [
        obj for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]


def unslotted(classes):
    """Names of the classes whose own body declares no ``__slots__``
    (``@dataclass(slots=True)`` declares them)."""
    return [cls.__name__ for cls in classes if "__slots__" not in vars(cls)]


def fixture_module(source):
    module = types.ModuleType("fixture_mod")
    exec(textwrap.dedent(source), vars(module))
    return module


class TestSlotsRule:
    def test_fires_on_unslotted_class(self):
        module = fixture_module("""\
            class Slotted:
                __slots__ = ("x",)

            class NoSlots:
                def __init__(self):
                    self.x = 1

            class Subclass(Slotted):
                pass
            """)
        assert unslotted(module_classes(module)) == ["NoSlots", "Subclass"]

    def test_quiet_on_slots_and_dataclass_slots(self):
        module = fixture_module("""\
            from dataclasses import dataclass

            class Plain:
                __slots__ = ("x",)

            @dataclass(frozen=True, slots=True)
            class Data:
                x: int = 0
            """)
        assert [cls.__name__ for cls in module_classes(module)] == [
            "Plain", "Data",
        ]
        assert unslotted(module_classes(module)) == []

    def test_per_tick_classes_are_slotted(self):
        classes = []
        for name in SLOTS_MODULES:
            classes += module_classes(importlib.import_module(name))
        for dotted in SLOTS_CLASSES:
            module, _, name = dotted.rpartition(".")
            classes.append(getattr(importlib.import_module(module), name))
        assert unslotted(classes) == []


# -- hot-path allocation -----------------------------------------------

#: file -> the functions in it that run per tick (or several times a tick).
HOT_PATH_FUNCTIONS = {
    "src/repro/sched/engine.py": (
        "SimulationEngine._run_ticks",
        "SimulationEngine._quiet_ticks_event",
        "SimulationEngine._advance_interval_heap",
        "SimulationEngine._advance_interval_span",
        "SimulationEngine._pop_due_completions",
        "SimulationEngine._touch_core",
        "SimulationEngine._execute",
        "SimulationEngine._span_utilization",
        "SimulationEngine._sync_queue_state",
        "SimulationEngine._sync_vf_row",
        "SimulationEngine._apply_vf_level",
        "SimulationEngine._dispatch",
        "SimulationEngine._allocation_context",
        "SimulationEngine._run_policy",
        "SimulationEngine._tick_context",
        "SimulationEngine._policy_tick_noop",
    ),
    "src/repro/thermal/model.py": (
        "ThermalModel.step_vector",
        "ModalJump.advance",
        "ModalJump.advance_rows",
    ),
    "src/repro/power/chip_power.py": (
        "ChipPowerModel.power_factors",
        "ChipPowerModel.power_eval",
        "ChipPowerModel.event_factors",
        "ChipPowerModel.event_eval",
    ),
}
#: Every ``select_core`` (dispatch-time scoring) here is hot too.
SELECT_CORE_DIR = "src/repro/core"
#: The one sanctioned exception: scalar scoring over plain lists, ~2x
#: faster than the vectorized NumPy form at the paper's n <= 16 cores
#: (ROADMAP, measured dead ends).
HOT_PATH_EXEMPT = [
    ("ProbabilisticAllocator.select_core", "ListComp"),
] * 3

#: Constructs that allocate on every call.
_ALLOCATING = (
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp, ast.List,
    ast.Set, ast.Dict, ast.Lambda, ast.JoinedStr,
)


def find_function(tree, qualname):
    node = tree
    for part in qualname.split("."):
        node = next((child for child in node.body
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                     and child.name == part), None)
        if node is None:
            raise LookupError(f"{qualname} not found")
    return node


def select_cores(directory):
    """``(Class.select_core, def)`` for every definition under ``directory``."""
    for path in sorted(Path(directory).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if (isinstance(child, ast.FunctionDef)
                            and child.name == "select_core"):
                        yield f"{node.name}.select_core", child


def allocations(qualname, func):
    """``(qualname, construct)`` for each allocation in ``func``'s body.

    A ``raise`` statement is exempt (error paths are cold), and so are
    defaults and decorators (evaluated once, at ``def`` time). A nested
    ``def`` is a closure; its own body is not searched.
    """
    found = []

    def visit(node):
        if isinstance(node, ast.Raise):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((qualname, "closure"))
            return
        if isinstance(node, _ALLOCATING):
            found.append((qualname, type(node).__name__))
        if isinstance(node, ast.Call) and any(
            kw.arg is None for kw in node.keywords
        ):
            found.append((qualname, "kwargs-splat"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in func.body:
        visit(stmt)
    return found


def write_module(path, source):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestHotPathRule:
    def test_fires_on_each_forbidden_construct(self):
        tree = ast.parse(textwrap.dedent("""\
            class Engine:
                def tick(self, items):
                    pairs = {"k": 1}
                    squares = [x * x for x in items]
                    label = f"tick {len(items)}"
                    fn = lambda x: x
                    def helper():
                        return 1
                    self.call(**pairs)
                    return squares, label, fn, helper
            """))
        kinds = {kind for _, kind in allocations(
            "Engine.tick", find_function(tree, "Engine.tick"))}
        assert kinds == {"Dict", "ListComp", "JoinedStr", "Lambda",
                         "closure", "kwargs-splat"}

    def test_quiet_on_clean_function_and_raise_exemption(self):
        tree = ast.parse(textwrap.dedent("""\
            class Engine:
                def tick(self, items, buf, scale=[1.0]):
                    total = 0
                    for i, item in enumerate(items):
                        buf[i] = item
                        total += item
                    if total < 0:
                        raise ValueError(f"bad total: {[total]}")
                    return total
            """))
        assert allocations(
            "Engine.tick", find_function(tree, "Engine.tick")) == []

    def test_missing_manifest_entry_is_a_finding(self):
        tree = ast.parse("class Engine:\n    def tick(self):\n        pass\n")
        with pytest.raises(LookupError, match="Engine.gone"):
            find_function(tree, "Engine.gone")

    def test_method_sweep_covers_every_definition(self, tmp_path):
        write_module(tmp_path / "pol" / "a.py", """\
            class A:
                def select_core(self, job, ctx):
                    return [c for c in ctx][0]
            """)
        write_module(tmp_path / "pol" / "b.py", """\
            class B:
                def select_core(self, job, ctx):
                    return ctx.best
            """)
        swept = list(select_cores(tmp_path / "pol"))
        assert [name for name, _ in swept] == ["A.select_core",
                                               "B.select_core"]
        assert [hit for name, func in swept
                for hit in allocations(name, func)] == [
            ("A.select_core", "ListComp")]

    def test_hot_path_allocates_only_where_exempt(self):
        """No listed per-tick function allocates.

        A seeded 16-element comprehension costs under a microsecond
        (0.3-0.7 us on a shared 2-vCPU host) against ~65 us per traced
        paper-figures tick, so no end-to-end timing shows one: this
        check is what stops such allocations piling up.
        """
        found = []
        for path, qualnames in HOT_PATH_FUNCTIONS.items():
            tree = ast.parse((REPO / path).read_text())
            for qualname in qualnames:
                found += allocations(qualname, find_function(tree, qualname))
        for qualname, func in select_cores(REPO / SELECT_CORE_DIR):
            found += allocations(qualname, func)
        assert found == HOT_PATH_EXEMPT
