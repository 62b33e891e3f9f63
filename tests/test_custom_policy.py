"""The custom-policy interface: Mapping views and per-core snapshots.

Registered policies decide on the contexts' structure-of-arrays views;
custom policies may keep reading the ``AllocationContext`` Mappings and
``TickContext.cores``. These tests drive the ``CoolestFirst`` allocator
of ``examples/custom_policy.py`` (plus a tick that reads only
``ctx.cores``) through the engine, and check that contexts built from
dicts get their arrays packed in mapping order.
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.core.base import (
    AllocationContext,
    CoreSnapshot,
    Migration,
    PolicyActions,
    TickContext,
)
from repro.core.default import IMBALANCE_THRESHOLD, DefaultLoadBalancing
from repro.errors import PolicyError
from repro.power.states import STATE_CODE, CoreState

from tests.conftest import make_alloc, make_system_view, make_test_job, make_tick
from tests.test_engine_heap import RESULT_ARRAYS

_EXAMPLE = Path(__file__).resolve().parents[1] / "examples" / "custom_policy.py"
_spec = importlib.util.spec_from_file_location("custom_policy_example", _EXAMPLE)
_example = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_example)

RUNNER = ExperimentRunner()
SPEC = RunSpec(exp_id=1, policy="Default", duration_s=6.0, with_dpm=True,
               seed=2009)


class CoolestFirstThrottle(_example.CoolestFirst):
    """The example's allocator plus a tick that reads only ``ctx.cores``."""

    name = "CoolestFirstThrottle"

    def on_tick(self, ctx: TickContext) -> PolicyActions:
        table = self.system.vf_table
        threshold = self.system.thermal_threshold_k
        actions = PolicyActions()
        for core, snap in ctx.cores.items():
            # Lightly used awake cores step down one V/f level; busy
            # ones return to nominal.
            if snap.utilization < 0.5 and snap.state is not CoreState.SLEEP:
                actions.vf_settings[core] = table.step_down(snap.vf_index)
            else:
                actions.vf_settings[core] = table.nominal_index
            if snap.temperature_k >= threshold:
                actions.gated.append(core)
        longest = max(ctx.cores, key=lambda c: ctx.cores[c].queue_length)
        shortest = min(ctx.cores, key=lambda c: ctx.cores[c].queue_length)
        if (ctx.cores[longest].queue_length - ctx.cores[shortest].queue_length
                >= IMBALANCE_THRESHOLD):
            actions.migrations.append(
                Migration(longest, shortest, move_running=False, swap=False)
            )
        return actions


def run_custom(**config):
    engine = RUNNER.build_engine(SPEC)
    engine.config = replace(engine.config, **config)
    engine.policy = CoolestFirstThrottle()
    engine.policy.attach(engine.system_view)
    return engine.run()


class TestMappingPolicyInEngine:
    def test_heap_matches_scan(self):
        heap = run_custom(event_loop="event_heap")
        scan = run_custom(event_loop="legacy_scan")
        for name in RESULT_ARRAYS:
            np.testing.assert_array_equal(
                getattr(heap, name), getattr(scan, name), err_msg=name
            )
        assert heap.energy_j == scan.energy_j
        assert heap.migrations == scan.migrations
        assert [(j.core, j.completion_time) for j in heap.jobs] == [
            (j.core, j.completion_time) for j in scan.jobs
        ]
        # The tick really steered the run: some cores left nominal V/f.
        assert heap.vf_indices.max() > 0
        assert heap.completed_jobs()

    def test_completes_under_event_fidelity(self):
        result = run_custom(fidelity="event")
        assert len(result.times) == round(SPEC.duration_s / 0.1)
        assert result.completed_jobs()


class TestDictContextsPackInMappingOrder:
    ORDER = ("c2", "c0", "c3", "c1")

    def test_tick_context(self):
        states = {"c2": CoreState.SLEEP, "c0": CoreState.ACTIVE,
                  "c3": CoreState.GATED, "c1": CoreState.IDLE}
        cores = {
            name: CoreSnapshot(temperature_k=300.0 + i, utilization=i / 10,
                               state=states[name], vf_index=i % 3,
                               queue_length=3 - i)
            for i, name in enumerate(self.ORDER)
        }
        arrays = TickContext(time=0.0, cores=cores).arrays
        assert arrays.core_names == self.ORDER
        assert arrays.temperature_k.tolist() == [300.0, 301.0, 302.0, 303.0]
        assert arrays.utilization.tolist() == [0.0, 0.1, 0.2, 0.3]
        assert arrays.state_codes.tolist() == [
            STATE_CODE[states[n]] for n in self.ORDER]
        assert arrays.vf_index.tolist() == [0, 1, 2, 0]
        assert arrays.queue_length.tolist() == [3, 2, 1, 0]

    def test_allocation_context(self):
        ctx = AllocationContext(
            time=0.0,
            queue_lengths={n: i for i, n in enumerate(self.ORDER)},
            temperatures_k={n: 310.0 - i for i, n in enumerate(self.ORDER)},
            states={n: CoreState.SLEEP if n == "c3" else CoreState.IDLE
                    for n in self.ORDER},
        )
        assert ctx.core_names == self.ORDER
        assert ctx.queue_lengths_list == [0, 1, 2, 3]
        assert ctx.temperatures_vec.tolist() == [310.0, 309.0, 308.0, 307.0]
        assert ctx.state_codes_list == [
            STATE_CODE[CoreState.IDLE]] * 2 + [STATE_CODE[CoreState.SLEEP],
                                               STATE_CODE[CoreState.IDLE]]

    def test_registered_policies_refuse_other_orders(self):
        policy = DefaultLoadBalancing()
        policy.attach(make_system_view(4))
        temps = {n: 60.0 for n in self.ORDER}
        with pytest.raises(PolicyError):
            policy.select_core(make_test_job(), make_alloc(temps))
        # The tick rule reads names from the context: any order works.
        ticks = make_tick(temps, queues={"c2": 3, "c0": 0, "c3": 1, "c1": 1})
        [migration] = policy.on_tick(ticks).migrations
        assert (migration.source, migration.destination) == ("c2", "c0")
