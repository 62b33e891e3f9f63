"""Tie-break oracle: the array-native policies against Mapping references.

Every registered policy built on :class:`DefaultLoadBalancing` decides
on the contexts' structure-of-arrays views. The references below are
the Mapping-based decision code those policies replaced (reading
``ctx.cores`` / the ``AllocationContext`` Mappings, with Python's
``max``/``min``/``sorted`` resolving ties). The property test drives
both on heavily tied inputs — few distinct temperatures including
exactly 85 C, queue lengths 0-3, utilizations on the V/f boundaries,
sleeping and gated cores — through both context shapes (dict-built,
packed at construction; and array-built, as the engine builds them)
and requires identical decisions, in identical order. DVFS_TT is held
to its effective decisions: it returns no setting on a cool tick with
every level at nominal, where the reference re-sends every core's
running level (omitted cores keep their setting).
"""

from __future__ import annotations

from typing import Dict, Set

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import (
    AllocationContext,
    ArrayBackedMapping,
    CoreSnapshot,
    Migration,
    PolicyActions,
    SnapshotArrayMapping,
    TickArrays,
    TickContext,
    state_from_code,
)
from repro.core.clock_gating import ClockGating
from repro.core.default import IMBALANCE_THRESHOLD, DefaultLoadBalancing
from repro.core.dvfs_flp import DVFSFloorplanAware
from repro.core.dvfs_tt import DVFSTemperatureTriggered
from repro.core.dvfs_util import DVFSUtilizationBased
from repro.core.migration import MigrationPolicy
from repro.power.states import STATE_CODE, CoreState
from repro.thermal.materials import kelvin

from tests.conftest import make_system_view, make_test_job

# ----------------------------------------------------------------------
# References: the Mapping-based decision code.


class RefDefault(DefaultLoadBalancing):
    def select_core(self, job, ctx):
        if ctx.last_core is not None and ctx.last_core in ctx.queue_lengths:
            shortest = min(ctx.queue_lengths.values())
            if ctx.queue_lengths[ctx.last_core] - shortest < IMBALANCE_THRESHOLD:
                return ctx.last_core
        return self._least_loaded(ctx)

    def _least_loaded(self, ctx):
        cores = self.system.core_names
        n = len(cores)
        best = None
        best_key = None
        for offset in range(n):
            core = cores[(self._rr_next + offset) % n]
            sleeping = ctx.states[core] is CoreState.SLEEP
            key = (ctx.queue_lengths[core], sleeping)
            if best_key is None or key < best_key:
                best = core
                best_key = key
        self._rr_next = (cores.index(best) + 1) % n
        return best

    def on_tick(self, ctx):
        actions = PolicyActions()
        longest = max(ctx.cores, key=lambda c: ctx.cores[c].queue_length)
        shortest = min(ctx.cores, key=lambda c: ctx.cores[c].queue_length)
        if (
            ctx.cores[longest].queue_length - ctx.cores[shortest].queue_length
            >= IMBALANCE_THRESHOLD
        ):
            actions.migrations.append(
                Migration(longest, shortest, move_running=False, swap=False)
            )
        return actions


class RefCGate(RefDefault):
    def on_tick(self, ctx):
        actions = RefDefault.on_tick(self, ctx)
        threshold = self.system.thermal_threshold_k
        actions.gated = [
            core
            for core, snap in ctx.cores.items()
            if snap.temperature_k >= threshold
        ]
        return actions


class RefDVFSTT(RefDefault):
    def attach(self, system):
        super().attach(system)
        self._levels = {
            core: system.vf_table.nominal_index for core in system.core_names
        }

    def on_tick(self, ctx):
        actions = RefDefault.on_tick(self, ctx)
        table = self.system.vf_table
        threshold = self.system.thermal_threshold_k
        for core, snap in ctx.cores.items():
            level = self._levels[core]
            if snap.temperature_k >= threshold:
                level = table.step_down(level)
            else:
                level = table.step_up(level)
            self._levels[core] = level
            actions.vf_settings[core] = level
        return actions


class RefDVFSUtil(RefDefault):
    def on_tick(self, ctx):
        actions = RefDefault.on_tick(self, ctx)
        table = self.system.vf_table
        for core, snap in ctx.cores.items():
            actions.vf_settings[core] = table.lowest_covering(snap.utilization)
        return actions


class RefDVFSFLP(DVFSFloorplanAware):
    def on_tick(self, ctx):
        actions = RefDefault.on_tick(self, ctx)
        actions.vf_settings.update(self._assignment)
        return actions


class RefMigr(RefDefault):
    def on_tick(self, ctx):
        actions = PolicyActions()
        threshold = self.system.thermal_threshold_k
        received: Set[str] = set()
        hottest = sorted(
            ctx.cores, key=lambda c: ctx.cores[c].temperature_k, reverse=True
        )
        for hot in hottest:
            snap = ctx.cores[hot]
            if snap.temperature_k < threshold:
                break
            if snap.queue_length == 0:
                continue
            destination = self._coolest_available(ctx, received | {hot})
            if destination is None:
                break
            received.add(destination)
            actions.migrations.append(
                Migration(hot, destination, move_running=True, swap=True)
            )
        return actions

    def _coolest_available(self, ctx, exclude):
        threshold = self.system.thermal_threshold_k
        coolest = sorted(ctx.cores, key=lambda c: ctx.cores[c].temperature_k)
        candidates = [
            core
            for core in coolest
            if core not in exclude and ctx.cores[core].temperature_k < threshold
        ]
        return candidates[0] if candidates else None


PAIRS = [
    (RefDefault, DefaultLoadBalancing),
    (RefCGate, ClockGating),
    (RefDVFSTT, DVFSTemperatureTriggered),
    (RefDVFSUtil, DVFSUtilizationBased),
    (RefDVFSFLP, DVFSFloorplanAware),
    (RefMigr, MigrationPolicy),
]

# ----------------------------------------------------------------------
# Heavily tied inputs.

TEMPS_C = (60.0, 80.0, 84.9, 85.0, 90.0)
UTILS = (0.0, 0.5, 0.85, 0.9, 0.95, 1.0)
STATES = (CoreState.ACTIVE, CoreState.IDLE, CoreState.SLEEP, CoreState.GATED)


@st.composite
def rows(draw, n: int) -> Dict[str, list]:
    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))

    return {
        "temps": [kelvin(t) for t in column(st.sampled_from(TEMPS_C))],
        "utils": column(st.sampled_from(UTILS)),
        "queues": column(st.integers(min_value=0, max_value=3)),
        "states": column(st.sampled_from(STATES)),
        "vf": column(st.integers(min_value=0, max_value=2)),
    }


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from((4, 16)))
    ticks = draw(st.lists(rows(n), min_size=1, max_size=4))
    dispatches = draw(st.lists(
        st.tuples(rows(n), st.one_of(st.none(), st.integers(0, n - 1))),
        min_size=1, max_size=8,
    ))
    return n, ticks, dispatches


def dict_tick(names, row) -> TickContext:
    return TickContext(time=1.0, cores={
        name: CoreSnapshot(
            temperature_k=row["temps"][i],
            utilization=row["utils"][i],
            state=row["states"][i],
            vf_index=row["vf"][i],
            queue_length=row["queues"][i],
        )
        for i, name in enumerate(names)
    })


def array_tick(names, row) -> TickContext:
    arrays = TickArrays(
        core_names=names,
        temperature_k=np.array(row["temps"]),
        utilization=np.array(row["utils"]),
        state_codes=np.array([STATE_CODE[s] for s in row["states"]],
                             dtype=np.int64),
        vf_index=np.array(row["vf"], dtype=np.int64),
        queue_length=np.array(row["queues"], dtype=np.int64),
    )
    index = {name: i for i, name in enumerate(names)}
    return TickContext(time=1.0, cores=SnapshotArrayMapping(index, arrays),
                       arrays=arrays)


def dict_alloc(names, row, last) -> AllocationContext:
    return AllocationContext(
        time=1.0,
        queue_lengths=dict(zip(names, row["queues"])),
        temperatures_k=dict(zip(names, row["temps"])),
        states=dict(zip(names, row["states"])),
        last_core=last,
    )


def array_alloc(names, row, last) -> AllocationContext:
    index = {name: i for i, name in enumerate(names)}
    queues = np.array(row["queues"], dtype=np.int64)
    temps = np.array(row["temps"])
    codes = np.array([STATE_CODE[s] for s in row["states"]], dtype=np.int64)
    return AllocationContext(
        time=1.0,
        queue_lengths=ArrayBackedMapping(index, queues, int),
        temperatures_k=ArrayBackedMapping(index, temps, float),
        states=ArrayBackedMapping(index, codes, state_from_code),
        last_core=last,
        core_names=names,
        queue_lengths_list=queues.tolist(),
        state_codes_list=codes.tolist(),
        temperatures_vec=temps,
    )


def decisions(actions: PolicyActions):
    return (
        list(actions.migrations),
        list(actions.gated),
        list(actions.vf_settings.items()),
    )


def effective_decisions(actions: PolicyActions, names, running):
    """:func:`decisions` without the V/f settings equal to the core's
    ``running`` level, which change nothing; the order of the rest is
    kept."""
    level_of = dict(zip(names, running))
    migrations, gated, vf = decisions(actions)
    return (
        migrations,
        gated,
        [(core, level) for core, level in vf if level != level_of[core]],
    )


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_array_policies_match_mapping_references(scenario):
    n, ticks, dispatches = scenario
    system = make_system_view(n, n_layers=2 if n == 4 else 4)
    names = system.core_names
    for ref_cls, cls in PAIRS:
        for build in (dict_tick, array_tick):
            ref = ref_cls()
            ref.attach(system)
            policy = cls()
            policy.attach(system)
            for row in ticks:
                expected = ref.on_tick(dict_tick(names, row))
                got = policy.on_tick(build(names, row))
                if ref_cls is RefDVFSTT:
                    assert effective_decisions(got, names, row["vf"]) == (
                        effective_decisions(expected, names, row["vf"]))
                    assert list(policy._levels.items()) == list(
                        ref._levels.items())
                else:
                    assert decisions(got) == decisions(expected)

    for build in (dict_alloc, array_alloc):
        ref = RefDefault()
        ref.attach(system)
        policy = DefaultLoadBalancing()
        policy.attach(system)
        for row, last in dispatches:
            last_core = None if last is None else names[last]
            job = make_test_job()
            expected = ref.select_core(job, dict_alloc(names, row, last_core))
            got = policy.select_core(job, build(names, row, last_core))
            assert got == expected
            assert policy._rr_next == ref._rr_next


def test_dvfs_tt_closed_loop_matches_reference():
    """DVFS_TT against its reference over a closed loop: each tick's
    applied levels are the next context's running levels, as in the
    engine, and the temperatures cross 85 C in both directions. The
    property test above rarely draws a context whose running levels
    are all nominal, so this is the test of the cool, unthrottled tick
    that returns no setting."""
    rng = np.random.default_rng(85)
    system = make_system_view(16, n_layers=4)
    names = system.core_names
    n = len(names)
    nominal = system.vf_table.nominal_index
    threshold = system.thermal_threshold_k
    ref = RefDVFSTT()
    ref.attach(system)
    policy = DVFSTemperatureTriggered()
    policy.attach(system)
    running = [nominal] * n
    hot_stretch = was_hot = False
    heat_ups = cool_downs = cool_nominal_ticks = 0
    for _ in range(400):
        # Cool and hot stretches of geometric length (mean four ticks);
        # in a hot one each core reads at or above 85 C with
        # probability 0.3.
        if rng.random() < 0.25:
            hot_stretch = not hot_stretch
        temps_c = rng.choice([60.0, 80.0, 84.9], size=n)
        if hot_stretch:
            temps_c[rng.random(n) < 0.3] = rng.choice([85.0, 90.0])
        row = {
            "temps": [kelvin(t) for t in temps_c],
            "utils": [0.5] * n,
            "queues": [1] * n,
            "states": [CoreState.ACTIVE] * n,
            "vf": running,
        }
        cool_nominal = (
            max(row["temps"]) < threshold
            and set(running) == {nominal}
            and set(ref._levels.values()) == {nominal}
        )
        expected = ref.on_tick(dict_tick(names, row))
        got = policy.on_tick(array_tick(names, row))
        assert effective_decisions(got, names, running) == (
            effective_decisions(expected, names, running))
        assert list(policy._levels.items()) == list(ref._levels.items())
        if cool_nominal:
            assert got.vf_settings == {}
            cool_nominal_ticks += 1
        is_hot = max(row["temps"]) >= threshold
        heat_ups += is_hot and not was_hot
        cool_downs += was_hot and not is_hot
        was_hot = is_hot
        running = [got.vf_settings.get(name, level)
                   for name, level in zip(names, running)]
    assert heat_ups >= 10 and cool_downs >= 10
    assert cool_nominal_ticks >= 50
