"""The policy declares a no-op tick; the engine skips only those.

Both fidelities skip a policy tick that the policy declares a no-op
(:meth:`Policy.tick_is_noop`). The skip is exact only if the hook never
claims a tick that would act, so these tests pin the hook per policy
and check, in the engine, that a policy whose ``on_tick`` is not the
declared no-op is called at every tick boundary.
"""

from dataclasses import replace

import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.core.base import Policy
from repro.core.default import IMBALANCE_THRESHOLD, DefaultLoadBalancing
from repro.core.registry import build_policy, policy_names
from repro.obs.telemetry import TelemetryConfig

RUNNER = ExperimentRunner()

#: Two sparse threads: long idle gaps, so event runs take clock jumps.
IDLE_MIX = (("gzip", 1), ("MPlayer", 1))

BALANCED = [1, 0, 1, 1]
IMBALANCED = [IMBALANCE_THRESHOLD, 0, 1, 1]


class FirstCore(Policy):
    """Places every job on the first core; keeps the base tick."""

    name = "FirstCore"

    def select_core(self, job, ctx):
        return ctx.core_names[0]


class CountingDefault(DefaultLoadBalancing):
    """Default with an overriding (counting) ``on_tick``."""

    name = "CountingDefault"

    def __init__(self):
        super().__init__()
        self.tick_times = []

    def on_tick(self, ctx):
        self.tick_times.append(ctx.time)
        return super().on_tick(ctx)


def _overrides_on_tick(name):
    cls_tick = type(build_policy(name)).on_tick
    return cls_tick not in (Policy.on_tick, DefaultLoadBalancing.on_tick)


OVERRIDING = [name for name in policy_names() if _overrides_on_tick(name)]


class TestHook:
    def test_base_tick_policy_is_noop(self):
        policy = FirstCore()
        assert policy.tick_is_noop(BALANCED)
        assert policy.tick_is_noop(IMBALANCED)

    def test_balanced_default_is_noop(self):
        policy = DefaultLoadBalancing()
        assert policy.tick_is_noop(BALANCED)
        assert policy.tick_is_noop([0, 0, 0, 0])
        assert policy.tick_is_noop([IMBALANCE_THRESHOLD - 1, 0])

    def test_imbalanced_default_is_not_noop(self):
        assert not DefaultLoadBalancing().tick_is_noop(IMBALANCED)

    def test_every_overriding_policy_is_registered(self):
        # The parametrization below must not silently collect nothing.
        assert {"CGate", "DVFS_TT", "Migr", "Adapt3D"} <= set(OVERRIDING)

    @pytest.mark.parametrize("name", OVERRIDING)
    def test_overriding_policy_is_never_noop(self, name):
        policy = build_policy(name)
        assert not policy.tick_is_noop(BALANCED)
        assert not policy.tick_is_noop([0, 0, 0, 0])

    def test_default_subclass_overriding_on_tick_is_never_noop(self):
        assert not CountingDefault().tick_is_noop([0, 0, 0, 0])


class TestEngineCallsActingTicks:
    @pytest.mark.parametrize("fidelity", ["eager", "event"])
    def test_overriding_default_called_every_tick(self, fidelity):
        spec = RunSpec(
            exp_id=1, policy="Default", duration_s=6.0, seed=3,
            benchmark_mix=IDLE_MIX, fidelity=fidelity,
        )
        engine = RUNNER.build_engine(spec)
        engine.config = replace(engine.config, telemetry=TelemetryConfig())
        policy = CountingDefault()
        policy.attach(engine.system_view)
        engine.policy = policy
        result = engine.run()
        assert policy.tick_times == list(result.times)
        if fidelity == "event":
            # The idle mix must really take the jump path.
            counters = result.telemetry["engine"]["counters"]
            assert counters["event_jumps"] > 0
            assert counters["event_skipped_ticks"] == 0

    def test_balanced_default_ticks_are_skipped(self):
        """Plain Default over balanced idle queues skips ticks: the
        skip the differential proves exact does engage."""
        spec = RunSpec(
            exp_id=1, policy="Default", duration_s=6.0, seed=3,
            benchmark_mix=IDLE_MIX,
        )
        engine = RUNNER.build_engine(spec)
        calls = []
        on_tick = engine.policy.on_tick

        def counting(ctx):
            calls.append(ctx.time)
            return on_tick(ctx)

        # An instance attribute leaves the class's on_tick, which the
        # hook checks, in place.
        engine.policy.on_tick = counting
        result = engine.run()
        assert len(calls) < result.n_ticks
