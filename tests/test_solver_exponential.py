"""Exact-step tests.

Four families:

- accuracy: the exponential step is exact for piecewise-constant power,
  so ``ThermalModel.step_vector`` must track the independent
  Crank-Nicolson reference (``tests/thermal_reference.py``, 64
  substeps) within the accuracy budget (0.01 K) across all four paper
  stacks — both under randomized power steps (fast slice) and under
  the power trace of a full 120 s engine workload (slow marker);
- caching: the ``expm`` build is paid once per :class:`ThermalAssembly`
  and reused by every model/run sharing it;
- the dense-propagator guard: networks above the node limit are
  refused before any ``expm``, and the propagator is dissipative;
- config plumbing: the model steps with the exponential propagator, and
  the engine refuses a tick that differs from the model's interval.
"""

from dataclasses import replace

import numpy as np
import pytest

import repro.thermal.solver as solver_mod
from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.errors import SchedulerError, ThermalModelError
from repro.floorplan.experiments import build_experiment
from repro.thermal.materials import AMBIENT_K
from repro.thermal.model import ThermalModel
from repro.thermal.network import MAX_NODES, build_network
from repro.thermal.solver import SteadyStateSolver, build_propagator
from repro.thermal.stack import build_stack
from tests.thermal_reference import REFERENCE_SUBSTEPS, CrankNicolson

ACCURACY_BUDGET_K = 0.01


def _run_trace(model, power_vectors):
    """Step ``model`` and the CN reference from the model's state
    through a trace of unit-power vectors; max |ΔT| over all ticks."""
    reference = CrankNicolson(model.network, model.sampling_interval)
    t_ref = model.temperatures.copy()
    worst = 0.0
    for vec in power_vectors:
        model.step_vector(vec)
        t_ref = reference.step(t_ref, model.node_powers_from_vector(vec))
        worst = max(worst, float(np.abs(model.temperatures - t_ref).max()))
    return worst


class TestAccuracyBudget:
    @pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
    def test_tracks_crank_nicolson_under_random_power_steps(self, exp_id):
        """Randomized piecewise-constant power on the real 8x8 grids."""
        model = ThermalModel(build_experiment(exp_id))
        rng = np.random.default_rng(exp_id)
        trace = []
        for _ in range(6):
            held = rng.uniform(0.0, 4.0, len(model.unit_names))
            # Hold each draw for a few intervals (the engine holds power
            # constant across each 100 ms tick).
            trace.extend([held] * 4)
        worst = _run_trace(model, trace)
        assert worst <= ACCURACY_BUDGET_K, (
            f"EXP-{exp_id}: exponential step drifted {worst:.4f} K from "
            f"CN/{REFERENCE_SUBSTEPS}"
        )

    @pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
    @pytest.mark.slow
    def test_full_paper_workload_within_budget(self, exp_id):
        """Replay the power trace of a full 120 s Adapt3D run and bound
        the exponential-vs-CN64 temperature divergence (the accuracy
        budget of the integrator). Eager fidelity: the trace is
        captured from the dense ``step_vector`` calls, which event runs
        replace with the modal stepper."""
        runner = ExperimentRunner()
        engine = runner.build_engine(
            RunSpec(
                exp_id=exp_id, policy="Adapt3D", duration_s=120.0, seed=2009,
                fidelity="eager",
            )
        )
        thermal = engine.thermal
        captured = []
        original = thermal.step_vector

        def capture(vec):
            # The engine reuses its power buffer across ticks.
            captured.append(vec.copy())
            return original(vec)

        thermal.step_vector = capture
        engine._initialize_thermal_state()
        replay = ThermalModel(thermal.config, assembly=thermal.assembly)
        replay.temperatures = thermal.temperatures.copy()
        engine.run()
        assert len(captured) == 1200
        worst = _run_trace(replay, captured)
        assert worst <= ACCURACY_BUDGET_K, (
            f"EXP-{exp_id}: exponential step drifted {worst:.4f} K from "
            f"CN/{REFERENCE_SUBSTEPS} over the 120 s workload"
        )


def _counting_expm(monkeypatch):
    """Record the shape of every ``expm`` the propagator build makes."""
    calls = []
    original = solver_mod.expm

    def counted(matrix):
        calls.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(solver_mod, "expm", counted)
    return calls


class TestPropagatorCaching:
    def test_assembly_reuse_skips_expm(self, monkeypatch):
        calls = _counting_expm(monkeypatch)
        config = build_experiment(1)
        first = ThermalModel(config, nrows=4, ncols=4)
        assert len(calls) == 1
        ThermalModel(config, nrows=4, ncols=4, assembly=first.assembly)
        assert len(calls) == 1, "cached assembly rebuilt the propagator"

    def test_runner_cache_shares_propagator_across_runs(self, monkeypatch):
        calls = _counting_expm(monkeypatch)
        runner = ExperimentRunner()
        spec = RunSpec(exp_id=1, policy="Default", duration_s=1.0)
        runner.run(spec)
        runner.run(replace(spec, seed=3))
        assert len(calls) == 1


class TestDensePropagatorGuard:
    def test_oversized_network_rejected(self, monkeypatch):
        """A grid above the node limit is refused before any dense
        allocation: no ``expm``, no silent change of integrator."""
        calls = _counting_expm(monkeypatch)
        stack = build_stack(build_experiment(4))
        # 26x26 on EXP-4's six slabs is the largest grid the limit
        # admits; 27x27 is not.
        assert stack.n_layers * 26 * 26 + 1 <= MAX_NODES
        assert stack.n_layers * 27 * 27 + 1 > MAX_NODES
        with pytest.raises(ThermalModelError, match="limit"):
            build_network(stack, 27, 27, AMBIENT_K)
        with pytest.raises(ThermalModelError, match="limit"):
            ThermalModel(build_experiment(4), nrows=27, ncols=27)
        assert calls == []

    def test_paper_grids_stay_dense(self):
        model = ThermalModel(build_experiment(4))
        n_nodes = model.network.n_nodes
        assert n_nodes <= MAX_NODES
        assert model.assembly.propagator.shape == (n_nodes, n_nodes)

    def test_propagator_is_stable(self):
        """The continuous system is dissipative, so the propagator's
        spectral radius must stay below 1 (no energy injected by the
        integrator)."""
        network = build_network(
            build_stack(build_experiment(1)), 4, 4, AMBIENT_K
        )
        propagator = build_propagator(network, 0.1)
        radius = np.abs(np.linalg.eigvals(propagator)).max()
        assert radius < 1.0


class TestConfigPlumbing:
    def test_default_is_exponential(self):
        """The model's one integrator is ``T' = T_inf + A (T - T_inf)``
        with ``A = expm(-C^-1 G dt)`` over its sampling interval."""
        model = ThermalModel(build_experiment(1), nrows=4, ncols=4,
                             sampling_interval=0.25)
        powers = np.linspace(0.5, 3.0, len(model.unit_names))
        start = model.temperatures.copy()
        model.step_vector(powers)
        t_inf = SteadyStateSolver(model.network).solve(
            model.node_powers_from_vector(powers)
        )
        propagator = build_propagator(model.network, 0.25)
        np.testing.assert_allclose(
            model.temperatures, t_inf + propagator @ (start - t_inf),
            rtol=0.0, atol=1e-9,
        )

    def test_engine_tick_must_match_thermal_interval(self):
        """A tick other than the model's interval would run thermal
        time at a different rate from the scheduler clock."""
        runner = ExperimentRunner()
        engine = runner.build_engine(
            RunSpec(exp_id=1, policy="Default", duration_s=1.0)
        )
        engine.config = replace(engine.config, sampling_interval_s=0.05)
        with pytest.raises(SchedulerError, match="0.05.*0.1"):
            engine.run()
