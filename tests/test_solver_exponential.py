"""Exponential-propagator solver tests.

Four families:

- accuracy: the exponential step is exact for piecewise-constant power,
  so it must track a fine-substep Crank-Nicolson reference within the
  accuracy budget (0.01 K) across all four paper stacks — both under
  randomized power steps (fast slice) and under the power trace of a
  full 120 s engine workload (slow marker);
- caching: the ``expm`` build is paid once per :class:`ThermalAssembly`
  and reused by every model/run sharing it;
- the dense-propagator guard: oversized networks resolve to the
  implicit fallback;
- config plumbing: ``EngineConfig``/``RunSpec`` select the integrator,
  unknown names are rejected.
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
from repro.thermal.network import build_network
from repro.thermal.solver import TransientSolver, build_propagator
from repro.thermal.stack import build_stack

ACCURACY_BUDGET_K = 0.01
REFERENCE_SUBSTEPS = 64


def _reference_pair(network):
    exact = TransientSolver(network, dt=0.1, method="exponential")
    reference = TransientSolver(
        network, dt=0.1, substeps=REFERENCE_SUBSTEPS, method="crank_nicolson"
    )
    return exact, reference


def _run_trace(exact, reference, network, power_vectors, start):
    """Step both solvers through a power trace; max |ΔT| over all ticks."""
    t_exact = start.copy()
    t_ref = start.copy()
    worst = 0.0
    for powers in power_vectors:
        t_exact = exact.step(t_exact, powers)
        t_ref = reference.step(t_ref, powers)
        worst = max(worst, float(np.abs(t_exact - t_ref).max()))
    return worst


class TestAccuracyBudget:
    @pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
    def test_tracks_crank_nicolson_under_random_power_steps(self, exp_id):
        """Randomized piecewise-constant power on the real 8x8 grids."""
        network = build_network(
            build_stack(build_experiment(exp_id)), 8, 8, AMBIENT_K
        )
        exact, reference = _reference_pair(network)
        rng = np.random.default_rng(exp_id)
        die_slice = network.layer_slice(2)
        powers = np.zeros(network.n_nodes)
        trace = []
        for _ in range(6):
            held = np.zeros(network.n_nodes)
            held[die_slice] = rng.uniform(
                0.0, 1.0, die_slice.stop - die_slice.start
            )
            # Hold each draw for a few intervals (the engine holds power
            # constant across each 100 ms tick).
            trace.extend([held] * 4)
        worst = _run_trace(
            exact, reference, network, trace,
            np.full(network.n_nodes, AMBIENT_K),
        )
        assert worst <= ACCURACY_BUDGET_K, (
            f"EXP-{exp_id}: exponential step drifted {worst:.4f} K from "
            f"CN/{REFERENCE_SUBSTEPS}"
        )

    @pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
    @pytest.mark.slow
    def test_full_paper_workload_within_budget(self, exp_id):
        """Replay the power trace of a full 120 s Adapt3D run and bound
        the exponential-vs-CN64 temperature divergence (the acceptance
        budget of the solver swap). Eager fidelity: the trace is
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
            captured.append(thermal.node_powers_from_vector(vec))
            return original(vec)

        thermal.step_vector = capture
        engine._initialize_thermal_state()
        start = thermal.temperatures.copy()
        engine.run()
        assert len(captured) == 1200
        exact, reference = _reference_pair(thermal.network)
        worst = _run_trace(exact, reference, thermal.network, captured, start)
        assert worst <= ACCURACY_BUDGET_K, (
            f"EXP-{exp_id}: exponential step drifted {worst:.4f} K from "
            f"CN/{REFERENCE_SUBSTEPS} over the 120 s workload"
        )

    def test_engine_temperatures_match_across_solvers(self):
        """End-to-end: recorded temperatures of exponential vs implicit
        runs stay within tenths of a kelvin (they solve the same ODE)."""
        runner = ExperimentRunner()
        spec = RunSpec(exp_id=1, policy="Default", duration_s=10.0, seed=7)
        exact = runner.run(spec)
        implicit = runner.run(replace(spec, thermal_solver="crank_nicolson"))
        assert np.abs(exact.unit_temps_k - implicit.unit_temps_k).max() < 0.5


class TestPropagatorCaching:
    def _counting_expm(self, monkeypatch):
        calls = []
        original = solver_mod.expm

        def counted(matrix):
            calls.append(matrix.shape)
            return original(matrix)

        monkeypatch.setattr(solver_mod, "expm", counted)
        return calls

    def test_assembly_reuse_skips_expm(self, monkeypatch):
        calls = self._counting_expm(monkeypatch)
        config = build_experiment(1)
        first = ThermalModel(config, nrows=4, ncols=4)
        assert len(calls) == 1
        again = ThermalModel(config, nrows=4, ncols=4,
                             assembly=first.assembly)
        assert len(calls) == 1, "cached assembly rebuilt the propagator"
        # Switching solvers back and forth must not rebuild either.
        again.use_solver("backward_euler")
        again.use_solver("exponential")
        assert len(calls) == 1

    def test_runner_cache_shares_propagator_across_runs(self, monkeypatch):
        calls = self._counting_expm(monkeypatch)
        runner = ExperimentRunner()
        spec = RunSpec(exp_id=1, policy="Default", duration_s=1.0)
        runner.run(spec)
        runner.run(replace(spec, seed=3))
        assert len(calls) == 1

    def test_implicit_runs_never_build_propagator(self, monkeypatch):
        calls = self._counting_expm(monkeypatch)
        runner = ExperimentRunner()
        runner.run(
            RunSpec(
                exp_id=1, policy="Default", duration_s=1.0,
                thermal_solver="backward_euler",
            )
        )
        assert calls == []


class TestDensePropagatorGuard:
    def test_oversized_network_falls_back_to_implicit(self):
        network = build_network(
            build_stack(build_experiment(1)), 4, 4, AMBIENT_K
        )
        solver = TransientSolver(
            network, dt=0.1, method="exponential", dense_node_limit=10
        )
        assert solver.method == "exponential"
        assert solver.resolved_method == "backward_euler"
        assert solver.propagator is None
        # The fallback still integrates correctly.
        implicit = TransientSolver(network, dt=0.1, method="backward_euler")
        powers = np.zeros(network.n_nodes)
        start = np.full(network.n_nodes, AMBIENT_K + 5.0)
        np.testing.assert_array_equal(
            solver.step(start, powers), implicit.step(start, powers)
        )

    def test_paper_grids_stay_dense(self):
        network = build_network(
            build_stack(build_experiment(4)), 8, 8, AMBIENT_K
        )
        solver = TransientSolver(network, dt=0.1, method="exponential")
        assert solver.resolved_method == "exponential"
        assert solver.propagator.shape == (network.n_nodes, network.n_nodes)

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
    def test_unknown_solver_rejected_by_engine(self):
        runner = ExperimentRunner()
        engine = runner.build_engine(
            RunSpec(exp_id=1, policy="Default", duration_s=1.0)
        )
        engine.config = replace(engine.config, thermal_solver="rk4")
        with pytest.raises(SchedulerError):
            engine.run()

    def test_unknown_solver_rejected_by_model(self):
        model = ThermalModel(build_experiment(1), nrows=4, ncols=4)
        with pytest.raises(ThermalModelError):
            model.use_solver("rk4")

    def test_default_is_exponential(self):
        from repro.sched.engine import EngineConfig

        assert EngineConfig().thermal_solver == "exponential"
        assert RunSpec(exp_id=1, policy="Default").thermal_solver == "exponential"
        model = ThermalModel(build_experiment(1), nrows=4, ncols=4)
        assert model.solver_method == "exponential"

    @pytest.mark.parametrize(
        "method", ["exponential", "backward_euler", "crank_nicolson"]
    )
    def test_engine_config_selects_solver(self, method):
        runner = ExperimentRunner()
        engine = runner.build_engine(
            RunSpec(exp_id=1, policy="Default", duration_s=1.0)
        )
        engine.config = replace(engine.config, thermal_solver=method)
        engine.run()
        assert engine.thermal.solver_method == method
