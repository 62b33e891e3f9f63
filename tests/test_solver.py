"""Solver tests: steady state, and the transient behaviour of the
exact step (``ThermalModel.step_vector``)."""

import numpy as np
import pytest

from repro.errors import ThermalModelError
from repro.floorplan.experiments import build_experiment
from repro.thermal.materials import AMBIENT_K
from repro.thermal.model import ThermalModel
from repro.thermal.network import build_network
from repro.thermal.solver import SteadyStateSolver
from repro.thermal.stack import build_stack
from tests.thermal_reference import CrankNicolson


@pytest.fixture(scope="module")
def network():
    return build_network(build_stack(build_experiment(1)), 4, 4, AMBIENT_K)


def die_power(network, watts):
    powers = np.zeros(network.n_nodes)
    sl = network.layer_slice(2)  # die0
    powers[sl.start: sl.stop] = watts / 16.0
    return powers


class TestSteadyState:
    def test_zero_power_gives_ambient(self, network):
        temps = SteadyStateSolver(network).solve(np.zeros(network.n_nodes))
        np.testing.assert_allclose(temps, AMBIENT_K, atol=1e-8)

    def test_positive_power_heats_above_ambient(self, network):
        temps = SteadyStateSolver(network).solve(die_power(network, 40.0))
        assert (temps > AMBIENT_K - 1e-9).all()

    def test_total_heat_balance(self, network):
        """In equilibrium, all injected power leaves through convection:
        P_total = g_amb * (T_sink - T_amb)."""
        power = die_power(network, 40.0)
        temps = SteadyStateSolver(network).solve(power)
        out = network.ambient_conductance[network.sink_node] * (
            temps[network.sink_node] - AMBIENT_K
        )
        assert out == pytest.approx(40.0, rel=1e-6)

    def test_linear_in_power(self, network):
        solver = SteadyStateSolver(network)
        t1 = solver.solve(die_power(network, 20.0))
        t2 = solver.solve(die_power(network, 40.0))
        rise1 = t1 - AMBIENT_K
        rise2 = t2 - AMBIENT_K
        np.testing.assert_allclose(rise2, 2.0 * rise1, rtol=1e-9)

    def test_heated_die_is_hottest(self, network):
        temps = SteadyStateSolver(network).solve(die_power(network, 40.0))
        die0 = temps[network.layer_slice(2)]
        sink = temps[network.layer_slice(0)]
        assert die0.mean() > sink.mean()

    def test_shape_check(self, network):
        with pytest.raises(ThermalModelError):
            SteadyStateSolver(network).solve(np.zeros(3))


def transient_model(dt):
    """EXP-1 on the 4x4 grid of the ``network`` fixture, stepping ``dt``."""
    return ThermalModel(build_experiment(1), nrows=4, ncols=4,
                        sampling_interval=dt)


def die0_unit_powers(model, watts):
    """``watts`` over die 0 at uniform density (``die_power``'s heat),
    as a ``unit_names``-ordered vector; die 0's units come first."""
    names = model.die_mapper(0).unit_names
    areas = np.array([model.unit_area(name) for name in names])
    vec = np.zeros(len(model.unit_names))
    vec[: len(names)] = watts * areas / areas.sum()
    return vec


def steady_nodes(model, unit_powers):
    return SteadyStateSolver(model.network).solve(
        model.node_powers_from_vector(unit_powers)
    )


class TestTransient:
    def test_converges_to_steady_state(self):
        model = transient_model(1.0)
        power = die0_unit_powers(model, 40.0)
        steady = steady_nodes(model, power)
        for _ in range(600):
            model.step_vector(power)
        # The 140 J/K sink node has a ~14 s time constant; 600 s is deep
        # into equilibrium.
        np.testing.assert_allclose(model.temperatures, steady, atol=0.05)

    def test_monotone_heating_from_ambient(self):
        model = transient_model(0.1)
        power = die0_unit_powers(model, 40.0)
        previous_max = model.temperatures.max()
        for _ in range(50):
            model.step_vector(power)
            assert model.temperatures.max() >= previous_max - 1e-9
            previous_max = model.temperatures.max()

    def test_cooling_decays_to_ambient(self):
        model = transient_model(1.0)
        model.temperatures = steady_nodes(
            model, die0_unit_powers(model, 40.0)
        )
        zero = np.zeros(len(model.unit_names))
        for _ in range(600):
            model.step_vector(zero)
        np.testing.assert_allclose(model.temperatures, AMBIENT_K, atol=0.05)

    def test_substeps_refine_accuracy(self):
        """The Crank-Nicolson reference converges on the exact step as
        its substeps refine, reaching the 0.01 K accuracy budget at the
        64 substeps the accuracy tests use."""
        model = transient_model(0.5)
        power = die0_unit_powers(model, 40.0)
        node_power = model.node_powers_from_vector(power)
        errors = []
        for substeps in (1, 4, 16, 64):
            model.reset()
            reference = CrankNicolson(model.network, 0.5, substeps)
            temps = model.temperatures.copy()
            worst = 0.0
            for _ in range(20):
                model.step_vector(power)
                temps = reference.step(temps, node_power)
                worst = max(worst, np.abs(model.temperatures - temps).max())
            errors.append(worst)
        assert errors == sorted(errors, reverse=True)
        assert errors[0] < 5.0
        assert errors[-1] < 0.01

    def test_invalid_configuration_rejected(self):
        for dt in (0.0, -0.1, float("nan")):
            with pytest.raises(ThermalModelError):
                transient_model(dt)

    def test_shape_checks(self):
        model = transient_model(0.1)
        with pytest.raises(ThermalModelError):
            model.step_vector(np.zeros(3))
