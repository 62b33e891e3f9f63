"""Analytic validation of the thermal network (EXPERIMENTS.md, "Substitutions").

On a 1x1 grid the RC network degenerates to a pure series resistance
chain whose steady state is computable by hand:

    T_die = T_amb + P * (R_die->spr + R_spr->sink + R_sink->conv + R_conv)

with each inter-slab resistance the sum of the half-thickness bulk
terms (plus interface material where present). These tests check the
solver against that closed form, including the interlayer term.
"""

import numpy as np
import pytest

from repro.floorplan.experiments import build_experiment
from repro.thermal.materials import AMBIENT_K
from repro.thermal.network import build_network
from repro.thermal.solver import SteadyStateSolver
from repro.thermal.stack import build_stack


def series_resistances(stack, area):
    """Hand-computed inter-slab resistances, sink-side first."""
    resistances = []
    layers = stack.layers
    for lower, upper in zip(layers, layers[1:]):
        r = lower.thickness_m / (2.0 * lower.material.conductivity * area)
        if lower.interface_resistivity is not None:
            r += lower.interface_resistivity * lower.interface_thickness_m / area
        r += upper.thickness_m / (2.0 * upper.material.conductivity * area)
        resistances.append(r)
    sink = layers[0]
    r_sink_conv = sink.thickness_m / (
        2.0 * sink.material.conductivity * area
    ) + stack.internal_resistance
    return resistances, r_sink_conv


class TestAnalytic1D:
    def test_single_die_chain(self):
        """EXP-1 stack on a 1x1 grid: heat die0 and verify every node
        temperature against the series-resistance closed form."""
        stack = build_stack(build_experiment(1))
        area = stack.width_m * stack.height_m
        network = build_network(stack, 1, 1, AMBIENT_K)
        solver = SteadyStateSolver(network)

        power = 20.0
        powers = np.zeros(network.n_nodes)
        die0_node = network.layer_offsets[2]
        powers[die0_node] = power
        temps = solver.solve(powers)

        inter, r_sink_conv = series_resistances(stack, area)
        # Heat path: die0 -> spreader -> sink -> convection node -> ambient.
        expected_conv = AMBIENT_K + power * stack.convection_resistance
        expected_sink = expected_conv + power * r_sink_conv
        expected_spreader = expected_sink + power * inter[0]
        expected_die0 = expected_spreader + power * inter[1]

        assert temps[network.sink_node] == pytest.approx(expected_conv, abs=1e-6)
        assert temps[network.layer_offsets[0]] == pytest.approx(
            expected_sink, abs=1e-6
        )
        assert temps[network.layer_offsets[1]] == pytest.approx(
            expected_spreader, abs=1e-6
        )
        assert temps[die0_node] == pytest.approx(expected_die0, abs=1e-6)

    def test_top_die_sees_interlayer_resistance(self):
        """Heating die1 adds the die0-die1 interlayer term — the 3D
        mechanism the paper's stacks hinge on."""
        stack = build_stack(build_experiment(1))
        area = stack.width_m * stack.height_m
        network = build_network(stack, 1, 1, AMBIENT_K)
        solver = SteadyStateSolver(network)

        power = 20.0
        powers = np.zeros(network.n_nodes)
        die1_node = network.layer_offsets[3]
        powers[die1_node] = power
        temps = solver.solve(powers)

        inter, r_sink_conv = series_resistances(stack, area)
        expected_die1 = (
            AMBIENT_K
            + power
            * (stack.convection_resistance + r_sink_conv + sum(inter))
        )
        assert temps[die1_node] == pytest.approx(expected_die1, abs=1e-6)

    def test_unheated_branches_isothermal_with_path(self):
        """With die1 heated, die0 must sit exactly on the heat path
        temperature (no spurious current into dead ends)."""
        stack = build_stack(build_experiment(1))
        network = build_network(stack, 1, 1, AMBIENT_K)
        solver = SteadyStateSolver(network)
        powers = np.zeros(network.n_nodes)
        powers[network.layer_offsets[2]] = 20.0  # heat die0 only
        temps = solver.solve(powers)
        # die1 carries no flux: same temperature as die0.
        assert temps[network.layer_offsets[3]] == pytest.approx(
            temps[network.layer_offsets[2]], abs=1e-9
        )

    def test_superposition(self):
        """The network is linear: the response to two sources equals the
        sum of the individual responses (rise above ambient)."""
        stack = build_stack(build_experiment(3))
        network = build_network(stack, 2, 2, AMBIENT_K)
        solver = SteadyStateSolver(network)
        p1 = np.zeros(network.n_nodes)
        p2 = np.zeros(network.n_nodes)
        p1[network.layer_offsets[2]] = 7.0
        p2[network.layer_offsets[5] + 3] = 11.0
        rise1 = solver.solve(p1) - AMBIENT_K
        rise2 = solver.solve(p2) - AMBIENT_K
        combined = solver.solve(p1 + p2) - AMBIENT_K
        np.testing.assert_allclose(combined, rise1 + rise2, rtol=1e-9)
