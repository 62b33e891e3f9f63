"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.floorplan.experiments import build_experiment
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.unit import Unit, UnitKind
from repro.metrics.cycles import rainflow_count
from repro.metrics.hotspots import hot_spot_fraction
from repro.sched.lfsr import GaloisLFSR
from repro.thermal.grid import GridMapper
from repro.thermal.materials import AMBIENT_K
from repro.thermal.model import ThermalModel
from repro.thermal.network import build_network
from repro.thermal.solver import SteadyStateSolver
from repro.thermal.stack import build_stack
from repro.thermal.tsv import joint_resistivity

# Shared small network for solver properties.
_NETWORK = build_network(build_stack(build_experiment(1)), 3, 3, AMBIENT_K)
_STEADY = SteadyStateSolver(_NETWORK)


@st.composite
def node_powers(draw):
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=_NETWORK.n_nodes,
            max_size=_NETWORK.n_nodes,
        )
    )
    return np.array(values)


def _transient_model(dt):
    """The exact step on ``_NETWORK``'s stack and grid."""
    return ThermalModel(build_experiment(1), nrows=3, ncols=3,
                        sampling_interval=dt)


_N_UNITS = len(_transient_model(0.1).unit_names)


@st.composite
def unit_powers(draw):
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0),
            min_size=_N_UNITS,
            max_size=_N_UNITS,
        )
    )
    return np.array(values)


class TestThermalProperties:
    @given(node_powers())
    @settings(max_examples=25, deadline=None)
    def test_steady_state_never_below_ambient(self, powers):
        temps = _STEADY.solve(powers)
        assert (temps >= AMBIENT_K - 1e-6).all()

    @given(node_powers())
    @settings(max_examples=25, deadline=None)
    def test_steady_state_heat_balance(self, powers):
        """All injected power must leave through the convection node."""
        temps = _STEADY.solve(powers)
        outflow = _NETWORK.ambient_conductance[_NETWORK.sink_node] * (
            temps[_NETWORK.sink_node] - AMBIENT_K
        )
        assert outflow == pytest.approx(powers.sum(), rel=1e-6, abs=1e-6)

    @given(unit_powers(), st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=15, deadline=None)
    def test_transient_bounded_by_steady_state(self, powers, dt):
        """Heating from ambient under constant power never overshoots
        the equilibrium (the network is passive, and the exact step
        adds no ringing of its own)."""
        model = _transient_model(dt)
        steady = _STEADY.solve(model.node_powers_from_vector(powers))
        for _ in range(20):
            model.step_vector(powers)
            assert (model.temperatures <= steady + 1e-6).all()

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_tsv_resistivity_bounded(self, density):
        rho = joint_resistivity(density)
        assert 1.0 / 400.0 <= rho <= 0.25 + 1e-12


@st.composite
def tiled_floorplan(draw):
    """A 1-D strip of units tiling a die exactly."""
    n = draw(st.integers(min_value=1, max_value=6))
    widths = draw(
        st.lists(
            st.floats(min_value=0.5e-3, max_value=3e-3),
            min_size=n,
            max_size=n,
        )
    )
    units = []
    x = 0.0
    for i, w in enumerate(widths):
        units.append(Unit(f"u{i}", x, 0.0, w, 2e-3, UnitKind.CORE))
        x += w
    return Floorplan(x, 2e-3, units)


class TestGridProperties:
    @given(
        tiled_floorplan(),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_power_conservation(self, plan, rows, cols):
        mapper = GridMapper(plan, rows, cols)
        powers = {u.name: 1.0 + i for i, u in enumerate(plan.units)}
        cells = mapper.cell_powers(powers)
        assert cells.sum() == pytest.approx(sum(powers.values()), rel=1e-9)

    @given(
        tiled_floorplan(),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    def test_uniform_field_reads_back_exactly(self, plan, rows, cols):
        mapper = GridMapper(plan, rows, cols)
        temps = mapper.unit_temperatures(np.full(rows * cols, 333.0))
        for value in temps.values():
            assert value == pytest.approx(333.0)


class TestLFSRProperties:
    @given(st.integers(min_value=0, max_value=0xFFFF))
    @settings(max_examples=50)
    def test_state_stays_in_16_bits_and_nonzero(self, seed):
        lfsr = GaloisLFSR(seed)
        for _ in range(64):
            word = lfsr.next_word()
            assert 0 < word <= 0xFFFF

    @given(
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=8),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    @settings(max_examples=50)
    def test_choice_only_selects_positive_weights(self, weights, seed):
        if sum(weights) <= 0.0:
            return
        lfsr = GaloisLFSR(seed)
        for _ in range(32):
            index = lfsr.choice(weights)
            assert weights[index] > 0.0


class TestMetricProperties:
    @given(
        st.lists(
            st.lists(st.floats(min_value=300.0, max_value=400.0), min_size=2, max_size=4),
            min_size=1,
            max_size=40,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=30)
    def test_hot_spot_fraction_in_unit_interval(self, rows):
        fraction = hot_spot_fraction(np.array(rows))
        assert 0.0 <= fraction <= 1.0

    @given(
        st.lists(st.floats(min_value=300.0, max_value=400.0), min_size=2, max_size=60)
    )
    @settings(max_examples=50)
    def test_rainflow_ranges_bounded_by_series_span(self, series):
        cycles = rainflow_count(np.array(series))
        span = max(series) - min(series)
        for magnitude, count in cycles:
            assert 0.0 < magnitude <= span + 1e-9
            assert count in (0.5, 1.0)

    @given(
        st.lists(st.floats(min_value=300.0, max_value=400.0), min_size=4, max_size=60)
    )
    @settings(max_examples=50)
    def test_rainflow_total_count_matches_reversals(self, series):
        """Every reversal pairs into half or full cycles; total cycle
        count can never exceed the number of turning points."""
        arr = np.array(series)
        cycles = rainflow_count(arr)
        total = sum(count for _, count in cycles)
        assert total <= len(series)


class TestProbabilisticPolicyProperties:
    @given(
        st.lists(st.floats(min_value=40.0, max_value=95.0), min_size=4, max_size=4),
        st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=30, deadline=None)
    def test_probabilities_always_normalized_and_nonnegative(self, temps, ticks):
        from repro.core.adapt3d import Adapt3D

        from tests.conftest import make_system_view, make_tick

        policy = Adapt3D()
        policy.attach(make_system_view(4))
        mapping = {f"c{i}": temps[i] for i in range(4)}
        for _ in range(ticks):
            policy.on_tick(make_tick(mapping))
            probs = policy.probabilities
            assert all(p >= 0.0 for p in probs.values())
            total = sum(probs.values())
            assert total == pytest.approx(1.0) or total == 0.0
