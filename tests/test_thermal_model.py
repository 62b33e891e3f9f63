"""ThermalModel facade tests."""

import pytest

from repro.errors import ThermalModelError
from repro.floorplan.experiments import build_experiment
from repro.thermal.materials import celsius
from repro.thermal.model import ThermalModel


@pytest.fixture(scope="module")
def model():
    return ThermalModel(build_experiment(1), nrows=6, ncols=6)


def uniform_powers(model, core_w=3.0, other_w=1.0):
    return {
        name: core_w if model.unit_kind(name).value == "core" else other_w
        for name in model.unit_names
    }


class TestIntrospection:
    def test_unit_names_cover_both_dies(self, model):
        names = model.unit_names
        assert any(n.startswith("L0_") for n in names)
        assert any(n.startswith("L1_") for n in names)

    def test_core_names_canonical_order(self, model):
        assert model.core_names == [f"L0_core{i}" for i in range(8)]

    def test_unit_area_lookup(self, model):
        assert model.unit_area("L0_core0") == pytest.approx(10e-6)

    def test_unknown_unit_raises(self, model):
        with pytest.raises(ThermalModelError):
            model.unit_area("nope")


class TestSteadyState:
    def test_cores_hotter_than_same_layer_service_strip(self, model):
        # Compare within EXP-1's logic tier: 0.3 W/mm² cores vs the
        # ~0.06 W/mm² crossbar at equal distance from the sink (the
        # upper tier is near-uniform, so it doesn't skew the contrast).
        steady = model.steady_state(uniform_powers(model))
        core_mean = sum(steady[f"L0_core{i}"] for i in range(8)) / 8
        assert core_mean > steady["L0_xbar"]

    def test_plausible_operating_point(self, model):
        steady = model.steady_state(uniform_powers(model))
        hottest = celsius(max(steady.values()))
        assert 50.0 < hottest < 90.0

    def test_node_power_conservation(self, model):
        powers = uniform_powers(model)
        vec = model.node_powers(powers)
        assert vec.sum() == pytest.approx(sum(powers.values()))


class TestTransient:
    def test_step_moves_toward_steady_state(self):
        model = ThermalModel(build_experiment(1), nrows=6, ncols=6)
        powers = uniform_powers(model)
        model.reset()
        before = model.max_temperature()
        for _ in range(20):
            model.step(powers)
        assert model.max_temperature() > before

    def test_initialize_steady_state(self):
        model = ThermalModel(build_experiment(1), nrows=6, ncols=6)
        powers = uniform_powers(model)
        model.initialize_steady_state(powers)
        steady = model.steady_state(powers)
        for name, temp in model.unit_temperatures().items():
            assert temp == pytest.approx(steady[name], abs=1e-6)

    def test_reset(self):
        model = ThermalModel(build_experiment(1), nrows=6, ncols=6)
        model.initialize_steady_state(uniform_powers(model))
        model.reset(300.0)
        temps = model.unit_temperatures()
        assert all(t == pytest.approx(300.0) for t in temps.values())


class TestReadback:
    def test_max_at_least_mean(self, model):
        model.initialize_steady_state(uniform_powers(model))
        means = model.unit_temperatures()
        maxes = model.unit_max_temperatures()
        for name in model.unit_names:
            assert maxes[name] >= means[name] - 1e-9

    def test_layer_spread_non_negative(self, model):
        spreads = model.layer_unit_spread()
        assert len(spreads) == 2
        assert all(s >= 0.0 for s in spreads)

    def test_vertical_gradients_small(self, model):
        """§V-C: vertical gradients between adjacent layers stay within
        a few degrees thanks to the thin conductive interlayer."""
        model_local = ThermalModel(build_experiment(1), nrows=6, ncols=6)
        model_local.initialize_steady_state(uniform_powers(model_local))
        grads = model_local.vertical_gradients()
        assert len(grads) == 1
        assert grads[0] < 5.0

    def test_core_temperatures_subset_of_units(self, model):
        core_temps = model.core_temperatures()
        unit_temps = model.unit_temperatures()
        for name, temp in core_temps.items():
            assert temp == pytest.approx(unit_temps[name])


class TestAssemblySharing:
    def test_shared_assembly_reproduces_results(self, model):
        import numpy as np

        fresh = ThermalModel(build_experiment(1), nrows=6, ncols=6)
        shared = ThermalModel(
            build_experiment(1), nrows=6, ncols=6, assembly=model.assembly
        )
        assert shared.assembly is model.assembly
        donor_state = model.temperatures.copy()
        powers = uniform_powers(model)
        fresh.step(powers)
        shared.step(powers)
        np.testing.assert_array_equal(
            fresh.unit_temperature_vector(), shared.unit_temperature_vector()
        )
        # State is per-instance: stepping the borrower leaves the donor
        # model untouched.
        np.testing.assert_array_equal(model.temperatures, donor_state)

    def test_mismatched_assembly_grid_rejected(self, model):
        with pytest.raises(ThermalModelError):
            ThermalModel(
                build_experiment(1), nrows=8, ncols=8, assembly=model.assembly
            )

    def test_conflicting_stack_and_assembly_rejected(self, model):
        from repro.thermal.stack import build_stack

        with pytest.raises(ThermalModelError):
            ThermalModel(
                build_experiment(1),
                nrows=6,
                ncols=6,
                stack=build_stack(build_experiment(1)),
                assembly=model.assembly,
            )


#: Every recorded plane of a SimulationResult.
RESULT_PLANES = (
    "times", "unit_temps_k", "core_temps_k", "core_peak_temps_k",
    "layer_spreads_k", "utilization", "vf_indices", "core_states",
    "total_power_w",
)


class TestAssemblyPickle:
    """A pickled assembly is what a spawned campaign worker receives:
    the steady LU factorization is refactorized on load, everything else
    travels as built, and runs on the copy match the original's."""

    def test_runs_on_unpickled_copy_are_bit_identical(self):
        import pickle

        from repro.analysis.runner import ExperimentRunner, RunSpec

        specs = [
            RunSpec(exp_id=1, policy="Adapt3D", duration_s=3.0,
                    with_dpm=True, fidelity=fidelity)
            for fidelity in ("eager", "event")
        ]
        original = ExperimentRunner()
        original.prepare(specs)
        expected = [original.run(spec) for spec in specs]
        caches = original.caches()
        copied = pickle.loads(pickle.dumps(caches))
        source = caches.assemblies[(1, (8, 8))]
        copy_assembly = copied.assemblies[(1, (8, 8))]
        assert copy_assembly is not source
        # The operators a worker would otherwise rebuild travel as
        # built; the steady LU is refactorized on load.
        assert copy_assembly.propagator.tobytes() == source.propagator.tobytes()
        assert copy_assembly._exponential_step is not None
        assert copy_assembly._modal_basis is not None
        assert copy_assembly.steady.lu is not source.steady.lu
        runner = ExperimentRunner()
        runner.install_caches(copied)
        for spec, want in zip(specs, expected):
            got = runner.run(spec)
            for name in RESULT_PLANES:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (
                    spec.fidelity, name)
            assert got.energy_j == want.energy_j
            assert got.completed_jobs() == want.completed_jobs()
        assert runner.caches().assemblies[(1, (8, 8))] is copy_assembly


class TestFourTier:
    def test_upper_die_hotter_than_lower(self):
        model = ThermalModel(build_experiment(3), nrows=6, ncols=6)
        powers = {
            name: 3.0 if model.unit_kind(name).value == "core" else 1.0
            for name in model.unit_names
        }
        steady = model.steady_state(powers)
        lower_cores = [steady[f"L0_core{i}"] for i in range(8)]
        upper_cores = [steady[f"L2_core{i}"] for i in range(8)]
        assert sum(upper_cores) > sum(lower_cores)

    def test_more_layers_run_hotter(self):
        temps = {}
        for exp in (1, 3):
            model = ThermalModel(build_experiment(exp), nrows=6, ncols=6)
            powers = {
                name: 3.0 if model.unit_kind(name).value == "core" else 1.0
                for name in model.unit_names
            }
            steady = model.steady_state(powers)
            temps[exp] = max(steady.values())
        assert temps[3] > temps[1]
