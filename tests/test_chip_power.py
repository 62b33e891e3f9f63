"""Chip-level power aggregation tests (the power kernel)."""

import numpy as np
import pytest

from repro.errors import PowerModelError
from repro.floorplan.experiments import build_experiment
from repro.power.chip_power import ChipPowerModel
from repro.power.states import STATE_CODE, CoreState
from repro.power.vf import DEFAULT_VF_TABLE
from tests.power_oracle import CoreActivity, unit_powers

NOMINAL = DEFAULT_VF_TABLE[0]
AMBIENT_K = 318.15


@pytest.fixture(scope="module")
def model():
    return ChipPowerModel(build_experiment(1))


def activities(model, state=CoreState.ACTIVE, util=1.0, vf=NOMINAL):
    return {core: CoreActivity(state, util, vf) for core in model.core_names}


def ambient_temps(config):
    temps = {}
    for plan in config.layers:
        for unit in plan:
            temps[unit.name] = AMBIENT_K
    return temps


def kernel_powers(model, memory_intensity, state=CoreState.ACTIVE, util=1.0,
                  vf=NOMINAL, temperature_k=AMBIENT_K):
    """Unit name -> kernel power with every core in the same activity."""
    n = len(model.core_names)
    base, leak_mul = model.power_factors(
        np.full(n, STATE_CODE[state]),
        np.full(n, util),
        np.full(n, vf.dynamic_scale),
        np.full(n, vf.voltage),
        memory_intensity,
    )
    temps = np.full(len(model.unit_names), temperature_k)
    vec = model.power_eval(base, leak_mul, temps)
    return dict(zip(model.unit_names, vec.tolist()))


class TestStructure:
    def test_core_names_canonical(self, model):
        assert model.core_names == [f"L0_core{i}" for i in range(8)]

    def test_cache_assignment_two_cores_per_bank(self, model):
        served = model.cache_serving("L1_l2_0")
        assert served == ["L0_core0", "L0_core1"]

    def test_every_core_served_exactly_once(self, model):
        served = []
        for bank in ("L1_l2_0", "L1_l2_1", "L1_l2_2", "L1_l2_3"):
            served.extend(model.cache_serving(bank))
        assert sorted(served) == sorted(model.core_names)

    def test_unknown_cache_raises(self, model):
        with pytest.raises(PowerModelError):
            model.cache_serving("nope")


class TestUnitPowers:
    def test_covers_every_unit(self, model):
        config = build_experiment(1)
        powers = kernel_powers(model, 0.5)
        expected = {u.name for plan in config.layers for u in plan}
        assert set(powers) == expected
        assert len(powers) == len(model.unit_names)

    def test_all_powers_positive(self, model):
        powers = kernel_powers(model, 0.5)
        assert all(p > 0.0 for p in powers.values())

    def test_active_chip_total_plausible(self, model):
        """Full-load EXP-1 should land in the tens of watts (T1-class)."""
        powers = kernel_powers(model, 0.8)
        total = model.total_power(np.array(list(powers.values())))
        assert 30.0 < total < 90.0

    def test_sleep_reduces_core_power(self, model):
        active = kernel_powers(model, 0.5)
        asleep = kernel_powers(model, 0.5, CoreState.SLEEP, 0.0)
        assert asleep["L0_core0"] == pytest.approx(0.02)
        assert asleep["L0_core0"] < active["L0_core0"]

    def test_dvfs_reduces_core_power(self, model):
        fast = kernel_powers(model, 0.5)
        slow = kernel_powers(model, 0.5, vf=DEFAULT_VF_TABLE[2])
        assert slow["L0_core0"] < fast["L0_core0"]

    def test_leakage_feedback_via_temperature(self, model):
        cool = kernel_powers(model, 0.5)
        hot = kernel_powers(model, 0.5, temperature_k=370.0)
        assert hot["L0_core0"] > cool["L0_core0"]

    def test_missing_core_activity_raises(self, model):
        """The scalar oracle refuses an activity map without every core."""
        config = build_experiment(1)
        acts = activities(model)
        del acts["L0_core0"]
        with pytest.raises(PowerModelError):
            unit_powers(model, acts, ambient_temps(config), 0.5)

    def test_idle_chip_draws_less_than_active(self, model):
        active = kernel_powers(model, 0.5)
        idle = kernel_powers(model, 0.0, CoreState.IDLE, 0.0)
        assert sum(idle.values()) < sum(active.values())


class TestMixedLayers:
    def test_exp2_crossbars_per_layer(self):
        model = ChipPowerModel(build_experiment(2))
        powers = kernel_powers(model, 0.5)
        assert "L0_xbar" in powers and "L1_xbar" in powers
