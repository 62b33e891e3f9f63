"""The power kernel against the scalar oracle (``tests/power_oracle.py``).

Seeded random activity over every stack: mixed state codes (plus
all-sleep and all-gated chips), utilizations of exactly 0 and 1, every
V/f level, temperatures from 250 to 450 K (both leakage clamps fire)
and memory intensities of 0, 1 and in between. Every comparison is
bitwise (``array_equal`` / ``==``): the kernel is the oracle's equations
in the oracle's floating-point order, and the engine-vs-oracle
differential relies on that.

The event kernel (``event_factors`` / ``event_eval``) runs over the
same seeded cases but is held to a per-unit relative tolerance
(``EVENT_KERNEL_RTOL``), not bits: it rearranges the equations into one
GEMV and a polynomial in ``T``. Its R-run call must still give each
run the single-run call's bits, which batched event lanes rely on.

Also here: the warm start and the thermal-index characterization
against oracle-fed steady-state solves, and the range checks the engine
applies to the warm start's inputs (the kernel itself checks nothing).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.core.thermal_index import (
    ALPHA_MAX,
    ALPHA_MIN,
    CHARACTERIZATION_UTIL,
    compute_thermal_indices,
)
from repro.errors import SchedulerError
from repro.floorplan.experiments import build_experiment
from repro.power.chip_power import ChipPowerModel
from repro.power.leakage import DEFAULT_LEAKAGE
from repro.power.states import CODE_STATE, STATE_CODE, CoreState
from repro.power.vf import DEFAULT_VF_TABLE
from repro.sched.batch import BatchSimulationEngine
from repro.thermal.model import ThermalModel
from tests.power_oracle import (
    CoreActivity,
    assert_event_kernel_close,
    unit_powers,
)

RUNNER = ExperimentRunner()
EXP_IDS = (1, 2, 3, 4)
N_CASES = 24
VF_LEVELS = [DEFAULT_VF_TABLE[i] for i in range(len(DEFAULT_VF_TABLE))]


@pytest.fixture(scope="module", params=EXP_IDS, ids=lambda e: f"exp{e}")
def model(request):
    return ChipPowerModel(build_experiment(request.param))


class Case:
    """One interval's kernel inputs, with the matching oracle inputs."""

    def __init__(self, model, states, utils, vf_index, temps, memory):
        self.states = states
        self.utils = utils
        self.dyn = np.array([VF_LEVELS[i].dynamic_scale for i in vf_index])
        self.volt = np.array([VF_LEVELS[i].voltage for i in vf_index])
        self.temps = temps
        self.memory = memory
        self.activities = {
            name: CoreActivity(
                CODE_STATE[states[c]], float(utils[c]), VF_LEVELS[vf_index[c]]
            )
            for c, name in enumerate(model.core_names)
        }

    def oracle(self, model, temps=None):
        """The oracle's per-unit powers as a canonical-order vector."""
        temps = self.temps if temps is None else temps
        powers = unit_powers(
            model,
            self.activities,
            dict(zip(model.unit_names, temps.tolist())),
            self.memory,
        )
        return powers, np.array([powers[name] for name in model.unit_names])

    def factors(self, model):
        return model.power_factors(
            self.states, self.utils, self.dyn, self.volt, self.memory
        )

    def kernel(self, model, temps=None):
        temps = self.temps if temps is None else temps
        return model.power_eval(*self.factors(model), temps)

    def event_factors(self, model, buf):
        model.event_factors(
            self.states, self.utils, self.dyn, self.volt, self.memory, buf
        )

    def event(self, model, temps=None):
        """The event kernel's powers, in fresh buffers."""
        temps = self.temps if temps is None else temps
        buf = model.event_buffers()
        self.event_factors(model, buf)
        return model.event_eval(buf, temps, np.empty_like(temps))


def random_temps(rng, n_units):
    return rng.uniform(250.0, 450.0, n_units)


def cases(model, seed):
    """Seeded cases; the first few pin the edge inputs."""
    rng = np.random.default_rng(seed)
    n_cores = len(model.core_names)
    n_units = len(model.unit_names)
    n_levels = len(VF_LEVELS)
    out = []
    for k in range(N_CASES):
        states = rng.integers(0, len(CoreState), n_cores)
        utils = rng.uniform(0.0, 1.0, n_cores)
        # Exact 0 and 1 utilizations on about a third of the cores.
        edge = rng.random(n_cores) < 0.35
        utils[edge] = rng.integers(0, 2, int(edge.sum())).astype(float)
        vf_index = rng.integers(0, n_levels, n_cores)
        memory = float(rng.uniform(0.0, 1.0))
        if k == 0:
            states[:] = STATE_CODE[CoreState.SLEEP]
            utils[:] = 0.0
        elif k == 1:
            states[:] = STATE_CODE[CoreState.GATED]
        elif k == 2:
            states[:] = STATE_CODE[CoreState.ACTIVE]
            utils[:] = 1.0
            memory = 1.0
        elif k == 3:
            states[:] = STATE_CODE[CoreState.IDLE]
            utils[:] = 0.0
            memory = 0.0
        elif k < 4 + n_levels:
            vf_index[:] = k - 4  # every core at one V/f level
        if k % 5 == 4:
            memory = float(k % 2)
        out.append(
            Case(model, states, utils, vf_index, random_temps(rng, n_units),
                 memory)
        )
    return out


class FixedIntensity:
    """A workload source that reports a fixed mix memory intensity and
    records whether the engine asked for its arrivals."""

    def __init__(self, inner, value):
        self.inner = inner
        self.value = value
        self.arrivals_read = False

    def initial_arrivals(self):
        self.arrivals_read = True
        return self.inner.initial_arrivals()

    def on_completion(self, job, time):
        return self.inner.on_completion(job, time)

    def memory_intensity(self):
        return self.value


def engine_with(spec, **config_changes):
    """An engine for ``spec`` with ``EngineConfig`` fields replaced."""
    engine = RUNNER.build_engine(spec)
    engine.config = replace(engine.config, **config_changes)
    return engine


@pytest.mark.parametrize("seed", [3, 17])
class TestKernelAgainstOracle:
    def test_kernel_matches_oracle(self, model, seed):
        for case in cases(model, seed):
            _, expected = case.oracle(model)
            np.testing.assert_array_equal(case.kernel(model), expected)

    def test_temperatures_reach_both_leakage_clamps(self, model, seed):
        temps = np.concatenate([c.temps for c in cases(model, seed)])
        poly = DEFAULT_LEAKAGE.normalized_array(temps)
        assert (poly == DEFAULT_LEAKAGE.floor).any()
        assert (poly == DEFAULT_LEAKAGE.ceiling).any()

    def test_columns_match_single_run(self, model, seed):
        """One-run kernel calls held as the columns of a unit-major
        batch matrix: ``total_power_rows`` over its rows totals each
        run with ``total_power``'s bits and the oracle's sum."""
        batch = cases(model, seed)
        powers = np.stack([case.kernel(model) for case in batch], axis=1)
        assert powers.shape == (len(model.unit_names), len(batch))
        rows = np.ascontiguousarray(powers.T)
        assert model.total_power_rows(rows) == [
            model.total_power(row) for row in rows
        ] == [sum(case.oracle(model)[0].values()) for case in batch]

    def test_frozen_factors_reevaluate(self, model, seed):
        rng = np.random.default_rng(seed + 1000)
        for case in cases(model, seed)[:8]:
            base, leak_mul = case.factors(model)
            for _ in range(3):
                temps = random_temps(rng, len(model.unit_names))
                frozen = model.power_eval(base, leak_mul, temps)
                np.testing.assert_array_equal(frozen, case.kernel(model, temps))
                np.testing.assert_array_equal(frozen, case.oracle(model, temps)[1])

    def test_eval_writes_out_buffer(self, model, seed):
        case = cases(model, seed)[5]
        out = np.full(len(model.unit_names), np.nan)
        got = model.power_eval(*case.factors(model), case.temps, out=out)
        assert got is out
        np.testing.assert_array_equal(out, case.oracle(model)[1])

    def test_total_power_matches_oracle_sum(self, model, seed):
        for case in cases(model, seed):
            powers, _ = case.oracle(model)
            assert model.total_power(case.kernel(model)) == sum(powers.values())


@pytest.mark.parametrize("seed", [3, 17])
class TestEventKernel:
    def test_event_kernel_matches_oracle(self, model, seed):
        for case in cases(model, seed):
            assert_event_kernel_close(case.event(model), case.oracle(model)[1])

    def test_rows_match_single_run(self, model, seed):
        batch = cases(model, seed)
        buf = model.event_buffers(len(batch))
        model.event_factors(
            np.stack([c.states for c in batch]),
            np.stack([c.utils for c in batch]),
            np.stack([c.dyn for c in batch]),
            np.stack([c.volt for c in batch]),
            np.array([[c.memory] for c in batch]),
            buf,
        )
        temps = np.stack([c.temps for c in batch])
        powers = model.event_eval(buf, temps, np.empty_like(temps))
        assert powers.shape == (len(batch), len(model.unit_names))
        single = model.event_buffers()
        for r, case in enumerate(batch):
            case.event_factors(model, single)
            np.testing.assert_array_equal(buf.base[r], single.base)
            np.testing.assert_array_equal(buf.weight[r], single.weight)
            np.testing.assert_array_equal(powers[r], case.event(model))
        assert model.total_power_rows(powers) == [
            model.total_power(row) for row in powers
        ]

    def test_frozen_factors_reevaluate(self, model, seed):
        rng = np.random.default_rng(seed + 1000)
        buf = model.event_buffers()
        out = np.empty(len(model.unit_names))
        for case in cases(model, seed)[:8]:
            case.event_factors(model, buf)
            for _ in range(3):
                temps = random_temps(rng, len(model.unit_names))
                assert_event_kernel_close(
                    model.event_eval(buf, temps, out),
                    case.oracle(model, temps)[1],
                )

    def test_eval_writes_out_buffer(self, model, seed):
        case = cases(model, seed)[5]
        buf = model.event_buffers()
        case.event_factors(model, buf)
        out = np.full(len(model.unit_names), np.nan)
        got = model.event_eval(buf, case.temps, out)
        assert got is out
        np.testing.assert_array_equal(out, case.event(model))
        assert_event_kernel_close(out, case.oracle(model)[1])


@pytest.mark.parametrize("exp_id", EXP_IDS)
@pytest.mark.parametrize(
    "warmup, memory", [(0.3, None), (0.0, 0.0), (1.0, 1.0), (0.55, 0.37)]
)
def test_warm_start_matches_oracle(exp_id, warmup, memory):
    engine = engine_with(RunSpec(exp_id=exp_id, policy="Default",
                                 duration_s=1.0), warmup_utilization=warmup)
    if memory is not None:
        engine.workload = FixedIntensity(engine.workload, memory)
    mem = engine.workload.memory_intensity()
    engine._prepare_run()
    warm = engine.thermal.temperatures.copy()

    nominal = DEFAULT_VF_TABLE[DEFAULT_VF_TABLE.nominal_index]
    activities = {
        name: CoreActivity(CoreState.ACTIVE, warmup, nominal)
        for name in engine.core_names
    }
    thermal = engine.thermal
    ambient = {name: thermal.ambient_k for name in thermal.unit_names}
    thermal.initialize_steady_state(
        unit_powers(engine.power, activities, ambient, mem)
    )
    np.testing.assert_array_equal(warm, thermal.temperatures)


@pytest.mark.parametrize("exp_id", EXP_IDS)
def test_thermal_indices_match_oracle(exp_id):
    config = build_experiment(exp_id)
    thermal = ThermalModel(config, nrows=8, ncols=8)
    power = ChipPowerModel(config)
    nominal = DEFAULT_VF_TABLE[0]
    activities = {
        core: CoreActivity(CoreState.ACTIVE, CHARACTERIZATION_UTIL, nominal)
        for core in power.core_names
    }
    ambient = {name: thermal.ambient_k for name in thermal.unit_names}
    steady = thermal.steady_state(unit_powers(power, activities, ambient, 0.5))
    core_temps = {core: steady[core] for core in power.core_names}
    t_min = min(core_temps.values())
    t_max = max(core_temps.values())
    expected = {
        core: ALPHA_MIN + (ALPHA_MAX - ALPHA_MIN) * (t - t_min) / (t_max - t_min)
        for core, t in core_temps.items()
    }
    assert compute_thermal_indices(thermal, power) == expected


# ---------------------------------------------------------------------------
# warm-start input checks

SPEC = RunSpec(exp_id=1, policy="Default", duration_s=1.0)


class TestWarmStartInputs:
    @pytest.mark.parametrize("value", [1.5, -0.2, float("nan")])
    def test_bad_warmup_utilization_raises_before_first_tick(self, value):
        engine = engine_with(SPEC, warmup_utilization=value)
        engine.workload = FixedIntensity(engine.workload, 0.5)
        with pytest.raises(SchedulerError, match="warmup_utilization"):
            engine.run()
        assert not engine.workload.arrivals_read

    @pytest.mark.parametrize("value", [1.2, -0.1, float("nan")])
    def test_bad_memory_intensity_raises_before_first_tick(self, value):
        engine = RUNNER.build_engine(SPEC)
        engine.workload = FixedIntensity(engine.workload, value)
        with pytest.raises(SchedulerError, match="memory_intensity"):
            engine.run()
        assert not engine.workload.arrivals_read

    def test_batched_lanes_check_too(self):
        lanes = [RUNNER.build_engine(replace(SPEC, seed=s)) for s in (1, 2)]
        lanes[1].workload = FixedIntensity(lanes[1].workload, 1.2)
        with pytest.raises(SchedulerError, match="memory_intensity"):
            BatchSimulationEngine(lanes).run()

    def test_bounds_are_accepted(self):
        for warmup, memory in ((0.0, 0.0), (1.0, 1.0)):
            engine = engine_with(SPEC, warmup_utilization=warmup)
            engine.workload = FixedIntensity(engine.workload, memory)
            result = engine.run()
            assert np.isfinite(result.unit_temps_k).all()
