"""Engine hot-path benchmark: tick-loop configurations.

Runs EXP-1..4 through two eager-fidelity configurations (same specs,
same seeds, the exact thermal step in both; the scan oracle is
eager-only, and the hot-path gate was set on eager):

- ``legacy scan`` — the original all-core rescan loop with the
  dict-based power pipeline (the test-only oracle
  ``tests/scan_engine.py``, imported from the checkout);
- ``exponential heap`` — the event-heap loop, the eager reference
  behind the event default.

Also reports the engine-assembly reuse win from the runner's
ThermalAssembly cache (which now amortizes the ``expm`` build too).

Merges its sections into ``BENCH_engine.json`` under
``benchmarks/results/`` and, in full mode only, into the tracked
repo-root copy (``merge_artifact``), so the perf trajectory is tracked
at top level.

Reference points on the ROADMAP trajectory machine: EXP-4 cost
0.85 ms/tick at seed, 0.61 after PR 1, 0.37 after PR 2 (event heap).
The acceptance gate for this rework is EXP-4 at or below 0.28 ms/tick
(>= 25% below PR 2), scaled by the measured legacy-scan cost on hosts
slower than the reference machine. That scan now runs the exact step,
which costs less than the backward-Euler scan ``PR2_SCAN_EXP4_MS`` was
measured on, so the scaling can only tighten the gate.
"""

import os
import time
from dataclasses import replace

import numpy as np

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.campaign.spec import run_key

from benchmarks.conftest import BENCH_SEED, emit, merge_artifact
from tests.scan_engine import ScanEngine

#: REPRO_BENCH_SMOKE=1 shortens the measurement and skips the timing
#: gates — CI runs the bench on every push for the BENCH_engine.json
#: artifact and the bit-identity spot checks, not for wall-clock
#: assertions on shared runners.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

BENCH_SIM_S = 6.0 if SMOKE else 30.0  # 300 ticks per full measurement
# 5 interleaved rounds: the per-cell min needs several chances to land
# in a quiet slice of a shared machine (cgroup throttling after a
# bursty neighbour inflates whole rounds by tens of percent).
REPS = 1 if SMOKE else 5
#: PR 2's recorded EXP-4 figures on the trajectory machine.
PR2_HEAP_EXP4_MS = 0.37
PR2_SCAN_EXP4_MS = 0.57
TARGET_EXP4_MS = 0.28

#: (label, run on the scan oracle)
CONFIGS = (
    ("scan", True),
    ("exponential_heap", False),
)

#: Idle-heavy scenario for the event-fidelity bench: EXP-4 under the
#: plain load balancer with DPM and a light two-job mix (~2% core
#: utilization), so most ticks are event-free and the event loop's
#: heap-to-heap jumps carry the run. The gate is machine-relative by
#: construction (both columns are measured on the same host in the
#: same interleaved rounds).
IDLE_MIX = (("gzip", 1), ("MPlayer", 1))
GATE_EVENT_VS_SERIAL = 5.0
STRETCH_EVENT_VS_SERIAL = 10.0


def _spec(exp_id: int) -> RunSpec:
    return RunSpec(
        exp_id=exp_id, policy="Adapt3D", duration_s=BENCH_SIM_S,
        seed=BENCH_SEED, fidelity="eager",
    )


def _measure_cells(runner: ExperimentRunner) -> dict:
    """Best-of-REPS ms/tick for every (stack, config) cell.

    Rounds are interleaved — each round measures every cell once — so a
    transient load spike on a shared machine degrades one *round*, not
    one config's entire measurement (the per-cell min then drops it).
    """
    cells = {}
    for _ in range(REPS):
        for exp_id in (1, 2, 3, 4):
            for label, oracle in CONFIGS:
                engine = runner.build_engine(_spec(exp_id))
                if oracle:
                    engine = ScanEngine.from_engine(engine)
                start = time.perf_counter()
                result = engine.run()
                elapsed = time.perf_counter() - start
                key = (exp_id, label)
                ms = elapsed / result.n_ticks * 1000.0
                cells[key] = min(cells.get(key, float("inf")), ms)
    return cells


def test_engine_hotpath(results_dir):
    runner = ExperimentRunner()

    # Assembly reuse: first build pays network assembly, LU
    # factorization and the expm propagator; subsequent builds on the
    # same (exp, grid) reuse all of it.
    start = time.perf_counter()
    runner.build_engine(_spec(4))
    first_build_ms = (time.perf_counter() - start) * 1000.0
    start = time.perf_counter()
    for _ in range(5):
        runner.build_engine(_spec(4))
    cached_build_ms = (time.perf_counter() - start) * 1000.0 / 5

    cells = _measure_cells(runner)
    per_exp = {}
    for exp_id in (1, 2, 3, 4):
        row = {}
        for label, _ in CONFIGS:
            row[f"{label}_ms_per_tick"] = round(cells[(exp_id, label)], 4)
        row["drop_vs_scan_pct"] = round(
            100.0
            * (1.0 - row["exponential_heap_ms_per_tick"]
               / row["scan_ms_per_tick"]),
            1,
        )
        per_exp[f"exp{exp_id}"] = row

    # The engine and the scan oracle must agree bit for bit (spot
    # check; the full matrix lives in tests/test_engine_heap.py).
    check = replace(_spec(4), duration_s=6.0)
    a = runner.build_engine(check)
    b = ScanEngine.from_engine(runner.build_engine(check))
    np.testing.assert_array_equal(a.run().unit_temps_k, b.run().unit_temps_k)

    exp4 = per_exp["exp4"]
    exp4_ms = exp4["exponential_heap_ms_per_tick"]
    payload = {
        "smoke": SMOKE,
        "simulated_s": BENCH_SIM_S,
        "policy": "Adapt3D",
        "run_key_exp4": run_key(_spec(4)),
        "per_exp": per_exp,
        "pr2_heap_exp4_ms": PR2_HEAP_EXP4_MS,
        "exp4_drop_vs_pr2_heap_pct": round(
            100.0 * (1.0 - exp4_ms / PR2_HEAP_EXP4_MS), 1
        ),
        "target_exp4_ms": TARGET_EXP4_MS,
        "assembly_first_build_ms": round(first_build_ms, 2),
        "assembly_cached_build_ms": round(cached_build_ms, 2),
    }
    merge_artifact(results_dir, "BENCH_engine.json", payload, SMOKE)

    lines = [
        "Engine hot path (ms per 100 ms tick, best of "
        f"{REPS}, {BENCH_SIM_S:.0f} s simulated, Adapt3D)",
        f"{'stack':8s} {'scan':>8s} {'expm':>8s} {'drop':>7s}",
    ]
    for exp_id in (1, 2, 3, 4):
        row = per_exp[f"exp{exp_id}"]
        lines.append(
            f"EXP-{exp_id:<4d} {row['scan_ms_per_tick']:8.3f} "
            f"{row['exponential_heap_ms_per_tick']:8.3f} "
            f"{row['drop_vs_scan_pct']:6.1f}%"
        )
    lines.append(
        f"assembly build: first {first_build_ms:.1f} ms, "
        f"cached {cached_build_ms:.1f} ms"
    )
    emit(results_dir, "engine_hotpath", "\n".join(lines))

    if SMOKE:
        return

    # Acceptance: EXP-4 at or below 0.28 ms/tick with the shipping
    # configuration — on hosts slower than the trajectory machine the
    # target scales with the measured cost of the retained reference
    # configuration (scan).
    machine_scale = max(1.0, exp4["scan_ms_per_tick"] / PR2_SCAN_EXP4_MS)
    assert exp4_ms <= TARGET_EXP4_MS * machine_scale, (
        f"EXP-4 exponential+heap {exp4_ms} ms/tick missed the "
        f"{TARGET_EXP4_MS} ms target (machine scale {machine_scale:.2f})"
    )
    # The shipping config must never lose to the retained reference.
    for exp_id in (1, 2, 3, 4):
        row = per_exp[f"exp{exp_id}"]
        assert (
            row["exponential_heap_ms_per_tick"]
            <= row["scan_ms_per_tick"] * 1.05
        )


def test_engine_event_idle(results_dir):
    """Event-driven time advance on the idle-heavy scenario.

    Measures the eager reference engine (event heap + exponential
    propagator; the ``serial`` column) against ``fidelity="event"`` on
    the same spec, interleaved best-of-REPS, and gates the ratio at
    ``GATE_EVENT_VS_SERIAL`` (stretch ``STRETCH_EVENT_VS_SERIAL``).
    The tolerance spot check always runs, smoke included; the full
    differential matrix lives in tests/test_engine_event.py.
    """
    runner = ExperimentRunner()
    spec = RunSpec(
        exp_id=4, policy="Default", duration_s=BENCH_SIM_S,
        benchmark_mix=IDLE_MIX, with_dpm=True, seed=BENCH_SEED,
    )
    times = {"serial": float("inf"), "event": float("inf")}
    results = {}
    for _ in range(REPS):
        for label, fidelity in (("serial", "eager"), ("event", "event")):
            engine = runner.build_engine(replace(spec, fidelity=fidelity))
            start = time.perf_counter()
            result = engine.run()
            times[label] = min(times[label], time.perf_counter() - start)
            results[label] = result

    # Event must honour its tolerance contract on the exact runs
    # just measured: discrete planes bitwise, thermal within 1e-3 K,
    # energy within 0.1%.
    a, b = results["serial"], results["event"]
    np.testing.assert_array_equal(a.vf_indices, b.vf_indices)
    np.testing.assert_array_equal(a.core_states, b.core_states)
    np.testing.assert_allclose(
        a.unit_temps_k, b.unit_temps_k, rtol=0.0, atol=1e-3
    )
    assert abs(a.energy_j - b.energy_j) <= 1e-3 * abs(a.energy_j)

    n_ticks = a.n_ticks
    speedup = times["serial"] / times["event"]
    section = {
        "smoke": SMOKE,
        "simulated_s": BENCH_SIM_S,
        "policy": "Default",
        "exp_id": 4,
        "benchmark_mix": "gzip+MPlayer",
        "with_dpm": True,
        "serial_ms_per_tick": round(times["serial"] / n_ticks * 1000.0, 4),
        "event_ms_per_tick": round(times["event"] / n_ticks * 1000.0, 4),
        "speedup_event_vs_serial": round(speedup, 2),
        "gate_event_vs_serial": GATE_EVENT_VS_SERIAL,
        "stretch_event_vs_serial": STRETCH_EVENT_VS_SERIAL,
    }

    merge_artifact(results_dir, "BENCH_engine.json", {"event": section},
                   SMOKE)

    emit(
        results_dir,
        "engine_event_idle",
        (
            "Event fidelity, idle-heavy EXP-4 (Default + DPM, "
            f"gzip+MPlayer, {BENCH_SIM_S:.0f} s simulated, best of {REPS})"
            + (" [SMOKE]" if SMOKE else "")
            + f"\nserial {times['serial'] * 1000.0:8.1f} ms "
            f"({section['serial_ms_per_tick']:.3f} ms/tick)"
            + f"\nevent  {times['event'] * 1000.0:8.1f} ms "
            f"({section['event_ms_per_tick']:.3f} ms/tick)"
            + f"\nspeedup {speedup:.2f}x (gate {GATE_EVENT_VS_SERIAL}x, "
            f"stretch {STRETCH_EVENT_VS_SERIAL}x)"
        ),
    )

    if SMOKE:
        return
    assert speedup >= GATE_EVENT_VS_SERIAL, (
        f"event fidelity {speedup:.2f}x vs the eager serial engine "
        f"missed the {GATE_EVENT_VS_SERIAL}x gate on the idle-heavy "
        "scenario"
    )
