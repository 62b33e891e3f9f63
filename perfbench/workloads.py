"""The benchmark's four campaign workloads, their read phases and checks.

Every grid is defined here, not imported from the figure benches, so a
workload only changes when this file does. Each workload is built from
the benchmark seed: the same seed gives the same run list.

A workload names

- the campaign (one :class:`CampaignSpec`) and the stacks whose thermal
  indices set-up characterizes,
- the executor backend and its options,
- ``render(store, campaign)``: the tables the read phase renders from
  stored results, returned with whatever the correctness check needs,
- ``check(store, campaign, rendered, runner, work)``: the correctness
  check, run outside every timed window with a scratch dir ``work``;
  it returns a list of failures.
"""

from __future__ import annotations

import hashlib
import random
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.analysis.figures import FigureSeries
from repro.analysis.result_io import load_result, save_result
from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.analysis.tables import format_table
from repro.campaign import CampaignSpec, ResultStore, campaign_report, run_key
from repro.metrics.performance import normalized_delay
from repro.metrics.report import summarize

#: The eleven registered policies, in figure order.
POLICIES = (
    "Default", "CGate", "DVFS_TT", "DVFS_Util", "DVFS_FLP", "Migr",
    "AdaptRand", "Adapt3D", "Adapt3D&DVFS_TT", "Adapt3D&DVFS_Util",
    "Adapt3D&DVFS_FLP",
)
EXPS = (1, 2, 3, 4)

#: Adapt3D ablation: (beta_inc, beta_dec) x history window.
BETAS = ((0.01, 0.1), (0.001, 0.01), (0.05, 0.5))
WINDOWS = (5, 10, 20)

#: ~2% mean utilization: long idle gaps between sparse arrivals.
IDLE_MIX = (("gzip", 1), ("MPlayer", 1))

#: Documented event-vs-eager tolerance (docs/ENGINE.md).
EVENT_TOL_K = 1e-3
EVENT_TOL_ENERGY = 1e-3

#: Result arrays compared by the bit-identity checks.
ARRAYS = (
    "times", "unit_temps_k", "core_temps_k", "core_peak_temps_k",
    "layer_spreads_k", "utilization", "vf_indices", "core_states",
    "total_power_w",
)
DISCRETE = ("vf_indices", "core_states")
DELAY = "perf (delay, x Default)"
THERMAL = ("unit_temps_k", "core_temps_k", "core_peak_temps_k",
           "layer_spreads_k")


@dataclass(frozen=True)
class Workload:
    name: str
    campaign: CampaignSpec
    backend: str
    render: Callable[[ResultStore, CampaignSpec], Any]
    check: Callable[..., List[str]]
    workers: int = 1
    #: (exp_id, grid) pairs whose thermal indices set-up computes.
    stacks: Tuple[Tuple[int, Tuple[int, int]], ...] = ()


def _seeds(seed: int, count: int) -> Tuple[int, ...]:
    """``count`` distinct run seeds drawn from the benchmark seed."""
    return tuple(random.Random(seed).sample(range(1, 2**31 - 1), count))


# ----------------------------------------------------------------------
# shared checks


def _quantized(result, work: Path) -> Any:
    """``result`` after the store's save/load format round trip."""
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        save_result(result, Path(tmp) / "r")
        return load_result(Path(tmp) / "r")


def _identical(a, b) -> List[str]:
    """Names of the fields where two results differ in any bit."""
    bad = [
        name for name in ARRAYS
        if not np.array_equal(getattr(a, name), getattr(b, name))
        or getattr(a, name).dtype != getattr(b, name).dtype
    ]
    if a.energy_j != b.energy_j:
        bad.append("energy_j")
    jobs_a = [(j.job_id, j.core, j.completion_time) for j in a.completed_jobs()]
    jobs_b = [(j.job_id, j.core, j.completion_time) for j in b.completed_jobs()]
    if jobs_a != jobs_b:
        bad.append("jobs")
    return bad


def _check_stored(store: ResultStore, spec: RunSpec, fresh,
                  work: Path) -> List[str]:
    """The stored result of ``spec`` equals ``fresh`` through the format."""
    bad = _identical(store.load(run_key(spec)), _quantized(fresh, work))
    return [f"stored {run_key(spec)} differs in {bad}"] if bad else []


def _explicit(name: str, runs: List[RunSpec]) -> CampaignSpec:
    """A campaign of exactly ``runs``, in order (its grid is runs[0])."""
    first = runs[0]
    return CampaignSpec(
        name=name, exp_ids=(first.exp_id,), policies=(first.policy,),
        durations_s=(first.duration_s,), dpm=(first.with_dpm,),
        seeds=(first.seed,), extra_runs=tuple(runs),
    )


def _sample(campaign: CampaignSpec, count: int) -> List[RunSpec]:
    specs = campaign.expand()
    rng = random.Random(len(specs))
    return rng.sample(specs, min(count, len(specs)))


def digest(store: ResultStore, campaign: CampaignSpec) -> str:
    """SHA-256 over every stored result of the campaign, in key order."""
    h = hashlib.sha256()
    for key in sorted(run_key(spec) for spec in campaign.expand()):
        result = store.load(key)
        h.update(key.encode())
        for name in ARRAYS:
            h.update(np.ascontiguousarray(getattr(result, name)).tobytes())
        h.update(repr(result.energy_j).encode())
        h.update(repr([(j.job_id, j.completion_time)
                       for j in result.completed_jobs()]).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# paper-figures: fig3 + fig4 grids and the Adapt3D ablation, serial


def _figures(store: ResultStore, campaign: CampaignSpec) -> Dict[str, Any]:
    """Render the fig3, fig4 and ablation tables from stored results."""
    specs = campaign.expand()
    grid = {
        (s.exp_id, s.policy, s.with_dpm): s for s in specs
        if s.policy_params is None and s.sensor_noise_sigma == 0.0
    }
    exps = sorted({exp for exp, _, _ in grid})
    results = {cell: store.load(run_key(spec)) for cell, spec in grid.items()}
    reports = {cell: summarize(result) for cell, result in results.items()}

    fig3 = FigureSeries("Figure 3 - hot spots (no DPM), % time above 85 C, "
                        "and normalized delay", groups=list(POLICIES))
    fig4 = FigureSeries("Figure 4 - hot spots (with DPM), % time above 85 C",
                        groups=list(POLICIES))
    for exp in exps:
        fig3.add_series(f"EXP{exp} hot%", [
            reports[exp, p, False].hot_spot_pct for p in POLICIES])
        fig4.add_series(f"EXP{exp} hot%", [
            reports[exp, p, True].hot_spot_pct for p in POLICIES])
    fig3.add_series(DELAY, [
        sum(normalized_delay(results[e, p, False].jobs,
                             results[e, "Default", False].jobs)
            for e in exps) / len(exps)
        for p in POLICIES
    ])

    rows = []
    for spec in specs:
        if spec.policy_params is None:
            continue
        params = dict(spec.policy_params)
        report = summarize(store.load(run_key(spec)))
        rows.append([params["beta_inc"], params["beta_dec"],
                     params["history_window"], report.hot_spot_pct,
                     report.gradient_pct, report.peak_temperature_c])
    ablation = format_table(
        ["beta_inc", "beta_dec", "window", "hot%", "grad>15C%", "peak C"],
        rows, title="Ablation - Adapt3D beta / window on EXP-4 (DPM)")
    noise_hot = [summarize(store.load(run_key(s))).hot_spot_pct
                 for s in specs if s.sensor_noise_sigma > 0.0]
    text = "\n\n".join([fig3.to_text(), fig4.to_text(), ablation])
    return {"fig3": fig3, "fig4": fig4, "exps": exps, "text": text,
            "noise_hot": noise_hot, "ablation_rows": len(rows)}


def _check_figures(store, campaign, rendered, runner, work) -> List[str]:
    """The paper's shape claims on the rendered figures.

    Only claims that hold, with a margin, on every one of 24 seeds at
    20 s and 30 s runs are checked. "Hybrids beat plain DVFS with DPM"
    is left out: at these run lengths it fails on 2-3 of 24 seeds, even
    summed over the three hybrid/DVFS pairs and every stack.
    """
    fig3, fig4, exps = rendered["fig3"], rendered["fig4"], rendered["exps"]
    hot = max(exps)
    throttling = ("CGate", "DVFS_TT", "DVFS_Util", "DVFS_FLP", "Migr")
    claims = {
        f"EXP-{hot} has more hot spots than EXP-1 under Default":
            fig3.value(f"EXP{hot} hot%", "Default")
            > fig3.value("EXP1 hot%", "Default"),
        "Adapt3D delay < 1.05x Default":
            fig3.value(DELAY, "Adapt3D") < 1.05,
        "CGate delay > 1.0x Default":
            fig3.value(DELAY, "CGate") > 1.0,
        "throttling policies average > 1.01x Adapt3D's delay":
            sum(fig3.value(DELAY, p) for p in throttling) / len(throttling)
            > 1.01 * fig3.value(DELAY, "Adapt3D"),
        f"DVFS-bearing policies beat Default on EXP-{hot} (no DPM)":
            all(fig3.value(f"EXP{hot} hot%", p)
                < fig3.value(f"EXP{hot} hot%", "Default")
                for p in ("DVFS_TT", "DVFS_Util", "DVFS_FLP",
                          "Adapt3D&DVFS_TT")),
        "DPM cuts Default's hot spots on the 4-tier stacks":
            all(fig4.value(f"EXP{e} hot%", "Default")
                < fig3.value(f"EXP{e} hot%", "Default")
                for e in exps if e >= 3),
        "the sensor-noise point renders":
            len(rendered["noise_hot"]) == 1
            and 0.0 <= rendered["noise_hot"][0] <= 100.0,
        "every ablation variant renders":
            rendered["ablation_rows"] == len(BETAS) * len(WINDOWS),
    }
    return [f"claim broken: {text}" for text, ok in claims.items() if not ok]


def paper_figures(seed: int, smoke: bool) -> Workload:
    # Every run on one stack shares that stack's workload seed, so the
    # figures compare policies and DPM on the same job stream; stacks
    # draw independent seeds, so the campaign's total work varies less
    # from one benchmark seed to the next.
    duration = 4.0 if smoke else 20.0
    exps = (1, 4) if smoke else EXPS
    seeds = dict(zip(exps, _seeds(seed, len(exps))))
    runs = [
        RunSpec(exp_id=exp, policy=policy, duration_s=duration,
                with_dpm=dpm, seed=seeds[exp])
        for exp in exps for policy in POLICIES for dpm in (False, True)
    ]
    runs.append(RunSpec(exp_id=4, policy="Adapt3D", duration_s=duration,
                        seed=seeds[4], sensor_noise_sigma=1.0))
    runs += [
        RunSpec(exp_id=4, policy="Adapt3D", duration_s=duration,
                with_dpm=True, seed=seeds[4],
                policy_params=(("beta_inc", bi), ("beta_dec", bd),
                               ("history_window", w)))
        for bi, bd in BETAS for w in WINDOWS
    ]
    return Workload(
        name="paper-figures",
        campaign=_explicit("paper-figures", runs), backend="serial",
        render=_figures, check=_check_figures,
    )


# ----------------------------------------------------------------------
# store-churn: many short runs into one store, serial


def _report(store: ResultStore, campaign: CampaignSpec) -> Dict[str, Any]:
    return {"text": campaign_report(store, campaign)}


def _check_report(campaign: CampaignSpec, rendered) -> List[str]:
    """The rendered campaign report covers every run as completed."""
    n = len(campaign.expand())
    if f"{n}/{n} runs" not in rendered["text"].splitlines()[0]:
        return ["campaign report does not show every run completed"]
    return []


def _check_churn(store, campaign, rendered, runner, work) -> List[str]:
    failures = _check_report(campaign, rendered)
    for spec in _sample(campaign, 4):
        failures += _check_stored(store, spec, runner.run(spec), work)
    return failures


def store_churn(seed: int, smoke: bool) -> Workload:
    campaign = CampaignSpec(
        name="store-churn", exp_ids=(1,), policies=("Default", "Adapt3D"),
        durations_s=(2.0,), seeds=_seeds(seed, 20 if smoke else 200),
    )
    return Workload(
        name="store-churn",
        campaign=campaign, backend="serial",
        render=_report, check=_check_churn,
    )


# ----------------------------------------------------------------------
# idle-event: event fidelity on the per-run process pool


def _check_event(store, campaign, rendered, runner, work) -> List[str]:
    failures = _check_report(campaign, rendered)
    for spec in _sample(campaign, 1):
        event = runner.run(spec)
        eager = runner.run(replace(spec, fidelity="eager"))
        failures += _check_stored(store, spec, event, work)
        for name in DISCRETE:
            if not np.array_equal(getattr(eager, name), getattr(event, name)):
                failures.append(f"event {name} differ from eager")
        for name in THERMAL:
            err = float(np.max(np.abs(getattr(eager, name)
                                      - getattr(event, name))))
            if err > EVENT_TOL_K:
                failures.append(f"event {name} max|dT| {err:.2e} K")
        if abs(eager.energy_j - event.energy_j) > EVENT_TOL_ENERGY * eager.energy_j:
            failures.append("event energy outside 0.1% of eager")
    return failures


def idle_event(seed: int, smoke: bool, workers: int) -> Workload:
    campaign = CampaignSpec(
        name="idle-event", exp_ids=(3, 4),
        policies=("Default", "Adapt3D", "DVFS_TT", "Adapt3D&DVFS_TT"),
        durations_s=(10.0 if smoke else 30.0,), dpm=(True,),
        benchmark_mixes=(IDLE_MIX,), fidelities=("event",),
        seeds=_seeds(seed, 1 if smoke else 4),
    )
    return Workload(
        name="idle-event",
        campaign=campaign, backend="parallel", workers=workers,
        render=_report, check=_check_event,
    )


# ----------------------------------------------------------------------
# seed-batch: fused lanes on the batched backend


def _check_batch(store, campaign, rendered, runner, work) -> List[str]:
    specs = campaign.expand()
    lanes = _sample(campaign, 4)
    failures = _check_report(campaign, rendered)
    batched = runner.run_batch(lanes, propagation="exact")
    for spec, lane in zip(lanes, batched):
        serial = runner.run(spec)
        bad = _identical(lane, serial)
        if bad:
            failures.append(f"batch lane {run_key(spec)} != serial in {bad}")
        failures += _check_stored(store, spec, serial, work)
    if len(ExperimentRunner.group_batchable(specs)) != 1:
        failures.append("seed-batch runs do not share one batch group")
    return failures


def seed_batch(seed: int, smoke: bool, workers: int) -> Workload:
    # Seed-major order, so every fused unit mixes both policies and both
    # DPM settings and the units cost about the same.
    runs = [
        RunSpec(exp_id=4, policy=policy, duration_s=6.0 if smoke else 20.0,
                with_dpm=dpm, seed=run_seed)
        for run_seed in _seeds(seed, 2 if smoke else 8)
        for policy in ("Adapt3D", "Adapt3D&DVFS_TT")
        for dpm in (False, True)
    ]
    return Workload(
        name="seed-batch",
        campaign=_explicit("seed-batch", runs), backend="batched",
        workers=workers,
        render=_report, check=_check_batch,
    )


NAMES = ("paper-figures", "store-churn", "idle-event", "seed-batch")


def build(name: str, seed: int, smoke: bool, workers: int) -> Workload:
    if name == "paper-figures":
        workload = paper_figures(seed, smoke)
    elif name == "store-churn":
        workload = store_churn(seed, smoke)
    elif name == "idle-event":
        workload = idle_event(seed, smoke, workers)
    elif name == "seed-batch":
        workload = seed_batch(seed, smoke, workers)
    else:
        raise ValueError(f"unknown workload {name!r}; known: {list(NAMES)}")
    stacks = []
    for spec in workload.campaign.expand():
        stack = (spec.exp_id, tuple(spec.grid))
        if stack not in stacks:
            stacks.append(stack)
    return replace(workload, stacks=tuple(stacks))
