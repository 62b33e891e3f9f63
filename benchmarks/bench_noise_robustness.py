"""Sensor-noise robustness study: policy quality vs sensor sigma.

The paper assumes ideal thermal sensors; real on-die sensors carry
Gaussian noise of up to a few kelvin. This study sweeps the campaign
``sensor_noise_sigmas`` axis for the reactive policies on the hottest
stack (EXP-4) and reports how the §V metrics degrade: a robust policy
should hold its hot-spot and peak-temperature numbers as sigma grows,
while a threshold-chasing policy starts mis-reading which cores are
hot. The multi-seed sweep rides the campaign store (resumable, shared
with the figure benches) on the serial backend.

Emits ``noise_robustness.txt`` and merges a machine-readable section
into ``BENCH_noise_robustness.json`` under ``benchmarks/results/``.
``REPRO_BENCH_SMOKE=1`` shortens the runs.
"""

import json
import os

from repro.analysis.figures import FigureSeries
from repro.campaign import CampaignExecutor, CampaignSpec, run_key
from repro.metrics.report import summarize

from benchmarks.conftest import BENCH_SEED, emit

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

EXP_ID = 4
POLICIES = ("Default", "AdaptRand", "Adapt3D", "Adapt3D&DVFS_TT")
SIGMAS_K = (0.0, 0.5, 1.0, 2.0)
SEEDS = (BENCH_SEED,) if SMOKE else (BENCH_SEED, BENCH_SEED + 1)
STUDY_DURATION_S = 12.0 if SMOKE else 60.0

CAMPAIGN = CampaignSpec(
    name="noise_robustness",
    exp_ids=(EXP_ID,),
    policies=POLICIES,
    durations_s=(STUDY_DURATION_S,),
    dpm=(False,),
    seeds=SEEDS,
    sensor_noise_sigmas=SIGMAS_K,
)


def _mean(values):
    return sum(values) / len(values)


def test_noise_robustness(campaign_store, runner, results_dir):
    executor = CampaignExecutor(
        store=campaign_store, backend="serial", runner=runner,
    )
    run = executor.run_campaign(CAMPAIGN)
    assert not run.failed(), f"campaign runs failed: {run.failed()}"

    results = {}
    for spec in CAMPAIGN.expand():
        results[run_key(spec)] = campaign_store.load(run_key(spec))

    def seed_mean(policy, sigma, metric):
        values = []
        for spec in CAMPAIGN.expand():
            if spec.policy == policy and spec.sensor_noise_sigma == sigma:
                values.append(metric(summarize(results[run_key(spec)])))
        assert values, f"no runs for {policy} at sigma={sigma}"
        return _mean(values)

    fig = FigureSeries(
        "Sensor-noise robustness — EXP-4 hot-spot % vs sensor sigma "
        f"({STUDY_DURATION_S:.0f} s, {len(SEEDS)} seed(s))"
        + (" [SMOKE]" if SMOKE else ""),
        groups=[f"sigma={s:g}K" for s in SIGMAS_K],
    )
    payload = {
        "exp_id": EXP_ID,
        "sigmas_k": list(SIGMAS_K),
        "seeds": list(SEEDS),
        "duration_s": STUDY_DURATION_S,
        "smoke": SMOKE,
        "policies": {},
    }
    for policy in POLICIES:
        hot = [
            seed_mean(policy, s, lambda r: r.hot_spot_pct) for s in SIGMAS_K
        ]
        peak = [
            seed_mean(policy, s, lambda r: r.peak_temperature_c)
            for s in SIGMAS_K
        ]
        fig.add_series(f"{policy} hot%", hot)
        payload["policies"][policy] = {
            "hot_spot_pct": [round(v, 3) for v in hot],
            "peak_temperature_c": [round(v, 2) for v in peak],
            "hot_spot_drift_pct": round(hot[-1] - hot[0], 3),
        }

    emit(results_dir, "noise_robustness", fig.to_text())
    (results_dir / "BENCH_noise_robustness.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # Sanity: the ideal-sensor column must reproduce the stored-run
    # ordering (adaptive policies at or below Default on hot spots),
    # and noise must not turn the study degenerate (metrics finite).
    ideal = {
        policy: payload["policies"][policy]["hot_spot_pct"][0]
        for policy in POLICIES
    }
    assert ideal["Adapt3D"] <= ideal["Default"] + 1e-9
    for policy in POLICIES:
        for value in payload["policies"][policy]["hot_spot_pct"]:
            assert 0.0 <= value <= 100.0
