#!/usr/bin/env python3
"""Scenario: choosing a 3D floorplanning strategy at design time.

The paper evaluates four stack organizations (Figure 1): separate
core/cache tiers (EXP-1/3) versus mixed tiers (EXP-2/4), at two and
four layers. This example declares the whole study as one campaign —
the same workload over all four stacks — runs it through the campaign
executor (in parallel when the machine has spare cores), and reports
the thermal/design trade-offs, including the steady-state thermal
indices that quantify each core's hot-spot susceptibility.

Results persist in a campaign store, so a second invocation prints the
report straight from disk instead of re-simulating. Point
``REPRO_CAMPAIGN_STORE`` somewhere else (or delete the store) to force
a fresh run.

Run:  python examples/design_space_exploration.py
"""

import os
from collections import defaultdict
from pathlib import Path

from repro import build_experiment, summarize
from repro.campaign import (
    CampaignExecutor,
    CampaignSpec,
    ResultStore,
    available_cpus,
    run_key,
)
from repro.core.thermal_index import compute_thermal_indices
from repro.power.chip_power import ChipPowerModel
from repro.thermal.model import ThermalModel

CAMPAIGN = CampaignSpec(
    name="design_space_exploration",
    exp_ids=(1, 2, 3, 4),
    policies=("Adapt3D",),
    durations_s=(120.0,),
    dpm=(True,),
)

STORE_DIR = Path(
    os.environ.get(
        "REPRO_CAMPAIGN_STORE",
        Path.home() / ".cache" / "repro-dtm" / "design_space",
    )
)


def describe_indices(exp_id: int) -> None:
    config = build_experiment(exp_id)
    thermal = ThermalModel(config)
    power = ChipPowerModel(config)
    indices = compute_thermal_indices(thermal, power)
    by_layer = defaultdict(list)
    for core, alpha in indices.items():
        by_layer[config.core_layer_map()[core]].append(alpha)
    parts = [
        f"tier {layer}: alpha {min(v):.2f}-{max(v):.2f}"
        for layer, v in sorted(by_layer.items())
    ]
    print(f"  thermal indices   : {'; '.join(parts)}")


def main() -> None:
    store = ResultStore(STORE_DIR)
    workers = available_cpus()
    executor = CampaignExecutor(
        store=store,
        backend="parallel" if workers > 1 else "serial",
        progress=lambda event, key, _detail: print(f"  [{event}] {key}"),
    )
    print(f"Campaign {CAMPAIGN.name}: {len(CAMPAIGN.expand())} runs, "
          f"store at {STORE_DIR}\n")
    run = executor.run_campaign(CAMPAIGN)
    if run.failed():
        raise SystemExit(f"campaign runs failed: {run.failed()}")
    print("\nSame workload intensity per core, Adapt3D + DPM, 120 s:\n")
    for spec in CAMPAIGN.expand():
        config = build_experiment(spec.exp_id)
        report = summarize(store.load(run_key(spec)))
        print(f"=== EXP-{spec.exp_id}: {config.description} ===")
        print(f"  tiers x cores     : {config.n_layers} x {config.n_cores}")
        print(f"  peak temperature  : {report.peak_temperature_c:.1f} C")
        print(f"  hot spots         : {report.hot_spot_pct:.2f} % of time")
        print(f"  spatial gradients : {report.gradient_pct:.2f} % of time")
        print(f"  average power     : {report.avg_power_w:.1f} W")
        describe_indices(spec.exp_id)
        print()

    print(
        "Reading: stacking four active tiers roughly doubles power in the\n"
        "same footprint; the mixed-tier EXP-4 runs hottest because every\n"
        "tier carries cores, while EXP-1/EXP-3 park the cache tiers'\n"
        "low-power SRAM between the logic tiers. The thermal index spread\n"
        "shows why a 3D-aware policy matters: upper-tier cores are\n"
        "structurally more susceptible."
    )


if __name__ == "__main__":
    main()
