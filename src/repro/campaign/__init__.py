"""Campaign subsystem: declarative experiment grids, parallel
execution, and a persistent, resumable result store.

The common workflow::

    from repro.campaign import (
        CampaignSpec, CampaignExecutor, ResultStore, campaign_report,
    )

    spec = CampaignSpec(
        name="fig3", exp_ids=(1, 2, 3, 4),
        policies=("Default", "Adapt3D"), durations_s=(90.0,),
    )
    store = ResultStore("results/fig3")
    run = CampaignExecutor(store=store).run_campaign(spec)
    print(campaign_report(store, spec))

Re-invoking the same campaign skips every run already in the store.
See docs/CAMPAIGNS.md for the spec format, CLI usage, store layout and
resume semantics.
"""

from repro.campaign.executor import (
    CampaignExecutor,
    CampaignRun,
    RunOutcome,
    available_cpus,
    worker_runner,
)
from repro.campaign.faults import FaultPlan, FaultSpec
from repro.campaign.resilience import ResiliencePolicy
from repro.campaign.reports import (
    campaign_report,
    campaign_status,
    campaign_telemetry,
    format_status,
    format_telemetry,
)
from repro.campaign.spec import (
    CampaignSpec,
    run_key,
    spec_from_dict,
    spec_to_dict,
)
from repro.campaign.store import ResultStore

__all__ = [
    "CampaignExecutor",
    "CampaignRun",
    "CampaignSpec",
    "FaultPlan",
    "FaultSpec",
    "ResiliencePolicy",
    "ResultStore",
    "RunOutcome",
    "available_cpus",
    "campaign_report",
    "campaign_status",
    "campaign_telemetry",
    "format_status",
    "format_telemetry",
    "run_key",
    "spec_from_dict",
    "spec_to_dict",
    "worker_runner",
]
