"""Aggregate a finished campaign into the metrics/tables pipeline.

``campaign_status`` summarizes store coverage of a campaign (done /
failed / pending); ``campaign_report`` loads every completed run,
summarizes it with :func:`repro.metrics.report.summarize` — normalizing
delay against the campaign's baseline policy run on the same
(exp, duration, DPM, seed, grid, mix) — and renders one table.
``campaign_telemetry`` folds the per-run ``telemetry.json`` sidecars
(if any) into one tick-phase profile and job-statistics roll-up.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.analysis.runner import RunSpec
from repro.analysis.tables import format_table
from repro.campaign.spec import CampaignSpec, run_key
from repro.campaign.store import STATUS_ERROR, ResultStore
from repro.metrics.report import summarize
from repro.obs.profiler import merge_phase_summaries

def campaign_status(
    store: ResultStore, campaign: CampaignSpec
) -> Dict[str, object]:
    """Coverage of ``campaign`` in ``store``.

    Returns ``{"name", "total", "ok", "error", "quarantined", "pending",
    "failures", "quarantines", "pending_keys"}`` where failures and
    quarantines map run key -> error text.  A quarantined key counts
    only as quarantined, never as a plain failure, even though the
    executor records an error entry alongside the quarantine mark.
    A run counts as done only when its payload is complete on disk.
    """
    ok = 0
    failures: Dict[str, str] = {}
    quarantines: Dict[str, str] = {}
    pending: List[str] = []
    quarantined = store.quarantined()
    specs = campaign.expand()
    for spec in specs:
        key = run_key(spec)
        entry = store.entry(key)
        if key in quarantined:
            quarantines[key] = str(quarantined[key].get("error", ""))
        elif store.has(key):
            ok += 1
        elif entry is not None and entry["status"] == STATUS_ERROR:
            failures[key] = str(entry.get("error", ""))
        else:
            pending.append(key)
    return {
        "name": campaign.name,
        "total": len(specs),
        "ok": ok,
        "error": len(failures),
        "quarantined": len(quarantines),
        "pending": len(pending),
        "failures": failures,
        "quarantines": quarantines,
        "pending_keys": pending,
    }


def format_status(status: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`campaign_status`."""
    line = (
        f"campaign {status['name']}: {status['ok']}/{status['total']} done, "
        f"{status['error']} failed, {status['pending']} pending"
    )
    if status.get("quarantined"):
        line += f", {status['quarantined']} quarantined"
    lines = [line]
    for key, error in sorted(dict(status["failures"]).items()):  # type: ignore[arg-type]
        lines.append(f"  FAILED {key}: {error}")
    for key, error in sorted(dict(status.get("quarantines", {})).items()):  # type: ignore[arg-type]
        lines.append(f"  QUARANTINED {key}: {error}")
    return "\n".join(lines)


def campaign_telemetry(
    store: ResultStore, campaign: CampaignSpec
) -> Dict[str, object]:
    """Aggregate the telemetry sidecars of a campaign's completed runs.

    Returns ``{"ok", "with_telemetry"}`` plus — when any run carries a
    snapshot — ``"phases"`` (tick-phase profile merged across runs via
    :func:`merge_phase_summaries`), ``"job_totals"`` (summed lifecycle
    counts) and ``"mean_response_s"`` (completion-weighted mean).
    Telemetry is optional per run, so partially covered campaigns —
    e.g. resumed ones whose early runs predate ``--telemetry`` — still
    aggregate what exists.
    """
    n_ok = 0
    snapshots: List[Dict[str, object]] = []
    for spec in campaign.expand():
        key = run_key(spec)
        if not store.has(key):
            continue
        n_ok += 1
        telemetry = store.load_telemetry(key)
        if telemetry is not None:
            snapshots.append(telemetry)
    out: Dict[str, object] = {"ok": n_ok, "with_telemetry": len(snapshots)}
    phases = [
        snap["phases"] for snap in snapshots
        if isinstance(snap.get("phases"), dict)
    ]
    if phases:
        out["phases"] = merge_phase_summaries(phases)
    if snapshots:
        totals = {"arrivals": 0, "completions": 0, "migrations": 0,
                  "preemptions": 0}
        weighted = 0.0
        samples = 0
        for snap in snapshots:
            stats = snap.get("job_stats") or {}
            for name in totals:
                totals[name] += int(stats.get(name, 0))
            response = stats.get("response_time_s") or {}
            count = int(response.get("count", 0))
            weighted += float(response.get("mean", 0.0)) * count
            samples += count
        out["job_totals"] = totals
        out["mean_response_s"] = weighted / samples if samples else 0.0
    return out


def format_telemetry(summary: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`campaign_telemetry`."""
    lines = [
        f"telemetry: {summary['with_telemetry']}/{summary['ok']} "
        "completed runs carry a snapshot"
    ]
    totals = summary.get("job_totals")
    if totals:
        lines.append(
            "  jobs: {completions} completed / {arrivals} arrived, "
            "{migrations} migrations ({preemptions} preemptive), "
            "mean response {mean:.3f} s".format(
                mean=summary["mean_response_s"], **totals
            )
        )
    phases = summary.get("phases")
    if phases:
        lines.append(
            f"  tick phases over {phases['ticks']} ticks "
            f"({phases['ms_per_tick']:.3f} ms/tick):"
        )
        for name, entry in phases["phases"].items():
            lines.append(
                f"    {name:<14s} {entry['ms_per_tick']:.4f} ms/tick "
                f"({entry['share_pct']:.1f}%)"
            )
    return "\n".join(lines)


def campaign_report(
    store: ResultStore,
    campaign: CampaignSpec,
    baseline_policy: str = "Default",
) -> str:
    """One metrics table over every completed run of the campaign.

    Failed or pending runs appear as ``--`` rows so the table always
    reflects the full grid, and a metric a stored run cannot define
    (cycles of a run shorter than one window, delay when the run or its
    baseline completed no job) as a ``--`` cell.
    """
    rows: List[List[object]] = []
    # Baseline runs are shared by every other policy row of the same
    # grid point; cache them instead of reloading them per row.
    baselines: Dict[str, object] = {}

    def load_cached(key: str):
        if key not in baselines:
            baselines[key] = store.load(key)
        return baselines[key]

    for spec in campaign.expand():
        key = run_key(spec)
        prefix = [
            spec.exp_id,
            spec.policy,
            "on" if spec.with_dpm else "off",
            spec.seed,
            round(spec.duration_s, 1),
        ]
        if not store.has(key):
            entry = store.entry(key)
            failed = entry is not None and entry["status"] == STATUS_ERROR
            state = "FAILED" if failed else "pending"
            rows.append(prefix + [state, "--", "--", "--", "--"])
            continue
        result = (
            load_cached(key) if spec.policy == baseline_policy
            else store.load(key)
        )
        baseline = None
        if spec.policy != baseline_policy:
            base_key = run_key(replace(spec, policy=baseline_policy))
            if store.has(base_key):
                baseline = load_cached(base_key)
        report = summarize(result, baseline)
        if report.normalized_delay is not None:
            delay = f"{report.normalized_delay:.3f}"
        elif (spec.policy == baseline_policy
              and report.mean_response_s is not None):
            delay = "1.000"
        else:
            delay = "--"
        rows.append(prefix + [
            round(report.hot_spot_pct, 2),
            round(report.gradient_pct, 2),
            "--" if report.cycle_pct is None else round(report.cycle_pct, 2),
            round(report.peak_temperature_c, 1),
            delay,
        ])
    status = campaign_status(store, campaign)
    title = (
        f"Campaign {campaign.name} — {status['ok']}/{status['total']} runs "
        f"({status['error']} failed, {status['pending']} pending)"
    )
    if status.get("quarantined"):
        title += f" [{status['quarantined']} quarantined]"
    table = format_table(
        ["exp", "policy", "dpm", "seed", "dur s",
         "hot%", "grad%", "cycles%", "peak C", "delay"],
        rows,
        title=title,
    )
    tally = store.resilience_tally()
    if tally:
        pairs = ", ".join(
            f"{name}={value}" for name, value in sorted(tally.items())
        )
        table += f"\nresilience (store lifetime): {pairs}"
    return table
