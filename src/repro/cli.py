"""Command-line interface: ``repro-dtm``.

Subcommands:

- ``run``        — simulate one (experiment, policy) pair and print the
  metric report,
- ``compare``    — run several policies on one stack and print a table,
- ``policies``   — list the registered DTM policies,
- ``floorplan``  — render an EXP configuration's layers as ASCII,
- ``campaign``   — execute/inspect declarative campaign grids against a
  persistent result store (``campaign run|status|report``, see
  docs/CAMPAIGNS.md).
- ``trace``      — simulate one run with full telemetry and export a
  Chrome-trace/Perfetto JSON timeline (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.runner import ExperimentRunner, RunSpec
from repro.analysis.tables import format_table
from repro.core.registry import policy_names
from repro.errors import ReproError
from repro.floorplan.experiments import EXPERIMENT_IDS, build_experiment
from repro.metrics.report import summarize
from repro.sched.engine import FIDELITY_MODES


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--exp", type=int, default=3, choices=EXPERIMENT_IDS,
                        help="stack configuration (paper EXP-1..4)")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="simulated seconds")
    parser.add_argument("--dpm", action="store_true",
                        help="enable the fixed-timeout power manager")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--fidelity", default="event",
                        choices=FIDELITY_MODES,
                        help="interval-execution fidelity: event "
                             "(default; event-driven clock jumps over a "
                             "modal thermal stepper, within the "
                             "documented tolerance of eager) or eager "
                             "(the per-event reference)")


def _cell(value: Optional[float], digits: int) -> object:
    """``value`` rounded for a table, or ``--`` for an undefined metric."""
    return "--" if value is None else round(value, digits)


def _report_lines(report) -> List[List[object]]:
    return [
        ["hot spots (>85C) % time", round(report.hot_spot_pct, 2)],
        ["spatial gradients (>15C) % time", round(report.gradient_pct, 2)],
        ["thermal cycles (>20C) % windows", _cell(report.cycle_pct, 2)],
        ["peak temperature C", round(report.peak_temperature_c, 1)],
        ["mean response time s", _cell(report.mean_response_s, 4)],
        ["average power W", round(report.avg_power_w, 1)],
        ["energy J", round(report.energy_j, 1)],
    ]


def cmd_run(args: argparse.Namespace) -> int:
    runner = ExperimentRunner()
    spec = RunSpec(exp_id=args.exp, policy=args.policy,
                   duration_s=args.duration, with_dpm=args.dpm, seed=args.seed,
                   fidelity=args.fidelity)
    result = runner.run(spec)
    report = summarize(result)
    print(format_table(
        ["metric", "value"],
        _report_lines(report),
        title=f"{args.policy} on EXP-{args.exp} "
              f"({args.duration:.0f}s, DPM={'on' if args.dpm else 'off'})",
    ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = args.policies or policy_names()
    unknown = [n for n in names if n not in policy_names()]
    if unknown:
        print(f"unknown policies: {unknown}", file=sys.stderr)
        return 2
    runner = ExperimentRunner()
    base_spec = RunSpec(exp_id=args.exp, policy="Default",
                        duration_s=args.duration, with_dpm=args.dpm,
                        seed=args.seed, fidelity=args.fidelity)
    results = runner.run_policies(base_spec, names)
    baseline = results.get("Default") or runner.run(base_spec)
    rows = []
    for name, result in results.items():
        report = summarize(result, baseline)
        rows.append([
            name,
            round(report.hot_spot_pct, 2),
            round(report.gradient_pct, 2),
            _cell(report.cycle_pct, 2),
            round(report.peak_temperature_c, 1),
            _cell(report.normalized_delay, 3),
        ])
    print(format_table(
        ["policy", "hot%", "grad%", "cycles%", "peak C", "delay"],
        rows,
        title=f"EXP-{args.exp}, {args.duration:.0f}s, "
              f"DPM={'on' if args.dpm else 'off'}",
    ))
    return 0


def _print_phase_summary(phases, indent: str = "  ") -> None:
    print(f"tick phases ({phases['ticks']} ticks, "
          f"{phases['ms_per_tick']:.3f} ms/tick):")
    for name, entry in phases["phases"].items():
        print(f"{indent}{name:<14s} {entry['ms_per_tick']:.4f} ms/tick "
              f"({entry['share_pct']:.1f}%)")


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.telemetry import TelemetryConfig

    runner = ExperimentRunner()
    spec = RunSpec(exp_id=args.exp, policy=args.policy,
                   duration_s=args.duration, with_dpm=args.dpm,
                   seed=args.seed, fidelity=args.fidelity)
    engine = runner.build_engine(
        spec,
        telemetry_config=TelemetryConfig(
            trace=True, trace_capacity=args.capacity
        ),
    )
    result = engine.run()
    trace = engine.telemetry.trace
    trace.write_chrome_trace(args.out, result.core_names)
    kept = min(trace.emitted, trace.capacity)
    line = f"wrote {kept} trace events to {args.out}"
    if trace.dropped:
        line += (f" ({trace.dropped} oldest dropped; re-run with "
                 f"--capacity {trace.emitted} or more for the full run)")
    print(line)
    if args.jsonl is not None:
        trace.write_jsonl(args.jsonl, result.core_names)
        print(f"wrote JSONL event dump to {args.jsonl}")
    snapshot = result.telemetry or {}
    phases = snapshot.get("phases")
    if phases:
        _print_phase_summary(phases)
    counters = (snapshot.get("engine") or {}).get("counters") or {}
    if counters:
        print("engine counters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}")
    return 0


def _load_campaign(args: argparse.Namespace):
    from repro.campaign import CampaignSpec, ResultStore

    spec = CampaignSpec.from_json(args.spec)
    store_dir = args.store or Path("campaigns") / spec.name
    return spec, ResultStore(store_dir)


def _print_campaign_telemetry(store, spec) -> None:
    from repro.campaign import campaign_telemetry, format_telemetry

    summary = campaign_telemetry(store, spec)
    if summary["with_telemetry"]:
        print(format_telemetry(summary))


def cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignExecutor, campaign_status, format_status

    spec, store = _load_campaign(args)

    if args.fidelity is not None:
        # Override the spec's fidelity axis for this invocation; run
        # keys include the fidelity, so event results live alongside
        # (not instead of) eager ones in the store.
        from dataclasses import replace as dc_replace

        spec = dc_replace(spec, fidelities=(args.fidelity,))

    total = len(spec.expand())
    done = {"n": 0}

    def progress(event: str, key: str, detail: str) -> None:
        if event == "start":
            return
        if event == "retry":
            # Informational: the run is still in flight, so it does not
            # advance the done counter.
            print(f"[{done['n']}/{total}] retry  {key}  {detail}",
                  flush=True)
            return
        done["n"] += 1
        line = f"[{done['n']}/{total}] {event:6s} {key}"
        if detail:
            line += f"  {detail}"
        print(line, flush=True)

    from repro.campaign import ResiliencePolicy

    resilience = ResiliencePolicy(
        max_attempts=args.max_attempts, unit_timeout_s=args.unit_timeout,
    )
    executor = CampaignExecutor(
        store=store,
        backend=args.backend,
        max_workers=args.workers,
        progress=progress,
        batch_size=args.batch_size,
        telemetry=args.telemetry,
        resilience=resilience,
    )
    run = executor.run_campaign(spec)
    print(format_status(campaign_status(store, spec)))
    _print_campaign_telemetry(store, spec)
    return 1 if run.counts().get("error", 0) else 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import campaign_status, format_status

    spec, store = _load_campaign(args)
    print(format_status(campaign_status(store, spec)))
    _print_campaign_telemetry(store, spec)
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import campaign_report

    spec, store = _load_campaign(args)
    print(campaign_report(store, spec, baseline_policy=args.baseline))
    _print_campaign_telemetry(store, spec)
    return 0


def cmd_policies(_args: argparse.Namespace) -> int:
    for name in policy_names():
        print(name)
    return 0


def cmd_floorplan(args: argparse.Namespace) -> int:
    config = build_experiment(args.exp)
    print(f"EXP-{args.exp}: {config.description}")
    for index, plan in enumerate(config.layers):
        location = "adjacent to heat sink" if index == 0 else f"tier {index}"
        print(f"\nlayer {index} ({location}): {plan.name}")
        print(plan.to_ascii(cols=44, rows=8))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dtm",
        description="Dynamic thermal management on 3D multicore stacks "
                    "(Coskun et al., DATE 2009 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate one policy")
    run_parser.add_argument("policy", choices=policy_names())
    _add_run_arguments(run_parser)
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser("compare", help="compare policies")
    compare_parser.add_argument("policies", nargs="*",
                                help="policy names (default: all)")
    _add_run_arguments(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    campaign_parser = sub.add_parser(
        "campaign", help="run/inspect a declarative campaign grid"
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("spec", help="campaign spec JSON file")
        parser.add_argument("--store", type=Path, default=None,
                            help="result store directory "
                                 "(default: campaigns/<name>)")

    campaign_run = campaign_sub.add_parser(
        "run", help="execute pending runs (resumes from the store)"
    )
    _add_campaign_arguments(campaign_run)
    campaign_run.add_argument("--backend", default="parallel",
                              choices=("serial", "parallel", "batched"),
                              help="execution backend: serial (in-process), "
                                   "parallel (one run per pool task), or "
                                   "batched (compatible event runs fused "
                                   "into one tick loop per pool task; eager "
                                   "runs go alone)")
    campaign_run.add_argument("--workers", type=int, default=None,
                              help="worker pool size (default: the CPUs "
                                   "this process may run on)")
    campaign_run.add_argument("--batch-size", type=int, default=16,
                              help="max runs fused per batch "
                                   "(batched backend, default 16)")
    campaign_run.add_argument("--fidelity", default=None,
                              choices=FIDELITY_MODES,
                              help="override the campaign's fidelity axis "
                                   "for every run: event (event-driven "
                                   "clock jumps, the default axis) or "
                                   "eager (the per-event reference)")
    campaign_run.add_argument("--telemetry", action="store_true",
                              help="collect engine telemetry (job stats, "
                                   "engine counters, tick-phase profile) "
                                   "per run; "
                                   "stored as telemetry.json next to each "
                                   "result, run keys unchanged")
    campaign_run.add_argument("--max-attempts", type=int, default=3,
                              help="attempt budget per pool unit whose "
                                   "worker crashes or times out (default "
                                   "3, 1 disables retries); a run that "
                                   "raises is never retried")
    campaign_run.add_argument("--unit-timeout", type=float, default=None,
                              help="explicit watchdog deadline per pool "
                                   "unit in wall seconds (default: scaled "
                                   "from simulated duration and batch "
                                   "width)")
    campaign_run.set_defaults(func=cmd_campaign_run)

    campaign_status_parser = campaign_sub.add_parser(
        "status", help="show store coverage of a campaign"
    )
    _add_campaign_arguments(campaign_status_parser)
    campaign_status_parser.set_defaults(func=cmd_campaign_status)

    campaign_report_parser = campaign_sub.add_parser(
        "report", help="aggregate a finished campaign into a metrics table"
    )
    _add_campaign_arguments(campaign_report_parser)
    campaign_report_parser.add_argument(
        "--baseline", default="Default",
        help="policy used to normalize the delay column")
    campaign_report_parser.set_defaults(func=cmd_campaign_report)

    trace_parser = sub.add_parser(
        "trace", help="record one run's event timeline (Chrome trace)"
    )
    trace_parser.add_argument("policy", choices=policy_names())
    _add_run_arguments(trace_parser)
    trace_parser.add_argument("--out", type=Path,
                              default=Path("trace.json"),
                              help="Chrome-trace JSON output path (load in "
                                   "Perfetto / chrome://tracing)")
    trace_parser.add_argument("--jsonl", type=Path, default=None,
                              help="also dump raw events as JSON lines")
    trace_parser.add_argument("--capacity", type=int, default=65536,
                              help="trace ring-buffer size in events; when "
                                   "exceeded the oldest events drop "
                                   "(default 65536)")
    trace_parser.set_defaults(func=cmd_trace)

    policies_parser = sub.add_parser("policies", help="list DTM policies")
    policies_parser.set_defaults(func=cmd_policies)

    floorplan_parser = sub.add_parser("floorplan", help="render a stack")
    floorplan_parser.add_argument("--exp", type=int, default=1,
                                  choices=EXPERIMENT_IDS)
    floorplan_parser.set_defaults(func=cmd_floorplan)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one subcommand; a library error prints and exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
