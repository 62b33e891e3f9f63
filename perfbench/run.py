"""Campaign benchmark: empty store to rendered tables, per workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-figures --seed 2009 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --workload seed-batch --smoke

One driver process runs the workload's campaign in a closed loop:
set-up, campaign and read phases on a fresh, empty store, repeated
until ``--seconds`` are spent (see ``measure.py``). ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics (``tracing.py``).
The metric names and units come from ``BENCHMARK.json``.

Times are calibrated: the driver interleaves a ~1 ms probe kernel with
the work (``measure.Probe``), and each stretch of host time between two
probes is scaled by the probe's reference time over the median duration
of the probes nearest to it. The result reads in seconds at the
reference host speed, so most of the load other tenants of a shared
host put on its cores cancels out; the host wall times are kept in the
artifact. Per-layer times are host time. A fixed NumPy + pure-Python kernel
(``measure.calibrate``) and the ``src/`` line count are recorded as
context before the workload runs.

Correctness checks run after the timed iterations; the last line of
standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``. The exit code is 0 when every check passes, 1
when one fails and 2 when the program's sources are missing.

BLAS/OpenMP pools are pinned to one thread before NumPy loads, and
pool workers (forked) inherit the pin; pools use ``min(2, nproc)``
workers. Everything the benchmark writes goes under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Set-up-only repetitions before the timed loop (the first one also
#: warms lazy imports); ``setup_s`` is the median over these and every
#: iteration's set-up.
SETUP_REPS = 3

#: Iterations every run makes, even past ``--seconds`` (one untraced and
#: one traced with ``--trace 1``).
MIN_ITERATIONS = 2


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement window (default: run_seconds "
                             "of BENCHMARK.json, 2 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids: every metric and check in seconds")
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace, names) -> int:
    """Run every workload in its own process; one combined result."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0,
                                "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        combined["correct"] &= bool(result["correct"])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import measure
    import workloads
    from repro.campaign import ResultStore
    from tracing import Tracer

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args, workloads.NAMES)
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else float(config["run_seconds"])

    workers = min(2, len(os.sched_getaffinity(0)))
    workload = workloads.build(args.workload, args.seed, args.smoke, workers)
    pool = workload.backend != "serial"
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    context = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "seconds": seconds,
        "runs": len(workload.campaign.expand()),
        "backend": workload.backend, "workers": workload.workers,
        "blas_threads": 1, "calibration": measure.calibrate(),
        "src_lines": measure.src_lines(SRC),
    }

    probe = measure.Probe()
    setups = []
    for i in range(SETUP_REPS):
        setups.append(measure.setup(workload, work / f"setup{i}", probe)[2])
        shutil.rmtree(work / f"setup{i}")

    tracer = Tracer()
    samples: List[measure.Sample] = []
    plain: List[measure.Sample] = []
    traced: List[measure.Sample] = []
    layers: List[Dict[str, float]] = []
    durations: List[float] = []
    begin = perf_counter()
    i = 0
    while True:
        with_trace = bool(args.trace) and i % 2 == 1
        root = work / f"it{i}"
        t0 = perf_counter()
        if with_trace:
            tracer.install()
        try:
            sample = measure.iterate(workload, root,
                                     tracer if with_trace else None)
        finally:
            tracer.uninstall()
        samples.append(sample)
        if with_trace:
            traced.append(sample)
            layers.append(measure.layer_metrics(
                workload, sample, tracer, ResultStore(root)))
        else:
            plain.append(sample)
        if i > 0:
            shutil.rmtree(work / f"it{i - 1}")
            # Only the last iteration's runner and tables are checked.
            samples[-2].runner = samples[-2].rendered = None
        durations.append(perf_counter() - t0)
        i += 1
        elapsed = perf_counter() - begin
        if i >= MIN_ITERATIONS and (
                elapsed + measure.median(durations) > seconds):
            break
    last = samples[-1]

    # Correctness, outside every timed window.
    store = ResultStore(work / f"it{i - 1}")
    failures = workload.check(store, workload.campaign, last.rendered,
                              last.runner, work)
    runs = context["runs"]
    for n, sample in enumerate(samples):
        if sample.cached != runs:
            failures.append(f"iteration {n}: read phase found "
                            f"{sample.cached}/{runs} runs cached")
    digest = workloads.digest(store, workload.campaign)
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    correct = not failures and failed == 0 and attempted > 0

    def phase_median(name: str, group) -> float:
        return measure.median([getattr(s, name) for s in group])

    latencies = [ms for s in plain for ms in s.latencies_ms]
    tail = measure.tail(latencies)
    e2e = {
        "setup_s": measure.median(setups + [s.setup_s for s in plain]),
        "campaign_s": phase_median("campaign_s", plain),
        "read_s": phase_median("read_s", plain),
        "run_p50_ms": measure.median(latencies),
        "run_tail_ms": tail["value"],
        "peak_rss_mb": measure.peak_rss_mb(workload.workers if pool else 0),
    }
    per_layer: Dict[str, float] = {}
    if traced:
        for name in layers[0]:
            per_layer[name] = measure.median([m[name] for m in layers])
        per_layer["trace.overhead_pct"] = 100.0 * (
            phase_median("campaign_s", traced) / e2e["campaign_s"] - 1.0)
        tracer.write(OUT / f"{workload.name}.trace.json")

    context.update(iterations=len(plain), traced_iterations=len(traced),
                   tail_pct=tail["pct"], tail_n=tail["n"],
                   failed_frac=failed / max(attempted, 1), digest=digest)
    host = {name: phase_median(name, plain)
            for name in ("campaign_wall_s", "read_wall_s")}
    artifact = {"context": context, "end_to_end": e2e, "host_time": host,
                "samples": [{"traced": s in traced, "setup_s": s.setup_s,
                             "campaign_s": s.campaign_s, "read_s": s.read_s,
                             "campaign_wall_s": s.campaign_wall_s,
                             "read_wall_s": s.read_wall_s}
                            for s in samples],
                "per_layer": per_layer,
                "failures": failures}
    (OUT / f"{workload.name}.json").write_text(
        json.dumps(artifact, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    report(context, e2e, host, per_layer, failures)
    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else e2e
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in config[section]
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def report(context, e2e, host, per_layer, failures) -> None:
    """Human-readable summary (everything above the final JSON line)."""
    cal = context["calibration"]
    print(f"perfbench {context['workload']}: seed {context['seed']}, "
          f"{context['runs']} runs/campaign, {context['iterations']} "
          f"untraced + {context['traced_iterations']} traced iterations, "
          f"{context['backend']} backend, {context['workers']} worker(s), "
          f"BLAS threads {context['blas_threads']}")
    print(f"  calibration: numpy {cal['numpy_ms']:.3f} ms, python "
          f"{cal['python_ms']:.3f} ms (1 cal = {cal['total_ms']:.3f} ms); "
          f"src lines {context['src_lines']}")
    for name, value in e2e.items():
        wall = host.get(name.replace("_s", "_wall_s"))
        extra = f"  (host wall {wall:.4f} s)" if wall is not None else ""
        print(f"  {name:<22s} {value:12.4f}{extra}")
    print(f"  run_tail_ms is p{context['tail_pct']:g} of "
          f"{context['tail_n']} runs")
    print(f"  failed_frac            {context['failed_frac']:12.4f}")
    for name, value in per_layer.items():
        print(f"  {name:<34s} {value:14.6f}")
    print(f"  digest {context['digest']}")
    print("  checks: " + ("ok" if not failures else "; ".join(failures)))


if __name__ == "__main__":
    sys.exit(main())
