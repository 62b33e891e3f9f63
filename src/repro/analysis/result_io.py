"""Saving and reloading simulation results.

``save_result`` / ``load_result`` are the result store's payload codec.
A saved result is three files next to its stem (:data:`PAYLOAD_SUFFIXES`):
every per-tick series as one float64 matrix (``_planes.npy``, columns in
:data:`_PLANES` order), one float64 row per completed job (``_jobs.npy``,
the completed rows of the result's
:class:`~repro.workload.job.JobTable`, columns in
:data:`~repro.workload.job.JOB_COLUMNS` order), and the scalars with
every name list (``_meta.json``, which names each job's benchmark and
core). float64 holds every recorded value and integer exactly, so the
round trip is bit for bit, and one result always gives the same bytes,
which the store's rename arbitration relies on. Only *completed* jobs
are kept: every metric in :mod:`repro.metrics` uses completed jobs
only. Neither direction builds a :class:`~repro.workload.job.Job`:
``save_result`` writes the table's columns, and ``load_result`` makes
the loaded jobs matrix the table's rows, so a loaded result's ``jobs``
builds its :class:`~repro.workload.job.Job` objects only when iterated
or indexed. A stem saved in the CSV format of earlier versions fails
the meta ``version`` check with :class:`ConfigurationError`.

``export_result`` writes CSV artifacts for plotting outside this
library, and ``load_temperature_csv`` reads the temperature table back:

- ``<stem>_temps.csv``   — per-tick unit temperatures (kelvin),
- ``<stem>_cores.csv``   — per-tick core peak temperature, utilization,
  V/f index and state code,
- ``<stem>_jobs.csv``    — one row per completed job (arrival, work,
  response time, migrations).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.sched.engine import SimulationResult
from repro.workload.benchmarks import benchmark
from repro.workload.job import JOB_COLUMNS, JobTable

#: Files :func:`save_result` writes, as suffixes of its stem: the
#: per-tick planes, the completed jobs and the metadata.
PAYLOAD_SUFFIXES = ("_planes.npy", "_jobs.npy", "_meta.json")

#: Meta ``version`` of the payload format; 1 was the CSV codec.
FORMAT_VERSION = 2

#: Per-tick result fields in planes column order, with the width of
#: each: one column, or one per unit, core or die.
_PLANES = (
    ("times", "one"), ("unit_temps_k", "units"), ("core_temps_k", "cores"),
    ("core_peak_temps_k", "cores"), ("layer_spreads_k", "dies"),
    ("utilization", "cores"), ("vf_indices", "cores"),
    ("core_states", "cores"), ("total_power_w", "one"),
)

#: Planes the engine records as ``int``; every other plane is float64.
_INT_PLANES = ("vf_indices", "core_states")

def export_result(result: SimulationResult, stem: Union[str, Path]) -> List[Path]:
    """Write the three CSV artifacts; returns the written paths."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    paths = []

    temps_path = stem.with_name(stem.name + "_temps.csv")
    with temps_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time_s"] + result.unit_names)
        for tick in range(result.n_ticks):
            writer.writerow(
                [f"{result.times[tick]:.3f}"]
                + [f"{value:.4f}" for value in result.unit_temps_k[tick]]
            )
    paths.append(temps_path)

    cores_path = stem.with_name(stem.name + "_cores.csv")
    with cores_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["time_s"]
        for name in result.core_names:
            header += [f"{name}_peak_k", f"{name}_util", f"{name}_vf", f"{name}_state"]
        writer.writerow(header)
        for tick in range(result.n_ticks):
            row = [f"{result.times[tick]:.3f}"]
            for c in range(len(result.core_names)):
                row += [
                    f"{result.core_peak_temps_k[tick, c]:.4f}",
                    f"{result.utilization[tick, c]:.4f}",
                    str(int(result.vf_indices[tick, c])),
                    str(int(result.core_states[tick, c])),
                ]
            writer.writerow(row)
    paths.append(cores_path)

    jobs_path = stem.with_name(stem.name + "_jobs.csv")
    with jobs_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["job_id", "thread_id", "benchmark", "arrival_s", "work_s",
             "response_s", "migrations", "core"]
        )
        for job in result.completed_jobs():
            writer.writerow(
                [
                    job.job_id,
                    job.thread_id,
                    job.benchmark.name,
                    f"{job.arrival_time:.4f}",
                    f"{job.work_s:.4f}",
                    f"{job.response_time:.4f}",
                    job.migrations,
                    job.core or "",
                ]
            )
    paths.append(jobs_path)
    return paths


def _payload_paths(stem: Union[str, Path]) -> List[Path]:
    """The files :func:`save_result` writes for ``stem``, in
    :data:`PAYLOAD_SUFFIXES` order."""
    stem = Path(stem)
    return [stem.with_name(stem.name + suffix) for suffix in PAYLOAD_SUFFIXES]


def save_result(result: SimulationResult, stem: Union[str, Path]) -> List[Path]:
    """Persist ``result`` so :func:`load_result` can reconstruct it.

    Writes the three payload files (see the module docstring) and
    returns their paths.
    """
    planes_path, jobs_path, meta_path = paths = _payload_paths(stem)
    planes_path.parent.mkdir(parents=True, exist_ok=True)
    jobs = result.jobs.take(result.jobs.finished())
    planes = np.column_stack([getattr(result, name) for name, _ in _PLANES])
    for path, matrix in ((planes_path, planes), (jobs_path, jobs.rows)):
        with path.open("wb") as handle:
            np.save(handle, matrix, allow_pickle=False)
    meta = {
        "version": FORMAT_VERSION,
        "policy_name": result.policy_name,
        "sampling_interval_s": result.sampling_interval_s,
        "energy_j": result.energy_j,
        "migrations": result.migrations,
        "unit_names": list(result.unit_names),
        "core_names": list(result.core_names),
        "n_dies": result.layer_spreads_k.shape[1],
        "job_benchmarks": [spec.name for spec in jobs.benchmarks],
        "job_cores": jobs.cores,
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    return paths


def _read_payload(path: Path):
    """A payload file's content; ConfigurationError if unreadable."""
    try:
        if path.suffix == ".npy":
            return np.load(path, allow_pickle=False)
        return json.loads(path.read_text())
    except (OSError, ValueError, EOFError) as exc:
        raise ConfigurationError(
            f"{path}: no readable saved result ({exc})"
        ) from None


def load_result(stem: Union[str, Path]) -> SimulationResult:
    """Reconstruct a :class:`SimulationResult` written by :func:`save_result`."""
    planes_path, jobs_path, meta_path = _payload_paths(stem)
    meta = _read_payload(meta_path)
    if not isinstance(meta, dict) or meta.get("version") != FORMAT_VERSION:
        raise ConfigurationError(
            f"{meta_path}: not a result in format version {FORMAT_VERSION} "
            "(CSV results of earlier versions are not read; re-run them)"
        )
    planes = _read_payload(planes_path)
    rows = _read_payload(jobs_path)
    names, cores = meta["job_benchmarks"], meta["job_cores"]
    width = {"one": 1, "units": len(meta["unit_names"]),
             "cores": len(meta["core_names"]), "dies": meta["n_dies"]}
    bounds = np.cumsum([width[kind] for _, kind in _PLANES])
    if (planes.ndim != 2 or planes.shape[1] != bounds[-1]
            or rows.shape != (len(names), len(JOB_COLUMNS))
            or len(cores) != len(names)):
        raise ConfigurationError(
            f"{stem}: payload shapes {planes.shape} and {rows.shape} "
            "disagree with its name lists"
        )
    fields = {
        name: np.ascontiguousarray(block[:, 0] if kind == "one" else block,
                                   dtype=int if name in _INT_PLANES else float)
        for (name, kind), block in zip(
            _PLANES, np.split(planes, bounds[:-1], axis=1))
    }

    specs = {name: benchmark(name) for name in set(names)}
    return SimulationResult(
        unit_names=meta["unit_names"],
        core_names=meta["core_names"],
        energy_j=meta["energy_j"],
        jobs=JobTable(rows, [specs[name] for name in names], cores),
        migrations=meta["migrations"],
        policy_name=meta["policy_name"],
        sampling_interval_s=meta["sampling_interval_s"],
        **fields,
    )


def truncate_result(
    result: SimulationResult, duration_s: float
) -> SimulationResult:
    """Slice a recording down to its first ``duration_s`` of simulation.

    The engine's dynamics are independent of the configured duration, so
    the first N ticks of a long run are *exactly* the recording a short
    run of the same spec would produce. Per-tick series are sliced; jobs
    are filtered to those completed within the horizon. Two scalar
    fields are recomputed rather than replayed. ``energy_j`` is
    re-accumulated from the power series in the engine's left-fold
    order, which both fidelities follow (an event clock jump adds its
    ticks to the run's running energy one by one), so it equals the
    short run's bit for bit.

    ``migrations`` does not: it is re-counted from the completed jobs,
    while a simulated run also counts the migrations of jobs still
    running at its end, which a recording does not keep. A 12 s EXP-4
    ``Migr`` run at seed 3, truncated to 7.3 s, counts 67 migrations;
    the simulated 7.3 s run records 73, under eager and event alike. A
    truncation summarizes the first ``duration_s`` of a run, but it is
    not the shorter run, so campaigns simulate every key they store.
    """
    dt = result.sampling_interval_s
    n = int(round(duration_s / dt))
    if n < 1:
        raise ConfigurationError(
            f"cannot truncate to {duration_s} s: shorter than one "
            f"{dt} s sampling interval"
        )
    if n > result.n_ticks:
        raise ConfigurationError(
            f"cannot truncate to {duration_s} s: recording holds only "
            f"{result.n_ticks} ticks of {dt} s"
        )
    if n == result.n_ticks:
        return result
    end_time = float(result.times[n - 1])
    jobs = result.jobs.take(
        result.jobs.column("completion_time") <= end_time + 1e-9)
    energy = 0.0
    for power in result.total_power_w[:n].tolist():
        energy += power * dt
    return SimulationResult(
        times=result.times[:n].copy(),
        unit_names=list(result.unit_names),
        unit_temps_k=result.unit_temps_k[:n].copy(),
        core_names=list(result.core_names),
        core_temps_k=result.core_temps_k[:n].copy(),
        core_peak_temps_k=result.core_peak_temps_k[:n].copy(),
        layer_spreads_k=result.layer_spreads_k[:n].copy(),
        utilization=result.utilization[:n].copy(),
        vf_indices=result.vf_indices[:n].copy(),
        core_states=result.core_states[:n].copy(),
        total_power_w=result.total_power_w[:n].copy(),
        energy_j=energy,
        jobs=jobs,
        migrations=int(sum(jobs.column("migrations").tolist())),
        policy_name=result.policy_name,
        sampling_interval_s=dt,
    )


def load_temperature_csv(
    path: Union[str, Path],
) -> Tuple[np.ndarray, List[str], np.ndarray]:
    """Read a ``*_temps.csv`` back as (times, unit names, temps)."""
    path = Path(path)
    with path.open() as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if not header or header[0] != "time_s":
            raise ConfigurationError(f"{path}: not a temperature export")
        names = header[1:]
        times: List[float] = []
        rows: List[List[float]] = []
        for row in reader:
            times.append(float(row[0]))
            rows.append([float(v) for v in row[1:]])
    if not rows:
        raise ConfigurationError(f"{path}: no samples")
    return np.array(times), names, np.array(rows)
