"""Saving and reloading simulation results.

``save_result`` / ``load_result`` are the result store's payload codec.
A saved result is one framed file next to its stem
(:data:`PAYLOAD_SUFFIX`): a fixed-width preamble (a magic naming the
format version, then the file's total size in bytes, which
:func:`payload_complete` checks without parsing JSON); one JSON header
line with the scalars, ``n_ticks`` and every name list, padded so the
body starts on an 8-byte boundary; then each per-tick series in
:data:`_PLANES` order and the completed jobs' rows (columns in
:data:`~repro.workload.job.JOB_COLUMNS` order), each as its own
C-contiguous little-endian float64 block. float64 holds every recorded
value and integer exactly, so the round trip is bit for bit, and one
result always gives the same bytes, which the store's rename
arbitration relies on. ``load_result`` reads each block with
``readinto`` into an array the loaded result owns. Only *completed*
jobs are kept: every metric in :mod:`repro.metrics` uses completed jobs
only. Neither direction builds a :class:`~repro.workload.job.Job`: the
jobs block is the rows of the result's
:class:`~repro.workload.job.JobTable`, which builds its jobs only when
iterated or indexed. Stems saved by earlier versions (the CSV files of
format 1, the ``.npy`` + JSON files of format 2) have no frame, so
loading one raises :class:`ConfigurationError`.

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
import math
import os
import re
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.sched.engine import SimulationResult
from repro.workload.benchmarks import benchmark
from repro.workload.job import JOB_COLUMNS, JobTable

#: Suffix of the payload file :func:`save_result` writes next to its stem.
PAYLOAD_SUFFIX = ".bin"

#: Payload format version, named in the preamble and the header; 1 was
#: the CSV codec, 2 the ``.npy`` + JSON file triple.
FORMAT_VERSION = 3

#: Preamble: this magic, the frame's total size in bytes as 11
#: zero-padded digits, and a newline.
_MAGIC = b"repro-dtm result v%d " % FORMAT_VERSION
_PREAMBLE = re.compile(re.escape(_MAGIC) + rb"(\d{11})\n")
_PREAMBLE_BYTES = len(_MAGIC) + 12

#: Per-tick result fields in payload block order, with the width of
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


def payload_path(stem: Union[str, Path]) -> Path:
    """The file :func:`save_result` writes for ``stem``."""
    stem = Path(stem)
    return stem.with_name(stem.name + PAYLOAD_SUFFIX)


def _declared_size(preamble: bytes) -> Optional[int]:
    """The total size a frame preamble declares; None if ``preamble``
    is not one of this format version."""
    match = _PREAMBLE.fullmatch(preamble)
    return int(match.group(1)) if match else None


def payload_complete(path: Union[str, Path]) -> bool:
    """Whether the payload file at ``path`` holds exactly the bytes its
    preamble declares: a missing, empty, short or overlong file, or one
    of another format version, is not. Reads the preamble only."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        return _declared_size(os.read(fd, _PREAMBLE_BYTES)) \
            == os.fstat(fd).st_size
    except OSError:
        return False
    finally:
        os.close(fd)


def save_result(result: SimulationResult, stem: Union[str, Path]) -> Path:
    """Persist ``result`` so :func:`load_result` can reconstruct it.

    Writes the framed payload file (see the module docstring) and
    returns its path.
    """
    path = payload_path(stem)
    path.parent.mkdir(parents=True, exist_ok=True)
    jobs = result.jobs.take(result.jobs.finished())
    blocks = [np.ascontiguousarray(block, dtype="<f8") for block in
              [getattr(result, name) for name, _ in _PLANES] + [jobs.rows]]
    text = json.dumps({
        "version": FORMAT_VERSION,
        "policy_name": result.policy_name,
        "sampling_interval_s": result.sampling_interval_s,
        "energy_j": result.energy_j,
        "migrations": result.migrations,
        "unit_names": list(result.unit_names),
        "core_names": list(result.core_names),
        "n_dies": result.layer_spreads_k.shape[1],
        "n_ticks": result.n_ticks,
        "job_benchmarks": [spec.name for spec in jobs.benchmarks],
        "job_cores": jobs.cores,
    }, sort_keys=True).encode()
    header = text + b" " * (-(_PREAMBLE_BYTES + len(text) + 1) % 8) + b"\n"
    total = _PREAMBLE_BYTES + len(header) + sum(b.nbytes for b in blocks)
    with path.open("wb") as handle:
        handle.write(b"%s%011d\n" % (_MAGIC, total) + header)
        for block in blocks:
            handle.write(block)
    return path


def load_result(stem: Union[str, Path]) -> SimulationResult:
    """Reconstruct a :class:`SimulationResult` written by :func:`save_result`.

    Raises :class:`ConfigurationError` naming the file when it is
    missing, of another format, or holds a byte count that disagrees
    with its header.
    """
    path = payload_path(stem)
    try:
        with path.open("rb") as handle:
            declared = _declared_size(handle.read(_PREAMBLE_BYTES))
            if declared is None:
                raise ValueError(f"not a format-{FORMAT_VERSION} frame")
            header = handle.readline()
            meta = json.loads(header)
            names, cores = meta["job_benchmarks"], meta["job_cores"]
            width = {"one": (), "units": (len(meta["unit_names"]),),
                     "cores": (len(meta["core_names"]),),
                     "dies": (meta["n_dies"],)}
            shapes = [(meta["n_ticks"],) + width[kind] for _, kind in _PLANES]
            shapes.append((len(names), len(JOB_COLUMNS)))
            listed = _PREAMBLE_BYTES + len(header) + 8 * sum(
                map(math.prod, shapes))
            actual = os.fstat(handle.fileno()).st_size
            if not declared == listed == actual or len(cores) != len(names):
                raise ConfigurationError(
                    f"{path}: {actual} bytes, {declared} declared and "
                    f"{listed} by its header's name lists ({len(names)} "
                    f"job benchmarks, {len(cores)} job cores) disagree"
                )
            blocks = [np.empty(shape, dtype="<f8") for shape in shapes]
            for block in blocks:
                if handle.readinto(block) != block.nbytes:
                    raise ValueError("file shrank while read")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigurationError(
            f"{path}: no readable result in format version "
            f"{FORMAT_VERSION} ({exc})"
        ) from None

    *planes, rows = blocks
    specs = {name: benchmark(name) for name in set(names)}
    return SimulationResult(
        unit_names=meta["unit_names"],
        core_names=meta["core_names"],
        energy_j=meta["energy_j"],
        jobs=JobTable(rows, [specs[name] for name in names], cores),
        migrations=meta["migrations"],
        policy_name=meta["policy_name"],
        sampling_interval_s=meta["sampling_interval_s"],
        **{name: block.astype(int) if name in _INT_PLANES else block
           for (name, _), block in zip(_PLANES, planes)},
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
