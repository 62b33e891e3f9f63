"""On-disk, content-addressed store of simulation results.

Layout under the store root::

    runs/<key>/result.bin           — one saved SimulationResult, one
                                      framed file in the lossless
                                      binary codec of
                                      analysis/result_io.py
    runs/<key>/telemetry.json       — optional telemetry sidecar
    runs/<key>/entry.json           — the run's record: status and spec
    failures/<key>.json             — last failure of a key that has
                                      no result (the next campaign
                                      tries the key again)
    resilience.json                 — cumulative resilience tally
    indices/exp<E>_<R>x<C>.json     — thermal indices per (exp, grid)

The run directory is the record. :func:`publish_run` writes the
payload, the sidecar and ``entry.json`` into a hidden temp dir under
``runs/`` and publishes it with one ``rename``; it is the whole of
:meth:`ResultStore.save` on disk, and what a pool worker runs to save.
Renaming onto a non-empty directory fails, so when two processes save
one key the filesystem picks the winner: it is charged with the unit
(:attr:`ResultStore.last_save_charged`) and the other discards its
identical copy (a save of a *different* payload under the key
replaces the published one). The in-memory index is only a read
cache, built on open from ``runs/`` and ``failures/``;
:meth:`ResultStore.has` checks the payload on disk, so a save by
another instance is visible at once. A complete run dir always wins
over a failure file.

A key holds the simulation of its own spec and nothing else: no stored
run serves another key, not even one that differs only in a shorter
``duration_s``. ``entry.json`` files written by earlier versions also
carry ``v``, ``duration_s`` and ``prefix`` fields; they are read like
any other entry, and the fields are ignored.

A store has one driver, and its pool workers publish run dirs into it
too (they never open it, so none builds the read cache). Nothing stops
a second driver, and nothing needs to: the rename above keeps a key
saved by two processes published and charged once, so a second driver
duplicates work but cannot corrupt the store. The work-claim and
liveness dirs that older multi-driver versions kept beside ``runs/``,
the sibling store they wrote results to while this one failed, the
``checkpoints/`` dir of mid-run engine snapshots that older versions
resumed from, and the ``quarantine/`` dir of keys older versions
stopped trying are ignored, not refused: they hold no result the store
needs, and a key with no run dir is simulated again from tick 0. (An
older version wrote a quarantined key's ``failures/`` record beside its
quarantine record, so such a key reads as a plain failure.)

Every small file is written through :func:`atomic_write` (temp file +
``os.replace``), so a reader sees the old file or the new one, never a
torn mix.

Durability: nothing is fsynced. A save survives a process kill at any
point — an unpublished temp dir is not a record, and an open sweeps
old ones — but not a host crash, which can leave published files
empty or short. The payload's preamble declares its size, and ``has``
treats a payload of any other size (or an empty ``entry.json``) as
absent, so such a run is recomputed instead of served. A run dir saved
by earlier versions (the CSV files, or the three ``.npy`` + JSON payload
files) lacks ``result.bin``, so it reads as absent too, and the next
save of its key replaces it.

Stores in an older layout (a sharded ``index/`` + ``journal/`` with
``store.json``, or a monolithic ``index.json`` + ``journal.jsonl``) are
refused, not migrated: results are deterministic, so a fresh store
recomputes them.

Thermal indices (the per-(exp, grid) steady-state characterization that
every run on the same stack shares) are persisted here too, so repeated
campaigns and worker processes never redo the solve.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.analysis.result_io import (
    PAYLOAD_SUFFIX,
    load_result,
    payload_complete,
    save_result,
)
from repro.analysis.runner import RunSpec
from repro.campaign.faults import inject_fault
from repro.campaign.spec import run_key, spec_from_dict, spec_to_dict
from repro.errors import ConfigurationError
from repro.sched.engine import SimulationResult

STATUS_OK = "ok"
STATUS_ERROR = "error"

#: Age beyond which a hidden temp dir under ``runs/`` is presumed
#: abandoned and swept on open; a save in flight is far younger.
_TEMP_STALE_S = 60.0

_ENTRY = "entry.json"

#: Stem of the saved result inside a run dir, and the payload file its
#: save writes (result_io decides the format).
_RESULT = "result"
_PAYLOAD = _RESULT + PAYLOAD_SUFFIX

#: Files every published run dir holds (see :func:`_complete`).
_RUN_FILES = (_ENTRY, _PAYLOAD)

#: Top-level names of retired store layouts; a root holding any of
#: them is refused on open.
_OLD_LAYOUT = ("store.json", "index", "journal", "index.json",
               "journal.jsonl")


def atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file in the same dir.

    The temp file is published with ``os.replace``, so readers see the
    old content or the new, never a torn file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, str(path))
    finally:
        _unlink(Path(tmp))


def _unlink(path: Path) -> None:
    try:
        path.unlink()
    except FileNotFoundError:
        pass


def _listdir(path: Path) -> List[str]:
    try:
        return sorted(os.listdir(path))
    except (FileNotFoundError, NotADirectoryError):
        return []


def _read_json(path: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """A JSON object file's content, or None if missing or unreadable."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _complete(run_dir: str) -> bool:
    """Whether ``run_dir`` (with a trailing separator) holds a non-empty
    ``entry.json`` and a payload of exactly the size its preamble
    declares, so a torn save or a manually pruned run dir reads as
    absent instead of surfacing a broken load later."""
    try:
        if os.stat(run_dir + _ENTRY).st_size == 0:
            return False
    except OSError:
        return False
    return payload_complete(run_dir + _PAYLOAD)


def _ok_entry(spec: RunSpec) -> Dict[str, Any]:
    return {"status": STATUS_OK, "spec": spec_to_dict(spec)}


def _failure_path(root: Path, key: str) -> Path:
    return root / "failures" / f"{key}.json"


def publish_run(
    root: Union[str, Path], spec: RunSpec, result: SimulationResult
) -> Tuple[str, bool]:
    """Save one completed run under store ``root``; ``(key, charged)``.

    The on-disk half of :meth:`ResultStore.save`, and all that a pool
    worker runs to save: the payload, the telemetry sidecar and
    ``entry.json`` are written into a hidden temp dir under ``runs/``,
    one rename publishes it, and the key's failure record is dropped.
    ``charged`` is whether this call won the rename. It opens no store:
    nothing lists ``runs/`` or reads another run's record, so a worker
    never builds the read cache. Raises ``OSError`` when the backing
    filesystem fails.
    """
    root = Path(root)
    runs = root / "runs"
    key = run_key(spec)
    runs.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=str(runs), prefix=f".{key}-"))
    try:
        save_result(result, tmp / _RESULT)
        if result.telemetry is not None:
            # Optional sidecar, deliberately NOT in _RUN_FILES: a
            # run saved without telemetry must still read as present.
            (tmp / "telemetry.json").write_text(
                json.dumps(result.telemetry, indent=2, sort_keys=True)
                + "\n"
            )
        (tmp / _ENTRY).write_text(
            json.dumps(_ok_entry(spec), sort_keys=True))
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    # Injected faults: a crash or a hang here dies between the written
    # temp dir and its rename; corrupt_payload is a save torn by a host
    # crash, its payload file published empty.
    fault = inject_fault("payload_save", key)
    if fault is not None and fault.action == "corrupt_payload":
        (tmp / _PAYLOAD).write_text("")
    charged = _publish(runs, tmp, key)
    _unlink(_failure_path(root, key))
    return key, charged


def _publish(runs: Path, tmp: Path, key: str) -> bool:
    """Rename a finished temp dir to ``runs/<key>``; True if it won.

    The rename fails when ``runs/<key>`` is a non-empty directory, so
    of several processes saving one key exactly one wins; the rest
    discard their copies, which hold the same deterministic result.
    A published dir with an incomplete payload (a torn save), or with a
    different one (a deliberate overwrite of the key), is retired and
    the rename retried.
    """
    published = runs / key
    while True:
        try:
            os.rename(tmp, published)
            return True
        except OSError as exc:
            if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST):
                shutil.rmtree(tmp, ignore_errors=True)
                raise
        if _complete(f"{published}/") and _same_record(tmp, published):
            shutil.rmtree(tmp, ignore_errors=True)
            return False
        _retire(runs, key)


def _same_record(tmp: Path, published: Path) -> bool:
    """Whether ``tmp`` holds byte-identical run files to ``published``.

    The telemetry sidecar is left out: it carries wall-clock timings,
    so two processes computing one unit never agree on it.
    """
    try:
        return all((tmp / name).read_bytes()
                   == (published / name).read_bytes()
                   for name in _RUN_FILES)
    except OSError:
        return False  # retired under us; the next rename decides


def _retire(runs: Path, key: str) -> None:
    """Unpublish ``runs/<key>`` with one rename, then delete it.

    The hidden name it is moved to is swept by a later open if this
    process dies mid-delete.
    """
    trash = runs / f".{key}-{os.urandom(4).hex()}.old"
    try:
        os.rename(runs / key, trash)
    except FileNotFoundError:
        return
    shutil.rmtree(trash, ignore_errors=True)


def _refuse_old_layout(root: Path) -> None:
    for name in _OLD_LAYOUT:
        path = root / name
        if path.exists():
            raise ConfigurationError(
                f"{path} belongs to a retired result-store layout that "
                "this version does not read; start a fresh store (a new "
                "--store directory, or delete this one). Results are "
                "deterministic, so the fresh store recomputes them."
            )


class ResultStore:
    """Persistent map from run key to saved result (or failure record)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        _refuse_old_layout(self.root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._runs = self.root / "runs"
        # Whether the most recent save() published its run dir (won the
        # rename) and so is charged with the unit; True between saves.
        self.last_save_charged = True
        # The read cache, built from ``runs/`` and ``failures/``.
        self._index: Dict[str, Dict[str, Any]] = {}
        for key in _listdir(self._runs):
            if not key.startswith("."):
                entry = _read_json(f"{self._runs}/{key}/{_ENTRY}")
                if entry is not None:
                    self._index[key] = entry
        failures = self.root / "failures"
        for name in _listdir(failures):
            key = name[: -len(".json")]
            if name.endswith(".json") and key not in self._index:
                entry = _read_json(failures / name)
                if entry is not None:
                    self._index[key] = entry
        self._sweep_temp_dirs()

    def _sweep_temp_dirs(self) -> None:
        """Remove hidden temp dirs under ``runs/`` older than a minute.

        They are saves that died before publishing and retired dirs
        whose delete died; neither is a record. A younger one may be a
        save in flight in another process, so it is left alone.
        """
        now = time.time()
        for name in _listdir(self._runs):
            if not name.startswith("."):
                continue
            path = self._runs / name
            try:
                if now - path.stat().st_mtime > _TEMP_STALE_S:
                    shutil.rmtree(path, ignore_errors=True)
            except OSError:
                continue

    # ------------------------------------------------------------------
    # read cache

    def keys(self) -> List[str]:
        """Every recorded run key (both ok and error entries)."""
        return list(self._index)

    def entry(self, key: str) -> Optional[Dict[str, Any]]:
        """The cached record for ``key``, or None."""
        return self._index.get(key)

    # ------------------------------------------------------------------
    # results

    def _run_dir(self, key: str) -> Path:
        return self._runs / key

    def has(self, key: str) -> bool:
        """Whether ``key`` holds a complete, loadable run on disk.

        ``entry.json`` must be non-empty and the payload exactly the
        size its preamble declares: a run dir torn by a host crash,
        pruned by hand, or published incomplete reads as absent, so the
        campaign re-runs the spec instead of failing at load time. A
        complete run saved by another store instance is adopted into
        this one's cache.
        """
        if not _complete(f"{self._runs}/{key}/"):
            return False
        entry = self._index.get(key)
        if entry is None or entry.get("status") != STATUS_OK:
            entry = _read_json(self._run_dir(key) / _ENTRY)
            if entry is None:
                return False
            self._index[key] = entry
        return True

    def save(self, spec: RunSpec, result: SimulationResult) -> str:
        """Persist one completed run; returns its key.

        :func:`publish_run` writes it; besides the payload,
        ``entry.json`` records the status and the spec. Sets
        :attr:`last_save_charged` to whether this call published the
        run dir. Raises ``OSError`` when the backing filesystem fails.
        """
        key, self.last_save_charged = publish_run(self.root, spec, result)
        self.note_saved(key, spec)
        return key

    def note_saved(self, key: str, spec: RunSpec) -> None:
        """Cache the record of a run :func:`publish_run` saved.

        :meth:`save` calls it, and so does the executor for each run a
        pool worker saved, so the read cache (:meth:`keys`,
        :meth:`failures`, ...) stays current without reading the disk.
        """
        self._index[key] = _ok_entry(spec)

    def record_failure(self, spec: RunSpec, error: str) -> str:
        """Record a failed run without a result payload; returns its key.

        A complete run dir of the key wins: the failure is then not
        recorded. Any incomplete payload of a torn save is removed, so
        the failure record and the run dirs stay consistent.
        """
        key = run_key(spec)
        if self.has(key):
            return key
        _retire(self._runs, key)
        entry = {
            "status": STATUS_ERROR,
            "spec": spec_to_dict(spec),
            "error": error,
        }
        atomic_write(_failure_path(self.root, key),
                     json.dumps(entry, sort_keys=True))
        self._index[key] = entry
        return key

    def load(self, key: str) -> SimulationResult:
        """Reload the result saved under ``key``.

        If the run was saved with telemetry, the ``telemetry.json``
        sidecar is re-attached to the returned result.
        """
        entry = self._index.get(key)
        if (entry is None or entry["status"] != STATUS_OK) \
                and not self.has(key):
            if entry is None:
                raise ConfigurationError(f"store has no run {key!r}")
            raise ConfigurationError(
                f"run {key!r} failed: {entry.get('error', 'unknown error')}"
            )
        result = load_result(self._run_dir(key) / _RESULT)
        telemetry = self.load_telemetry(key)
        if telemetry is not None:
            result.telemetry = telemetry
        return result

    def _telemetry_path(self, key: str) -> Path:
        return self._run_dir(key) / "telemetry.json"

    def has_telemetry(self, key: str) -> bool:
        """Whether ``key`` holds a telemetry sidecar."""
        return self._telemetry_path(key).exists()

    def load_telemetry(self, key: str) -> Optional[Dict[str, Any]]:
        """The telemetry snapshot saved with ``key``, or None.

        The sidecar is outside ``_RUN_FILES``, so a host crash can leave
        it empty in a present run; an unreadable one counts as none.
        """
        return _read_json(self._telemetry_path(key))

    def load_spec(self, key: str) -> RunSpec:
        """Reconstruct the RunSpec recorded for ``key``."""
        entry = self._index.get(key)
        if entry is None and self.has(key):
            entry = self._index[key]
        if entry is None:
            raise ConfigurationError(f"store has no run {key!r}")
        return spec_from_dict(entry["spec"])

    def discard(self, key: str) -> None:
        """Drop a key's run and failure record (e.g. to force a re-run)."""
        self._index.pop(key, None)
        _retire(self._runs, key)
        _unlink(_failure_path(self.root, key))

    def query(
        self,
        exp_id: Optional[int] = None,
        policy: Optional[str] = None,
        with_dpm: Optional[bool] = None,
        status: Optional[str] = None,
    ) -> List[str]:
        """Keys whose spec matches every given filter, insertion order."""
        matches: List[str] = []
        for key, entry in self._index.items():
            spec = entry["spec"]
            if exp_id is not None and spec["exp_id"] != exp_id:
                continue
            if policy is not None and spec["policy"] != policy:
                continue
            if with_dpm is not None and spec["with_dpm"] != with_dpm:
                continue
            if status is not None and entry["status"] != status:
                continue
            matches.append(key)
        return matches

    def failures(self) -> Dict[str, str]:
        """Key -> error text for every failed entry."""
        return {
            key: entry.get("error", "")
            for key, entry in self._index.items()
            if entry["status"] == STATUS_ERROR
        }

    # ------------------------------------------------------------------
    # cumulative resilience tally (read by `campaign report`)

    def _resilience_path(self) -> Path:
        return self.root / "resilience.json"

    def resilience_tally(self) -> Dict[str, int]:
        """Lifetime resilience counters merged over every campaign."""
        data = _read_json(self._resilience_path()) or {}
        return {
            str(name): int(value)
            for name, value in data.items()
            if isinstance(value, (int, float))
        }

    def record_resilience(self, tally: Dict[str, int]) -> None:
        """Merge one campaign's resilience counters into the store."""
        merged = self.resilience_tally()
        for name, value in tally.items():
            merged[name] = merged.get(name, 0) + int(value)
        atomic_write(self._resilience_path(),
                     json.dumps(merged, indent=2, sort_keys=True) + "\n")

    # ------------------------------------------------------------------
    # thermal indices (shared per (exp_id, grid) characterization)

    def _indices_path(self, exp_id: int, grid: Tuple[int, int]) -> Path:
        return self.root / "indices" / f"exp{exp_id}_{grid[0]}x{grid[1]}.json"

    def save_thermal_indices(
        self, exp_id: int, grid: Tuple[int, int], indices: Dict[str, float]
    ) -> None:
        """Persist a (exp_id, grid) thermal-index characterization."""
        atomic_write(self._indices_path(exp_id, grid),
                     json.dumps(indices, indent=2, sort_keys=True) + "\n")

    def load_thermal_indices(
        self, exp_id: int, grid: Tuple[int, int]
    ) -> Optional[Dict[str, float]]:
        """The stored characterization, or None if absent or unreadable."""
        data = _read_json(self._indices_path(exp_id, grid))
        if data is None:
            return None
        return {str(name): float(value) for name, value in data.items()}
