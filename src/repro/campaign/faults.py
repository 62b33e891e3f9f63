"""Deterministic fault injection for campaign chaos testing.

A :class:`FaultPlan` is a seeded list of faults, each bound to an
injection *point* and (optionally) a run key.  The plan is published to
worker and driver processes through two environment variables:

``REPRO_FAULT_PLAN``
    path to the JSON-serialized plan
``REPRO_FAULT_STATE``
    directory holding fire-once marker files (defaults to
    ``<plan path>.state``)

Injection points:

``worker_run``
    fires inside a pool worker (``executor._simulate``) before the
    simulation starts; supports ``crash`` (``os._exit``) and
    ``hang`` (sleep until the watchdog kills the worker)
``payload_save``
    fires inside ``publish_run`` (every store save, in the process that
    saves: a pool worker, or the driver on the serial backend) after
    the run's temp dir is written and before the rename publishes it.
    ``crash`` and ``hang`` kill or wedge that process mid-publish: the
    temp dir is left behind as a hidden dir, which is not a record,
    and the retried unit publishes the key. ``corrupt_payload``
    empties one payload file, so the published run reads as absent —
    a save torn by a host crash. On the serial backend ``crash`` and
    ``hang`` take the driver down with them

Faults are **fire-once by default** (``times`` raises the budget): a
marker file is claimed with ``O_CREAT | O_EXCL`` *before* the fault
acts, so a retried unit does not re-trigger the same fault and chaos
campaigns converge.  Marker claiming is atomic across processes, which
makes plans deterministic for a serial campaign and merely bounded
(each fault fires at most ``times`` times) across pool workers.

Everything here is stdlib-only and imports nothing from the rest of
the package, so the store and executor can call into it without
layering cycles.  With no plan in the environment every hook is a
cached no-op.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "claim_fault",
    "inject_fault",
    "reset_fault_cache",
]

ENV_PLAN = "REPRO_FAULT_PLAN"
ENV_STATE = "REPRO_FAULT_STATE"

#: exit code used by injected worker crashes (diagnosable in CI logs)
CRASH_EXIT_CODE = 86

_ACTIONS = frozenset({"crash", "hang", "corrupt_payload"})
_POINTS = frozenset({"worker_run", "payload_save"})


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault."""

    fault_id: str
    point: str
    action: str
    key: str = "*"  # run key or key prefix; "*" matches any run
    times: int = 1  # firing budget before the fault is spent
    hang_s: float = 3600.0  # sleep length for the ``hang`` action

    def __post_init__(self) -> None:
        if self.point not in _POINTS:
            raise ValueError(f"unknown fault point {self.point!r}")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.times < 1:
            raise ValueError("fault times must be >= 1")

    def matches(self, point: str, key: str) -> bool:
        if point != self.point:
            return False
        return self.key == "*" or key.startswith(self.key)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable collection of faults."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "seed": self.seed,
            "faults": [
                {
                    "fault_id": f.fault_id,
                    "point": f.point,
                    "action": f.action,
                    "key": f.key,
                    "times": f.times,
                    "hang_s": f.hang_s,
                }
                for f in self.faults
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        faults = tuple(
            FaultSpec(
                fault_id=str(entry["fault_id"]),
                point=str(entry["point"]),
                action=str(entry["action"]),
                key=str(entry.get("key", "*")),
                times=int(entry.get("times", 1)),
                hang_s=float(entry.get("hang_s", 3600.0)),
            )
            for entry in data.get("faults", ())
        )
        return cls(seed=int(data.get("seed", 0)), faults=faults)

    def save(self, path: Path | str) -> Path:
        """Write the plan JSON and return the path to export via env."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Path | str) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text(
            encoding="utf-8")))


class FaultInjector:
    """Claims and executes faults against a shared marker directory."""

    __slots__ = ("plan", "state_dir")

    def __init__(self, plan: FaultPlan, state_dir: Path) -> None:
        self.plan = plan
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)

    def claim(self, point: str, key: str) -> Optional[FaultSpec]:
        """Atomically claim one firing of the first matching live fault.

        Returns the claimed spec, or ``None`` when no fault applies or
        every matching fault has spent its budget.  The marker file is
        created *before* the caller acts, so crash/hang faults are not
        re-triggered by the retry they provoke.
        """
        for spec in self.plan.faults:
            if not spec.matches(point, key):
                continue
            for firing in range(spec.times):
                marker = self.state_dir / f"{spec.fault_id}.{firing}"
                try:
                    fd = os.open(str(marker),
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    continue  # this firing already happened
                os.close(fd)
                return spec
        return None


# ---------------------------------------------------------------------------
# process-wide lazy hook (reads the environment once per process)
# ---------------------------------------------------------------------------

_INJECTOR: Optional[FaultInjector] = None
_LOADED = False


def _injector() -> Optional[FaultInjector]:
    global _INJECTOR, _LOADED
    if not _LOADED:
        _LOADED = True
        plan_path = os.environ.get(ENV_PLAN)
        if plan_path:
            state_dir = os.environ.get(ENV_STATE) or plan_path + ".state"
            _INJECTOR = FaultInjector(FaultPlan.load(plan_path),
                                      Path(state_dir))
    return _INJECTOR


def reset_fault_cache() -> None:
    """Drop the cached injector so the environment is re-read.

    Called by worker initializers (a pool may outlive an env change in
    the driver) and by tests that install a plan mid-process.
    """
    global _INJECTOR, _LOADED
    _INJECTOR = None
    _LOADED = False


def claim_fault(point: str, key: str = "*") -> Optional[FaultSpec]:
    """Claim a matching fault firing; ``None`` when faults are disabled.

    The caller is responsible for *acting* on the returned spec.
    """
    inj = _injector()
    if inj is None:
        return None
    return inj.claim(point, key)


def inject_fault(point: str, key: str = "*") -> Optional[FaultSpec]:
    """Claim a matching fault and act on ``crash`` and ``hang`` here.

    Any other claimed fault is returned for the caller to act on: the
    store implements ``corrupt_payload`` itself because only it knows
    the paths. ``None`` when no fault fires.
    """
    spec = claim_fault(point, key)
    if spec is None:
        return None
    if spec.action == "crash":
        # os._exit skips interpreter teardown, exactly like a SIGKILLed
        # or OOM-killed worker; the parent sees BrokenProcessPool.
        os._exit(CRASH_EXIT_CODE)
    if spec.action == "hang":
        time.sleep(spec.hang_s)
        return None
    return spec
