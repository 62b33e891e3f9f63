"""Declarative campaign specifications and content-addressed run keys.

A :class:`CampaignSpec` names a cartesian grid over the experiment
axes — stack (EXP-1..4), policy, duration, DPM, seed, thermal grid,
benchmark mix — plus an optional list of explicit
:class:`~repro.analysis.runner.RunSpec` values for runs that do not fit
a grid (e.g. ablation variants with ``policy_params``). ``expand()``
turns it into a deterministic, de-duplicated run list.

``run_key`` maps a ``RunSpec`` to a stable content hash: the key is a
function of the spec's field values only (canonical JSON → SHA-256), so
it is identical across Python sessions, platforms and processes. The
result store addresses runs by this key, which is what makes campaigns
resumable — a re-invoked campaign skips every key already present.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.runner import (
    RunSpec,
    check_duration,
    check_grid,
    check_noise_sigma,
)
from repro.errors import ConfigurationError
from repro.sched.engine import FIDELITY_MODES

# Bump when RunSpec serialization changes incompatibly; stored results
# keyed under an older version are simply recomputed.
# v2: the exponential propagator became the default integrator
# (recorded temperatures changed), and RunSpec gained a field selecting
# the integrator.
# v3: RunSpec gained sensor_noise_sigma and workload_mix, campaign
# grids gained the matching axes, and stores started recording
# duration-less prefix keys for cross-grid prefix caching.
# v4: RunSpec gained the fidelity axis (span-compiled scheduling) and
# the workload generator moved to bulk-drawn exponentials (same
# distribution, different realization per seed), so stored trajectories
# from v3 are not reproducible under v4.
# v5: the fidelity axis gained "event" (event-driven time advance over
# the reduced-order modal thermal stepper); the version fence keeps v4
# stores from ever serving event-fidelity requests they never computed.
# v6: the event modal basis comes from one symmetric eigendecomposition
# of the propagator, which moves event results by up to ~5e-13 K; eager
# results are bit-identical but get new keys with the version.
# v7: event became the default fidelity, and every event path gives one
# result per spec: clock jumps are exact shortcuts (a run's utilization
# and energy no longer depend on where the clock jumped), batched event
# lanes step the serial modal stepper, and resume restores it. Event
# results moved by ~1e-12 K; eager results are bit-identical.
# v8: event ticks, clock jumps and batched event lanes price power with
# the event kernel (one GEMV per run, the leakage polynomial in T),
# which matches the oracle-exact kernel to rounding, so event results
# move at round-off; eager results are bit-identical.
# v9: the exact step became the only thermal integrator and RunSpec lost
# the field selecting it, which changes every serialized spec; results
# are bit-identical.
# v10: a stored result became one framed payload file (result_io format
# 3) in place of three files. Run dirs in the older format read as
# absent and are simulated again, so their keys move with the format;
# results and serialized specs are bit-identical.
KEY_VERSION = 10


def _canonical(value: Any) -> Any:
    """JSON-stable form: tuples become lists, dict keys sort on dump."""
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


_RUNSPEC_FIELDS = tuple(f.name for f in fields(RunSpec))


def spec_to_dict(spec: RunSpec) -> Dict[str, Any]:
    """A JSON-serializable dict capturing every *identity* field.

    ``telemetry`` is excluded: it is purely observational (the engine
    guarantees identical trajectories with it on or off), so it must
    not feed :func:`run_key` — a telemetry-enabled campaign can reuse
    results stored by a plain one and vice versa. Excluding it changed
    no keys and needed no ``KEY_VERSION`` bump.

    Field values are read directly, not through ``dataclasses.asdict``,
    which deep-copies every field: every executor, store and report
    pass hashes each spec, and ``_canonical`` copies the tuples anyway.
    """
    data = {name: _canonical(getattr(spec, name)) for name in _RUNSPEC_FIELDS}
    data.pop("telemetry", None)
    return data


def spec_from_dict(data: Dict[str, Any]) -> RunSpec:
    """Inverse of :func:`spec_to_dict` (tuples restored, fields checked)."""
    known = {f.name for f in fields(RunSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"unknown RunSpec fields: {unknown}")
    kwargs: Dict[str, Any] = dict(data)
    if kwargs.get("benchmark_mix") is not None:
        kwargs["benchmark_mix"] = tuple(
            (name, int(count)) for name, count in kwargs["benchmark_mix"]
        )
    if kwargs.get("policy_params") is not None:
        kwargs["policy_params"] = tuple(
            (name, value) for name, value in kwargs["policy_params"]
        )
    return RunSpec(**kwargs)


def run_key(spec: RunSpec) -> str:
    """Stable content-addressed key for one run.

    ``exp<N>-<policy-slug>-<12 hex digest chars>``: readable prefix for
    humans browsing a store, hash suffix for uniqueness. Purely a
    function of the spec's values — never of object identity, process,
    or insertion order.
    """
    payload = json.dumps(
        {"v": KEY_VERSION, "spec": spec_to_dict(spec)},
        sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    slug = re.sub(r"[^A-Za-z0-9]+", "_", spec.policy).strip("_").lower()
    return f"exp{spec.exp_id}-{slug}-{digest}"


def _as_tuple(value: Union[Sequence[Any], Any]) -> Tuple[Any, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class CampaignSpec:
    """A named cartesian grid of runs plus explicit extras.

    Every axis is a tuple of values; ``expand()`` is their cartesian
    product in axis order (exp_ids outermost, seeds innermost), followed
    by ``extra_runs``. Duplicates are dropped, first occurrence wins.
    ``fidelities`` defaults to ``("event",)``, like ``RunSpec``; list
    ``"eager"`` to run the per-event reference.
    """

    name: str
    exp_ids: Tuple[int, ...] = (3,)
    policies: Tuple[str, ...] = ("Default",)
    durations_s: Tuple[float, ...] = (120.0,)
    dpm: Tuple[bool, ...] = (False,)
    seeds: Tuple[int, ...] = (2009,)
    grids: Tuple[Tuple[int, int], ...] = ((8, 8),)
    benchmark_mixes: Tuple[Optional[Tuple[Tuple[str, int], ...]], ...] = (None,)
    workload_mixes: Tuple[Optional[str], ...] = (None,)
    sensor_noise_sigmas: Tuple[float, ...] = (0.0,)
    fidelities: Tuple[str, ...] = ("event",)
    extra_runs: Tuple[RunSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign needs a name")
        for axis in ("exp_ids", "policies", "durations_s", "dpm", "seeds",
                     "grids", "benchmark_mixes", "workload_mixes",
                     "sensor_noise_sigmas", "fidelities"):
            if not getattr(self, axis):
                raise ConfigurationError(f"campaign axis {axis!r} is empty")
        for fidelity in self.fidelities:
            if fidelity not in FIDELITY_MODES:
                raise ConfigurationError(
                    f"unknown fidelity {fidelity!r}; "
                    f"expected one of {FIDELITY_MODES}"
                )
        # Each extra run checked its own values when it was built.
        object.__setattr__(self, "grids",
                           tuple(check_grid(grid) for grid in self.grids))
        object.__setattr__(self, "durations_s",
                           tuple(check_duration(d) for d in self.durations_s))
        object.__setattr__(self, "sensor_noise_sigmas",
                           tuple(check_noise_sigma(sigma)
                                 for sigma in self.sensor_noise_sigmas))

    # ------------------------------------------------------------------

    def expand_keyed(self) -> List[Tuple[str, RunSpec]]:
        """``(run_key(spec), spec)`` for every run of :meth:`expand`, in
        its order: the keys it hashes to drop duplicates."""
        specs: List[RunSpec] = []
        seen: set = set()
        for exp_id in self.exp_ids:
            for policy in self.policies:
                for duration in self.durations_s:
                    for with_dpm in self.dpm:
                        for grid in self.grids:
                            for mix in self.benchmark_mixes:
                                for wmix in self.workload_mixes:
                                    for noise in self.sensor_noise_sigmas:
                                        for fid in self.fidelities:
                                            for seed in self.seeds:
                                                specs.append(RunSpec(
                                                    exp_id=exp_id,
                                                    policy=policy,
                                                    duration_s=duration,
                                                    with_dpm=with_dpm,
                                                    seed=seed,
                                                    grid=grid,
                                                    benchmark_mix=mix,
                                                    workload_mix=wmix,
                                                    sensor_noise_sigma=noise,
                                                    fidelity=fid,
                                                ))
        specs.extend(self.extra_runs)
        unique: List[Tuple[str, RunSpec]] = []
        for spec in specs:
            key = run_key(spec)
            if key not in seen:
                seen.add(key)
                unique.append((key, spec))
        return unique

    def expand(self) -> List[RunSpec]:
        """The deterministic run list of this campaign."""
        return [spec for _, spec in self.expand_keyed()]

    def keys(self) -> List[str]:
        """Run keys in expansion order."""
        return [key for key, _ in self.expand_keyed()]

    # ------------------------------------------------------------------
    # serialization (the CLI reads campaign specs from JSON files)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "exp_ids": list(self.exp_ids),
            "policies": list(self.policies),
            "durations_s": list(self.durations_s),
            "dpm": list(self.dpm),
            "seeds": list(self.seeds),
            "grids": [list(g) for g in self.grids],
            "benchmark_mixes": [
                None if mix is None else [list(pair) for pair in mix]
                for mix in self.benchmark_mixes
            ],
            "workload_mixes": list(self.workload_mixes),
            "sensor_noise_sigmas": list(self.sensor_noise_sigmas),
            "fidelities": list(self.fidelities),
            "extra_runs": [spec_to_dict(spec) for spec in self.extra_runs],
        }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        if "name" not in data:
            raise ConfigurationError("campaign spec needs a 'name'")
        known = {
            "name", "exp_ids", "policies", "durations_s", "dpm", "seeds",
            "grids", "benchmark_mixes", "workload_mixes",
            "sensor_noise_sigmas", "fidelities", "extra_runs",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"unknown campaign fields: {unknown}")
        kwargs: Dict[str, Any] = {"name": data["name"]}
        for axis in ("exp_ids", "policies", "durations_s", "dpm", "seeds",
                     "grids", "workload_mixes", "sensor_noise_sigmas",
                     "fidelities"):
            if axis in data:
                kwargs[axis] = _as_tuple(data[axis])
        if "benchmark_mixes" in data:
            kwargs["benchmark_mixes"] = tuple(
                None if mix is None
                else tuple((name, int(count)) for name, count in mix)
                for mix in data["benchmark_mixes"]
            )
        if "extra_runs" in data:
            kwargs["extra_runs"] = tuple(
                spec_from_dict(item) for item in data["extra_runs"]
            )
        return cls(**kwargs)

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the spec as a JSON file; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CampaignSpec":
        """Read a spec written by :meth:`to_json` (or by hand)."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"{path}: cannot read campaign spec: {exc}")
        return cls.from_dict(data)
