"""The paper's Table I: workload characteristics of the eight benchmarks.

Utilization is the average over all cores for the half-hour profiling
run; L2 instruction/data misses and floating-point instructions are per
100K instructions (collected with cpustat on the real T1).

``memory_intensity`` and ``burstiness`` are derived modeling parameters:

- memory intensity normalizes total L2 traffic against the most
  memory-bound benchmark (Web-high), and feeds the cache/crossbar power
  scaling,
- burstiness encodes the arrival pattern: interactive server loads
  (SLAMD web serving) come in request bursts, batch jobs (gcc, gzip) are
  steadier. It controls the think-time modulation of the synthetic
  generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import WorkloadError


@dataclass(frozen=True)
class BenchmarkSpec:
    """Published statistics and derived parameters for one benchmark.

    Attributes
    ----------
    name:
        Table I benchmark name.
    avg_util_pct:
        Average per-core utilization over the run, percent.
    l2_imiss, l2_dmiss:
        L2 instruction/data misses per 100K instructions.
    fp_per_100k:
        Floating-point instructions per 100K instructions.
    burstiness:
        Arrival burstiness in [0, 1] (0 = steady batch arrivals).
    mean_busy_s:
        Mean CPU demand of one job in seconds (at nominal frequency).

    ``memory_intensity`` and ``mean_think_s`` are derived once, at
    construction, and read as plain attributes: the engine reads the
    first at every queue-head change and the generator the second at
    every arrival. They are not fields, so equality, hashing and
    ``repr`` still cover the published statistics only.
    """

    name: str
    avg_util_pct: float
    l2_imiss: float
    l2_dmiss: float
    fp_per_100k: float
    burstiness: float
    mean_busy_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.avg_util_pct <= 100.0:
            raise WorkloadError(
                f"{self.name}: avg utilization must be in (0,100], "
                f"got {self.avg_util_pct}"
            )
        if not 0.0 <= self.burstiness <= 1.0:
            raise WorkloadError(f"{self.name}: burstiness must be in [0,1]")
        if not 0.0 < self.mean_busy_s < math.inf:
            raise WorkloadError(
                f"{self.name}: mean busy time must be positive and finite, "
                f"got {self.mean_busy_s}"
            )
        # Counts feed the cache and crossbar power: a negative or
        # non-finite one would price power below the idle baseline (or
        # read as full intensity, since min(1.0, nan) is 1.0).
        for label, count in (
            ("l2_imiss", self.l2_imiss),
            ("l2_dmiss", self.l2_dmiss),
            ("fp_per_100k", self.fp_per_100k),
        ):
            if not 0.0 <= count < math.inf:
                raise WorkloadError(
                    f"{self.name}: {label} must be a finite count >= 0, "
                    f"got {count}"
                )
        # L2 traffic normalized to the most memory-bound benchmark.
        object.__setattr__(
            self, "memory_intensity",
            min(1.0, self.l2_traffic / _MAX_L2_TRAFFIC),
        )
        # Mean think time so busy/(busy+think) matches the target
        # utilization in an uncontended closed loop.
        u = self.utilization
        object.__setattr__(
            self, "mean_think_s", self.mean_busy_s * (1.0 - u) / u
        )

    @property
    def utilization(self) -> float:
        """Average utilization as a fraction in (0, 1]."""
        return self.avg_util_pct / 100.0

    @property
    def l2_traffic(self) -> float:
        """Total L2 misses per 100K instructions."""
        return self.l2_imiss + self.l2_dmiss


# Normalization constant: Web-high's 67.6 + 288.7 misses per 100K.
_MAX_L2_TRAFFIC = 356.3

# Table I rows. Busy-time means: interactive request handlers are short
# (hundreds of ms); batch compiler/compression phases run longer.
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        BenchmarkSpec("Web-med", 53.12, 12.9, 167.7, 31.2, 0.6, 0.3),
        BenchmarkSpec("Web-high", 92.87, 67.6, 288.7, 31.2, 0.5, 0.3),
        BenchmarkSpec("Database", 17.75, 6.5, 102.3, 5.9, 0.4, 0.5),
        BenchmarkSpec("Web&DB", 75.12, 21.5, 115.3, 24.1, 0.5, 0.4),
        BenchmarkSpec("gcc", 15.25, 31.7, 96.2, 18.1, 0.1, 1.5),
        BenchmarkSpec("gzip", 9.0, 2.0, 57.0, 0.2, 0.1, 1.2),
        BenchmarkSpec("MPlayer", 6.5, 9.6, 136.0, 1.0, 0.2, 0.2),
        BenchmarkSpec("MPlayer&Web", 26.62, 9.1, 66.8, 29.9, 0.4, 0.3),
    )
}


def benchmark(name: str) -> BenchmarkSpec:
    """Look up a Table I benchmark by name."""
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown benchmark {name!r}; known: {sorted(BENCHMARKS)}"
        ) from None


def benchmark_names() -> List[str]:
    """Benchmark names in Table I order."""
    return list(BENCHMARKS)


def _expand_weights(
    weights: List[Tuple[str, int]], n_threads: int
) -> List[Tuple[BenchmarkSpec, int]]:
    """Scale a weighted benchmark list to an exact thread count."""
    if n_threads < 1:
        raise WorkloadError("mix needs at least one thread")
    total = sum(w for _, w in weights)
    counts = [max(0, round(n_threads * w / total)) for _, w in weights]
    # Fix rounding drift by adjusting the largest class.
    drift = n_threads - sum(counts)
    counts[0] += drift
    return [
        (benchmark(name), count)
        for (name, _), count in zip(weights, counts)
        if count > 0
    ]


#: Named workload-mix scenarios for campaign sweeps (the weights of the
#: ``server`` mix are the historical :func:`default_server_mix` ones).
#: Each entry is a weighted benchmark list scaled to the chip's thread
#: count at run time, so one name covers every EXP stack.
NAMED_MIXES: Dict[str, List[Tuple[str, int]]] = {
    "server": [
        ("Web-high", 3),
        ("Web&DB", 2),
        ("Web-med", 1),
        ("Database", 1),
        ("MPlayer&Web", 1),
    ],
    "web_heavy": [
        ("Web-high", 4),
        ("Web-med", 2),
        ("Web&DB", 2),
    ],
    "batch_compute": [
        ("gcc", 3),
        ("gzip", 2),
        ("Database", 1),
    ],
    "multimedia": [
        ("MPlayer", 3),
        ("MPlayer&Web", 2),
        ("Web-med", 1),
    ],
}


def mix_names() -> List[str]:
    """Known named workload mixes."""
    return list(NAMED_MIXES)


def named_mix(name: str, n_threads: int) -> List[Tuple[BenchmarkSpec, int]]:
    """Expand a named workload-mix scenario to ``n_threads`` threads."""
    try:
        weights = NAMED_MIXES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload mix {name!r}; known: {sorted(NAMED_MIXES)}"
        ) from None
    return _expand_weights(weights, n_threads)


def default_server_mix(n_threads: int) -> List[Tuple[BenchmarkSpec, int]]:
    """A representative consolidated-server mix for ``n_threads`` threads.

    Weighted toward the web/database loads that dominate the paper's
    motivation (a typical server), with a tail of batch and multimedia
    threads. Used by the figure-regeneration benches. Equivalent to
    ``named_mix("server", n_threads)``.
    """
    return _expand_weights(NAMED_MIXES["server"], n_threads)
