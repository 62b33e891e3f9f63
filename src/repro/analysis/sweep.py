"""Parameter sweeps for the ablation studies."""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

Value = TypeVar("Value")
Result = TypeVar("Result")


def sweep(
    values: Iterable[Value],
    run: Callable[[Value], Result],
    executor: Optional["object"] = None,
) -> List[Tuple[Value, Result]]:
    """Run ``run`` for every value and collect (value, result) pairs.

    Delegates to the campaign executor so every sweep in the ablation
    benches shares one execution idiom. The default is the in-process
    serial backend (identical to the historical behavior); pass a
    parallel :class:`~repro.campaign.executor.CampaignExecutor` to fan
    the sweep out over a process pool — ``run`` and the values must
    then be picklable (module-level function, not a lambda).

    Parallel pools start through the campaign worker initializer with
    the executor runner's caches (thermal indices, assemblies, power
    models); a ``run`` that simulates should build its engines via
    :func:`repro.campaign.worker_runner` to reuse them instead of
    rebuilding them per process. Call ``runner.prepare`` on the
    sweep's specs first to have their operators built once, in the
    driver.
    """
    from repro.campaign.executor import CampaignExecutor

    if executor is None:
        executor = CampaignExecutor(backend="serial")
    values = list(values)
    return list(zip(values, executor.map(run, values)))
