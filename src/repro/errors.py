"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FloorplanError(ReproError):
    """A floorplan is geometrically invalid (overlap, out of bounds...)."""


class ThermalModelError(ReproError):
    """The thermal network is ill-formed or a solve failed."""


class PowerModelError(ReproError):
    """A power model was configured or queried inconsistently."""


class WorkloadError(ReproError):
    """A workload trace or job stream is invalid."""


class SchedulerError(ReproError):
    """The scheduling engine was driven into an inconsistent state."""


class PolicyError(ReproError):
    """A DTM policy received inputs it cannot act on."""


class ConfigurationError(ReproError):
    """An experiment configuration is incomplete or contradictory."""
