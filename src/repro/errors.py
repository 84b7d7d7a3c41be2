"""Exception hierarchy for the TagMatch reproduction.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch a single base class at their outermost layer while
still being able to discriminate failures from individual subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (bad width, empty tag set, ...)."""


class ConsolidationError(ReproError):
    """The engine could not (re)build its index.

    Raised, for example, when ``match`` is called before ``consolidate``
    or when the staged database is empty.
    """


class DeviceError(ReproError):
    """A simulated GPU device operation failed."""


class CapacityError(DeviceError):
    """A device memory allocation exceeded the configured capacity."""


class WorkloadError(ReproError):
    """Workload generation was asked for something inconsistent."""
