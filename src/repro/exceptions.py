"""Exception hierarchy for the ``repro`` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError` so that callers can distinguish library failures from
programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, sign, or shape)."""


class ConfigurationError(ReproError):
    """A workload or platform configuration is inconsistent or unsupported."""


class FloorplanError(ReproError):
    """A floorplan is malformed (overlapping or out-of-bounds components)."""


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its iteration budget."""


class ThermalEmergencyError(ReproError):
    """The case temperature exceeded ``T_CASE_MAX`` and no actuator remained.

    Raised by the runtime controller only when raising the water flow rate to
    its maximum and lowering the frequency to the minimum QoS-feasible level
    are both insufficient.
    """


class QoSViolationError(ReproError):
    """No configuration of the application satisfies the QoS constraint."""


class MappingError(ReproError):
    """A thread-to-core mapping request cannot be satisfied."""
