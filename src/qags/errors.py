"""Exception types raised by the qags package."""

from __future__ import annotations

import numbers


class QagsError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(QagsError, ValueError):
    """An argument violates a documented precondition."""


class OffGridError(QagsError, ValueError):
    """A point does not coincide with any lattice coordinate."""


class EvaluationError(QagsError, RuntimeError):
    """An objective returned a non-finite value.

    Carries the offending point so callers can report where the
    objective broke down.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class RefinementError(QagsError, RuntimeError):
    """Local refinement failed; carries the last feasible iterate."""

    def __init__(self, message, last_point=None):
        super().__init__(message)
        self.last_point = last_point


def _check_integer(name, value, least):
    """Raise InvalidInputError unless value is an integer
    (``numbers.Integral``) of at least ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        bound = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise InvalidInputError(f"{name} must be {bound}")
