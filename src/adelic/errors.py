"""Exception types shared across the package."""

from __future__ import annotations

import re


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class CapacityError(RuntimeError):
    """Raised when a computation would exceed a hard enumeration or term cap."""


class PoleError(ValidationError):
    """Raised when a meromorphic quantity is evaluated at one of its poles."""


class SectionZeroError(ValidationError):
    """Raised when a section vanishes at the point where a norm is needed.

    Carries the offending place in ``place`` so callers can report it.
    """

    def __init__(self, message: str, place=None):
        super().__init__(message)
        self.place = place


class QuadratureError(RuntimeError):
    """Raised when numerical integration cannot meet the requested
    tolerance.  Carries the error estimate actually achieved."""

    def __init__(self, message: str, achieved: float = float("nan")):
        super().__init__(message)
        self.achieved = achieved


def brief(x) -> str:
    """``str(x)`` with every run of more than 30 digits replaced by its
    digit count, so a refusal of a huge request stays one short line."""
    return re.sub(r"\d{31,}", lambda m: f"<{len(m.group())} digits>", str(x))
