"""Error types shared across the library.

Every unbounded search is guarded by an explicit budget; running out raises
BudgetExceededError instead of silently returning a wrong answer.
"""


class ErgocertError(Exception):
    """Base class for all library errors."""


class BudgetExceededError(ErgocertError):
    """A configured work bound (steps, cylinders, segments) was exhausted."""


class PrecisionStallError(ErgocertError):
    """An enclosure straddles a discontinuity and cannot be refined further."""


class UnsupportedPairError(ErgocertError):
    """No exact oracle exists for this (system, observable) pair."""


class NoMassError(ErgocertError):
    """The target ball has measure zero."""


class InputError(ErgocertError):
    """Malformed user input (CLI / JSON)."""
