"""Exception hierarchy for cooprob.

Every error raised by the library derives from :class:`CooprobError` so
callers can catch the whole family at once. Validation and domain errors
additionally derive from ``ValueError`` to stay friendly to generic code.
"""

from __future__ import annotations

from . import _EXPORTS

__all__ = _EXPORTS["errors"]


class CooprobError(Exception):
    """Base class for all cooprob errors."""


class InvalidTableError(CooprobError, ValueError):
    """A payoff table contains non-finite or otherwise unusable entries."""


class DomainError(CooprobError, ValueError):
    """An input lies outside the domain of the requested computation.

    The message names the violated bound.
    """


class UnsupportedClassError(CooprobError, ValueError):
    """The requested operation is not defined for the table's game class."""


class DegenerateWeightsError(CooprobError, ArithmeticError):
    """Cooperation and defection weights vanished simultaneously."""


class NoValidRootError(CooprobError, ArithmeticError):
    """No candidate root of the balance polynomial lies in [0, 1]."""


class AmbiguousRootError(CooprobError, ArithmeticError):
    """Several stable candidate roots survive; selection is ambiguous.

    Carries the surviving candidates in ``candidates``.
    """

    def __init__(self, message: str, candidates: tuple[float, ...] = ()):
        super().__init__(message)
        self.candidates = tuple(candidates)


class UndefinedPairError(CooprobError, ValueError):
    """A pairwise game was requested for identical options (i == j)."""


class InternalError(CooprobError, RuntimeError):
    """An invariant that should be provable was violated; signals a bug."""
