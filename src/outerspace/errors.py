"""Exception hierarchy shared across the package.

Each class corresponds to one CLI exit code, so commands can map failures
uniformly (see cli.py).
"""


class OuterspaceError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InvalidInputError(OuterspaceError):
    """Malformed or inconsistent input data (exit code 2)."""

    exit_code = 2


class RankMismatchError(OuterspaceError):
    """Operands live in free groups of different ranks (exit code 3)."""

    exit_code = 3


class BudgetExhaustedError(OuterspaceError):
    """An enumeration or iteration budget ran out (exit code 4).

    Carries the exact partial result: the optimizer's best map with its
    stretch and certified target, bounded cancellation's lower bound, or the
    fold's `FoldingPath` up to its last event.
    """

    exit_code = 4

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InternalInvariantError(OuterspaceError):
    """A computation-time invariant failed; indicates bad deep input or a bug
    (exit code 5)."""

    exit_code = 5
