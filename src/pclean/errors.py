"""Exception types shared across the package."""

from __future__ import annotations


class PcleanError(Exception):
    """Base class for all library errors."""


class MalformedSpec(PcleanError):
    """A ring descriptor or element literal could not be parsed."""

    def __init__(self, message: str, offset: int | None = None):
        self.reason = message
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class OrderLimitExceeded(PcleanError):
    """The described ring is larger than the configured materialization limit."""


class RingTooLarge(PcleanError):
    """An exhaustive operation was requested on a ring beyond its size guard."""


class MixedRingOperands(PcleanError):
    """Matrices over two different rings were combined."""


class RadicalNotIdeal(PcleanError):
    """The collected strongly nilpotent elements failed ideal closure (bug trap)."""


class NotLiftable(PcleanError):
    """a - a^2 is not nilpotent, so no idempotent lift exists."""


class NotCommutative(PcleanError):
    """Operation requires a commutative base ring."""


class NotLocal(PcleanError):
    """Operation requires a local base ring."""


class CriterionMismatch(PcleanError):
    """The three 2x2 cleanness criteria disagreed (bug trap)."""


class TrivialIdempotent(PcleanError):
    """Diagonalization requested for an idempotent equal to 0 or the identity."""


class NotInvertible(PcleanError):
    """A ring element required to be a unit is not one."""


class PreconditionFailed(PcleanError):
    """An operation's stated precondition does not hold for the inputs."""


class HypothesisViolated(PcleanError):
    """The base ring does not satisfy the hypotheses of the requested criterion."""


class UnknownTheoremId(PcleanError):
    """verify() was asked for a theorem id that is not registered."""
