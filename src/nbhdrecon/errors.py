"""Exception types shared across the package."""


class NbhdReconError(Exception):
    """Base class for all errors raised by this package."""


class InputError(NbhdReconError, ValueError):
    """An argument violates a documented precondition."""


class FormatError(InputError):
    """Malformed serialized input (graph6, JSON, ...).

    ``position`` is a byte/character offset into the input when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ResourceLimitError(NbhdReconError):
    """An operation would exceed a configured size ceiling."""


class UnsupportedSizeError(NbhdReconError):
    """The instance is larger than this implementation supports."""


class UnrealizableFamilyError(NbhdReconError):
    """A set family cannot be the named invariant of any graph.

    Only :func:`~nbhdrecon.reconstruct.quotient_family` raises it, for a
    member that is not a union of twin classes.  No reconstruction entry
    point catches it: they reach an infeasible verdict without it.
    """


class VerificationError(NbhdReconError):
    """An exhaustive verification sweep found a counterexample."""
