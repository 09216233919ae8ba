"""Exception hierarchy shared by all knotfish modules.

Two branches matter to callers: InputError (bad data handed to a parser
or constructor; CLI exit code 1) and ComputationError (a computation
refused to proceed or detected an internal inconsistency; exit code 2).
"""


class KnotfishError(Exception):
    pass


class InputError(KnotfishError):
    """The caller supplied malformed or invalid data."""


class ComputationError(KnotfishError):
    """A computation could not be carried out on valid input."""


class PDSyntaxError(InputError):
    """PD-code text does not match the grammar; carries the offset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class GaussSyntaxError(InputError):
    """Gauss-code text does not match the grammar."""


class ValidationError(InputError):
    """A structurally well-formed code fails a diagram invariant."""


class CrossingLimitError(ComputationError):
    """State-sum input exceeds the crossing cap (override to proceed)."""


class ExactnessError(ComputationError):
    """A division that must be exact was not; never rounded over."""


class RadicandError(ComputationError):
    """A square root of a negative quantity was requested."""


class NoIntegerRootError(ComputationError):
    """The unknotting quadratic has no positive integer root."""


class ConditionError(ComputationError):
    """Pseudo-invariant applicability condition violated."""
