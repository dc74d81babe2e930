"""Exception types shared across the package.

Every error raised by public entry points derives from NlflowError so the CLI
can map failures onto its exit-code contract (2 = usage/config, 3 = runtime
abort) without string matching.
"""


class NlflowError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(NlflowError):
    """A scalar parameter is outside its admissible range."""


class UnsupportedDimensionError(NlflowError):
    """Requested spatial dimension is not 1 or 2."""


class StrategyMismatchError(NlflowError):
    """Operator strategy incompatible with the kernel or the grid size."""


class GridMismatchError(NlflowError):
    """Fields or operators built on different grids were combined."""


class NonFiniteStateError(NlflowError):
    """A field picked up NaN/Inf values; carries the offending step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NonLatticeStepError(NlflowError):
    """Difference-quotient step is not an integer multiple of the grid spacing."""


class UnderResolvedError(NlflowError):
    """A cylinder holds too few nodes/time samples to be meaningful."""


class InsufficientCoverageError(NlflowError):
    """Too few trajectory samples fall in a required time window."""


class FormatError(NlflowError):
    """A field file is malformed or has an unsupported format."""


class DimensionMismatchError(NlflowError):
    """A loaded field does not match the expected grid."""


class ConfigError(NlflowError):
    """Config parse or validation failure; message lists every violation."""


class TrajectoryMismatchError(NlflowError):
    """A trajectory lacks what a diagnostic needs (kind, stepper, kernel)."""


def violations(*rules) -> list:
    """(field, error) pairs of the broken (field, holds, message[, error
    class]) rules; the class defaults to InvalidParameterError."""
    return [(field, (cls or [InvalidParameterError])[0](message))
            for field, holds, message, *cls in rules if not holds]


def raise_first(found: list) -> None:
    """Raise the error of the first (field, error) pair, if there is one."""
    if found:
        raise found[0][1]
