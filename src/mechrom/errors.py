"""Exception types raised across the package.

Every failure mode that callers are expected to branch on gets its own
class so that the command line driver can map it to an exit code without
string matching.
"""

__all__ = [
    "MechromError",
    "InvalidParameterError",
    "InvalidInputError",
    "FormatError",
    "MissingDataError",
    "InsufficientDataError",
    "DegenerateInputError",
    "SingularOperatorError",
    "NotSeparableError",
    "IllConditionedModesError",
    "NoViableLambdaError",
    "InvalidComparisonError",
    "DivergenceError",
]


class MechromError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(MechromError):
    """A scalar or structural parameter is outside its admissible range."""


class InvalidInputError(MechromError):
    """Array inputs are malformed: wrong shape, non-finite, inconsistent."""


class FormatError(MechromError):
    """A text artifact could not be parsed.

    Carries the offending file and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class MissingDataError(MechromError):
    """A required data block (input, force, derivative) is absent."""


class InsufficientDataError(MechromError):
    """Too few samples for the requested operation."""


class DegenerateInputError(MechromError):
    """Data is identically zero or otherwise carries no information."""


class SingularOperatorError(MechromError):
    """A matrix that must be inverted or factorized is singular."""


class NotSeparableError(MechromError):
    """Mass normalization cannot be undone: the stiffness map has a
    complex or nonpositive eigenvalue."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class IllConditionedModesError(MechromError):
    """The eigenvector matrix used to undo mass normalization is too
    ill conditioned to invert reliably."""


class NoViableLambdaError(MechromError):
    """Every candidate regularization weight produced an unusable model.

    The full trial table is attached for diagnosis.
    """

    def __init__(self, message, table=None):
        super().__init__(message)
        self.table = table


class InvalidComparisonError(MechromError):
    """Two objects cannot be compared: incompatible shapes or bases."""


class DivergenceError(MechromError):
    """A replayed model left the finite range."""
