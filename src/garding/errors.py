"""Exception types shared across the package.

Every error may carry ``node``, the grid node it happened at (None when
none is known): multi-index tuples on box grids and integer s-grid indices
on radial problems.  ``attempts`` holds the ``solver.Attempt`` rows of the
solve an error ended (empty when it ended none, or before the first).
"""

from __future__ import annotations


class GardingError(Exception):
    """Base class for all package errors."""

    node = None  # also on an instance made without __init__
    attempts = ()

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class OutsideCone(GardingError):
    """Eigenvalue vector is outside (or on the boundary of) the cone."""


class NotAdmissible(GardingError):
    """A field fails the cone-membership requirement somewhere."""


class SubsolutionInvalid(GardingError):
    """Subsolution fails the lower-bound requirement M(subsolution) >= psi."""


class IndefiniteCoefficients(GardingError):
    """Linearization coefficients lost positive definiteness (cone-escape bug upstream)."""


class LinearSolveStalled(GardingError):
    """Iterative linear solver hit a residual plateau or iteration cap."""


class ConeEscape(GardingError):
    """No damping factor keeps the Newton candidate admissible."""


class MaxItersExceeded(GardingError):
    """Newton iteration cap reached before the residual tolerance."""


class BelowRoundingFloor(GardingError):
    """Newton tolerance below the rounding floor of the residual evaluation."""


class ContinuationStalled(GardingError):
    """Homotopy step size shrank below the minimum."""


class ParseError(GardingError):
    """Problem-spec text is syntactically malformed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(GardingError):
    """Problem-spec value is out of contract."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
