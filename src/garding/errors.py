"""Exception types shared across the package.

Node witnesses are multi-index tuples on box grids and integer s-grid
indices on radial problems.
"""

from __future__ import annotations


class GardingError(Exception):
    """Base class for all package errors."""


class NotHermitian(GardingError):
    """Matrix asymmetry exceeds the construction tolerance."""


class MetricNotPositive(GardingError):
    """Background metric is not positive definite."""


class OutsideCone(GardingError):
    """Eigenvalue vector is outside (or on the boundary of) the cone."""


class NotArrowForm(GardingError):
    """Matrix is not in arrow form (diagonal leading block, full last row/column)."""


class BoundaryNode(GardingError):
    """Interior-only stencil requested at a boundary node."""


class NotAdmissible(GardingError):
    """A field fails the cone-membership requirement somewhere."""

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class SubsolutionInvalid(GardingError):
    """Subsolution fails the lower-bound requirement M(subsolution) >= psi."""

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class IndefiniteCoefficients(GardingError):
    """Linearization coefficients lost positive definiteness (cone-escape bug upstream)."""


class LinearSolveStalled(GardingError):
    """Iterative linear solver hit a residual plateau or iteration cap."""


class ConeEscape(GardingError):
    """No damping factor keeps the Newton candidate admissible."""

    def __init__(self, message: str, node=None):
        super().__init__(message)
        self.node = node


class MaxItersExceeded(GardingError):
    """Newton iteration cap reached before the residual tolerance."""


class ContinuationStalled(GardingError):
    """Homotopy step size shrank below the minimum."""


class RadialModeUnsupported(GardingError):
    """Box-only diagnostic invoked on a radial problem."""


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
