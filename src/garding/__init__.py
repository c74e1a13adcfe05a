"""Numerical Dirichlet solver for Monge-Ampere type equations on Garding cones.

The operator is the product over all p-element subsets of eigenvalue sums of
the metric endomorphism of chi + i ddbar u; p = n - 1 is the
(n-1)-plurisubharmonic case the package centers on.  The solver runs a
continuity method with damped, cone-preserving Newton steps, and a
verification harness instantiates every numerically checkable structural
property: operator concavity and homogeneity, cone preservation, the
comparison sandwich, collar barriers, boundary trace bounds and
second-order ratio monitors.
"""

from .errors import (
    BelowRoundingFloor,
    ConeEscape,
    ContinuationStalled,
    GardingError,
    IndefiniteCoefficients,
    LinearSolveStalled,
    MaxItersExceeded,
    NotAdmissible,
    OutsideCone,
    ParseError,
    SubsolutionInvalid,
    ValidationError,
)
from .grid import BoxGrid, complex_hessian_field
from .hermitian import congruence_reduce_batch, eigvals_batch
from .linear import SparseSystem, assemble_linearized, solve_sparse, upper_barrier
from .operator import (
    OperatorParams,
    determinant_form_batch,
    determinant_linearization_batch,
    ftilde_batch,
    ftilde_grad_batch,
    margins_batch,
    product_batch,
    structure_check,
    subset_sums_batch,
)
from .problems import ProblemSpec, manufactured_box, manufactured_radial, verify_subsolution
from .radial import RadialGrid
from .solver import (
    Attempt,
    SolveDiagnostics,
    boundary_trace_check,
    c2_ratio_monitor,
    continuity_solve,
    newton_solve_at_t,
    sandwich_check,
)
from .specfile import build_problem, parse_document, parse_spec

__version__ = "0.1.0"
